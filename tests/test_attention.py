"""Attention layers: hand fixtures, softmax/bounds, equivariance, gradients."""

from unittest import mock

import numpy as np
import pytest

from qgat import attention, autodiff, training, vqc
from qgat.attention import GatLayer, Gatv2Layer, QgatLayer, neighborhood_softmax
from qgat.autodiff import Tensor, gradcheck, tsum
from qgat.graph import Graph, synth_sbm

from oracles import circuit_expectations_reference, encode_reference, ry_matrix, rz_matrix


def elu_ref(x):
    return np.where(x > 0, x, np.expm1(np.minimum(x, 0)))


def make_layer(kind, in_dim, head_dim, heads, seed=0, **kw):
    rng = np.random.default_rng(seed)
    if kind == "qgat":
        return QgatLayer(in_dim, head_dim, heads, kw.pop("n_qubits", 2),
                         kw.pop("entangling_layers", 2), rng=rng, **kw)
    if kind == "gat":
        return GatLayer(in_dim, head_dim, heads, rng=rng, **kw)
    return Gatv2Layer(in_dim, head_dim, heads, rng=rng, **kw)


def random_graph(n, p, d, seed):
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(len(iu)) < p
    edges = np.stack([iu[keep], ju[keep]], axis=1)
    return Graph(rng.standard_normal((n, d)), edges, undirected=True)


def edge_logits(layer, g, features=None):
    """Per-edge attention logits of ``layer`` on ``g``, in attention-edge order,
    read from the softmax input of one forward pass."""
    with mock.patch.object(attention, "neighborhood_softmax",
                           wraps=neighborhood_softmax) as softmax:
        layer.forward(g, g.features if features is None else features)
    return softmax.call_args.args[0].data


@pytest.fixture
def circuit_calls(monkeypatch):
    """(inputs, expectations) of every circuit call the layers make, in order."""
    calls = []
    run = vqc.expectations_op

    def recording(inputs, angles, layout):
        out = run(inputs, angles, layout)
        calls.append((inputs.data.copy(), out.data.copy()))
        return out

    monkeypatch.setattr(vqc, "expectations_op", recording)
    return calls


def layer_grads(layer, g, upstream):
    """Tape gradients of sum(upstream * layer output) for every parameter and,
    under ``"features"``, the node features."""
    x = Tensor(g.features, requires_grad=True)
    for t in layer.params().values():
        t.zero_grad()
    layer.forward(g, x).backward(upstream)
    grads = {name: t.grad for name, t in layer.params().items()}
    grads["features"] = x.grad
    return grads


class TestEdgeInput:
    def test_hand_micro_case(self, circuit_calls):
        # one head, scalar dims, one qubit; replace weights with ones
        layer = make_layer("qgat", 1, 1, 1, n_qubits=1, entangling_layers=1)
        layer.feat_proj.data = np.array([[1.0]])
        layer.compress.data = np.ones((4, 2))
        g = Graph(np.array([[1.0], [2.0]]), [[0, 1]], undirected=True)
        layer.forward(g, g.features)
        (inputs, _), = circuit_calls
        src, dst = g.attention_edges()
        edge = np.flatnonzero((dst == 0) & (src == 1))[0]
        # [W h_i || W h_j || h_i || h_j] = [1, 2, 1, 2]; each output = row sum = 6
        np.testing.assert_array_equal(inputs[edge], [6.0, 6.0])

    def test_output_length_formula(self, circuit_calls):
        layer = make_layer("qgat", 4, 2, 8, n_qubits=5, seed=3)
        assert layer.encoding_dim == 64  # 2^5 * ceil(8/5)
        g = random_graph(6, 0.5, 4, seed=5)
        layer.forward(g, g.features)
        (inputs, _), = circuit_calls
        src, dst = g.attention_edges()
        per_edge = inputs.reshape(len(src), layer.encoding_dim)
        w, p, h = layer.feat_proj.data, layer.compress.data, g._features
        for e, (i, j) in enumerate(zip(dst, src)):
            want = np.concatenate([w.T @ h[i], w.T @ h[j], h[i], h[j]]) @ p
            np.testing.assert_allclose(per_edge[e], want, rtol=1e-12, atol=1e-12)

    def test_zero_features_zero_projection_gives_zero_vector(self, circuit_calls):
        layer = make_layer("qgat", 3, 2, 2, n_qubits=2)
        g = Graph(np.zeros((3, 3)), [[0, 1], [1, 2]], undirected=True)
        logits = edge_logits(layer, g)
        (inputs, _), = circuit_calls
        np.testing.assert_array_equal(inputs, np.zeros((len(logits), layer.encoding_dim)))
        # the amplitude encoder maps this to |0...0> instead of erroring
        basis = np.zeros((1, 4))
        basis[0, 0] = 1.0
        ground = vqc.circuit_forward_batch(basis, layer.angles.data, layer.layout)
        np.testing.assert_array_equal(logits, np.tile(ground[:, :2], (len(logits), 1)))

    def test_dim_mismatch(self):
        layer = make_layer("qgat", 3, 2, 2)
        g = random_graph(4, 0.5, 4, seed=1)
        with pytest.raises(ValueError, match="dim"):
            layer.forward(g, g.features)


class TestLogits:
    def test_single_execution_equals_circuit_output(self, circuit_calls):
        layer = make_layer("qgat", 3, 2, 3, n_qubits=3, entangling_layers=2)
        g = random_graph(5, 0.5, 3, seed=7)
        logits = edge_logits(layer, g)
        (inputs, _), = circuit_calls
        for row, a_prime in zip(logits, inputs):
            want = circuit_expectations_reference(a_prime, layer.angles.data,
                                                  layer.layout.ranges, 3)
            np.testing.assert_allclose(row, want, atol=1e-10)

    def test_head_surplus_truncated(self, circuit_calls):
        layer = make_layer("qgat", 2, 1, 8, n_qubits=5, entangling_layers=1)
        assert layer.n_exec == 2
        g = random_graph(5, 0.5, 2, seed=1)
        logits = edge_logits(layer, g)
        assert logits.shape == (len(g.attention_edges()[0]), 8)
        (inputs, expectations), = circuit_calls
        full = vqc.circuit_forward_batch(inputs, layer.angles.data, layer.layout)
        np.testing.assert_array_equal(expectations, full)
        np.testing.assert_array_equal(logits, full.reshape(len(logits), 10)[:, :8])

    def test_identical_chunks_give_identical_groups(self):
        layer = make_layer("qgat", 2, 1, 4, n_qubits=2, entangling_layers=1)
        layer.compress.data[:, 4:] = layer.compress.data[:, :4]
        logits = edge_logits(layer, random_graph(5, 0.5, 2, seed=2))
        np.testing.assert_array_equal(logits[:, :2], logits[:, 2:])

    def test_logit_scale_invariance(self):
        layer = make_layer("qgat", 2, 1, 2, n_qubits=2)
        g = random_graph(5, 0.5, 2, seed=3)
        base = edge_logits(layer, g)
        np.testing.assert_array_equal(edge_logits(layer, g, 2.0 * g._features), base)
        np.testing.assert_allclose(edge_logits(layer, g, 3.7 * g._features), base, atol=1e-12)


class TestHeadPacking:
    @pytest.mark.parametrize("heads", range(1, 13))
    @pytest.mark.parametrize("n_qubits", range(2, 7))
    def test_executions_per_edge(self, heads, n_qubits):
        layer = make_layer("qgat", 2, 1, heads, n_qubits=n_qubits, entangling_layers=1)
        g = Graph(np.random.default_rng(0).standard_normal((3, 2)),
                  [[0, 1], [1, 2]], undirected=True)
        src, _ = g.attention_edges()
        vqc.reset_execution_count()
        layer.forward(g, g.features)
        expected_per_edge = -(-heads // n_qubits)
        assert vqc.execution_count() == len(src) * expected_per_edge


class TestQgatForward:
    def test_isolated_node_single_softmax(self):
        # node with only a self-loop: alpha = 1, output = act(W h_i) + residual
        layer = make_layer("qgat", 2, 2, 1, n_qubits=1, entangling_layers=1)
        assert layer.shortcut is None  # in_dim == out_dim: identity residual
        g = Graph(np.array([[0.7, -0.3]]), np.empty((0, 2)))
        out = layer.forward(g, g.features).data
        x = g._features[0]
        want = elu_ref(x @ layer.feat_proj.data) + x
        np.testing.assert_allclose(out[0], want, atol=1e-12)

    def test_three_node_path_matches_scripted_reference(self):
        # independent per-edge calculation with explicit 2x2 matrices
        rng = np.random.default_rng(5)
        layer = make_layer("qgat", 1, 1, 1, n_qubits=1, entangling_layers=1, seed=7)
        feats = rng.standard_normal((3, 1))
        g = Graph(feats, [[0, 1], [1, 2]], undirected=True)
        got = layer.forward(g, g.features).data

        w = layer.feat_proj.data  # (1,1)
        p = layer.compress.data  # (4,2)
        u1, u2, u3 = layer.angles.data[0, 0]
        gate = rz_matrix(u1) @ ry_matrix(u2) @ rz_matrix(u3)
        neighbors = {0: [0, 1], 1: [0, 1, 2], 2: [1, 2]}
        want = np.zeros((3, 1))
        for i in range(3):
            logits = []
            for j in neighbors[i]:
                h_i, h_j = feats[i], feats[j]
                a_ij = np.concatenate([w.T @ h_i, w.T @ h_j, h_i, h_j]) @ p
                state = gate @ encode_reference(a_ij, 1)
                logits.append(abs(state[0]) ** 2 - abs(state[1]) ** 2)
            logits = np.array(logits)
            alpha = np.exp(logits - logits.max())
            alpha /= alpha.sum()
            agg = sum(a * (w.T @ feats[j])[0] for a, j in zip(alpha, neighbors[i]))
            want[i, 0] = elu_ref(agg) + feats[i, 0]
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_mean_merge(self):
        layer = make_layer("qgat", 3, 2, 2, merge="mean")
        g = random_graph(6, 0.5, 3, seed=2)
        out = layer.forward(g, g.features).data
        assert out.shape == (6, 2)

    def test_concat_merge_shape(self):
        layer = make_layer("qgat", 3, 2, 4, n_qubits=2)
        g = random_graph(6, 0.5, 3, seed=2)
        assert layer.forward(g, g.features).data.shape == (6, 8)


class TestSoftmaxAndBounds:
    def capture_alpha(self, layer, g):
        _, dst = g.attention_edges()
        logits = edge_logits(layer, g)
        alpha = neighborhood_softmax(Tensor(logits), dst, g.n_nodes)
        return logits, alpha.data, dst

    @pytest.mark.parametrize("kind", ["qgat", "gat", "gatv2"])
    def test_alpha_sums_to_one(self, kind):
        g = random_graph(100, 0.08, 4, seed=11)
        layer = make_layer(kind, 4, 2, 3, seed=3)
        _, alpha, dst = self.capture_alpha(layer, g)
        sums = np.zeros((g.n_nodes, alpha.shape[1]))
        np.add.at(sums, dst, alpha)
        np.testing.assert_allclose(sums, 1.0, atol=1e-6)

    def test_quantum_logits_bounded_classical_not(self):
        g = random_graph(40, 0.15, 4, seed=13)
        qlayer = make_layer("qgat", 4, 2, 3, seed=5)
        qlogits, _, _ = self.capture_alpha(qlayer, g)
        assert np.all(qlogits >= -1.0) and np.all(qlogits <= 1.0)
        # classical logits are unbounded: scale features up and watch them leave [-1, 1]
        glayer = make_layer("gat", 4, 2, 3, seed=5)
        big = Graph(g._features * 50.0, g.edges)
        glogits, _, _ = self.capture_alpha(glayer, big)
        assert np.abs(glogits).max() > 1.0

    def test_uniform_alpha_for_identical_features(self):
        for kind in ("gat", "gatv2"):
            layer = make_layer(kind, 3, 2, 2, seed=1)
            g = Graph(np.tile([[0.4, -0.2, 1.0]], (5, 1)),
                      [[0, 1], [0, 2], [0, 3], [0, 4]], undirected=True)
            _, alpha, dst = self.capture_alpha(layer, g)
            np.testing.assert_allclose(alpha[dst == 0], 0.2, atol=1e-12)

    def test_single_neighbor_alpha_is_one(self):
        layer = make_layer("gat", 3, 2, 2, seed=1)
        g = Graph(np.random.default_rng(0).standard_normal((1, 3)), np.empty((0, 2)))
        _, alpha, _ = self.capture_alpha(layer, g)
        np.testing.assert_array_equal(alpha, 1.0)


class TestClassicalHandFixtures:
    def test_gat_two_node_hand_computation(self):
        layer = make_layer("gat", 2, 2, 1, seed=0)
        w = np.array([[0.5, -0.2], [0.3, 0.8]])
        a_dst = np.array([[0.4, -0.6]])
        a_src = np.array([[0.1, 0.9]])
        layer.feat_proj.data = w
        layer.attn_dst.data = a_dst
        layer.attn_src.data = a_src
        feats = np.array([[1.0, 2.0], [-1.0, 0.5]])
        g = Graph(feats, [[0, 1]], undirected=True)
        got = layer.forward(g, g.features).data

        def leaky(v):
            return np.where(v > 0, v, 0.2 * v)

        proj = feats @ w
        want = np.zeros((2, 2))
        for i in range(2):
            nbrs = [0, 1]
            scores = np.array(
                [leaky(proj[i] @ a_dst[0] + proj[j] @ a_src[0]) for j in nbrs]
            )
            alpha = np.exp(scores - scores.max())
            alpha /= alpha.sum()
            agg = sum(a * proj[j] for a, j in zip(alpha, nbrs))
            want[i] = elu_ref(agg) + feats[i]  # in_dim == out_dim: identity residual
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_gatv2_two_node_hand_computation(self):
        layer = make_layer("gatv2", 2, 2, 1, seed=0)
        wl = np.array([[0.5, -0.2], [0.3, 0.8]])
        wr = np.array([[-0.4, 0.1], [0.7, 0.2]])
        att = np.array([[0.6, -0.3]])
        layer.proj_src.data = wl
        layer.proj_dst.data = wr
        layer.attn.data = att
        feats = np.array([[1.0, 2.0], [-1.0, 0.5]])
        g = Graph(feats, [[0, 1]], undirected=True)
        got = layer.forward(g, g.features).data

        def leaky(v):
            return np.where(v > 0, v, 0.2 * v)

        pl, pr = feats @ wl, feats @ wr
        want = np.zeros((2, 2))
        for i in range(2):
            nbrs = [0, 1]
            scores = np.array([att[0] @ leaky(pl[j] + pr[i]) for j in nbrs])
            alpha = np.exp(scores - scores.max())
            alpha /= alpha.sum()
            agg = sum(a * pl[j] for a, j in zip(alpha, nbrs))
            want[i] = elu_ref(agg) + feats[i]
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_gatv2_scores_can_be_asymmetric(self):
        layer = make_layer("gatv2", 2, 2, 1, seed=3)
        g = Graph(np.array([[1.0, 0.0], [0.0, 1.0]]), [[0, 1]], undirected=True)
        src, dst = g.attention_edges()
        by_pair = {(s, d): v for s, d, v in zip(src, dst, edge_logits(layer, g)[:, 0])}
        assert by_pair[(0, 1)] != by_pair[(1, 0)]


class TestGatherSite:
    @pytest.mark.parametrize("kind", ["qgat", "gat", "gatv2"])
    def test_same_edge_gathers_for_every_layer(self, kind, monkeypatch):
        # a[dst], b[src] and v[src] in the layer, plus the softmax denominators
        calls = []
        take_rows = attention.take_rows

        def counting(x, idx):
            calls.append(x.shape)
            return take_rows(x, idx)

        monkeypatch.setattr(attention, "take_rows", counting)
        g = random_graph(8, 0.4, 3, seed=1)
        make_layer(kind, 3, 2, 2, seed=2).forward(g, g.features)
        assert len(calls) == 4


class TestSegmentLayouts:
    @pytest.mark.parametrize("kind", ["qgat", "gat", "gatv2"])
    def test_layouts_built_once_per_graph(self, kind, monkeypatch):
        g = random_graph(12, 0.3, 3, seed=1)
        layer = make_layer(kind, 3, 2, 2, seed=2)
        layer.forward(g, g.features)  # warm-up
        built = []
        init = autodiff.Segments.__init__

        def counting(self, index, n):
            built.append(len(index))
            init(self, index, n)

        monkeypatch.setattr(autodiff.Segments, "__init__", counting)
        x = Tensor(g.features, requires_grad=True)
        select = np.array([0, 4, 7])
        tsum(training.readout(layer.forward(g, x), select)).backward()
        assert x.grad is not None
        assert len(g.attention_edges()[0]) not in built  # the readout may build its own


class TestEquivarianceAndLocality:
    @pytest.mark.parametrize("kind", ["qgat", "gat", "gatv2"])
    def test_permutation_equivariance_bit_exact(self, kind):
        g = random_graph(37, 0.12, 5, seed=21)
        layer = make_layer(kind, 5, 3, 2, seed=4)
        rng = np.random.default_rng(33)
        upstream = rng.standard_normal((g.n_nodes, layer.out_dim))
        out = layer.forward(g, g.features).data
        grads = layer_grads(layer, g, upstream)
        for _ in range(3):
            perm = rng.permutation(g.n_nodes)
            relabeled = Graph(g._features[np.argsort(perm)],
                              perm[g.edges][:, :])
            out_perm = layer.forward(relabeled, relabeled.features).data
            np.testing.assert_array_equal(out_perm[perm], out)
            up_perm = np.empty_like(upstream)
            up_perm[perm] = upstream
            grads_perm = layer_grads(layer, relabeled, up_perm)
            np.testing.assert_array_equal(grads_perm.pop("features")[perm], grads["features"])
            # a parameter gradient sums over nodes in label order (GEMMs,
            # broadcast sums), so relabelling may round it differently
            for name, grad in grads_perm.items():
                np.testing.assert_allclose(grad, grads[name], rtol=1e-12, atol=1e-14,
                                           err_msg=name)

    @pytest.mark.parametrize("kind", ["qgat", "gat", "gatv2"])
    def test_locality_non_neighbor_perturbation(self, kind):
        # path 0-1-2-3: node 0's output can depend on {0, 1} only
        feats = np.random.default_rng(3).standard_normal((4, 3))
        g = Graph(feats, [[0, 1], [1, 2], [2, 3]], undirected=True)
        layer = make_layer(kind, 3, 2, 2, seed=9)
        base = layer.forward(g, g.features).data
        bumped = feats.copy()
        bumped[3] += 10.0
        g2 = Graph(bumped, g.edges)
        out2 = layer.forward(g2, g2.features).data
        np.testing.assert_array_equal(out2[0], base[0])
        np.testing.assert_array_equal(out2[1], base[1])
        assert not np.array_equal(out2[2], base[2])  # 3 is a neighbor of 2


class TestDropout:
    def test_training_mode_needs_rng(self):
        layer = make_layer("gat", 3, 2, 2, dropout=0.5)
        g = random_graph(5, 0.5, 3, seed=1)
        with pytest.raises(ValueError, match="RNG"):
            layer.forward(g, g.features, training=True)

    def test_eval_mode_ignores_dropout(self):
        layer = make_layer("gat", 3, 2, 2, dropout=0.5)
        g = random_graph(5, 0.5, 3, seed=1)
        a = layer.forward(g, g.features).data
        b = layer.forward(g, g.features).data
        np.testing.assert_array_equal(a, b)

    def test_training_mode_is_stochastic_but_seeded(self):
        layer = make_layer("gat", 3, 2, 2, dropout=0.5)
        g = random_graph(5, 0.5, 3, seed=1)
        a = layer.forward(g, g.features, training=True,
                          rng=np.random.default_rng(0)).data
        b = layer.forward(g, g.features, training=True,
                          rng=np.random.default_rng(0)).data
        c = layer.forward(g, g.features, training=True,
                          rng=np.random.default_rng(1)).data
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)


class TestBackward:
    def test_zero_upstream_zero_gradients(self):
        layer = make_layer("qgat", 3, 2, 2, seed=1)
        g = random_graph(4, 0.6, 3, seed=2)
        grads = layer_grads(layer, g, np.zeros((4, layer.out_dim)))
        for name, grad in grads.items():
            assert not grad.any(), name

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(8)
        layer = make_layer("qgat", 3, 2, 2, n_qubits=2, entangling_layers=2, seed=6)
        g = Graph(rng.standard_normal((4, 3)), [[0, 1], [1, 2], [2, 3]], undirected=True)
        upstream = Tensor(rng.standard_normal((4, layer.out_dim)))
        gradcheck(lambda x, *params: layer.forward(g, x) * upstream,
                  [Tensor(g.features, requires_grad=True), *layer.params().values()],
                  eps=1e-5, rtol=1e-4)

    def test_unreachable_node_feature_gradient_is_zero(self):
        # loss reads node 0 only; node 3 is two hops away -> zero gradient
        layer = make_layer("qgat", 2, 2, 1, seed=2)
        feats = np.random.default_rng(1).standard_normal((4, 2))
        g = Graph(feats, [[0, 1], [1, 2], [2, 3]], undirected=True)
        upstream = np.zeros((4, layer.out_dim))
        upstream[0] = 1.0
        grads = layer_grads(layer, g, upstream)
        np.testing.assert_array_equal(grads["features"][3], 0.0)
        np.testing.assert_array_equal(grads["features"][2], 0.0)
        assert grads["features"][1].any()


class TestSeparateValueWeights:
    def test_flag_changes_value_path(self):
        g = random_graph(5, 0.5, 3, seed=1)
        shared = make_layer("qgat", 3, 2, 2, seed=4)
        split = make_layer("qgat", 3, 2, 2, seed=4, separate_value_weights=True)
        assert "value_proj" in split.params()
        assert "value_proj" not in shared.params()
        assert not np.array_equal(
            shared.forward(g, g.features).data, split.forward(g, g.features).data
        )
