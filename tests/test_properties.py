"""Property tests: row order never changes a bit of a segment reduce or of the
attention aggregation, relabelling a graph's nodes permutes every layer's
outputs and input gradients bit for bit, softmax rows sum to 1, degenerate
rows of an encode batch affect no other row, and the circuit's adjoint
gradients and the slicing op's gradients match finite differences, and a
graph's edge arrays match the set-built oracle byte for byte.  GAT's
attention is static: every query ranks a shared set of keys in one order;
QGAT's is not.

These carry the permutation-equivariance contract of the attention layers
down to their kernels.  Its scope: layer outputs and per-node gradients are
bit-exact under node relabelling.  Parameter gradients agree only to about
1e-15, because ``matmul``'s ``a.T @ g`` and ``_unbroadcast`` sum over nodes in
label order.  Dropout masks are drawn in label order, so a relabelled
training run differs anyway.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import configuration, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qgat import vqc
from qgat.attention import CircuitScorer, GatScorer, _AttentionLayer, neighborhood_softmax
from qgat.autodiff import (Segments, Tensor, gradient_errors, segment_sum, softmax_aggregate,
                           take_rows, tslice)
from qgat.graph import Graph
from qgat.statevector import NORM_EPS, encode_batch

from oracles import canonical_edges_reference, gradcheck, segment_sum_reference

# No example database, and the constants Hypothesis caches from the source
# while pytest collects go to the system temp directory, not ``.hypothesis/``:
# the tests write nothing into the tree.
PROPERTY = settings(max_examples=60, deadline=None, database=None)
# a forward and backward of a layer or a circuit per example: fewer keep tier-1 fast
FORWARD_BACKWARD = settings(PROPERTY, max_examples=30)
configuration.set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "qgat-hypothesis")


@st.composite
def segment_problems(draw, trailing=st.sampled_from([(), (1,), (2,), (3, 2)])):
    """(values, seg, n, perm): rows of ``values`` fall into segments ``seg`` of 0..n-1.

    Values are Gaussian, some of them signed zeros: sums of simple values
    such as small integers are exact in any order and would hide a bad sort.
    """
    n = draw(st.integers(1, 6))  # n = 1 gives single-segment blocks
    rows = draw(st.integers(0, 40))
    seg = draw(arrays(np.int64, rows, elements=st.integers(0, n - 1)))
    shape = (rows, *draw(trailing))
    values = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(shape)
    zeros = draw(arrays(np.int8, shape, elements=st.integers(-1, 1)))  # 1: 0.0, -1: -0.0
    values[zeros != 0] = np.copysign(0.0, zeros[zeros != 0])
    perm = np.array(draw(st.permutations(range(rows))), dtype=np.int64)
    return values, seg, n, perm


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


@PROPERTY
@given(segment_problems())
def test_segment_sum_ignores_row_order(problem):
    values, seg, n, perm = problem
    base = segment_sum(Tensor(values), Segments(seg, n)).data
    assert_same_bits(segment_sum(Tensor(values[perm]), Segments(seg[perm], n)).data, base)
    assert_same_bits(base, segment_sum_reference(values, seg, n))


@PROPERTY
@given(segment_problems())
def test_take_rows_backward_ignores_row_order(problem):
    upstream, seg, n, perm = problem
    grads = []
    for order in (np.arange(len(seg)), perm):
        x = Tensor(np.zeros((n, *upstream.shape[1:])), requires_grad=True)
        take_rows(x, Segments(seg[order], n)).backward(upstream[order])
        grads.append(x.grad)
    assert_same_bits(grads[1], grads[0])


@PROPERTY
@given(segment_problems(trailing=st.sampled_from([(1,), (3,)])))
def test_softmax_rows_sum_to_one(problem):
    logits, dst, n, _ = problem
    z, den = neighborhood_softmax(logits, Segments(dst, n))
    alpha = z / den[dst]
    totals = np.zeros((n, logits.shape[1]))
    np.add.at(totals, dst, alpha)
    filled = np.bincount(dst, minlength=n) > 0
    np.testing.assert_allclose(totals[filled], 1.0, rtol=0, atol=1e-12)


@st.composite
def aggregation_problems(draw):
    """(logits, kept, v, src, dst, upstream, node_perm, edge_perm): logits of
    random edges among n nodes, a keep-mask dropping a third of them, node
    values and an upstream gradient with signed zeros, and a relabelling."""
    n = draw(st.integers(1, 6))
    edges = draw(st.integers(0, 40))
    src, dst = (draw(arrays(np.int64, edges, elements=st.integers(0, n - 1))) for _ in "sd")
    heads, dim = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    logits = gen.standard_normal((edges, heads))
    kept = gen.random(logits.shape) >= 0.3
    v, upstream = gen.standard_normal((2, n, heads, dim))
    for values in (v, upstream):
        zero = gen.random(values.shape) < 0.2
        values[zero] = np.copysign(0.0, gen.standard_normal(zero.sum()))
    node_perm = np.array(draw(st.permutations(range(n))), dtype=np.int64)
    edge_perm = np.array(draw(st.permutations(range(edges))), dtype=np.int64)
    return logits, kept, v, src, dst, upstream, node_perm, edge_perm


@PROPERTY
@given(aggregation_problems())
def test_weighted_segment_sum_is_equivariant(problem):
    """``softmax_aggregate``, with dropout: relabelling the nodes and reordering
    the edges relabels the output and both gradients, bit for bit."""
    logits, kept, v, src, dst, upstream, node_perm, edge_perm = problem
    n, inverse = len(v), np.argsort(node_perm)  # node i becomes node_perm[i]
    results = []
    for a, k, x, s, d, g in ((logits, kept, v, src, dst, upstream),
                             (logits[edge_perm], kept[edge_perm], v[inverse],
                              node_perm[src[edge_perm]], node_perm[dst[edge_perm]],
                              upstream[inverse])):
        leaves = Tensor(a, requires_grad=True), Tensor(x, requires_grad=True)
        by_src, by_dst = Segments(s, n), Segments(d, n)
        z, den = neighborhood_softmax(a, by_dst)
        out = softmax_aggregate(*leaves, z, den, by_src, by_dst, k, 0.3)
        out.backward(g)
        results.append((out.data, leaves[0].grad, leaves[1].grad))
    (out, grad_logits, grad_v), (out2, grad_logits2, grad_v2) = results
    assert_same_bits(out2[node_perm], out)
    assert_same_bits(grad_logits2, grad_logits[edge_perm])
    assert_same_bits(grad_v2[node_perm], grad_v)


@st.composite
def encode_problems(draw):
    """(x, n_qubits, degenerate): ordinary rows with zero rows and rows of norm
    below NORM_EPS scattered among them; the input is at most 2^n wide."""
    n_qubits = draw(st.integers(1, 5))
    width = draw(st.integers(1, 1 << n_qubits))
    kinds = draw(st.lists(st.sampled_from(["ordinary", "zero", "tiny"]), min_size=1,
                          max_size=24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((len(kinds), width))
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    scales = np.array([[{"ordinary": 10.0 ** rng.uniform(-6, 6), "zero": 0.0,
                         "tiny": NORM_EPS * 10.0 ** rng.uniform(-300, -0.01)}[k]]
                       for k in kinds])
    x *= scales / norms
    return x, n_qubits, np.array([k != "ordinary" for k in kinds])


@PROPERTY
@given(encode_problems())
def test_degenerate_rows_encode_as_ground_state(problem):
    x, n_qubits, degenerate = problem
    states, norms = encode_batch(x, n_qubits)
    ground = np.zeros(1 << n_qubits)
    ground[0] = 1.0
    for row, state, norm, is_degenerate in zip(x, states, norms, degenerate):
        if is_degenerate:
            assert_same_bits(state, ground)
            assert norm == 0.0
        else:
            alone, alone_norm = encode_batch(row[None], n_qubits)
            assert_same_bits(state, alone[0])
            assert_same_bits(norm, alone_norm[0])

    inputs = Tensor(x, requires_grad=True)
    layout = vqc.build_layout(n_qubits, 1)
    angles = Tensor(np.random.default_rng(n_qubits).uniform(0, 2 * np.pi, (1, n_qubits, 3)))
    vqc.expectations_op(inputs, angles, layout).backward(np.ones((len(x), n_qubits)))
    assert_same_bits(inputs.grad[degenerate], np.zeros((degenerate.sum(), x.shape[1])))


@st.composite
def relabelled_graphs(draw):
    """(features, edges, perm, gen): a random directed graph of at most 12 nodes,
    isolated nodes and self-loops (which ``Graph`` drops) included, a
    relabelling under which node i becomes ``perm[i]``, and a generator."""
    n = draw(st.integers(1, 12))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=3 * n))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    perm = np.array(draw(st.permutations(range(n))), dtype=np.int64)
    return gen.standard_normal((n, 3)), np.array(edges, dtype=np.int64).reshape(-1, 2), perm, gen


def qgat_layer(heads):
    return lambda rng: _AttentionLayer("qgat", 3, 2, heads, rng=rng, n_qubits=2,
                                       entangling_layers=2)


LAYERS = {
    "gat": lambda rng: _AttentionLayer("gat", 3, 2, 2, rng=rng),
    "gatv2": lambda rng: _AttentionLayer("gatv2", 3, 2, 2, rng=rng),
    # one, two and five heads on two qubits: one execution per edge with a surplus
    # expectation, one without, and three with one surplus
    "qgat-h1": qgat_layer(1),
    "qgat-h2": qgat_layer(2),
    "qgat-h5": qgat_layer(5),
}


@pytest.mark.parametrize("kind", sorted(LAYERS))
@FORWARD_BACKWARD
@given(problem=relabelled_graphs())
def test_layers_are_equivariant_under_relabelling(kind, problem):
    features, edges, perm, gen = problem
    layer = LAYERS[kind](gen)
    upstream = gen.standard_normal((len(features), layer.out_dim))
    inverse = np.argsort(perm)
    results = []
    for g, up in ((Graph(features, edges), upstream),
                  (Graph(features[inverse], perm[edges]), upstream[inverse])):
        x = Tensor(g.features, requires_grad=True)
        out = layer.forward(g, x)
        out.backward(up)
        results.append((out.data, x.grad))
    (out, grad), (out2, grad2) = results
    assert_same_bits(out2[perm], out)
    assert_same_bits(grad2[perm], grad)


def query_key_logits(scorer, features: np.ndarray, n_queries: int):
    """The (queries, keys, heads) logits of every query, the last ``n_queries``
    rows of ``features``, attending to every key, the rows before them, and
    the keys' rows of the scorer's source term b."""
    n = len(features)
    n_keys = n - n_queries
    dst, src = (Segments(index, n) for index in (np.repeat(np.arange(n_keys, n), n_keys),
                                                 np.tile(np.arange(n_keys), n_queries)))
    a, b, _ = scorer.node_terms(Tensor(features))
    logits = scorer.edge_logits(a, b, dst, src).data
    return logits.reshape(n_queries, n_keys, -1), b.data[:n_keys]


@PROPERTY
@given(n_keys=st.integers(2, 6), n_queries=st.integers(2, 5), heads=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_gat_attention_is_static(n_keys, n_queries, heads, seed):
    """GAT's attention is static (Brody et al., arXiv:2105.14491): its logit
    LeakyReLU(a_i + b_j) is monotone in b_j, so for each head every query
    ranks a shared set of keys in one order, that of b_j."""
    gen = np.random.default_rng(seed)
    scorer = GatScorer(3, 2, heads, gen)
    logits, b = query_key_logits(scorer, gen.standard_normal((n_keys + n_queries, 3)),
                                 n_queries)
    for head in range(heads):
        by_b = logits[:, np.argsort(b[:, head]), head]
        assert (np.diff(by_b, axis=1) >= 0).all()


def test_circuit_attention_is_dynamic():
    """QGAT's logit depends on the query and the key jointly: with fixed
    weights, two queries pick different argmax keys among the same keys."""
    gen = np.random.default_rng(0)
    scorer = CircuitScorer(3, 2, 1, gen, n_qubits=2, entangling_layers=2)
    logits, _ = query_key_logits(scorer, gen.standard_normal((8, 3)), 4)
    assert len(set(logits[:, :, 0].argmax(axis=1))) > 1


@st.composite
def circuit_problems(draw):
    """(unit, norms, angles, upstream, layout): 1-5 unit rows at most 2^n wide
    and their norms, between 1e-3 and 1e3, on 1-4 qubits and 1-3 entangling
    layers."""
    n_qubits, n_layers = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    rows, width = draw(st.integers(1, 5)), draw(st.integers(1, 1 << n_qubits))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    unit = gen.standard_normal((rows, width))
    unit /= np.linalg.norm(unit, axis=1, keepdims=True)
    norms = 10.0 ** gen.uniform(-3, 3, (rows, 1))
    angles = gen.uniform(0, 2 * np.pi, (n_layers, n_qubits, 3))
    upstream = gen.standard_normal((rows, n_qubits))
    return unit, norms, angles, upstream, vqc.build_layout(n_qubits, n_layers)


@FORWARD_BACKWARD
@given(circuit_problems())
def test_circuit_gradients_match_finite_differences(problem):
    """The circuit reads x / |x|, so its input gradient scales as 1 / |x|: the
    finite differences step along the unit rows, that is, in proportion to
    each row's norm, and the tape gradient reaches them through ``* norms``."""
    unit, norms, angles, upstream, layout = problem
    errors = gradient_errors(
        lambda u, a: vqc.expectations_op(u * Tensor(norms), a, layout) * Tensor(upstream),
        [Tensor(unit, requires_grad=True), Tensor(angles, requires_grad=True)])
    assert max(errors) <= 1e-4, errors


@st.composite
def slice_problems(draw, kind):
    """(x, key, upstream): a random matrix and a basic-indexing key of ``kind``."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 6))

    def bounds(size):
        lo = draw(st.integers(0, size - 1))
        return slice(lo, draw(st.integers(lo + 1, size)), draw(st.integers(1, 2)))

    row_key, col_key = bounds(rows), bounds(cols)
    key = {"rows": row_key, "cols": np.s_[:, col_key], "2-d": (row_key, col_key)}[kind]
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = gen.standard_normal((rows, cols))
    return x, key, gen.standard_normal(x[key].shape)


@pytest.mark.parametrize("kind", ["rows", "cols", "2-d"])
@PROPERTY
@given(data=st.data())
def test_tslice_gradient(kind, data):
    x, key, upstream = data.draw(slice_problems(kind))
    gradcheck(lambda t: tslice(t, key) * Tensor(upstream), [Tensor(x, requires_grad=True)])


@st.composite
def edge_lists(draw):
    """(n, edges, undirected): repeats, both directions, self-loops, isolated
    nodes, edgeless graphs and n = 1 all occur."""
    n = draw(st.integers(1, 12))
    edges = draw(arrays(np.int64, (draw(st.integers(0, 30)), 2),
                        elements=st.integers(0, n - 1)))
    repeats = draw(st.integers(0, len(edges)))
    edges = np.concatenate([edges, edges[:repeats, ::-1], edges[:repeats // 2]])
    return n, edges, draw(st.booleans())


@PROPERTY
@given(edge_lists())
@example((1, np.zeros((0, 2), dtype=np.int64), False))
@example((1, np.zeros((2, 2), dtype=np.int64), True))
# a repeat, both directions, a self-loop and the isolated nodes 3 and 4
@example((5, np.array([[0, 1], [1, 0], [0, 1], [2, 1], [2, 2]]), False))
def test_edge_arrays_match_set_oracle(problem):
    n, edges, undirected = problem
    g = Graph(np.zeros((n, 1)), edges, undirected=undirected)
    want_edges, want_pairs, want_attention = canonical_edges_reference(n, edges, undirected)
    src, dst = g.attention_edges()
    for got, want in zip((g.edges, g.undirected_pairs(), src, dst),
                         (want_edges, want_pairs, *want_attention)):
        assert got.dtype == np.int64 and got.flags.c_contiguous
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert not any(a.flags.writeable for a in (g.undirected_pairs(), src, dst))
