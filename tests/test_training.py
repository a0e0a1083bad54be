"""Optimizer, schedule, losses, and the training loop."""

import json
import pickle
import types

import numpy as np
import pytest

from qgat import autodiff, training, vqc
from qgat.graph import Graph, split_link_prediction, synth_sbm
from qgat.metrics import hits_at_k, mrr
from qgat.training import (
    AdamWState,
    Model,
    TASKS,
    TrainConfig,
    TrainingDivergedError,
    adamw_step,
    bce_with_logits,
    build_model,
    cosine_lr,
    cross_entropy_logits,
    evaluate,
    infer_dims,
    load_checkpoint,
    loss,
    run_training,
    save_checkpoint,
    split_views,
    train,
    write_history_csv,
)
from qgat.autodiff import Tensor
from qgat.inductive import SPLITS, _split_unions, synth_collection, train_inductive

from oracles import gradcheck


def fixture_graph(seed=0):
    return synth_sbm(30, 2, 0.3, 0.02, 8, 1.0, seed=seed)


def small_cfg(**kw):
    base = dict(model="gat", epochs=12, patience=20, dropout=0.0,
                hidden_dims=[4], heads_per_layer=[2, 2], seed=0)
    base.update(kw)
    return TrainConfig(**base)


class TestAdamW:
    def test_zero_grad_zero_decay_leaves_params(self):
        p = {"w": np.array([1.0, -2.0])}
        state = AdamWState()
        adamw_step(p, {"w": np.zeros(2)}, state, lr=0.1)
        np.testing.assert_array_equal(p["w"], [1.0, -2.0])
        assert state.step == 1 and "w" in state.m

    def test_single_step_moves_against_gradient(self):
        p = {"w": np.array([1.0])}
        adamw_step(p, {"w": np.array([1.0])}, AdamWState(), lr=0.1, weight_decay=0.0)
        assert p["w"][0] < 1.0

    def test_decoupled_decay_is_multiplicative(self):
        lr, wd = 0.05, 0.2
        p = {"w": np.array([2.0])}
        adamw_step(p, {"w": np.zeros(1)}, AdamWState(), lr=lr, weight_decay=wd)
        assert p["w"][0] == pytest.approx(2.0 * (1 - lr * wd), abs=1e-15)

    def test_non_finite_gradient_aborts(self):
        """A NaN in the second parameter's gradient moves neither the first
        parameter nor the optimizer state."""
        params = {"a": np.ones(2), "b": np.ones(1)}
        state = AdamWState()
        adamw_step(params, {"a": np.full(2, 0.5), "b": np.ones(1)}, state, lr=0.1)
        before = ({k: v.copy() for k, v in params.items()}, state.step,
                  {k: v.copy() for k, v in state.m.items()},
                  {k: v.copy() for k, v in state.v.items()})
        with pytest.raises(TrainingDivergedError, match="'b'"):
            adamw_step(params, {"a": np.ones(2), "b": np.array([np.nan])}, state, lr=0.1)
        after = params, state.step, state.m, state.v
        for was, now in zip(before, after):
            np.testing.assert_equal(now, was)

    def test_matches_manual_two_steps(self):
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        p = {"w": np.array([0.5])}
        state = AdamWState()
        grads = [np.array([0.3]), np.array([-0.7])]
        want = 0.5
        m = v = 0.0
        for t, g in enumerate(grads, start=1):
            m = b1 * m + (1 - b1) * g[0]
            v = b2 * v + (1 - b2) * g[0] ** 2
            want -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
            adamw_step(p, {"w": g}, state, lr=lr)
        assert p["w"][0] == pytest.approx(want, abs=1e-14)


class TestCosineSchedule:
    def test_endpoints_and_midpoint(self):
        assert cosine_lr(0, 100, 1e-2) == 1e-2
        assert cosine_lr(100, 100, 1e-2) == 0.0
        assert cosine_lr(50, 100, 1e-2) == pytest.approx(1e-2 / 2)

    def test_out_of_range_step(self):
        with pytest.raises(ValueError):
            cosine_lr(101, 100, 1e-2)


class TestLosses:
    def test_confident_correct_prediction_near_zero(self):
        value = loss("node-class", np.array([[10.0, -10.0]]), np.array([0]))
        assert value < 1e-4

    def test_uniform_binary_prediction_is_ln2(self):
        value = loss("multi-label", np.zeros((4, 3)), np.zeros((4, 3)))
        assert value == pytest.approx(np.log(2.0), abs=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="label"):
            loss("node-class", np.zeros((2, 3)), np.array([0, 3]))

    def test_bad_binary_targets(self):
        with pytest.raises(ValueError, match="binary"):
            loss("multi-label", np.zeros((1, 2)), np.array([[0.5, 1.0]]))

    @pytest.mark.parametrize("task,labels", [
        ("node-class", np.array([0, 2, 1, 1])),
        ("multi-label", np.random.default_rng(0).integers(0, 2, (4, 3))),
    ])
    def test_gradient_matches_finite_differences(self, task, labels):
        rng = np.random.default_rng(1)
        pred = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        fn = cross_entropy_logits if task == "node-class" else bce_with_logits
        gradcheck(lambda t: fn(t, labels), [pred])

    def test_tape_and_op_agree(self):
        rng = np.random.default_rng(2)
        pred = rng.standard_normal((5, 4))
        labels = rng.integers(0, 4, 5)
        via_op = loss("node-class", pred, labels)
        via_tape = cross_entropy_logits(Tensor(pred), labels).item()
        assert via_op == via_tape
        targets = rng.integers(0, 2, (5, 4))
        via_op = loss("multi-label", pred, targets)
        assert via_op == bce_with_logits(Tensor(pred), targets).item()


def no_mallopt(name):
    return object()


def no_libc(name):
    raise OSError("no C library")


class TestTrainLoop:
    def test_zero_epochs_returns_initial_evaluation(self):
        g = fixture_graph()
        result = run_training(g, small_cfg(epochs=0))
        assert len(result.history) == 1
        assert result.best_epoch == 0

    def test_fixed_seed_reproduces_history_bit_exactly(self):
        g = fixture_graph()
        cfg = small_cfg(model="qgat", epochs=6, dropout=0.5,
                        heads_per_layer=[2, 2], n_qubits=2)
        a = run_training(g, cfg)
        b = run_training(g, cfg)
        assert len(a.history) == len(b.history)
        for ra, rb in zip(a.history, b.history):
            assert ra.losses == rb.losses
            assert ra.metrics == rb.metrics
            assert ra.lr == rb.lr

    @pytest.mark.parametrize("cdll", [no_mallopt, no_libc], ids=["no-mallopt", "no-libc"])
    def test_allocator_setting_is_skipped_without_mallopt(self, monkeypatch, cdll):
        """Without ``mallopt`` and the OpenBLAS calls (or a library to look them
        up in) ``train`` runs as usual, and the BLAS is described as unknown."""
        g = fixture_graph()
        cfg = small_cfg(epochs=3)
        want = run_training(g, cfg)
        monkeypatch.setattr(training.ctypes, "CDLL", cdll)
        assert training.one_blas_thread() == "unknown"
        got = run_training(g, cfg)
        assert [r.losses for r in got.history] == [r.losses for r in want.history]

    @pytest.mark.parametrize("model", ["qgat", "gat", "gatv2"])
    def test_loss_decreases_over_first_ten_epochs(self, model):
        g = fixture_graph()
        cfg = TrainConfig(model=model, epochs=10, patience=100, seed=0)
        result = run_training(g, cfg)
        assert result.history[10].losses["train"] < result.history[0].losses["train"]

    def test_early_stopping_checkpoint_is_validation_argmax(self):
        g = fixture_graph()
        result = run_training(g, small_cfg(model="gat", epochs=30, patience=5))
        vals = [r.metrics["val"] for r in result.history]
        assert result.val_metric == max(vals)
        assert vals[result.best_epoch] == max(vals)

    def test_metrics_stay_in_unit_interval(self):
        g = fixture_graph()
        result = run_training(g, small_cfg(epochs=8))
        for rec in result.history:
            for value in rec.metrics.values():
                assert 0.0 <= value <= 1.0

    @pytest.mark.parametrize("run,model", [
        (train, "gat"), (train_inductive, "gat"), (train, "qgat"), (train_inductive, "qgat"),
    ], ids=["train", "train_inductive", "train-qgat", "train_inductive-qgat"])
    def test_divergence_aborts_with_epoch(self, run, model):
        if run is train:
            data, task = fixture_graph(), "node-class"
        else:
            data, task = synth_collection(2, 1, 1, n_labels=2, seed=0), "multi-label"
        cfg = small_cfg(model=model, epochs=30, task=task)
        model = build_model(cfg, 8, 2)
        model.layers[0].scorer.params["feat_proj"].data[0, 0] = np.nan
        with pytest.raises(TrainingDivergedError, match=r"'layer0\.feat_proj' \(epoch 0\)"):
            run(model, data, cfg)

    def test_config_validation(self):
        for lr in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="learning rate"):
                TrainConfig(learning_rate=lr).validate()
        with pytest.raises(ValueError, match="hidden_dims"):
            TrainConfig(hidden_dims=[8], heads_per_layer=[2, 2, 2]).validate()
        with pytest.raises(ValueError, match="model"):
            TrainConfig(model="gcn").validate()
        for weight_decay in (-1e-4, np.nan, np.inf):
            with pytest.raises(ValueError, match="weight_decay"):
                TrainConfig(weight_decay=weight_decay).validate()

    def test_empty_train_split_names_the_split(self):
        g = fixture_graph()
        g.masks["val"] |= g.masks["train"]
        g.masks["train"][:] = False
        with pytest.raises(ValueError, match="'train' split is empty"):
            run_training(g, small_cfg())

    def test_task_needs_matching_label_shape(self):
        with pytest.raises(ValueError, match=r"multi-label.*shape \(60,\)"):
            infer_dims(fixture_graph(), small_cfg(task="multi-label"))
        g = fixture_graph()
        unmasked = Graph(g.features, g.edges, labels=g.labels)
        with pytest.raises(ValueError, match="masks"):
            infer_dims(unmasked, small_cfg())


class TestEvaluate:
    @pytest.mark.parametrize("shape", ["graph", "link-split", "unions"])
    def test_one_forward_per_evaluation(self, monkeypatch, shape):
        if shape == "graph":
            data, task = fixture_graph(), "node-class"
        elif shape == "link-split":
            data, task = split_link_prediction(fixture_graph(), 0.1, 0.2, 1, seed=0), "link-pred"
        else:
            data = _split_unions(synth_collection(2, 1, 1, n_labels=2, seed=0))
            task = "multi-label"
        model = build_model(small_cfg(task=task, hidden_dims=[4, 4]), 8, 2)
        graphs = []
        forward = Model.forward

        def counted(self, graph, *args, **kwargs):
            graphs.append(graph)
            return forward(self, graph, *args, **kwargs)

        monkeypatch.setattr(Model, "forward", counted)
        views = split_views(data, task)
        losses, scores, _ = evaluate(model, views, task)
        assert graphs == [views.graph]
        assert set(losses) == set(scores) == set(SPLITS)

    @pytest.mark.parametrize("model_kind", ["gat", "qgat"])
    def test_evaluation_records_no_tape(self, monkeypatch, model_kind):
        recorded = []

        def counting(make):
            def wrapper(data, parents, vjp):
                out = make(data, parents, vjp)
                if out._vjp is not None:
                    recorded.append(out)
                return out
            return wrapper

        for module in (autodiff, vqc):
            monkeypatch.setattr(module, "make_op", counting(module.make_op))
        g = fixture_graph()
        model = build_model(small_cfg(model=model_kind), 8, 2)
        model.forward(g)
        assert recorded  # the probe sees the tape of an ordinary forward
        recorded.clear()
        evaluate(model, split_views(g, "node-class"), "node-class")
        assert recorded == []
        assert all(t.requires_grad for t in model.params().values())

    def test_divergence_mid_forward_restores_the_flags(self, monkeypatch):
        model = build_model(small_cfg(hidden_dims=[4, 4]), 8, 2)

        def diverging(graph, features, **kwargs):
            raise TrainingDivergedError("non-finite layer output")

        monkeypatch.setattr(model.layers[1], "forward", diverging)
        with pytest.raises(TrainingDivergedError, match="layer output"):
            evaluate(model, split_views(fixture_graph(), "node-class"), "node-class")
        assert all(t.requires_grad for t in model.params().values())


def closure_contents(fn) -> list:
    """Every object ``fn``'s closure holds, descending into tuples, lists, dict
    values, the closures of functions among them and the objects their bound
    methods are bound to (``array.copy`` holds the array)."""
    held, seen, stack = [], {id(fn)}, [cell.cell_contents for cell in fn.__closure__ or ()]
    while stack:
        x = stack.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        held.append(x)
        if isinstance(x, (tuple, list)):
            stack.extend(x)
        elif isinstance(x, dict):
            stack.extend(x.values())
        stack.extend(cell.cell_contents for cell in getattr(x, "__closure__", None) or ())
        if isinstance(x, (types.MethodType, types.BuiltinMethodType)):
            stack.append(x.__self__)
    return held


def tape_contents(root: autodiff.Node) -> list:
    """Every object the VJPs of the tape below ``root`` hold (``closure_contents``),
    so that the circuit's ``backward`` inside its node's VJP is included."""
    held, seen, stack = [], set(), [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node.parents)
        if node.vjp is not None:
            held += closure_contents(node.vjp)
    return held


def distinct_bytes(objects) -> int:
    """Bytes of the distinct buffers behind the arrays among ``objects``: a view
    counts as the array it was taken from."""
    buffers = {}
    for x in objects:
        if isinstance(x, np.ndarray):
            while isinstance(x.base, np.ndarray):
                x = x.base
            buffers[id(x)] = x.nbytes
    return sum(buffers.values())


class TestTapeContents:
    """The tape keeps what the VJPs read, captured as arrays: no VJP holds a
    Tensor, so a value the forward drops is freed before the backward."""

    # kB the closures may hold at the start of the backward, with dropout on
    # and 2-qubit circuits, on the 60-node fixture (222 to 606 attention
    # edges): 1.25 times what they held once each layer's softmax, dropout
    # and aggregation kept one (edges, heads) float array instead of three
    # (32 to 117 kB; 45 to 154 kB before, counted the same way), and, for
    # QGAT, once the circuit kept its node terms instead of its encoded rows
    # (44 to 72 kB; 52 to 102 kB before)
    BOUND_KB = {
        ("qgat", "node-class"): 89, ("gat", "node-class"): 67, ("gatv2", "node-class"): 146,
        ("qgat", "multi-label"): 55, ("gat", "multi-label"): 40, ("gatv2", "multi-label"): 70,
        ("qgat", "link-pred"): 90, ("gat", "link-pred"): 70, ("gatv2", "link-pred"): 149,
    }

    @pytest.mark.parametrize("model_kind", ["qgat", "gat", "gatv2"])
    @pytest.mark.parametrize("task", ["node-class", "multi-label", "link-pred"])
    def test_closures_hold_arrays_only(self, monkeypatch, model_kind, task):
        if task == "node-class":
            data = fixture_graph()
        elif task == "link-pred":
            data = split_link_prediction(fixture_graph(), 0.1, 0.2, 1, seed=0)
        else:
            data = _split_unions(synth_collection(2, 1, 1, n_labels=2, seed=0))
        cfg = small_cfg(model=model_kind, task=task, hidden_dims=[4, 4], dropout=0.5,
                        n_qubits=2)
        model = build_model(cfg, 8, 2)
        held = []
        backward = Tensor.backward

        def inspecting(self, *args, **kwargs):
            held.extend(tape_contents(self.node))
            return backward(self, *args, **kwargs)

        monkeypatch.setattr(Tensor, "backward", inspecting)
        view = split_views(data, task).step
        training.training_step(model, view, cfg, AdamWState(), 0.01, np.random.default_rng(0))
        assert held
        assert not [x for x in held if isinstance(x, Tensor)]
        assert distinct_bytes(held) <= 1000 * self.BOUND_KB[model_kind, task]
        if model_kind == "qgat":
            # the circuit keeps its node terms and norms, not its (E * n_exec, 2^n) rows
            edges = len(view[0].attention_edges()[0])
            rows = {shape for layer in model.layers
                    for shape in ((edges * layer.scorer.n_exec, 1 << layer.scorer.n_qubits),
                                  (edges, layer.scorer.n_exec << layer.scorer.n_qubits))}
            assert not [x.shape for x in held if isinstance(x, np.ndarray)
                        and (x.shape in rows or getattr(x.base, "shape", None) in rows)]


class TestLinkPrediction:
    def test_memorization_reaches_perfect_hits_at_one(self):
        rng = np.random.default_rng(0)
        g = Graph(rng.standard_normal((10, 4)),
                  [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [6, 7],
                   [7, 8], [8, 9], [0, 5], [2, 7], [3, 8]],
                  undirected=True)
        split = split_link_prediction(g, 0.0, 0.0, 1, seed=0)
        cfg = TrainConfig(model="gat", task="link-pred", epochs=300, patience=300,
                          dropout=0.0, learning_rate=0.02, hidden_dims=[8, 8],
                          heads_per_layer=[2, 2], weight_decay=0.0, seed=0)
        result = run_training(split, cfg)
        pos, neg = ranked(result.predictions["train"])
        assert hits_at_k(pos, neg, 1) == 1.0
        assert mrr(pos, neg) == 1.0

    def test_heldout_eval_reports_both_metrics(self):
        g = fixture_graph()
        split = split_link_prediction(g, 0.1, 0.2, 1, seed=0)
        cfg = TrainConfig(model="gat", task="link-pred", epochs=15, patience=30,
                          dropout=0.0, hidden_dims=[4, 4], heads_per_layer=[2, 2], seed=0)
        result = run_training(split, cfg)
        assert set(result.predictions) == {"train", "val", "test"}
        for name in ("train", "val", "test"):
            pos, neg = ranked(result.predictions[name])
            assert 0.0 <= hits_at_k(pos, neg, 10) <= 1.0
            assert 0.0 <= mrr(pos, neg) <= 1.0


def trained(data, cfg):
    """The trained model and ``train``'s result, where ``run_training`` returns
    the result alone."""
    model = build_model(cfg, *infer_dims(data, cfg))
    return model, train(model, data, cfg)


def ranked(scored):
    """A link split's (positive scores, negative scores) from its (scores, targets)."""
    scores, targets = scored
    return scores[targets == 1], scores[targets == 0]


class TestBestPredictions:
    @pytest.mark.parametrize("task", ["node-class", "multi-label", "link-pred"])
    def test_restored_model_reproduces_predictions(self, task):
        """``evaluate`` of the model ``train`` returns reproduces the kept
        predictions bit for bit, and the test metric is the task's metric of
        the kept test predictions: nothing needs a second evaluation."""
        if task == "node-class":
            data = fixture_graph()
            model, result = trained(data, small_cfg(model="qgat", n_qubits=2))
        elif task == "multi-label":
            coll = synth_collection(2, 1, 1, n_labels=3, seed=0)
            cfg = small_cfg(model="qgat", task=task, n_qubits=2)
            model = build_model(cfg, 8, 3)
            result, data = train_inductive(model, coll, cfg), _split_unions(coll)
        else:
            data = split_link_prediction(fixture_graph(), 0.1, 0.2, 1, seed=0)
            model, result = trained(data, small_cfg(task=task, hidden_dims=[4, 4],
                                                    dropout=0.5))
        assert result.best_epoch > 0
        _, _, again = evaluate(model, split_views(data, task), task)
        assert list(again) == list(result.predictions)
        for name, (pred, targets) in result.predictions.items():
            np.testing.assert_array_equal(again[name][0].view(np.int64), pred.view(np.int64))
            np.testing.assert_array_equal(again[name][1], targets)
        test = TASKS[task].metric(*result.predictions["test"])
        assert np.float64(result.test_metric).view(np.int64) == np.float64(test).view(np.int64)


class TestPersistence:
    def test_checkpoint_roundtrip_bit_exact(self, tmp_path):
        g = fixture_graph()
        cfg = small_cfg(model="qgat", epochs=3, heads_per_layer=[2, 2], n_qubits=2)
        model, result = trained(g, cfg)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, cfg, result.best_state)
        cfg2, state = load_checkpoint(path)
        assert cfg2 == cfg
        for name, arr in result.best_state.items():
            np.testing.assert_array_equal(state[name], arr)
        fresh = build_model(cfg2, g.feature_dim, 2)
        fresh.load_state_dict(state)
        np.testing.assert_array_equal(fresh.forward(g).data, model.forward(g).data)

    @pytest.mark.parametrize("model_kind", ["qgat", "gat", "gatv2"])
    def test_trained_model_pickles_bit_exact(self, model_kind):
        # a trained model, its QGAT circuits included, survives a pickle round trip
        g = fixture_graph()
        model, _ = trained(g, small_cfg(model=model_kind, epochs=3, dropout=0.2,
                                        n_qubits=2))
        copy = pickle.loads(pickle.dumps(model))
        assert ({name: arr.tobytes() for name, arr in copy.state_dict().items()}
                == {name: arr.tobytes() for name, arr in model.state_dict().items()})
        assert copy.forward(g).data.tobytes() == model.forward(g).data.tobytes()

    def saved_checkpoint(self, tmp_path, edit):
        model = build_model(small_cfg(), 8, 2)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, small_cfg(), model.state_dict())
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
        return path

    def test_load_checkpoint_rejects_unknown_config_key(self, tmp_path):
        # a misspelt field, and the fields of an older checkpoint's config that
        # the model no longer has: such a checkpoint fails loudly
        for extra in ({"heads": 3}, {"merge": "concat", "lr_min": 0.0}):
            path = self.saved_checkpoint(tmp_path, lambda p: p["config"].update(extra))
            with pytest.raises(ValueError, match="unknown keys") as err:
                load_checkpoint(path)
            assert str(sorted(extra)) in str(err.value)

    def test_load_checkpoint_rejects_weight_without_shape(self, tmp_path):
        path = self.saved_checkpoint(tmp_path, lambda p: p["shapes"].pop("layer0.attn_dst"))
        with pytest.raises(ValueError, match=r"no shape.*'layer0\.attn_dst'"):
            load_checkpoint(path)

    def test_load_checkpoint_validates_config(self, tmp_path):
        path = self.saved_checkpoint(tmp_path, lambda p: p["config"].update(model="nope"))
        with pytest.raises(ValueError, match="model.*'nope'"):
            load_checkpoint(path)

    def test_load_state_dict_rejects_wrong_shape(self):
        model = build_model(small_cfg(), 8, 2)
        state = model.state_dict()
        assert state["layer0.attn_dst"].shape == (2, 4)
        state["layer0.attn_dst"] = state["layer0.attn_dst"].T
        with pytest.raises(ValueError, match=r"'layer0\.attn_dst'.*\(4, 2\).*\(2, 4\)"):
            model.load_state_dict(state)

    def test_load_state_dict_copies_arrays(self):
        model = build_model(small_cfg(), 8, 2)
        state = model.state_dict()
        model.load_state_dict(state)
        state["layer0.attn_dst"] += 1.0
        np.testing.assert_array_equal(model.state_dict()["layer0.attn_dst"],
                                      state["layer0.attn_dst"] - 1.0)

    def test_history_csv_schema(self, tmp_path):
        g = fixture_graph()
        result = run_training(g, small_cfg(epochs=2))
        path = tmp_path / "history.csv"
        write_history_csv(result.history, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,split,loss,metric,lr,seconds"
        assert len(lines) == 1 + 3 * len(result.history)
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] in ("test", "train", "val")


def param_count(model):
    return sum(t.data.size for t in model.params().values())


class TestParameterAccounting:
    def test_extra_entangling_layer_adds_three_per_qubit(self):
        g = fixture_graph()
        for n_q in (2, 4):
            cfg_a = small_cfg(model="qgat", n_qubits=n_q, entangling_layers=2)
            cfg_b = small_cfg(model="qgat", n_qubits=n_q, entangling_layers=3)
            a = build_model(cfg_a, g.feature_dim, 2)
            b = build_model(cfg_b, g.feature_dim, 2)
            delta = param_count(b) - param_count(a)
            assert delta == 3 * n_q * len(cfg_a.heads_per_layer)

    def test_gatv2_exceeds_gat_at_equal_config(self):
        g = fixture_graph()
        gat = build_model(small_cfg(model="gat"), g.feature_dim, 2)
        gatv2 = build_model(small_cfg(model="gatv2"), g.feature_dim, 2)
        assert param_count(gatv2) > param_count(gat)
