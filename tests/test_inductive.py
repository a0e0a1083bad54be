"""Multi-graph inductive harness: batching, held-out isolation, generalization."""

import numpy as np
import pytest

from qgat import training
from qgat.inductive import (
    SPLITS,
    GraphCollection,
    _split_unions,
    batch_graphs,
    load_collection,
    save_collection,
    synth_collection,
    train_inductive,
)
from qgat.metrics import micro_f1
from qgat.training import TrainConfig, build_model, evaluate, split_views, train


def fixture_collection(seed=0, **kw):
    params = dict(n_per_class=12, n_classes=2, p_in=0.3, p_out=0.02, d=8,
                  class_sep=1.5, n_labels=4, label_density=0.2, seed=seed)
    params.update(kw)
    return synth_collection(3, 1, 1, **params)


def fixture_cfg(**kw):
    base = dict(model="qgat", task="multi-label", epochs=200, patience=40,
                hidden_dims=[16], heads_per_layer=[2, 2], n_qubits=2,
                dropout=0.1, learning_rate=5e-3, seed=0)
    base.update(kw)
    return TrainConfig(**base)


def evaluate_unions(model, coll):
    return evaluate(model, split_views(_split_unions(coll), "multi-label"), "multi-label")


class TestCollection:
    def test_counts_and_split_tags(self):
        coll = synth_collection(2, 1, 1, seed=0)
        assert len(coll.graphs) == 4
        assert coll.splits == ["train", "train", "val", "test"]

    def test_same_seed_identical_collection(self):
        a = fixture_collection(seed=3)
        b = fixture_collection(seed=3)
        for ga, gb in zip(a.graphs, b.graphs):
            np.testing.assert_array_equal(ga.features, gb.features)
            np.testing.assert_array_equal(ga.edges, gb.edges)
            np.testing.assert_array_equal(ga.labels, gb.labels)

    def test_graphs_are_independent_draws(self):
        coll = fixture_collection()
        assert not np.array_equal(coll.graphs[0].edges, coll.graphs[1].edges)

    def test_batch_offsets_keep_graphs_disjoint(self):
        coll = fixture_collection()
        union, node_ids = batch_graphs(coll.graphs[:2])
        assert union.n_nodes == 48
        np.testing.assert_array_equal(node_ids[1], np.arange(24, 48))
        # no edge crosses the boundary
        for s, d in union.edges:
            assert (s < 24) == (d < 24)

    def test_bad_split_tag_rejected(self):
        with pytest.raises(ValueError, match="split"):
            GraphCollection(fixture_collection().graphs[:1], ["holdout"])

    def test_manifest_roundtrip(self, tmp_path):
        coll = fixture_collection()
        manifest = save_collection(coll, tmp_path / "coll")
        back = load_collection(manifest)
        assert back.splits == coll.splits
        for ga, gb in zip(coll.graphs, back.graphs):
            np.testing.assert_array_equal(ga.features, gb.features)
            np.testing.assert_array_equal(ga.edges, gb.edges)
            np.testing.assert_array_equal(ga.labels, gb.labels)


class TestBatchedForward:
    def test_batched_equals_concatenated_per_graph_bitwise(self):
        coll = fixture_collection()
        cfg = fixture_cfg()
        union, _ = batch_graphs(coll.graphs)
        model = build_model(cfg, union.feature_dim, 4)
        batched = model.forward(union).data
        per_graph = np.concatenate(
            [model.forward(g).data for g in coll.graphs], axis=0
        )
        np.testing.assert_array_equal(batched, per_graph)


class TestHeldOutIsolation:
    def test_training_never_reads_val_or_test_features(self, monkeypatch):
        """``train`` on the unions ``train_inductive`` builds does the same
        arithmetic when the val and test graphs hold other features: every
        training-step loss, every recorded loss and metric and the best
        weights are unchanged.  Both runs evaluate every split on the clean
        collection's union, so only a training step that read a held-out
        graph could see the poisoned features."""
        coll = fixture_collection()
        cfg = fixture_cfg(epochs=5)
        poisoned = GraphCollection(
            [g if tag == "train" else g.replace(features=np.full_like(g.features, 1e6))
             for g, tag in zip(coll.graphs, coll.splits)], coll.splits)
        evaluate_all, step = training.evaluate, training.training_step
        clean_views = split_views(_split_unions(coll), cfg.task)
        monkeypatch.setattr(training, "evaluate",
                            lambda model, views, task: evaluate_all(model, clean_views, task))
        runs = []
        for collection in (coll, poisoned):
            steps = []

            def recorded(*args, **kwargs):
                steps.append(step(*args, **kwargs))
                return steps[-1]

            monkeypatch.setattr(training, "training_step", recorded)
            unions = _split_unions(collection)
            model = build_model(cfg, unions.step.feature_dim, 4)
            runs.append((steps, train(model, unions, cfg)))
        (clean_steps, clean), (dirty_steps, dirty) = runs
        assert (poisoned.graphs[-1].features == 1e6).all()
        assert len(clean_steps) == cfg.epochs and np.isfinite(clean_steps).all()
        assert dirty_steps == clean_steps
        assert [(rec.losses, rec.metrics) for rec in dirty.history] == \
            [(rec.losses, rec.metrics) for rec in clean.history]
        for name, value in clean.best_state.items():
            np.testing.assert_array_equal(dirty.best_state[name], value)


class TestOneUnion:
    @pytest.mark.parametrize("model_kind,heads,n_qubits", [("qgat", 4, 2), ("gat", 2, 2)])
    def test_equals_per_split_unions_bitwise(self, model_kind, heads, n_qubits):
        """Predictions, losses and metrics of the one union equal, bit for bit,
        those of a forward over each split's own union (``batch_graphs``),
        with QGAT running more heads than qubits (two circuits per edge)."""
        coll = fixture_collection()
        cfg = fixture_cfg(model=model_kind, heads_per_layer=[heads, heads], n_qubits=n_qubits)
        model = build_model(cfg, 8, 4)
        views = split_views(_split_unions(coll), "multi-label")
        losses, scores, preds = evaluate(model, views, "multi-label")
        assert list(preds) == list(SPLITS)
        for split in SPLITS:
            union, _ = batch_graphs(coll.by_split(split))
            expected = model.forward(union).data
            pred, targets = preds[split]
            np.testing.assert_array_equal(pred.view(np.int64), expected.view(np.int64))
            np.testing.assert_array_equal(targets, union.labels)
            assert np.float64(losses[split]).view(np.int64) == np.float64(
                training.loss("multi-label", expected, union.labels)).view(np.int64)
            assert np.float64(scores[split]).view(np.int64) == np.float64(
                micro_f1(expected, union.labels)).view(np.int64)


class TestEvaluation:
    def test_untrained_model_near_chance_on_balanced_labels(self):
        coll = fixture_collection(label_density=0.5, class_sep=0.0)
        cfg = fixture_cfg()
        model = build_model(cfg, 8, 4)
        _, scores, _ = evaluate_unions(model, coll)
        # random-init logits against ~50% positive labels: far from the
        # trained regime, close to the uninformed operating point
        assert scores["test"] < 0.75

    def test_trained_model_generalizes_to_heldout_graphs(self):
        coll = fixture_collection()
        cfg = fixture_cfg()
        union, _ = batch_graphs(coll.by_split("train"))
        model = build_model(cfg, union.feature_dim, 4)
        result = train_inductive(model, coll, cfg)
        assert result.test_metric >= 0.90

    def test_eval_reproduces_recorded_training_metrics(self):
        coll = fixture_collection()
        cfg = fixture_cfg(epochs=20)
        union, _ = batch_graphs(coll.by_split("train"))
        model = build_model(cfg, union.feature_dim, 4)
        result = train_inductive(model, coll, cfg)
        losses, scores, _ = evaluate_unions(model, coll)
        best = result.history[result.best_epoch]
        assert scores == best.metrics and losses == best.losses

    def test_micro_f1_matches_direct_computation(self):
        coll = fixture_collection()
        cfg = fixture_cfg()
        model = build_model(cfg, 8, 4)
        union, _ = batch_graphs(coll.by_split("test"))
        out = model.forward(union).data
        _, scores, _ = evaluate_unions(model, coll)
        assert scores["test"] == micro_f1(out, union.labels)

    def test_training_on_empty_split_rejected(self):
        coll = fixture_collection()
        no_val = GraphCollection(
            [g for g, t in zip(coll.graphs, coll.splits) if t != "val"],
            [t for t in coll.splits if t != "val"],
        )
        cfg = fixture_cfg(epochs=2)
        model = build_model(cfg, 8, 4)
        with pytest.raises(ValueError, match="no 'val' graphs"):
            train_inductive(model, no_val, cfg)
