"""Multi-graph inductive harness: batching, held-out isolation, generalization."""

import numpy as np
import pytest

from qgat.inductive import (
    GraphCollection,
    batch_graphs,
    eval_inductive,
    load_collection,
    save_collection,
    synth_collection,
    train_inductive,
)
from qgat.metrics import micro_f1
from qgat.training import AdamWState, TrainConfig, build_model, stream_rng, training_step


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


class TestCollection:
    def test_counts_and_split_tags(self):
        coll = synth_collection(2, 1, 1, seed=0)
        assert len(coll.graphs) == 4
        assert coll.splits == ["train", "train", "val", "test"]

    def test_same_seed_identical_collection(self):
        a = fixture_collection(seed=3)
        b = fixture_collection(seed=3)
        for ga, gb in zip(a.graphs, b.graphs):
            np.testing.assert_array_equal(ga._features, gb._features)
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
            np.testing.assert_array_equal(ga._features, gb._features)
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
    def test_training_never_reads_val_or_test_features(self):
        coll = fixture_collection()
        cfg = fixture_cfg(epochs=5)
        train_union, _ = batch_graphs(coll.by_split("train"))
        model = build_model(cfg, train_union.feature_dim, 4)
        for g in coll.graphs:
            g.feature_reads = 0
        opt = AdamWState()
        rng = stream_rng(cfg.seed, "dropout")
        for _ in range(5):
            training_step(model, train_union, cfg, opt, cfg.learning_rate, rng)
        for g, tag in zip(coll.graphs, coll.splits):
            if tag in ("val", "test"):
                assert g.feature_reads == 0, tag


class TestEvaluation:
    def test_untrained_model_near_chance_on_balanced_labels(self):
        coll = fixture_collection(label_density=0.5, class_sep=0.0)
        cfg = fixture_cfg()
        model = build_model(cfg, 8, 4)
        report = eval_inductive(model, coll, "multi-label")
        # random-init logits against ~50% positive labels: far from the
        # trained regime, close to the uninformed operating point
        assert report["test"]["metric"] < 0.75

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
        report = eval_inductive(model, coll, "multi-label")
        best = result.history[result.best_epoch]
        for split in ("train", "val", "test"):
            assert report[split]["metric"] == best.metrics[split]
            assert report[split]["loss"] == best.losses[split]

    def test_micro_f1_matches_direct_computation(self):
        coll = fixture_collection()
        cfg = fixture_cfg()
        model = build_model(cfg, 8, 4)
        union, _ = batch_graphs(coll.by_split("test"))
        out = model.forward(union).data
        report = eval_inductive(model, coll, "multi-label")
        assert report["test"]["metric"] == micro_f1(out, union.labels)

    def test_empty_split_rejected(self):
        coll = fixture_collection()
        no_val = GraphCollection(
            [g for g, t in zip(coll.graphs, coll.splits) if t != "val"],
            [t for t in coll.splits if t != "val"],
        )
        cfg = fixture_cfg()
        model = build_model(cfg, 8, 4)
        with pytest.raises(ValueError, match="val"):
            eval_inductive(model, no_val, "multi-label")

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
