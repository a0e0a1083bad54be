"""Graph model, loaders, SBM generator, noise protocols, link splits."""

import tracemalloc

import numpy as np
import pytest

from qgat.graph import (
    NOISE,
    Graph,
    GraphFormatError,
    add_feature_noise,
    add_structural_noise,
    load_graph,
    save_graph_json,
    split_link_prediction,
    synth_sbm,
)
from qgat.graph import _free_pairs

from oracles import free_pairs_reference, sbm_pairs_reference


def write_csv_bundle(tmp_path, features_lines, edges_lines):
    (tmp_path / "features.csv").write_text("\n".join(features_lines) + "\n")
    (tmp_path / "edges.txt").write_text("\n".join(edges_lines) + "\n")
    return tmp_path


class TestLoaders:
    def test_path_graph_expands_to_both_directions(self, tmp_path):
        write_csv_bundle(tmp_path, ["f0,f1", "1,0", "0,1", "1,1"], ["0 1", "1 2"])
        g = load_graph(tmp_path, format="csv")
        assert g.n_nodes == 3
        assert len(g.edges) == 4
        np.testing.assert_array_equal(g.edges, [[0, 1], [1, 0], [1, 2], [2, 1]])

    def test_empty_edge_file_gives_isolated_nodes(self, tmp_path):
        write_csv_bundle(tmp_path, ["f0", "1", "2"], ["# no edges"])
        g = load_graph(tmp_path, format="csv")
        assert len(g.edges) == 0
        src, dst = g.attention_edges()
        np.testing.assert_array_equal(src, [0, 1])
        np.testing.assert_array_equal(dst, [0, 1])

    def test_dangling_edge_names_line(self, tmp_path):
        # comment and blank lines count: the bad edge is on file line 4
        write_csv_bundle(tmp_path, ["f0", "1", "2"], ["# c", "", "0 1", "1 2"])
        with pytest.raises(GraphFormatError, match="edge line 4 "):
            load_graph(tmp_path, format="csv")

    def test_label_column(self, tmp_path):
        write_csv_bundle(tmp_path, ["f0,label,f1", "0.5,1,2.0", "1.5,0,3.0"], ["0 1"])
        g = load_graph(tmp_path, format="csv")
        np.testing.assert_array_equal(g.labels, [1, 0])
        np.testing.assert_allclose(g.features, [[0.5, 2.0], [1.5, 3.0]])

    def test_ragged_row_reports_position(self, tmp_path):
        write_csv_bundle(tmp_path, ["f0,f1", "1,2", "3"], ["0 1"])
        with pytest.raises(GraphFormatError, match="features.csv:3"):
            load_graph(tmp_path, format="csv")

    def test_non_numeric_cell_reports_position(self, tmp_path):
        write_csv_bundle(tmp_path, ["f0", "1", "oops"], [""])
        with pytest.raises(GraphFormatError, match="features.csv:3"):
            load_graph(tmp_path, format="csv")

    def test_non_finite_cell_reports_position(self, tmp_path):
        # blank lines count: the bad row is on file line 4
        write_csv_bundle(tmp_path, ["f0,f1", "1,2", "", "3,inf"], ["0 1"])
        with pytest.raises(GraphFormatError, match="features.csv:4: .*non-finite"):
            load_graph(tmp_path, format="csv")

    def test_non_utf8_rejected(self, tmp_path):
        (tmp_path / "features.csv").write_bytes(b"f0\n\xff\xfe\n")
        (tmp_path / "edges.txt").write_text("")
        with pytest.raises(GraphFormatError, match="UTF-8"):
            load_graph(tmp_path, format="csv")

    def test_json_roundtrip_with_masks(self, tmp_path):
        g = synth_sbm(5, 2, 0.5, 0.1, 3, 1.0, seed=4)
        path = tmp_path / "g.json"
        save_graph_json(g, path)
        back = load_graph(path, format="json")
        np.testing.assert_array_equal(back.edges, g.edges)
        np.testing.assert_array_equal(back.features, g.features)
        np.testing.assert_array_equal(back.labels, g.labels)
        for name in ("train", "val", "test"):
            np.testing.assert_array_equal(back.masks[name], g.masks[name])

    def test_json_unknown_mask_rejected(self, tmp_path):
        """A mask beyond train/val/test would become an evaluation split, even one
        that copies (and so overlaps) another."""
        path = tmp_path / "g.json"
        path.write_text('{"features": [[1.0], [2.0]], "edges": [[0, 1]], "masks": '
                        '{"train": [true, false], "val": [false, true], "test": [false, false], '
                        '"holdout": [true, false]}}')
        with pytest.raises(GraphFormatError, match=r"g\.json: unknown masks \['holdout'\]"):
            load_graph(path, format="json")

    def test_json_bad_edge_indexed(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text('{"features": [[1.0], [2.0]], "edges": [[0, 5]]}')
        with pytest.raises(GraphFormatError, match="entry 0"):
            load_graph(path, format="json")

    def test_json_parse_error_has_line(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text('{"features": [[1.0]\n  "edges": []}')
        with pytest.raises(GraphFormatError, match="line"):
            load_graph(path, format="json")

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            load_graph(tmp_path, format="parquet")


class TestGraphInvariants:
    def test_duplicate_edges_collapse(self):
        g = Graph(np.zeros((3, 1)), [[0, 1], [0, 1], [1, 0]])
        assert len(g.edges) == 2

    def test_self_loops_stripped(self):
        g = Graph(np.zeros((3, 1)), [[0, 0], [0, 1]])
        np.testing.assert_array_equal(g.edges, [[0, 1]])

    def test_out_of_range_edge(self):
        with pytest.raises(ValueError, match="outside"):
            Graph(np.zeros((2, 1)), [[0, 2]])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, value):
        with pytest.raises(ValueError, match="non-finite"):
            Graph(np.array([[0.0], [value]]), [[0, 1]])

    def test_overlapping_masks_rejected(self):
        m = np.array([True, False])
        with pytest.raises(ValueError, match="overlap"):
            Graph(np.zeros((2, 1)), [[0, 1]],
                  masks={"train": m, "val": m, "test": ~m})


class TestSbm:
    def test_disjoint_cliques(self):
        g = synth_sbm(4, 2, 1.0, 0.0, 2, 1.0, seed=0)
        labels = g.labels
        for s, d in g.edges:
            assert labels[s] == labels[d]
        # within each block every pair is connected
        assert g.undirected_pairs().shape[0] == 2 * (4 * 3 // 2)

    def test_class_sep_zero_removes_signal(self):
        g = synth_sbm(10, 2, 0.3, 0.1, 4, 0.0, seed=1)
        mean0 = g.features[g.labels == 0].mean(axis=0)
        mean1 = g.features[g.labels == 1].mean(axis=0)
        assert np.linalg.norm(mean0 - mean1) < 0.5  # noise-level gap only

    def test_deterministic_under_seed(self):
        a = synth_sbm(8, 2, 0.4, 0.05, 5, 1.0, seed=42)
        b = synth_sbm(8, 2, 0.4, 0.05, 5, 1.0, seed=42)
        np.testing.assert_array_equal(a.edges, b.edges)
        np.testing.assert_array_equal(a.features, b.features)
        for k in a.masks:
            np.testing.assert_array_equal(a.masks[k], b.masks[k])

    def test_split_sizes(self):
        g = synth_sbm(30, 2, 0.3, 0.02, 8, 1.0, seed=0)
        assert g.masks["train"].sum() == 36
        assert g.masks["val"].sum() == 12
        assert g.masks["test"].sum() == 12

    @pytest.mark.parametrize("n_per_class, n_classes", [(1, 1), (1, 2), (7, 3), (300, 2)])
    def test_same_draws_as_one_pass_over_all_pairs(self, n_per_class, n_classes):
        """Row blocks draw the doubles one ``rng.random`` over every pair would,
        and leave the generator where it would (features come next)."""
        g = synth_sbm(n_per_class, n_classes, 0.3, 0.02, 3, 0.0, seed=5)
        rng = np.random.default_rng(5)
        pairs = sbm_pairs_reference(g.labels, 0.3, 0.02, rng)
        np.testing.assert_array_equal(g.undirected_pairs(), pairs)
        noise = 0.25 * rng.standard_normal(g.features.shape)
        np.testing.assert_array_equal(g.features, noise)

    def test_memory_follows_the_edges_not_the_pairs(self):
        tracemalloc.start()
        try:
            g = synth_sbm(600, 2, 0.01, 0.001, 4, 1.0, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(g.edges) < 20_000
        assert peak < 8 << 20  # every one of the 719,400 pairs at once took 23 MiB

    def test_invalid_probabilities(self):
        with pytest.raises(ValueError):
            synth_sbm(5, 2, 0.1, 0.5, 2, 1.0, seed=0)
        with pytest.raises(ValueError):
            synth_sbm(5, 2, 1.2, 0.1, 2, 1.0, seed=0)


class TestFeatureNoise:
    def test_zero_level_bit_identical(self):
        g = synth_sbm(6, 2, 0.3, 0.1, 4, 1.0, seed=3)
        noisy = add_feature_noise(g, 0.0, seed=10)
        np.testing.assert_array_equal(noisy.features, g.features)

    def test_grid_levels_accepted(self):
        g = synth_sbm(6, 2, 0.3, 0.1, 4, 1.0, seed=3)
        for eps in NOISE["feature"].grid:
            add_feature_noise(g, eps, seed=1)

    def test_structure_and_labels_untouched(self):
        g = synth_sbm(6, 2, 0.3, 0.1, 4, 1.0, seed=3)
        noisy = add_feature_noise(g, 0.1, seed=1)
        np.testing.assert_array_equal(noisy.edges, g.edges)
        np.testing.assert_array_equal(noisy.labels, g.labels)

    def test_noise_is_zero_mean_unit_variance(self):
        g = Graph(np.zeros((1000, 100)), np.empty((0, 2)))
        eps = 0.05
        noisy = add_feature_noise(g, eps, seed=8)
        injected = (noisy.features - g.features) / eps
        n = injected.size
        assert abs(injected.mean()) < 3.0 / np.sqrt(n)
        assert abs(injected.std() - 1.0) < 0.01

    def test_reproducible_and_seed_sensitive(self):
        g = synth_sbm(6, 2, 0.3, 0.1, 4, 1.0, seed=3)
        a = add_feature_noise(g, 0.1, seed=5)
        b = add_feature_noise(g, 0.1, seed=5)
        c = add_feature_noise(g, 0.1, seed=6)
        np.testing.assert_array_equal(a.features, b.features)
        assert not np.array_equal(a.features, c.features)

    def test_negative_level_rejected(self):
        g = synth_sbm(4, 2, 0.3, 0.1, 2, 1.0, seed=0)
        with pytest.raises(ValueError):
            add_feature_noise(g, -0.1, seed=0)


class TestStructuralNoise:
    def fixture_graph(self):
        edges = [[i, i + 1] for i in range(10)]  # path: 10 undirected edges
        return Graph(np.zeros((11, 2)), edges, undirected=True)

    def test_zero_level_unchanged(self):
        g = self.fixture_graph()
        noisy = add_structural_noise(g, 0.0, seed=1)
        np.testing.assert_array_equal(noisy.edges, g.edges)

    def test_floor_count(self):
        g = self.fixture_graph()
        noisy = add_structural_noise(g, 0.5, seed=1)
        assert noisy.undirected_pairs().shape[0] == 15  # 10 + floor(0.5 * 10)

    def test_grid_accepted(self):
        g = self.fixture_graph()
        for eta in NOISE["structural"].grid:
            noisy = add_structural_noise(g, eta, seed=2)
            assert noisy.undirected_pairs().shape[0] == 10 + int(eta * 10)

    def test_no_self_loops_or_duplicates(self):
        g = synth_sbm(10, 2, 0.3, 0.05, 2, 1.0, seed=7)
        noisy = add_structural_noise(g, 0.5, seed=3)
        assert (noisy.edges[:, 0] != noisy.edges[:, 1]).all()
        assert np.unique(noisy.edges, axis=0).shape[0] == noisy.edges.shape[0]

    def test_original_edges_preserved(self):
        g = self.fixture_graph()
        noisy = add_structural_noise(g, 0.3, seed=4)
        original = {tuple(e) for e in g.edges}
        assert original <= {tuple(e) for e in noisy.edges}

    def test_infeasible_request(self):
        g = Graph(np.zeros((3, 1)), [[0, 1], [1, 2], [0, 2]], undirected=True)
        with pytest.raises(ValueError, match="non-adjacent"):
            add_structural_noise(g, 1.0, seed=0)

    def test_seed_sensitivity(self):
        g = synth_sbm(10, 2, 0.3, 0.05, 2, 1.0, seed=7)
        a = add_structural_noise(g, 0.4, seed=1)
        b = add_structural_noise(g, 0.4, seed=2)
        assert not np.array_equal(a.edges, b.edges)


class TestFreePairs:
    def test_matches_dense_enumeration(self):
        rng = np.random.default_rng(0)
        for trial in range(40):
            n = int(rng.integers(2, 14))
            m = int(rng.integers(0, 2 * n))
            edges = rng.integers(0, n, (m, 2))  # self-loops and duplicates included
            edges = np.concatenate([edges, edges[: m // 2, ::-1], edges[: m // 3]])
            g = Graph(np.zeros((n, 1)), edges)
            n_free = n * (n - 1) // 2 - g.undirected_pairs().shape[0]
            size = int(rng.integers(0, n_free + 1))
            got = _free_pairs(g, np.random.default_rng(trial), size)
            want = free_pairs_reference(n, edges, np.random.default_rng(trial), size)
            np.testing.assert_array_equal(got, want)

    def test_edgeless_graph_yields_every_pair(self):
        g = Graph(np.zeros((6, 1)), np.empty((0, 2)))
        got = _free_pairs(g, np.random.default_rng(5), 15)
        np.testing.assert_array_equal(
            got, free_pairs_reference(6, [], np.random.default_rng(5), 15))
        assert {tuple(p) for p in got} == {(u, v) for u in range(6) for v in range(u + 1, 6)}

    def test_complete_graph_raises(self):
        g = Graph(np.zeros((4, 1)), [[u, v] for u in range(4) for v in range(u + 1, 4)],
                  undirected=True)
        with pytest.raises(ValueError, match="non-adjacent"):
            _free_pairs(g, np.random.default_rng(0), 1)


class TestLinkSplit:
    def test_zero_fractions_keep_graph(self):
        g = synth_sbm(8, 2, 0.4, 0.1, 3, 1.0, seed=5)
        split = split_link_prediction(g, 0.0, 0.0, 1, seed=0)
        np.testing.assert_array_equal(split.train_graph.edges, g.edges)
        assert split.splits["val"].positives.shape[0] == 0

    def test_negative_counts_match_ratio(self):
        g = synth_sbm(10, 2, 0.4, 0.1, 3, 1.0, seed=5)
        for ratio in (1, 3):
            split = split_link_prediction(g, 0.2, 0.2, ratio, seed=0)
            for part in split.splits.values():
                assert part.negatives.shape[0] == ratio * part.positives.shape[0]

    def test_heldout_edges_absent_from_train_graph(self):
        g = synth_sbm(10, 2, 0.4, 0.1, 3, 1.0, seed=5)
        split = split_link_prediction(g, 0.2, 0.2, 1, seed=0)
        train_pairs = {tuple(p) for p in split.train_graph.undirected_pairs()}
        for name in ("val", "test"):
            for pair in split.splits[name].positives:
                assert tuple(pair) not in train_pairs

    def test_negatives_are_non_edges_and_disjoint(self):
        g = synth_sbm(10, 2, 0.4, 0.1, 3, 1.0, seed=5)
        split = split_link_prediction(g, 0.2, 0.2, 2, seed=0)
        all_pairs = {tuple(p) for p in g.undirected_pairs()}
        seen = set()
        for part in split.splits.values():
            for pair in part.negatives:
                t = tuple(pair)
                assert t not in all_pairs
                assert t not in seen
                seen.add(t)

    def test_too_few_edges(self):
        g = Graph(np.zeros((3, 1)), np.empty((0, 2)))
        with pytest.raises(ValueError, match="too few"):
            split_link_prediction(g, 0.2, 0.2, 1, seed=0)

    def test_bad_fractions(self):
        g = synth_sbm(5, 2, 0.5, 0.1, 2, 1.0, seed=0)
        with pytest.raises(ValueError):
            split_link_prediction(g, 0.6, 0.5, 1, seed=0)
