"""CLI: artifacts, exit codes, overrides, reproducibility from the config echo."""

import csv
from pathlib import Path

import numpy as np
import pytest

from qgat import vqc
from qgat.cli import main

TINY = """
[experiment]
task = node-class
models = gat
seeds = 0,1

[data]
n_per_class = 10
feature_dim = 4

[model]
hidden_dims = 4
heads = 2,2
n_qubits = 2
dropout = 0.2

[training]
epochs = 6
patience = 10
"""


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.ini"
    path.write_text(TINY)
    return path


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestTrain:
    def test_writes_artifacts_and_summary(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["train", "--config", str(tiny_config), "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "+/-" in printed and "over 2 seeds" in printed
        for name in ("config_echo.ini", "summary.csv", "metrics_gat_seed0.csv",
                     "metrics_gat_seed1.csv", "checkpoint_gat_seed0.json"):
            assert (out / name).exists(), name
        rows = read_csv(out / "metrics_gat_seed0.csv")
        assert set(rows[0]) == {"epoch", "split", "loss", "metric", "lr", "seconds"}

    def test_missing_config_exit_2_names_path(self, tmp_path, capsys):
        code = main(["train", "--config", str(tmp_path / "nope.ini"), "--out", str(tmp_path)])
        assert code == 2
        assert "nope.ini" in capsys.readouterr().err

    def test_unknown_key_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[training]\nmomentum = 0.9\n")
        assert main(["train", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert "momentum" in capsys.readouterr().err

    def test_override_changes_echoed_config(self, tiny_config, tmp_path):
        out = tmp_path / "run"
        assert main(["train", "--config", str(tiny_config), "--out", str(out),
                     "--seeds", "0", "--override", "training.lr=1e-3"]) == 0
        echo = (out / "config_echo.ini").read_text()
        assert "lr = 0.001" in echo
        assert "seeds = 0" in echo

    def test_rerun_from_echo_reproduces_metrics(self, tiny_config, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["train", "--config", str(tiny_config), "--out", str(out1)]) == 0
        assert main(["train", "--config", str(out1 / "config_echo.ini"),
                     "--out", str(out2)]) == 0
        for name in ("metrics_gat_seed0.csv", "metrics_gat_seed1.csv"):
            a = read_csv(out1 / name)
            b = read_csv(out2 / name)
            for ra, rb in zip(a, b):
                ra.pop("seconds"), rb.pop("seconds")
                assert ra == rb

    @pytest.mark.parametrize("command,override", [
        ("train", "model.dropout=1.5"),
        ("params", "model.n_qubits=0"),
        ("params", "model.entangling_layers=0"),
        ("train", "model.merge=sum"),
        ("train", "model.activation=gelu"),
        ("train", "model.heads=0,2"),
        ("train", "model.hidden_dims=0"),
    ])
    def test_value_a_layer_rejects_exits_2(self, tiny_config, tmp_path, capsys,
                                             command, override):
        assert main([command, "--config", str(tiny_config), "--out", str(tmp_path / "o"),
                     "--override", override]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["no-such-command"])
        assert err.value.code == 2


class TestNoiseSweep:
    def run_sweep(self, tmp_path, kind, levels=None, seeds="0"):
        cfg = tmp_path / "sweep.ini"
        extra = f"levels = {levels}\n" if levels else ""
        cfg.write_text(TINY + f"\n[noise]\nkind = {kind}\n{extra}")
        out = tmp_path / f"sweep_{kind}"
        code = main(["noise-sweep", "--config", str(cfg), "--out", str(out),
                     "--seeds", seeds])
        return code, out

    def test_default_feature_grid(self, tmp_path):
        code, out = self.run_sweep(tmp_path, "feature")
        assert code == 0
        rows = read_csv(out / "sweep.csv")
        levels = sorted({float(r["level"]) for r in rows})
        assert levels == [0.0, 0.01, 0.05, 0.1, 0.2]

    def test_default_structural_grid(self, tmp_path):
        code, out = self.run_sweep(tmp_path, "structural")
        assert code == 0
        rows = read_csv(out / "sweep.csv")
        levels = sorted({float(r["level"]) for r in rows})
        assert levels == [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]

    def test_zero_level_matches_plain_train(self, tmp_path, tiny_config):
        code, out = self.run_sweep(tmp_path, "feature", levels="0.0,0.1")
        assert code == 0
        train_out = tmp_path / "plain"
        assert main(["train", "--config", str(tiny_config), "--out", str(train_out),
                     "--seeds", "0"]) == 0
        summary = read_csv(train_out / "summary.csv")
        zero_rows = [r for r in read_csv(out / "sweep.csv") if float(r["level"]) == 0.0]
        assert float(zero_rows[0]["metric"]) == float(summary[0]["mean"])

    def test_svg_written_and_self_contained(self, tmp_path):
        code, out = self.run_sweep(tmp_path, "feature", levels="0.0,0.2")
        assert code == 0
        svg = (out / "sweep.svg").read_text()
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
        assert "gat" in svg  # legend labels present

    def test_bad_kind_exit_2(self, tmp_path):
        code, _ = self.run_sweep(tmp_path, "adversarial")
        assert code == 2

    def test_parallel_jobs_reproduce_serial(self, tmp_path):
        cfg = tmp_path / "s.ini"
        cfg.write_text(TINY + "\n[noise]\nkind = feature\nlevels = 0.0,0.1\n")
        out1, out2 = tmp_path / "serial", tmp_path / "par"
        assert main(["noise-sweep", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["noise-sweep", "--config", str(cfg), "--out", str(out2),
                     "--jobs", "2"]) == 0
        assert (out1 / "sweep.csv").read_text() == (out2 / "sweep.csv").read_text()


class TestLinkpred:
    def test_outputs_both_metrics_with_configurable_k(self, tmp_path):
        cfg = tmp_path / "lp.ini"
        cfg.write_text(TINY.replace("hidden_dims = 4", "hidden_dims = 4,4")
                       + "\n[linkpred]\nhits_k = 5\n")
        out = tmp_path / "lp"
        assert main(["linkpred", "--config", str(cfg), "--out", str(out),
                     "--seeds", "0"]) == 0
        rows = read_csv(out / "linkpred.csv")
        assert set(rows[0]) == {"model", "seed", "hits@5", "mrr"}
        assert 0.0 <= float(rows[0]["mrr"]) <= 1.0

    def test_default_hidden_dims_cover_link_prediction(self, tmp_path):
        # link prediction needs one hidden dim per layer, the output layer included
        assert main(["linkpred", "--out", str(tmp_path / "lp"),
                     "--override", "experiment.models=gat",
                     "--override", "data.n_per_class=10",
                     "--override", "training.epochs=2"]) == 0


    @pytest.mark.parametrize("k", [0, -3])
    def test_non_positive_hits_k_exit_2(self, tmp_path, capsys, k):
        out = tmp_path / "lp"
        assert main(["linkpred", "--out", str(out), "--override", f"linkpred.hits_k={k}"]) == 2
        assert "hits_k" in capsys.readouterr().err
        assert not out.exists()


class TestGradcheck:
    ARGS = ["--override", "gradcheck.trials=2", "--override", "gradcheck.qubits=2,3",
            "--override", "gradcheck.layers=1,2"]

    def test_passes_and_lists_components(self, capsys):
        assert main(["gradcheck", *self.ARGS]) == 0
        printed = capsys.readouterr().out
        for name in ("circuit.angles", "circuit.inputs", "qgat_layer.feat_proj",
                     "qgat_layer.compress", "qgat_layer.angles", "qgat_layer.shortcut"):
            assert name in printed

    def test_corrupted_gradient_fails(self, capsys):
        assert main(["gradcheck", "--corrupt-gradients", "--override",
                     "gradcheck.trials=1", "--override", "gradcheck.qubits=2",
                     "--override", "gradcheck.layers=1"]) == 1
        assert "qgat_layer.compress: max relative error 1.000e+00 [FAIL]" in capsys.readouterr().out

    def test_nan_gradient_fails(self, monkeypatch, capsys):
        run = vqc.expectations_op

        def nan_angle_vjp(inputs, angles, layout):
            out = run(inputs, angles, layout)
            vjp = out._vjp
            out._vjp = lambda g: (vjp(g)[0], np.full(angles.shape, np.nan))
            return out

        monkeypatch.setattr(vqc, "expectations_op", nan_angle_vjp)
        assert main(["gradcheck", "--override", "gradcheck.trials=1", "--override",
                     "gradcheck.qubits=2", "--override", "gradcheck.layers=1"]) == 1
        printed = capsys.readouterr().out
        assert "circuit.angles: max relative error nan [FAIL]" in printed
        assert "qgat_layer.angles: max relative error nan [FAIL]" in printed
        assert "circuit.inputs: max relative error 0.000e+00 [ok]" in printed


class TestParams:
    def test_quantum_accounting(self, tiny_config, capsys):
        assert main(["params", "--config", str(tiny_config)]) == 0
        printed = capsys.readouterr().out
        lines = {tuple(l.split()) for l in printed.splitlines()}
        # 2 layers x (2 qubits x 3 angles x 2 entangling layers) = 24
        assert ("qgat", "-", "quantum", "total", "24") in lines
        assert ("gat", "-", "quantum", "total", "0") in lines

    def test_layer_increment_and_ordering(self, tiny_config, tmp_path, capsys):
        main(["params", "--config", str(tiny_config)])
        base = capsys.readouterr().out
        main(["params", "--config", str(tiny_config),
              "--override", "model.entangling_layers=3"])
        more = capsys.readouterr().out

        def total(text, model):
            for line in text.splitlines():
                parts = line.split()
                if parts[:3] == [model, "-", "total"]:
                    return int(parts[3])

        # one extra entangling layer adds 3 * n_qubits per attention layer
        assert total(more, "qgat") - total(base, "qgat") == 3 * 2 * 2
        assert total(base, "gatv2") > total(base, "gat")


class TestSynth:
    def test_writes_loadable_dataset(self, tiny_config, tmp_path):
        out = tmp_path / "ds"
        assert main(["synth", "--config", str(tiny_config), "--out", str(out)]) == 0
        from qgat.graph import load_graph

        g_csv = load_graph(out, format="csv")
        g_json = load_graph(out / "graph.json", format="json")
        np.testing.assert_array_equal(g_csv.edges, g_json.edges)
        np.testing.assert_array_equal(g_csv._features, g_json._features)
        assert g_csv.n_nodes == 20

    def test_multilabel_collection_manifest(self, tmp_path):
        cfg = tmp_path / "ml.ini"
        cfg.write_text("[experiment]\ntask = multi-label\n[data]\nn_per_class = 6\n")
        out = tmp_path / "coll"
        assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 0
        from qgat.inductive import load_collection

        coll = load_collection(out / "collection" / "manifest.json")
        assert coll.splits == ["train", "train", "val", "test"]
