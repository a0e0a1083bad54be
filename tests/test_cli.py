"""CLI: artifacts, exit codes, overrides, reproducibility from the config echo."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qgat
from qgat import cli, vqc
from qgat.cli import _run_cells, main
from qgat.config import SCHEMA
from qgat.graph import split_link_prediction, synth_sbm
from qgat.training import TrainConfig

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


def out_flag(command, out):
    """``--out`` for a command that writes; ``gradcheck`` and ``params`` take none."""
    return [] if command in ("gradcheck", "params") else ["--out", str(out)]


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def artifact_bytes(path):
    """A run artifact's bytes; a metrics CSV's lines without the wall-clock
    ``seconds`` column, its last."""
    data = path.read_bytes()
    if path.name.startswith("metrics_"):
        return [line.rsplit(b",", 1)[0] for line in data.splitlines()]
    return data


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

    @pytest.mark.parametrize("how", ["ini", "override"])
    @pytest.mark.parametrize("section,key,value", [
        ("model", "merge", "concat"),
        ("model", "activation", "elu"),
        ("model", "separate_value_weights", "false"),
        ("training", "lr_min", "0.0"),
        ("gradcheck", "qubits", "2,3,4"),
        ("gradcheck", "layers", "1,2,3"),
        ("gradcheck", "trials", "10"),
        ("gradcheck", "threshold", "1e-4"),
    ])
    def test_deleted_key_exit_2(self, tmp_path, capsys, section, key, value, how):
        # keys that older configurations set, at their old defaults, are unknown now
        if how == "ini":
            cfg = tmp_path / "old.ini"
            cfg.write_text(f"[{section}]\n{key} = {value}\n")
            args = ["--config", str(cfg)]
        else:
            args = ["--override", f"{section}.{key}={value}"]
        assert main(["train", *args, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        if how == "ini" and section not in SCHEMA:
            assert f"unknown section [{section}]" in err
        else:
            assert f"unknown configuration key {section}.{key}" in err
        assert not (tmp_path / "o").exists()

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
        ("train", "model.heads=0,2"),
        ("train", "model.hidden_dims=0"),
    ])
    def test_value_a_layer_rejects_exits_2(self, tiny_config, tmp_path, capsys,
                                             command, override):
        assert main([command, "--config", str(tiny_config), *out_flag(command, tmp_path / "o"),
                     "--override", override]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command,override", [
        ("train", "data.feature_dim=0"),
        ("train", "data.n_per_class=0"),
        ("synth", "data.n_classes=0"),
        ("train", "training.weight_decay=-1"),
        ("gradcheck", "model.n_qubits=0"),
        ("gradcheck", "model.entangling_layers=0"),
        ("gradcheck", "model.heads=0"),
        ("gradcheck", "model.n_qubits=13"),
        ("train", "model.n_qubits=13"),
        ("train", "data.source=xml data.path=graph.xml"),
        ("linkpred", "linkpred.frac_val=0.9"),
        ("linkpred", "linkpred.neg_ratio=0"),
        ("noise-sweep", "noise.levels=-0.5"),
        ("train", "data.p_in=2"),
        ("train", "data.p_out=-0.1"),
        ("train", "data.p_in=0.1 data.p_out=0.2"),
        ("train", "experiment.seeds=-1"),
        ("train", "data.seed=-1"),
        ("train", "data.class_sep=nan"),
        ("noise-sweep", "noise.levels=nan"),
        ("train", "data.source=json"),
        ("train", "experiment.models=gcn"),
        ("train", "experiment.seeds="),
        ("train", "experiment.models="),
        ("train", "training.lr=nan"),
        ("train", "training.weight_decay=nan"),
        ("train", "training.lr=inf"),
        ("train", "training.weight_decay=inf"),
        ("train", "experiment.seeds=0,0"),
        ("train", "experiment.seeds=1,0,1"),
        ("train", "experiment.models=gat,qgat,gat"),
        ("noise-sweep", "noise.levels=0.2,0.0"),
        ("noise-sweep", "noise.levels=0.0,0.1,0.1"),
        ("synth", "experiment.task=multilabel"),
        ("linkpred", "experiment.task=bogus"),
        ("train", "experiment.task=link-pred"),
        ("noise-sweep", "experiment.task=link-pred"),
    ])
    def test_invalid_value_exits_2(self, tmp_path, capsys, command, override):
        # whitespace separates the overrides of one case
        flags = [arg for item in override.split() for arg in ("--override", item)]
        assert main([command, *out_flag(command, tmp_path / "o"), *flags]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command,flag", [
        ("gradcheck", "--out"), ("gradcheck", "--seeds"), ("params", "--out"),
        ("params", "--seeds"), ("synth", "--seeds")])
    def test_flags_the_command_does_not_read_exit_2(self, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            main([command, flag, "0"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 0" in capsys.readouterr().err

    @pytest.mark.parametrize("command,task,runner", [
        ("train", "link-pred", "qgat linkpred"), ("noise-sweep", "link-pred", "qgat linkpred"),
        ("linkpred", "multi-label", "qgat train")])
    def test_task_another_command_runs_exits_2(self, tmp_path, capsys, command, task, runner):
        """A task the command does not run, as a ``linkpred`` run's echo sets
        for ``train``, names the command that runs it; ``linkpred`` replaces
        only the default task."""
        assert main([command, "--out", str(tmp_path / "o"),
                     "--override", f"experiment.task={task}"]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and f"run it with `{runner}`" in err
        assert not (tmp_path / "o").exists()

    def test_task_the_labels_cannot_serve_exits_2(self, tiny_config, tmp_path, capsys):
        assert main(["train", "--config", str(tiny_config), "--out", str(tmp_path / "o"),
                     "--override", "experiment.task=multi-label"]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert "multi-label" in err and "shape (20,)" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["train", "linkpred"])
    def test_parallel_jobs_reproduce_serial_artifacts(self, tmp_path, capsys, monkeypatch,
                                                      command):
        """Every artifact is byte-identical at ``--jobs 1`` and ``--jobs 2``
        (``artifact_bytes``)."""
        requested, pool = [], cli.ProcessPoolExecutor
        monkeypatch.setattr(cli, "ProcessPoolExecutor",
                            lambda max_workers: requested.append(max_workers) or pool(max_workers))
        cfg = tmp_path / "c.ini"
        cfg.write_text(TINY.replace("hidden_dims = 4", "hidden_dims = 4,4"))
        outs, printed = [tmp_path / "serial", tmp_path / "par"], []
        for out, jobs in zip(outs, ["1", "2"]):
            assert main([command, "--config", str(cfg), "--out", str(out), "--jobs", jobs]) == 0
            printed.append(capsys.readouterr().out)
        assert requested == [2] and printed[0] == printed[1]
        names = sorted(path.name for path in outs[0].iterdir())
        assert names == sorted(path.name for path in outs[1].iterdir())
        assert len(names) == (6 if command == "train" else 2)
        for name in names:
            assert artifact_bytes(outs[0] / name) == artifact_bytes(outs[1] / name), name

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_usage_error(self, tiny_config, tmp_path, jobs):
        with pytest.raises(SystemExit) as err:
            main(["noise-sweep", "--config", str(tiny_config), "--out", str(tmp_path / "o"),
                  "--jobs", jobs])
        assert err.value.code == 2
        assert not (tmp_path / "o").exists()

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["no-such-command"])
        assert err.value.code == 2


class TestBlasThreads:
    def test_bits_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        """A QGAT ``train`` on 600 nodes writes the same metrics and checkpoint
        at one and at two OpenBLAS threads.  Unpinned, the tall products whose
        inner dimension is the edge or node count round differently when
        split over two threads, from epoch 2 on at this size."""
        src = str(Path(qgat.__file__).resolve().parent.parent)
        outs = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads)
            out = tmp_path / f"threads{threads}"
            subprocess.run([sys.executable, "-m", "qgat.cli", "train", "--out", str(out),
                            "--override", "experiment.models=qgat",
                            "--override", "data.n_per_class=300",
                            "--override", "training.epochs=5"],
                           env=env, check=True, capture_output=True)
            outs.append(out)
        for name in ("checkpoint_qgat_seed0.json", "metrics_qgat_seed0.csv"):
            assert artifact_bytes(outs[0] / name) == artifact_bytes(outs[1] / name), name


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

    def test_parallel_jobs_reproduce_serial(self, tmp_path, capsys):
        cfg = tmp_path / "s.ini"
        cfg.write_text(TINY + "\n[noise]\nkind = feature\nlevels = 0.0,0.1\n")
        out1, out2 = tmp_path / "serial", tmp_path / "par"
        assert main(["noise-sweep", "--config", str(cfg), "--out", str(out1)]) == 0
        serial = capsys.readouterr().out
        assert main(["noise-sweep", "--config", str(cfg), "--out", str(out2),
                     "--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial
        for name in ("sweep.csv", "sweep.svg"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_pool_never_exceeds_cell_count(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "s.ini"
        cfg.write_text(TINY + "\n[noise]\nkind = feature\nlevels = 0.0,0.1\n")
        requested = []
        pool = cli.ProcessPoolExecutor

        def recording(max_workers):
            requested.append(max_workers)
            return pool(max_workers=max_workers)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", recording)
        out1, out4 = tmp_path / "serial", tmp_path / "par"
        assert main(["noise-sweep", "--config", str(cfg), "--out", str(out1),
                     "--seeds", "0"]) == 0
        serial = capsys.readouterr().out
        assert main(["noise-sweep", "--config", str(cfg), "--out", str(out4),
                     "--seeds", "0", "--jobs", "4"]) == 0
        assert capsys.readouterr().out == serial
        assert requested == [2]  # one model, one seed, two levels: two cells
        for name in ("sweep.csv", "sweep.svg", "config_echo.ini"):
            assert (out1 / name).read_bytes() == (out4 / name).read_bytes(), name


class TestCellRunner:
    @pytest.mark.parametrize("task", ["node-class", "link-pred"])
    def test_pool_reproduces_serial(self, task):
        graph = synth_sbm(10, 2, 0.3, 0.02, 4, 1.0, 0)
        data = graph if task == "node-class" else split_link_prediction(graph, 0.1, 0.2, 1, 0)
        cells = [(data, TrainConfig(model=model, seed=seed, task=task, epochs=3,
                                    hidden_dims=[4, 4], heads_per_layer=[2, 2], n_qubits=2,
                                    dropout=0.2), None, 0.0)
                 for model in ("qgat", "gat") for seed in (0, 1)]
        serial, pooled = _run_cells(cells, 1), _run_cells(cells, 2)
        for a, b in zip(serial, pooled, strict=True):
            assert ([(rec.losses, rec.metrics) for rec in a.history]
                    == [(rec.losses, rec.metrics) for rec in b.history])
            assert ({name: arr.tobytes() for name, arr in a.best_state.items()}
                    == {name: arr.tobytes() for name, arr in b.best_state.items()})
            assert ({name: (pred.tobytes(), targets.tobytes())
                     for name, (pred, targets) in a.predictions.items()}
                    == {name: (pred.tobytes(), targets.tobytes())
                        for name, (pred, targets) in b.predictions.items()})


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
        # the config sets the task: the echo reads the one linkpred ran
        assert "\ntask = link-pred\n" in (out / "config_echo.ini").read_text()

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

    @pytest.mark.parametrize("frac", ["0", "0.001"])
    def test_no_test_edges_exit_2(self, tmp_path, capsys, frac):
        # the split floors frac_test * pairs, so a small fraction can hold out nothing
        out = tmp_path / "lp"
        assert main(["linkpred", "--out", str(out), "--override", f"linkpred.frac_test={frac}",
                     "--override", "training.epochs=1"]) == 2
        assert "linkpred.frac_test" in capsys.readouterr().err
        assert not out.exists()


class TestGradcheck:
    SMALL = ["--override", "model.n_qubits=2", "--override", "model.entangling_layers=1"]

    @staticmethod
    def errors(printed: str) -> dict[str, tuple[float, str]]:
        """Each printed component's (error, verdict)."""
        lines = (line.split(": max relative error ") for line in printed.splitlines())
        return {name: (float(rest.split()[0]), rest.split()[1]) for name, rest in lines}

    @staticmethod
    def patch_vjp(monkeypatch, corrupt):
        """Run the circuit with ``corrupt(input_grads, grad_angles)`` as its VJP's
        result; the layer's circuit has a's and b's input gradients."""
        run = vqc.expectations_op

        def corrupted(inputs, angles, layout):
            out = run(inputs, angles, layout)
            vjp = out._vjp

            def wrong(g):
                *input_grads, grad_angles = vjp(g)
                return corrupt(input_grads, grad_angles)

            out._vjp = wrong
            return out

        monkeypatch.setattr(vqc, "expectations_op", corrupted)

    def test_passes_and_lists_components(self, capsys):
        # the default [model]: 4 qubits, 2 entangling layers, 4 heads
        assert main(["gradcheck"]) == 0
        errors = self.errors(capsys.readouterr().out)
        assert sorted(errors) == [
            "gat_layer.attn_dst", "gat_layer.attn_src", "gat_layer.feat_proj",
            "gat_layer.shortcut",
            "gatv2_layer.attn", "gatv2_layer.proj_dst", "gatv2_layer.proj_src",
            "gatv2_layer.shortcut",
            "qgat_layer.angles", "qgat_layer.compress", "qgat_layer.feat_proj",
            "qgat_layer.shortcut"]
        # the errors are printed unthresholded: central-difference truncation, not 0
        assert all(0.0 < err < 1e-6 and verdict == "[ok]" for err, verdict in errors.values())

    def test_single_qubit_passes(self, capsys):
        assert main(["gradcheck", "--override", "model.n_qubits=1"]) == 0
        assert "[FAIL]" not in capsys.readouterr().out

    def test_corrupted_gradient_fails(self, monkeypatch, capsys):
        self.patch_vjp(monkeypatch, lambda inputs, angles: (*inputs, 2.0 * angles))
        assert main(["gradcheck", *self.SMALL]) == 1
        printed = capsys.readouterr().out
        assert "qgat_layer.angles: max relative error 1.000e+00 [FAIL]" in printed
        # the layer's circuit takes a and b as EdgeRows: their gradients stay exact
        assert self.errors(printed)["qgat_layer.compress"][0] < 1e-6

    def test_doubled_input_gradient_fails(self, monkeypatch, capsys):
        self.patch_vjp(monkeypatch,
                       lambda inputs, angles: (*(2.0 * g for g in inputs), angles))
        assert main(["gradcheck", *self.SMALL]) == 1
        errors = self.errors(capsys.readouterr().out)
        assert errors["qgat_layer.compress"][1] == "[FAIL]"
        assert errors["qgat_layer.angles"][0] < 1e-6

    def test_nan_gradient_fails(self, monkeypatch, capsys):
        self.patch_vjp(monkeypatch,
                       lambda inputs, angles: (*inputs, np.full(angles.shape, np.nan)))
        assert main(["gradcheck", *self.SMALL]) == 1
        printed = capsys.readouterr().out
        assert "qgat_layer.angles: max relative error nan [FAIL]" in printed
        assert self.errors(printed)["qgat_layer.compress"][0] < 1e-6


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

    def test_counts_follow_the_graph_on_disk(self, tmp_path, capsys):
        five = ["--override", "data.feature_dim=5"]
        assert main(["synth", "--out", str(tmp_path / "ds"), *five]) == 0
        capsys.readouterr()
        assert main(["params", "--override", "data.source=csv",
                     "--override", f"data.path={tmp_path / 'ds'}"]) == 0
        from_disk = capsys.readouterr().out
        assert main(["params", *five]) == 0
        assert from_disk == capsys.readouterr().out
        lines = {tuple(l.split()) for l in from_disk.splitlines()}
        assert ("qgat", "layer0", "feat_proj", "160") in lines  # 5 dims x 4 heads x 8


class TestSynth:
    def test_writes_loadable_dataset(self, tiny_config, tmp_path):
        out = tmp_path / "ds"
        assert main(["synth", "--config", str(tiny_config), "--out", str(out)]) == 0
        from qgat.graph import load_graph

        g_csv = load_graph(out, format="csv")
        g_json = load_graph(out / "graph.json", format="json")
        np.testing.assert_array_equal(g_csv.edges, g_json.edges)
        np.testing.assert_array_equal(g_csv.features, g_json.features)
        assert g_csv.n_nodes == 20

    def test_train_on_csv_bundle_draws_seeded_masks(self, tiny_config, tmp_path):
        ds = tmp_path / "ds"
        assert main(["synth", "--config", str(tiny_config), "--out", str(ds)]) == 0
        runs = [tmp_path / "a", tmp_path / "b"]
        for out in runs:
            assert main(["train", "--config", str(tiny_config), "--out", str(out),
                         "--override", "data.source=csv",
                         "--override", f"data.path={ds}"]) == 0
        a, b = runs
        for name in ("summary.csv", "checkpoint_gat_seed0.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
        rows_a = read_csv(a / "metrics_gat_seed0.csv")
        rows_b = read_csv(b / "metrics_gat_seed0.csv")
        for ra, rb in zip(rows_a, rows_b, strict=True):
            ra.pop("seconds"), rb.pop("seconds")  # wall time
            assert ra == rb

    @pytest.mark.parametrize("model", ["qgat", "gat"])
    @pytest.mark.parametrize("source", ["csv", "json"])
    def test_non_finite_feature_names_the_file(self, tiny_config, tmp_path, capsys,
                                               source, model):
        ds = tmp_path / "ds"
        assert main(["synth", "--config", str(tiny_config), "--out", str(ds)]) == 0
        if source == "csv":
            path, lines = ds / "features.csv", (ds / "features.csv").read_text().splitlines()
            lines[2] = "nan" + lines[2][lines[2].index(","):]
            path.write_text("\n".join(lines) + "\n")
            where = f"{path}:3: "
        else:
            path = ds / "graph.json"
            payload = json.loads(path.read_text())
            payload["features"][1][0] = float("nan")
            path.write_text(json.dumps(payload))
            where = f"{path}: "
        capsys.readouterr()
        out = tmp_path / "o"
        assert main(["train", "--config", str(tiny_config), "--out", str(out),
                     "--override", f"experiment.models={model}",
                     "--override", f"data.source={source}",
                     "--override", f"data.path={path if source == 'json' else ds}"]) == 1
        assert f"error: {where}features contain non-finite entries" in capsys.readouterr().err
        assert not out.exists()

    def test_multilabel_collection_manifest(self, tmp_path):
        cfg = tmp_path / "ml.ini"
        cfg.write_text("[experiment]\ntask = multi-label\n[data]\nn_per_class = 6\n")
        out = tmp_path / "coll"
        assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 0
        from qgat.inductive import load_collection

        coll = load_collection(out / "collection" / "manifest.json")
        assert coll.splits == ["train", "train", "val", "test"]
