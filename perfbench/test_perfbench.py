"""Tests of the benchmark itself: seeded inputs, output check, tracing.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import harness
import tracer
import workloads
from qgat import attention, autodiff, training, vqc
from qgat.training import TrainingDivergedError


def _tiny(train=training.train) -> workloads.Workload:
    """qgat-sbm300's setup and config on a 20-node graph."""
    return workloads.Workload(
        "tiny",
        lambda seed: [workloads.make_sbm(np.random.default_rng(seed), 10, 2, 0.5, 0.1, 8)],
        workloads._sbm300_setup, train,
    )


SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def _bytes(raw: list[workloads.RawGraph]) -> bytes:
    arrays = []
    for g in raw:
        arrays += [g.features, g.pairs]
        arrays += [] if g.labels is None else [g.labels]
        arrays += [] if g.masks is None else [g.masks[k] for k in sorted(g.masks)]
    return b"".join(a.tobytes() for a in arrays)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_seed_gives_byte_identical_inputs(name):
    make = workloads.WORKLOADS[name].make_inputs
    assert _bytes(make(7)) == _bytes(make(7))
    assert _bytes(make(7)) != _bytes(make(8))


def test_benchmark_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_measure_reports_every_end_to_end_metric():
    result = harness.measure(_tiny(), _tiny().make_inputs(0), 0, seconds=0.0)
    assert result["correct"], result["detail"]["problems"]
    assert result["attempted"] == 1 and result["failed"] == 0
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert result["detail"]["samples"]["step"] == 3
    assert result["detail"]["samples"]["eval"] == 4


def _raises(exc):
    def train(model, data, cfg):
        raise exc("injected")
    return train


@pytest.mark.parametrize("train", [
    _raises(TrainingDivergedError),
    _raises(ValueError),
    lambda model, data, cfg: training.train(model, data, dataclasses.replace(cfg, epochs=1)),
], ids=["diverged", "value-error", "stopped-early"])
def test_failed_call_is_counted_not_raised(train):
    result = harness.measure(_tiny(train), _tiny().make_inputs(0), 0, seconds=0.0)
    assert result["attempted"] == result["failed"] == 1
    assert not result["correct"]
    assert result["detail"]["problems"]


def test_two_traced_runs_give_identical_counts():
    raw = _tiny().make_inputs(0)
    first = harness.trace(_tiny(), raw, 0, seconds=0.0)
    second = harness.trace(_tiny(), raw, 0, seconds=0.0)
    for result in (first, second):
        assert result["correct"], result["detail"]["problems"]
        assert {k: m["unit"] for k, m in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in SPEC["per_layer"]}
    counts = [{k: m["value"] for k, m in r["metrics"].items() if m["unit"] in ("count", "B")}
              for r in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0]["vqc.executions"] > 0
    assert counts[0]["statevector.gate_calls"] > 0


def test_tracing_restores_every_patched_name():
    rec = tracer.Tracer()
    before = [vars(owner)[attr] for owner, attr, _ in rec.targets()]
    with rec.installed():
        assert attention.segment_sum is not autodiff.segment_sum
    assert [vars(owner)[attr] for owner, attr, _ in rec.targets()] == before
    assert attention.segment_sum is autodiff.segment_sum
    assert vqc.make_op is autodiff.make_op


def test_self_times_tile_the_root():
    rec = tracer.Tracer()

    def inner():
        return sum(range(20000))

    outer_inner = rec.wrap("inner", inner)

    def outer():
        return outer_inner() + outer_inner()

    with rec.root("train"):
        rec.wrap("outer", outer)()
    own, roots = rec.self_times()
    assert set(own["train"]) == {"train", "outer", "inner"}
    assert min(own["train"].values()) >= 0
    assert sum(own["train"].values()) == pytest.approx(roots["train"], rel=1e-9)
    assert rec.total_time("inner") == pytest.approx(own["train"]["inner"], rel=1e-9)


def test_exits_without_result_when_program_source_is_missing(tmp_path):
    shutil.copytree(Path(__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "qgat-sbm300", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
