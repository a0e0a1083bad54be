"""Timed and traced training calls, output checks and the result record.

Each training call is one operation.  It fails if it raises
``TrainingDivergedError`` or ``ValueError``, if any recorded loss is not
finite, if it stops before its last epoch, or if the final train loss is not
below epoch 0's.  Every repetition starts from the same initial weights, so
each must also reproduce the first one's final loss exactly.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from qgat import inductive, training, vqc
from qgat.training import TrainingDivergedError

import tracer
from workloads import Prepared, Workload

SETUP_REPEATS = 3
SELF_TIME_TOLERANCE = 0.02  # share of a root span's duration


@dataclass
class CallOutcome:
    ok: bool
    seconds: float
    steps: list[float] = field(default_factory=list)
    evals: list[float] = field(default_factory=list)
    final_loss: float | None = None
    error: str | None = None


def _check_history(history, epochs: int) -> str | None:
    for rec in history:
        if not all(np.isfinite(v) for v in rec.losses.values()):
            return f"non-finite loss at epoch {rec.epoch}"
    if len(history) != epochs + 1:
        return f"stopped after {len(history) - 1} of {epochs} epochs"
    if not history[-1].losses["train"] < history[0].losses["train"]:
        return "final train loss is not below epoch 0's"
    return None


def run_call(workload, prep, init_state) -> CallOutcome:
    """One public training call from ``init_state``, with its step times."""
    steps: list[float] = []

    def timed(fn):
        def step(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                steps.append(time.perf_counter() - t0)
        return step

    prep.model.load_state_dict({k: v.copy() for k, v in init_state.items()})
    step_targets = [(training, "training_step", timed), (inductive, "training_step", timed)]
    t0 = time.perf_counter()
    try:
        with tracer.patched(step_targets):
            result = workload.train(prep.model, prep.data, prep.cfg)
    except (TrainingDivergedError, ValueError) as exc:
        return CallOutcome(False, time.perf_counter() - t0, error=f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - t0
    history = result.history
    # record.seconds spans step plus evaluation; epoch 0 is evaluation alone
    evals = [history[0].seconds] + [rec.seconds - s for rec, s in zip(history[1:], steps)]
    problem = _check_history(history, prep.cfg.epochs)
    return CallOutcome(problem is None, seconds, steps, evals,
                       history[-1].losses.get("train"), problem)


def timed_setups(workload, raw, seed: int, repeats: int):
    durations = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        prep = workload.setup(raw, seed)
        durations.append(time.perf_counter() - t0)
    return prep, durations


def _another(spent: float, seconds: float, last: float) -> bool:
    """Whether one more repetition as long as ``last`` ends nearer ``seconds`` than stopping."""
    return spent + last / 2 < seconds


def _tally(outcomes: list[CallOutcome]) -> tuple[list[CallOutcome], list[str]]:
    good = [o for o in outcomes if o.ok]
    problems = [o.error for o in outcomes if not o.ok]
    if len({o.final_loss for o in good}) > 1:
        problems.append("repeated calls disagree on the final loss")
    return good, problems


def measure(workload: Workload, raw, seed: int, seconds: float) -> dict:
    """Untraced: timed setups, then training calls totalling about ``seconds``."""
    prep, setups = timed_setups(workload, raw, seed, 1)
    init_state = prep.model.state_dict()
    outcomes = [run_call(workload, prep, init_state)]
    # taken now because each further setup can only raise the high-water mark
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setups += timed_setups(workload, raw, seed, SETUP_REPEATS - 1)[1]
    while _another(sum(o.seconds for o in outcomes), seconds, outcomes[-1].seconds):
        outcomes.append(run_call(workload, prep, init_state))
    good, problems = _tally(outcomes)
    steps = [s for o in good for s in o.steps]
    evals = [e for o in good for e in o.evals]
    metrics = {"setup_s": (statistics.median(setups), "s")}
    if good:
        train_s = statistics.median(o.seconds for o in good)
        metrics.update({
            "train_s": (train_s, "s"),
            "edges_per_s": (prep.attention_edges * prep.cfg.epochs / train_s, "1/s"),
            "step_s_p50": (statistics.median(steps), "s"),
            "eval_s_p50": (statistics.median(evals), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "final_loss": (good[0].final_loss, "nats"),
        })
    detail = {
        "samples": {"setup": len(setups), "train": len(good), "step": len(steps),
                    "eval": len(evals)},
        "setup_s_all": setups,
        "train_s_all": [o.seconds for o in outcomes],
        "step_s_all": steps,
        "eval_s_all": evals,
    }
    return _result(prep, outcomes, problems, metrics, detail)


def trace(workload: Workload, raw, seed: int, seconds: float) -> dict:
    """Untraced calls alternating with traced repetitions (setup plus one call)."""
    prep, _ = timed_setups(workload, raw, seed, 1)
    init_state = prep.model.state_dict()
    outcomes, untraced, reps = [], [], []
    start, pair = time.perf_counter(), 0.0
    while not reps or _another(time.perf_counter() - start, seconds, pair):
        pair_start = time.perf_counter()
        plain = run_call(workload, prep, init_state)
        outcomes.append(plain)
        untraced.append(plain.seconds)
        rec = tracer.Tracer()
        vqc.reset_execution_count()
        with rec.installed():
            with rec.root("setup"):
                traced_prep = workload.setup(raw, seed)
            with rec.root("train"):
                outcomes.append(run_call(workload, traced_prep, init_state))
        reps.append((rec, vqc.execution_count()))
        pair = time.perf_counter() - pair_start
    good, problems = _tally(outcomes)
    problems += trace_problems(reps)

    per_rep = [_layer_seconds(rec) for rec, _ in reps]
    metrics = {name: (statistics.median(r[name] for r in per_rep), "s")
               for name in per_rep[0]}
    counts = reps[0][0].counts
    for name in tracer.COUNT_NAMES:
        metrics[name] = (counts[name], "B" if name.endswith("bytes") else "count")
    traced_train = metrics["trace.train_s"][0]
    metrics["trace.overhead_s"] = (traced_train - statistics.median(untraced), "s")
    detail = {"samples": {"traced": len(reps), "untraced": len(untraced)},
              "untraced_train_s_all": untraced,
              "counts_by_root": {root: dict(c) for root, c in reps[0][0].root_counts.items()}}
    return _result(prep, outcomes, problems, metrics, detail)


def _layer_seconds(rec: tracer.Tracer) -> dict[str, float]:
    """Self seconds per layer over both roots; root self time becomes ``other_s``."""
    own, roots = rec.self_times()
    out = {f"{name}_s": sum(o.get(name, 0.0) for o in own.values())
           for name in tracer.SPAN_NAMES}
    # the circuit including the statevector kernels it calls
    out["vqc.forward_total_s"] = rec.total_time("vqc.forward")
    out["vqc.adjoint_total_s"] = rec.total_time("vqc.adjoint")
    out["other_s"] = sum(own[root][root] for root in roots)
    out["trace.setup_s"] = roots["setup"]
    out["trace.train_s"] = roots["train"]
    return out


def trace_problems(reps: list[tuple[tracer.Tracer, int]]) -> list[str]:
    """Self times must tile each root; counts must match the program's and repeat."""
    problems = []
    for rec, executions in reps:
        own, roots = rec.self_times()
        for root, duration in roots.items():
            if min(own[root].values()) < 0:
                problems.append(f"negative self time under {root}")
            total = sum(own[root].values())
            if abs(total - duration) > SELF_TIME_TOLERANCE * duration:
                problems.append(f"self times under {root} sum to {total:.4f}s, "
                                f"not its {duration:.4f}s")
        if rec.counts["vqc.executions"] != executions:
            problems.append(f"traced vqc.executions {rec.counts['vqc.executions']} "
                            f"!= vqc.execution_count() {executions}")
    if any(rec.counts != reps[0][0].counts for rec, _ in reps):
        problems.append("traced repetitions disagree on counts")
    return problems


def _result(prep: Prepared, outcomes: list[CallOutcome], problems: list[str],
            metrics: dict, detail: dict) -> dict:
    failed = sum(not o.ok for o in outcomes)
    detail.update({
        "problems": problems,
        "epochs_per_call": prep.cfg.epochs,
        "inputs": {
            "nodes": int(prep.in_degrees.shape[0]),
            "attention_edges": prep.attention_edges,
            "in_degree_max": int(prep.in_degrees.max()),
            "in_degree_median": float(np.median(prep.in_degrees)),
        },
    })
    return {
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
        "detail": detail,
    }


def environment(root: Path) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "commit": _commit(root),
        "machine": platform.machine(),
    }


def _blas_threads() -> int | None:
    """Ask the OpenBLAS that numpy bundles how many threads it uses."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def _commit(root: Path) -> str:
    """HEAD commit read from .git without running git; "unknown" outside a checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"
