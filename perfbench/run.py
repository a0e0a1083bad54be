"""qgat benchmark: time whole training runs of three workloads, or trace them.

Usage, from the repository root:

    python3 perfbench/run.py --workload qgat-sbm300 --seed 1 --seconds 20 --trace 0

``--trace 0`` measures end to end with no layer wrappers: it sets the
workload up several times (``setup_s`` is the median), then repeats the
public training call (``training.train`` or ``inductive.train_inductive``)
from the same initial weights until ``--seconds`` have passed.  ``--trace 1``
alternates untraced calls with traced repetitions (one setup plus one
training call under ``tracer.Tracer``) and reports per-layer self times and
counts instead.

The last line of standard output is the result JSON.  The line before it
holds the run's detail (sample counts, input sizes, environment, problems
found by the output check); ``.bench_out/`` keeps a copy of both.

The program is imported from ``src/`` next to this directory, with BLAS
pinned to one thread, and from nowhere else: without ``src/qgat`` the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qgat" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'qgat'}", file=sys.stderr)
        return 2
    for name in BLAS_ENV:  # must precede the first numpy import
        os.environ[name] = "1"
    sys.path[:0] = [str(SRC), str(HERE)]
    import qgat

    if Path(qgat.__file__).resolve().parent != (SRC / "qgat").resolve():
        print(f"perfbench: qgat imported from {qgat.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    raw = workload.make_inputs(args.seed)
    run = harness.trace if args.trace else harness.measure
    result = run(workload, raw, args.seed, args.seconds)

    detail = result.pop("detail")
    detail.update({"workload": workload.name, "why": _why(workload.name), "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "environment": harness.environment(ROOT)})
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"detail": detail, "result": result}, indent=1))
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


def _why(name: str) -> str | None:
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        return None
    entries = json.loads(spec.read_text())["workloads"]
    return next((w["why"] for w in entries if w["name"] == name), None)


if __name__ == "__main__":
    sys.exit(main())
