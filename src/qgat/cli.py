"""Command-line entry point.

Exit codes: 0 success, 1 runtime failure, 2 usage or configuration error.
The whole configuration is checked before a command creates ``--out``, so
exit 2 means nothing was written.

Every training run is one cell, (data, TrainConfig, noise kind, level).
``train`` and ``noise-sweep`` load their data once and run their cells
through ``_run_cell``, which ``_run_cells`` calls in cell order, serially or
in one process pool of ``--jobs`` workers; a pool returns each run's result,
and its results equal the serial ones bit for bit.  ``COMMANDS`` is the one
table of subcommands: each one's help is its docstring's first line, and it
takes ``--out`` when it reads ``out`` and ``--seeds`` and ``--jobs`` when it
reads ``jobs``.  ``config.check`` validates the training keys once for every
command.  Only the config sets a run's task, and ``_training_data`` reads the
data shape that task trains on; noise kinds, file formats and tasks are read
from ``graph.NOISE``, ``graph.LOADERS`` and ``training.TASKS``.
``gradcheck`` checks one layer of every model kind, at ``[model]``'s circuit
size, against central differences.
Set QGAT_LOG=debug|info|warning for log verbosity.
"""

from __future__ import annotations

import argparse
import inspect
import logging
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .attention import MODEL_KINDS, CircuitScorer, _AttentionLayer
from .autodiff import Tensor, gradient_errors
from .config import (Config, ConfigError, apply_overrides, check, make_train_config,
                     parse_config)
from .graph import (
    NOISE,
    Graph,
    LinkSplit,
    load_graph,
    random_split_masks,
    save_graph_csv,
    save_graph_json,
    split_link_prediction,
    synth_sbm,
)
from .files import atomic_write
from .inductive import save_collection, synth_collection
from .svgplot import Series, line_plot
from .metrics import hits_at_k
from .training import (
    TrainConfig,
    TrainingDivergedError,
    TrainResult,
    build_model,
    infer_dims,
    one_blas_thread,
    run_training,
    save_checkpoint,
    write_history_csv,
)

log = logging.getLogger("qgat")


def _sbm_args(cfg: Config) -> dict:
    """[data]'s SBM keys as keyword arguments of ``synth_sbm`` and ``synth_collection``."""
    args = {key: cfg.get("data", key)
            for key in ("n_per_class", "n_classes", "p_in", "p_out", "class_sep", "seed")}
    return args | {"d": cfg.get("data", "feature_dim")}


def _load_data(cfg: Config) -> Graph:
    source = cfg.get("data", "source")
    if source == "synth":
        return synth_sbm(**_sbm_args(cfg))
    graph = load_graph(cfg.get("data", "path"), format=source)
    if graph.masks is None:
        # the seeded 60/20/20 node split that synth_sbm draws
        rng = np.random.default_rng(cfg.get("data", "seed"))
        graph = Graph(graph.features, graph.edges, labels=graph.labels,
                      masks=random_split_masks(graph.n_nodes, rng))
    return graph


def _training_data(cfg: Config) -> Graph | LinkSplit:
    """The data the config's task trains on: the graph for a node task, its
    seeded edge split for ``link-pred``, which must hold out a test edge."""
    graph = _load_data(cfg)
    if cfg.get("experiment", "task") != "link-pred":
        return graph
    split = split_link_prediction(graph, cfg.get("linkpred", "frac_val"),
                                  cfg.get("linkpred", "frac_test"),
                                  cfg.get("linkpred", "neg_ratio"), cfg.get("data", "seed"))
    if not len(split.splits["test"].positives):
        raise ConfigError(f"linkpred.frac_test = {cfg.get('linkpred', 'frac_test')} holds out "
                          "no test edge of this graph")
    return split


def _train_configs(cfg: Config, data, models: list[str] | None = None) -> list[TrainConfig]:
    """One ``TrainConfig`` per (model, seed), model-major, over
    ``experiment.models`` by default; data that the task cannot read is a
    configuration error."""
    tcs = [make_train_config(cfg, model, seed)
           for model in models or cfg.get("experiment", "models")
           for seed in cfg.get("experiment", "seeds")]
    try:
        for tc in tcs:
            infer_dims(data, tc)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return tcs


# (data, run config, noise kind, noise level): one training run
Cell = tuple[Graph | LinkSplit, TrainConfig, str | None, float]


def _run_cell(cell: Cell) -> TrainResult:
    """Train on the cell's data, perturbed first when its level is above 0;
    top level, and its result picklable, so that a process pool can run it."""
    data, tc, kind, level = cell
    log.info("training %s seed %d, noise level %r", tc.model, tc.seed, level)
    if level > 0:
        data = NOISE[kind].perturb(data, level, tc.seed)
    return run_training(data, tc)


def _run_cells(cells: list[Cell], jobs: int) -> list[TrainResult]:
    """``_run_cell`` of each cell, in cell order, serially or on ``jobs`` workers,
    but never on more workers than there are cells."""
    workers = min(jobs, len(cells))
    if workers <= 1:
        return [_run_cell(cell) for cell in cells]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_cell, cells))


def _by_model(cells: list[Cell], values: list) -> dict[str, list]:
    """One value per cell, grouped by the cell's model in cell order."""
    groups: dict[str, list] = {}
    for (_, tc, _, _), value in zip(cells, values, strict=True):
        groups.setdefault(tc.model, []).append(value)
    return groups


def _summarize(model: str, metric_name: str, values) -> tuple[str, float, float, int]:
    """Print one model's per-seed mean +/- std line; return (model, mean, std, count)."""
    mean, std = float(np.mean(values)), float(np.std(values))
    print(f"{model}: {metric_name} = {mean:.4f} +/- {std:.4f} over {len(values)} seeds")
    return model, mean, std, len(values)


def _write_csv(path: Path, header: str, rows) -> None:
    """One line per row; strings as they are, every other value by ``repr``."""
    with atomic_write(path) as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(v if isinstance(v, str) else repr(v) for v in row) + "\n")


def _prepare_out(cfg: Config, out: Path) -> None:
    """Create ``out`` and echo the configuration there, with the BLAS library
    and its thread count once it is pinned to one thread."""
    out.mkdir(parents=True, exist_ok=True)
    cfg.echo(out / "config_echo.ini", [f"blas: {one_blas_thread()}"])


# -- train -------------------------------------------------------------------


def cmd_train(cfg: Config, out: Path, jobs: int) -> int:
    """train models and report the test metric per seed"""
    data = _training_data(cfg)
    cells = [(data, tc, None, 0.0) for tc in _train_configs(cfg, data)]
    _prepare_out(cfg, out)
    results = _run_cells(cells, jobs)
    for (_, tc, _, _), result in zip(cells, results):
        write_history_csv(result.history, out / f"metrics_{tc.model}_seed{tc.seed}.csv")
        save_checkpoint(out / f"checkpoint_{tc.model}_seed{tc.seed}.json", tc,
                        result.best_state)
    metrics = _by_model(cells, [result.test_metric for result in results])
    _write_csv(out / "summary.csv", "model,mean,std,n_seeds",
               [_summarize(model, "test metric", values) for model, values in metrics.items()])
    if cfg.get("experiment", "task") == "link-pred":
        k = cfg.get("linkpred", "hits_k")
        hits = [hits_at_k(pred[targets == 1], pred[targets == 0], k)
                for pred, targets in (result.predictions["test"] for result in results)]
        for model, values in _by_model(cells, hits).items():
            _summarize(model, f"hits@{k}", values)
        _write_csv(out / "linkpred.csv", f"model,seed,hits@{k},mrr",
                   [(tc.model, tc.seed, h, result.test_metric)
                    for (_, tc, _, _), h, result in zip(cells, hits, results)])
    return 0


# -- noise sweep ----------------------------------------------------------------


def cmd_noise_sweep(cfg: Config, out: Path, jobs: int) -> int:
    """feature/structural robustness sweep with CSV + SVG output"""
    kind = cfg.get("noise", "kind")
    levels = cfg.get("noise", "levels") or list(NOISE[kind].grid)
    graph = _load_data(cfg)
    cells = [(graph, tc, kind, level) for tc in _train_configs(cfg, graph) for level in levels]
    _prepare_out(cfg, out)
    log.info("noise sweep: %d cells (%s)", len(cells), kind)
    metrics = [result.test_metric for result in _run_cells(cells, jobs)]
    _write_csv(out / "sweep.csv", "model,level,seed,metric",
               sorted((tc.model, level, tc.seed, metric)
                      for (_, tc, _, level), metric in zip(cells, metrics)))

    series = []
    for model, values in _by_model(cells, metrics).items():
        # each seed's cells run every level in turn
        per_level = [values[i::len(levels)] for i in range(len(levels))]
        series.append(Series(model, list(levels), [float(np.mean(v)) for v in per_level],
                             [float(np.std(v)) for v in per_level]))
        _summarize(model, f"metric at max {kind} noise", per_level[-1])
    line_plot(series, title=f"Robustness under {kind} noise",
              xlabel="noise level", ylabel="test metric", path=out / "sweep.svg")
    return 0


# -- gradient checking ---------------------------------------------------------------


GRADCHECK_RTOL = 1e-4  # the worst relative error a component may show and pass


def gradcheck_report(tc: TrainConfig) -> dict[str, float]:
    """Worst relative gradient error, tape vs central differences, per parameter of
    one layer of every model kind, with ``tc``'s circuit and first head count."""
    rng = np.random.default_rng(7)
    g = Graph(rng.standard_normal((4, 3)),  # the 4-node path
              np.array([[0, 1], [1, 2], [2, 3]]), undirected=True)
    report = {}
    for kind in MODEL_KINDS:
        layer = _AttentionLayer(kind, 3, 2, tc.heads_per_layer[0], rng=rng,
                                n_qubits=tc.n_qubits, entangling_layers=tc.entangling_layers)
        upstream = Tensor(rng.standard_normal((4, layer.out_dim)))
        params = layer.params()
        errors = gradient_errors(lambda *_: layer.forward(g, g.features) * upstream,
                                 list(params.values()), eps=1e-6, atol=1e-7)
        report.update((f"{kind}_layer.{name}", err) for name, err in zip(params, errors))
    return report


def cmd_gradcheck(cfg: Config) -> int:
    """check one layer of every model kind, at [model]'s circuit size, against finite differences"""
    report = gradcheck_report(make_train_config(cfg, "qgat", 0))
    failed = False
    for name in sorted(report):
        ok = report[name] <= GRADCHECK_RTOL  # False for NaN
        print(f"{name}: max relative error {report[name]:.3e} [{'ok' if ok else 'FAIL'}]")
        failed |= not ok
    return 1 if failed else 0


# -- parameter accounting ---------------------------------------------------------------


def cmd_params(cfg: Config) -> int:
    """print trainable-parameter counts per model"""
    data = _training_data(cfg)
    tcs = _train_configs(cfg, data, models=list(MODEL_KINDS))
    print(f"{'model':<8}{'layer':<10}{'component':<16}{'parameters':>12}")
    for tc in tcs[::len(cfg.get("experiment", "seeds"))]:  # each model's first seed
        model = build_model(tc, *infer_dims(data, tc))
        total = 0
        for i, layer in enumerate(model.layers):
            for comp, tensor in layer.params().items():
                size = int(np.prod(tensor.shape))
                total += size
                print(f"{tc.model:<8}layer{i:<5}{comp:<16}{size:>12}")
        quantum = sum(int(np.prod(l.scorer.params["angles"].shape))
                      for l in model.layers if isinstance(l.scorer, CircuitScorer))
        print(f"{tc.model:<8}{'-':<10}{'quantum total':<16}{quantum:>12}")
        print(f"{tc.model:<8}{'-':<10}{'total':<16}{total:>12}")
    return 0


# -- dataset generation ---------------------------------------------------------------


def cmd_synth(cfg: Config, out: Path) -> int:
    """generate a synthetic dataset on disk"""
    if cfg.get("experiment", "task") == "multi-label":
        collection = synth_collection(2, 1, 1, n_labels=cfg.get("data", "n_classes"),
                                      **_sbm_args(cfg))
        _prepare_out(cfg, out)
        manifest = save_collection(collection, out / "collection")
        print(f"wrote {manifest}")
        return 0
    graph = _load_data(cfg)
    _prepare_out(cfg, out)
    save_graph_json(graph, out / "graph.json")
    save_graph_csv(graph, out)
    print(f"wrote dataset ({graph.n_nodes} nodes, {graph.undirected_pairs().shape[0]} "
          f"undirected edges) to {out}")
    return 0


# -- argument plumbing ---------------------------------------------------------------


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


COMMANDS = {
    "train": cmd_train,
    "noise-sweep": cmd_noise_sweep,
    "gradcheck": cmd_gradcheck,
    "params": cmd_params,
    "synth": cmd_synth,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgat",
        description="Quantum and classical graph attention experiments at desk scale.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, command in COMMANDS.items():
        reads = inspect.signature(command).parameters
        p = sub.add_parser(name, help=command.__doc__.splitlines()[0])
        p.add_argument("--config", type=str, default=None, help="INI config file")
        p.add_argument("--override", action="append", default=[],
                       metavar="SECTION.KEY=VALUE", help="config override, repeatable")
        if "out" in reads:
            p.add_argument("--out", type=Path, default="runs/latest", help="output directory")
        if "jobs" in reads:
            p.add_argument("--seeds", type=str, default=None,
                           help="comma-separated training seeds (overrides config)")
            p.add_argument("--jobs", type=_positive_int, default=1, help="worker pool size")
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=os.environ.get("QGAT_LOG", "WARNING").upper(),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config)
        apply_overrides(cfg, args.override)
        if getattr(args, "seeds", None) is not None:
            cfg.set("experiment", "seeds", args.seeds)
        check(cfg)
        flags = {name: getattr(args, name) for name in ("out", "jobs") if name in args}
        return COMMANDS[args.subcommand](cfg, **flags)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (TrainingDivergedError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
