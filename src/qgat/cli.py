"""Command-line entry point.

Subcommands: train, noise-sweep, linkpred, gradcheck, params, synth.
Exit codes: 0 success, 1 runtime failure, 2 usage or configuration error.
The whole configuration is checked before a command creates ``--out``, so
exit 2 means nothing was written.
Set QGAT_LOG=debug|info|warning for log verbosity.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import vqc
from .attention import QgatLayer
from .autodiff import Tensor, gradient_errors
from .config import (Config, ConfigError, apply_overrides, check, make_train_config,
                     parse_config)
from .graph import (
    FEATURE_NOISE_GRID,
    STRUCTURAL_NOISE_GRID,
    Graph,
    add_feature_noise,
    add_structural_noise,
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
from .training import (
    MODEL_KINDS,
    TrainConfig,
    TrainingDivergedError,
    build_model,
    infer_dims,
    link_eval,
    run_training,
    save_checkpoint,
    write_history_csv,
)

log = logging.getLogger("qgat")


def _load_data(cfg: Config) -> Graph:
    source = cfg.get("data", "source")
    if source == "synth":
        return synth_sbm(
            cfg.get("data", "n_per_class"),
            cfg.get("data", "n_classes"),
            cfg.get("data", "p_in"),
            cfg.get("data", "p_out"),
            cfg.get("data", "feature_dim"),
            cfg.get("data", "class_sep"),
            cfg.get("data", "seed"),
        )
    graph = load_graph(cfg.get("data", "path"), format=source)
    if graph.masks is None:
        # the seeded 60/20/20 node split that synth_sbm draws
        rng = np.random.default_rng(cfg.get("data", "seed"))
        graph = Graph(graph.features, graph.edges, labels=graph.labels,
                      masks=random_split_masks(graph.n_nodes, rng))
    return graph


def _link_split(cfg: Config, graph: Graph):
    return split_link_prediction(graph, cfg.get("linkpred", "frac_val"),
                                 cfg.get("linkpred", "frac_test"),
                                 cfg.get("linkpred", "neg_ratio"), cfg.get("data", "seed"))


def _train_configs(cfg: Config, data, task: str | None = None, models: list[str] | None = None
                   ) -> list[tuple[str, list[TrainConfig]]]:
    """One ``TrainConfig`` per seed for each model (``experiment.models`` by
    default); data that the task cannot read is a configuration error."""
    runs = [(model, [make_train_config(cfg, model, seed, task)
                     for seed in cfg.get("experiment", "seeds")])
            for model in models or cfg.get("experiment", "models")]
    try:
        for _, tcs in runs:
            for tc in tcs:
                infer_dims(data, tc)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return runs


def _summary_line(model: str, metric_name: str, values: list[float]) -> str:
    mean = float(np.mean(values))
    std = float(np.std(values))
    return f"{model}: {metric_name} = {mean:.4f} +/- {std:.4f} over {len(values)} seeds"


def _prepare_out(cfg: Config, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    cfg.echo(out / "config_echo.ini")


# -- train -------------------------------------------------------------------


def cmd_train(cfg: Config, out: Path, jobs: int) -> int:
    graph = _load_data(cfg)
    runs = _train_configs(cfg, graph)
    _prepare_out(cfg, out)
    summary_rows = []
    for model_name, tcs in runs:
        metrics = []
        for tc in tcs:
            log.info("training %s seed %d", model_name, tc.seed)
            _, result = run_training(graph, tc)
            write_history_csv(result.history, out / f"metrics_{model_name}_seed{tc.seed}.csv")
            save_checkpoint(out / f"checkpoint_{model_name}_seed{tc.seed}.json", tc,
                            result.best_state)
            metrics.append(result.test_metric)
        print(_summary_line(model_name, "test metric", metrics))
        summary_rows.append((model_name, float(np.mean(metrics)), float(np.std(metrics)),
                             len(metrics)))
    with atomic_write(out / "summary.csv") as fh:
        fh.write("model,mean,std,n_seeds\n")
        for row in summary_rows:
            fh.write(f"{row[0]},{row[1]!r},{row[2]!r},{row[3]}\n")
    return 0


# -- noise sweep ----------------------------------------------------------------


def _sweep_cell(payload: dict) -> tuple[str, float, int, float]:
    """One (model, level, seed) training run; top level so pools can pickle it."""
    tc, level = payload["tc"], payload["level"]
    graph = _load_data(Config(payload["values"]))
    if level > 0:
        noise = add_feature_noise if payload["kind"] == "feature" else add_structural_noise
        graph = noise(graph, level, tc.seed)
    _, result = run_training(graph, tc)
    return tc.model, level, tc.seed, result.test_metric


def cmd_noise_sweep(cfg: Config, out: Path, jobs: int) -> int:
    kind = cfg.get("noise", "kind")
    levels = cfg.get("noise", "levels") or list(
        FEATURE_NOISE_GRID if kind == "feature" else STRUCTURAL_NOISE_GRID)
    # the clean graph is loaded here only to check the runs against it; each
    # cell loads its own copy, since the worker pool pickles every cell
    runs = _train_configs(cfg, _load_data(cfg))
    _prepare_out(cfg, out)

    cells = [{"values": cfg.values, "tc": tc, "level": lv, "kind": kind}
             for _, tcs in runs for lv in levels for tc in tcs]
    log.info("noise sweep: %d cells (%s)", len(cells), kind)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_sweep_cell, cells))
    else:
        rows = [_sweep_cell(c) for c in cells]
    rows.sort(key=lambda r: (r[0], r[1], r[2]))

    csv_path = out / "sweep.csv"
    with atomic_write(csv_path) as fh:
        fh.write("model,level,seed,metric\n")
        for model_name, level, seed, metric in rows:
            fh.write(f"{model_name},{level!r},{seed},{metric!r}\n")

    series = []
    for model_name, _ in runs:
        means, stds = [], []
        for level in levels:
            vals = [m for mo, lv, _, m in rows if mo == model_name and lv == level]
            means.append(float(np.mean(vals)))
            stds.append(float(np.std(vals)))
        series.append(Series(model_name, list(levels), means, stds))
        print(_summary_line(model_name, f"metric at max {kind} noise",
                            [m for mo, lv, _, m in rows
                             if mo == model_name and lv == levels[-1]]))
    line_plot(series, title=f"Robustness under {kind} noise",
              xlabel="noise level", ylabel="test metric", path=out / "sweep.svg")
    return 0


# -- link prediction ---------------------------------------------------------------


def cmd_linkpred(cfg: Config, out: Path, jobs: int) -> int:
    k = cfg.get("linkpred", "hits_k")
    split = _link_split(cfg, _load_data(cfg))
    if not len(split.splits["test"].positives):
        raise ConfigError(f"linkpred.frac_test = {cfg.get('linkpred', 'frac_test')} holds out "
                          "no test edge of this graph")
    runs = _train_configs(cfg, split, task="link-pred")
    _prepare_out(cfg, out)
    rows = []
    for model_name, tcs in runs:
        hits, mrrs = [], []
        for tc in tcs:
            model, result = run_training(split, tc)
            report = link_eval(model, split, k)["test"]
            rows.append((model_name, tc.seed, report[f"hits@{k}"], report["mrr"]))
            hits.append(report[f"hits@{k}"])
            mrrs.append(report["mrr"])
        print(_summary_line(model_name, f"hits@{k}", hits))
        print(_summary_line(model_name, "mrr", mrrs))
    with atomic_write(out / "linkpred.csv") as fh:
        fh.write(f"model,seed,hits@{k},mrr\n")
        for model_name, seed, h, m in rows:
            fh.write(f"{model_name},{seed},{h!r},{m!r}\n")
    return 0


# -- gradient checking ---------------------------------------------------------------


def gradcheck_report(qubit_grid: list[int], layer_grid: list[int],
                     trials: int) -> dict[str, float]:
    """Worst relative gradient error per component, adjoint vs central differences."""
    rng = np.random.default_rng(7)
    report = {"circuit.angles": 0.0, "circuit.inputs": 0.0}
    for n_q in qubit_grid:
        for n_layers in layer_grid:
            layout = vqc.build_layout(n_q, n_layers)
            for _ in range(trials):
                angles = rng.uniform(0, 2 * np.pi, (n_layers, n_q, 3))
                x = rng.standard_normal((3, 1 << n_q))
                upstream = Tensor(rng.standard_normal((3, n_q)))
                errors = gradient_errors(
                    lambda inputs, a: vqc.expectations_op(inputs, a, layout) * upstream,
                    [Tensor(x, requires_grad=True), Tensor(angles, requires_grad=True)],
                    eps=1e-5)
                for name, err in zip(("circuit.inputs", "circuit.angles"), errors):
                    report[name] = float(np.maximum(report[name], err))  # keeps a NaN

    # end-to-end layer on a 4-node path graph
    g = Graph(rng.standard_normal((4, 3)),
              np.array([[0, 1], [1, 2], [2, 3]]), undirected=True)
    layer = QgatLayer(3, 2, 2, 2, 2, rng=rng)
    upstream = Tensor(rng.standard_normal((4, layer.out_dim)))
    params = layer.params()

    errors = gradient_errors(lambda *_: layer.forward(g, g.features) * upstream,
                             list(params.values()), eps=1e-6, atol=1e-7)
    report.update((f"qgat_layer.{name}", err) for name, err in zip(params, errors))
    return report


def cmd_gradcheck(cfg: Config, out: Path, jobs: int) -> int:
    report = gradcheck_report(cfg.get("gradcheck", "qubits"), cfg.get("gradcheck", "layers"),
                              cfg.get("gradcheck", "trials"))
    threshold = cfg.get("gradcheck", "threshold")
    failed = False
    for name in sorted(report):
        ok = report[name] <= threshold  # False for NaN
        print(f"{name}: max relative error {report[name]:.3e} [{'ok' if ok else 'FAIL'}]")
        failed |= not ok
    return 1 if failed else 0


# -- parameter accounting ---------------------------------------------------------------


def cmd_params(cfg: Config, out: Path, jobs: int) -> int:
    data = _load_data(cfg)
    if cfg.get("experiment", "task") == "link-pred":
        data = _link_split(cfg, data)
    runs = _train_configs(cfg, data, models=list(MODEL_KINDS))
    print(f"{'model':<8}{'layer':<10}{'component':<16}{'parameters':>12}")
    for model_name, (tc, *_) in runs:
        model = build_model(tc, *infer_dims(data, tc))
        total = 0
        for i, layer in enumerate(model.layers):
            for comp, tensor in layer.params().items():
                size = int(np.prod(tensor.shape))
                total += size
                print(f"{model_name:<8}layer{i:<5}{comp:<16}{size:>12}")
        quantum = sum(
            int(np.prod(l.angles.shape)) for l in model.layers if isinstance(l, QgatLayer)
        )
        print(f"{model_name:<8}{'-':<10}{'quantum total':<16}{quantum:>12}")
        print(f"{model_name:<8}{'-':<10}{'total':<16}{total:>12}")
    return 0


# -- dataset generation ---------------------------------------------------------------


def cmd_synth(cfg: Config, out: Path, jobs: int) -> int:
    if cfg.get("experiment", "task") == "multi-label":
        collection = synth_collection(
            2, 1, 1,
            n_per_class=cfg.get("data", "n_per_class"),
            n_classes=cfg.get("data", "n_classes"),
            p_in=cfg.get("data", "p_in"),
            p_out=cfg.get("data", "p_out"),
            d=cfg.get("data", "feature_dim"),
            class_sep=cfg.get("data", "class_sep"),
            n_labels=cfg.get("data", "n_classes"),
            seed=cfg.get("data", "seed"),
        )
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgat",
        description="Quantum and classical graph attention experiments at desk scale.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, helptext in [
        ("train", "train models and report the test metric per seed"),
        ("noise-sweep", "feature/structural robustness sweep with CSV + SVG output"),
        ("linkpred", "link prediction with Hits@K and MRR"),
        ("gradcheck", "compare adjoint gradients against finite differences"),
        ("params", "print trainable-parameter counts per model"),
        ("synth", "generate a synthetic dataset on disk"),
    ]:
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", type=str, default=None, help="INI config file")
        p.add_argument("--out", type=str, default="runs/latest", help="output directory")
        p.add_argument("--seeds", type=str, default=None,
                       help="comma-separated training seeds (overrides config)")
        p.add_argument("--override", action="append", default=[],
                       metavar="SECTION.KEY=VALUE", help="config override, repeatable")
        if name == "noise-sweep":
            p.add_argument("--jobs", type=_positive_int, default=1, help="worker pool size")
    return parser


COMMANDS = {
    "train": cmd_train,
    "noise-sweep": cmd_noise_sweep,
    "linkpred": cmd_linkpred,
    "gradcheck": cmd_gradcheck,
    "params": cmd_params,
    "synth": cmd_synth,
}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=os.environ.get("QGAT_LOG", "WARNING").upper(),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config)
        apply_overrides(cfg, args.override)
        if args.seeds is not None:
            cfg.set("experiment", "seeds", args.seeds)
        check(cfg)
        return COMMANDS[args.subcommand](cfg, Path(args.out), getattr(args, "jobs", 1))
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
