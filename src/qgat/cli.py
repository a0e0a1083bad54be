"""Command-line entry point.

Subcommands: train, noise-sweep, linkpred, gradcheck, params, synth.
Exit codes: 0 success, 1 runtime failure, 2 usage or configuration error.
Set QGAT_LOG=debug|info|warning for log verbosity.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import vqc
from .attention import QgatLayer
from .autodiff import Tensor, gradient_errors, make_op
from .config import Config, ConfigError, apply_overrides, make_train_config, parse_config
from .graph import (
    FEATURE_NOISE_GRID,
    STRUCTURAL_NOISE_GRID,
    Graph,
    add_feature_noise,
    add_structural_noise,
    load_graph,
    save_graph_json,
    split_link_prediction,
    synth_sbm,
)
from .inductive import save_collection, synth_collection
from .svgplot import Series, line_plot
from .training import (
    MODEL_KINDS,
    TrainingDivergedError,
    build_model,
    link_eval,
    run_training,
    save_checkpoint,
    write_history_csv,
)

log = logging.getLogger("qgat")


@dataclass
class ExperimentSpec:
    subcommand: str
    config: Config
    out_dir: Path
    seeds: list[int]
    jobs: int
    corrupt_gradients: bool = False


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
    path = cfg.get("data", "path")
    if not path:
        raise ConfigError("data.path is required when data.source is not 'synth'")
    return load_graph(path, format=source)


def _summary_line(model: str, metric_name: str, values: list[float]) -> str:
    mean = float(np.mean(values))
    std = float(np.std(values))
    return f"{model}: {metric_name} = {mean:.4f} +/- {std:.4f} over {len(values)} seeds"


def _prepare_out(spec: ExperimentSpec) -> Path:
    spec.out_dir.mkdir(parents=True, exist_ok=True)
    spec.config.echo(spec.out_dir / "config_echo.ini")
    return spec.out_dir


# -- train -------------------------------------------------------------------


def cmd_train(spec: ExperimentSpec) -> int:
    out = _prepare_out(spec)
    cfg = spec.config
    graph = _load_data(cfg)
    models = cfg.get("experiment", "models")
    summary_rows = []
    for model_name in models:
        metrics = []
        for seed in spec.seeds:
            tc = make_train_config(cfg, model_name, seed)
            log.info("training %s seed %d", model_name, seed)
            _, result = run_training(graph, tc)
            write_history_csv(result.history, out / f"metrics_{model_name}_seed{seed}.csv")
            save_checkpoint(out / f"checkpoint_{model_name}_seed{seed}.json", tc,
                            result.best_state)
            metrics.append(result.test_metric)
        print(_summary_line(model_name, "test metric", metrics))
        summary_rows.append((model_name, float(np.mean(metrics)), float(np.std(metrics)),
                             len(metrics)))
    with open(out / "summary.csv", "w") as fh:
        fh.write("model,mean,std,n_seeds\n")
        for row in summary_rows:
            fh.write(f"{row[0]},{row[1]!r},{row[2]!r},{row[3]}\n")
    return 0


# -- noise sweep ----------------------------------------------------------------


def _sweep_cell(payload: dict) -> tuple[str, float, int, float]:
    """One (model, level, seed) training run; top level so pools can pickle it."""
    cfg = Config(payload["values"])
    model_name, level, seed, kind = (
        payload["model"], payload["level"], payload["seed"], payload["kind"],
    )
    graph = _load_data(cfg)
    if level > 0:
        if kind == "feature":
            graph = add_feature_noise(graph, level, seed)
        else:
            graph = add_structural_noise(graph, level, seed)
    tc = make_train_config(cfg, model_name, seed)
    _, result = run_training(graph, tc)
    return model_name, level, seed, result.test_metric


def cmd_noise_sweep(spec: ExperimentSpec) -> int:
    out = _prepare_out(spec)
    cfg = spec.config
    kind = cfg.get("noise", "kind")
    if kind not in ("feature", "structural"):
        raise ConfigError(f"noise.kind must be 'feature' or 'structural', got {kind!r}")
    models = cfg.get("experiment", "models")
    for name in models:
        if name not in MODEL_KINDS:
            raise ConfigError(f"unknown model {name!r} in experiment.models")
    levels = cfg.get("noise", "levels")
    if not levels:
        levels = list(FEATURE_NOISE_GRID if kind == "feature" else STRUCTURAL_NOISE_GRID)

    cells = [
        {"values": cfg.values, "model": m, "level": lv, "seed": s, "kind": kind}
        for m in models for lv in levels for s in spec.seeds
    ]
    log.info("noise sweep: %d cells (%s)", len(cells), kind)
    if spec.jobs > 1:
        with ProcessPoolExecutor(max_workers=spec.jobs) as pool:
            rows = list(pool.map(_sweep_cell, cells))
    else:
        rows = [_sweep_cell(c) for c in cells]
    rows.sort(key=lambda r: (r[0], r[1], r[2]))

    csv_path = out / "sweep.csv"
    with open(csv_path, "w") as fh:
        fh.write("model,level,seed,metric\n")
        for model_name, level, seed, metric in rows:
            fh.write(f"{model_name},{level!r},{seed},{metric!r}\n")

    series = []
    for model_name in models:
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


def cmd_linkpred(spec: ExperimentSpec) -> int:
    cfg = spec.config
    k = cfg.get("linkpred", "hits_k")
    if k < 1:
        raise ConfigError(f"linkpred.hits_k must be >= 1, got {k}")
    out = _prepare_out(spec)
    graph = _load_data(cfg)
    split = split_link_prediction(
        graph,
        cfg.get("linkpred", "frac_val"),
        cfg.get("linkpred", "frac_test"),
        cfg.get("linkpred", "neg_ratio"),
        cfg.get("data", "seed"),
    )
    rows = []
    for model_name in cfg.get("experiment", "models"):
        hits, mrrs = [], []
        for seed in spec.seeds:
            tc = make_train_config(cfg, model_name, seed, task="link-pred")
            model, result = run_training(split, tc)
            report = link_eval(model, split, k)["test"]
            rows.append((model_name, seed, report[f"hits@{k}"], report["mrr"]))
            hits.append(report[f"hits@{k}"])
            mrrs.append(report["mrr"])
        print(_summary_line(model_name, f"hits@{k}", hits))
        print(_summary_line(model_name, "mrr", mrrs))
    with open(out / "linkpred.csv", "w") as fh:
        fh.write(f"model,seed,hits@{k},mrr\n")
        for model_name, seed, h, m in rows:
            fh.write(f"{model_name},{seed},{h!r},{m!r}\n")
    return 0


# -- gradient checking ---------------------------------------------------------------


def gradcheck_report(qubit_grid: list[int], layer_grid: list[int], trials: int,
                     corrupt: bool = False) -> dict[str, float]:
    """Worst relative gradient error per component, adjoint vs central differences.

    ``corrupt`` adds a zero-valued node to the layer check whose vjp puts
    1e-2 on ``compress``: a negative control that must fail.
    """
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

    def layer_value(*_) -> Tensor:
        out = layer.forward(g, g.features) * upstream
        if corrupt:
            out = out + make_op(np.zeros(out.shape), (layer.compress,),
                                lambda _: (np.full(layer.compress.shape, 1e-2),))
        return out

    errors = gradient_errors(layer_value, list(params.values()), eps=1e-6, atol=1e-7)
    report.update((f"qgat_layer.{name}", err) for name, err in zip(params, errors))
    return report


def cmd_gradcheck(spec: ExperimentSpec) -> int:
    cfg = spec.config
    report = gradcheck_report(
        cfg.get("gradcheck", "qubits"),
        cfg.get("gradcheck", "layers"),
        cfg.get("gradcheck", "trials"),
        corrupt=spec.corrupt_gradients,
    )
    threshold = cfg.get("gradcheck", "threshold")
    failed = False
    for name in sorted(report):
        ok = report[name] <= threshold  # False for NaN
        print(f"{name}: max relative error {report[name]:.3e} [{'ok' if ok else 'FAIL'}]")
        failed |= not ok
    return 1 if failed else 0


# -- parameter accounting ---------------------------------------------------------------


def cmd_params(spec: ExperimentSpec) -> int:
    cfg = spec.config
    graph_dim = cfg.get("data", "feature_dim")
    n_classes = cfg.get("data", "n_classes")
    print(f"{'model':<8}{'layer':<10}{'component':<16}{'parameters':>12}")
    for model_name in MODEL_KINDS:
        tc = make_train_config(cfg, model_name, 0)
        model = build_model(tc, graph_dim, n_classes)
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


def cmd_synth(spec: ExperimentSpec) -> int:
    out = _prepare_out(spec)
    cfg = spec.config
    task = cfg.get("experiment", "task")
    if task == "multi-label":
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
        manifest = save_collection(collection, out / "collection")
        print(f"wrote {manifest}")
        return 0
    graph = _load_data(cfg)
    save_graph_json(graph, out / "graph.json")
    with open(out / "features.csv", "w") as fh:
        cols = [f"f{i}" for i in range(graph.feature_dim)]
        if graph.labels is not None:
            cols.append("label")
        fh.write(",".join(cols) + "\n")
        feats = graph._features
        for i in range(graph.n_nodes):
            row = [repr(float(v)) for v in feats[i]]
            if graph.labels is not None:
                row.append(str(int(graph.labels[i])))
            fh.write(",".join(row) + "\n")
    with open(out / "edges.txt", "w") as fh:
        for s, d in graph.undirected_pairs():
            fh.write(f"{s} {d}\n")
    print(f"wrote dataset ({graph.n_nodes} nodes, {graph.undirected_pairs().shape[0]} "
          f"undirected edges) to {out}")
    return 0


# -- argument plumbing ---------------------------------------------------------------


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
        p.add_argument("--jobs", type=int, default=1, help="worker pool size for sweeps")
        if name == "gradcheck":
            p.add_argument("--corrupt-gradients", action="store_true",
                           help=argparse.SUPPRESS)  # negative-control test hook
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
        spec = ExperimentSpec(
            subcommand=args.subcommand,
            config=cfg,
            out_dir=Path(args.out),
            seeds=cfg.get("experiment", "seeds"),
            jobs=max(1, args.jobs),
            corrupt_gradients=getattr(args, "corrupt_gradients", False),
        )
        return COMMANDS[args.subcommand](spec)
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
