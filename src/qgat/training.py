"""Losses, AdamW + cosine schedule, model assembly, and the training loop.

Training is full batch: one forward/backward over the whole graph per
epoch, evaluation on every split each epoch, early stopping on the
validation metric, and the test figure reported at the best-validation
checkpoint.  ``train`` is the one early-stopping loop and ``evaluate`` the
one evaluator, of each split's loss, metric and (predictions, targets);
``TrainResult`` keeps the best epoch's predictions, so no run is evaluated
twice.  Everything is driven by explicit seeded generators so a (seed,
config) pair reproduces its metric history bit-exactly.

``train`` fixes glibc's mmap and trim thresholds (``_keep_freed_pages``),
because the default dynamic ones hand the pages a consumed tape frees back to
the OS and every epoch then faults them in again.  It also pins OpenBLAS to
one thread (``one_blas_thread``), so a (seed, config) keeps its bits on a
host with any number of cores.

Every data shape and task has one readout: ``split_views`` gives, once per
run, the training step's view and the one graph evaluation reads, with each
split's selection on it (the reduce layout of its node ids, or one per column
of its (P, 2) node pairs) and targets; ``readout`` turns the model output
into predictions for it, and the task's loss and metric in ``TASKS`` score
them.  So every evaluation is one forward, whatever the data shape.
"""

from __future__ import annotations

import ctypes
import time
from dataclasses import dataclass, field, fields, asdict
from math import cos, pi
from pathlib import Path
from typing import Callable, NamedTuple

import json
import numpy as np

from . import metrics as metrics_mod
from .attention import MODEL_KINDS, _AttentionLayer
from .autodiff import (Segments, Tensor, exp, log, mul, pair_dot, softplus, sub, take_rows, tmean,
                       tsum)
from .files import atomic_write
from .graph import Graph, LinkSplit

# the circuit's unitary alone takes 16 * 4**n bytes: 256 MiB at 12 qubits
MAX_QUBITS = 12

_STREAMS = {"init": 0, "dropout": 1}
ADAM_BETAS, ADAM_EPS = (0.9, 0.999), 1e-8


@dataclass(frozen=True)
class Unions:
    """The inductive harness's data: ``step``, the train graphs' disjoint
    union, is the only graph a training step reads; ``whole``, the union of
    every graph, is the one graph evaluation reads, its masks marking each
    split's nodes."""

    step: Graph
    whole: Graph


# a graph, a link split, or the inductive harness's unions
TrainData = Graph | LinkSplit | Unions


class TrainingDivergedError(RuntimeError):
    pass


def stream_rng(seed: int, stream: str) -> np.random.Generator:
    return np.random.default_rng([seed, _STREAMS[stream]])


@dataclass
class TrainConfig:
    learning_rate: float = 2e-3
    weight_decay: float = 5e-4
    epochs: int = 200
    patience: int = 30
    hidden_dims: list[int] = field(default_factory=lambda: [8, 8, 8])
    heads_per_layer: list[int] = field(default_factory=lambda: [4, 4, 4])
    n_qubits: int = 4
    entangling_layers: int = 2
    dropout: float = 0.5
    task: str = "node-class"
    seed: int = 0
    model: str = "qgat"

    def validate(self) -> None:
        # every comparison is written so that NaN fails it
        if not 0 < self.learning_rate < np.inf:
            raise ValueError("learning rate must be positive and finite")
        if self.model not in MODEL_KINDS:
            raise ValueError(f"model must be one of {MODEL_KINDS}, got {self.model!r}")
        if self.task not in TASKS:
            raise ValueError(f"task must be one of {tuple(TASKS)}, got {self.task!r}")
        n_layers = len(self.heads_per_layer)
        if n_layers < 1:
            raise ValueError("need at least one attention layer")
        needed = n_layers - 1 if TASKS[self.task].label_rank else n_layers
        if len(self.hidden_dims) < needed:
            raise ValueError(
                f"hidden_dims supplies {len(self.hidden_dims)} dims but "
                f"{needed} are needed for {n_layers} layers on task {self.task}"
            )
        if min(self.heads_per_layer) < 1 or min(self.hidden_dims[:needed], default=1) < 1:
            raise ValueError("head counts and hidden dims must be >= 1")
        if self.n_qubits < 1 or self.entangling_layers < 1:
            raise ValueError("n_qubits and entangling_layers must be >= 1")
        if self.n_qubits > MAX_QUBITS:
            raise ValueError(f"n_qubits must be <= {MAX_QUBITS}, got {self.n_qubits}")
        if not 0 <= self.weight_decay < np.inf:
            raise ValueError("weight_decay must be finite and >= 0")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must lie in [0, 1), got {self.dropout}")
        if self.epochs < 0 or self.patience < 0:
            raise ValueError("epochs and patience must be >= 0")


@dataclass
class MetricsRecord:
    epoch: int
    losses: dict[str, float]
    metrics: dict[str, float]
    lr: float
    seconds: float


# -- optimizer and schedule -------------------------------------------------


@dataclass
class AdamWState:
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adamw_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
               state: AdamWState, lr: float, weight_decay: float = 0.0) -> dict[str, np.ndarray]:
    """One decoupled-weight-decay Adam update, in place, returning ``params``;
    a non-finite gradient raises before anything moves."""
    for name in params:
        if not np.all(np.isfinite(grads[name])):
            raise TrainingDivergedError(f"non-finite gradient in parameter {name!r}")
    b1, b2 = ADAM_BETAS
    state.step += 1
    t = state.step
    for name, p in params.items():
        g = grads[name]
        m = state.m.setdefault(name, np.zeros_like(p))
        v = state.v.setdefault(name, np.zeros_like(p))
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        if weight_decay:
            p *= 1.0 - lr * weight_decay
        p -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return params


def cosine_lr(step: int, total_steps: int, lr_max: float) -> float:
    """The learning rate at ``step``, annealed from ``lr_max`` to 0 over ``total_steps``."""
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    return 0.5 * lr_max * (1.0 + cos(pi * step / total_steps))


# -- losses -----------------------------------------------------------------


def cross_entropy_logits(pred: Tensor, labels: np.ndarray) -> Tensor:
    """Mean softmax cross-entropy over rows, stabilized by row-max subtraction."""
    labels = np.asarray(labels, dtype=np.int64)
    n, n_classes = pred.shape
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ValueError(f"label outside 0..{n_classes - 1}")
    shift = Tensor(pred.data.max(axis=1, keepdims=True))
    log_z = log(tsum(exp(sub(pred, shift)), axis=1, keepdims=True)) + shift
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), labels] = 1.0
    picked = tsum(mul(pred, Tensor(onehot)), axis=1, keepdims=True)
    return tmean(sub(log_z, picked))


def bce_with_logits(pred: Tensor, targets: np.ndarray) -> Tensor:
    """Mean binary cross-entropy over all cells, computed from logits."""
    targets = np.asarray(targets, dtype=np.float64)
    if np.any((targets != 0) & (targets != 1)):
        raise ValueError("binary targets must be 0 or 1")
    return tmean(sub(softplus(pred), mul(pred, Tensor(targets))))


class Task(NamedTuple):
    loss: Callable[[Tensor, np.ndarray], Tensor]  # of (readout, targets)
    metric: Callable[[np.ndarray, np.ndarray], float]  # of (predictions, targets)
    label_rank: int  # of the node labels read: 1 a class per node, 2 (N, L), 0 none


TASKS = {
    "node-class": Task(cross_entropy_logits, metrics_mod.accuracy, 1),
    "multi-label": Task(bce_with_logits, metrics_mod.micro_f1, 2),
    "link-pred": Task(bce_with_logits, lambda scores, targets: metrics_mod.mrr(
        scores[targets == 1], scores[targets == 0]), 0),
}


def loss(task: str, predictions: np.ndarray, labels) -> float:
    """Task loss value for evaluation; non-finite predictions raise
    ``TrainingDivergedError``."""
    if not np.all(np.isfinite(predictions)):
        raise TrainingDivergedError("non-finite model output")
    return TASKS[task].loss(Tensor(predictions), labels).item()


# -- model assembly -----------------------------------------------------------


class Model:
    def __init__(self, layers: list[_AttentionLayer]):
        self.layers = layers

    def forward(self, graph: Graph, *, training: bool = False,
                rng: np.random.Generator | None = None) -> Tensor:
        for name, tensor in self.params().items():
            if not np.isfinite(tensor.data).all():
                raise TrainingDivergedError(f"non-finite parameter {name!r}")
        t = Tensor(graph.features)
        for layer in self.layers:
            t = layer.forward(graph, t, training=training, rng=rng)
        return t

    def params(self) -> dict[str, Tensor]:
        named = {}
        for i, layer in enumerate(self.layers):
            for key, tensor in layer.params().items():
                named[f"layer{i}.{key}"] = tensor
        return named

    def zero_grad(self) -> None:
        for tensor in self.params().values():
            tensor.zero_grad()

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.params().items()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        own = self.params()
        if set(own) != set(state):
            raise ValueError("checkpoint parameter names do not match the model")
        for name, tensor in own.items():
            value = np.array(state[name], dtype=np.float64)
            if value.shape != tensor.shape:
                raise ValueError(f"checkpoint parameter {name!r} has shape {value.shape}, "
                                 f"the model expects {tensor.shape}")
            tensor.data = value


def build_model(cfg: TrainConfig, in_dim: int, out_dim: int) -> Model:
    """Stack one attention layer per entry of ``cfg.heads_per_layer``, each
    scored by ``cfg.model``: hidden layers concatenate their heads and apply
    ELU, and the output layer averages its heads and applies no activation."""
    cfg.validate()
    rng = stream_rng(cfg.seed, "init")
    n_layers = len(cfg.heads_per_layer)
    layers: list[_AttentionLayer] = []
    dim = in_dim
    for i in range(n_layers):
        last = i == n_layers - 1
        layer = _AttentionLayer(cfg.model, dim, out_dim if last else cfg.hidden_dims[i],
                                cfg.heads_per_layer[i], output=last,
                                dropout=cfg.dropout, rng=rng, n_qubits=cfg.n_qubits,
                                entangling_layers=cfg.entangling_layers)
        layers.append(layer)
        dim = layer.out_dim
    return Model(layers)


def infer_dims(data: Graph | LinkSplit, cfg: TrainConfig) -> tuple[int, int]:
    rank = TASKS[cfg.task].label_rank
    if not rank:
        if not isinstance(data, LinkSplit):
            raise ValueError("task link-pred trains on held-out edges: run it with `qgat linkpred`")
        return data.train_graph.feature_dim, cfg.hidden_dims[len(cfg.heads_per_layer) - 1]
    if not isinstance(data, Graph):
        raise ValueError(f"task {cfg.task} expects a Graph")
    if data.labels is None or data.masks is None:
        raise ValueError(f"task {cfg.task} needs node labels and train/val/test masks")
    if data.labels.ndim != rank:
        wanted = ("one class per node", "an (N, L) label matrix")[rank - 1]
        raise ValueError(f"task {cfg.task} needs {wanted}, but the graph's labels "
                         f"have shape {data.labels.shape}")
    return data.feature_dim, int(data.labels.max()) + 1 if rank == 1 else data.labels.shape[1]


M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3  # glibc mallopt parameters


def _keep_freed_pages() -> None:
    """Fix the allocator's thresholds through ``mallopt``; nothing where it is missing."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # blocks below 32 MiB come from the heap, and up to 256 MiB of free heap
    # top stays mapped, so the pages a backward frees serve the next forward
    mallopt(M_MMAP_THRESHOLD, 32 << 20)
    mallopt(M_TRIM_THRESHOLD, 256 << 20)


def one_blas_thread() -> str:
    """Pin the OpenBLAS that numpy's wheel bundles (scipy-openblas) to one
    thread through ctypes and describe it as "<its config>, <threads>
    thread(s)"; "unknown", pinning nothing, where that library is missing.

    Split over threads, a product whose inner dimension is a row count (the
    circuit backward's ``encoded.T @ lam``, ``matmul``'s ``x.T @ g``) rounds
    differently, so a QGAT run's last bits would depend on the core count.
    """
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
            set_threads = lib.scipy_openblas_set_num_threads64_
            get_threads = lib.scipy_openblas_get_num_threads64_
            config = lib.scipy_openblas_get_config64_
        except (AttributeError, OSError):
            continue
        set_threads.argtypes, set_threads.restype = (ctypes.c_int,), None
        get_threads.argtypes, get_threads.restype = (), ctypes.c_int
        config.argtypes, config.restype = (), ctypes.c_char_p
        set_threads(1)
        return f"{config().decode()}, {get_threads()} thread(s)"
    return "unknown"


# -- loop internals ------------------------------------------------------------


Selection = Segments | tuple[Segments, Segments]
View = tuple[Graph, Selection, np.ndarray]
Scored = dict[str, tuple[np.ndarray, np.ndarray]]  # split -> (predictions, targets)


@dataclass(frozen=True)
class Views:
    """``split_views``' output: the (graph, selection, targets) a training step
    reads, and the one graph evaluation reads with each split's (selection,
    targets) on it."""

    step: View
    graph: Graph
    splits: dict[str, tuple[Selection, np.ndarray]]


def split_views(data: TrainData, task: str) -> Views:
    """The training step's view and each non-empty split's selection and targets.

    A graph selects its masked node ids, and its train split is the step's
    view.  Unions select the masked node ids of ``whole``, and the step reads
    every node of ``step``.  Link prediction selects (P, 2) pairs of the
    training graph, positives (target 1.0) then negatives (0.0), as one
    ``Segments`` per column, and its train split is the step's view.  An
    empty train split raises ``ValueError``.
    """
    splits = {}
    if task == "link-pred":
        graph = data.train_graph
        for name, split in data.splits.items():
            n_pos, n_neg = split.positives.shape[0], split.negatives.shape[0]
            if n_pos:
                pairs = np.concatenate([split.positives, split.negatives], axis=0)
                splits[name] = (tuple(Segments(ends, graph.n_nodes) for ends in pairs.T),
                                np.concatenate([np.ones(n_pos), np.zeros(n_neg)]))
    else:
        graph = data.whole if isinstance(data, Unions) else data
        for name, mask in (graph.masks or {}).items():
            idx = np.flatnonzero(mask)
            if idx.size:
                splits[name] = (Segments(idx, graph.n_nodes), graph.labels[idx])
    if "train" not in splits:
        raise ValueError(f"the 'train' split is empty: task {task} has nothing to fit")
    if isinstance(data, Unions):
        step = data.step
        return Views((step, Segments(np.arange(step.n_nodes), step.n_nodes), step.labels),
                     graph, splits)
    return Views((graph, *splits["train"]), graph, splits)


def readout(out: Tensor, select: Selection) -> Tensor:
    """Rows of ``out`` for a node selection; <out_u, out_v> for each (u, v) of a pair one."""
    if isinstance(select, Segments):
        return take_rows(out, select)
    return pair_dot(out, *select)


def training_step(model: Model, view: View, cfg: TrainConfig,
                  opt: AdamWState, lr: float,
                  rng: np.random.Generator) -> float:
    """One full-batch gradient step on the step's view; returns the training loss."""
    model.zero_grad()
    graph, select, targets = view
    out = model.forward(graph, training=True, rng=rng)
    value = TASKS[cfg.task].loss(readout(out, select), targets)
    if not np.isfinite(value.item()):
        raise TrainingDivergedError("training loss diverged")
    value.backward()
    tensors = model.params()
    grads = {name: (t.grad if t.grad is not None else np.zeros_like(t.data))
             for name, t in tensors.items()}
    adamw_step({name: t.data for name, t in tensors.items()}, grads, opt, lr,
               weight_decay=cfg.weight_decay)
    return value.item()


def evaluate(model: Model, views: Views, task: str
             ) -> tuple[dict[str, float], dict[str, float], Scored]:
    """Per-split losses, task metrics and the (predictions, targets) they score,
    from one forward over ``views.graph`` without dropout.  The parameters'
    flags are cleared meanwhile, so no op records a tape."""
    params = [t for t in model.params().values() if t.requires_grad]
    try:
        for t in params:
            t.requires_grad = False
        out = model.forward(views.graph)
        scored = {name: (readout(out, select).data, targets)
                  for name, (select, targets) in views.splits.items()}
    finally:
        for t in params:
            t.requires_grad = True
    losses = {name: loss(task, *pair) for name, pair in scored.items()}
    metrics = {name: TASKS[task].metric(*pair) for name, pair in scored.items()}
    return losses, metrics, scored


@dataclass
class TrainResult:
    history: list[MetricsRecord]
    best_state: dict[str, np.ndarray]
    best_epoch: int
    val_metric: float
    test_metric: float
    predictions: Scored  # evaluate's, at the best epoch


def train(model: Model, data: TrainData, cfg: TrainConfig) -> TrainResult:
    """Early-stopped training: ``split_views`` once, then ``training_step`` on the
    step's view and ``evaluate`` of every split once per epoch.

    Epoch 0 records the initial-weights evaluation; ``epochs=0`` therefore
    returns that evaluation alone.  The monitored split is "val" when
    evaluation reports one, else "train".  The reported test metric and the
    kept predictions are those of the best-monitored epoch.
    """
    cfg.validate()
    _keep_freed_pages()
    one_blas_thread()
    views = split_views(data, cfg.task)
    drop_rng = stream_rng(cfg.seed, "dropout")
    opt = AdamWState()
    history: list[MetricsRecord] = []
    best_epoch = 0
    best_state = model.state_dict()
    stale = 0

    def run_epoch(epoch: int, lr_now: float) -> tuple[MetricsRecord, Scored]:
        t0 = time.perf_counter()
        try:
            if epoch:
                training_step(model, views.step, cfg, opt, lr_now, drop_rng)
            losses, scores, scored = evaluate(model, views, cfg.task)
        except TrainingDivergedError as exc:
            raise TrainingDivergedError(f"{exc} (epoch {epoch})") from None
        rec = MetricsRecord(epoch, losses, scores, lr_now, time.perf_counter() - t0)
        history.append(rec)
        return rec, scored

    def goodness(rec: MetricsRecord) -> tuple[float, float]:
        # metric first; loss breaks ties once the metric saturates
        return rec.metrics.get(monitor, -np.inf), -rec.losses.get(monitor, np.inf)

    rec, best_scored = run_epoch(0, cfg.learning_rate)
    # monitor validation when present; fall back to train (e.g. 0-fraction splits)
    monitor = "val" if "val" in rec.metrics else "train"
    best = goodness(rec)

    for epoch in range(1, cfg.epochs + 1):
        rec, scored = run_epoch(epoch, cosine_lr(epoch - 1, max(cfg.epochs, 1), cfg.learning_rate))
        if goodness(rec) > best:
            best, best_epoch, stale = goodness(rec), epoch, 0
            best_state, best_scored = model.state_dict(), scored
        else:
            stale += 1
            if stale > cfg.patience:
                break

    model.load_state_dict(best_state)
    best_rec = history[best_epoch]
    return TrainResult(
        history=history,
        best_state=best_state,
        best_epoch=best_epoch,
        val_metric=best_rec.metrics.get("val", float("nan")),
        test_metric=best_rec.metrics.get("test", float("nan")),
        predictions=best_scored,
    )


def run_training(data: Graph | LinkSplit, cfg: TrainConfig) -> tuple[Model, TrainResult]:
    in_dim, out_dim = infer_dims(data, cfg)
    model = build_model(cfg, in_dim, out_dim)
    return model, train(model, data, cfg)


# -- persistence ----------------------------------------------------------------


def save_checkpoint(path, cfg: TrainConfig, state: dict[str, np.ndarray]) -> None:
    payload = {
        "version": 1,
        "config": asdict(cfg),
        "weights": {name: arr.tolist() for name, arr in state.items()},
        "shapes": {name: list(arr.shape) for name, arr in state.items()},
    }
    with atomic_write(path) as fh:
        json.dump(payload, fh)


def load_checkpoint(path) -> tuple[TrainConfig, dict[str, np.ndarray]]:
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("version") != 1:
        raise ValueError(f"unsupported checkpoint version {payload.get('version')!r}")
    unknown = sorted(set(payload["config"]) - {f.name for f in fields(TrainConfig)})
    if unknown:
        raise ValueError(f"checkpoint config has unknown keys {unknown}")
    cfg = TrainConfig(**payload["config"])
    cfg.validate()
    shapes = payload.get("shapes", {})
    missing = sorted(set(payload["weights"]) - set(shapes))
    if missing:
        raise ValueError(f"checkpoint has no shape for parameters {missing}")
    state = {
        name: np.asarray(values, dtype=np.float64).reshape(shapes[name])
        for name, values in payload["weights"].items()
    }
    return cfg, state


def write_history_csv(history: list[MetricsRecord], path) -> None:
    """Long-format history: one row per (epoch, split)."""
    with atomic_write(path) as fh:
        fh.write("epoch,split,loss,metric,lr,seconds\n")
        for rec in history:
            for split in sorted(rec.losses):
                fh.write(
                    f"{rec.epoch},{split},{rec.losses[split]!r},"
                    f"{rec.metrics.get(split, float('nan'))!r},{rec.lr!r},{rec.seconds:.6f}\n"
                )
