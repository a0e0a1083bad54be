"""Losses, AdamW + cosine schedule, model assembly, and the training loop.

Training is full batch: one forward/backward over the whole graph per
epoch, evaluation on every split each epoch, early stopping on the
validation metric, and the test figure reported at the best-validation
checkpoint.  ``fit`` is the one early-stopping loop: ``train`` runs it on a
graph or link split, ``inductive.train_inductive`` on a union of training
graphs.  Everything is driven by explicit seeded generators so a
(seed, config) pair reproduces its metric history bit-exactly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields, asdict
from math import cos, pi
from typing import Callable

import json
import numpy as np

from . import metrics as metrics_mod
from .attention import ACTIVATIONS, GatLayer, Gatv2Layer, QgatLayer, _AttentionLayer
from .autodiff import Tensor, exp, log, mul, softplus, sub, take_rows, tmean, tsum
from .graph import Graph, LinkSplit

MODEL_KINDS = ("qgat", "gat", "gatv2")
TASKS = ("node-class", "multi-label", "link-pred")

_STREAMS = {"init": 0, "dropout": 1, "negatives": 2}


class TrainingDivergedError(RuntimeError):
    pass


def stream_rng(seed: int, stream: str) -> np.random.Generator:
    return np.random.default_rng([seed, _STREAMS[stream]])


@dataclass
class TrainConfig:
    learning_rate: float = 2e-3
    lr_min: float = 0.0
    weight_decay: float = 5e-4
    epochs: int = 200
    patience: int = 30
    hidden_dims: list[int] = field(default_factory=lambda: [8, 8, 8])
    heads_per_layer: list[int] = field(default_factory=lambda: [4, 4, 4])
    n_qubits: int = 4
    entangling_layers: int = 2
    dropout: float = 0.5
    merge: str = "concat"
    task: str = "node-class"
    seed: int = 0
    model: str = "qgat"
    activation: str = "elu"
    separate_value_weights: bool = False

    def validate(self) -> None:
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        if self.model not in MODEL_KINDS:
            raise ValueError(f"model must be one of {MODEL_KINDS}, got {self.model!r}")
        if self.task not in TASKS:
            raise ValueError(f"task must be one of {TASKS}, got {self.task!r}")
        n_layers = len(self.heads_per_layer)
        if n_layers < 1:
            raise ValueError("need at least one attention layer")
        needed = n_layers if self.task == "link-pred" else n_layers - 1
        if len(self.hidden_dims) < needed:
            raise ValueError(
                f"hidden_dims supplies {len(self.hidden_dims)} dims but "
                f"{needed} are needed for {n_layers} layers on task {self.task}"
            )
        if min(self.heads_per_layer) < 1 or min(self.hidden_dims[:needed], default=1) < 1:
            raise ValueError("head counts and hidden dims must be >= 1")
        if self.n_qubits < 1 or self.entangling_layers < 1:
            raise ValueError("n_qubits and entangling_layers must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must lie in [0, 1), got {self.dropout}")
        if self.merge not in ("concat", "mean"):
            raise ValueError(f"merge must be 'concat' or 'mean', got {self.merge!r}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {sorted(ACTIVATIONS)}, "
                             f"got {self.activation!r}")
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
               state: AdamWState, lr: float, weight_decay: float = 0.0,
               betas: tuple[float, float] = (0.9, 0.999),
               eps: float = 1e-8) -> dict[str, np.ndarray]:
    """One decoupled-weight-decay Adam update, in place, returning ``params``."""
    b1, b2 = betas
    state.step += 1
    t = state.step
    for name, p in params.items():
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise TrainingDivergedError(f"non-finite gradient in parameter {name!r}")
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
        p -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return params


def cosine_lr(step: int, total_steps: int, lr_max: float, lr_min: float = 0.0) -> float:
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    return lr_min + 0.5 * (lr_max - lr_min) * (1.0 + cos(pi * step / total_steps))


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


def edge_scores(embeddings: Tensor, pairs: np.ndarray) -> Tensor:
    """Inner-product decoder: score(u, v) = <emb_u, emb_v>."""
    u = take_rows(embeddings, pairs[:, 0])
    v = take_rows(embeddings, pairs[:, 1])
    return tsum(mul(u, v), axis=1)


def loss(task: str, predictions: np.ndarray, labels) -> float:
    """Task loss value for evaluation; records no tape.

    node-class: softmax cross-entropy against integer labels.
    multi-label: per-cell binary cross-entropy with logits.
    link-pred: binary cross-entropy on edge scores against 0/1 labels.
    Non-finite predictions raise ``TrainingDivergedError``.
    """
    if not np.all(np.isfinite(predictions)):
        raise TrainingDivergedError("non-finite model output")
    pred = Tensor(predictions)
    if task == "node-class":
        return cross_entropy_logits(pred, labels).item()
    if task in ("multi-label", "link-pred"):
        return bce_with_logits(pred, labels).item()
    raise ValueError(f"unknown task {task!r}")


# -- model assembly -----------------------------------------------------------


class Model:
    def __init__(self, layers: list[_AttentionLayer], task: str):
        self.layers = layers
        self.task = task

    def forward(self, graph: Graph, features=None, *, training: bool = False,
                rng: np.random.Generator | None = None) -> Tensor:
        x = features if features is not None else graph.features
        t = x if isinstance(x, Tensor) else Tensor(x)
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


def build_model(cfg: TrainConfig, in_dim: int, out_dim: int,
                rng: np.random.Generator | None = None) -> Model:
    """Stack attention layers per config: concat-merge hidden layers with the
    configured activation, then a mean-merge output layer without one."""
    cfg.validate()
    if rng is None:
        rng = stream_rng(cfg.seed, "init")
    n_layers = len(cfg.heads_per_layer)
    layers: list[_AttentionLayer] = []
    dim = in_dim
    for i in range(n_layers):
        last = i == n_layers - 1
        if last:
            head_dim = cfg.hidden_dims[i] if cfg.task == "link-pred" else out_dim
        else:
            head_dim = cfg.hidden_dims[i]
        common = dict(
            merge="mean" if last else cfg.merge,
            dropout=cfg.dropout,
            activation="identity" if last else cfg.activation,
            rng=rng,
        )
        if cfg.model == "qgat":
            layer = QgatLayer(dim, head_dim, cfg.heads_per_layer[i], cfg.n_qubits,
                              cfg.entangling_layers,
                              separate_value_weights=cfg.separate_value_weights,
                              **common)
        elif cfg.model == "gat":
            layer = GatLayer(dim, head_dim, cfg.heads_per_layer[i], **common)
        else:
            layer = Gatv2Layer(dim, head_dim, cfg.heads_per_layer[i], **common)
        layers.append(layer)
        dim = layer.out_dim
    return Model(layers, cfg.task)


def infer_dims(data: Graph | LinkSplit, cfg: TrainConfig) -> tuple[int, int]:
    if cfg.task == "link-pred":
        if not isinstance(data, LinkSplit):
            raise ValueError("link prediction training expects a LinkSplit")
        return data.train_graph.feature_dim, cfg.hidden_dims[len(cfg.heads_per_layer) - 1]
    if not isinstance(data, Graph):
        raise ValueError(f"task {cfg.task} expects a Graph")
    if data.labels is None:
        raise ValueError("graph has no labels")
    if cfg.task == "node-class":
        return data.feature_dim, int(data.labels.max()) + 1
    return data.feature_dim, data.labels.shape[1]


# -- loop internals ------------------------------------------------------------


def _node_loss(model: Model, graph: Graph, mask: np.ndarray, *, training: bool,
               rng=None) -> Tensor:
    out = model.forward(graph, training=training, rng=rng)
    idx = np.flatnonzero(mask)
    picked = take_rows(out, idx)
    if model.task == "node-class":
        return cross_entropy_logits(picked, graph.labels[idx])
    return bce_with_logits(picked, graph.labels[idx])


def _link_pairs(split) -> tuple[np.ndarray, np.ndarray]:
    pairs = np.concatenate([split.positives, split.negatives], axis=0)
    labels = np.concatenate([
        np.ones(split.positives.shape[0]),
        np.zeros(split.negatives.shape[0]),
    ])
    return pairs, labels


def _link_loss(model: Model, data: LinkSplit, split_name: str, *, training: bool,
               rng=None) -> Tensor:
    emb = model.forward(data.train_graph, training=training, rng=rng)
    pairs, labels = _link_pairs(data.splits[split_name])
    return bce_with_logits(edge_scores(emb, pairs), labels)


def training_step(model: Model, data: Graph | LinkSplit, cfg: TrainConfig,
                  opt: AdamWState, lr: float,
                  rng: np.random.Generator) -> float:
    """One full-batch gradient step; returns the training loss."""
    model.zero_grad()
    if cfg.task == "link-pred":
        value = _link_loss(model, data, "train", training=True, rng=rng)
    else:
        value = _node_loss(model, data, data.masks["train"], training=True, rng=rng)
    if not np.isfinite(value.item()):
        raise TrainingDivergedError("training loss diverged")
    value.backward()
    tensors = model.params()
    grads = {name: (t.grad if t.grad is not None else np.zeros_like(t.data))
             for name, t in tensors.items()}
    adamw_step({name: t.data for name, t in tensors.items()}, grads, opt, lr,
               weight_decay=cfg.weight_decay)
    return value.item()


def evaluate(model: Model, data: Graph | LinkSplit, cfg: TrainConfig
             ) -> tuple[dict[str, float], dict[str, float]]:
    """Per-split losses and task metrics in evaluation mode (no dropout)."""
    losses: dict[str, float] = {}
    task_scores: dict[str, float] = {}
    if cfg.task == "link-pred":
        emb = model.forward(data.train_graph).data
        for name, split in data.splits.items():
            if split.positives.shape[0] == 0:
                continue
            pairs, labels = _link_pairs(split)
            losses[name] = loss("link-pred", _score_pairs(emb, pairs), labels)
            task_scores[name] = metrics_mod.mrr(
                _score_pairs(emb, split.positives), _score_pairs(emb, split.negatives)
            )
        return losses, task_scores
    out = model.forward(data).data
    for name, mask in data.masks.items():
        idx = np.flatnonzero(mask)
        if idx.size == 0:
            continue
        losses[name] = loss(cfg.task, out[idx], data.labels[idx])
        task_scores[name] = metrics_mod.task_metric(cfg.task, out[idx], data.labels[idx])
    return losses, task_scores


def _score_pairs(emb: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    return np.sum(emb[pairs[:, 0]] * emb[pairs[:, 1]], axis=1)


def link_eval(model: Model, data: LinkSplit, k: int) -> dict[str, dict[str, float]]:
    """Hits@k and MRR per split from the current model state."""
    emb = model.forward(data.train_graph).data
    report: dict[str, dict[str, float]] = {}
    for name, split in data.splits.items():
        if split.positives.shape[0] == 0:
            continue
        pos = _score_pairs(emb, split.positives)
        neg = _score_pairs(emb, split.negatives)
        report[name] = {
            f"hits@{k}": metrics_mod.hits_at_k(pos, neg, k),
            "mrr": metrics_mod.mrr(pos, neg),
        }
    return report


@dataclass
class TrainResult:
    history: list[MetricsRecord]
    best_state: dict[str, np.ndarray]
    best_epoch: int
    val_metric: float
    test_metric: float


def fit(model: Model, cfg: TrainConfig, data: Graph | LinkSplit,
        evaluate_splits: Callable[[], tuple[dict[str, float], dict[str, float]]]
        ) -> TrainResult:
    """Early-stopped training: ``training_step`` on ``data`` once per epoch.

    ``evaluate_splits()`` returns (losses, metrics) keyed by split.  Epoch 0
    records the initial-weights evaluation; ``epochs=0`` therefore returns
    that evaluation alone.  The monitored split is "val" when evaluation
    reports one, else "train".  The reported test metric is the one
    observed at the best-monitored epoch.
    """
    cfg.validate()
    drop_rng = stream_rng(cfg.seed, "dropout")
    opt = AdamWState()
    history: list[MetricsRecord] = []
    best_epoch = 0
    best_state = model.state_dict()
    stale = 0

    def run_epoch(epoch: int, lr_now: float) -> MetricsRecord:
        t0 = time.perf_counter()
        try:
            if epoch:
                training_step(model, data, cfg, opt, lr_now, drop_rng)
            losses, scores = evaluate_splits()
        except TrainingDivergedError as exc:
            raise TrainingDivergedError(f"{exc} (epoch {epoch})") from None
        rec = MetricsRecord(epoch, losses, scores, lr_now, time.perf_counter() - t0)
        history.append(rec)
        return rec

    def goodness(rec: MetricsRecord) -> tuple[float, float]:
        # metric first; loss breaks ties once the metric saturates
        return rec.metrics.get(monitor, -np.inf), -rec.losses.get(monitor, np.inf)

    rec = run_epoch(0, cfg.learning_rate)
    # monitor validation when present; fall back to train (e.g. 0-fraction splits)
    monitor = "val" if "val" in rec.metrics else "train"
    best = goodness(rec)

    for epoch in range(1, cfg.epochs + 1):
        rec = run_epoch(epoch, cosine_lr(epoch - 1, max(cfg.epochs, 1), cfg.learning_rate, cfg.lr_min))
        if goodness(rec) > best:
            best, best_epoch, stale = goodness(rec), epoch, 0
            best_state = model.state_dict()
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
    )


def train(model: Model, data: Graph | LinkSplit, cfg: TrainConfig) -> TrainResult:
    """Full-batch training with early stopping on the validation metric."""
    return fit(model, cfg, data, lambda: evaluate(model, data, cfg))


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
    with open(path, "w") as fh:
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
    with open(path, "w") as fh:
        fh.write("epoch,split,loss,metric,lr,seconds\n")
        for rec in history:
            for split in sorted(rec.losses):
                fh.write(
                    f"{rec.epoch},{split},{rec.losses[split]!r},"
                    f"{rec.metrics.get(split, float('nan'))!r},{rec.lr!r},{rec.seconds:.6f}\n"
                )
