"""Seeded benchmark inputs and the three workloads built on them.

The generators here belong to the benchmark, not to ``qgat``: the package's
own ``synth_sbm`` / ``synth_collection`` may change without changing what
the benchmark measures.  Every generator draws from one
``np.random.Generator`` made from the workload seed, so a seed fixes the
inputs byte for byte.  Generation is not timed; ``setup`` (turning raw
arrays into ``Graph`` / ``LinkSplit`` / ``GraphCollection`` objects,
building the model, computing attention edges and one warm-up forward) is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from qgat import graph as graph_mod
from qgat import inductive, training
from qgat.training import TrainConfig


@dataclass
class RawGraph:
    """Plain arrays for one graph: undirected pairs (u < v), no objects yet."""

    features: np.ndarray
    pairs: np.ndarray
    labels: np.ndarray | None = None
    masks: dict[str, np.ndarray] | None = None


# -- generators ----------------------------------------------------------------


def sbm_pairs(rng: np.random.Generator, block: np.ndarray, p_in: float,
              p_out: float) -> np.ndarray:
    """Undirected SBM edges: each pair u < v kept with p_in inside a block, else p_out."""
    iu, ju = np.triu_indices(block.shape[0], k=1)
    probs = np.where(block[iu] == block[ju], p_in, p_out)
    keep = rng.random(iu.shape[0]) < probs
    return np.stack([iu[keep], ju[keep]], axis=1)


def chung_lu_pairs(rng: np.random.Generator, n: int, exponent: float,
                   min_weight: float) -> np.ndarray:
    """Chung-Lu graph: pair (u, v) kept with min(1, w_u w_v / sum w).

    Expected degrees follow w_i = min_weight * (n / (i + 1))^(1 / (exponent - 1)),
    a power law with the given exponent.  Rows are drawn one at a time so
    memory stays O(n) rather than O(n^2).
    """
    w = min_weight * (n / np.arange(1, n + 1)) ** (1.0 / (exponent - 1.0))
    total = w.sum()
    chunks = []
    for u in range(n - 1):
        v = np.arange(u + 1, n)
        keep = rng.random(v.shape[0]) < np.minimum(1.0, w[u] * w[v] / total)
        chunks.append(np.stack([np.full(int(keep.sum()), u), v[keep]], axis=1))
    return np.concatenate(chunks, axis=0)


def class_features(rng: np.random.Generator, bits: np.ndarray, d: int,
                   noise: float = 0.25) -> np.ndarray:
    """Features as the sum of each active label's basis direction plus Gaussian noise."""
    directions = np.eye(bits.shape[1], d)
    return bits @ directions + noise * rng.standard_normal((bits.shape[0], d))


def split_masks(rng: np.random.Generator, n: int) -> dict[str, np.ndarray]:
    order = rng.permutation(n)
    n_train, n_val = int(0.6 * n), int(0.2 * n)
    masks = {k: np.zeros(n, dtype=bool) for k in ("train", "val", "test")}
    masks["train"][order[:n_train]] = True
    masks["val"][order[n_train:n_train + n_val]] = True
    masks["test"][order[n_train + n_val:]] = True
    return masks


def make_sbm(rng: np.random.Generator, n_per_block: int, n_blocks: int, p_in: float,
             p_out: float, d: int) -> RawGraph:
    """Node-classification SBM: label = block, 60/20/20 node split."""
    labels = np.repeat(np.arange(n_blocks), n_per_block)
    pairs = sbm_pairs(rng, labels, p_in, p_out)
    onehot = np.eye(n_blocks)[labels]
    return RawGraph(class_features(rng, onehot, d), pairs, labels,
                    split_masks(rng, labels.shape[0]))


def make_multilabel_sbm(rng: np.random.Generator, n_per_block: int, n_blocks: int,
                        p_in: float, p_out: float, d: int,
                        density: float = 0.2) -> RawGraph:
    """Multi-label SBM: a node's block bit is always on, the others fire with ``density``."""
    block = np.repeat(np.arange(n_blocks), n_per_block)
    pairs = sbm_pairs(rng, block, p_in, p_out)
    bits = (rng.random((block.shape[0], n_blocks)) < density).astype(np.int64)
    bits[np.arange(block.shape[0]), block] = 1
    return RawGraph(class_features(rng, bits, d), pairs, bits)


def make_power_law(rng: np.random.Generator, n: int, exponent: float, min_weight: float,
                   d: int) -> RawGraph:
    """Heavy-tailed graph for link prediction; features carry no label signal."""
    pairs = chung_lu_pairs(rng, n, exponent, min_weight)
    return RawGraph(rng.standard_normal((n, d)), pairs)


# -- workloads -----------------------------------------------------------------


@dataclass
class Prepared:
    """What ``setup`` hands to the timed loop."""

    data: object
    model: training.Model
    cfg: TrainConfig
    attention_edges: int
    in_degrees: np.ndarray


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[[int], list[RawGraph]]
    setup: Callable[[list[RawGraph], int], Prepared]
    # the public entry point under test: training.train or inductive.train_inductive
    train: Callable[[training.Model, object, TrainConfig], training.TrainResult]


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, sum(workload.encode())])


def _config(epochs: int, **overrides) -> TrainConfig:
    # patience >= epochs: early stopping must never shorten a timed run
    return TrainConfig(epochs=epochs, patience=epochs, seed=0, **overrides)


def _to_graph(raw: RawGraph) -> graph_mod.Graph:
    return graph_mod.Graph(raw.features, raw.pairs, labels=raw.labels,
                           masks=None if raw.masks is None
                           else {k: v.copy() for k, v in raw.masks.items()},
                           undirected=True)


def _finish(data, g: graph_mod.Graph, cfg: TrainConfig, in_dim: int, out_dim: int,
            edges: int, in_degrees: np.ndarray) -> Prepared:
    model = training.build_model(cfg, in_dim, out_dim)
    model.forward(g)
    return Prepared(data, model, cfg, edges, in_degrees)


def _in_degrees(graphs: list[graph_mod.Graph]) -> tuple[int, np.ndarray]:
    degrees = []
    for g in graphs:
        _, dst = g.attention_edges()
        degrees.append(np.bincount(dst, minlength=g.n_nodes))
    deg = np.concatenate(degrees)
    return int(deg.sum()), deg


SBM300_EPOCHS = 3


def _sbm300_inputs(seed: int) -> list[RawGraph]:
    return [make_sbm(_rng(seed, "qgat-sbm300"), 150, 2, 0.3, 0.02, 8)]


def _sbm300_setup(raw: list[RawGraph], seed: int) -> Prepared:
    g = _to_graph(raw[0])
    cfg = _config(SBM300_EPOCHS, model="qgat", task="node-class")
    edges, deg = _in_degrees([g])
    return _finish(g, g, cfg, g.feature_dim, int(g.labels.max()) + 1, edges, deg)


INDUCTIVE_EPOCHS = 4
INDUCTIVE_SPLITS = ["train"] * 16 + ["val"] * 4 + ["test"] * 4


def _inductive_inputs(seed: int) -> list[RawGraph]:
    rng = _rng(seed, "qgat-inductive")
    return [make_multilabel_sbm(rng, 20, 3, 0.3, 0.02, 8) for _ in INDUCTIVE_SPLITS]


def _inductive_setup(raw: list[RawGraph], seed: int) -> Prepared:
    graphs = [_to_graph(r) for r in raw]
    collection = inductive.GraphCollection(graphs, list(INDUCTIVE_SPLITS))
    cfg = _config(INDUCTIVE_EPOCHS, model="qgat", task="multi-label")
    edges, deg = _in_degrees(graphs)
    union, _ = inductive.batch_graphs(collection.by_split("train"))
    return _finish(collection, union, cfg, union.feature_dim, union.labels.shape[1],
                   edges, deg)


LINKPRED_EPOCHS = 3


def _linkpred_inputs(seed: int) -> list[RawGraph]:
    return [make_power_law(_rng(seed, "gat-linkpred-pl4k"), 4000, 2.5, 2.75, 8)]


def _linkpred_setup(raw: list[RawGraph], seed: int) -> Prepared:
    g = _to_graph(raw[0])
    # looked up on the module at call time so the traced run sees the call
    split = graph_mod.split_link_prediction(g, 0.1, 0.2, 1, seed)
    cfg = _config(LINKPRED_EPOCHS, model="gat", task="link-pred", hidden_dims=[8, 8, 8])
    edges, deg = _in_degrees([split.train_graph])
    return _finish(split, split.train_graph, cfg, g.feature_dim,
                   cfg.hidden_dims[len(cfg.heads_per_layer) - 1], edges, deg)


# why each workload exists is recorded once, in BENCHMARK.json
WORKLOADS = {
    w.name: w
    for w in (
        Workload("qgat-sbm300", _sbm300_inputs, _sbm300_setup, training.train),
        Workload("qgat-inductive", _inductive_inputs, _inductive_setup,
                 inductive.train_inductive),
        Workload("gat-linkpred-pl4k", _linkpred_inputs, _linkpred_setup, training.train),
    )
}
