"""Inductive evaluation: train on some graphs, test on graphs never seen.

Graphs are combined by disjoint union with node-index offsets, which keeps
per-graph semantics exactly (attention never crosses graph boundaries) while
amortizing the forward pass.  ``_split_unions`` builds two unions once per
training run: the train graphs' union, the only graph a training step reads,
so val/test features are structurally unreachable during gradient
computation; and the union of every graph, whose masks mark each split's
nodes, so that ``training.train`` evaluates every split in one forward each
epoch.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .files import atomic_write
from .graph import Graph, load_graph, save_graph_json, synth_sbm
from .training import Model, TrainConfig, TrainResult, Unions, train

# perfbench's tracer patches these names on this module; nothing here calls them
from .training import evaluate as _split_eval, loss, training_step  # noqa: F401

SPLITS = ("train", "val", "test")


@dataclass
class GraphCollection:
    graphs: list[Graph]
    splits: list[str]

    def __post_init__(self) -> None:
        if len(self.graphs) != len(self.splits):
            raise ValueError("one split tag per graph required")
        for tag in self.splits:
            if tag not in SPLITS:
                raise ValueError(f"unknown split tag {tag!r}")

    def by_split(self, split: str) -> list[Graph]:
        return [g for g, tag in zip(self.graphs, self.splits) if tag == split]


def synth_collection(n_train: int, n_val: int, n_test: int, *,
                     n_per_class: int = 12, n_classes: int = 2,
                     p_in: float = 0.3, p_out: float = 0.02,
                     d: int = 8, class_sep: float = 1.0,
                     n_labels: int | None = None, label_density: float = 0.2,
                     seed: int = 0) -> GraphCollection:
    """Independent SBM draws per graph, one child seed each.

    With ``n_labels`` set, each node carries a multi-label bit vector: its
    block's bit is always on, others fire with ``label_density``; features
    are the sum of the active labels' class-mean directions plus noise, so
    the bits are recoverable from features.
    """
    if min(n_train, n_val, n_test) < 0 or n_train + n_val + n_test < 1:
        raise ValueError("graph counts must be non-negative and sum to >= 1")
    tags = ["train"] * n_train + ["val"] * n_val + ["test"] * n_test
    seeds = np.random.SeedSequence(seed).spawn(len(tags))
    graphs = []
    for child in seeds:
        child_seed = int(child.generate_state(1)[0])
        g = synth_sbm(n_per_class, n_classes, p_in, p_out, d, class_sep, child_seed)
        if n_labels is not None:
            g = _multilabelize(g, n_labels, class_sep, label_density,
                               np.random.default_rng(child_seed + 1))
        graphs.append(g)
    return GraphCollection(graphs, tags)


def _multilabelize(g: Graph, n_labels: int, class_sep: float, density: float,
                   rng: np.random.Generator) -> Graph:
    n = g.n_nodes
    d = g.feature_dim
    bits = (rng.random((n, n_labels)) < density).astype(np.int64)
    bits[np.arange(n), g.labels % n_labels] = 1
    directions = np.zeros((n_labels, d))
    for label in range(n_labels):
        directions[label, label % d] = class_sep
    features = bits @ directions + 0.25 * rng.standard_normal((n, d))
    masks = None if g.masks is None else {k: v.copy() for k, v in g.masks.items()}
    return Graph(features, g.edges.copy(), labels=bits, masks=masks)


def batch_graphs(graphs: list[Graph], splits: list[str] | None = None
                 ) -> tuple[Graph, list[np.ndarray]]:
    """Disjoint union with index offsets; returns (union, per-graph node ids).

    The union's masks mark each graph's nodes with its tag in ``splits``;
    without tags every node is a train node."""
    if not graphs:
        raise ValueError("cannot batch an empty graph list")
    feats, edges, labels, node_ids = [], [], [], []
    offset = 0
    for g in graphs:
        feats.append(g.features)
        if g.edges.size:
            edges.append(g.edges + offset)
        if g.labels is not None:
            labels.append(g.labels)
        node_ids.append(np.arange(offset, offset + g.n_nodes))
        offset += g.n_nodes
    masks = {split: np.zeros(offset, dtype=bool) for split in SPLITS}
    for ids, tag in zip(node_ids, splits or ["train"] * len(graphs), strict=True):
        masks[tag][ids] = True
    union = Graph(
        np.concatenate(feats, axis=0),
        np.concatenate(edges, axis=0) if edges else np.empty((0, 2), dtype=np.int64),
        labels=np.concatenate(labels, axis=0) if len(labels) == len(graphs) else None,
        masks=masks,
    )
    return union, node_ids


def _split_unions(collection: GraphCollection) -> Unions:
    """The train graphs' union, which the training step reads, and the union of
    every graph in collection order, whose masks mark each split's nodes."""
    for split in SPLITS:
        if split not in collection.splits:
            raise ValueError(f"collection has no {split!r} graphs")
    step, _ = batch_graphs(collection.by_split("train"))
    whole, _ = batch_graphs(collection.graphs, collection.splits)
    return Unions(step, whole)


def train_inductive(model: Model, collection: GraphCollection,
                    cfg: TrainConfig) -> TrainResult:
    """Early-stopped training on the train-graph union; val/test stay held out."""
    if cfg.task == "link-pred":
        raise ValueError("inductive harness covers node-level tasks only")
    return train(model, _split_unions(collection), cfg)


# -- manifests -----------------------------------------------------------------


def save_collection(collection: GraphCollection, directory: str | Path) -> Path:
    """Write member graphs as JSON bundles plus a manifest listing split tags."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    entries = []
    for i, (g, tag) in enumerate(zip(collection.graphs, collection.splits)):
        name = f"graph_{i:03d}.json"
        save_graph_json(g, directory / name)
        entries.append({"path": name, "split": tag})
    manifest = directory / "manifest.json"
    with atomic_write(manifest) as fh:
        fh.write(json.dumps({"graphs": entries}))
    return manifest


def load_collection(manifest_path: str | Path) -> GraphCollection:
    manifest_path = Path(manifest_path)
    payload = json.loads(manifest_path.read_text())
    graphs, tags = [], []
    for entry in payload["graphs"]:
        graphs.append(load_graph(manifest_path.parent / entry["path"], format="json"))
        tags.append(entry["split"])
    return GraphCollection(graphs, tags)
