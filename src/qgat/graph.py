"""Graph data model, loaders, synthetic generators, and noise injection.

Edges are stored as a canonical directed (E, 2) array: validated, deduped,
sorted by (src, dst), self-loops stripped (attention layers re-add one
self-loop per node).  Undirected inputs are expanded to both directions.
Graphs are immutable after construction; every transformation returns a
new Graph.  ``features``, ``edges``, ``labels`` and ``masks`` are plain
attributes.

Every edge set is built on one primitive: a pair (a, b) of node ids is the
int64 key ``a * n_nodes + b``, so sorting keys sorts pairs by (a, b), equal
neighbours in a sorted key array are repeated pairs, and ``divmod(key,
n_nodes)`` gives the pair back.  Keys stay below 2**63 for up to about
3e9 nodes.  ``edges`` is the decoded sorted unique keys (src, dst);
``undirected_pairs()`` (keys (lo, hi)) and ``attention_edges()`` (keys
(dst, src), self-loops added) are built once per graph and returned
read-only.  Features are finite.  Each file format is an entry of
``LOADERS``, each noise kind one of ``NOISE``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .autodiff import Segments
from .files import atomic_write


class GraphFormatError(ValueError):
    """Raised on malformed graph files, with file/line context in the message."""


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    """``keys`` sorted in place, each repeated key kept once."""
    keys.sort()
    keep = np.empty(len(keys), dtype=bool)
    keep[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


def _pair_rows(keys: np.ndarray, n: int) -> np.ndarray:
    """The (E, 2) int64 rows (a, b) of the pair keys ``a * n + b``."""
    rows = np.empty((len(keys), 2), dtype=np.int64)
    np.divmod(keys, n, out=(rows[:, 0], rows[:, 1]))
    return rows


class Graph:
    def __init__(self, features: np.ndarray, edges: np.ndarray,
                 labels: np.ndarray | None = None,
                 masks: dict[str, np.ndarray] | None = None,
                 undirected: bool = False):
        self.features = np.ascontiguousarray(features, dtype=np.float64)
        if self.features.ndim != 2:
            raise ValueError("feature matrix must be 2-D (nodes x dims)")
        if not np.isfinite(self.features).all():
            raise ValueError("features contain non-finite entries")
        self.n_nodes = self.features.shape[0]
        self.edges = self._canonicalize(np.asarray(edges, dtype=np.int64).reshape(-1, 2),
                                        undirected)
        self.labels = None if labels is None else np.asarray(labels)
        if self.labels is not None and self.labels.shape[0] != self.n_nodes:
            raise ValueError("label count does not match node count")
        self.masks = masks
        if masks is not None:
            self._check_masks(masks)
        self._pairs: np.ndarray | None = None
        self._loop_edges: tuple[np.ndarray, np.ndarray] | None = None
        self._loop_segments: tuple[Segments, Segments] | None = None

    def _canonicalize(self, edges: np.ndarray, undirected: bool) -> np.ndarray:
        """Validated (E, 2) int64 edges without self-loops or repeats, sorted by
        (src, dst): the sorted unique keys ``src * n + dst`` of every edge and,
        when ``undirected``, of its reverse, decoded."""
        n = self.n_nodes
        if edges.size and (edges.min() < 0 or edges.max() >= n):
            bad = edges[((edges < 0) | (edges >= n)).any(axis=1)][0]
            raise ValueError(
                f"edge ({bad[0]}, {bad[1]}) references a node outside 0..{n - 1}"
            )
        src, dst = edges[:, 0], edges[:, 1]
        off = src != dst
        src, dst = src[off], dst[off]
        keys = src * n + dst
        if undirected:
            keys = np.concatenate([keys, dst * n + src])
        return _pair_rows(_sorted_unique(keys), n)

    def _check_masks(self, masks: dict[str, np.ndarray]) -> None:
        unknown = sorted(set(masks) - {"train", "val", "test"})
        if unknown:
            raise ValueError(f"unknown masks {unknown}: only train, val and test are allowed")
        total = np.zeros(self.n_nodes, dtype=np.int64)
        for name in ("train", "val", "test"):
            if name not in masks:
                raise ValueError(f"missing mask {name!r}")
            masks[name] = np.asarray(masks[name], dtype=bool)
            if masks[name].shape != (self.n_nodes,):
                raise ValueError(f"mask {name!r} has wrong length")
            total += masks[name]
        if total.max() > 1:
            raise ValueError("train/val/test masks overlap")

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def undirected_pairs(self) -> np.ndarray:
        """Unordered node pairs (u < v) with at least one direction present,
        sorted by (u, v): the sorted unique keys ``u * n + v``, decoded.  Built
        once per graph and returned read-only."""
        if self._pairs is None:
            src, dst = self.edges[:, 0], self.edges[:, 1]
            keys = np.minimum(src, dst) * self.n_nodes + np.maximum(src, dst)
            self._pairs = _pair_rows(_sorted_unique(keys), self.n_nodes)
            self._pairs.setflags(write=False)
        return self._pairs

    def attention_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """(src, dst) arrays including one self-loop per node, sorted by (dst, src).

        Sorting fixes a canonical per-destination ordering so that layers see
        identical segment contents regardless of input edge order.  The keys
        ``dst * n + src`` are distinct (``edges`` holds no repeat and no
        self-loop), so one sort of them orders the edges and ``divmod`` splits
        them into dst and src.  Built once per graph and returned read-only.
        """
        if self._loop_edges is None:
            n = self.n_nodes
            loops = np.arange(n, dtype=np.int64) * (n + 1)
            keys = np.concatenate([self.edges[:, 1] * n + self.edges[:, 0], loops])
            keys.sort()
            dst, src = np.divmod(keys, n)
            src.setflags(write=False)
            dst.setflags(write=False)
            self._loop_edges = (src, dst)
        return self._loop_edges

    def attention_segments(self) -> tuple[Segments, Segments]:
        """Reduce layouts of ``attention_edges()``'s (src, dst), built once per graph."""
        if self._loop_segments is None:
            src, dst = self.attention_edges()
            self._loop_segments = (Segments(src, self.n_nodes), Segments(dst, self.n_nodes))
        return self._loop_segments

    def replace(self, *, features: np.ndarray | None = None,
                edges: np.ndarray | None = None) -> "Graph":
        return Graph(
            self.features.copy() if features is None else features,
            self.edges.copy() if edges is None else edges,
            labels=None if self.labels is None else self.labels.copy(),
            masks=None if self.masks is None else {k: v.copy() for k, v in self.masks.items()},
        )


# -- file loading ---------------------------------------------------------


def _read_text(path: Path) -> list[str]:
    try:
        raw = path.read_bytes()
        return raw.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise GraphFormatError(f"{path}: not valid UTF-8 ({exc})") from None


def _load_csv_bundle(directory: Path) -> Graph:
    feat_path = directory / "features.csv"
    edge_path = directory / "edges.txt"
    for p in (feat_path, edge_path):
        if not p.exists():
            raise GraphFormatError(f"missing file {p}")

    lines = [(no, ln) for no, ln in enumerate(_read_text(feat_path), start=1) if ln.strip()]
    if not lines:
        raise GraphFormatError(f"{feat_path}: empty file")
    header = [h.strip() for h in lines[0][1].split(",")]
    label_col = header.index("label") if "label" in header else None
    rows, labels = [], []
    for lineno, line in lines[1:]:
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != len(header):
            raise GraphFormatError(
                f"{feat_path}:{lineno}: expected {len(header)} columns, got {len(cells)}"
            )
        try:
            values = [float(c) for i, c in enumerate(cells) if i != label_col]
            if not np.isfinite(values).all():
                raise ValueError("features contain non-finite entries")
            if label_col is not None:
                labels.append(int(cells[label_col]))
        except ValueError as exc:
            raise GraphFormatError(f"{feat_path}:{lineno}: {exc}") from None
        rows.append(values)

    features = np.asarray(rows, dtype=np.float64)
    n = features.shape[0]
    edges = []
    for lineno, line in enumerate(_read_text(edge_path), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        parts = stripped.split()
        if len(parts) != 2:
            raise GraphFormatError(f"{edge_path}:{lineno}: expected 'src dst', got {line!r}")
        try:
            s, d = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"{edge_path}:{lineno}: non-integer endpoint in {line!r}") from None
        if not (0 <= s < n and 0 <= d < n):
            raise GraphFormatError(
                f"{edge_path}: edge line {lineno} ({s} {d}) references a node outside 0..{n - 1}"
            )
        edges.append((s, d))
    return Graph(features,
                 np.asarray(edges, dtype=np.int64).reshape(-1, 2),
                 labels=np.asarray(labels, dtype=np.int64) if labels else None,
                 undirected=True)


def _load_json_bundle(path: Path) -> Graph:
    try:
        payload = json.loads("\n".join(_read_text(path)))
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    for key in ("features", "edges"):
        if key not in payload:
            raise GraphFormatError(f"{path}: missing required key {key!r}")
    features = np.asarray(payload["features"], dtype=np.float64)
    if features.ndim != 2:
        raise GraphFormatError(f"{path}: 'features' must be a list of equal-length rows")
    edges = np.asarray(payload["edges"], dtype=np.int64).reshape(-1, 2)
    n = features.shape[0]
    if edges.size and (edges.min() < 0 or edges.max() >= n):
        bad_row = int(np.nonzero(((edges < 0) | (edges >= n)).any(axis=1))[0][0])
        raise GraphFormatError(
            f"{path}: edge entry {bad_row} = {edges[bad_row].tolist()} references a node outside 0..{n - 1}"
        )
    labels = payload.get("labels")
    masks = payload.get("masks")
    if masks is not None:
        masks = {k: np.asarray(v, dtype=bool) for k, v in masks.items()}
    try:
        return Graph(features, edges,
                     labels=None if labels is None else np.asarray(labels),
                     masks=masks,
                     undirected=not payload.get("directed", False))
    except ValueError as exc:
        raise GraphFormatError(f"{path}: {exc}") from None


LOADERS: dict[str, Callable[[Path], Graph]] = {"csv": _load_csv_bundle, "json": _load_json_bundle}


def load_graph(path: str | Path, format: str = "json") -> Graph:
    """Load a graph from disk with the ``format`` entry of ``LOADERS``.

    ``format='csv'``: ``path`` is a directory holding ``features.csv`` (header
    row; a column named ``label`` carries integer labels) and ``edges.txt``
    ('src dst' per line, '#' comments).  ``format='json'``: a single bundle
    with features, edges, optional labels/masks and a ``directed`` flag.
    Edge lists are treated as undirected unless the bundle says otherwise.
    """
    if format not in LOADERS:
        raise ValueError(f"unknown graph format {format!r}")
    return LOADERS[format](Path(path))


def save_graph_json(g: Graph, path: str | Path) -> None:
    payload = {
        "features": g.features.tolist(),
        "edges": g.edges.tolist(),
        "directed": True,
    }
    if g.labels is not None:
        payload["labels"] = g.labels.tolist()
    if g.masks is not None:
        payload["masks"] = {k: v.tolist() for k, v in g.masks.items()}
    with atomic_write(path) as fh:
        fh.write(json.dumps(payload))


def save_graph_csv(g: Graph, directory: str | Path) -> None:
    """Write ``features.csv`` and ``edges.txt`` into ``directory``, the bundle
    that ``load_graph(directory, format='csv')`` reads."""
    directory = Path(directory)
    with atomic_write(directory / "features.csv") as fh:
        cols = [f"f{i}" for i in range(g.feature_dim)]
        if g.labels is not None:
            cols.append("label")
        fh.write(",".join(cols) + "\n")
        for i in range(g.n_nodes):
            row = [repr(float(v)) for v in g.features[i]]
            if g.labels is not None:
                row.append(str(int(g.labels[i])))
            fh.write(",".join(row) + "\n")
    with atomic_write(directory / "edges.txt") as fh:
        for s, d in g.undirected_pairs():
            fh.write(f"{s} {d}\n")


# -- synthetic data -------------------------------------------------------


def random_split_masks(n: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """A seeded 60/20/20 train/val/test node split."""
    order = rng.permutation(n)
    n_train = int(round(0.6 * n))
    n_val = int(round(0.2 * n))
    masks = {k: np.zeros(n, dtype=bool) for k in ("train", "val", "test")}
    masks["train"][order[:n_train]] = True
    masks["val"][order[n_train:n_train + n_val]] = True
    masks["test"][order[n_train + n_val:]] = True
    return masks


# node pairs ``synth_sbm`` draws at once (whole rows, at least one)
SBM_BLOCK_PAIRS = 1 << 16
# the per-feature std of the synthetic features around their class mean
FEATURE_STD = 0.25


def synth_sbm(n_per_class: int, n_classes: int, p_in: float, p_out: float,
              d: int, class_sep: float, seed: int) -> Graph:
    """Stochastic block model with Gaussian class-mean features.

    Class c's feature mean is ``class_sep`` along basis direction c mod d;
    within-class spread is ``FEATURE_STD``.  Nodes get a deterministic
    60/20/20 train/val/test split.  Fully reproducible under ``seed``.
    """
    if not (0.0 <= p_out <= p_in <= 1.0):
        raise ValueError("need 0 <= p_out <= p_in <= 1")
    rng = np.random.default_rng(seed)
    n = n_per_class * n_classes
    labels = np.repeat(np.arange(n_classes), n_per_class)

    # the pairs i < j in row-major order, drawn in blocks of whole rows: one
    # rng.random(k) per block gives the doubles one draw over all pairs would
    blocks = [np.zeros((0, 2), dtype=np.int64)]
    row = 0
    while row < n - 1:
        stop = min(n - 1, row + max(1, SBM_BLOCK_PAIRS // (n - 1 - row)))
        rows = np.arange(row, stop)
        counts = n - 1 - rows
        iu = np.repeat(rows, counts)
        ju = iu + 1 + np.arange(len(iu)) - np.repeat(np.cumsum(counts) - counts, counts)
        keep = rng.random(len(iu)) < np.where(labels[iu] == labels[ju], p_in, p_out)
        blocks.append(np.stack([iu[keep], ju[keep]], axis=1))
        row = stop
    edges = np.concatenate(blocks)

    means = np.zeros((n_classes, d))
    for c in range(n_classes):
        means[c, c % d] = class_sep
    features = means[labels] + FEATURE_STD * rng.standard_normal((n, d))

    masks = random_split_masks(n, rng)
    return Graph(features, edges, labels=labels, masks=masks, undirected=True)


# -- noise protocols ------------------------------------------------------


def add_feature_noise(g: Graph, epsilon: float, seed: int) -> Graph:
    """Perturb features with epsilon-scaled standard Gaussian noise."""
    if epsilon < 0:
        raise ValueError("noise level must be >= 0")
    if epsilon == 0.0:
        return g.replace()
    rng = np.random.default_rng(seed)
    noisy = g.features + epsilon * rng.standard_normal(g.features.shape)
    return g.replace(features=noisy)


def _free_pairs(g: Graph, rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` distinct non-adjacent pairs (u < v), uniform without replacement.

    Draws ranks among the free pairs in row-major upper-triangle order and
    maps each rank to its pair past the sorted ranks of the taken pairs, so
    memory is linear in the edge count rather than quadratic in the nodes.
    """
    n = g.n_nodes
    rows = np.arange(n, dtype=np.int64)
    row_start = rows * (n - 1) - rows * (rows - 1) // 2  # rank of (u, u + 1)
    lo, hi = g.undirected_pairs().T
    taken = row_start[lo] + hi - lo - 1  # strictly increasing: the pairs are sorted and distinct
    n_free = n * (n - 1) // 2 - taken.size
    if size > n_free:
        raise ValueError(f"cannot draw {size} pairs: only {n_free} non-adjacent pairs remain")
    rank = rng.choice(n_free, size=size, replace=False)
    linear = rank + np.searchsorted(taken - np.arange(taken.size), rank, side="right")
    u = np.searchsorted(row_start, linear, side="right") - 1
    return np.stack([u, linear - row_start[u] + u + 1], axis=1)


def add_structural_noise(g: Graph, eta: float, seed: int) -> Graph:
    """Add floor(eta * E) random undirected edges between non-adjacent pairs."""
    if eta < 0:
        raise ValueError("noise ratio must be >= 0")
    n_new = int(np.floor(eta * g.undirected_pairs().shape[0]))
    if n_new == 0:
        return g.replace()
    chosen = _free_pairs(g, np.random.default_rng(seed), n_new)
    new_edges = np.concatenate([g.edges, chosen, chosen[:, ::-1]], axis=0)
    return g.replace(edges=new_edges)


class Noise(NamedTuple):
    perturb: Callable[[Graph, float, int], Graph]  # of (graph, level, seed)
    grid: tuple[float, ...]  # the protocol's levels


NOISE = {
    "feature": Noise(add_feature_noise, (0.0, 0.01, 0.05, 0.1, 0.2)),
    "structural": Noise(add_structural_noise, (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)),
}


# -- link prediction splits -------------------------------------------------


@dataclass
class EdgeSplit:
    """Positive/negative unordered node pairs for one evaluation split."""

    positives: np.ndarray  # (P, 2)
    negatives: np.ndarray  # (P * neg_ratio, 2)


@dataclass
class LinkSplit:
    train_graph: Graph
    splits: dict[str, EdgeSplit]


def split_link_prediction(g: Graph, frac_val: float, frac_test: float,
                          neg_ratio: int, seed: int) -> LinkSplit:
    """Hold out edges for link prediction and sample negatives per split.

    Val/test positives are removed from the message-passing graph; negatives
    are sampled uniformly without replacement from non-adjacent pairs and are
    disjoint across splits.
    """
    if frac_val < 0 or frac_test < 0 or frac_val + frac_test >= 1:
        raise ValueError("validation and test fractions must be >= 0 and sum below 1")
    pairs = g.undirected_pairs()
    n_pairs = pairs.shape[0]
    n_val = int(np.floor(frac_val * n_pairs))
    n_test = int(np.floor(frac_test * n_pairs))
    if n_pairs - n_val - n_test < 1:
        raise ValueError(f"only {n_pairs} edges: too few to split")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n_pairs)
    val_pos = pairs[order[:n_val]]
    test_pos = pairs[order[n_val:n_val + n_test]]
    train_pos = pairs[order[n_val + n_test:]]

    counts = {"train": train_pos.shape[0] * neg_ratio,
              "val": val_pos.shape[0] * neg_ratio,
              "test": test_pos.shape[0] * neg_ratio}
    picked = _free_pairs(g, rng, sum(counts.values()))
    neg = {}
    offset = 0
    for name in ("train", "val", "test"):
        neg[name] = picked[offset:offset + counts[name]]
        offset += counts[name]

    train_graph = Graph(
        g.features.copy(),
        np.concatenate([train_pos, train_pos[:, ::-1]], axis=0),
        labels=None if g.labels is None else g.labels.copy(),
        masks=None,
    )
    return LinkSplit(
        train_graph,
        {
            "train": EdgeSplit(train_pos, neg["train"]),
            "val": EdgeSplit(val_pos, neg["val"]),
            "test": EdgeSplit(test_pos, neg["test"]),
        },
    )
