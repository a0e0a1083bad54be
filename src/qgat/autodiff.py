"""Minimal reverse-mode autodiff over numpy arrays.

A ``Tensor`` is two objects: the value the forward code holds (``data``, a
float64 ndarray) and a small tape ``Node`` (``Tensor.node``) with the
gradient, the ``requires_grad`` flag, the parents' nodes, the VJP and the
creation number.  An op links its output's node to its inputs' *nodes*, and
its VJP captures, when the op is recorded, only the arrays or shapes it
reads -- never a Tensor.  So the tape holds no value that no VJP reads: an
intermediate whose Tensor the forward drops is freed there and then, not
when the backward reaches it.  ``Tensor.backward`` walks the nodes in
descending creation order and accumulates vector-Jacobian products into the
``grad`` of every reachable node with ``requires_grad`` set.  Ops never
mutate their inputs.

Three properties matter for callers:

* graph nodes are only recorded when some input requires a gradient; an
  evaluation forward clears the flags of the model's parameters
  (``training._predictions``), so it records no tape;
* the tape keeps only what the VJPs read, and ``backward`` consumes it: one
  backward per forward.  ``add``, ``sub``, ``tsum``, ``reshape``,
  ``tslice``, ``take_rows`` and ``edge_sum`` (the attention logits' input
  ``a[dst] + b[src]``) keep shapes or index layouts only; ``EdgeRows`` hands
  the same rows to an op ungathered (``vqc.expectations_op`` keeps a's and
  b's arrays and makes the rows again in its backward); ``mul``, ``div``,
  ``matmul``, ``log`` and ``softplus`` their operand arrays; ``exp``,
  ``tanh`` and ``elu`` their output; ``dropout``, ``relu``, ``leaky_relu``
  and ``elu`` a boolean mask; ``pair_dot`` its node-level operand;
  ``softmax_aggregate`` the softmax numerators z, the per-node sums, the
  boolean dropout mask and the node-level values.  Each node lets go of its
  parents and VJP once its VJP has run, so it, its gradient and the arrays
  its VJP read are freed while the backward goes on, and a second backward
  through it raises ``RuntimeError``;
* ``segment_sum``, ``segment_max``, ``softmax_aggregate`` and the
  ``take_rows`` backward share one reduce over a ``Segments``, the layout of
  an index array over ``n`` segments, and every row op takes its index in
  that one form.  ``Graph`` caches the layouts of its attention edges and
  ``training.split_views`` builds the readout layouts once per run, so
  every layer, softmax, readout and backward reuses them.  Sums add each
  segment's values in sorted order (a compare-exchange network up to width
  8, ``np.sort`` above), left to right, so they depend on the multiset of
  values only, not on row order -- required for bit-exact permutation
  equivariance of neighborhood aggregation and of the per-node gradients
  through it.  The reduce holds one width bucket's block at a time.
  ``softmax_aggregate`` is one attention layer from its logits to its
  output: it weights each bucket's gathered rows in place, so the weighted
  edge rows never exist all at once, and it rebuilds the attention weights
  in its backward instead of keeping them.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Sequence

import numpy as np

Vjp = Callable[[np.ndarray], Sequence[np.ndarray | None]]
LEAKY_SLOPE = 0.2  # classical GAT-family convention
# an op's output is made after its parents, so descending creation numbers are
# a reverse topological order of any tape, fixed by the forward program alone
_CREATED = itertools.count()


class Node:
    """A tensor's place on the tape: its gradient, its ``requires_grad`` flag, its
    parents' nodes, its VJP and its creation number.  It holds no value: the
    arrays its VJP reads are captured in the VJP when the op is recorded."""

    __slots__ = ("grad", "requires_grad", "parents", "vjp", "created")

    def __init__(self, requires_grad: bool):
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.parents: tuple[Node, ...] = ()
        self.vjp: Vjp | None = None
        self.created = next(_CREATED)


def _on_node(name: str) -> property:
    """A Tensor attribute that reads and writes its node's ``name``."""
    return property(lambda t: getattr(t.node, name),
                    lambda t, value: setattr(t.node, name, value))


class Tensor:
    """A float64 value (``data``) and its tape ``node``.

    ``grad``, ``requires_grad`` and ``_vjp`` read and write the node's.  The
    tape links nodes, so once the forward drops a Tensor its ``data`` is
    freed unless some VJP captured that array.
    """

    __slots__ = ("data", "node", "__weakref__")

    grad = _on_node("grad")
    requires_grad = _on_node("requires_grad")
    _vjp = _on_node("vjp")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.node = Node(requires_grad)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.node.grad = None

    def backward(self, seed: np.ndarray | None = None) -> None:
        """Backpropagate ``seed`` (defaults to ones) from this tensor, consuming the tape.

        Nodes run in descending creation order.  Once a node's VJP has run, the
        node drops its parents and its VJP, so it, its gradient and the arrays
        its VJP read are freed as soon as nothing else refers to them; a second
        backward through it raises ``RuntimeError``.
        """
        if seed is None:
            seed = np.ones_like(self.data)
        seed = np.asarray(seed, dtype=np.float64)
        if seed.shape != self.data.shape:
            raise ValueError(f"seed shape {seed.shape} != tensor shape {self.data.shape}")

        root = self.node
        root.grad = seed if root.grad is None else root.grad + seed
        pending = {root.created: root}
        heap = [-root.created]
        while heap:
            node = pending.pop(-heapq.heappop(heap))
            if node.vjp is None:
                continue
            for parent, g in zip(node.parents, node.vjp(node.grad)):
                if g is None or not parent.requires_grad:
                    continue
                parent.grad = g if parent.grad is None else parent.grad + g
                if parent.created not in pending:
                    pending[parent.created] = parent
                    heapq.heappush(heap, -parent.created)
            node.parents, node.vjp = (), _consumed

    # -- operator sugar ------------------------------------------------
    def __add__(self, other):
        return add(self, _wrap(other))

    def __sub__(self, other):
        return sub(self, _wrap(other))

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __truediv__(self, other):
        return div(self, _wrap(other))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _consumed(g: np.ndarray):
    raise RuntimeError("backward through a consumed tape: each forward allows one backward")


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def make_op(data: np.ndarray, parents: tuple[Tensor, ...], vjp: Vjp) -> Tensor:
    """Record an op node linked to its parents' nodes; constant-folds when no
    parent needs gradients.  ``vjp`` must capture the arrays it reads, not
    the parent Tensors, or it keeps their values on the tape."""
    out = Tensor(data)
    if any(p.node.requires_grad for p in parents):
        node = out.node
        node.requires_grad = True
        node.parents = tuple(p.node for p in parents)
        node.vjp = vjp
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (reverse of numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# -- arithmetic --------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    a_shape, b_shape = a.shape, b.shape
    return make_op(a.data + b.data, (a, b),
                   lambda g: (_unbroadcast(g, a_shape), _unbroadcast(g, b_shape)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    a_shape, b_shape = a.shape, b.shape
    return make_op(a.data - b.data, (a, b),
                   lambda g: (_unbroadcast(g, a_shape), _unbroadcast(-g, b_shape)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    x, y = a.data, b.data
    return make_op(x * y, (a, b),
                   lambda g: (_unbroadcast(g * y, x.shape), _unbroadcast(g * x, y.shape)))


def div(a: Tensor, b: Tensor) -> Tensor:
    x, y = a.data, b.data
    return make_op(x / y, (a, b),
                   lambda g: (_unbroadcast(g / y, x.shape),
                              _unbroadcast(-g * x / (y * y), y.shape)))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("matmul supports 2-D operands only")
    x, y = a.data, b.data
    return make_op(x @ y, (a, b), lambda g: (g @ y.T, x.T @ g))


# -- elementwise nonlinearities ---------------------------------------


def exp(x: Tensor) -> Tensor:
    out_data = np.exp(x.data)
    return make_op(out_data, (x,), lambda g: (g * out_data,))


def log(x: Tensor) -> Tensor:
    values = x.data
    return make_op(np.log(values), (x,), lambda g: (g / values,))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def softplus(x: Tensor) -> Tensor:
    values = x.data
    return make_op(np.logaddexp(0.0, values), (x,), lambda g: (g * _sigmoid(values),))


def elu(x: Tensor) -> Tensor:
    pos = x.data > 0
    out_data = np.where(pos, x.data, np.expm1(np.minimum(x.data, 0.0)))
    return make_op(out_data, (x,), lambda g: (g * np.where(pos, 1.0, out_data + 1.0),))


def relu(x: Tensor) -> Tensor:
    pos = x.data > 0
    return make_op(np.where(pos, x.data, 0.0), (x,), lambda g: (g * pos,))


def leaky_relu(x: Tensor) -> Tensor:
    pos = x.data > 0
    return make_op(x.data * np.where(pos, 1.0, LEAKY_SLOPE), (x,),
                   lambda g: (g * np.where(pos, 1.0, LEAKY_SLOPE),))


def tanh(x: Tensor) -> Tensor:
    out_data = np.tanh(x.data)
    return make_op(out_data, (x,), lambda g: (g * (1.0 - out_data * out_data),))


def keep_mask(shape: tuple[int, ...], rate: float, rng: np.random.Generator) -> np.ndarray:
    """Inverted dropout's boolean mask: each entry is kept with probability 1 - ``rate``."""
    return rng.random(shape) < 1.0 - rate


def dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: each entry is kept with probability 1 - ``rate`` and
    scaled by 1 / (1 - rate); the tape keeps only the boolean keep-mask."""
    keep = 1.0 - rate
    kept = keep_mask(x.shape, rate, rng)
    return make_op(x.data * (kept / keep), (x,), lambda g: (g * (kept / keep),))


# -- reductions and shape ops ------------------------------------------


def tsum(x: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    shape = x.shape

    def vjp(g: np.ndarray):
        if axis is None:
            return (np.broadcast_to(g, shape).copy(),)
        g_exp = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(g_exp, shape).copy(),)

    return make_op(x.data.sum(axis=axis, keepdims=keepdims), (x,), vjp)


def tmean(x: Tensor, axis: int | None = None) -> Tensor:
    n = x.data.size if axis is None else x.data.shape[axis]
    return mul(tsum(x, axis=axis), Tensor(1.0 / n))


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    x_shape = x.shape
    return make_op(x.data.reshape(shape), (x,), lambda g: (g.reshape(x_shape),))


def tslice(x: Tensor, key) -> Tensor:
    """Basic indexing ``x[key]`` (slices and integers, e.g. ``np.s_[:, 1:4]``), copied;
    the backward writes the gradient into zeros of ``x``'s shape at ``key``."""
    shape = x.shape

    def vjp(g: np.ndarray):
        full = np.zeros(shape)
        full[key] = g
        return (full,)

    return make_op(x.data[key].copy(), (x,), vjp)


def take_rows(x: Tensor, segs: Segments) -> Tensor:
    """Rows ``x[segs.index]``; the backward sums the gradients of rows that share
    an index, over ``segs``, a ``Segments`` over ``len(x)`` segments."""
    return make_op(np.take(x.data, segs.index, axis=0), (x,),
                   lambda g: (_segment_reduce(g, segs, "sum"),))


def _edge_rows(a: np.ndarray, b: np.ndarray, dst: Segments, src: Segments) -> np.ndarray:
    rows = np.take(a, dst.index, axis=0)
    rows += np.take(b, src.index, axis=0)
    return rows


def _edge_row_grads(g: np.ndarray, dst: Segments, src: Segments):
    return _segment_reduce(g, dst, "sum"), _segment_reduce(g, src, "sum")


def edge_sum(a: Tensor, b: Tensor, dst: Segments, src: Segments) -> Tensor:
    """Edge rows ``a[dst.index] + b[src.index]``: the bits of
    ``take_rows(a, dst) + take_rows(b, src)`` and of its gradients, without
    the two gathered (edges, ...) arrays on the tape."""
    return make_op(_edge_rows(a.data, b.data, dst, src), (a, b),
                   lambda g: _edge_row_grads(g, dst, src))


class EdgeRows:
    """``edge_sum(a, b, dst, src)``'s rows, not made: an op's input given by the
    node-level (nodes, k * width) Tensors a and b and the edge layouts, read as
    (edges * k, width) rows, row r being chunk r % k of edge r // k's row.
    ``len`` is that row count.  An op that takes them (``vqc.expectations_op``)
    keeps a's and b's arrays, not the rows, and makes the rows again when its
    backward needs them."""

    __slots__ = ("a", "b", "dst", "src", "width")

    def __init__(self, a: Tensor, b: Tensor, dst: Segments, src: Segments, width: int):
        self.a, self.b, self.dst, self.src, self.width = a, b, dst, src, width

    def __len__(self) -> int:
        return len(self.dst) * (self.a.shape[1] // self.width)

    def reader(self) -> Callable[[], np.ndarray]:
        """A callable that makes the rows, a fresh (len(self), width) array, at
        each call with ``edge_sum``'s arithmetic; it holds a's and b's arrays
        and the layouts, not the Tensors."""
        a, b, dst, src, width = self.a.data, self.b.data, self.dst, self.src, self.width
        return lambda: _edge_rows(a, b, dst, src).reshape(-1, width)

    def grads(self) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
        """A callable from the rows' (len(self), width) gradient to a's and b's,
        through ``edge_sum``'s VJP; it holds the layouts only."""
        dst, src, shape = self.dst, self.src, (len(self.dst), self.a.shape[1])
        return lambda g: _edge_row_grads(g.reshape(shape), dst, src)


def pair_dot(x: Tensor, u: Segments, v: Segments) -> Tensor:
    """Row dot products ``<x[u.index[p]], x[v.index[p]]>`` of a (nodes, dim) ``x``:
    the bits of ``tsum(mul(take_rows(x, u), take_rows(x, v)), axis=1)`` and of
    its gradient, but the tape keeps ``x``'s array, not the two gathered
    (pairs, dim) ones; the backward gathers them again."""
    data = x.data
    prod = np.take(data, u.index, axis=0)
    prod *= np.take(data, v.index, axis=0)

    def vjp(g: np.ndarray):
        g = g[:, None]
        grad = _segment_reduce(g * np.take(data, v.index, axis=0), u, "sum")
        grad += _segment_reduce(g * np.take(data, u.index, axis=0), v, "sum")
        return (grad,)

    return make_op(prod.sum(axis=1), (x,), vjp)


# -- segment ops --------------------------------------------------------


class Segments:
    """The reduce layout of an index array: row ``r`` belongs to segment ``index[r]``.

    Built once, in the constructor, and reused by every reduce over the same
    index array.  Segments are bucketed by their size rounded up to a power
    of two; each bucket holds its member segments, the lane-major
    ``(width, members)`` source rows (lane ``w`` of a segment is its ``w``-th
    row in index order), the mask of padding lanes and the flat positions of
    those lanes in the block's ``(width * members)`` rows.

    Rows are grouped by segment, each segment's in index order, by one
    argsort of the distinct keys ``index * len(index) + row``: the order a
    stable argsort of ``index`` gives, without its timsort.  The keys stay
    below 2**63 while ``n * len(index)`` does.
    """

    __slots__ = ("index", "n", "buckets")

    def __init__(self, index: np.ndarray, n: int):
        self.index = np.asarray(index)
        self.n = n
        size = len(self.index)
        order = np.argsort(self.index * np.int64(size) + np.arange(size))
        counts = np.bincount(self.index, minlength=n)
        starts = np.cumsum(counts) - counts
        filled = np.flatnonzero(counts)
        log_widths = np.frexp(counts[filled] - 1)[1]  # smallest w with 2**w >= count
        self.buckets = []
        for w in np.unique(log_widths):
            members = filled[log_widths == w]
            lanes = np.arange(1 << w)[:, None]
            pad = lanes >= counts[members]
            rows = order[np.where(pad, 0, starts[members] + lanes)]
            self.buckets.append((members, rows, pad, np.flatnonzero(pad)))

    def __len__(self) -> int:
        return len(self.index)


# Batcher's odd-even merge sorts (1968) as (lane, lane) compare-exchanges in
# order: 1, 5 and 19 comparators, the fewest possible at widths 2, 4 and 8
NETWORKS = {
    1: (),
    2: ((0, 1),),
    4: ((0, 1), (2, 3), (0, 2), (1, 3), (1, 2)),
    8: ((0, 1), (2, 3), (4, 5), (6, 7), (0, 2), (1, 3), (4, 6), (5, 7), (1, 2), (5, 6),
        (0, 4), (1, 5), (2, 6), (3, 7), (2, 4), (3, 5), (1, 2), (3, 4), (5, 6)),
}


def _sort_lanes(block: np.ndarray) -> None:
    """Sort a lane-major ``(width, ...)`` block along axis 0, in place."""
    network = NETWORKS.get(len(block))
    if network is None:
        block.sort(axis=0)
        return
    low = np.empty_like(block[0])  # one lane, reused by every comparator
    for i, j in network:
        lo, hi = block[i], block[j]
        np.minimum(lo, hi, out=low)
        # np.minimum and np.maximum return their second operand when the two
        # compare equal: with the operands swapped, -0.0 and 0.0 trade places
        # instead of one of them being written twice
        np.maximum(hi, lo, out=hi)
        lo[...] = low


def _add_lanes(block: np.ndarray) -> np.ndarray:
    """Left-to-right sum over axis 0.  ``np.add.reduce`` adds whole lanes in order,
    except that a lane of one number makes it sum pairwise; ``cumsum`` never does."""
    if block[0].size == 1:
        return np.cumsum(block, axis=0)[-1]
    return np.add.reduce(block, axis=0, initial=-0.0)


def _restore_zero_signs(sums: np.ndarray, lanes: Callable, rows: np.ndarray,
                        pad: np.ndarray) -> None:
    """Give each zero in ``sums`` the sign that adding its segment's values gives:
    -0.0 only when all of them are -0.0.  ``np.sort`` may write one of two equal
    zeros twice, losing the other's sign.  ``lanes(rows, cols)`` gives the values
    before the sort; it is asked only for the lanes of zero sums."""
    seg, col = np.nonzero(sums == 0)
    negative = np.signbit(lanes(rows[:, seg], col)) | pad[:, seg]
    sums[seg, col] = np.where(negative.all(axis=0), -0.0, 0.0)


def _reduce_buckets(segs: Segments, cols: int, kind: str, gather: Callable,
                    lanes: Callable) -> np.ndarray:
    """(segs.n, cols) per-segment sums or maxima.  ``gather(rows)`` gives a fresh
    lane-major ``(width, members, cols)`` block of the values in ``rows``;
    ``lanes`` is handed to ``_restore_zero_signs``."""
    identity = -np.inf if kind == "max" else -0.0
    out = np.full((segs.n, cols), -np.inf if kind == "max" else 0.0)
    for members, rows, pad, pad_at in segs.buckets:
        block = gather(rows)
        block.reshape(rows.size, cols)[pad_at] = identity
        if kind == "max":
            out[members] = block.max(axis=0)
        else:
            _sort_lanes(block)
            sums = _add_lanes(block)
            if len(block) not in NETWORKS:
                _restore_zero_signs(sums, lanes, rows, pad)
            out[members] = sums
            del sums
        # free this bucket's block before the next one is gathered
        del block
    return out


def _segment_reduce(values: np.ndarray, segs: Segments, kind: str) -> np.ndarray:
    """Per-segment sums (``kind="sum"``) or maxima (``"max"``) of the rows of ``values``.

    ``segs`` is built once per index array (``Graph`` caches the layouts of
    its attention edges), so a call only moves values: each width bucket is
    gathered into one contiguous lane-major ``(width, members, cols)``
    block, padded with the reduction's identity and reduced over its lanes.
    Sums first sort the lanes (a compare-exchange network up to width 8,
    ``np.sort`` above) and then add them left to right, so the result
    depends on the multiset of each segment's values only, not on the order
    of the rows; a segment of -0.0 sums to -0.0.  Empty segments give 0.0
    (sum) or -inf (max).
    """
    flat = values.reshape(len(values), int(np.prod(values.shape[1:])))
    out = _reduce_buckets(segs, flat.shape[1], kind, lambda rows: np.take(flat, rows, axis=0),
                          lambda rows, cols: flat[rows, cols])
    return out.reshape((segs.n,) + values.shape[1:])


def _weighted_reduce(x: np.ndarray, weights: np.ndarray, by: Segments,
                     other: Segments) -> np.ndarray:
    """``_segment_reduce`` over ``by`` of the rows ``weights[e, h] * x[other.index[e], h]``,
    with x read as (rows, heads, cols // heads), without making those rows for
    every edge at once: each bucket's block is gathered from ``x`` through the
    composed index and weighted in place."""
    heads, cols = weights.shape[1], x.shape[1]
    per_head = cols // heads

    def gather(rows):
        block = np.take(x, np.take(other.index, rows), axis=0)
        by_head = block.reshape(rows.shape + (heads, per_head))
        np.multiply(by_head, np.take(weights, rows, axis=0)[..., None], out=by_head)
        return block

    def lanes(rows, cols):
        return weights[rows, cols // per_head] * x[other.index[rows], cols]

    return _reduce_buckets(by, cols, "sum", gather, lanes)


def segment_sum(x: Tensor, segs: Segments) -> Tensor:
    """(segs.n, ...) per-segment sums of the rows of ``x``."""
    return make_op(_segment_reduce(x.data, segs, "sum"), (x,),
                   lambda g: (np.take(g, segs.index, axis=0),))


# elements of the (edges, heads * dim) products one step of the
# ``softmax_aggregate`` backward makes at once
BLOCK_ELEMS = 1 << 16


def _attention_weights(z: np.ndarray, den_e: np.ndarray, kept: np.ndarray | None,
                       keep: float) -> np.ndarray:
    """alpha = z / den_e, then inverted dropout: zero where ``kept`` is False, else
    scaled by 1 / ``keep``; the arithmetic of ``div`` and ``dropout``."""
    alpha = z / den_e
    if kept is not None:
        alpha *= kept / keep
    return alpha


def softmax_aggregate(logits: Tensor, v: Tensor, z: np.ndarray, den: np.ndarray,
                      src: Segments, dst: Segments, kept: np.ndarray | None,
                      rate: float) -> Tensor:
    """Attention from logits to aggregated output: out[i, h] = sum over the edges
    e into i of ``alpha[e, h] * v[src.index[e], h]``, where edge e ends at
    ``dst.index[e]``, alpha is the per-(destination, head) softmax of the
    (edges, heads) ``logits``, dropped where ``kept`` is False and scaled by
    1 / (1 - ``rate``), v is (nodes, heads, dim) and out (dst.n, heads, dim).

    ``z`` and ``den`` are the softmax numerators ``exp(logits - shift[dst])``
    and their per-(node, head) sums, as ``attention.neighborhood_softmax``
    makes them; ``kept`` is the (edges, heads) mask of ``keep_mask``, or None
    without dropout.  The output and gradients have the bits of the tape
    ``sub``, ``exp``, ``segment_sum``, ``take_rows``, ``div``, ``dropout`` and
    a gather-weight-sum would record, but this tape keeps only z, den, the
    mask and v: the backward gathers den[dst] again, rebuilds alpha with the
    forward's arithmetic and runs those ops' VJPs in the tape's order.  No
    (edges, heads * dim) array outlives one width bucket or one row block.
    """
    keep = 1.0 - rate
    v_shape = v.shape
    heads, dim = v_shape[1:]
    nodes = v.data.reshape(len(v.data), heads * dim)
    alpha = _attention_weights(z, np.take(den, dst.index, axis=0), kept, keep)
    out = _weighted_reduce(nodes, alpha, dst, src)

    def vjp(g: np.ndarray):
        g = g.reshape(dst.n, heads * dim)
        den_e = np.take(den, dst.index, axis=0)
        alpha = _attention_weights(z, den_e, kept, keep)
        grad_v = _weighted_reduce(g, alpha, src, dst).reshape(v_shape)
        del alpha
        grad = np.empty_like(z)  # of the dropped alpha, then of each op below it
        step = max(1, BLOCK_ELEMS // (heads * dim))
        for lo in range(0, len(grad), step):
            edges = slice(lo, lo + step)
            prod = np.take(g, dst.index[edges], axis=0)
            prod *= np.take(nodes, src.index[edges], axis=0)
            by_head = prod.reshape(len(prod), heads, dim)
            grad[edges] = _unbroadcast(by_head, (len(prod), heads, 1))[..., 0]
        if kept is not None:
            grad *= kept / keep  # dropout
        # div: alpha = z / den_e; the take_rows backward sums den_e's terms per node
        grad_den_e = np.negative(grad)
        grad_den_e *= z
        grad_den_e /= den_e * den_e
        grad_den = _segment_reduce(grad_den_e, dst, "sum")
        del grad_den_e
        grad /= den_e
        grad += np.take(grad_den, dst.index, axis=0)  # segment_sum
        grad *= z  # exp; the shift is a constant, so sub passes the gradient on
        return grad, grad_v

    return make_op(out.reshape(dst.n, heads, dim), (logits, v), vjp)


def segment_max(values: np.ndarray, segs: Segments) -> np.ndarray:
    """Per-segment maxima (plain numpy; used detached for softmax shifts)."""
    return _segment_reduce(values, segs, "max")


def central_difference(f: Callable[[], float], x: np.ndarray, eps: float) -> np.ndarray:
    """Central-difference gradient of the scalar ``f()`` with respect to ``x``.

    Each entry of ``x`` is perturbed in place by +/- ``eps`` and restored.
    """
    grad = np.zeros_like(x)
    for i in range(x.size):
        orig = x.flat[i]
        x.flat[i] = orig + eps
        hi = f()
        x.flat[i] = orig - eps
        lo = f()
        x.flat[i] = orig
        grad.flat[i] = (hi - lo) / (2 * eps)
    return grad


def gradient_errors(fn: Callable[..., Tensor], tensors: Sequence[Tensor], eps: float = 1e-6,
                    rtol: float = 1e-5, atol: float = 1e-8) -> list[float]:
    """Worst relative error of the tape gradient of ``sum(fn(*tensors))`` for each
    of ``tensors``, leaves that require a gradient.

    Each gradient is compared with central differences entry by entry as
    |analytic - numeric| / max(|numeric|, atol / rtol); differences within
    ``atol`` count as zero, being finite-difference noise.  A NaN anywhere
    makes that tensor's error NaN.  The step is ``eps`` times the tensor's
    largest magnitude (``eps`` for an all-zero tensor), so a function of
    x / |x| is stepped in proportion to |x| whatever its scale.
    """
    out = fn(*tensors)
    for t in tensors:
        t.zero_grad()
    out.backward(np.ones_like(out.data))
    worst = []
    for t in tensors:
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        scale = np.max(np.abs(t.data), initial=0.0)
        step = eps * scale if scale > 0 else eps
        numeric = central_difference(lambda: fn(*tensors).data.sum(), t.data, step)
        diff = np.abs(analytic - numeric)
        scaled = diff / np.maximum(np.abs(numeric), atol / rtol)
        worst.append(float(np.max(np.where(diff <= atol, 0.0, scaled))))
    return worst


def gradcheck(fn: Callable[..., Tensor], tensors: Sequence[Tensor], eps: float = 1e-6,
              rtol: float = 1e-5, atol: float = 1e-8) -> float:
    """Assert ``gradient_errors`` stays within ``rtol`` for every tensor; returns the worst."""
    errors = gradient_errors(fn, tensors, eps, rtol, atol)
    for i, err in enumerate(errors):
        if not err <= rtol:
            raise AssertionError(f"gradient mismatch in tensor {i}: relative error {err:.3e}")
    return max(errors, default=0.0)
