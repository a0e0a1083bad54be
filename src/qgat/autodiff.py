"""Minimal reverse-mode autodiff over numpy arrays.

A ``Tensor`` wraps a float64 ndarray and records the ops that produced it.
``Tensor.backward`` walks the tape in reverse topological order and
accumulates vector-Jacobian products into ``.grad`` of every reachable
tensor with ``requires_grad`` set.  Ops never mutate their inputs.

Two properties matter for callers:

* graph nodes are only recorded when some input requires a gradient, so
  evaluation-mode forward passes carry no tape overhead;
* ``segment_sum``, ``segment_max`` and the ``take_rows`` backward share one
  reduce, ``_segment_reduce``, over a ``Segments`` layout of the index
  array.  A layout is built once per index array, and ``Graph`` caches the
  two of its attention edges, so every layer, softmax and backward on a
  graph reuses them.  Sums add each segment's values in sorted order (a
  compare-exchange network up to width 8, ``np.sort`` above), left to
  right, so they depend on the multiset of values only, not on row order --
  required for bit-exact permutation equivariance of neighborhood
  aggregation and of the per-node gradients through it.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

Vjp = Callable[[np.ndarray], Sequence[np.ndarray | None]]


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Vjp | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, seed: np.ndarray | None = None) -> None:
        """Backpropagate ``seed`` (defaults to ones) from this tensor."""
        if seed is None:
            seed = np.ones_like(self.data)
        seed = np.asarray(seed, dtype=np.float64)
        if seed.shape != self.data.shape:
            raise ValueError(f"seed shape {seed.shape} != tensor shape {self.data.shape}")

        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))

        self.grad = seed if self.grad is None else self.grad + seed
        for node in reversed(order):
            if node._vjp is None or node.grad is None:
                continue
            for parent, g in zip(node._parents, node._vjp(node.grad)):
                if g is None or not parent.requires_grad:
                    continue
                parent.grad = g if parent.grad is None else parent.grad + g

    # -- operator sugar ------------------------------------------------
    def __add__(self, other):
        return add(self, _wrap(other))

    def __radd__(self, other):
        return add(_wrap(other), self)

    def __sub__(self, other):
        return sub(self, _wrap(other))

    def __rsub__(self, other):
        return sub(_wrap(other), self)

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __rmul__(self, other):
        return mul(_wrap(other), self)

    def __truediv__(self, other):
        return div(self, _wrap(other))

    def __matmul__(self, other):
        return matmul(self, _wrap(other))

    def __neg__(self):
        return mul(self, Tensor(-1.0))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def make_op(data: np.ndarray, parents: tuple[Tensor, ...], vjp: Vjp) -> Tensor:
    """Record an op node; constant-folds when no parent needs gradients."""
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._vjp = vjp
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
    return make_op(
        a.data + b.data,
        (a, b),
        lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)),
    )


def sub(a: Tensor, b: Tensor) -> Tensor:
    return make_op(
        a.data - b.data,
        (a, b),
        lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)),
    )


def mul(a: Tensor, b: Tensor) -> Tensor:
    return make_op(
        a.data * b.data,
        (a, b),
        lambda g: (
            _unbroadcast(g * b.data, a.data.shape),
            _unbroadcast(g * a.data, b.data.shape),
        ),
    )


def div(a: Tensor, b: Tensor) -> Tensor:
    return make_op(
        a.data / b.data,
        (a, b),
        lambda g: (
            _unbroadcast(g / b.data, a.data.shape),
            _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape),
        ),
    )


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("matmul supports 2-D operands only")
    return make_op(
        a.data @ b.data,
        (a, b),
        lambda g: (g @ b.data.T, a.data.T @ g),
    )


# -- elementwise nonlinearities ---------------------------------------


def exp(x: Tensor) -> Tensor:
    out_data = np.exp(x.data)
    return make_op(out_data, (x,), lambda g: (g * out_data,))


def log(x: Tensor) -> Tensor:
    return make_op(np.log(x.data), (x,), lambda g: (g / x.data,))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def softplus(x: Tensor) -> Tensor:
    return make_op(np.logaddexp(0.0, x.data), (x,), lambda g: (g * _sigmoid(x.data),))


def elu(x: Tensor) -> Tensor:
    pos = x.data > 0
    out_data = np.where(pos, x.data, np.expm1(np.minimum(x.data, 0.0)))
    return make_op(out_data, (x,), lambda g: (g * np.where(pos, 1.0, out_data + 1.0),))


def relu(x: Tensor) -> Tensor:
    pos = x.data > 0
    return make_op(np.where(pos, x.data, 0.0), (x,), lambda g: (g * pos,))


def leaky_relu(x: Tensor, slope: float = 0.2) -> Tensor:
    pos = x.data > 0
    scale = np.where(pos, 1.0, slope)
    return make_op(x.data * scale, (x,), lambda g: (g * scale,))


def tanh(x: Tensor) -> Tensor:
    out_data = np.tanh(x.data)
    return make_op(out_data, (x,), lambda g: (g * (1.0 - out_data * out_data),))


# -- reductions and shape ops ------------------------------------------


def tsum(x: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    def vjp(g: np.ndarray):
        if axis is None:
            return (np.broadcast_to(g, x.data.shape).copy(),)
        g_exp = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(g_exp, x.data.shape).copy(),)

    return make_op(x.data.sum(axis=axis, keepdims=keepdims), (x,), vjp)


def tmean(x: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    n = x.data.size if axis is None else x.data.shape[axis]
    return mul(tsum(x, axis=axis, keepdims=keepdims), Tensor(1.0 / n))


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    return make_op(x.data.reshape(shape), (x,), lambda g: (g.reshape(x.data.shape),))


def slice_cols(x: Tensor, start: int, stop: int) -> Tensor:
    def vjp(g: np.ndarray):
        full = np.zeros_like(x.data)
        full[:, start:stop] = g
        return (full,)

    return make_op(x.data[:, start:stop].copy(), (x,), vjp)


def take_rows(x: Tensor, idx: np.ndarray | Segments) -> Tensor:
    """Rows ``x[idx]``; the backward sums the gradients of rows that share an index.

    An index array becomes a ``Segments`` only when the backward runs, so a
    forward without a tape builds no layout.
    """
    index = idx.index if isinstance(idx, Segments) else np.asarray(idx)
    return make_op(x.data[index], (x,),
                   lambda g: (_segment_reduce(g, as_segments(idx, len(x.data)), "sum"),))


# -- segment ops --------------------------------------------------------


class Segments:
    """The reduce layout of an index array: row ``r`` belongs to segment ``index[r]``.

    Built once, in the constructor, and reused by every reduce over the same
    index array.  Segments are bucketed by their size rounded up to a power
    of two; each bucket holds its member segments, the lane-major
    ``(width, members)`` source rows (lane ``w`` of a segment is its ``w``-th
    row in index order) and the mask of padding lanes, None when no lane is
    padded.
    """

    __slots__ = ("index", "n", "buckets")

    def __init__(self, index: np.ndarray, n: int):
        self.index = np.asarray(index)
        self.n = n
        order = np.argsort(self.index, kind="stable")
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
            self.buckets.append((members, rows, pad if pad.any() else None))

    def __len__(self) -> int:
        return len(self.index)


def as_segments(seg: np.ndarray | Segments, n: int) -> Segments:
    """``seg`` itself if it is a ``Segments`` over ``n`` segments, else the layout of the array."""
    if not isinstance(seg, Segments):
        return Segments(seg, n)
    if seg.n != n:
        raise ValueError(f"layout has {seg.n} segments, expected {n}")
    return seg


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
    for i, j in network:
        lo, hi = block[i], block[j]
        low = np.minimum(lo, hi)
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


def _restore_zero_signs(sums: np.ndarray, flat: np.ndarray, rows: np.ndarray,
                        pad: np.ndarray | None) -> None:
    """Give each zero in ``sums`` the sign that adding its segment's values gives:
    -0.0 only when all of them are -0.0.  ``np.sort`` may write one of two equal
    zeros twice, losing the other's sign."""
    seg, col = np.nonzero(sums == 0)
    negative = np.signbit(flat[rows[:, seg], col])
    if pad is not None:
        negative |= pad[:, seg]
    sums[seg, col] = np.where(negative.all(axis=0), -0.0, 0.0)


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
    identity = -np.inf if kind == "max" else -0.0
    out = np.full((segs.n, flat.shape[1]), -np.inf if kind == "max" else 0.0)
    for members, rows, pad in segs.buckets:
        block = flat[rows]
        if pad is not None:
            block[pad] = identity
        if kind == "max":
            out[members] = block.max(axis=0)
        else:
            _sort_lanes(block)
            sums = _add_lanes(block)
            if len(block) not in NETWORKS:
                _restore_zero_signs(sums, flat, rows, pad)
            out[members] = sums
    return out.reshape((segs.n,) + values.shape[1:])


def segment_sum(x: Tensor, seg: np.ndarray | Segments, n_segments: int) -> Tensor:
    segs = as_segments(seg, n_segments)
    return make_op(_segment_reduce(x.data, segs, "sum"), (x,), lambda g: (g[segs.index],))


def segment_max(values: np.ndarray, seg: np.ndarray | Segments, n_segments: int) -> np.ndarray:
    """Per-segment maxima (plain numpy; used detached for softmax shifts)."""
    return _segment_reduce(values, as_segments(seg, n_segments), "max")


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
    makes that tensor's error NaN.
    """
    out = fn(*tensors)
    for t in tensors:
        t.zero_grad()
    out.backward(np.ones_like(out.data))
    worst = []
    for t in tensors:
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        numeric = central_difference(lambda: fn(*tensors).data.sum(), t.data, eps)
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
