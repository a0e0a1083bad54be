"""Minimal reverse-mode autodiff over numpy arrays.

A ``Tensor`` wraps a float64 ndarray and records the ops that produced it.
``Tensor.backward`` walks the tape in reverse topological order and
accumulates vector-Jacobian products into ``.grad`` of every reachable
tensor with ``requires_grad`` set.  Ops never mutate their inputs.

Two properties matter for callers:

* graph nodes are only recorded when some input requires a gradient, so
  evaluation-mode forward passes carry no tape overhead;
* ``segment_sum``, ``segment_max`` and the ``take_rows`` backward share
  ``_segment_reduce``, which sums each segment in value-sorted order, so
  results do not depend on row order -- required for bit-exact permutation
  equivariance of neighborhood aggregation and of its gradients.
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


def take_rows(x: Tensor, idx: np.ndarray) -> Tensor:
    idx = np.asarray(idx)
    return make_op(x.data[idx], (x,), lambda g: (_segment_reduce(g, idx, len(x.data), "sum"),))


# -- segment ops --------------------------------------------------------


def _segment_reduce(values: np.ndarray, seg: np.ndarray, n_segments: int, kind: str) -> np.ndarray:
    """Per-segment sums (``kind="sum"``) or maxima (``"max"``) of the rows of ``values``.

    Segments are padded to power-of-two widths with the reduction identity
    and reduced one width at a time as dense ``(segments, width, cols)``
    blocks.  Sums add each segment's values in sorted order, so the result
    depends on the multiset of values only, not on the order of the rows.
    """
    flat = values.reshape(len(values), int(np.prod(values.shape[1:])))
    order = np.argsort(seg, kind="stable")
    counts = np.bincount(seg, minlength=n_segments)
    starts = np.cumsum(counts) - counts
    out = np.full((n_segments, flat.shape[1]), -np.inf if kind == "max" else 0.0)
    filled = np.flatnonzero(counts)
    log_widths = np.frexp(counts[filled] - 1)[1]  # smallest w with 2**w >= count
    for w in np.unique(log_widths):
        members = filled[log_widths == w]
        lanes = np.arange(1 << w)
        pad = lanes >= counts[members, None]
        block = flat[order[np.where(pad, 0, starts[members, None] + lanes)]]
        block[pad] = -np.inf if kind == "max" else -0.0  # the reduction's identity
        if kind == "sum":
            block.sort(axis=1)
        out[members] = block.max(axis=1) if kind == "max" else block.sum(axis=1)
    return out.reshape((n_segments,) + values.shape[1:])


def segment_sum(x: Tensor, seg: np.ndarray, n_segments: int) -> Tensor:
    seg = np.asarray(seg)
    return make_op(_segment_reduce(x.data, seg, n_segments, "sum"), (x,), lambda g: (g[seg],))


def segment_max(values: np.ndarray, seg: np.ndarray, n_segments: int) -> np.ndarray:
    """Per-segment maxima (plain numpy; used detached for softmax shifts)."""
    return _segment_reduce(values, seg, n_segments, "max")


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
