"""Graph attention layers: quantum-logit QGAT plus classical GAT / GATv2.

All three share one message-passing skeleton.  A layer supplies node terms a,
b and v; edge j -> i gets logit f(a_i + b_j) and value v_j.  Then softmax over
each in-neighborhood (self-loop included), weighted sum, merge (concat or
mean), activation, dropout, residual.  Layers differ only in a, b, v and f.

QGAT logits: the projected pair [W h_i || W h_j || h_i || h_j] is compressed
to length 2^n_q * ceil(heads / n_q), chunked, amplitude-encoded, and run
through a shared strongly-entangling circuit; Z expectations (one per qubit
per execution) become the per-head logits, surplus tail values dropped.  No
LeakyReLU is applied to quantum logits.  The compression is linear, so its
rows split into a_i = [W h_i || h_i] P_dst and b_j = [W h_j || h_j] P_src.
Value projections reuse per-head column slices of the shared multi-head
projection unless a separate value matrix is requested.

``forward`` is the one way into a layer; it records the circuit through
``vqc.expectations_op`` so the tape carries its adjoint gradients.
"""

from __future__ import annotations

import numpy as np

from . import vqc
from .autodiff import (
    Segments,
    Tensor,
    as_segments,
    div,
    elu,
    exp,
    leaky_relu,
    matmul,
    mul,
    relu,
    reshape,
    segment_max,
    segment_sum,
    slice_cols,
    sub,
    tanh,
    take_rows,
    tmean,
    tsum,
)
from .graph import Graph

ACTIVATIONS = {
    "elu": elu,
    "relu": relu,
    "leaky_relu": lambda t: leaky_relu(t, 0.2),
    "tanh": tanh,
    "identity": lambda t: t,
}

LEAKY_SLOPE = 0.2  # classical GAT-family convention


def glorot(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    limit = np.sqrt(6.0 / (shape[0] + shape[-1]))
    return rng.uniform(-limit, limit, shape)


def _split_rows(t: Tensor, sizes: list[int]) -> list[Tensor]:
    """Consecutive row blocks of a 2-D tensor, cut as column slices of its one-row view."""
    flat, cols = reshape(t, (1, t.data.size)), t.shape[1]
    bounds = np.cumsum([0, *sizes]).tolist()
    return [reshape(slice_cols(flat, lo * cols, hi * cols), (hi - lo, cols))
            for lo, hi in zip(bounds, bounds[1:])]


def neighborhood_softmax(logits: Tensor, dst: np.ndarray | Segments, n_nodes: int) -> Tensor:
    """Per-(destination, head) softmax with max-subtraction stabilization."""
    dst = as_segments(dst, n_nodes)
    shift = segment_max(logits.data, dst, n_nodes)
    z = exp(sub(logits, Tensor(shift[dst.index])))
    denom = segment_sum(z, dst, n_nodes)
    return div(z, take_rows(denom, dst))


class _AttentionLayer:
    """Shared skeleton, the one place that gathers edge rows: subclasses supply
    ``_node_terms(h) -> (a, b, v)``, one row per node, and ``_edge_logits(z)``,
    the (edges, heads) logits of z = a[dst] + b[src]; edge values are v[src]."""

    def __init__(self, in_dim: int, head_dim: int, heads: int, *,
                 merge: str = "concat", dropout: float = 0.0,
                 activation: str = "elu", rng: np.random.Generator):
        if heads < 1 or head_dim < 1 or in_dim < 1:
            raise ValueError("dims and head count must be >= 1")
        if merge not in ("concat", "mean"):
            raise ValueError(f"merge must be 'concat' or 'mean', got {merge!r}")
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        if not 0.0 <= dropout < 1.0:
            raise ValueError("dropout rate must lie in [0, 1)")
        self.in_dim = in_dim
        self.head_dim = head_dim
        self.heads = heads
        self.merge = merge
        self.dropout_rate = dropout
        self.activation = activation
        self._act = ACTIVATIONS[activation]
        self.out_dim = heads * head_dim if merge == "concat" else head_dim
        self.shortcut = None
        if in_dim != self.out_dim:
            self.shortcut = Tensor(glorot(rng, (in_dim, self.out_dim)), requires_grad=True)

    def params(self) -> dict[str, Tensor]:
        named = dict(self._own_params())
        if self.shortcut is not None:
            named["shortcut"] = self.shortcut
        return named

    def _own_params(self) -> dict[str, Tensor]:
        raise NotImplementedError

    def _drop(self, t: Tensor, training: bool, rng: np.random.Generator | None) -> Tensor:
        if not training or self.dropout_rate == 0.0:
            return t
        if rng is None:
            raise ValueError("training-mode dropout needs an RNG")
        keep = 1.0 - self.dropout_rate
        mask = (rng.random(t.shape) < keep) / keep
        return mul(t, Tensor(mask))

    def forward(self, graph: Graph, features, *, training: bool = False,
                rng: np.random.Generator | None = None) -> Tensor:
        x = features if isinstance(features, Tensor) else Tensor(features)
        if x.shape[1] != self.in_dim:
            raise ValueError(f"feature dim {x.shape[1]} != layer input dim {self.in_dim}")
        src, dst = graph.attention_segments()
        n = graph.n_nodes
        a, b, v = self._node_terms(self._drop(x, training, rng))
        logits = self._edge_logits(take_rows(a, dst) + take_rows(b, src))
        values = reshape(take_rows(v, src), (len(src), self.heads, self.head_dim))
        alpha = neighborhood_softmax(logits, dst, n)
        alpha = self._drop(alpha, training, rng)
        weighted = mul(reshape(alpha, (alpha.shape[0], self.heads, 1)), values)
        agg = segment_sum(weighted, dst, n)
        if self.merge == "concat":
            merged = reshape(agg, (n, self.heads * self.head_dim))
        else:
            merged = tmean(agg, axis=1)
        out = self._drop(self._act(merged), training, rng)
        residual = x if self.shortcut is None else matmul(x, self.shortcut)
        return out + residual


class QgatLayer(_AttentionLayer):
    def __init__(self, in_dim: int, head_dim: int, heads: int, n_qubits: int,
                 entangling_layers: int, *, merge: str = "concat",
                 dropout: float = 0.0, activation: str = "elu",
                 separate_value_weights: bool = False,
                 rng: np.random.Generator):
        super().__init__(in_dim, head_dim, heads, merge=merge, dropout=dropout,
                         activation=activation, rng=rng)
        self.layout = vqc.build_layout(n_qubits, entangling_layers)
        self.n_qubits = n_qubits
        self.n_exec = -(-heads // n_qubits)  # circuit executions per edge
        self.feat_proj = Tensor(glorot(rng, (in_dim, heads * head_dim)), requires_grad=True)
        compress_in = 2 * heads * head_dim + 2 * in_dim
        self.encoding_dim = (1 << n_qubits) * self.n_exec
        self.compress = Tensor(glorot(rng, (compress_in, self.encoding_dim)), requires_grad=True)
        self.angles = Tensor(
            rng.uniform(0.0, 2.0 * np.pi, (entangling_layers, n_qubits, 3)),
            requires_grad=True,
        )
        self.value_proj = None
        if separate_value_weights:
            self.value_proj = Tensor(glorot(rng, (in_dim, heads * head_dim)), requires_grad=True)

    def _own_params(self) -> dict[str, Tensor]:
        named = {"feat_proj": self.feat_proj, "compress": self.compress, "angles": self.angles}
        if self.value_proj is not None:
            named["value_proj"] = self.value_proj
        return named

    def _node_terms(self, h: Tensor):
        proj = matmul(h, self.feat_proj)
        hd = proj.shape[1]
        # compress rows, in the order of [W h_i || W h_j || h_i || h_j]
        w_dst, w_src, h_dst, h_src = _split_rows(self.compress, [hd, hd, self.in_dim, self.in_dim])
        a = matmul(proj, w_dst) + matmul(h, h_dst)
        b = matmul(proj, w_src) + matmul(h, h_src)
        v = proj if self.value_proj is None else matmul(h, self.value_proj)
        return a, b, v

    def _edge_logits(self, z: Tensor) -> Tensor:
        chunks = reshape(z, (z.shape[0] * self.n_exec, 1 << self.n_qubits))
        expectations = vqc.expectations_op(chunks, self.angles, self.layout)
        per_edge = reshape(expectations, (z.shape[0], self.n_exec * self.n_qubits))
        return slice_cols(per_edge, 0, self.heads)


class GatLayer(_AttentionLayer):
    """Classical GAT: LeakyReLU(a^T [W h_i || W h_j]) logits."""

    def __init__(self, in_dim: int, head_dim: int, heads: int, *, merge: str = "concat",
                 dropout: float = 0.0, activation: str = "elu", rng: np.random.Generator):
        super().__init__(in_dim, head_dim, heads, merge=merge, dropout=dropout,
                         activation=activation, rng=rng)
        self.feat_proj = Tensor(glorot(rng, (in_dim, heads * head_dim)), requires_grad=True)
        self.attn_dst = Tensor(glorot(rng, (heads, head_dim)), requires_grad=True)
        self.attn_src = Tensor(glorot(rng, (heads, head_dim)), requires_grad=True)

    def _own_params(self) -> dict[str, Tensor]:
        return {"feat_proj": self.feat_proj, "attn_dst": self.attn_dst,
                "attn_src": self.attn_src}

    def _node_terms(self, h: Tensor):
        proj = matmul(h, self.feat_proj)
        proj3 = reshape(proj, (h.shape[0], self.heads, self.head_dim))
        score_dst = tsum(mul(proj3, self.attn_dst), axis=2)
        score_src = tsum(mul(proj3, self.attn_src), axis=2)
        return score_dst, score_src, proj

    def _edge_logits(self, z: Tensor) -> Tensor:
        return leaky_relu(z, LEAKY_SLOPE)


class Gatv2Layer(_AttentionLayer):
    """GATv2: a^T LeakyReLU(W_dst h_i + W_src h_j) logits (joint transform first)."""

    def __init__(self, in_dim: int, head_dim: int, heads: int, *, merge: str = "concat",
                 dropout: float = 0.0, activation: str = "elu", rng: np.random.Generator):
        super().__init__(in_dim, head_dim, heads, merge=merge, dropout=dropout,
                         activation=activation, rng=rng)
        self.proj_src = Tensor(glorot(rng, (in_dim, heads * head_dim)), requires_grad=True)
        self.proj_dst = Tensor(glorot(rng, (in_dim, heads * head_dim)), requires_grad=True)
        self.attn = Tensor(glorot(rng, (heads, head_dim)), requires_grad=True)

    def _own_params(self) -> dict[str, Tensor]:
        return {"proj_src": self.proj_src, "proj_dst": self.proj_dst, "attn": self.attn}

    def _node_terms(self, h: Tensor):
        pl = matmul(h, self.proj_src)
        return matmul(h, self.proj_dst), pl, pl

    def _edge_logits(self, z: Tensor) -> Tensor:
        joint3 = leaky_relu(reshape(z, (z.shape[0], self.heads, self.head_dim)), LEAKY_SLOPE)
        return tsum(mul(joint3, self.attn), axis=2)

