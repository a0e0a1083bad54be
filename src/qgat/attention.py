"""Graph attention layers: quantum-logit QGAT plus classical GAT / GATv2.

All three share one message-passing skeleton: per-edge logits, softmax over
each node's in-neighborhood (self-loop included), attention-weighted sum of
per-head value projections, merge (concat or mean), activation, dropout,
residual.  They differ only in how edge logits and values are produced.

QGAT logits: the projected pair [W h_i || W h_j || h_i || h_j] is compressed
to length 2^n_q * ceil(heads / n_q), chunked, amplitude-encoded, and run
through a shared strongly-entangling circuit; Z expectations (one per qubit
per execution) become the per-head logits, surplus tail values dropped.  No
LeakyReLU is applied to quantum logits.  Value projections reuse per-head
column slices of the shared multi-head projection unless a separate value
matrix is requested.

``forward`` is the one way into a layer; it records the circuit through
``vqc.expectations_op`` so the tape carries its adjoint gradients.
"""

from __future__ import annotations

import numpy as np

from . import vqc
from .autodiff import (
    Tensor,
    concat,
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


def neighborhood_softmax(logits: Tensor, dst: np.ndarray, n_nodes: int) -> Tensor:
    """Per-(destination, head) softmax with max-subtraction stabilization."""
    shift = segment_max(logits.data, dst, n_nodes)
    z = exp(sub(logits, Tensor(shift[dst])))
    denom = segment_sum(z, dst, n_nodes)
    return div(z, take_rows(denom, dst))


class _AttentionLayer:
    """Shared skeleton; subclasses provide edge logits and value projections."""

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

    def _edge_scores(self, h: Tensor, src: np.ndarray, dst: np.ndarray):
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
        src, dst = graph.attention_edges()
        n = graph.n_nodes
        h = self._drop(x, training, rng)
        logits, values = self._edge_scores(h, src, dst)
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
        if n_qubits < 1 or entangling_layers < 1:
            raise ValueError("qubit and circuit-layer counts must be >= 1")
        self.n_qubits = n_qubits
        self.n_exec = -(-heads // n_qubits)  # circuit executions per edge
        if n_qubits >= 2:
            self.layout = vqc.build_layout(n_qubits, entangling_layers)
        else:
            # One qubit admits no entangling ring; range 0 marks an empty ring.
            self.layout = vqc.EntanglingLayout(1, (0,) * entangling_layers)
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

    def _edge_scores(self, h: Tensor, src: np.ndarray, dst: np.ndarray):
        n_edges = len(src)
        proj = matmul(h, self.feat_proj)
        edge_in = concat(
            [take_rows(proj, dst), take_rows(proj, src), take_rows(h, dst), take_rows(h, src)],
            axis=1,
        )
        compressed = matmul(edge_in, self.compress)
        chunks = reshape(compressed, (n_edges * self.n_exec, 1 << self.n_qubits))
        expectations = vqc.expectations_op(chunks, self.angles, self.layout)
        per_edge = reshape(expectations, (n_edges, self.n_exec * self.n_qubits))
        logits = slice_cols(per_edge, 0, self.heads)
        value_src = proj if self.value_proj is None else matmul(h, self.value_proj)
        values = reshape(take_rows(value_src, src), (n_edges, self.heads, self.head_dim))
        return logits, values


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

    def _edge_scores(self, h: Tensor, src: np.ndarray, dst: np.ndarray):
        n_nodes = h.shape[0]
        proj = matmul(h, self.feat_proj)
        proj3 = reshape(proj, (n_nodes, self.heads, self.head_dim))
        score_dst = tsum(mul(proj3, self.attn_dst), axis=2)
        score_src = tsum(mul(proj3, self.attn_src), axis=2)
        logits = leaky_relu(take_rows(score_dst, dst) + take_rows(score_src, src), LEAKY_SLOPE)
        values = reshape(take_rows(proj, src), (len(src), self.heads, self.head_dim))
        return logits, values


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

    def _edge_scores(self, h: Tensor, src: np.ndarray, dst: np.ndarray):
        n_edges = len(src)
        pl = matmul(h, self.proj_src)
        pr = matmul(h, self.proj_dst)
        joint = take_rows(pl, src) + take_rows(pr, dst)
        joint3 = leaky_relu(
            reshape(joint, (n_edges, self.heads, self.head_dim)), LEAKY_SLOPE
        )
        logits = tsum(mul(joint3, self.attn), axis=2)
        values = reshape(take_rows(pl, src), (n_edges, self.heads, self.head_dim))
        return logits, values

