"""Graph attention: one layer, with the logit of QGAT, GAT or GATv2 as its scorer.

Every model kind is one message-passing layer, ``_AttentionLayer``, holding
one scorer from ``SCORERS``.  The scorer owns its parameters and supplies node
terms a, b and v; edge j -> i gets logit f(a_i + b_j) and value v_j.  Then
the layer takes the softmax over each in-neighborhood (self-loop included)
and the weighted sum.  A hidden layer concatenates its heads and applies ELU;
the output layer averages them and applies no activation.  Dropout and the
residual follow.  Scorers differ only in a, b, v and f.
GAT and GATv2 make the edge rows a_i + b_j in one op (``autodiff.edge_sum``),
which keeps no gathered rows on the tape; QGAT hands a, b and the edge
layouts to its circuit as ``autodiff.EdgeRows``, and the circuit makes the
rows in its forward and again in its backward.  ``neighborhood_softmax`` makes
the softmax numerators z and their per-node sums, and
``autodiff.softmax_aggregate`` runs from the logits to the aggregated output,
reading v at node level.  Its tape keeps z, the per-node sums, the boolean
dropout mask and v: one (edges, heads) float array per layer.

QGAT logits: the projected pair [W h_i || W h_j || h_i || h_j] is compressed
to length 2^n_q * ceil(heads / n_q), chunked, amplitude-encoded, and run
through a shared strongly-entangling circuit; Z expectations (one per qubit
per execution) become the per-head logits, surplus tail values dropped.  No
LeakyReLU is applied to quantum logits.  The compression is linear, so its
rows split into a_i = [W h_i || h_i] P_dst and b_j = [W h_j || h_j] P_src,
four row slices (``autodiff.tslice``) of ``compress``.  The circuit's tape
keeps a, b (nodes, 2^n_q * n_exec) and one norm per execution, not the
encoded (edges * n_exec, 2^n_q) rows.
QGAT and GAT values are per-head column slices of the shared multi-head
projection W h; GATv2's are its source projection.

``forward`` is the one way into a layer; it records the circuit through
``vqc.expectations_op`` so the tape carries its adjoint gradients, and
reduces over the graph's cached ``Graph.attention_segments``.
"""

from __future__ import annotations

import numpy as np

from . import vqc
from .autodiff import (
    EdgeRows,
    Segments,
    Tensor,
    dropout,
    edge_sum,
    elu,
    keep_mask,
    leaky_relu,
    matmul,
    mul,
    reshape,
    segment_max,
    segment_sum,
    softmax_aggregate,
    take_rows,  # noqa: F401  perfbench's tracer patches attention.take_rows
    tmean,
    tslice,
    tsum,
)
from .graph import Graph


def glorot(rng: np.random.Generator, shape: tuple[int, ...]) -> Tensor:
    limit = np.sqrt(6.0 / (shape[0] + shape[-1]))
    return Tensor(rng.uniform(-limit, limit, shape), requires_grad=True)


def neighborhood_softmax(logits: np.ndarray, dst: Segments) -> tuple[np.ndarray, np.ndarray]:
    """The terms of the per-(destination, head) softmax of the (edges, heads)
    ``logits``, stabilized by max-subtraction: the numerators
    z = exp(logits - shift[dst]), with shift the per-node maxima, and their
    per-node sums den, so that alpha = z / den[dst].  Plain arrays, recorded
    on no tape: ``softmax_aggregate`` divides and differentiates."""
    z = logits - np.take(segment_max(logits, dst), dst.index, axis=0)
    np.exp(z, out=z)
    return z, segment_sum(Tensor(z), dst).data


class CircuitScorer:
    """QGAT: the Z expectations of a strongly-entangling circuit on the
    compressed, amplitude-encoded pair [W h_i || W h_j || h_i || h_j]."""

    def __init__(self, in_dim: int, head_dim: int, heads: int, rng: np.random.Generator, *,
                 n_qubits: int, entangling_layers: int):
        self.in_dim = in_dim
        self.heads = heads
        self.layout = vqc.build_layout(n_qubits, entangling_layers)
        self.n_qubits = n_qubits
        self.n_exec = -(-heads // n_qubits)  # circuit executions per edge
        self.encoding_dim = (1 << n_qubits) * self.n_exec
        compress_in = 2 * heads * head_dim + 2 * in_dim
        self.params = {
            "feat_proj": glorot(rng, (in_dim, heads * head_dim)),
            "compress": glorot(rng, (compress_in, self.encoding_dim)),
            "angles": Tensor(rng.uniform(0.0, 2.0 * np.pi, (entangling_layers, n_qubits, 3)),
                             requires_grad=True),
        }

    def node_terms(self, h: Tensor):
        proj = matmul(h, self.params["feat_proj"])
        # compress rows, in the order of [W h_i || W h_j || h_i || h_j]
        bounds = np.cumsum([0, proj.shape[1], proj.shape[1], self.in_dim, self.in_dim]).tolist()
        w_dst, w_src, h_dst, h_src = (tslice(self.params["compress"], np.s_[lo:hi])
                                      for lo, hi in zip(bounds, bounds[1:]))
        a = matmul(proj, w_dst) + matmul(h, h_dst)
        b = matmul(proj, w_src) + matmul(h, h_src)
        return a, b, proj

    def edge_logits(self, a: Tensor, b: Tensor, dst: Segments, src: Segments) -> Tensor:
        rows = EdgeRows(a, b, dst, src, 1 << self.n_qubits)
        expectations = vqc.expectations_op(rows, self.params["angles"], self.layout)
        per_edge = reshape(expectations, (len(dst), self.n_exec * self.n_qubits))
        return tslice(per_edge, np.s_[:, :self.heads])


class GatScorer:
    """Classical GAT: LeakyReLU(a^T [W h_i || W h_j]) logits.  The circuit
    sizes a layer passes every scorer go unused."""

    def __init__(self, in_dim: int, head_dim: int, heads: int, rng: np.random.Generator,
                 **_circuit):
        self.heads = heads
        self.head_dim = head_dim
        self.params = {
            "feat_proj": glorot(rng, (in_dim, heads * head_dim)),
            "attn_dst": glorot(rng, (heads, head_dim)),
            "attn_src": glorot(rng, (heads, head_dim)),
        }

    def node_terms(self, h: Tensor):
        proj = matmul(h, self.params["feat_proj"])
        proj3 = reshape(proj, (h.shape[0], self.heads, self.head_dim))
        score_dst = tsum(mul(proj3, self.params["attn_dst"]), axis=2)
        score_src = tsum(mul(proj3, self.params["attn_src"]), axis=2)
        return score_dst, score_src, proj

    def edge_logits(self, a: Tensor, b: Tensor, dst: Segments, src: Segments) -> Tensor:
        return leaky_relu(edge_sum(a, b, dst, src))


class Gatv2Scorer:
    """GATv2: a^T LeakyReLU(W_dst h_i + W_src h_j) logits (joint transform
    first); the values are the source projection W_src h.  The circuit sizes
    go unused."""

    def __init__(self, in_dim: int, head_dim: int, heads: int, rng: np.random.Generator,
                 **_circuit):
        self.heads = heads
        self.head_dim = head_dim
        self.params = {
            "proj_src": glorot(rng, (in_dim, heads * head_dim)),
            "proj_dst": glorot(rng, (in_dim, heads * head_dim)),
            "attn": glorot(rng, (heads, head_dim)),
        }

    def node_terms(self, h: Tensor):
        pl = matmul(h, self.params["proj_src"])
        return matmul(h, self.params["proj_dst"]), pl, pl

    def edge_logits(self, a: Tensor, b: Tensor, dst: Segments, src: Segments) -> Tensor:
        joint3 = leaky_relu(reshape(edge_sum(a, b, dst, src),
                                    (len(dst), self.heads, self.head_dim)))
        return tsum(mul(joint3, self.params["attn"]), axis=2)


SCORERS = {"qgat": CircuitScorer, "gat": GatScorer, "gatv2": Gatv2Scorer}
MODEL_KINDS = tuple(SCORERS)


class _AttentionLayer:
    """The one attention layer, and the one place that reads edge rows: its
    scorer (``SCORERS[kind]``) gives ``node_terms(h) -> (a, b, v)``, one row
    per node, and ``edge_logits(a, b, dst, src)``, the (edges, heads) logits
    of z = a[dst] + b[src]; edge values are v[src], weighted and summed by
    ``softmax_aggregate`` without being gathered.  ``circuit``, the keywords
    ``n_qubits`` and ``entangling_layers``, sizes a QGAT scorer's circuit.

    The residual's ``shortcut`` is drawn from ``rng`` before the scorer's
    parameters, and ``params`` lists it after them."""

    def __init__(self, kind: str, in_dim: int, head_dim: int, heads: int, *,
                 output: bool = False, dropout: float = 0.0, rng: np.random.Generator,
                 **circuit):
        if heads < 1 or head_dim < 1 or in_dim < 1:
            raise ValueError("dims and head count must be >= 1")
        if not 0.0 <= dropout < 1.0:
            raise ValueError("dropout rate must lie in [0, 1)")
        self.in_dim = in_dim
        self.head_dim = head_dim
        self.heads = heads
        self.output = output
        self.dropout_rate = dropout
        self.out_dim = head_dim if output else heads * head_dim
        self.shortcut = None
        if in_dim != self.out_dim:
            self.shortcut = glorot(rng, (in_dim, self.out_dim))
        self.scorer = SCORERS[kind](in_dim, head_dim, heads, rng, **circuit)

    def params(self) -> dict[str, Tensor]:
        named = dict(self.scorer.params)
        if self.shortcut is not None:
            named["shortcut"] = self.shortcut
        return named

    def _drops(self, training: bool, rng: np.random.Generator | None) -> bool:
        if not training or self.dropout_rate == 0.0:
            return False
        if rng is None:
            raise ValueError("training-mode dropout needs an RNG")
        return True

    def _drop(self, t: Tensor, training: bool, rng: np.random.Generator | None) -> Tensor:
        return dropout(t, self.dropout_rate, rng) if self._drops(training, rng) else t

    def forward(self, graph: Graph, features, *, training: bool = False,
                rng: np.random.Generator | None = None) -> Tensor:
        x = features if isinstance(features, Tensor) else Tensor(features)
        if x.shape[1] != self.in_dim:
            raise ValueError(f"feature dim {x.shape[1]} != layer input dim {self.in_dim}")
        src, dst = graph.attention_segments()
        n = graph.n_nodes
        a, b, v = self.scorer.node_terms(self._drop(x, training, rng))
        logits = self.scorer.edge_logits(a, b, dst, src)
        z, den = neighborhood_softmax(logits.data, dst)
        kept = (keep_mask(z.shape, self.dropout_rate, rng)
                if self._drops(training, rng) else None)
        # the aggregation reads v as (nodes, heads, head_dim)
        agg = softmax_aggregate(logits, reshape(v, (n, self.heads, self.head_dim)), z, den,
                                src, dst, kept, self.dropout_rate)
        if self.output:
            merged = tmean(agg, axis=1)
        else:
            merged = elu(reshape(agg, (n, self.heads * self.head_dim)))
        out = self._drop(merged, training, rng)
        residual = x if self.shortcut is None else matmul(x, self.shortcut)
        return out + residual
