"""Independent reference implementations used as test oracles.

Everything here is deliberately brute force -- dense matrices, python
loops, direct definitions -- and shares no code with the package paths it
checks.  There are two exceptions.  ``circuit_reference``, a bit-identity
guard, runs the package's unitary, row blocks and adjoint gate sweep and
differs from ``vqc`` only in the row-level arithmetic around them.
``gradcheck`` asserts on the package's one finite-difference checker,
``autodiff.gradient_errors``, so that every op's tape gradient is checked
the way ``qgat gradcheck`` checks a layer's.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from qgat import statevector as sv
from qgat.autodiff import Tensor, gradient_errors
from qgat.vqc import _gate_sequence, _row_blocks, _unitary_rows

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
P0 = np.array([[1, 0], [0, 0]], dtype=complex)
P1 = np.array([[0, 0], [0, 1]], dtype=complex)


def ry_matrix(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rz_matrix(theta: float) -> np.ndarray:
    return np.array([[np.exp(-0.5j * theta), 0], [0, np.exp(0.5j * theta)]], dtype=complex)


def kron_chain(factors: list[np.ndarray]) -> np.ndarray:
    out = np.array([[1.0]], dtype=complex)
    for f in factors:
        out = np.kron(out, f)
    return out


def single_qubit_unitary(gate: np.ndarray, qubit: int, n: int) -> np.ndarray:
    """Qubit 0 is the most significant bit, matching the package convention."""
    return kron_chain([gate if q == qubit else I2 for q in range(n)])


def controlled_unitary(gate: np.ndarray, control: int, target: int, n: int) -> np.ndarray:
    keep = kron_chain([P0 if q == control else I2 for q in range(n)])
    act = kron_chain([P1 if q == control else (gate if q == target else I2) for q in range(n)])
    return keep + act


def cnot_unitary(control: int, target: int, n: int) -> np.ndarray:
    return controlled_unitary(X, control, target, n)


def z_expectation(state: np.ndarray, qubit: int, n: int) -> float:
    zmat = single_qubit_unitary(Z, qubit, n)
    return float(np.real(np.conj(state) @ zmat @ state))


def encode_reference(x: np.ndarray, n: int) -> np.ndarray:
    padded = np.zeros(1 << n, dtype=complex)
    padded[: len(x)] = x
    norm = np.linalg.norm(padded)
    if norm < 1e-12:
        out = np.zeros(1 << n, dtype=complex)
        out[0] = 1.0
        return out
    return padded / norm


def circuit_unitary(angles: np.ndarray, ranges: tuple[int, ...], n: int) -> np.ndarray:
    """Dense unitary of the strongly-entangling ansatz, built by matrix products."""
    dim = 1 << n
    u = np.eye(dim, dtype=complex)
    for layer in range(angles.shape[0]):
        for q in range(n):
            u1, u2, u3 = angles[layer, q]
            gate = rz_matrix(u1) @ ry_matrix(u2) @ rz_matrix(u3)
            u = single_qubit_unitary(gate, q, n) @ u
        r = ranges[layer]
        if r:
            for i in range(n):
                u = cnot_unitary(i, (i + r) % n, n) @ u
    return u


def circuit_expectations_reference(x: np.ndarray, angles: np.ndarray,
                                   ranges: tuple[int, ...], n: int) -> np.ndarray:
    state = circuit_unitary(angles, ranges, n) @ encode_reference(x, n)
    return np.array([z_expectation(state, q, n) for q in range(n)])


def _weighted_z(upstream: np.ndarray, n: int) -> np.ndarray:
    """The dense observable sum_k g_k Z_k of each row g of ``upstream``, (B, 2^n, 2^n)."""
    zs = np.stack([single_qubit_unitary(Z, q, n) for q in range(n)])
    return np.einsum("bk,kij->bij", upstream, zs)


def parameter_shift_reference(inputs: np.ndarray, angles: np.ndarray,
                              ranges: tuple[int, ...], n: int,
                              upstream: np.ndarray) -> np.ndarray:
    """Exact gradient of f = sum(upstream * expectations) with respect to the
    angles, by parameter shift: every angle enters through exp(-i theta P / 2)
    with P a Pauli, so df/dtheta = [f(theta + pi/2) - f(theta - pi/2)] / 2.
    Each f is read from the dense ``circuit_unitary``."""
    states = np.stack([encode_reference(x, n) for x in inputs])
    observables = _weighted_z(upstream, n)

    def f(shifted):
        psi = states @ circuit_unitary(shifted, ranges, n).T
        return np.einsum("bi,bij,bj->", psi.conj(), observables, psi).real

    grad = np.zeros_like(angles)
    for idx in np.ndindex(angles.shape):
        up, down = angles.copy(), angles.copy()
        up[idx] += np.pi / 2
        down[idx] -= np.pi / 2
        grad[idx] = (f(up) - f(down)) / 2
    return grad


def quadratic_form_reference(inputs: np.ndarray, angles: np.ndarray,
                             ranges: tuple[int, ...], n: int,
                             upstream: np.ndarray) -> np.ndarray:
    """Exact gradient of f = sum(upstream * expectations) with respect to the raw
    rows.  A real row x, zero-padded to 2^n, gives f_b = x^T M x / x^T x with
    M = sum_k g_k Re(U^H Z_k U), so df_b/dx = 2 (M x - f_b x) / x^T x, cut to
    the row's width.  A row below ``NORM_EPS`` encodes as |0...0> whatever its
    entries, so its gradient is 0."""
    u = circuit_unitary(angles, ranges, n)
    padded = np.zeros((len(inputs), 1 << n))
    padded[:, : inputs.shape[1]] = inputs
    grad = np.zeros_like(padded)
    for b, (x, observable) in enumerate(zip(padded, _weighted_z(upstream, n))):
        if np.linalg.norm(x) < sv.NORM_EPS:
            continue
        m = (u.conj().T @ observable @ u).real
        xx = x @ x
        grad[b] = 2 * (m @ x - (x @ m @ x / xx) * x) / xx
    return grad[:, : inputs.shape[1]]


def qgat_logits_reference(a: np.ndarray, b: np.ndarray, dst: np.ndarray, src: np.ndarray,
                          angles: np.ndarray, ranges: tuple[int, ...], n: int,
                          heads: int) -> np.ndarray:
    """(edges, heads) QGAT logits of edge rows a[dst] + b[src], from dense linear
    algebra alone.  An edge row holds one 2^n-wide chunk per circuit
    execution; chunk c, a real x, gives the logit of head c * n + k as the
    Rayleigh quotient x^T M_k x / x^T x with M_k = Re(R diag(z_k) R^H), R
    the matrix whose row j is U|j>, U the dense ``circuit_unitary`` and z_k
    the diagonal of Z on qubit k.  A chunk below ``NORM_EPS`` encodes as
    |0...0>, so its logits are M_k[0, 0].  Logits past ``heads`` are
    dropped."""
    dim = 1 << n
    r = circuit_unitary(angles, ranges, n).T
    observables = [(r @ np.diag(np.diag(single_qubit_unitary(Z, k, n))) @ r.conj().T).real
                   for k in range(n)]
    rows = (a[dst] + b[src]).reshape(len(dst), -1, dim)
    logits = np.zeros(rows.shape[:2] + (n,))
    for e, chunks in enumerate(rows):
        for c, x in enumerate(chunks):
            if np.linalg.norm(x) < sv.NORM_EPS:
                x = np.eye(dim)[0]
            logits[e, c] = [x @ m @ x / (x @ x) for m in observables]
    return logits.reshape(len(dst), -1)[:, :heads]


def circuit_reference(inputs: np.ndarray, angles: np.ndarray, layout, upstream: np.ndarray):
    """(expectations, grad_inputs, grad_angles) of the batched circuit, for the
    gradients of sum(upstream * expectations), with the plainest row arithmetic:
    a zero-filled encode that always rewrites degenerate rows, the costate
    factor g Z^T tiled over [Re | Im], the 2 applied after the input GEMM, and
    the normalization Jacobian through boolean-mask gathers and scatters.  The
    costate E^T Lambda adds up over ``vqc``'s row blocks, in their order, as
    the circuit's does: a whole-batch GEMM would add the rows in another order."""
    n = layout.n_qubits
    dim = 1 << n
    encoded = np.zeros((len(inputs), dim))
    encoded[:, : inputs.shape[1]] = inputs
    norms = np.linalg.norm(encoded, axis=1)
    degenerate = norms < sv.NORM_EPS
    encoded /= np.where(degenerate, 1.0, norms)[:, None]
    encoded[degenerate] = 0.0
    encoded[degenerate, 0] = 1.0
    norms = np.where(degenerate, 0.0, norms)

    rows = _unitary_rows(angles, layout)
    stacked = np.concatenate([rows.real, rows.imag], axis=1)
    zmat = sv.z_sign_matrix(n)
    psi = encoded @ stacked
    expectations = (psi[:, :dim] ** 2 + psi[:, dim:] ** 2) @ zmat

    lam = psi * np.tile(upstream @ zmat.T, 2)
    grad_amp = 2.0 * (lam @ stacked.T)
    parts = np.zeros((dim, 2 * dim))
    for blk in _row_blocks(len(inputs), dim):
        parts += encoded[blk].T @ lam[blk]
    costate = parts[:, :dim] + 1j * parts[:, dim:]
    ket = rows.copy()
    grad_angles = np.zeros_like(angles)
    for kind, wires, angle, aidx in reversed(list(_gate_sequence(angles, layout))):
        if kind == "CNOT":
            ket = sv.cnot_batch(ket, n, *wires)
            costate = sv.cnot_batch(costate, n, *wires)
            continue
        half = sv.pauli_y_half_batch if kind == "RY" else sv.pauli_z_half_batch
        grad_angles[aidx] = 2.0 * np.real(np.vdot(costate, half(ket, n, wires)))
        gate = sv.ry_batch if kind == "RY" else sv.rz_batch
        gate(ket, n, wires, -angle)
        gate(costate, n, wires, -angle)
    radial = np.sum(grad_amp * encoded, axis=1, keepdims=True)
    m = inputs.shape[1]
    grad_inputs = grad_amp[:, :m] - encoded[:, :m] * radial
    nonzero = norms > 0
    grad_inputs[nonzero] /= norms[nonzero, None]
    grad_inputs[~nonzero] = 0.0
    return expectations, grad_inputs, grad_angles


# -- segment references ---------------------------------------------------


def segment_sum_reference(values, seg, n_segments: int) -> np.ndarray:
    """Per-segment sums: each segment's values, column by column, sorted as
    Python floats and added left to right.  An empty segment sums to 0.0."""
    values = np.asarray(values, dtype=np.float64)
    flat = values.reshape(len(values), int(np.prod(values.shape[1:])))
    out = np.zeros((n_segments, flat.shape[1]))
    for s in range(n_segments):
        rows = [r for r in range(len(seg)) if seg[r] == s]
        for c in range(flat.shape[1]):
            column = sorted(float(flat[r, c]) for r in rows)
            if column:
                total = column[0]
                for v in column[1:]:
                    total += v
                out[s, c] = total
    return out.reshape((n_segments,) + values.shape[1:])


def segment_max_reference(values, seg, n_segments: int) -> np.ndarray:
    """Per-segment maxima: each segment's values, column by column, in row
    order, each one taking the running maximum's place unless it is below
    it, so that of equal values (zeros of either sign) the last one's bits
    stay, as numpy's ``maximum`` keeps its second operand; a NaN stays.  An
    empty segment gives -inf."""
    values = np.asarray(values, dtype=np.float64)
    flat = values.reshape(len(values), int(np.prod(values.shape[1:])))
    out = np.full((n_segments, flat.shape[1]), -np.inf)
    for s in range(n_segments):
        rows = [r for r in range(len(seg)) if seg[r] == s]
        for c in range(flat.shape[1]):
            best = -np.inf
            for r in rows:
                v = float(flat[r, c])
                if not v < best and best == best:
                    best = v
            out[s, c] = best
    return out.reshape((n_segments,) + values.shape[1:])


# -- graph references -----------------------------------------------------


def canonical_edges_reference(n_nodes: int, edges, undirected: bool):
    """(edges, undirected pairs, attention (src, dst)) of an edge list, from a
    Python set of (src, dst) tuples: self-loops dropped, the reverse of each
    edge added when ``undirected``; edges and pairs sorted by their tuples,
    the attention edges (one self-loop per node added) by (dst, src)."""
    directed = {(int(s), int(d)) for s, d in edges if s != d}
    if undirected:
        directed |= {(d, s) for s, d in directed}
    pairs = {(min(s, d), max(s, d)) for s, d in directed}
    by_dst = sorted([(d, s) for s, d in directed] + [(u, u) for u in range(n_nodes)])

    def rows(tuples) -> np.ndarray:
        return np.array(tuples, dtype=np.int64).reshape(-1, 2)

    attention = rows(by_dst)
    return (rows(sorted(directed)), rows(sorted(pairs)),
            (attention[:, 1].copy(), attention[:, 0].copy()))


def free_pairs_reference(n_nodes: int, edges, rng: np.random.Generator,
                         size: int) -> np.ndarray:
    """Enumerate every non-adjacent pair (u < v) row by row, then index it by
    the ranks ``rng.choice`` draws."""
    adj = np.zeros((n_nodes, n_nodes), dtype=bool)
    for u, v in edges:
        adj[u, v] = adj[v, u] = True
    free = [(u, v) for u in range(n_nodes) for v in range(u + 1, n_nodes) if not adj[u, v]]
    if size > len(free):
        raise ValueError(f"only {len(free)} non-adjacent pairs")
    ranks = rng.choice(len(free), size=size, replace=False)
    return np.array([free[r] for r in ranks], dtype=np.int64).reshape(-1, 2)


def sbm_pairs_reference(labels, p_in: float, p_out: float,
                       rng: np.random.Generator) -> np.ndarray:
    """SBM pairs (u < v) from one uniform draw over every node pair, in the
    row-major order of the dense upper triangle."""
    iu, ju = np.triu_indices(len(labels), k=1)
    keep = rng.random(len(iu)) < np.where(labels[iu] == labels[ju], p_in, p_out)
    return np.stack([iu[keep], ju[keep]], axis=1)


# -- metric references ---------------------------------------------------


def accuracy_reference(logits, labels) -> float:
    correct = 0
    for row, label in zip(logits, labels):
        best = max(range(len(row)), key=lambda j: row[j])
        correct += best == label
    return correct / len(labels)


def micro_f1_reference(logits, labels) -> float:
    tp = fp = fn = 0
    for row, truth in zip(logits, labels):
        for score, t in zip(row, truth):
            pred = score > 0
            if pred and t:
                tp += 1
            elif pred and not t:
                fp += 1
            elif not pred and t:
                fn += 1
    denom = 2 * tp + fp + fn
    return 1.0 if denom == 0 else 2 * tp / denom


def hits_at_k_reference(pos_scores, neg_scores, k) -> float:
    if len(neg_scores) < k:
        return 1.0
    kth = sorted(neg_scores, reverse=True)[k - 1]
    return sum(1 for p in pos_scores if p > kth) / len(pos_scores)


def mrr_reference(pos_scores, neg_scores) -> float:
    import math

    reciprocals = []
    for p in pos_scores:
        rank = 1 + sum(1 for q in neg_scores if q > p)
        reciprocals.append(1.0 / rank)
    return math.fsum(reciprocals) / len(pos_scores)


def gradcheck(fn: Callable[..., Tensor], tensors: Sequence[Tensor], eps: float = 1e-6,
              rtol: float = 1e-5, atol: float = 1e-8) -> float:
    """Assert ``gradient_errors`` stays within ``rtol`` for every tensor; returns the worst."""
    errors = gradient_errors(fn, tensors, eps, rtol, atol)
    for i, err in enumerate(errors):
        if not err <= rtol:
            raise AssertionError(f"gradient mismatch in tensor {i}: relative error {err:.3e}")
    return max(errors, default=0.0)
