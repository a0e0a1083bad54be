"""Independent reference implementations used as test oracles.

Everything here is deliberately brute force -- dense matrices, python
loops, direct definitions -- and shares no code with the package paths it
checks.
"""

from __future__ import annotations

import numpy as np

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


# -- graph references -----------------------------------------------------


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
