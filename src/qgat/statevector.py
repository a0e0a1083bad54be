"""Dense complex statevector simulation.

States live in the computational basis with qubit 0 as the most
significant bit of the basis index, so ``|10>`` is index 2.  Rotation
conventions are R(theta) = exp(-i*theta*G/2) for G in {Y, Z}.

The ``*_batch`` kernels apply one gate to a whole (B, 2^n) block of
states at once, with stride-based bit indexing.  The variational circuit
runs them on the 2^n basis rows to build its unitary and in its adjoint
sweep; the edges of a graph never pass through them.  A single state is
the B = 1 case.

``encode_batch`` returns real float64 rows: amplitude-encoded real features
carry no phase, and the circuit multiplies them into its complex unitary as
a real GEMM.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

NORM_EPS = 1e-12


# -- cached index machinery ---------------------------------------------


@lru_cache(maxsize=None)
def _cnot_permutation(n: int, control: int, target: int) -> np.ndarray:
    idx = np.arange(1 << n)
    ctrl_bit = (idx >> (n - 1 - control)) & 1
    perm = idx ^ (ctrl_bit << (n - 1 - target))
    perm.setflags(write=False)
    return perm


def _check_qubit(n: int, qubit: int) -> None:
    if not 0 <= qubit < n:
        raise IndexError(f"qubit {qubit} out of range for {n} qubits")


@lru_cache(maxsize=None)
def z_signs(n: int, qubit: int) -> np.ndarray:
    """Diagonal of Z on ``qubit``: +1 where the qubit's bit is 0, else -1."""
    _check_qubit(n, qubit)
    idx = np.arange(1 << n)
    signs = 1.0 - 2.0 * ((idx >> (n - 1 - qubit)) & 1)
    signs.setflags(write=False)
    return signs


@lru_cache(maxsize=None)
def z_sign_matrix(n: int) -> np.ndarray:
    """(2^n, n) matrix whose column q is the Z diagonal of qubit q."""
    mat = np.stack([z_signs(n, q) for q in range(n)], axis=1)
    mat.setflags(write=False)
    return mat


def _axis_view(states: np.ndarray, n: int, qubit: int) -> np.ndarray:
    _check_qubit(n, qubit)
    b = states.shape[0]
    return states.reshape(b, 1 << qubit, 2, 1 << (n - 1 - qubit))


# -- batched kernels ------------------------------------------------------


def ry_batch(states: np.ndarray, n: int, qubit: int, angle: float) -> np.ndarray:
    v = _axis_view(states, n, qubit)
    c, s = np.cos(angle / 2.0), np.sin(angle / 2.0)
    a0 = v[:, :, 0, :].copy()
    a1 = v[:, :, 1, :]
    v[:, :, 0, :] = c * a0 - s * a1
    v[:, :, 1, :] = s * a0 + c * a1
    return states


def rz_batch(states: np.ndarray, n: int, qubit: int, angle: float) -> np.ndarray:
    v = _axis_view(states, n, qubit)
    phase = np.exp(-0.5j * angle)
    v[:, :, 0, :] *= phase
    v[:, :, 1, :] *= np.conj(phase)
    return states


def cnot_batch(states: np.ndarray, n: int, control: int, target: int) -> np.ndarray:
    if not (0 <= control < n and 0 <= target < n):
        raise IndexError(f"wires ({control}, {target}) out of range for {n} qubits")
    return states[:, _cnot_permutation(n, control, target)]


def pauli_y_half_batch(states: np.ndarray, n: int, qubit: int) -> np.ndarray:
    """Apply (-i*Y/2) on ``qubit``; real antisymmetric, used by adjoint sweeps."""
    v = _axis_view(states, n, qubit)
    out = np.empty_like(states)
    ov = _axis_view(out, n, qubit)
    ov[:, :, 0, :] = -0.5 * v[:, :, 1, :]
    ov[:, :, 1, :] = 0.5 * v[:, :, 0, :]
    return out


def pauli_z_half_batch(states: np.ndarray, n: int, qubit: int) -> np.ndarray:
    """Apply (-i*Z/2) on ``qubit``."""
    return states * (-0.5j * z_signs(n, qubit))


def encode_batch(x: np.ndarray, n_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """Amplitude-encode rows of ``x``: zero-pad to 2^n, L2-normalize.

    Rows with norm below NORM_EPS become the |0...0> basis state.  Returns
    (states (B, 2^n) real float64, norms (B,)); zero rows report norm 0.
    Real amplitudes are all the circuit needs; cast them to complex before
    running the gate kernels on them.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("encode_batch expects a 2-D array of row vectors")
    dim = 1 << n_qubits
    if x.shape[1] > dim:
        raise ValueError(f"input length {x.shape[1]} exceeds 2^{n_qubits} = {dim}")
    if not np.all(np.isfinite(x)):
        raise ValueError("input contains non-finite entries")
    padded = np.zeros((x.shape[0], dim), dtype=np.float64)
    padded[:, : x.shape[1]] = x
    norms = np.linalg.norm(padded, axis=1)
    degenerate = norms < NORM_EPS
    safe = np.where(degenerate, 1.0, norms)
    padded /= safe[:, None]
    padded[degenerate] = 0.0
    padded[degenerate, 0] = 1.0
    return padded, np.where(degenerate, 0.0, norms)

