"""Strongly-entangling variational ansatz: forward expectations and adjoint gradients.

Each block applies a per-qubit Z-Y-Z rotation G_j = Rz(u1) Ry(u2) Rz(u3)
(u3 acts first) followed by a CNOT ring whose control-target offset is the
layer's range parameter; ranges cycle 1, 2, ..., M-1, 1, ... so stacked
blocks mix short- and long-range entanglement.  Outputs are the exact
single-qubit Z expectations.

Each call compiles the ansatz once, whatever the batch size B: the gate
list runs on the 2^n basis rows, giving R with row j = U|j>.  The real
encoded rows E (B, 2^n) then give the final states Psi = E R as one real
GEMM, E @ [Re R | Im R], and the expectations as |Psi|^2 @ z_sign_matrix.

Gradients come from one adjoint sweep (Jones & Gacon, arXiv:2009.02823) over
the 2^n rows of (R, C), where the costate C = E^T Lambda, Lambda = Psi * (g Z^T),
folds the batch into one GEMM; as E is real, sum_b 2 Re <Lambda_b, dU x_b>
= sum_j 2 Re <C_j, dU e_j> exactly.  Input gradients are two real GEMMs,
2 (Re Lambda Re R^T + Im Lambda Im R^T), then the normalization Jacobian.
One path serves every qubit count: U costs 16 * 4^n bytes, 4 KB at the
default n = 4 and 16 MB at n = 10.

There are two ways in: ``expectations_op``, the autodiff node the QGAT
layer records, and ``circuit_forward_batch``, plain arrays in and out.  A
single input vector is the B = 1 case of either.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, make_op
from .statevector import (
    cnot_batch,
    encode_batch,
    pauli_y_half_batch,
    pauli_z_half_batch,
    ry_batch,
    rz_batch,
    z_sign_matrix,
)

_EXECUTIONS = 0


def reset_execution_count() -> None:
    global _EXECUTIONS
    _EXECUTIONS = 0


def execution_count() -> int:
    return _EXECUTIONS


def _count_executions(k: int) -> None:
    global _EXECUTIONS
    _EXECUTIONS += k


@dataclass(frozen=True)
class EntanglingLayout:
    """Per-layer CNOT ring ranges; layer l pairs qubit i with (i + r_l) mod M."""

    n_qubits: int
    ranges: tuple[int, ...]

    def cnot_pairs(self, layer: int) -> list[tuple[int, int]]:
        r = self.ranges[layer]
        if r == 0:  # degenerate single-qubit layout: no ring
            return []
        m = self.n_qubits
        return [(i, (i + r) % m) for i in range(m)]


def build_layout(n_qubits: int, n_layers: int) -> EntanglingLayout:
    """Range schedule r = 1, 2, ..., M-1, 1, ... across layers."""
    if n_qubits < 2:
        raise ValueError("entangling layout needs at least 2 qubits")
    if n_layers < 1:
        raise ValueError("entangling layout needs at least 1 layer")
    ranges = tuple((layer % (n_qubits - 1)) + 1 for layer in range(n_layers))
    return EntanglingLayout(n_qubits, ranges)


def _check_shapes(angles: np.ndarray, layout: EntanglingLayout) -> None:
    if angles.shape != (len(layout.ranges), layout.n_qubits, 3):
        raise ValueError(
            f"angle tensor {angles.shape} does not match layout "
            f"({len(layout.ranges)} layers, {layout.n_qubits} qubits)"
        )


def _gate_sequence(angles: np.ndarray, layout: EntanglingLayout):
    """Gates in application order: (kind, wires, angle, angle_index)."""
    for layer in range(angles.shape[0]):
        for q in range(layout.n_qubits):
            yield ("RZ", q, angles[layer, q, 2], (layer, q, 2))
            yield ("RY", q, angles[layer, q, 1], (layer, q, 1))
            yield ("RZ", q, angles[layer, q, 0], (layer, q, 0))
        for c, t in layout.cnot_pairs(layer):
            yield ("CNOT", (c, t), None, None)


def _unitary_rows(angles: np.ndarray, layout: EntanglingLayout) -> np.ndarray:
    """(2^n, 2^n) complex R whose row j is U|j>: the gate list run on the basis rows."""
    n = layout.n_qubits
    rows = np.eye(1 << n, dtype=np.complex128)
    for kind, wires, angle, _ in _gate_sequence(angles, layout):
        if kind == "CNOT":
            rows = cnot_batch(rows, n, *wires)
        elif kind == "RY":
            ry_batch(rows, n, wires, angle)
        else:
            rz_batch(rows, n, wires, angle)
    return rows


def _circuit(inputs: np.ndarray, angles: np.ndarray, layout: EntanglingLayout):
    """Z expectations (B, n_qubits) of a batch of raw input rows, and their backward.

    ``backward(upstream)`` returns the exact gradients of
    sum(upstream * expectations): (grad_angles (L, n_q, 3), grad_inputs (B, input_dim)).
    """
    _check_shapes(angles, layout)
    n = layout.n_qubits
    dim = 1 << n
    encoded, norms = encode_batch(inputs, n)  # E, real (B, 2^n)
    rows = _unitary_rows(angles, layout)
    stacked = np.concatenate([rows.real, rows.imag], axis=1)  # [Re R | Im R]
    psi = encoded @ stacked  # [Re Psi | Im Psi], Psi = E R
    expectations = (psi[:, :dim] ** 2 + psi[:, dim:] ** 2) @ z_sign_matrix(n)

    def backward(upstream: np.ndarray):
        lam = psi * np.tile(upstream @ z_sign_matrix(n).T, 2)  # [Re | Im] of Psi * (g Z^T)
        grad_amp = 2.0 * (lam @ stacked.T)
        # sum_b 2 Re <lam_b, dU x_b> = sum_j 2 Re <C_j, dU e_j> with C = E^T lam
        parts = encoded.T @ lam
        costate = parts[:, :dim] + 1j * parts[:, dim:]
        ket = rows.copy()
        grad_angles = np.zeros_like(angles)
        for kind, wires, angle, aidx in reversed(list(_gate_sequence(angles, layout))):
            if kind == "CNOT":
                ket = cnot_batch(ket, n, *wires)
                costate = cnot_batch(costate, n, *wires)
                continue
            if kind == "RY":
                d_ket = pauli_y_half_batch(ket, n, wires)
            else:
                d_ket = pauli_z_half_batch(ket, n, wires)
            grad_angles[aidx] = 2.0 * np.real(np.vdot(costate, d_ket))
            gate = ry_batch if kind == "RY" else rz_batch
            gate(ket, n, wires, -angle)
            gate(costate, n, wires, -angle)
        radial = np.sum(grad_amp * encoded, axis=1, keepdims=True)
        m = inputs.shape[1]
        grad_inputs = grad_amp[:, :m] - encoded[:, :m] * radial
        nonzero = norms > 0
        grad_inputs[nonzero] /= norms[nonzero, None]
        grad_inputs[~nonzero] = 0.0
        return grad_angles, grad_inputs

    return expectations, backward


def circuit_forward_batch(inputs: np.ndarray, angles: np.ndarray,
                          layout: EntanglingLayout) -> np.ndarray:
    """Z expectations (B, n_qubits) for a batch of raw input rows."""
    inputs = np.asarray(inputs, dtype=np.float64)
    expectations, _ = _circuit(inputs, np.asarray(angles, dtype=np.float64), layout)
    _count_executions(inputs.shape[0])
    return expectations


def expectations_op(inputs: Tensor, angles: Tensor, layout: EntanglingLayout) -> Tensor:
    """Autodiff node: batched circuit expectations with adjoint-mode backward."""
    expectations, backward = _circuit(inputs.data, angles.data, layout)
    _count_executions(inputs.data.shape[0])

    def vjp(g: np.ndarray):
        grad_angles, grad_inputs = backward(g)
        return grad_inputs, grad_angles

    return make_op(expectations, (inputs, angles), vjp)
