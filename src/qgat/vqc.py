"""Strongly-entangling variational ansatz: forward expectations and adjoint gradients.

Each block applies a per-qubit Z-Y-Z rotation G_j = Rz(u1) Ry(u2) Rz(u3)
(u3 acts first) followed by a CNOT ring whose control-target offset is the
layer's range parameter; ranges cycle 1, 2, ..., M-1, 1, ... so stacked
blocks mix short- and long-range entanglement.  Outputs are the exact
single-qubit Z expectations.

Gradients come from one adjoint sweep: a costate and a state are walked
backwards through the inverted gate list, yielding exact derivatives with
respect to every rotation angle and, through the encoding's normalization
Jacobian, every raw input component.  Cost is O(layers * qubits) extra
gate applications regardless of parameter count.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

import numpy as np

from .autodiff import Tensor, make_op
from .statevector import (
    cnot_batch,
    encode_batch,
    expect_z_all_batch,
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


@dataclass
class CircuitParams:
    """Trainable rotation angles, one (u1, u2, u3) triple per layer and qubit."""

    n_layers: int
    n_qubits: int
    angles: np.ndarray  # (n_layers, n_qubits, 3), radians

    def __post_init__(self) -> None:
        self.angles = np.asarray(self.angles, dtype=np.float64)
        expected = (self.n_layers, self.n_qubits, 3)
        if self.angles.shape != expected:
            raise ValueError(f"angle tensor shape {self.angles.shape}, expected {expected}")
        if not np.all(np.isfinite(self.angles)):
            raise ValueError("angle tensor contains non-finite entries")

    @classmethod
    def random(cls, n_layers: int, n_qubits: int, rng: np.random.Generator) -> "CircuitParams":
        return cls(n_layers, n_qubits, rng.uniform(0.0, 2.0 * np.pi, (n_layers, n_qubits, 3)))


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


def executions_needed(n_heads: int, n_qubits: int) -> int:
    """Circuit executions required to produce ``n_heads`` expectation values."""
    return ceil(n_heads / n_qubits)


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


def _run_batch(inputs: np.ndarray, angles: np.ndarray, layout: EntanglingLayout):
    n = layout.n_qubits
    states, norms = encode_batch(inputs, n)
    for kind, wires, angle, _ in _gate_sequence(angles, layout):
        if kind == "CNOT":
            states = cnot_batch(states, n, *wires)
        elif kind == "RY":
            ry_batch(states, n, wires, angle)
        else:
            rz_batch(states, n, wires, angle)
    return states, norms


def circuit_forward_batch(inputs: np.ndarray, angles: np.ndarray,
                          layout: EntanglingLayout) -> np.ndarray:
    """Z expectations (B, n_qubits) for a batch of raw input rows."""
    inputs = np.asarray(inputs, dtype=np.float64)
    _check_shapes(np.asarray(angles), layout)
    states, _ = _run_batch(inputs, np.asarray(angles), layout)
    _count_executions(inputs.shape[0])
    return expect_z_all_batch(states, layout.n_qubits)


def circuit_forward(input_amplitudes, params: CircuitParams,
                    layout: EntanglingLayout) -> np.ndarray:
    """Encode one input vector, run the ansatz, return all <Z_k>."""
    if params.n_qubits != layout.n_qubits or params.n_layers != len(layout.ranges):
        raise ValueError("circuit parameters do not match entangling layout")
    x = np.atleast_1d(np.asarray(input_amplitudes, dtype=np.float64))
    return circuit_forward_batch(x[None, :], params.angles, layout)[0]


def _adjoint_batch(inputs: np.ndarray, angles: np.ndarray, layout: EntanglingLayout,
                   upstream: np.ndarray, final_states: np.ndarray | None = None,
                   norms: np.ndarray | None = None):
    """Exact gradients of sum_k upstream_k * <Z_k> per batch row.

    Returns (grad_angles (B, L, n_q, 3), grad_inputs (B, input_dim)).
    """
    n = layout.n_qubits
    if final_states is None or norms is None:
        final_states, norms = _run_batch(inputs, angles, layout)
    ket = final_states.copy()
    costate = ket * (upstream @ z_sign_matrix(n).T)
    grad_angles = np.zeros((inputs.shape[0],) + angles.shape)
    for kind, wires, angle, aidx in reversed(list(_gate_sequence(angles, layout))):
        if kind == "CNOT":
            ket = cnot_batch(ket, n, *wires)
            costate = cnot_batch(costate, n, *wires)
            continue
        if kind == "RY":
            d_ket = pauli_y_half_batch(ket, n, wires)
        else:
            d_ket = pauli_z_half_batch(ket, n, wires)
        grad_angles[(slice(None),) + aidx] = 2.0 * np.real(
            np.sum(np.conj(costate) * d_ket, axis=1)
        )
        if kind == "RY":
            ry_batch(ket, n, wires, -angle)
            ry_batch(costate, n, wires, -angle)
        else:
            rz_batch(ket, n, wires, -angle)
            rz_batch(costate, n, wires, -angle)
    # ket is now the encoded state; costate is U^dag Z_u U |encoded>.
    grad_amp = 2.0 * np.real(costate)
    encoded = np.real(ket)
    radial = np.sum(grad_amp * encoded, axis=1, keepdims=True)
    m = inputs.shape[1]
    grad_inputs = grad_amp[:, :m] - encoded[:, :m] * radial
    nonzero = norms > 0
    grad_inputs[nonzero] /= norms[nonzero, None]
    grad_inputs[~nonzero] = 0.0
    return grad_angles, grad_inputs


def circuit_backward_batch(inputs: np.ndarray, angles: np.ndarray, layout: EntanglingLayout,
                           upstream: np.ndarray):
    inputs = np.asarray(inputs, dtype=np.float64)
    angles = np.asarray(angles, dtype=np.float64)
    upstream = np.asarray(upstream, dtype=np.float64)
    _check_shapes(angles, layout)
    return _adjoint_batch(inputs, angles, layout, upstream)


def circuit_backward(input_amplitudes, params: CircuitParams, layout: EntanglingLayout,
                     upstream_grads):
    """Gradients of sum_k upstream_k * <Z_k> for a single input vector."""
    if params.n_qubits != layout.n_qubits or params.n_layers != len(layout.ranges):
        raise ValueError("circuit parameters do not match entangling layout")
    x = np.atleast_1d(np.asarray(input_amplitudes, dtype=np.float64))
    up = np.atleast_1d(np.asarray(upstream_grads, dtype=np.float64))
    grad_angles, grad_inputs = circuit_backward_batch(x[None, :], params.angles, layout, up[None, :])
    return grad_angles[0], grad_inputs[0]


def expectations_op(inputs: Tensor, angles: Tensor, layout: EntanglingLayout) -> Tensor:
    """Autodiff node: batched circuit expectations with adjoint-mode backward."""
    _check_shapes(angles.data, layout)
    states, norms = _run_batch(inputs.data, angles.data, layout)
    _count_executions(inputs.data.shape[0])
    expectations = expect_z_all_batch(states, layout.n_qubits)

    def vjp(g: np.ndarray):
        grad_angles, grad_inputs = _adjoint_batch(
            inputs.data, angles.data, layout, g, final_states=states, norms=norms
        )
        return grad_inputs, grad_angles.sum(axis=0)

    return make_op(expectations, (inputs, angles), vjp)
