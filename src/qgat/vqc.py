"""Strongly-entangling variational ansatz: forward expectations and adjoint gradients.

Each block applies a per-qubit Z-Y-Z rotation G_j = Rz(u1) Ry(u2) Rz(u3)
(u3 acts first) followed by a CNOT ring whose control-target offset is the
layer's range parameter; ranges cycle 1, 2, ..., M-1, 1, ... so stacked
blocks mix short- and long-range entanglement.  Outputs are the exact
single-qubit Z expectations.

Each call compiles the ansatz once, whatever the batch size B: the gate
list runs on the 2^n basis rows, giving R with row j = U|j>.  The real
encoded rows E (B, 2^n) then give the final states Psi = E R as real GEMMs,
E @ [Re R | Im R], and the expectations as |Psi|^2 @ z_sign_matrix.

Gradients come from one adjoint sweep (Jones & Gacon, arXiv:2009.02823) over
the 2^n rows of (R, C), where the costate C = E^T Lambda, Lambda = Psi * (g Z^T),
folds the batch into one (2^n, 2^n) matrix; as E is real,
sum_b 2 Re <Lambda_b, dU x_b> = sum_j 2 Re <C_j, dU e_j> exactly.  Input
gradients are two real GEMMs, 2 (Re Lambda Re R^T + Im Lambda Im R^T), then
the normalization Jacobian.  One path serves every qubit count: U costs
16 * 4^n bytes, 4 KB at the default n = 4 and 16 MB at n = 10.

Every pass over the batch goes one row block (``_row_blocks``) at a time.
The forward makes a block's raw rows, encodes them in place
(``statevector.encode_fresh``) and runs them, and keeps only their norms
and expectations.  The backward makes them again and re-encodes
them with ``statevector.reencode`` and the stored norms, the forward's
arithmetic without its norm pass; it forms the block's Psi and Lambda, adds
E_blk^T Lambda_blk into C and writes the block's input gradient into the one
(B, width) output.  So E, Psi and Lambda exist for one block only, and the
circuit holds no (B, .) array but its norms, its expectations and its input
gradient.  The VJP keeps the norms, R and what makes the rows.  Values and
input gradients do not depend on the blocks; the angle gradients' last bits
do, through the order in which C adds them up.

There is one way in, ``expectations_op``, the autodiff node;
``circuit_forward_batch`` is that node on constant Tensors, plain arrays in
and out.  The node takes a (B, width) rows Tensor, whose array its VJP
keeps, or ``autodiff.EdgeRows``, the rows a_i + b_j that the QGAT layer
gives by its node-level terms and edge layouts: the VJP then keeps a's and
b's (nodes, k * 2^n) arrays, the circuit gathers one block's edge rows from
them at a time, and a's and b's gradients come back through ``edge_sum``'s
VJP.  A single input vector is the B = 1 case of either.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .autodiff import EdgeRows, Tensor, make_op
from .statevector import (
    cnot_batch,
    encode_batch,  # noqa: F401  perfbench's tracer patches vqc.encode_batch
    encode_fresh,
    pauli_y_half_batch,
    pauli_z_half_batch,
    reencode,
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
    """Range schedule r = 1, 2, ..., M-1, 1, ... across layers; one qubit has
    no ring, so its ranges are all 0."""
    if n_qubits < 1 or n_layers < 1:
        raise ValueError(f"entangling layout needs at least 1 qubit and 1 layer, "
                         f"got {n_qubits} and {n_layers}")
    ranges = tuple(layer % (n_qubits - 1) + 1 if n_qubits > 1 else 0
                   for layer in range(n_layers))
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


# amplitudes in one row block of the circuit's Psi = E R: 2,048 rows at n = 4
BLOCK_AMPS = 1 << 15


def _row_blocks(batch: int, dim: int) -> list[slice]:
    """Balanced row blocks of at most BLOCK_AMPS amplitudes each.  A block has
    one row only when the batch has: a one-row GEMM takes another BLAS path
    and rounds differently."""
    count = max(1, min(-(-batch * dim // BLOCK_AMPS), batch // 2))
    bounds = [i * batch // count for i in range(count + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _circuit(read_rows: Callable[[slice], np.ndarray], shape: tuple[int, int],
             angles: np.ndarray, layout: EntanglingLayout):
    """Z expectations (B, n_qubits) of a batch of (B, width) raw input rows,
    width <= 2^n, and their backward.

    ``read_rows(rows)`` makes the rows of the slice ``rows`` as a fresh array.
    The forward reads, encodes and runs one row block at a time and keeps of
    the batch only the norms; the backward reads each block again and
    re-encodes it with those norms.  ``backward(upstream)`` returns the exact
    gradients of sum(upstream * expectations): (grad_angles (L, n_q, 3),
    grad_rows (B, width)), the second written block by block into one array.
    No other (B, .) array exists: E, Psi and Lambda exist one block at a time.
    """
    _check_shapes(angles, layout)
    n = layout.n_qubits
    dim = 1 << n
    batch, width = shape
    rows = _unitary_rows(angles, layout)
    stacked = np.concatenate([rows.real, rows.imag], axis=1)  # [Re R | Im R]
    blocks = _row_blocks(batch, dim)
    norms = np.empty(batch)
    expectations = np.empty((batch, n))
    for blk in blocks:
        encoded, norms[blk] = encode_fresh(read_rows(blk), n)  # E, real (b, 2^n)
        psi = encoded @ stacked  # [Re Psi | Im Psi], Psi = E R
        expectations[blk] = (psi[:, :dim] ** 2 + psi[:, dim:] ** 2) @ z_sign_matrix(n)

    def backward(upstream: np.ndarray):
        # sum_b 2 Re <lam_b, dU x_b> = sum_j 2 Re <C_j, dU e_j> with C = E^T lam,
        # added up block by block
        parts = np.zeros((dim, 2 * dim))
        twice = 2.0 * stacked.T  # a power of two: the bits of 2.0 * (lam @ stacked.T)
        grad_rows = np.empty((batch, width))
        for blk in blocks:
            encoded = reencode(read_rows(blk), norms[blk], n)
            lam = encoded @ stacked
            # [Re | Im] of Psi * (g Z^T) in Psi's place, the one (b, 2^n) factor
            # broadcast over both halves
            halves = lam.reshape(len(lam), 2, dim)
            np.multiply(halves, (upstream[blk] @ z_sign_matrix(n).T)[:, None], out=halves)
            parts += encoded.T @ lam
            grad_amp = lam @ twice
            radial = np.sum(grad_amp * encoded, axis=1, keepdims=True)
            encoded *= radial
            np.subtract(grad_amp, encoded, out=encoded)
            nonzero = norms[blk] > 0
            np.divide(encoded[:, :width], norms[blk, None], out=grad_rows[blk],
                      where=nonzero[:, None])
            grad_rows[blk][~nonzero] = 0.0
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
        return grad_angles, grad_rows

    return expectations, backward


def circuit_forward_batch(inputs: np.ndarray, angles: np.ndarray,
                          layout: EntanglingLayout) -> np.ndarray:
    """Z expectations (B, n_qubits) of raw input rows: ``expectations_op`` on constants."""
    return expectations_op(Tensor(inputs), Tensor(angles), layout).data


def expectations_op(inputs: Tensor | EdgeRows, angles: Tensor,
                    layout: EntanglingLayout) -> Tensor:
    """Autodiff node: batched circuit expectations with adjoint-mode backward.

    ``inputs`` is a (B, width) Tensor of rows, or ``EdgeRows``, rows given by
    node-level Tensors a and b and the edge layouts, whose gradients the VJP
    returns through ``edge_sum``'s VJP.  The circuit reads the rows one row
    block at a time, in the forward and again in the backward: a block is a
    slice of the Tensor's array, or the edge rows ``EdgeRows.reader`` gathers
    for it.  The tape keeps the row norms and the rows Tensor's array, or a's
    and b's arrays, never the encoded rows.
    """
    if isinstance(inputs, Tensor):
        data = inputs.data
        parents, shape, input_grads = (inputs,), data.shape, lambda grad_rows: (grad_rows,)

        def read_rows(rows):
            return data[rows].copy()
    else:
        parents, shape = (inputs.a, inputs.b), (len(inputs), inputs.width)
        read_rows, input_grads = inputs.reader(), inputs.grads()
    expectations, backward = _circuit(read_rows, shape, angles.data, layout)
    _count_executions(len(expectations))

    def vjp(g: np.ndarray):
        grad_angles, grad_rows = backward(g)
        return (*input_grads(grad_rows), grad_angles)

    return make_op(expectations, (*parents, angles), vjp)
