"""Statevector kernels against dense oracles: gates, encoding, Z read-out.

States are (B, 2^n) blocks, the layout the circuit runs every edge in.
"""

import numpy as np
import pytest

from qgat.statevector import (
    cnot_batch,
    encode_batch,
    pauli_z_half_batch,
    ry_batch,
    rz_batch,
    z_sign_matrix,
    z_signs,
)

from oracles import (
    cnot_unitary,
    ry_matrix,
    rz_matrix,
    single_qubit_unitary,
    z_expectation,
)

S2 = 1 / np.sqrt(2)


def basis(n, index):
    states = np.zeros((1, 1 << n), dtype=complex)
    states[0, index] = 1.0
    return states


def random_states(n, rng, rows=3):
    amps = rng.standard_normal((rows, 1 << n)) + 1j * rng.standard_normal((rows, 1 << n))
    return amps / np.linalg.norm(amps, axis=1, keepdims=True)


def random_gate(n, rng):
    """(kind, wires, angle) for one of the gates the circuit emits."""
    kind = rng.choice(["RY", "RZ", "CNOT"] if n >= 2 else ["RY", "RZ"])
    if kind == "CNOT":
        c, t = rng.choice(n, size=2, replace=False)
        return kind, (int(c), int(t)), None
    return kind, int(rng.integers(n)), float(rng.uniform(0, 2 * np.pi))


def apply(states, n, gate):
    kind, wires, angle = gate
    if kind == "RY":
        return ry_batch(states, n, wires, angle)
    if kind == "RZ":
        return rz_batch(states, n, wires, angle)
    return cnot_batch(states, n, *wires)


def gate_unitary(gate, n):
    kind, wires, angle = gate
    if kind == "RY":
        return single_qubit_unitary(ry_matrix(angle), wires, n)
    if kind == "RZ":
        return single_qubit_unitary(rz_matrix(angle), wires, n)
    return cnot_unitary(*wires, n)


def expect_z(states, n):
    """(B, n) matrix of <Z_q> per state row, the way the circuit reads them out."""
    return np.abs(states) ** 2 @ z_sign_matrix(n)


def encode(x, n):
    states, _ = encode_batch(np.atleast_1d(np.asarray(x, dtype=float))[None, :], n)
    return states[0]


class TestAmplitudeEncode:
    def test_identity_case(self):
        np.testing.assert_array_equal(encode([1, 0, 0, 0], 2), [1, 0, 0, 0])

    def test_normalization(self):
        np.testing.assert_allclose(encode([3, 4], 1), [0.6, 0.8], atol=0)

    def test_padding(self):
        r3 = 1 / np.sqrt(3)
        np.testing.assert_allclose(encode([1, 1, 1], 2), [r3, r3, r3, 0], atol=1e-15)

    def test_zero_vector_maps_to_ground_state(self):
        states, norms = encode_batch(np.zeros((2, 3)), 2)
        np.testing.assert_array_equal(states, [[1, 0, 0, 0]] * 2)
        np.testing.assert_array_equal(norms, [0.0, 0.0])

    def test_exact_roundtrip_for_power_of_two(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(8)
        np.testing.assert_array_equal(encode(x, 3), x / np.linalg.norm(x))

    def test_rows_are_real(self):
        states, _ = encode_batch(np.ones((2, 3)), 2)
        assert states.dtype == np.float64

    def test_too_long_raises(self):
        with pytest.raises(ValueError, match="exceeds"):
            encode([1, 2, 3], 1)

    def test_non_finite_raises(self):
        with pytest.raises(ValueError, match="finite"):
            encode([1.0, np.nan], 1)


class TestApplyGate:
    def test_ry_pi_flips_zero(self):
        states = ry_batch(basis(1, 0), 1, 0, np.pi)
        assert abs(abs(states[0, 1]) - 1) < 1e-15

    def test_cnot_truth_table(self):
        # |10> -> |11>: qubit 0 (most significant bit) controls qubit 1
        np.testing.assert_allclose(cnot_batch(basis(2, 2), 2, 0, 1), basis(2, 3), atol=0)

    def test_cnot_zero_control_is_identity(self):
        np.testing.assert_allclose(cnot_batch(basis(2, 1), 2, 0, 1), basis(2, 1), atol=0)

    def test_rz_phase_only(self):
        theta = 0.731
        states = rz_batch(basis(1, 0), 1, 0, theta)
        np.testing.assert_allclose(states[0, 0], np.exp(-1j * theta / 2), atol=1e-15)
        assert expect_z(states, 1)[0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_wire_out_of_range(self):
        with pytest.raises(IndexError):
            ry_batch(basis(2, 0), 2, 2, 0.1)
        with pytest.raises(IndexError):
            rz_batch(basis(2, 0), 2, -1, 0.1)
        with pytest.raises(IndexError):
            cnot_batch(basis(2, 0), 2, 0, 2)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_dense_oracle(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(25):
            states = random_states(n, rng)
            expected = states.copy()
            for _ in range(6):
                gate = random_gate(n, rng)
                expected = expected @ gate_unitary(gate, n).T
                states = apply(states, n, gate)
            np.testing.assert_allclose(states, expected, atol=1e-12)

    def test_norm_preserved_over_long_sequences(self):
        rng = np.random.default_rng(17)
        for n in (2, 3, 4):
            states = random_states(n, rng)
            for _ in range(100):
                states = apply(states, n, random_gate(n, rng))
            np.testing.assert_allclose(np.linalg.norm(states, axis=1) ** 2, 1.0, atol=1e-10)

    def test_gate_then_inverse_restores_state(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            n = int(rng.integers(2, 5))
            states = random_states(n, rng)
            before = states.copy()
            kind, wires, angle = gate = random_gate(n, rng)
            inverse = gate if kind == "CNOT" else (kind, wires, -angle)
            states = apply(apply(states, n, gate), n, inverse)
            np.testing.assert_allclose(states, before, atol=1e-12)


class TestExpectZ:
    def test_basis_states(self):
        assert expect_z(basis(1, 0), 1)[0, 0] == 1.0
        assert expect_z(basis(1, 1), 1)[0, 0] == -1.0

    def test_superposition(self):
        states = np.array([[S2, S2]], dtype=complex)
        assert expect_z(states, 1)[0, 0] == pytest.approx(0.0, abs=1e-15)

    def test_multi_qubit_orientation(self):
        np.testing.assert_array_equal(expect_z(basis(2, 1), 2), [[1.0, -1.0]])  # |01>

    def test_bounds_on_random_states(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            states = random_states(n, rng)
            got = expect_z(states, n)
            assert got.shape == (states.shape[0], n)
            assert np.all((-1.0 <= got) & (got <= 1.0))
            want = [[z_expectation(row, q, n) for q in range(n)] for row in states]
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_index_error(self):
        with pytest.raises(IndexError):
            z_signs(2, 2)
        with pytest.raises(IndexError):
            pauli_z_half_batch(basis(2, 0), 2, -1)
