"""Entangling ansatz: layout rule, forward oracle equivalence, adjoint gradients."""

import numpy as np
import pytest

from qgat import vqc
from qgat.autodiff import Tensor, gradcheck
from qgat.vqc import EntanglingLayout, build_layout

from oracles import circuit_expectations_reference


def forward(x, angles, layout):
    """Z expectations of one input vector: the B = 1 case of the batch API."""
    return vqc.circuit_forward_batch(np.atleast_2d(x), angles, layout)[0]


def backward(x, angles, layout, upstream):
    """(grad_angles, grad_inputs) of sum(upstream * expectations) for one input
    vector, through the autodiff node."""
    inputs = Tensor(np.atleast_2d(np.asarray(x, dtype=float)), requires_grad=True)
    angle_t = Tensor(angles, requires_grad=True)
    vqc.expectations_op(inputs, angle_t, layout).backward(np.atleast_2d(upstream))
    return angle_t.grad, inputs.grad[0]


def weighted_expectations(layout, upstream):
    """sum(upstream * expectations) as a function of (inputs, angles), for gradcheck."""
    weights = Tensor(np.atleast_2d(upstream))
    return lambda inputs, angles: vqc.expectations_op(inputs, angles, layout) * weights


class TestLayout:
    def test_five_qubits_two_layers(self):
        assert build_layout(5, 2).ranges == (1, 2)

    def test_two_qubits_only_range_one(self):
        assert build_layout(2, 3).ranges == (1, 1, 1)

    def test_ranges_cycle(self):
        assert build_layout(4, 7).ranges == (1, 2, 3, 1, 2, 3, 1)

    def test_target_wraps_modulo(self):
        layout = EntanglingLayout(5, (2,))
        assert layout.cnot_pairs(0)[4] == (4, 1)

    def test_single_qubit_rejected(self):
        with pytest.raises(ValueError):
            build_layout(1, 2)

    def test_all_ranges_legal(self):
        for m in range(2, 8):
            layout = build_layout(m, 10)
            assert all(0 < r < m for r in layout.ranges)


class TestForward:
    def test_identity_circuit_on_ground_state(self):
        layout = build_layout(3, 2)
        x = np.zeros(8)
        x[0] = 1.0
        np.testing.assert_allclose(forward(x, np.zeros((2, 3, 3)), layout), [1, 1, 1], atol=0)

    def test_zero_angles_reduce_to_encoding_plus_cnots(self):
        rng = np.random.default_rng(0)
        layout = build_layout(3, 2)
        angles = np.zeros((2, 3, 3))
        x = rng.standard_normal(8)
        want = circuit_expectations_reference(x, angles, layout.ranges, 3)
        np.testing.assert_allclose(forward(x, angles, layout), want, atol=1e-12)

    @pytest.mark.parametrize("n_q,layers", [(2, 1), (3, 2), (4, 3)])
    def test_matches_dense_oracle(self, n_q, layers):
        rng = np.random.default_rng(n_q * 10 + layers)
        layout = build_layout(n_q, layers)
        for _ in range(10):
            angles = rng.uniform(0, 2 * np.pi, (layers, n_q, 3))
            x = rng.standard_normal(1 << n_q)
            want = circuit_expectations_reference(x, angles, layout.ranges, n_q)
            np.testing.assert_allclose(forward(x, angles, layout), want, atol=1e-10)

    def test_outputs_bounded(self):
        rng = np.random.default_rng(9)
        layout = build_layout(4, 2)
        for _ in range(20):
            angles = rng.uniform(0, 2 * np.pi, (2, 4, 3))
            out = forward(rng.standard_normal(16), angles, layout)
            assert np.all(out >= -1.0) and np.all(out <= 1.0)

    def test_scale_invariance(self):
        rng = np.random.default_rng(11)
        layout = build_layout(3, 2)
        angles = rng.uniform(0, 2 * np.pi, (2, 3, 3))
        x = rng.standard_normal(8)
        base = forward(x, angles, layout)
        # Power-of-two scales commute with IEEE-754 normalization bit-exactly;
        # other scales are limited by rounding in c*x.
        for c in (0.5, 2.0, 1024.0):
            np.testing.assert_array_equal(forward(c * x, angles, layout), base)
        for c in (0.1, 3.0, 1e4):
            np.testing.assert_allclose(forward(c * x, angles, layout), base, rtol=0, atol=1e-12)

    def test_shape_mismatch_is_configuration_error(self):
        layout = build_layout(3, 2)
        with pytest.raises(ValueError, match="match"):
            forward(np.ones(8), np.zeros((2, 4, 3)), layout)

    def test_input_longer_than_register_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            forward(np.ones(5), np.zeros((1, 2, 3)), build_layout(2, 1))

    def test_deterministic(self):
        rng = np.random.default_rng(21)
        layout = build_layout(3, 2)
        angles = rng.uniform(0, 2 * np.pi, (2, 3, 3))
        x = rng.standard_normal(8)
        a = forward(x, angles, layout)
        b = forward(x.copy(), angles.copy(), layout)
        np.testing.assert_array_equal(a, b)


class TestBackward:
    def test_zero_upstream_gives_zero_gradients(self):
        rng = np.random.default_rng(1)
        layout = build_layout(3, 2)
        angles = rng.uniform(0, 2 * np.pi, (2, 3, 3))
        ga, gx = backward(rng.standard_normal(8), angles, layout, np.zeros(3))
        assert not ga.any() and not gx.any()

    def test_single_ry_analytic(self):
        # <Z> of RY(u2)|0> is cos(u2); only the middle angle matters.
        layout = vqc.EntanglingLayout(1, (0,))
        for u2 in (0.3, 1.2, 2.9):
            angles = np.array([[[0.0, u2, 0.0]]])
            assert forward([1.0], angles, layout)[0] == pytest.approx(np.cos(u2), abs=1e-12)
            ga, _ = backward([1.0], angles, layout, [1.0])
            assert ga[0, 0, 1] == pytest.approx(-np.sin(u2), abs=1e-12)

    @pytest.mark.parametrize("n_q", [2, 3, 4])
    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_matches_finite_differences(self, n_q, layers):
        rng = np.random.default_rng(n_q * 100 + layers)
        layout = build_layout(n_q, layers)
        for _ in range(6):
            angles = rng.uniform(0, 2 * np.pi, (layers, n_q, 3))
            x = rng.standard_normal((1, 1 << n_q))
            upstream = rng.standard_normal(n_q)
            gradcheck(weighted_expectations(layout, upstream),
                      [Tensor(x, requires_grad=True), Tensor(angles, requires_grad=True)],
                      eps=1e-5)

    def test_parameter_shift_agreement(self):
        # For rotations exp(-i theta H/2), +/- pi/2 shifts reproduce the derivative.
        rng = np.random.default_rng(31)
        layout = build_layout(3, 2)
        angles = rng.uniform(0, 2 * np.pi, (2, 3, 3))
        x = rng.standard_normal(8)
        upstream = rng.standard_normal(3)
        ga, _ = backward(x, angles, layout, upstream)
        for idx in [(0, 0, 0), (0, 1, 1), (1, 2, 2), (1, 0, 1)]:
            shifted = angles.copy()
            shifted[idx] += np.pi / 2
            hi = forward(x, shifted, layout) @ upstream
            shifted[idx] -= np.pi
            lo = forward(x, shifted, layout) @ upstream
            assert ga[idx] == pytest.approx((hi - lo) / 2.0, abs=1e-10)

    def test_input_gradient_orthogonal_to_input(self):
        rng = np.random.default_rng(41)
        layout = build_layout(4, 2)
        for _ in range(20):
            angles = rng.uniform(0, 2 * np.pi, (2, 4, 3))
            x = rng.standard_normal(16)
            _, gx = backward(x, angles, layout, rng.standard_normal(4))
            assert abs(np.dot(gx, x)) <= 1e-8

    def test_zero_input_has_zero_input_gradient(self):
        _, gx = backward(np.zeros(4), np.ones((1, 2, 3)), build_layout(2, 1), np.ones(2))
        assert not gx.any()

    def test_gradient_through_padding(self):
        # Raw input shorter than 2^n: gradient covers only the real entries.
        rng = np.random.default_rng(53)
        layout = build_layout(2, 2)
        angles = rng.uniform(0, 2 * np.pi, (2, 2, 3))
        x = rng.standard_normal((1, 3))
        upstream = rng.standard_normal(2)
        _, gx = backward(x, angles, layout, upstream)
        assert gx.shape == (3,)
        gradcheck(weighted_expectations(layout, upstream),
                  [Tensor(x, requires_grad=True), Tensor(angles, requires_grad=True)], eps=1e-5)


def batch_case(n_q, layers, batch, seed):
    """Layout, angles and a (batch, 2^n) input block whose middle row is all zero."""
    rng = np.random.default_rng(seed)
    layout = build_layout(n_q, layers) if n_q > 1 else EntanglingLayout(1, (0,) * layers)
    angles = rng.uniform(0, 2 * np.pi, (layers, n_q, 3))
    x = rng.standard_normal((batch, 1 << n_q))
    if batch > 1:
        x[batch // 2] = 0.0
    return layout, angles, x


class TestBatch:
    """Batches of many rows: the costate E^T Lambda sums over every row."""

    @pytest.mark.parametrize("n_q", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("above", [False, True])
    def test_expectations_op_gradcheck(self, n_q, above):
        batch = (1 << n_q) + 3 if above else max(1, (1 << n_q) - 1)
        layout, angles, x = batch_case(n_q, 2, batch, seed=n_q + 10 * above)
        weights = np.random.default_rng(n_q).standard_normal((batch, n_q))
        gradcheck(weighted_expectations(layout, weights),
                  [Tensor(x, requires_grad=True), Tensor(angles, requires_grad=True)])

    @pytest.mark.parametrize("n_q,batch", [(2, 9), (3, 5), (4, 40)])
    def test_gradients_equal_sum_of_rows(self, n_q, batch):
        layout, angles, x = batch_case(n_q, 3, batch, seed=batch)
        upstream = np.random.default_rng(batch).standard_normal((batch, n_q))
        inputs, angle_t = Tensor(x, requires_grad=True), Tensor(angles, requires_grad=True)
        vqc.expectations_op(inputs, angle_t, layout).backward(upstream)
        rows = [backward(x[b], angles, layout, upstream[b]) for b in range(batch)]
        np.testing.assert_allclose(angle_t.grad, sum(ga for ga, _ in rows), rtol=1e-10,
                                   atol=1e-12)
        np.testing.assert_allclose(inputs.grad, np.stack([gx for _, gx in rows]), rtol=1e-10,
                                   atol=1e-12)

    @pytest.mark.parametrize("n_q,batch", [(1, 4), (3, 12), (5, 7)])
    def test_forward_matches_dense_oracle_per_row(self, n_q, batch):
        layout, angles, x = batch_case(n_q, 2, batch, seed=3 * batch)
        got = vqc.circuit_forward_batch(x, angles, layout)
        for b in range(batch):
            want = circuit_expectations_reference(x[b], angles, layout.ranges, n_q)
            np.testing.assert_allclose(got[b], want, atol=1e-12)


class TestExecutionCounter:
    def test_counts_batch_rows(self):
        vqc.reset_execution_count()
        layout = build_layout(2, 1)
        vqc.circuit_forward_batch(np.ones((7, 4)), np.zeros((1, 2, 3)), layout)
        assert vqc.execution_count() == 7
