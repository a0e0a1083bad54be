"""Entangling ansatz: layout rule, forward oracle equivalence, adjoint gradients."""

import tracemalloc

import numpy as np
import pytest

from qgat import vqc
from qgat.autodiff import BLOCK_ELEMS, EdgeRows, Segments, Tensor, edge_sum, reshape, tslice
from qgat.statevector import NORM_EPS
from qgat.vqc import EntanglingLayout, build_layout

from oracles import (
    circuit_expectations_reference,
    circuit_reference,
    gradcheck,
    parameter_shift_reference,
    quadratic_form_reference,
)


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

    def test_single_qubit_has_no_ring(self):
        layout = build_layout(1, 2)
        assert layout.ranges == (0, 0)
        assert layout.cnot_pairs(0) == [] and layout.cnot_pairs(1) == []
        with pytest.raises(ValueError):
            build_layout(0, 1)

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
        layout = build_layout(1, 1)
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
    layout = build_layout(n_q, layers)
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

    @pytest.mark.parametrize("n_q", [1, 2, 4, 6])
    @pytest.mark.parametrize("narrow", [False, True])
    def test_same_bits_as_reference(self, n_q, narrow):
        """Values, input gradients and angle gradients equal ``circuit_reference``
        bit for bit, on inputs 2^n wide or narrower, with zero and tiny rows.

        The circuit runs in row blocks while the reference runs whole batches
        except for the costate, which both add up over the same blocks; the
        batches straddle block edges, and one row, where BLAS takes its
        one-row path, guards the transposed view in the costate factor.  No
        batch exceeds 14,660 rows: above that (16,000 rows at n = 4, with
        OpenBLAS 0.3.31's Haswell kernels on x86-64) BLAS switches kernel for
        the reference's whole-batch (B, 2^n) @ (2^n, n) GEMM, and the
        expectations part in the last bits."""
        block = vqc.BLOCK_AMPS >> n_q
        for batch in (1, 2, 257, block - 1, block + 1, 2 * block + 1):
            if batch > 14_660:
                continue
            layout, angles, x = batch_case(n_q, 2, batch, seed=40 + n_q)
            if narrow:
                x = x[:, : max(1, (1 << n_q) * 5 // 8)].copy()
            x[::7] = 0.0
            x[3::11] *= 1e-14  # below NORM_EPS: encoded as |0...0>, like the zero rows
            upstream = np.random.default_rng(n_q).standard_normal((len(x), n_q))
            inputs, angle_t = Tensor(x, requires_grad=True), Tensor(angles, requires_grad=True)
            out = vqc.expectations_op(inputs, angle_t, layout)
            out.backward(upstream)
            want = circuit_reference(x, angles, layout, upstream)
            for got, ref in zip((out.data, inputs.grad, angle_t.grad), want):
                np.testing.assert_array_equal(got.view(np.int64), ref.view(np.int64),
                                              err_msg=f"batch {batch}")


class TestEdgeRows:
    """``expectations_op`` on ``EdgeRows`` against the chain the QGAT layer ran
    before, ``expectations_op(reshape(edge_sum(a, b, dst, src)))``: values and
    the a, b and angle gradients bit for bit."""

    @pytest.mark.parametrize("n_q,heads", [(1, 1), (2, 2), (2, 3), (4, 4), (4, 6)])
    def test_same_bits_as_edge_sum_chain(self, n_q, heads):
        rng = np.random.default_rng(n_q * 10 + heads)
        n_exec, dim = -(-heads // n_q), 1 << n_q  # 3 and 6 heads drop a surplus tail
        nodes, edges = 40, 1500  # 3,000 rows at n = 4, two of the circuit's row blocks
        ends = rng.integers(0, nodes, (2, edges))
        ends[:, :2] = [[0, 2], [1, 3]]  # edges 1 -> 0 and 3 -> 2
        dst, src = Segments(ends[0], nodes), Segments(ends[1], nodes)
        a0 = rng.standard_normal((nodes, n_exec * dim))
        b0 = rng.standard_normal((nodes, n_exec * dim))
        a0[0] = -b0[1]  # edge 1 -> 0's row is zero, encoded as |0...0>
        a0[2, :dim] = 1e-14 - b0[3, :dim]  # edge 3 -> 2's first chunk is below NORM_EPS
        layout = build_layout(n_q, 2)
        angles0 = rng.uniform(0, 2 * np.pi, (2, n_q, 3))
        upstream = rng.standard_normal((edges, heads))

        def run(fused):
            a, b = Tensor(a0, requires_grad=True), Tensor(b0, requires_grad=True)
            angles = Tensor(angles0, requires_grad=True)
            if fused:
                inputs = EdgeRows(a, b, dst, src, dim)
            else:
                inputs = reshape(edge_sum(a, b, dst, src), (edges * n_exec, dim))
            out = vqc.expectations_op(inputs, angles, layout)
            logits = tslice(reshape(out, (edges, n_exec * n_q)), np.s_[:, :heads])
            logits.backward(upstream)
            return logits.data, a.grad, b.grad, angles.grad

        rows = EdgeRows(Tensor(a0), Tensor(b0), dst, src, dim).reader()(slice(0, edges * n_exec))
        norms = np.linalg.norm(rows, axis=1)
        assert (norms == 0).any() and ((norms > 0) & (norms < NORM_EPS)).any()
        for got, want in zip(run(True), run(False), strict=True):
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    def test_peak_memory_is_one_row_block(self):
        """At n = 6, 4,200 rows in nine row blocks, two executions per edge: the
        forward and backward together peak below their outputs (the
        expectations, the rows' gradient and a's and b's), the norms, one
        BLOCK_ELEMS chunk of edge_sum's reduce of that gradient with its sign
        mask (1.25 chunks), and six row blocks.  E, Psi and Lambda exist one
        row block at a time, and the reduce never holds a whole width bucket
        (2.6 MB here)."""
        n_q, nodes, edges = 6, 40, 2100
        dim = 1 << n_q
        rng = np.random.default_rng(6)
        ends = rng.integers(0, nodes, (2, edges))
        dst, src = Segments(ends[0], nodes), Segments(ends[1], nodes)
        a = Tensor(rng.standard_normal((nodes, 2 * dim)), requires_grad=True)
        b = Tensor(rng.standard_normal((nodes, 2 * dim)), requires_grad=True)
        angles = Tensor(rng.uniform(0, 2 * np.pi, (2, n_q, 3)), requires_grad=True)
        upstream = rng.standard_normal((2 * edges, n_q))
        blocks = vqc._row_blocks(2 * edges, dim)
        block = max(blk.stop - blk.start for blk in blocks) * dim * 8
        bucket = max(rows.size for segs in (dst, src) for _, rows, _ in segs.buckets) * 2 * dim * 8
        chunk = BLOCK_ELEMS * 8
        outputs = 2 * edges * (n_q + dim) * 8 + a.data.nbytes + b.data.nbytes
        tracemalloc.start()
        try:
            vqc.expectations_op(EdgeRows(a, b, dst, src, dim), angles, build_layout(n_q, 2)
                                ).backward(upstream)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(blocks) == 9 and bucket == 2_621_440
        assert peak < outputs + 2 * edges * 8 + 1.25 * chunk + 6 * block

    def test_rows_wider_than_the_circuit_raise(self):
        a = Tensor(np.ones((3, 5)), requires_grad=True)
        dst = src = Segments(np.array([0, 1, 2]), 3)
        with pytest.raises(ValueError, match="exceeds"):
            vqc.expectations_op(EdgeRows(a, a, dst, src, 5), Tensor(np.zeros((1, 2, 3))),
                                build_layout(2, 1))


def assert_exact(got: np.ndarray, want: np.ndarray) -> None:
    """Equal to rounding: within 1e-12 of the largest entry, entry by entry."""
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


class TestExactGradients:
    """Angle and input gradients of ``expectations_op`` against the exact oracles,
    parameter shift and the quadratic form, at rounding level.  A finite
    difference cannot tell an adjoint off by 1e-10 from an exact one; these do."""

    @staticmethod
    def check_rows(n_q, layers):
        rng = np.random.default_rng(10 * n_q + layers)
        layout = build_layout(n_q, layers)
        angles = rng.uniform(0, 2 * np.pi, (layers, n_q, 3))
        x = rng.standard_normal((6, (1 << n_q) + 1 - layers))
        x[1] = 0.0
        x[4] *= 1e-14
        upstream = rng.standard_normal((6, n_q))
        inputs, angle_t = Tensor(x, requires_grad=True), Tensor(angles, requires_grad=True)
        vqc.expectations_op(inputs, angle_t, layout).backward(upstream)
        assert_exact(angle_t.grad,
                     parameter_shift_reference(x, angles, layout.ranges, n_q, upstream))
        assert_exact(inputs.grad, quadratic_form_reference(x, angles, layout.ranges, n_q, upstream))
        assert not inputs.grad[[1, 4]].any()

    @pytest.mark.parametrize("n_q", [2, 3, 4, 6])
    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_rows(self, n_q, layers):
        """Rows 2^n wide at one layer and narrower at two and three, one of them
        zero and one below ``NORM_EPS``, whose input gradients are 0."""
        self.check_rows(n_q, layers)

    @pytest.mark.parametrize("n_q", [2, 3, 4, 6])
    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_rows_in_three_row_blocks(self, n_q, layers, monkeypatch):
        """``test_rows`` with row blocks of two rows: the zero row and the one
        below ``NORM_EPS`` fall in different blocks, and the costate adds up
        three blocks."""
        monkeypatch.setattr(vqc, "BLOCK_AMPS", 2 << n_q)
        assert len(vqc._row_blocks(6, 1 << n_q)) == 3
        self.check_rows(n_q, layers)

    @staticmethod
    def check_edge_rows(n_q):
        rng = np.random.default_rng(n_q)
        dim, nodes, edges = 1 << n_q, 6, 12
        ends = rng.integers(0, nodes, (2, edges))
        ends[:, 0] = [0, 1]
        a0, b0 = rng.standard_normal((2, nodes, 2 * dim))
        a0[0, :dim] = -b0[1, :dim]  # edge 1 -> 0's first row is zero
        dst, src = Segments(ends[0], nodes), Segments(ends[1], nodes)
        layout = build_layout(n_q, 2)
        angles = rng.uniform(0, 2 * np.pi, (2, n_q, 3))
        upstream = rng.standard_normal((2 * edges, n_q))
        a, b = Tensor(a0, requires_grad=True), Tensor(b0, requires_grad=True)
        angle_t = Tensor(angles, requires_grad=True)
        vqc.expectations_op(EdgeRows(a, b, dst, src, dim), angle_t, layout).backward(upstream)
        rows = (a0[ends[0]] + b0[ends[1]]).reshape(2 * edges, dim)
        assert not rows[0].any()
        assert_exact(angle_t.grad,
                     parameter_shift_reference(rows, angles, layout.ranges, n_q, upstream))
        grad_rows = quadratic_form_reference(rows, angles, layout.ranges, n_q, upstream)
        for got, end in ((a.grad, ends[0]), (b.grad, ends[1])):
            want = np.zeros_like(a0)
            np.add.at(want, end, grad_rows.reshape(edges, 2 * dim))
            assert_exact(got, want)

    @pytest.mark.parametrize("n_q", [2, 3])
    def test_edge_rows_with_two_executions_per_edge(self, n_q):
        """``EdgeRows`` whose edges each run the circuit twice (2 n heads), one
        edge's first row zero: a's and b's gradients are the rows' gradients
        added over each edge's ends."""
        self.check_edge_rows(n_q)

    @pytest.mark.parametrize("n_q", [2, 3])
    def test_edge_rows_in_blocks_that_split_edges(self, n_q, monkeypatch):
        """``test_edge_rows_with_two_executions_per_edge`` in five row blocks,
        two of which start inside an edge: each block reads only its own rows
        of the edges it falls in."""
        monkeypatch.setattr(vqc, "BLOCK_AMPS", 5 << n_q)
        assert [blk.start for blk in vqc._row_blocks(24, 1 << n_q)] == [0, 4, 9, 14, 19]
        self.check_edge_rows(n_q)


class TestExecutionCounter:
    def test_counts_batch_rows(self):
        vqc.reset_execution_count()
        layout = build_layout(2, 1)
        vqc.circuit_forward_batch(np.ones((7, 4)), np.zeros((1, 2, 3)), layout)
        assert vqc.execution_count() == 7
