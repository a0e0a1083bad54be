"""Tape correctness: every op finite-difference checked, plus segment-sum ordering."""

import numpy as np
import pytest

from qgat.autodiff import (
    NETWORKS,
    Tensor,
    _sort_lanes,
    central_difference,
    elu,
    exp,
    gradcheck,
    gradient_errors,
    leaky_relu,
    log,
    make_op,
    matmul,
    mul,
    relu,
    reshape,
    segment_max,
    segment_sum,
    slice_cols,
    softplus,
    take_rows,
    tanh,
    tmean,
    tsum,
)

from oracles import segment_sum_reference

rng = np.random.default_rng(0)


def leaf(shape, scale=1.0):
    return Tensor(scale * rng.standard_normal(shape), requires_grad=True)


class TestElementwiseOps:
    @pytest.mark.parametrize("op", [exp, softplus, elu, relu, tanh,
                                    lambda t: leaky_relu(t, 0.2)])
    def test_unary_gradients(self, op):
        x = leaf((4, 3))
        gradcheck(lambda t: op(t), [x])

    def test_log_gradient(self):
        x = Tensor(rng.uniform(0.5, 2.0, (3, 3)), requires_grad=True)
        gradcheck(lambda t: log(t), [x])

    def test_binary_broadcast_gradients(self):
        a = leaf((4, 3))
        b = leaf((3,))
        gradcheck(lambda x, y: x * y, [a, b])
        gradcheck(lambda x, y: x + y, [a, b])
        gradcheck(lambda x, y: x - y, [a, b])

    def test_div_gradient(self):
        a = leaf((4, 3))
        b = Tensor(rng.uniform(0.5, 2.0, (4, 1)), requires_grad=True)
        gradcheck(lambda x, y: x / y, [a, b])

    def test_three_dim_broadcast(self):
        a = leaf((5, 2, 3))
        b = leaf((2, 3))
        gradcheck(lambda x, y: x * y, [a, b])


class TestMatmulAndShape:
    def test_matmul_gradients(self):
        a, b = leaf((4, 3)), leaf((3, 5))
        gradcheck(lambda x, y: matmul(x, y), [a, b])

    def test_reshape_gradient(self):
        x = leaf((4, 6))
        gradcheck(lambda t: reshape(t, (4, 2, 3)), [x])

    def test_slice_cols_gradient(self):
        x = leaf((4, 6))
        gradcheck(lambda t: slice_cols(t, 1, 4), [x])

    def test_take_rows_gradient_with_repeats(self):
        x = leaf((5, 3))
        idx = np.array([0, 2, 2, 4, 0])
        gradcheck(lambda t: take_rows(t, idx), [x])

    def test_sum_axis_gradients(self):
        x = leaf((4, 3, 2))
        gradcheck(lambda t: tsum(t, axis=1), [x])
        gradcheck(lambda t: tsum(t, axis=2, keepdims=True), [x])
        gradcheck(lambda t: tsum(t), [x])
        gradcheck(lambda t: tmean(t, axis=1), [x])


def skewed_segments(n_segments=60):
    """Segment ids with one 300-row segment, many of 1-40 rows and ten empty ones."""
    sizes = np.r_[300, rng.integers(1, 41, n_segments - 11), np.zeros(10, dtype=int)]
    return rng.permutation(np.repeat(np.arange(n_segments), sizes))


def segment_inputs():
    """(values, seg, n_segments): random, skewed across block widths, and zero-row."""
    seg = skewed_segments()
    return [
        (rng.standard_normal((10, 4)), rng.integers(0, 3, 10), 3),
        (rng.standard_normal((len(seg), 2, 3)), seg, 60),
        (np.empty((0, 4)), np.empty(0, dtype=np.int64), 3),
    ]


class TestSegmentOps:
    def test_segment_sum_matches_direct(self):
        for vals, seg, n in segment_inputs():
            direct = np.zeros((n,) + vals.shape[1:])
            np.add.at(direct, seg, vals)
            got = segment_sum(Tensor(vals), seg, n).data
            np.testing.assert_allclose(got, direct, atol=1e-12)

    def test_segment_sum_gradient(self):
        x = leaf((8, 3))
        seg = np.array([0, 1, 1, 2, 0, 2, 2, 1])
        gradcheck(lambda t: segment_sum(t, seg, 3), [x])

    def test_segment_sum_order_independent(self):
        for seg, n in ((rng.integers(0, 7, 50), 7), (skewed_segments(), 60)):
            vals = rng.standard_normal((len(seg), 2))
            base = segment_sum(Tensor(vals), seg, n).data
            for _ in range(5):
                perm = rng.permutation(len(seg))
                again = segment_sum(Tensor(vals[perm]), seg[perm], n).data
                np.testing.assert_array_equal(base, again)

    def test_segment_sum_empty_segment_is_zero(self):
        got = segment_sum(Tensor(np.ones((2, 2))), np.array([0, 2]), 4).data
        np.testing.assert_array_equal(got[1], 0.0)
        np.testing.assert_array_equal(got[3], 0.0)

    def test_segment_sum_3d(self):
        x = leaf((6, 2, 3))
        seg = np.array([0, 0, 1, 1, 1, 0])
        gradcheck(lambda t: segment_sum(t, seg, 2), [x])

    def test_segment_max(self):
        vals = np.array([[1.0, -2.0], [3.0, 0.0], [-1.0, 5.0]])
        seg = np.array([0, 0, 1])
        got = segment_max(vals, seg, 2)
        np.testing.assert_array_equal(got, [[3.0, 0.0], [-1.0, 5.0]])
        for vals, seg, n in segment_inputs():
            direct = np.full((n,) + vals.shape[1:], -np.inf)
            np.maximum.at(direct, seg, vals)
            np.testing.assert_array_equal(segment_max(vals, seg, n), direct)

    def test_take_rows_backward_order_independent(self):
        idx = skewed_segments()
        x = leaf((60, 3))
        upstream = rng.standard_normal((len(idx), 3))
        take_rows(x, idx).backward(upstream)
        base = x.grad
        perm = rng.permutation(len(idx))
        x.zero_grad()
        take_rows(x, idx[perm]).backward(upstream[perm])
        np.testing.assert_array_equal(x.grad, base)


# every network width, the np.sort path above it, and the widths either side of each bucket edge
ORACLE_WIDTHS = [*range(1, 18)] * 6 + [31, 32, 33, 63, 64, 65, 127, 128, 129, 255, 256, 257, 600]


def shuffled(seg: np.ndarray, values: np.ndarray, seed: int) -> tuple[np.ndarray, np.ndarray]:
    perm = np.random.default_rng(seed).permutation(len(seg))
    return seg[perm], values[perm]


def oracle_inputs(cols: tuple[int, ...]):
    """Segments of every width in ORACLE_WIDTHS on the even ids; the odd ids stay empty."""
    seg = np.concatenate([np.full(w, 2 * i) for i, w in enumerate(ORACLE_WIDTHS)])
    values = np.random.default_rng(5).standard_normal((len(seg), *cols))
    return (*shuffled(seg, values, 7), 2 * len(ORACLE_WIDTHS) + 1)


def special_inputs():
    """Segments of signed zeros, infinities and NaN at network and np.sort widths, in 2 columns."""
    z, inf, nan = 0.0, np.inf, np.nan
    segments = []
    for w in (1, 2, 3, 4, 5, 8, 9, 20):
        segments.append([[-z, -z]] * w)  # sums stay -0.0
        segments.append([[-z, z]] * (w - 1) + [[z, -z]])  # any +0.0 makes +0.0
        segments.append([[inf, 1.0]] + [[2.0, -inf]] * (w - 1))
        segments.append([[inf, nan]] + [[-inf, 1.0]] * (w - 1) if w > 1 else [[nan, -inf]])
    segments.append([])  # empty: 0.0
    seg = np.concatenate([np.full(len(rows), i) for i, rows in enumerate(segments)])
    values = np.array([row for rows in segments for row in rows])
    return (*shuffled(seg, values, 8), len(segments))


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    np.testing.assert_array_equal(got, want)
    signed = ~np.isnan(want)
    np.testing.assert_array_equal(np.signbit(got[signed]), np.signbit(want[signed]))


class TestSegmentOracle:
    @pytest.mark.parametrize("cols", [(1,), (2,), (3, 2)])
    def test_segment_sum_matches_reference(self, cols):
        seg, values, n = oracle_inputs(cols)
        assert_same_bits(segment_sum(Tensor(values), seg, n).data,
                         segment_sum_reference(values, seg, n))

    @pytest.mark.parametrize("cols", [(1,), (2,), (3, 2)])
    def test_take_rows_backward_matches_reference(self, cols):
        seg, upstream, n = oracle_inputs(cols)
        x = Tensor(np.zeros((n, *cols)), requires_grad=True)
        take_rows(x, seg).backward(upstream)
        assert_same_bits(x.grad, segment_sum_reference(upstream, seg, n))

    def test_special_values_match_reference(self):
        seg, values, n = special_inputs()
        want = segment_sum_reference(values, seg, n)
        assert np.signbit(want[0]).all() and np.isnan(want[7]).all()
        x = Tensor(np.zeros((n, 2)), requires_grad=True)
        with np.errstate(invalid="ignore"):  # inf + -inf
            got = segment_sum(Tensor(values), seg, n).data
            take_rows(x, seg).backward(values)
        assert_same_bits(got, want)
        assert_same_bits(x.grad, want)

    @pytest.mark.parametrize("width, comparators", [(2, 1), (4, 5), (8, 19)])
    def test_networks_sort_every_binary_input(self, width, comparators):
        # 0-1 principle: a comparator network that sorts every 0/1 input sorts every input
        assert len(NETWORKS[width]) == comparators
        codes = np.arange(1 << width)  # input k has bit i of k in lane i
        block = ((codes >> np.arange(width)[:, None]) & 1).astype(np.float64)[:, :, None]
        ones = block.sum(axis=0)
        _sort_lanes(block)
        assert (np.diff(block, axis=0) >= 0).all()
        np.testing.assert_array_equal(block.sum(axis=0), ones)


class TestBackwardMechanics:
    def test_grad_accumulates_over_reuse(self):
        x = leaf((3,))
        y = x * x + x * Tensor(2.0)
        y.backward(np.ones(3))
        np.testing.assert_allclose(x.grad, 2 * x.data + 2, atol=1e-12)

    def test_diamond_graph(self):
        x = leaf((2, 2))
        a = exp(x)
        out = a * a
        out.backward(np.ones((2, 2)))
        np.testing.assert_allclose(x.grad, 2 * np.exp(2 * x.data), rtol=1e-12)

    def test_constants_are_pruned(self):
        c = Tensor(np.ones((2, 2)))
        out = c * Tensor(3.0)
        assert not out.requires_grad and out._vjp is None

    def test_seed_shape_mismatch_raises(self):
        x = leaf((2, 3))
        with pytest.raises(ValueError, match="seed shape"):
            (x * x).backward(np.ones((3, 2)))

    def test_custom_seed(self):
        x = leaf((2,))
        up = np.array([2.0, -3.0])
        (x * x).backward(up)
        np.testing.assert_allclose(x.grad, 2 * x.data * up, atol=1e-14)

    def test_deep_chain_does_not_recurse(self):
        x = leaf((2,))
        y = x
        for _ in range(3000):
            y = y + Tensor(0.0)
        y.backward(np.ones(2))
        np.testing.assert_array_equal(x.grad, [1.0, 1.0])


class TestGradcheck:
    @pytest.mark.parametrize("scale", [4.0, np.nan], ids=["doubled", "nan"])
    def test_wrong_vjp_is_caught(self, scale):
        def square_with_wrong_vjp(t):
            return make_op(t.data ** 2, (t,), lambda g: (scale * g * t.data,))

        with pytest.raises(AssertionError, match="gradient mismatch in tensor 0"):
            gradcheck(square_with_wrong_vjp, [leaf((3, 2))])

    def test_gradient_errors_per_tensor(self):
        def nan_for_second(a, b):
            return make_op(a.data * b.data, (a, b),
                           lambda g: (g * b.data, np.full(b.shape, np.nan)))

        a, b = leaf((2, 3)), leaf((2, 3))
        err_a, err_b = gradient_errors(nan_for_second, [a, b])
        assert err_a == 0.0
        assert np.isnan(err_b)

    def test_central_difference_restores_input(self):
        x = rng.standard_normal((3, 4))[:, ::2]  # strided view: perturbed in place all the same
        before = x.copy()
        grad = central_difference(lambda: float(np.sum(x ** 3)), x, 1e-6)
        np.testing.assert_array_equal(x, before)
        np.testing.assert_allclose(grad, 3 * before ** 2, rtol=1e-6)
