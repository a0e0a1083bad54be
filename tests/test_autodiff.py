"""Tape correctness: every op finite-difference checked, plus segment-sum ordering."""

import tracemalloc
import weakref
from functools import partial

import numpy as np
import pytest

from qgat import vqc
from qgat.attention import neighborhood_softmax
from qgat.autodiff import (
    BLOCK_ELEMS,
    NETWORKS,
    Segments,
    Tensor,
    _segment_reduce,
    _sort_lanes,
    _weighted_reduce,
    central_difference,
    div,
    dropout,
    edge_sum,
    elu,
    exp,
    gradient_errors,
    leaky_relu,
    log,
    make_op,
    matmul,
    mul,
    pair_dot,
    reshape,
    segment_max,
    segment_sum,
    softmax_aggregate,
    softplus,
    sub,
    take_rows,
    tmean,
    tsum,
)

from oracles import gradcheck, segment_max_reference, segment_sum_reference

rng = np.random.default_rng(0)


def leaf(shape, scale=1.0):
    return Tensor(scale * rng.standard_normal(shape), requires_grad=True)


class TestElementwiseOps:
    @pytest.mark.parametrize("op", [exp, softplus, elu, leaky_relu])
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

    def test_take_rows_gradient_with_repeats(self):
        x = leaf((5, 3))
        idx = np.array([0, 2, 2, 4, 0])
        gradcheck(lambda t: take_rows(t, Segments(idx, 5)), [x])

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
            got = segment_sum(Tensor(vals), Segments(seg, n)).data
            np.testing.assert_allclose(got, direct, atol=1e-12)

    def test_segment_sum_gradient(self):
        x = leaf((8, 3))
        seg = np.array([0, 1, 1, 2, 0, 2, 2, 1])
        gradcheck(lambda t: segment_sum(t, Segments(seg, 3)), [x])

    def test_segment_sum_order_independent(self):
        for seg, n in ((rng.integers(0, 7, 50), 7), (skewed_segments(), 60)):
            vals = rng.standard_normal((len(seg), 2))
            base = segment_sum(Tensor(vals), Segments(seg, n)).data
            for _ in range(5):
                perm = rng.permutation(len(seg))
                again = segment_sum(Tensor(vals[perm]), Segments(seg[perm], n)).data
                np.testing.assert_array_equal(base, again)

    def test_segment_sum_empty_segment_is_zero(self):
        got = segment_sum(Tensor(np.ones((2, 2))), Segments(np.array([0, 2]), 4)).data
        np.testing.assert_array_equal(got[1], 0.0)
        np.testing.assert_array_equal(got[3], 0.0)

    def test_segment_sum_3d(self):
        x = leaf((6, 2, 3))
        seg = np.array([0, 0, 1, 1, 1, 0])
        gradcheck(lambda t: segment_sum(t, Segments(seg, 2)), [x])

    def test_segment_max(self):
        vals = np.array([[1.0, -2.0], [3.0, 0.0], [-1.0, 5.0]])
        seg = np.array([0, 0, 1])
        got = segment_max(vals, Segments(seg, 2))
        np.testing.assert_array_equal(got, [[3.0, 0.0], [-1.0, 5.0]])
        for vals, seg, n in segment_inputs():
            direct = np.full((n,) + vals.shape[1:], -np.inf)
            np.maximum.at(direct, seg, vals)
            np.testing.assert_array_equal(segment_max(vals, Segments(seg, n)), direct)

    @pytest.mark.parametrize("index, n", [
        (np.random.default_rng(8).permutation(np.repeat(np.arange(60), np.arange(60) % 23)), 60),
        (np.random.default_rng(9).integers(0, 5, 40).astype(np.int32), 5),
        (np.zeros(0, dtype=np.int64), 3)])
    def test_lanes_follow_the_stable_order(self, index, n):
        # lane w of a segment is its w-th row: the order of np.argsort(kind="stable")
        order = np.argsort(index, kind="stable")
        counts = np.bincount(index, minlength=n)
        starts = np.cumsum(counts) - counts
        seen = []
        for members, rows, _ in Segments(index, n).buckets:
            for j, seg in enumerate(members):
                want = order[starts[seg]:starts[seg] + counts[seg]]
                np.testing.assert_array_equal(rows[:counts[seg], j], want)
                seen.append(seg)
        assert sorted(seen) == np.flatnonzero(counts).tolist()

    def test_take_rows_backward_order_independent(self):
        idx = skewed_segments()
        x = leaf((60, 3))
        upstream = rng.standard_normal((len(idx), 3))
        take_rows(x, Segments(idx, 60)).backward(upstream)
        base = x.grad
        perm = rng.permutation(len(idx))
        x.zero_grad()
        take_rows(x, Segments(idx[perm], 60)).backward(upstream[perm])
        np.testing.assert_array_equal(x.grad, base)

    @pytest.mark.parametrize("kind", ["sum", "max"])
    def test_one_bucket_block_at_a_time(self, kind):
        """Two 4 MB width buckets (widths 4 and 8) in 32 columns: a reduce holds
        one member chunk of one bucket at a time, at most BLOCK_ELEMS values,
        and one lane of it (a quarter of a 4-lane chunk), plus the output
        and a few KiB of Python objects, not a whole bucket's block."""
        m, cols = 2000, 32
        sizes = np.r_[np.full(m, 8), np.full(2 * m, 4)]
        index = np.random.default_rng(0).permutation(np.repeat(np.arange(len(sizes)), sizes))
        segs = Segments(index, len(sizes))
        values = np.random.default_rng(1).standard_normal((len(index), cols))
        block = max(rows.size for _, rows, _ in segs.buckets) * cols * 8
        chunk = BLOCK_ELEMS * 8
        tracemalloc.start()
        try:
            _segment_reduce(values, segs, kind)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(segs.buckets) == 2 and block == 4_096_000
        assert peak < 1.25 * chunk + len(sizes) * cols * 8 + (64 << 10)

    def test_zero_sums_read_their_signs_from_the_block(self):
        """One 64-lane bucket, 300 segments of 50 rows in 16 columns, 60% of the
        segments all zeros: a third of those all -0.0, the rest of mixed sign.
        The reduce reads the zero sums' signs from the chunk it holds, so it
        peaks at one BLOCK_ELEMS chunk, its sign mask (an eighth of it) and
        the output, without gathering any lane a second time."""
        segments, width, cols = 300, 50, 16
        gen = np.random.default_rng(3)
        index = gen.permutation(np.repeat(np.arange(segments), width))
        values = gen.standard_normal((len(index), cols))
        zero = np.arange(segments) < 180
        negative = np.arange(segments) < 60
        values[zero[index]] = np.copysign(0.0, gen.standard_normal((zero[index].sum(), cols)))
        values[negative[index]] = -0.0
        segs = Segments(index, segments)
        rows = segs.buckets[0][1]
        block, chunk, output = rows.size * cols * 8, BLOCK_ELEMS * 8, segments * cols * 8
        tracemalloc.start()
        try:
            sums = _segment_reduce(values, segs, "sum")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(segs.buckets) == 1 and len(rows) == 64 and block == 2_457_600
        assert peak < 1.25 * chunk + output + (64 << 10)
        assert not sums[zero].any()
        np.testing.assert_array_equal(np.signbit(sums[zero]), np.broadcast_to(
            negative[zero, None], (180, cols)))

    @pytest.mark.parametrize("reduce", ["segment", "attention"])
    def test_wide_bucket_is_reduced_one_chunk_at_a_time(self, reduce):
        """One 64-lane bucket of 300 segments of 50 rows in 32 columns, a
        4.9 MB block: ``_segment_reduce`` and ``softmax_aggregate``'s forward
        peak below one BLOCK_ELEMS chunk and its sign mask (1.25 chunks), the
        output, one lane of the chunk and 64 KiB; the attention forward also
        holds the (edges, 1) weights and the gathered per-node sums."""
        segments, width, cols = 300, 50, 32
        gen = np.random.default_rng(4)
        index = gen.permutation(np.repeat(np.arange(segments), width))
        segs = Segments(index, segments)
        rows = segs.buckets[0][1]
        block, chunk = rows.size * cols * 8, BLOCK_ELEMS * 8
        lane, output = chunk // len(rows), segments * cols * 8
        extra = 0
        if reduce == "segment":
            values = gen.standard_normal((len(index), cols))
            run = partial(_segment_reduce, values, segs, "sum")
        else:
            src = Segments(gen.permutation(index), segments)
            logits = gen.standard_normal((len(index), 1))
            v = Tensor(gen.standard_normal((segments, 1, cols)))
            z, den = neighborhood_softmax(logits, segs)
            extra = 2 * logits.nbytes
            run = partial(softmax_aggregate, Tensor(logits), v, z, den, src, segs, None, 0.0)
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(segs.buckets) == 1 and len(rows) == 64 and block == 4_915_200
        assert peak < 1.25 * chunk + output + lane + extra + (64 << 10)


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


# (width, members, cols) of width buckets that span several member chunks:
# network and np.sort widths, 128 and 256 members of 32 columns (whose lane
# stride would be a multiple of 4 KiB in chunks of an even member count),
# and segments wider than BLOCK_ELEMS, one member to a chunk (in one column,
# a chunk of one number per lane)
CHUNKED = [(8, 256, 32), (4, 256, 128), (2, 128, 512), (16, 256, 32), (32, 128, 32),
           (64, 128, 32), (4096, 3, 32), (32768, 2, 1)]


def chunked_inputs(width: int, members: int, cols: int, seed: int):
    """(seg, values, gen): ``members`` segments whose sizes round up to
    ``width``, in ``cols`` columns, rows shuffled.  Every eighth segment is
    all -0.0 and every eighth from the second zeros of mixed sign."""
    gen = np.random.default_rng(seed)
    seg = np.repeat(np.arange(members), gen.integers(width // 2 + 1, width + 1, members))
    values = gen.standard_normal((len(seg), cols))
    values[seg % 8 == 0] = -0.0
    mixed = seg % 8 == 1
    values[mixed] = np.copysign(0.0, gen.standard_normal((mixed.sum(), cols)))
    return *shuffled(seg, values, seed + 1), gen


def assert_bits(got: np.ndarray, want: np.ndarray) -> None:
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    np.testing.assert_array_equal(got, want)
    signed = ~np.isnan(want)
    np.testing.assert_array_equal(np.signbit(got[signed]), np.signbit(want[signed]))


class TestSegmentOracle:
    @pytest.mark.parametrize("cols", [(1,), (2,), (3, 2)])
    def test_segment_sum_matches_reference(self, cols):
        seg, values, n = oracle_inputs(cols)
        assert_same_bits(segment_sum(Tensor(values), Segments(seg, n)).data,
                         segment_sum_reference(values, seg, n))

    @pytest.mark.parametrize("cols", [(1,), (2,), (3, 2)])
    def test_take_rows_backward_matches_reference(self, cols):
        seg, upstream, n = oracle_inputs(cols)
        x = Tensor(np.zeros((n, *cols)), requires_grad=True)
        take_rows(x, Segments(seg, n)).backward(upstream)
        assert_same_bits(x.grad, segment_sum_reference(upstream, seg, n))

    def test_special_values_match_reference(self):
        seg, values, n = special_inputs()
        want = segment_sum_reference(values, seg, n)
        assert np.signbit(want[0]).all() and np.isnan(want[7]).all()
        x = Tensor(np.zeros((n, 2)), requires_grad=True)
        with np.errstate(invalid="ignore"):  # inf + -inf
            got = segment_sum(Tensor(values), Segments(seg, n)).data
            take_rows(x, Segments(seg, n)).backward(values)
        assert_same_bits(got, want)
        assert_same_bits(x.grad, want)

    @pytest.mark.parametrize("width, members, cols", CHUNKED)
    def test_chunked_buckets_keep_every_bit(self, width, members, cols):
        """Sums and maxima of buckets reduced in several member chunks, and of
        segments wider than one chunk, have the oracles' bits, signed zeros
        included."""
        seg, values, _ = chunked_inputs(width, members, cols, seed=width + cols)
        segs = Segments(seg, members)
        (_, rows, _), = segs.buckets
        # all powers of two: the odd chunks hold fewer members than the bucket
        assert len(rows) == width and rows.size * cols >= BLOCK_ELEMS
        want = segment_sum_reference(values, seg, members)
        assert np.signbit(want[::8]).all() and not want[1::8].any()
        assert_bits(_segment_reduce(values, segs, "sum"), want)
        assert_bits(_segment_reduce(values, segs, "max"),
                    segment_max_reference(values, seg, members))

    def test_zero_maxima_keep_the_last_zeros_sign(self):
        """In one column, a bucket of one member gives lanes of one number each,
        which ``np.maximum.reduce`` would fold in vector blocks; the maximum of
        a segment of signed zeros is still its last zero, in row order, as it
        is in every wider chunk."""
        gen = np.random.default_rng(11)
        widths = [2, 3, 5, 9, 17, 33, 65, 129]
        seg = np.repeat(np.arange(len(widths)), widths)
        segs = Segments(seg, len(widths))
        assert [len(members) for members, _, _ in segs.buckets] == [1] * len(widths)
        for _ in range(10):
            values = np.copysign(0.0, gen.standard_normal((len(seg), 1)))
            assert_bits(segment_max(values, segs),
                        segment_max_reference(values, seg, len(widths)))

    @pytest.mark.parametrize("width, members, cols", CHUNKED)
    def test_chunked_weighted_reduce_keeps_every_bit(self, width, members, cols):
        """``_weighted_reduce`` over chunked buckets has the bits of the oracle's
        sums of the weighted rows.  The values are positive, so the weights
        sign the zeros: -0.0 into every eighth segment, zeros of either sign
        into every eighth from the second."""
        seg, _, gen = chunked_inputs(width, members, cols, seed=width + cols)
        heads, nodes = min(4, cols), 50
        src = gen.integers(0, nodes, len(seg))
        x = np.abs(gen.standard_normal((nodes, cols)))
        weights = gen.standard_normal((len(seg), heads))
        weights[seg % 8 == 0] = -0.0
        mixed = seg % 8 == 1
        weights[mixed] = np.copysign(0.0, gen.standard_normal((mixed.sum(), heads)))
        rows = weights[:, :, None] * x[src].reshape(len(seg), heads, cols // heads)
        want = segment_sum_reference(rows.reshape(len(seg), cols), seg, members)
        assert np.signbit(want[::8]).all() and not np.signbit(want[1::8]).all()
        assert_bits(_weighted_reduce(x, weights, Segments(seg, members), Segments(src, nodes)),
                    want)

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


def signed_rows(gen: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Gaussian magnitudes, positive in even heads (axis 1) and negative in odd
    ones, with about 10% of the entries replaced by 0.0 or -0.0."""
    signs = np.where(np.arange(shape[1]) % 2, -1.0, 1.0)[:, None]
    values = np.abs(gen.standard_normal(shape)) * signs
    zero = gen.random(shape) < 0.1
    values[zero] = np.copysign(0.0, gen.standard_normal(zero.sum()))
    return values


def attention_inputs(heads: int, dim: int, seed: int):
    """(alpha, v, src, dst): edges into segments of every ORACLE_WIDTHS width on the
    even node ids, the odd ids without edges, and sources of the same widths.

    A third of the weights are 0.0, as dropout leaves them, and every weight
    into or out of a fifth of the nodes is one signed zero per node, so wide
    segments sum to zeros of either sign through the ``np.sort`` path."""
    gen = np.random.default_rng(seed)
    dst = np.concatenate([np.full(w, 2 * i) for i, w in enumerate(ORACLE_WIDTHS)])
    n = 2 * len(ORACLE_WIDTHS) + 1
    src = gen.permutation(dst)
    alpha = gen.random((len(dst), heads))
    alpha[gen.random(alpha.shape) < 0.3] = 0.0
    silent = gen.random(n) < 0.2
    zero = np.copysign(0.0, gen.standard_normal(n))
    for ends in (dst, src):
        alpha[silent[ends]] = zero[ends[silent[ends]], None]
    return alpha, signed_rows(gen, (n, heads, dim)), Segments(src, n), Segments(dst, n)


def softmax_inputs(heads: int, dim: int, seed: int):
    """(logits, v, kept, src, dst, negative): edges into segments of every
    ORACLE_WIDTHS width on the even node ids, the odd ids without edges, and
    sources of the same widths, each edge's source in its destination's sign
    class (``negative`` marks one class).

    v is negative in the negative class and positive in the other, a tenth of
    it zeros of its class's sign.  A twentieth of the logits are -800, whose
    exp underflows to 0.0.  The keep-mask drops about 30% of the weights and
    every weight into or out of a fifth of the nodes, so wide segments sum to
    zeros of either sign, forward and backward, through the ``np.sort`` path."""
    gen = np.random.default_rng(seed)
    dst = np.concatenate([np.full(w, 2 * i) for i, w in enumerate(ORACLE_WIDTHS)])
    n = 2 * len(ORACLE_WIDTHS) + 1
    negative = gen.random(n) < 0.5
    src = dst.copy()
    for side in (negative[dst], ~negative[dst]):
        rows = np.flatnonzero(side)
        src[rows] = dst[gen.permutation(rows)]
    logits = 3.0 * gen.standard_normal((len(dst), heads))
    logits[gen.random(logits.shape) < 0.05] = -800.0
    silent = gen.random(n) < 0.2
    kept = (gen.random(logits.shape) < 0.7) & ~(silent[dst] | silent[src])[:, None]
    return logits, class_signed(gen, negative, (n, heads, dim)), kept, \
        Segments(src, n), Segments(dst, n), negative


def class_signed(gen: np.random.Generator, negative: np.ndarray, shape) -> np.ndarray:
    """Gaussian magnitudes, a tenth of them zero, signed by the rows' class."""
    magnitudes = np.abs(gen.standard_normal(shape)) * (gen.random(shape) >= 0.1)
    return np.copysign(magnitudes, np.where(negative, -1.0, 1.0).reshape(-1, 1, 1))


def fused_attention(logits: Tensor, v: Tensor, kept, rate: float, src: Segments,
                    dst: Segments) -> Tensor:
    z, den = neighborhood_softmax(logits.data, dst)
    return softmax_aggregate(logits, v, z, den, src, dst, kept, rate)


def unfused_attention(logits: Tensor, v: Tensor, kept, rate: float, src: Segments,
                      dst: Segments) -> Tensor:
    """The tape ``softmax_aggregate`` replaces, op by op: shift, exp, per-node
    sums, gathered sums, divide, dropout (as a mask multiply), gather, weight, sum."""
    shift = segment_max(logits.data, dst)
    z = exp(sub(logits, Tensor(np.take(shift, dst.index, axis=0))))
    alpha = div(z, take_rows(segment_sum(z, dst), dst))
    if kept is not None:
        alpha = mul(alpha, Tensor(kept / (1.0 - rate)))
    return segment_sum(mul(reshape(alpha, alpha.shape + (1,)), take_rows(v, src)), dst)


def assert_zeros_of_both_signs(values: np.ndarray, segs: Segments) -> None:
    wide = np.bincount(segs.index, minlength=segs.n) > 8
    zeros = values[wide][values[wide] == 0]
    assert np.signbit(zeros).any() and not np.signbit(zeros).all()


# (drops, rate) of each dropout setting a test runs: off, and on at 0.3
DROPOUT = ((False, 0.0), (True, 0.3))


class TestWeightedSegmentSum:
    """``softmax_aggregate``: one attention layer's softmax, dropout and weighted
    segment sum as one op, against the oracle and the tape it replaces."""

    @pytest.mark.parametrize("heads, dim", [(1, 1), (2, 3), (3, 2)])
    def test_matches_reference(self, heads, dim):
        logits, v, mask, src, dst, _ = softmax_inputs(heads, dim, seed=heads + dim)
        for drops, rate in DROPOUT:
            kept = mask if drops else None
            z, den = neighborhood_softmax(logits, dst)
            weights = z / den[dst.index] * (kept / (1.0 - rate) if drops else 1.0)
            want = segment_sum_reference(weights[..., None] * v[src.index], dst.index, dst.n)
            got = softmax_aggregate(Tensor(logits), Tensor(v), z, den, src, dst, kept, rate).data
            assert_same_bits(got, want)
            if drops:
                assert_zeros_of_both_signs(want, dst)

    @pytest.mark.parametrize("heads, dim", [(1, 1), (2, 3), (3, 2)])
    def test_gradients_match_unfused_tape(self, heads, dim):
        logits, v, mask, src, dst, negative = softmax_inputs(heads, dim, seed=10 + heads + dim)
        upstream = class_signed(np.random.default_rng(dim), negative, (dst.n, heads, dim))
        for drops, rate in DROPOUT:
            results = []
            for attend in (fused_attention, unfused_attention):
                leaves = Tensor(logits, requires_grad=True), Tensor(v, requires_grad=True)
                out = attend(*leaves, mask if drops else None, rate, src, dst)
                out.backward(upstream)
                results.append((out.data, *(t.grad for t in leaves)))
            for got, want in zip(*results):
                assert_same_bits(got, want)
            if drops:
                assert_zeros_of_both_signs(results[0][2], src)

    def test_tape_keeps_only_node_rows(self):
        logits, v, kept, src, dst, _ = softmax_inputs(2, 3, seed=4)
        z, den = neighborhood_softmax(logits, dst)
        leaves = Tensor(logits, requires_grad=True), Tensor(v, requires_grad=True)
        out = softmax_aggregate(*leaves, z, den, src, dst, kept, 0.3)
        assert out.node.parents == tuple(t.node for t in leaves)
        assert not any(isinstance(c.cell_contents, Tensor) for c in out._vjp.__closure__)
        # z is the only float edge row array kept: den is per node, the mask boolean
        held = closure_arrays(out)
        assert sorted(id(x) for x in held if len(x) == len(logits)) == sorted((id(z), id(kept)))
        assert any(x is den for x in held)

    def test_no_edges(self):
        none = Segments(np.zeros(0, dtype=np.int64), 3)
        logits, v = Tensor(np.zeros((0, 2)), requires_grad=True), leaf((3, 2, 2))
        out = fused_attention(logits, v, np.zeros((0, 2), dtype=bool), 0.5, none, none)
        out.backward(np.ones((3, 2, 2)))
        np.testing.assert_array_equal(out.data, np.zeros((3, 2, 2)))
        assert logits.grad.shape == (0, 2)
        np.testing.assert_array_equal(v.grad, np.zeros((3, 2, 2)))


def closure_arrays(t: Tensor) -> list[np.ndarray]:
    return [c.cell_contents for c in t._vjp.__closure__
            if isinstance(c.cell_contents, np.ndarray)]


class TestFusedOps:
    """``edge_sum``, ``pair_dot`` and ``dropout`` give the bits of the tapes they
    replace and keep less on the tape; so does ``leaky_relu`` with its boolean mask."""

    @pytest.mark.parametrize("heads", [1, 3])
    def test_edge_sum_matches_gather_and_add(self, heads):
        alpha, _, src, dst = attention_inputs(heads, 1, seed=21 + heads)
        upstream = np.repeat(alpha[..., None], 2, axis=2)
        gen = np.random.default_rng(heads)
        a_data, b_data = (signed_rows(gen, (dst.n, heads, 2)) for _ in range(2))
        results = []
        for op in (edge_sum, lambda a, b, d, s: take_rows(a, d) + take_rows(b, s)):
            a, b = Tensor(a_data, requires_grad=True), Tensor(b_data, requires_grad=True)
            out = op(a, b, dst, src)
            out.backward(upstream)
            results.append((out.data, a.grad, b.grad))
        for got, want in zip(*results):
            assert_same_bits(got, want)
        for grad, segs in zip(results[0][1:], (dst, src)):
            wide = np.bincount(segs.index, minlength=segs.n) > 8
            zeros = grad[wide][grad[wide] == 0]
            assert np.signbit(zeros).any() and not np.signbit(zeros).all()

    def test_edge_sum_tape_keeps_no_edge_rows(self):
        _, _, src, dst = attention_inputs(2, 1, seed=5)
        a, b = leaf((dst.n, 2, 3)), leaf((src.n, 2, 3))
        out = edge_sum(a, b, dst, src)
        assert out.node.parents == (a.node, b.node)
        assert not any(x.dtype == np.float64 for x in closure_arrays(out))

    def test_pair_dot_matches_gather_multiply_sum(self):
        alpha, _, v, u = attention_inputs(1, 1, seed=31)
        gen = np.random.default_rng(31)
        data = signed_rows(gen, (u.n, 3, 1))[..., 0]
        upstream = alpha[:, 0] * gen.standard_normal(len(alpha))
        results = []
        for op in (pair_dot, lambda t, a, b: tsum(mul(take_rows(t, a), take_rows(t, b)), axis=1)):
            x = Tensor(data, requires_grad=True)
            out = op(x, u, v)
            out.backward(upstream)
            results.append((out.data, x.grad))
        for got, want in zip(*results):
            assert_same_bits(got, want)
        assert (x.grad == 0).any()

    def test_pair_dot_tape_keeps_no_pair_rows(self):
        _, _, v, u = attention_inputs(1, 1, seed=6)
        x = leaf((u.n, 4))
        out = pair_dot(x, u, v)
        assert out.node.parents == (x.node,)
        assert [a for a in closure_arrays(out) if a.dtype == np.float64] == [x.data]

    def test_dropout_matches_mask_multiply(self):
        data = signed_rows(np.random.default_rng(3), (40, 4, 3))
        upstream = signed_rows(np.random.default_rng(4), (40, 4, 3))
        mask = (np.random.default_rng(7).random(data.shape) < 0.7) / 0.7
        results = []
        for op in (lambda t: dropout(t, 0.3, np.random.default_rng(7)),
                   lambda t: mul(t, Tensor(mask))):
            x = Tensor(data, requires_grad=True)
            out = op(x)
            out.backward(upstream)
            results.append((out.data, x.grad))
        for got, want in zip(*results):
            assert_same_bits(got, want)

    @pytest.mark.parametrize("op", [lambda t: dropout(t, 0.5, np.random.default_rng(0)),
                                    leaky_relu], ids=["dropout", "leaky_relu"])
    def test_tape_keeps_a_boolean_mask(self, op):
        held = closure_arrays(op(leaf((6, 3))))
        assert held and all(x.dtype == bool for x in held)


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

    @pytest.mark.parametrize("wiring", ["plain", "reshaped"])
    def test_gradient_terms_add_in_descending_creation_order(self, wiring):
        """x's three terms 1, 1e16 and -1e16 sum to 0 or 1 depending on the order.
        The last-made consumer's term comes first, however the tape is wired."""
        x = Tensor(np.ones(1), requires_grad=True)
        m1, m2 = x * Tensor(1.0), x * Tensor(1e16)
        late = reshape(x, (1,)) if wiring == "reshaped" else x
        out = (m1 + m2) + late * Tensor(-1e16)
        out.backward()
        assert x.grad[0] == (-1e16 + 1e16) + 1.0 == 1.0

    def test_backward_frees_the_tape_as_it_goes(self):
        """Each consumed node dies with its gradient and the arrays its VJP read,
        so a chain of 1 MiB elu nodes never holds more than a few at once."""
        y = Tensor(rng.standard_normal(1 << 17), requires_grad=True)
        for _ in range(20):
            y = elu(y)
        tracemalloc.start()
        try:
            y.backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20  # a kept tape peaks above 20 MiB

    def test_intermediate_dies_once_backward_returns(self):
        x = leaf((4,))
        middle = exp(x)
        alive = weakref.ref(middle)
        out = exp(middle)
        del middle
        out.backward()
        assert alive() is None
        np.testing.assert_allclose(x.grad, out.data * np.exp(x.data), rtol=1e-12)

    def test_dropped_intermediate_is_freed_before_backward(self):
        """The tape links nodes, not Tensors: once the forward drops an
        intermediate whose value no VJP reads (``add`` keeps shapes, ``exp``
        its output), its Tensor and its array are freed before the backward
        starts, and the gradient is the one of a run that keeps them."""
        data = rng.standard_normal((4, 3))
        grads = []
        for keep in (True, False):
            x = Tensor(data, requires_grad=True)
            middle = x + Tensor(1.0)
            refs = weakref.ref(middle), weakref.ref(middle.data)
            out = exp(middle)
            if not keep:
                del middle
                assert all(ref() is None for ref in refs)
            out.backward()
            grads.append(x.grad)
        np.testing.assert_array_equal(*grads)

    def test_second_backward_through_consumed_tape_raises(self):
        x = leaf((3,))
        out = exp(x) * x
        out.backward()
        with pytest.raises(RuntimeError, match="consumed tape"):
            out.backward()

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
        assert err_a < 1e-8  # the central differences of a bilinear f: rounding only
        assert np.isnan(err_b)

    def test_step_scales_with_the_tensor(self):
        """The circuit reads x / |x|, so its input gradient scales as 1 / |x|.
        On a row of norm 1.1e-3, an absolute 1e-6 step misreads the correct
        adjoint gradient by more than 1e-4; a step scaled to the row does not."""
        gen = np.random.default_rng(103)
        x = gen.standard_normal((1, 4))
        x *= 1.1e-3 / np.linalg.norm(x)
        angles = gen.uniform(0, 2 * np.pi, (1, 2, 3))
        upstream = Tensor(gen.standard_normal((1, 2)))
        layout = vqc.build_layout(2, 1)

        def weighted(inputs, a):
            return vqc.expectations_op(inputs, a, layout) * upstream

        inputs = Tensor(x, requires_grad=True)
        weighted(inputs, Tensor(angles)).backward()
        absolute = central_difference(
            lambda: weighted(Tensor(x), Tensor(angles)).data.sum(), x, 1e-6)
        assert np.max(np.abs(inputs.grad - absolute) / np.abs(absolute)) > 1e-4
        gradcheck(weighted, [Tensor(x, requires_grad=True), Tensor(angles, requires_grad=True)])

    def test_central_difference_restores_input(self):
        x = rng.standard_normal((3, 4))[:, ::2]  # strided view: perturbed in place all the same
        before = x.copy()
        grad = central_difference(lambda: float(np.sum(x ** 3)), x, 1e-6)
        np.testing.assert_array_equal(x, before)
        np.testing.assert_allclose(grad, 3 * before ** 2, rtol=1e-6)
