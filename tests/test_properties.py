"""Property tests of the segment reduce: row order never changes a bit, softmax rows sum to 1."""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import configuration, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qgat.attention import neighborhood_softmax
from qgat.autodiff import Tensor, segment_sum, take_rows

from oracles import segment_sum_reference

# No example database, and the constants Hypothesis caches from the source
# while pytest collects go to the system temp directory, not ``.hypothesis/``:
# the tests write nothing into the tree.
PROPERTY = settings(max_examples=60, deadline=None, database=None)
configuration.set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "qgat-hypothesis")


@st.composite
def segment_problems(draw, trailing=st.sampled_from([(), (1,), (2,), (3, 2)])):
    """(values, seg, n, perm): rows of ``values`` fall into segments ``seg`` of 0..n-1.

    Values are Gaussian, some of them signed zeros: sums of simple values
    such as small integers are exact in any order and would hide a bad sort.
    """
    n = draw(st.integers(1, 6))  # n = 1 gives single-segment blocks
    rows = draw(st.integers(0, 40))
    seg = draw(arrays(np.int64, rows, elements=st.integers(0, n - 1)))
    shape = (rows, *draw(trailing))
    values = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(shape)
    zeros = draw(arrays(np.int8, shape, elements=st.integers(-1, 1)))  # 1: 0.0, -1: -0.0
    values[zeros != 0] = np.copysign(0.0, zeros[zeros != 0])
    perm = np.array(draw(st.permutations(range(rows))), dtype=np.int64)
    return values, seg, n, perm


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


@PROPERTY
@given(segment_problems())
def test_segment_sum_ignores_row_order(problem):
    values, seg, n, perm = problem
    base = segment_sum(Tensor(values), seg, n).data
    assert_same_bits(segment_sum(Tensor(values[perm]), seg[perm], n).data, base)
    assert_same_bits(base, segment_sum_reference(values, seg, n))


@PROPERTY
@given(segment_problems())
def test_take_rows_backward_ignores_row_order(problem):
    upstream, seg, n, perm = problem
    grads = []
    for order in (np.arange(len(seg)), perm):
        x = Tensor(np.zeros((n, *upstream.shape[1:])), requires_grad=True)
        take_rows(x, seg[order]).backward(upstream[order])
        grads.append(x.grad)
    assert_same_bits(grads[1], grads[0])


@PROPERTY
@given(segment_problems(trailing=st.sampled_from([(1,), (3,)])))
def test_softmax_rows_sum_to_one(problem):
    logits, dst, n, _ = problem
    alpha = neighborhood_softmax(Tensor(logits), dst, n).data
    totals = np.zeros((n, logits.shape[1]))
    np.add.at(totals, dst, alpha)
    filled = np.bincount(dst, minlength=n) > 0
    np.testing.assert_allclose(totals[filled], 1.0, rtol=0, atol=1e-12)
