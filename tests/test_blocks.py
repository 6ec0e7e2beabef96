"""The one per-block reduction, ``_blocks.block_reduce``, and its fold."""

import numpy as np
import pytest

from jnplus._blocks import _halve, block_reduce, blocked, in_block

# (n, L): each grid-shaped array holds 3 * 2^{nL} entries, so block_reduce
# folds its narrow blocks and reduces its wide ones in one call
SHAPES = [(1, 10), (2, 5), (3, 4)]


def _grid_array(rng, n, L, kind):
    side = 1 << L
    shape = (side,) * (n - 1) + (3 * side,)
    ints = rng.integers(-1000, 1000, size=shape)
    if kind == "int64":
        return ints
    if kind == "bool":
        return ints > 0
    if kind == "object":  # Python ints past int64
        return ints.astype(object) << 70
    # floats over many magnitudes, so that the order of a sum shows in its rounding
    return rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, size=shape)


def _widths(L):
    return [1 << j for j in range(L + 1)]


@pytest.mark.parametrize("n, L", SHAPES)
@pytest.mark.parametrize("kind", ["int64", "bool", "object"])
def test_fold_matches_the_multi_axis_sum(n, L, kind):
    """Integer, boolean and object sums, by the fold and by block_reduce,
    equal blocked(a, w).sum(axis=in_block(n)) in value and dtype, at every w."""
    a = _grid_array(np.random.default_rng(n * 100 + L), n, L, kind)
    for w in _widths(L):
        want = blocked(a, w).sum(axis=in_block(n))
        for got in (_halve(a, w, np.add), block_reduce(blocked(a, w), np.add)):
            assert got.shape == want.shape and got.dtype == want.dtype
            assert (got == want).all(), w


@pytest.mark.parametrize("n, L", SHAPES)
@pytest.mark.parametrize("kind", ["int64", "bool", "object", "float"])
def test_fold_matches_the_multi_axis_max(n, L, kind):
    a = _grid_array(np.random.default_rng(n * 100 + L + 1), n, L, kind)
    for w in _widths(L):
        want = blocked(a, w).max(axis=in_block(n))
        for got in (_halve(a, w, np.maximum), block_reduce(blocked(a, w), np.maximum)):
            assert got.shape == want.shape and got.dtype == want.dtype
            assert (got == want).all(), w


@pytest.mark.parametrize("n, L", SHAPES)
def test_float_sums_keep_the_multi_axis_order(n, L):
    """block_reduce's float sums are the multi-axis reduce bit for bit, also
    at w=1 (where it turns -0.0 into 0.0); the fold alone would round them
    in another order."""
    a = _grid_array(np.random.default_rng(n * 100 + L + 2), n, L, "float")
    a.ravel()[:4] = -0.0
    reordered = 0
    for w in _widths(L):
        want = blocked(a, w).sum(axis=in_block(n))
        got = block_reduce(blocked(a, w), np.add)
        assert got.dtype == np.float64
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), w
        reordered += not np.array_equal(_halve(a, w, np.add), want)
    assert reordered  # the order matters for these sums


def test_w_1_reduces_nothing():
    """At w=1 an integer array comes back as a view of itself, and booleans as their
    int64 counts, as the multi-axis sum gives them."""
    a = np.arange(3 * 1024).reshape(32, 96)
    for op in (np.add, np.maximum):
        same = block_reduce(blocked(a, 1), op)
        assert np.shares_memory(same, a) and same.shape == a.shape and (same == a).all()
    mask = a % 3 == 0
    counts = block_reduce(blocked(mask, 1), np.add)
    assert counts.dtype == np.int64 and (counts == mask).all()
