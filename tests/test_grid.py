"""Exact grid functions: averages, cube sums, offsets, distribution."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jnplus import (
    DyadicCube,
    antichain_oracle,
    GeneratorSpec,
    GridFormatError,
    GridFunction,
    OutOfDomainError,
    average,
    distribution_measure,
    forward,
    gen,
    jnp_classical_dyadic,
    jnp_plus_dyadic,
    maximal_function,
    offset_positive_part,
    pos_part_average,
    refine,
    root_cube,
    scale_values,
    shift_values,
)
from jnplus._blocks import absdev_sums, clamped_sums
from jnplus.grid import MAX_N, counts_above, exact, exceed_ranks, exceeds, union_sum
from jnplus.maximal import positive_part_field

from helpers import (
    all_subcubes,
    cell_value,
    naive_average,
    naive_block_sum,
    naive_distribution_measure,
    naive_phi_classical,
    naive_pos_part_average,
    random_fixed_grid,
)


def both_dtypes(f):
    """An int64 grid and the same function on Python-int numerators 2^60 times larger."""
    assert f.values.dtype == np.int64
    big = 1 << 60
    g = GridFunction(f.n, f.L, f.values.astype(object) * big, "fixed", f.denom * big)
    assert g.values.dtype == object or not f.values.any()
    return [f, g]


@st.composite
def fixed_grids(draw, max_n=2, max_L=2, denom=8):
    n = draw(st.integers(1, max_n))
    L = draw(st.integers(0, max_L))
    size = 3 * (1 << (L * n))
    vals = draw(st.lists(st.integers(0, 2 * denom), min_size=size, max_size=size))
    return GridFunction(n, L, np.array(vals), "fixed", denom)


def grid_cubes(f):
    return list(all_subcubes(root_cube(f.n), f.L))


def test_construction_validation():
    with pytest.raises(GridFormatError):
        GridFunction(1, 1, [0, 1, 2], "fixed", 4)  # wrong cell count
    with pytest.raises(GridFormatError):
        GridFunction(1, 1, [0] * 6, "fixed", None)  # missing denominator
    with pytest.raises(GridFormatError):
        GridFunction(1, 1, [0] * 6, "fixed", 0)
    with pytest.raises(GridFormatError):
        GridFunction(1, 1, [0.5] * 6, "fixed", 4)  # non-integer numerators
    for bad in (np.inf, -np.inf, np.nan, 0.5):
        for given in ([bad] + [0] * 5, np.array([bad] + [0] * 5)):
            with pytest.raises(GridFormatError):
                GridFunction(1, 1, given, "fixed", 1)
    with pytest.raises(GridFormatError):
        GridFunction(1, 1, [0] * 6, "f64", 4)  # denom is fixed-mode only
    assert GridFunction(MAX_N, 0, [1, 2, 3], "fixed", 1).values.ndim == MAX_N
    for n in (0, MAX_N + 1, 70):  # past MAX_N, dyadic blocks would take over 64 numpy axes
        with pytest.raises(GridFormatError, match=f"dimension must lie in \\[1, {MAX_N}\\]"):
            GridFunction(n, 0, [1, 2, 3], "fixed", 1)


def test_shape_and_cell_volume():
    f = GridFunction(2, 1, np.zeros((2, 6)), "f64")
    assert f.shape == (2, 6)
    assert f.cell_volume == Fraction(1, 4)
    assert f.root == root_cube(2)


@settings(max_examples=40, deadline=None)
@given(fixed_grids())
def test_average_matches_naive(f):
    for c in grid_cubes(f):
        assert average(f, c) == naive_average(f, c)
        assert average(f, forward(c)) == naive_average(f, forward(c))


@settings(max_examples=25, deadline=None)
@given(fixed_grids(max_L=1))
def test_pos_part_average_matches_naive(f):
    for c in grid_cubes(f):
        ref = forward(c, 2)
        assert pos_part_average(f, c, ref) == naive_pos_part_average(f, "union", c, ref)


def test_average_f64():
    f = GridFunction(1, 1, np.array([1.0, 3.0, 0.5, 0.5, 0.0, 0.0]), "f64")
    assert average(f, root_cube(1)) == pytest.approx(2.0)
    assert average(f, DyadicCube(1, (), 1)) == pytest.approx(3.0)
    assert average(f, DyadicCube(0, (), 1)) == pytest.approx(0.5)


def test_f64_mean_past_float_range_raises():
    """Finite cells whose mean over a cube overflows: average and
    offset_positive_part name the overflow, and numpy warns of nothing."""
    f = GridFunction(1, 1, [1e308, 0.0, 0.0, 0.0, -1e308, -1e308], "f64")
    root_pp = forward(root_cube(1), 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fn in (average, offset_positive_part):
            with pytest.raises(OutOfDomainError, match=r"mean of f over .* overflows"):
                fn(f, root_pp)
        assert average(f, root_cube(1)) == 5e307  # a finite mean on the same grid
        # the cells before root++ sum past the float range; its own cells sum to 10
        g = GridFunction(1, 1, [1e308, 1e308, 0.0, 0.0, 5.0, 5.0], "f64")
        assert average(g, root_pp) == 5.0
        assert offset_positive_part(g, root_pp).values.max() == 1e308 - 5.0


def test_prefix_box_sums():
    rng = np.random.default_rng(3)
    f = random_fixed_grid(rng, 2, 2)
    pre = f.prefix()
    for c in grid_cubes(f):
        sh = f.L - c.level
        sl = tuple(
            slice(i << sh, (i + 1) << sh) for i in (*c.spatial, c.time)
        )
        assert pre.cube_sum(c) == int(f.values[sl].sum())


def test_union_sum_matches_cells():
    rng = np.random.default_rng(4)
    fixed = random_fixed_grid(rng, 2, 2)
    for f in both_dtypes(fixed):
        for c in grid_cubes(f):
            assert union_sum(f, c) == naive_block_sum(f, c) + naive_block_sum(f, forward(c))
    f64 = GridFunction(2, 2, fixed.values / fixed.denom, "f64")
    for c in grid_cubes(f64):
        got = union_sum(f64, c)
        assert isinstance(got, float)
        assert got == pytest.approx(naive_block_sum(f64, c) + naive_block_sum(f64, forward(c)))


@pytest.mark.parametrize("n,L", [(1, 4), (2, 2), (3, 1)])
def test_cube_sums_match_fsum_on_non_dyadic_f64(n, L):
    rng = np.random.default_rng(40 + n)
    shape = (1 << L,) * (n - 1) + (3 << L,)
    f = GridFunction(n, L, rng.normal(size=shape) * 10.0 ** rng.uniform(-6, 6, size=shape), "f64")
    for c in grid_cubes(f):
        cells = f.region(c).ravel().tolist()
        assert average(f, c) == pytest.approx(math.fsum(cells) / len(cells), rel=1e-9)
        both = cells + f.region(forward(c)).ravel().tolist()
        assert union_sum(f, c) == pytest.approx(math.fsum(both), rel=1e-9)


def test_cube_sums_exact_in_fixed_mode_past_int64():
    rng = np.random.default_rng(43)
    for n, L in ((1, 3), (2, 2), (3, 1)):
        f = random_fixed_grid(rng, n, L)
        big = scale_values(f, 1 << 56)
        assert big.values.dtype == object
        for g in (f, big):
            for c in grid_cubes(g):
                total = naive_block_sum(g, c)
                assert average(g, c) == Fraction(total, g.cells_in(c) * g.denom)
                assert union_sum(g, c) == total + naive_block_sum(g, forward(c))


def test_f64_mean_does_not_cancel_against_earlier_cells():
    """A large cell before a cube does not round the cube's small mean away."""
    root_pp = forward(root_cube(1), 2)
    assert average(GridFunction(1, 1, [1e17, 0, 0, 0, 5, 5], "f64"), root_pp) == 5.0
    assert average(GridFunction(1, 2, [3e16] + [0] * 7 + [1] * 4, "f64"), root_pp) == 1.0


def test_f64_union_sum_past_float_range_raises():
    f = GridFunction(1, 1, [1e308, 1e308, 0.0, 0.0, 0.0, 0.0], "f64")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OutOfDomainError, match=r"sum of f over .* ∪ .* overflows"):
            union_sum(f, root_cube(1))
        assert f.block_sums(0).tolist() == [np.inf, 0.0, 0.0]
        assert union_sum(f, DyadicCube(1, (), 1)) == 1e308


def _between(points):
    return [(a + b) / 2 for a, b in zip(points, points[1:])]


def test_exceeds_is_value_over_scale_above_lambda():
    """grid.exceeds against Fraction(v, scale) > lam, cell by cell, on int64,
    object and float64 cells, at thresholds on and between the values, and
    with lam * scale past 2^63 on int64 cells (the clamp)."""
    top = (1 << 62) - 1
    ints = [-top, -12, -1, 0, 1, 5, 6, top]
    cases = [
        (np.array(ints, dtype=np.int64), [(1, 1), (4, 3), (1, 7)]),
        (np.array([v << 70 for v in ints], dtype=object), [(1, 1), (4, 3)]),
    ]
    for numer, scales in cases:
        for count, denom in scales:
            scale = count * denom
            on = sorted({Fraction(int(v), scale) for v in numer})
            past = [Fraction(s * ((1 << 63) + 5), scale) for s in (1, -1)]
            past += [Fraction(1 << 62, scale), Fraction(-(1 << 62), scale)]
            for lam in on + _between(on) + past:
                want = [Fraction(int(v), scale) > lam for v in numer]
                assert exceeds(numer, count, denom, lam).tolist() == want, (scale, lam)

    cells = np.array([-3.5, -0.25, 0.0, 0.75, 1.5, 2.0, 1e300])
    for count in (1, 8):
        on = sorted({v / count for v in cells.tolist()})
        for lam in on + _between(on) + [1e308, -1e308]:
            want = [Fraction(v) / count > Fraction(lam) for v in cells.tolist()]
            assert exceeds(cells, count, None, lam).tolist() == want, (count, lam)


def _counts(numer, count, denom, lams) -> list[int]:
    """Per lam of the ascending ``lams``, the entries that exceed it, from their ranks."""
    return counts_above(exceed_ranks(numer, count, denom, lams), len(lams)).tolist()


def test_counts_above_match_exceeds_at_int64_boundary():
    """Each count of counts_above(exceed_ranks(...)) is exceeds(...).sum()
    at that lam, on int64, object and float64 cells, for ascending lists
    with duplicates of lams on and between the values and with lam * scale
    just below and at 2^62, in [2^63, 2^64) and past 2^64.  Without the
    2^62 clamp the int64 cuts would not fit an int64 array (numpy makes
    [2^63 + 5] a uint64 one, and compares it with int64 cells in float64)."""
    top = (1 << 62) - 1
    ints = [-top, -(top - 1), -12, -1, 0, 1, 5, 6, top - 1, top]
    edges = [(1 << 62) - 2, (1 << 62) - 1, 1 << 62, (1 << 63) + 5, (1 << 64) - 1, (1 << 64) + 7]
    cases = [
        (np.array(ints, dtype=np.int64).reshape(2, 5), [(1, 1), (4, 3), (1, 7)]),
        (np.array([v << 70 for v in ints], dtype=object), [(1, 1), (4, 3)]),
    ]
    for numer, scales in cases:
        for count, denom in scales:
            scale = count * denom
            on = sorted({Fraction(int(v), scale) for v in numer.ravel()})
            past = [Fraction(s * e, scale) for e in edges for s in (1, -1)]
            inner = on[::-1] + _between(on) + on[::3]
            mixed = past + inner + past[:3]
            # one far cut with same-sign values: numpy would put unclamped
            # cuts in a float64 or uint64 array
            one_edge = [[lam] + [x for x in inner if (x >= 0) == (lam >= 0)] for lam in past]
            for lams in [sorted(mixed)] + [sorted(lams) for lams in one_edge]:
                got = _counts(numer, count, denom, lams)
                want = [int(exceeds(numer, count, denom, lam).sum()) for lam in lams]
                assert got == want, scale
                naive = [sum(Fraction(int(v), scale) > lam for v in numer.ravel()) for lam in lams]
                assert got == naive, scale

    cells = np.array([-3.5, -0.25, 0.0, 0.75, 1.5, 2.0, 1e300])
    for count in (1, 8):
        on = sorted({v / count for v in cells.tolist()})
        lams = sorted([1e308, -1e308] + on[::-1] + _between(on) + on[::2])
        got = _counts(cells, count, None, lams)
        assert got == [int(exceeds(cells, count, None, lam).sum()) for lam in lams], count
    assert _counts(cells, 1, None, []) == []


def test_exceed_ranks_match_exceeds_at_int64_boundary():
    """An entry of exceed_ranks exceeds lams[i] (i < rank) exactly where
    exceeds(...) holds at lams[i], on int64, object and float64 cells (nan
    included), for ascending lists with repeats of lams on and between the
    values and with lam * scale just below and at 2^62, in [2^63, 2^64) and
    past 2^64, where only the 2^62 clamp keeps the cuts an int64 array.
    Each lam alone, as a one-element list, takes the one-compare case."""
    top = (1 << 62) - 1
    ints = [-top, -(top - 1), -12, -1, 0, 1, 5, 6, top - 1, top]
    edges = [(1 << 62) - 2, (1 << 62) - 1, 1 << 62, (1 << 63) + 5, (1 << 64) - 1, (1 << 64) + 7]
    cases = [
        (np.array(ints, dtype=np.int64).reshape(2, 5), [(1, 1), (4, 3), (1, 7)]),
        (np.array([v << 70 for v in ints], dtype=object), [(1, 1), (4, 3)]),
    ]
    lists = []
    for numer, scales in cases:
        for count, denom in scales:
            scale = count * denom
            on = sorted({Fraction(int(v), scale) for v in numer.ravel()})
            past = [Fraction(s * e, scale) for e in edges for s in (1, -1)]
            inner = on + _between(on) + on[::3]
            lists += [(numer, count, denom, sorted(past + inner + past[:3]))]
            # one far cut with same-sign values
            lists += [
                (numer, count, denom, sorted([lam] + [x for x in inner if (x >= 0) == (lam >= 0)]))
                for lam in past
            ]
    cells = np.array([-3.5, -0.25, 0.0, np.nan, 0.75, 1.5, 2.0, 1e300])
    for count in (1, 8):
        on = sorted({v / count for v in cells.tolist() if v == v})
        lists.append((cells, count, None, sorted([1e308, -1e308] + on + _between(on) + on[::2])))
    for numer, count, denom, lams in lists:
        ranks = exceed_ranks(numer, count, denom, lams)
        assert ranks.shape == numer.shape and ranks.dtype == np.int16
        for i, lam in enumerate(lams):
            assert np.array_equal(ranks > i, exceeds(numer, count, denom, lam)), (count, denom, lam)
            if denom is not None:
                naive = [Fraction(int(v), count * denom) > lam for v in numer.ravel()]
                assert (ranks > i).ravel().tolist() == naive, (count, denom, lam)
            one = exceed_ranks(numer, count, denom, [lam])
            assert one.dtype == np.int16 and one.shape == numer.shape
            assert np.array_equal(one, ranks > i), (count, denom, lam)
    assert exceed_ranks(cells, 1, None, []).tolist() == [0] * len(cells)
    assert exceed_ranks(cells, 1, None, [-1e308])[np.isnan(cells)].tolist() == [0]
    # a strided array of more entries than one searchsorted slab
    big = np.random.default_rng(5).integers(-50, 50, size=(3, 24000))[:, ::2]
    lams = [Fraction(k, 3) for k in range(-160, 160, 7)]
    ranks = exceed_ranks(big, 1, 1, lams)
    for i, lam in enumerate(lams):
        assert np.array_equal(ranks > i, exceeds(big, 1, 1, lam)), lam


def test_distribution_measure_counts_cells():
    # f = 4 on [3/4,1), reference box is [2,3) where f = 0
    vals = [0, 0, 0, 4] + [0] * 8
    root = root_cube(1)
    for f in both_dtypes(GridFunction(1, 2, np.array(vals), "fixed", 1)):
        # strict: at lam = 4 the cell of value 4 does not count
        for lam, want in ((1, Fraction(1, 4)), (4, 0), (Fraction(7, 2), Fraction(1, 4))):
            assert distribution_measure(f, root, lam) == want
            assert naive_distribution_measure(f, root, lam) == want


def test_distribution_measure_with_offset_reference():
    # reference mean is 1, so cells count when f > lam + 1
    vals = [0, 2, 3, 4] + [0] * 4 + [1] * 4
    root = root_cube(1)
    for f in both_dtypes(GridFunction(1, 2, np.array(vals), "fixed", 1)):
        for lam, want in ((1, Fraction(2, 4)), (3, 0)):
            assert distribution_measure(f, root, lam) == want
            assert naive_distribution_measure(f, root, lam) == want


@settings(max_examples=25, deadline=None)
@given(fixed_grids(max_L=1))
def test_offset_positive_part_matches_cells(f):
    root = root_cube(f.n)
    ref = forward(root, 2)
    for f in both_dtypes(f):
        g = offset_positive_part(f, ref)
        r = naive_average(f, ref)
        assert g.is_fixed
        for idx in np.ndindex(*f.shape):
            assert cell_value(g, idx) == max(cell_value(f, idx) - r, 0)


def test_scale_shift_refine_exact():
    rng = np.random.default_rng(5)
    root = root_cube(1)
    for f in both_dtypes(random_fixed_grid(rng, 1, 2)):
        g = scale_values(f, Fraction(3, 2))
        assert average(g, root) == Fraction(3, 2) * naive_average(f, root)

        h = shift_values(f, Fraction(1, 3))
        assert average(h, root) == naive_average(f, root) + Fraction(1, 3)
        for idx in np.ndindex(*f.shape):
            assert cell_value(g, idx) == Fraction(3, 2) * cell_value(f, idx)
            assert cell_value(h, idx) == cell_value(f, idx) + Fraction(1, 3)

        r = refine(f)
        assert r.L == f.L + 1
        for c in grid_cubes(f):
            assert average(r, c) == average(f, c)


def test_block_sums_match_prefix():
    rng = np.random.default_rng(11)
    f = random_fixed_grid(rng, 2, 2)
    pre = f.prefix()
    for k in range(f.L + 1):
        S = f.block_sums(k)
        sh = f.L - k
        for idx in np.ndindex(*S.shape):
            sl = tuple(slice(i << sh, (i + 1) << sh) for i in idx)
            assert int(S[idx]) == int(f.values[sl].sum())


def test_clamped_sums_shared_and_exact():
    rng = np.random.default_rng(12)
    for f in both_dtypes(random_fixed_grid(rng, 2, 2)):
        for k in range(f.L + 1):
            N = 1 << ((f.L - k) * f.n)
            for offset in (1, 2):
                C = f.clamped_sums(k, offset)
                assert f.clamped_sums(k, offset) is not C  # nothing kept outside sharing
                with f.sharing_clamped_sums():
                    shared = f.clamped_sums(k, offset)
                    assert f.clamped_sums(k, offset) is shared
                    assert not shared.flags.writeable
                    assert np.array_equal(shared, C)
                assert f.clamped_sums(k, offset) is not shared
                # Q0 plus the one time block after it
                assert C.shape == (1 << k,) * (f.n - 1) + ((1 << k) + 1,)
                for idx in np.ndindex(*C.shape):
                    if idx[-1] + offset >= 3 << k:
                        continue  # no forward reference block
                    c = DyadicCube(k, idx[:-1], idx[-1])
                    want = naive_pos_part_average(f, "cube", c, forward(c, offset))
                    assert Fraction(int(C[idx]), N * N * f.denom) == want


def test_absdev_sums_match_cellwise_classical_weights():
    rng = np.random.default_rng(13)
    for f in both_dtypes(random_fixed_grid(rng, 2, 2)):
        for k in range(f.L + 1):
            N = 1 << ((f.L - k) * f.n)
            A = absdev_sums(f, k)
            assert A.shape == (1 << k,) * f.n  # the blocks of Q0
            for idx in np.ndindex(*A.shape):
                c = DyadicCube(k, idx[:-1], idx[-1])
                # phi_classical with p=1 is |Q| * mean over Q of |f - f_Q|
                mean_dev = naive_phi_classical(f, c, 1) * (1 << (k * f.n))
                assert Fraction(int(A[idx]), N * N * f.denom) == mean_dev


def test_big_numerators_fall_back_to_objects():
    big = 1 << 70
    vals = [big, 0, 0, 0, 0, 0]
    f = GridFunction(1, 1, np.array(vals, dtype=object), "fixed", 1)
    assert f.values.dtype == object
    assert average(f, root_cube(1)) == Fraction(big, 2)
    g = offset_positive_part(f, forward(root_cube(1), 2))
    assert cell_value(g, (0,)) == big


def test_value_bounds_and_equals():
    f = GridFunction(1, 1, [0, 1, 2, 3, 4, 5], "fixed", 2)
    assert f.min_value() == 0
    assert f.max_value() == Fraction(5, 2)
    g = GridFunction(1, 1, [0, 1, 2, 3, 4, 5], "fixed", 2)
    assert f.equals(g)
    assert not f.equals(GridFunction(1, 1, [0, 1, 2, 3, 4, 6], "fixed", 2))


def test_resolve_root_validation():
    from jnplus.grid import resolve_root

    f = GridFunction(1, 1, [0] * 6, "fixed", 1)
    assert resolve_root(f, None) == root_cube(1)
    with pytest.raises(OutOfDomainError):
        resolve_root(f, DyadicCube(2, (), 0))  # finer than the grid
    with pytest.raises(OutOfDomainError):
        resolve_root(f, DyadicCube(1, (), 2))  # outside the unit cube


def _guard_limit(n, L):
    """Smallest cell magnitude that no longer fits the int64 guard."""
    return 1 << (62 - (2 * L * n + 3))


def _assert_block_sums_naive(f):
    for k in range(f.L + 1):
        S = f.block_sums(k)
        for idx in np.ndindex(*S.shape):
            assert int(S[idx]) == naive_block_sum(f, DyadicCube(k, idx[:-1], idx[-1]))


@pytest.mark.parametrize("n,L", [(1, 2), (2, 2)])
def test_int64_guard_boundary_from_both_sides(n, L):
    limit = _guard_limit(n, L)
    rng = np.random.default_rng(n * 10 + L)
    base = rng.integers(-1000, 1000, size=3 << (L * n))
    for top, want in ((limit - 1, np.int64), (limit, object)):
        for sign in (1, -1):
            vals = base.copy()
            vals[1] = sign * top
            for given in (vals.astype(np.int64), vals.tolist()):
                f = GridFunction(n, L, given, "fixed", 3)
                # the constructor's bound is |cell| * 2^{2Ln+3}
                assert exact(np.array(given), top << (2 * L * n + 3)).dtype == want
                assert f.values.dtype == want, (top, sign, type(given))
                assert [int(v) for v in f.values.ravel().tolist()] == vals.tolist()
                _assert_block_sums_naive(f)


def _grids_at_the_guard(n, L):
    """int64 grids whose cells are all +-(the guard limit - 1): Q0 above its
    next two time blocks (so value*N - S of a forward reference reaches
    2N times a cell), the reverse, a parity checkerboard and random signs."""
    top = _guard_limit(n, L) - 1
    side = 1 << L
    idx = np.indices((side,) * (n - 1) + (3 * side,))
    t = idx[-1] // side  # the level-0 time block of each cell
    signs = [
        np.where(t == 0, 1, -1),
        np.where(t == 0, -1, 1),
        np.where(idx.sum(axis=0) % 2 == 0, 1, -1),
        np.random.default_rng(n * 100 + L).choice([-1, 1], size=t.shape),
    ]
    return [GridFunction(n, L, (s * top).astype(np.int64), "fixed", 3) for s in signs]


def _assert_deviation_sums_naive(f):
    """The clamped (offsets 1 and 2) and absolute deviation sums of f at every
    level against the cellwise references."""
    n, L = f.n, f.L
    for k in range(L + 1):
        N = 1 << ((L - k) * n)
        for offset in (1, 2):
            C = clamped_sums(f, k, offset)
            for idx in np.ndindex(*C.shape):
                if idx[-1] + offset < 3 << k:
                    c = DyadicCube(k, idx[:-1], idx[-1])
                    want = naive_pos_part_average(f, "cube", c, forward(c, offset))
                    assert Fraction(int(C[idx]), N * N * f.denom) == want, (k, offset, idx)
        A = absdev_sums(f, k)
        for idx in np.ndindex(*A.shape):
            c = DyadicCube(k, idx[:-1], idx[-1])
            want = naive_phi_classical(f, c, 1) * (1 << (k * n))
            assert Fraction(int(A[idx]), N * N * f.denom) == want, (k, idx)


@pytest.mark.parametrize("n,L", [(1, 2), (1, 3), (2, 2)])
def test_multiply_and_clamp_ops_exact_at_the_guard(n, L):
    """At cells of +-(the guard limit - 1) the grid keeps int64 cells, and
    every op that forms value*N - S stays exact on them: the clamped and
    absolute deviation sums against the cellwise references, the local
    positive-part field against the full-grid offset's field, and the two
    seminorm weights against the antichain oracle.  This pins the claim
    that |value| * 2^{2Ln+3} bounds every scaled product."""
    for f in _grids_at_the_guard(n, L):
        assert f.values.dtype == np.int64
        _assert_deviation_sums_naive(f)
        for c in all_subcubes(root_cube(n), L):
            local = positive_part_field(f, c)
            full = maximal_function(offset_positive_part(f, forward(c, 2)), c)
            assert local.values.dtype == np.int64
            cells = list(np.ndindex(*full.values.shape))
            assert [local.value_at(i) for i in cells] == [full.value_at(i) for i in cells], c
        for functional, dp in (
            ("jnp-plus", jnp_plus_dyadic),
            ("jnp-classical", jnp_classical_dyadic),
        ):
            assert dp(f, 2).weight == antichain_oracle(f, 2, functional=functional).weight


def _object_grids(n, L, top):
    """Object grids whose largest cell is ``top``: the four sign patterns of
    :func:`_grids_at_the_guard` at +-top, and small cells of both signs with
    one +top and one -top cell, so that block means are negative fractions
    next to cells one above their floor."""
    side = 1 << L
    idx = np.indices((side,) * (n - 1) + (3 * side,))
    t = idx[-1] // side
    rng = np.random.default_rng(n * 1000 + L)
    signs = [
        np.where(t == 0, 1, -1),
        np.where(t == 0, -1, 1),
        np.where(idx.sum(axis=0) % 2 == 0, 1, -1),
        rng.choice([-1, 1], size=t.shape),
    ]
    grids = [s.astype(object) * top for s in signs]
    small = rng.integers(-5, 6, size=t.shape).astype(object)
    small.flat[0], small.flat[small.size // 2] = top, -top
    grids.append(small)
    return [GridFunction(n, L, g, "fixed", 3) for g in grids]


@pytest.mark.parametrize("n,L", [(1, 2), (1, 3), (2, 2), (3, 2)])
@pytest.mark.parametrize("where", ["past-the-guard", "largest-lifted", "2^61"])
def test_multiply_and_clamp_ops_exact_on_object_grids(n, L, where):
    """The object-grid counterpart of the test above.  Cells just past the
    grid guard, at +-(2^61 - 1) and at 2^61: the first two lift to one
    int64 copy (2*max|cell| fits) and reduce in int64, the product form at
    every level for the first and the quotient form below level L for the
    second; the third keeps Python-int cells.  Block sums, clamped and
    absolute deviation sums all match the cellwise references, and block
    sums stay object arrays."""
    top = {"past-the-guard": _guard_limit(n, L), "largest-lifted": 2**61 - 1, "2^61": 2**61}[where]
    for f in _object_grids(n, L, top):
        assert f.values.dtype == object
        assert (f._int64_cells()[0] is not None) == (top < 2**61)
        for k in range(L + 1):
            assert f.block_sums(k).dtype == object
        _assert_block_sums_naive(f)
        _assert_deviation_sums_naive(f)


def test_int64_extremes_and_unsigned_input():
    L, n = 1, 1
    limit = _guard_limit(n, L)
    int64_min = np.iinfo(np.int64).min
    f = GridFunction(n, L, np.array([int64_min, 0, 1, 0, 0, 0], dtype=np.int64), "fixed", 1)
    assert f.values.dtype == object and f.values[0] == int64_min
    _assert_block_sums_naive(f)

    small = np.array([limit - 1, 0, 1, 2, 3, 4], dtype=np.uint64)
    f = GridFunction(n, L, small, "fixed", 1)
    assert f.values.dtype == np.int64
    assert f.values.tolist() == [limit - 1, 0, 1, 2, 3, 4]
    _assert_block_sums_naive(f)

    huge = np.array([2**64 - 1, 0, 1, 2, 3, 4], dtype=np.uint64)
    f = GridFunction(n, L, huge, "fixed", 1)
    assert f.values.dtype == object and f.values[0] == 2**64 - 1
    _assert_block_sums_naive(f)

    # numpy alone would read the last two lists as float64
    lists = ([2**70, -(2**70), 0, 0, 0, 1], [2**63, -1, 0, 0, 0, 1], [2**64 - 1, 0, 0, 0, 0, 1])
    for big in lists:
        f = GridFunction(n, L, big, "fixed", 1)
        assert f.values.dtype == object and f.values.tolist() == big
        _assert_block_sums_naive(f)
    with pytest.raises(GridFormatError):
        GridFunction(n, L, [2**63, 0.5, 0, 0, 0, 0], "fixed", 1)

    # integral floats are kept exactly, past int64 too
    for top in (float(limit - 1), 1e20, 2.0**63, -(2.0**63)):
        for given in ([top, 0, 0, 0, 0, 1], np.array([top, 0, 0, 0, 0, 1])):
            f = GridFunction(n, L, given, "fixed", 1)
            assert f.values.tolist() == [int(top), 0, 0, 0, 0, 1]
            assert f.values.dtype == (np.int64 if top == limit - 1 else object)


def test_offset_positive_part_on_lcm_denominator_stays_int64():
    """The uniform n=2 L=8 theorem grid: g on lcm(d, rd) fits int64, and equals
    as rationals the g built on d*rd, which would need big integers."""
    f = gen(GeneratorSpec("uniform-random", 2, 8, 0, "fixed", 256))
    ref = forward(root_cube(2), 2)
    g = offset_positive_part(f, ref)
    assert g.values.dtype == np.int64
    m = average(f, ref)
    rn, rd, d = m.numerator, m.denominator, f.denom
    wide_denom = d * rd
    wide = [max(a * rd - rn * d, 0) for a in f.values.ravel().tolist()]
    assert g.denom < wide_denom
    assert GridFunction(2, 8, wide, "fixed", wide_denom).values.dtype == object
    assert [v * wide_denom for v in g.values.ravel().tolist()] == [w * g.denom for w in wide]
