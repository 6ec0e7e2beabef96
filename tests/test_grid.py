"""Exact grid functions: averages, prefix sums, offsets, distribution."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jnplus import (
    DyadicCube,
    GeneratorSpec,
    GridFormatError,
    GridFunction,
    OutOfDomainError,
    average,
    distribution_measure,
    forward,
    gen,
    offset_positive_part,
    pos_part_average,
    refine,
    root_cube,
    scale_values,
    shift_values,
    subcubes,
)
from jnplus._blocks import absdev_sums
from jnplus.grid import exact, union_sum

from helpers import (
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
    return list(subcubes(root_cube(f.n), f.L))


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
        for domain in ("cube", "union"):
            got = pos_part_average(f, domain, c, ref)
            want = naive_pos_part_average(
                f, domain if domain == "union" else "cube", c, ref
            )
            assert got == want


def test_average_f64():
    f = GridFunction(1, 1, np.array([1.0, 3.0, 0.5, 0.5, 0.0, 0.0]), "f64")
    assert average(f, root_cube(1)) == pytest.approx(2.0)
    assert average(f, DyadicCube(1, (), 1)) == pytest.approx(3.0)
    assert average(f, DyadicCube(0, (), 1)) == pytest.approx(0.5)


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
    assert f.min_over(forward(root_cube(1))) == 1
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
