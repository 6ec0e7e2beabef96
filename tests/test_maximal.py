"""One-sided maximal fields and stopping-time decompositions."""

import functools
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jnplus import (
    DyadicCube,
    GeneratorSpec,
    LemmaContext,
    GridFunction,
    InvalidParamsError,
    NegativeInputError,
    OutOfDomainError,
    average,
    bundled_example,
    check_p1,
    check_p2,
    cz_decompose,
    default_lambda_grid,
    default_manifest,
    distribution_measure,
    forward,
    gen,
    maximal_function,
    offset_positive_part,
    root_cube,
    scale_values,
    volume,
    weak_type_check,
)
from jnplus._blocks import block_count, root_box
from jnplus.maximal import positive_part_field, stopping_ranks
from jnplus.reports import Rows

from helpers import (
    all_subcubes,
    boolean_stopping_levels,
    corpus_grids,
    cube_cells,
    naive_average,
    naive_cz,
    naive_maximal,
    naive_select_subfamily,
    random_fixed_grid,
)


@st.composite
def grids_and_lambdas(draw):
    n = draw(st.integers(1, 2))
    L = draw(st.integers(0, 2))
    denom = 4
    size = 3 * (1 << (L * n))
    vals = draw(st.lists(st.integers(0, 2 * denom), min_size=size, max_size=size))
    f = GridFunction(n, L, np.array(vals), "fixed", denom)
    lam = Fraction(draw(st.integers(1, 3 * denom)), draw(st.integers(1, denom)))
    return f, lam


def test_worked_example_field():
    f = bundled_example()
    field = maximal_function(f)
    # per-cell sup of forward-translate averages over ancestors
    assert [field.value_at((t,)) for t in range(4)] == [2, 2, 4, 0]
    assert field.max_value() == 4
    assert field.superlevel_measure(Fraction(1, 2)) == Fraction(3, 4)
    assert field.superlevel_measure(Fraction(2)) == Fraction(1, 4)
    assert field.superlevel_measure(Fraction(4)) == 0  # strict


def test_worked_example_augmented():
    f = bundled_example()
    aug = maximal_function(f, None, "augmented")
    assert [aug.value_at((t,)) for t in range(4)] == [2, 2, 4, 4]
    grid = maximal_function(f)
    assert np.all(
        aug.values * grid.denom_scale >= grid.values * aug.denom_scale
    )


@settings(max_examples=30, deadline=None)
@given(grids_and_lambdas())
def test_maximal_matches_naive(fl):
    f, _ = fl
    root = root_cube(f.n)
    for variant in ("grid", "augmented"):
        field = maximal_function(f, root, variant)
        want = naive_maximal(f, root, variant)
        for idx in np.ndindex(*want.shape):
            assert field.value_at(idx) == want[idx]


def test_maximal_f64_close_to_exact():
    rng = np.random.default_rng(9)
    f = random_fixed_grid(rng, 2, 2)
    g = GridFunction(f.n, f.L, f.values.astype(np.float64) / f.denom, "f64")
    exact = maximal_function(f)
    approx = maximal_function(g)
    for idx in np.ndindex(*exact.values.shape):
        assert float(exact.value_at(idx)) == pytest.approx(approx.value_at(idx))


def test_maximal_on_subcube_root():
    rng = np.random.default_rng(21)
    f = random_fixed_grid(rng, 1, 2)
    root = DyadicCube(1, (), 1)
    field = maximal_function(f, root)
    want = naive_maximal(f, root, "grid")
    for idx in np.ndindex(*want.shape):
        assert field.value_at(idx) == want[idx]


def test_unknown_variant_rejected():
    f = bundled_example()
    with pytest.raises(InvalidParamsError):
        maximal_function(f, None, "two-sided")


def test_worked_example_decomposition():
    f = bundled_example()
    dec = cz_decompose(f, None, Fraction(1, 2))
    assert [(c.level, c.time) for c in dec.stopping.expand()] == [(1, 0), (2, 2)]
    assert dec.subfamily == [0]
    assert dec.groups == {0: [0, 1]}
    assert dec.total_volume() == Fraction(3, 4)
    assert dec.subfamily_volume() == Fraction(1, 2)


@settings(max_examples=30, deadline=None)
@given(grids_and_lambdas())
def test_cz_matches_naive(fl):
    f, lam = fl
    root = root_cube(f.n)
    dec = cz_decompose(f, root, lam)
    assert dec.stopping.expand() == sorted(naive_cz(f, root, lam))


@settings(max_examples=30, deadline=None)
@given(grids_and_lambdas())
def test_stopping_cubes_are_maximal_and_disjoint(fl):
    f, lam = fl
    root = root_cube(f.n)
    dec = cz_decompose(f, root, lam)
    stopping = dec.stopping.expand()
    cells = [cube_cells(c, f.L) for c in stopping]
    seen = set()
    for i, c in enumerate(stopping):
        assert average(f, forward(c)) > lam  # strict
        assert cells[i] <= cube_cells(root, f.L)
        for j, other in enumerate(cells):
            if j != i:
                assert not cells[i] <= other
        seen.add(c)
    assert len(seen) == len(dec.stopping)


@settings(max_examples=30, deadline=None)
@given(grids_and_lambdas())
def test_superlevel_identity(fl):
    """The grid maximal superlevel set is exactly the union of stoppers."""
    f, lam = fl
    root = root_cube(f.n)
    dec = cz_decompose(f, root, lam)
    field = maximal_function(f, root)
    assert field.superlevel_measure(lam) == dec.total_volume()


def test_negative_values_rejected():
    f = GridFunction(1, 1, [-1, 0, 0, 0, 0, 0], "fixed", 1)
    with pytest.raises(NegativeInputError):
        cz_decompose(f, None, Fraction(1))


def test_select_subfamily_non_overlapping_forwards():
    rng = np.random.default_rng(33)
    for _ in range(20):
        f = random_fixed_grid(rng, 2, 2)
        lam = Fraction(int(rng.integers(1, 16)), 8)
        dec = cz_decompose(f, None, lam)
        stopping = dec.stopping.expand()
        sel = [stopping[j] for j in dec.subfamily]
        assert [dec.stopping[j] for j in dec.subfamily] == sel
        fwds = [cube_cells(forward(c), f.L) for c in sel]
        for i, a in enumerate(fwds):
            for b_ in fwds[i + 1 :]:
                assert a.isdisjoint(b_)
        # groups partition the stopping indices
        members = sorted(i for ids in dec.groups.values() for i in ids)
        assert members == list(range(len(stopping)))
        # every dropped cube's forward sits inside its keeper's forward
        for j, ids in dec.groups.items():
            keeper_fwd = cube_cells(forward(stopping[j]), f.L)
            for i in ids:
                assert cube_cells(forward(stopping[i]), f.L) <= keeper_fwd


def _matches_naive(f, root, lams) -> tuple[int, int]:
    """Check cz_decompose at each lam against naive_cz + naive_select_subfamily,
    and check_p1 and check_p2 on its decomposition of ``root``.

    Returns the count of families checked (a lam where f < 0 on
    root ∪ root+ ends the sweep) and of those with a group of two or more.
    """
    avg = functools.lru_cache(maxsize=None)(naive_average)  # lam-free, so shared
    checked = merged = 0
    for lam in lams:
        try:
            dec = cz_decompose(f, root, lam)
        except NegativeInputError:
            break
        lam = Fraction(lam) if f.is_fixed else lam  # one conversion, not one per comparison
        want = sorted(naive_cz(f, root or root_cube(f.n), lam, avg))  # report order
        assert isinstance(dec.stopping, Rows)
        assert dec.stopping.expand() == want, (f.n, f.L, root, lam)
        assert (dec.subfamily, dec.groups) == naive_select_subfamily(want), (f.n, f.L, root, lam)
        assert check_p1(f, dec).passed and check_p2(f, dec).passed, (f.n, f.L, root, lam)
        checked += 1
        merged += len(dec.subfamily) < len(want)
    return checked, merged


@pytest.mark.parametrize("mode", ["fixed", "f64"])
def test_decomposition_matches_naive_reference_on_corpus(mode):
    """Stopping family, subfamily and groups equal the cube-by-cube
    reference on every corpus grid at the lambda grid of
    ``decompose --lambda auto``."""
    counts = np.zeros(2, dtype=int)
    for f in corpus_grids(mode):
        lams = default_lambda_grid(LemmaContext(f, 2, Fraction(1, 1 << (f.n + 1))))
        counts += _matches_naive(f, None, lams)
    assert counts[0] >= 3000 and counts[1] >= 150


def test_decomposition_matches_naive_reference_off_origin_and_n3():
    """The same on roots away from the origin, and on an n=3 grid, at
    thresholds on and between the values of the root's maximal field."""
    cases = [
        (GeneratorSpec("uniform-random", 1, 5, seed=8),
         [DyadicCube(1, (), 1), DyadicCube(3, (), 5)]),
        (GeneratorSpec("dyadic-martingale", 2, 4, seed=9),
         [DyadicCube(1, (1,), 0), DyadicCube(2, (2,), 3)]),
        (GeneratorSpec("uniform-random", 3, 2, seed=4, denom=64), [None, DyadicCube(1, (1, 0), 1)]),
        (GeneratorSpec("uniform-random", 1, 4, seed=3, denom=8), [DyadicCube(1, (), 0)]),
    ]
    counts = np.zeros(2, dtype=int)
    for spec, roots in cases:
        f = gen(spec)
        for root in roots:
            field = maximal_function(f, root)
            ties = np.unique(field.values).tolist()
            lams = [Fraction(v, field.denom_scale) for v in ties[:: max(1, len(ties) // 10)]]
            lams += [lam * Fraction(7, 8) for lam in lams if lam > 0]
            counts += _matches_naive(f, root, lams)
    assert counts[0] >= 90 and counts[1] >= 20


def _forward_mean_lambdas(f, root) -> list:
    """An ascending lam list with repeats: a spread of the exact forward
    block means of ``root``'s subcubes (ties), the midpoints between them,
    one lam below them all, and every third mean again."""
    means = set()
    for k in range(root.level, f.L + 1):
        fwd = f.block_sums(k)[root_box(root, k, time_shift=1)]
        means.update(f.ratio(v, block_count(f, k)) for v in np.unique(fwd).tolist())
    means = sorted(means)
    on = means[:: max(1, len(means) // 12)] + means[-1:]
    mids = [(a + b) / 2 for a, b in zip(on, on[1:])]
    return sorted(on + mids + on[::3] + [on[0] - 1])


def _ranks_match_masks(f, root, lams, at) -> int:
    """(A <= i) & (i < e) of stopping_ranks over ``lams`` equals the boolean
    sweep's mask at lams[i], for each level and each i of ``at``; returns
    the number of stopping cubes checked."""
    levels = list(stopping_ranks(f, root, lams))
    assert [k for k, _, _ in levels] == list(range(root.level, f.L + 1))
    cubes = 0
    for i in at:
        want = boolean_stopping_levels(f, root, lams[i])
        for (k, A, e), (_, mask) in zip(levels, want):
            assert np.array_equal((A <= i) & (i < e), mask), (f.n, f.L, root, k, i)
            cubes += int(mask.sum())
    return cubes


@pytest.mark.parametrize("mode", ["fixed", "f64", "big"])
def test_stopping_ranks_match_boolean_sweep(mode):
    """The one stopping rule against a boolean covering sweep per lam: on
    every corpus grid at Q0 and at a level-1 root off the origin, on an
    n=3 grid, and on one list of 2^15 lams (intp ranks) at sampled indices."""
    kind = "f64" if mode == "f64" else "fixed"
    n3 = gen(GeneratorSpec("uniform-random", 3, 2, seed=4, mode=kind, denom=64))
    grids = list(corpus_grids(mode)) + [scale_values(n3, 1 << 56) if mode == "big" else n3]
    cubes = 0
    for f in grids:
        for root in [root_cube(f.n)] + ([DyadicCube(1, (1,) * (f.n - 1), 1)] if f.L else []):
            lams = _forward_mean_lambdas(f, root)
            cubes += _ranks_match_masks(f, root, lams, range(len(lams)))
    assert cubes >= 5000
    f = next(g for g in grids if g.n == 2 and g.L == 3)
    root = root_cube(2)
    lams = _forward_mean_lambdas(f, root)
    lams = sorted(lams * ((1 << 15) // len(lams) + 1))
    assert next(stopping_ranks(f, root, lams))[2].dtype == np.intp
    at = set(np.random.default_rng(3).integers(0, len(lams), 40).tolist()) | {0, len(lams) - 1}
    assert _ranks_match_masks(f, root, lams, at) > 0


@pytest.mark.parametrize("mode", ["fixed", "f64", "big"])
def test_p1_p2_match_per_cube_means_on_corpus(mode):
    """check_p1 and check_p2 read block sums per level; their fields equal
    those from one mean per stopping cube, taken in list order."""
    checked = 0
    for f in corpus_grids(mode):
        lams = default_lambda_grid(LemmaContext(f, 2, Fraction(1, 1 << (f.n + 1))))
        for lam in lams[::3]:
            try:
                dec = cz_decompose(f, None, lam)
            except NegativeInputError:
                break
            lam = dec.threshold
            cubes = dec.stopping.expand()
            r1, r2 = check_p1(f, dec), check_p2(f, dec)
            assert r1.details["strict-at-stopping"] == all(
                average(f, forward(c)) > lam for c in cubes
            )
            parents = (
                DyadicCube(c.level - 1, tuple(s // 2 for s in c.spatial), c.time // 2)
                for c in cubes if c.level
            )
            assert r1.details["parent-fails"] == all(
                not average(f, forward(q)) > lam for q in parents
            )
            assert r1.passed and r2.passed and r1.details["stopping-count"] == len(cubes)
            if r2.admissible and cubes:
                means = [average(f, forward(c, 2)) for c in cubes]
                worst = max(means)
                assert r2.lhs == float(worst)
                assert r2.lhs_exact == (str(worst) if f.is_fixed else None)
                assert r2.details["worst-cube"] == cubes[means.index(worst)]
                checked += 1
            else:
                assert r2.details["worst-cube"] is None
    assert checked >= 60


def test_p1_p2_p3_on_worked_example():
    f = bundled_example()
    dec = cz_decompose(f, None, Fraction(1, 2))
    r1 = check_p1(f, dec)
    assert r1.passed and r1.exact
    assert r1.details["superlevel-identity"]
    r2 = check_p2(f, dec)
    assert r2.passed
    # admissible: lam = 1/2 >= mean over the root's forward box = 0? no:
    # mean(f over [1,2)) = 0, so the threshold clears it
    assert r2.admissible
    r3 = weak_type_check(f, None, Fraction(1, 2))
    assert r3.passed and r3.exact
    assert r3.details["superlevel-identity"]


def test_p2_bound_value():
    """At stopping cubes the two-steps-forward mean stays under 2^n lam."""
    rng = np.random.default_rng(4)
    for _ in range(15):
        f = random_fixed_grid(rng, 1, 2)
        lam = Fraction(int(rng.integers(1, 24)), 8)
        dec = cz_decompose(f, None, lam)
        r = check_p2(f, dec)
        assert r.passed
        if r.admissible:
            for c in dec.stopping.expand():
                assert average(f, forward(c, 2)) <= 2 * lam


def test_weak_type_random():
    rng = np.random.default_rng(6)
    for _ in range(15):
        f = random_fixed_grid(rng, 2, 1)
        lam = Fraction(int(rng.integers(1, 24)), 8)
        r = weak_type_check(f, None, lam)
        assert r.passed and r.exact
        assert r.details["intermediate-holds"]


def test_weak_type_rejects_nonpositive_lambda():
    f = bundled_example()
    with pytest.raises(InvalidParamsError):
        weak_type_check(f, None, Fraction(0))


@pytest.mark.parametrize("lam", [Fraction(1, 10**400), Fraction(10**400)])
def test_weak_type_names_a_threshold_outside_the_float_range(lam):
    """Its bound 2*integral/lam, or lam itself, has no float: a named error."""
    with pytest.raises(InvalidParamsError, match="outside the float range"):
        weak_type_check(bundled_example(), None, lam)


def test_check_p2_names_a_threshold_past_the_float_range():
    """The stopping family exists, but the bound 2^n*lam has no float."""
    f = bundled_example()
    dec = cz_decompose(f, None, Fraction(10**400))
    assert len(dec.stopping) == 0
    with pytest.raises(InvalidParamsError, match="outside the float range"):
        check_p2(f, dec)


def test_exact_bounds_past_the_float_range_read_inf():
    """A bound past the float range reads inf in the report, as in f64
    mode: p3's integral 2^1100 and 2*integral/lam, and p2's 2^n*lam for
    a lam near the float maximum."""
    f = GridFunction(1, 1, [2**1100] + [0] * 5, "fixed", 1)
    r3 = weak_type_check(f, None, 1)
    assert r3.passed and r3.rhs == float("inf")
    g = GridFunction(1, 1, [0, 0, 1, 1, 0, 0], "fixed", 1)
    r2 = check_p2(g, cz_decompose(g, None, 1.7e308))
    assert r2.passed and r2.admissible and r2.rhs == float("inf")


_LAMBDA_ENTRY_POINTS = {
    "cz_decompose": lambda f, lam: cz_decompose(f, None, lam),
    "superlevel_mask": lambda f, lam: maximal_function(f).superlevel_mask(lam),
    "superlevel_measure": lambda f, lam: maximal_function(f).superlevel_measure(lam),
    "distribution_measure": lambda f, lam: distribution_measure(f, None, lam),
}


@pytest.mark.parametrize("lam", [Fraction(1, 10**400), Fraction(10**400)])
@pytest.mark.parametrize("entry", sorted(_LAMBDA_ENTRY_POINTS))
def test_f64_threshold_outside_the_float_range_is_named(entry, lam):
    """On an f64 grid a lam whose float is 0 or infinite is refused by name,
    its float and the digits of its ratio, not decided at 0.0 or ended in
    a bare OverflowError.  A fixed grid decides the same lam exactly."""
    call = _LAMBDA_ENTRY_POINTS[entry]
    f64, fixed = (gen(GeneratorSpec("uniform-random", 1, 3, mode=m)) for m in ("f64", "fixed"))
    with pytest.raises(InvalidParamsError, match="outside the float range") as err:
        call(f64, lam)
    num, den = lam.as_integer_ratio()
    name = f"{'inf' if lam > 1 else '0.0'} (an exact ratio of {len(str(num))}/{len(str(den))} digits)"
    assert f"threshold {name} lies" in str(err.value)
    call(fixed, lam)


def test_weak_type_names_an_overflowing_f64_integral():
    """Finite cells whose integral over root ∪ root+ passes the float range:
    a named error, not a failed p3 with a nan bound, and no numpy warning."""
    f = GridFunction(1, 1, [1e308, 1e308, 0.0, 0.0, 0.0, 0.0], "f64")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OutOfDomainError, match=r"f64 sum of f over .* overflows"):
            weak_type_check(f, None, 1.0)


@pytest.mark.parametrize("mode", ["fixed", "f64", "big"])
def test_positive_part_field_matches_full_grid_offset(mode):
    """The stopping-cube-local field of (f - mean(f over Q++))^+ equals the
    field of the full-grid offset_positive_part, cell for cell, at
    thresholds that hit field values exactly and fall between them, on
    int64, float and big-integer grids."""
    pairs = 0
    for f in corpus_grids(mode):
        cubes = sorted(all_subcubes(root_cube(f.n), f.L))  # level order, for the stride
        for c in cubes[:: max(1, len(cubes) // 12)]:
            full = maximal_function(offset_positive_part(f, forward(c, 2)), c)
            local = positive_part_field(f, c)
            assert local.root == c and local.values.shape == full.values.shape
            want = {"fixed": np.int64, "f64": np.float64, "big": object}[mode]
            assert local.values.dtype == want
            ties = sorted({full.value_at(idx) for idx in np.ndindex(*full.values.shape)})
            lams = ties[:: max(1, len(ties) // 4)] + [ties[-1]]
            lams += [lam * Fraction(3, 4) if f.is_fixed else lam * 0.75 for lam in lams]
            for lam in lams:
                assert np.array_equal(local.superlevel_mask(lam), full.superlevel_mask(lam))
                pairs += 1
    assert pairs >= 2000


def test_volume_sum_matches_per_cube_sum():
    """A decomposition's per-level volumes equal the per-cube Fraction sum
    on every stopping family of the corpus, at the lambda grid that
    ``decompose --lambda auto`` uses."""

    def per_cube(cubes):
        return sum((volume(c) for c in cubes), Fraction(0))

    families = 0
    for spec in default_manifest():
        f = gen(spec)
        ctx = LemmaContext(f, 2, Fraction(1, 1 << (f.n + 1)))
        for lam in default_lambda_grid(ctx):
            try:
                dec = cz_decompose(f, None, lam)
            except NegativeInputError:
                break
            stopping = dec.stopping.expand()
            assert dec.total_volume() == per_cube(stopping)
            assert dec.subfamily_volume() == per_cube(stopping[j] for j in dec.subfamily)
            families += 1
    assert families >= 1000


def test_maximal_function_field_matches_naive_on_subcube_roots():
    rng = np.random.default_rng(17)
    f = random_fixed_grid(rng, 2, 2)
    for c in all_subcubes(root_cube(2), 2):
        field = maximal_function(f, c)
        want = naive_maximal(f, c, "grid")
        for idx in np.ndindex(*field.values.shape):
            assert field.value_at(idx) == want[idx]
