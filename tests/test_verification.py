"""The decay step, the iterated constant, and the superlevel theorem."""

import math
from fractions import Fraction

import numpy as np
import pytest

from jnplus import (
    DyadicCube,
    GeneratorSpec,
    GridFunction,
    InvalidExponentError,
    InvalidParamsError,
    LemmaContext,
    average,
    bundled_example,
    default_lambda_grid,
    distribution_measure,
    forward,
    gen,
    good_lambda_check,
    jnp_plus_dyadic,
    lemma_params,
    lemma_sweep,
    maximal_function,
    offset_positive_part,
    proof_constant,
    root_cube,
    theorem_check,
    volume,
)

from jnplus.reports import canonical_json

from helpers import corpus_grids, naive_block_sum, naive_good_lambda, random_fixed_grid


def test_lemma_params_validation():
    p = lemma_params(1, 2, Fraction(1, 4))
    assert p.q == 2
    assert p.a == 8  # 4 / (1 - 2 * 1/4)
    assert lemma_params(2, 3, Fraction(1, 8)).a == 8  # 4 / (1 - 4/8)
    with pytest.raises(InvalidExponentError):
        lemma_params(1, 1, Fraction(1, 4))
    with pytest.raises(InvalidParamsError):
        lemma_params(1, 2, Fraction(1, 2))  # needs b < 2^-n
    with pytest.raises(InvalidParamsError):
        lemma_params(1, 2, 0)
    with pytest.raises(InvalidParamsError):
        lemma_params(2, 2, Fraction(1, 4))


def test_good_lambda_worked_example():
    f = bundled_example()
    r = good_lambda_check(LemmaContext(f, 2, Fraction(1, 4)), Fraction(2))
    assert r.admissible and r.passed and r.exact
    assert r.details["p6-pass"] and r.details["p8-pass"]
    assert r.details["failed-ids"] == []


def test_good_lambda_inadmissible_flagged():
    # f positive on the root's forward box makes the offset mean positive,
    # so small lambdas fail the admissibility threshold
    vals = [0, 0, 0, 0] + [8, 8, 8, 8] + [0, 0, 0, 0]
    f = GridFunction(1, 2, np.array(vals), "fixed", 1)
    g = offset_positive_part(f, forward(root_cube(1), 2))
    m = average(g, forward(root_cube(1)))
    assert m > 0
    ctx = LemmaContext(f, 2, Fraction(1, 4))
    lam_bad = Fraction(m) * 2  # b * lam = m/2 < m
    r = good_lambda_check(ctx, lam_bad)
    assert not r.admissible
    assert r.passed  # vacuous: nothing asserted
    lam_ok = Fraction(m) * 8
    r2 = good_lambda_check(ctx, lam_ok)
    assert r2.admissible and r2.passed


def test_lemma_sweep_all_pass():
    rng = np.random.default_rng(51)
    for n, L in ((1, 3), (2, 2)):
        f = random_fixed_grid(rng, n, L, denom=16)
        for p in (2, Fraction(3, 2)):
            for b in (Fraction(1, 1 << (n + 1)), Fraction(1, 1 << (n + 2))):
                reports = lemma_sweep(LemmaContext(f, p, b))
                assert reports, "sweep must cover the default grid"
                for r in reports:
                    assert r.passed, r.details["failed-ids"]
                if p == 2:
                    assert all(r.exact for r in reports)


@pytest.mark.parametrize("mode", ["fixed", "f64"])
def test_sweep_reports_do_not_depend_on_lambda_order(mode):
    """A shuffled sweep and a descending one give the same report at
    every lambda, on every corpus grid, at lambdas from the default grid
    and on the values of g's maximal field."""
    rng = np.random.default_rng(61)
    checked = 0
    for f in corpus_grids(mode):
        b = Fraction(1, 1 << (f.n + 1))
        ctx = LemmaContext(f, 2, b)
        ties = sorted({ctx.field.value_at(idx) for idx in np.ndindex(*ctx.field.values.shape)})
        lams = default_lambda_grid(ctx)[::6] + [lam for lam in ties[::3] if lam > 0]
        down = sorted(lams, reverse=True)
        shuffled = [down[i] for i in rng.permutation(len(down))]
        by_lam = {}
        for lam, r in zip(down, lemma_sweep(ctx, down)):
            by_lam[lam] = canonical_json(r.to_json_dict())
        other = LemmaContext(f, 2, b)
        for lam, r in zip(shuffled, lemma_sweep(other, shuffled)):
            assert canonical_json(r.to_json_dict()) == by_lam[lam], lam
            checked += 1
    assert checked >= 500


def _probe_lambdas(ctx, rng, count=12):
    """Default-grid lambdas, values of g's field (on a cut) and midpoints
    between neighbouring values, as the grid's scalars."""
    f = ctx.f
    scale = ctx.field.denom_scale
    values = np.unique(ctx.field.values).tolist()
    ties = sorted({Fraction(int(v), scale) if f.is_fixed else float(v) for v in values})
    ties = [t for t in ties if t > 0]
    on = [ties[i] for i in sorted(rng.choice(len(ties), min(count, len(ties)), replace=False))]
    between = [(a + c) / 2 for a, c in zip(on, on[1:])]
    grid = default_lambda_grid(ctx)
    picked = [grid[i] for i in sorted(rng.choice(len(grid), count, replace=False))]
    return sorted({f.scalar(lam) for lam in picked + on + between})


def _assert_sweep_matches_reference(ctx, lams, rng) -> int:
    """Every report of lemma_sweep, for lams ascending, descending, shuffled
    and shuffled with repeats, equals naive_good_lambda's in canonical JSON."""
    want = {lam: canonical_json(naive_good_lambda(ctx, lam)) for lam in lams}
    repeated = lams + lams[::3]
    orders = [
        lams,
        lams[::-1],
        [lams[i] for i in rng.permutation(len(lams))],
        [repeated[i] for i in rng.permutation(len(repeated))],
    ]
    for order in orders:
        got = [canonical_json(r) for r in lemma_sweep(ctx, order)]
        assert got == [want[lam] for lam in order]
    return len(want)


@pytest.mark.parametrize("mode", ["fixed", "f64", "big"])
def test_sweep_matches_per_lambda_reference(mode):
    """The batched sweep against the per-lambda route, on every corpus grid
    (int64, float and 2^56-scaled big-integer cells), with p = 2 (exact
    main inequality) and p = 3/2 (float) and both default b."""
    rng = np.random.default_rng(71)
    checked = 0
    for j, f in enumerate(corpus_grids(mode)):
        p = (2, Fraction(3, 2))[j % 2]
        b = Fraction(1, 1 << (f.n + 1 + j // 2 % 2))
        ctx = LemmaContext(f, p, b)
        checked += _assert_sweep_matches_reference(ctx, _probe_lambdas(ctx, rng), rng)
    assert checked >= 1000


def test_sweep_matches_reference_where_p6_and_p8_fail():
    """With the augmented field standing in for g's grid field, E(lam) has
    cells outside every stopping cube and cells where M_Q g or the field of
    g_j disagree: p6 and p8 fail at some lambdas, as the reference says."""
    rng = np.random.default_rng(73)
    failed = {"p6": 0, "p8": 0}
    for f in corpus_grids("fixed"):
        ctx = LemmaContext(f, 2, Fraction(1, 1 << (f.n + 1)))
        ctx.field = maximal_function(ctx.g, ctx.root, "augmented")
        lams = _probe_lambdas(ctx, rng, count=8)
        _assert_sweep_matches_reference(ctx, lams, rng)
        for r in lemma_sweep(ctx, lams):
            for name in r.details["failed-ids"]:
                failed[name] += 1
    assert min(failed.values()) > 0, failed


@pytest.mark.parametrize(
    "n, L, root",
    [
        (2, 4, DyadicCube(1, (1,), 1)),
        (1, 5, DyadicCube(1, (), 1)),
        (2, 3, DyadicCube(3, (5,), 6)),
        (3, 3, None),
    ],
)
def test_sweep_matches_reference_off_origin_and_n3(n, L, root):
    """Off-origin level-1 roots, a one-cell root, and an n=3 grid."""
    rng = np.random.default_rng(79 + n)
    f = random_fixed_grid(rng, n, L, denom=16)
    for p in (2, Fraction(3, 2)):
        ctx = LemmaContext(f, p, Fraction(1, 1 << (n + 1)), root)
        assert _assert_sweep_matches_reference(ctx, _probe_lambdas(ctx, rng), rng) >= 12


def test_nonpositive_lambda_rejected():
    f = bundled_example()
    with pytest.raises(InvalidParamsError):
        good_lambda_check(LemmaContext(f, 2, Fraction(1, 4)), Fraction(0))


def test_proof_constant_reference_values():
    # hand-checked at n=1, p=2, b=1/4: a=8, q=2;
    # trivial branch (2/b)^p = 64, first ladder term 2896, limit a^p b^{-p^2} = 16384
    assert proof_constant(1, 2, Fraction(1, 4)) == pytest.approx(16384.0, rel=1e-9)
    # the constant only grows when b shrinks
    assert proof_constant(1, 2, Fraction(1, 8)) > proof_constant(1, 2, Fraction(1, 4))
    # finite for a spread of parameters
    for n in (1, 2):
        for p in (Fraction(3, 2), 2, 3):
            for b in (Fraction(1, 1 << (n + 1)), Fraction(1, 1 << (n + 2))):
                c = proof_constant(n, p, b)
                assert math.isfinite(c) and c > 0


def test_proof_constant_dominates_every_ladder_term():
    # recompute the first 60 ladder terms directly and compare
    n, p, b = 1, 2, Fraction(1, 4)
    params = lemma_params(n, p, b)
    pf, qf, af, bf = 2.0, 2.0, float(params.a), 0.25
    got = proof_constant(n, p, b)
    SN = 0.0
    for N in range(1, 60):
        SN += N * (1.0 / qf) ** (N - 1)
        qN = (1.0 / qf) ** N
        term = af ** (pf - pf * qN) * bf ** (-SN + qN - (N + 2) * pf * qN) * 2.0 ** ((1 + pf) * qN)
        assert term <= got * (1 + 1e-9)
    assert (2.0 / bf) ** pf <= got


def test_lambda0_formula():
    f = bundled_example()
    K = jnp_plus_dyadic(f, 2)
    want = 2.0 * K.value / (0.25 * float(volume(root_cube(1))) ** 0.5)
    assert LemmaContext(f, 2, Fraction(1, 4)).lam0 == pytest.approx(want, rel=1e-12)


def test_lambda0_with_a_subnormal_b_on_a_small_root():
    """b * |root|^(1/p) underflows to 0 for b = 5e-324 on a leaf root: lam0
    divides by b and by the root factor in turn, and the default grid then
    refuses b by name (b^-8 passes the float range)."""
    f = GridFunction(1, 8, list(range(768)), "fixed", 1)
    ctx = LemmaContext(f, 2, 5e-324, DyadicCube(8, (), 3))
    assert ctx.lam0 == 2.0 * ctx.seminorm.value / 5e-324 / 2.0**-4
    for check in (lemma_sweep, theorem_check):
        with pytest.raises(InvalidParamsError, match=r"b=5e-324 is too small"):
            check(ctx)


def test_default_lambda_grid_shape():
    f = bundled_example()
    ctx = LemmaContext(f, 2, Fraction(1, 4))
    grid = default_lambda_grid(ctx)
    assert all(x > 0 for x in grid)
    assert grid == sorted(set(grid))
    lam0 = ctx.lam0
    assert any(abs(x - lam0) < 1e-12 for x in grid)
    # ladder points b^-k * lam0
    for k in (1, 4, 8):
        assert any(abs(x - lam0 * 4.0**k) < 1e-6 * 4.0**k for x in grid)


def test_default_lambda_grid_constant_function():
    f = GridFunction(1, 1, [3] * 6, "fixed", 1)
    grid = default_lambda_grid(LemmaContext(f, 2, Fraction(1, 4)))
    assert grid and all(x > 0 for x in grid)  # no zero-width span, no ladder


def test_theorem_worked_example():
    f = bundled_example()
    run = theorem_check(LemmaContext(f, 2, Fraction(1, 4)))
    assert run.passed and run.passed_p9 and run.passed_p11 and run.passed_dist
    assert run.C_proof == pytest.approx(16384.0, rel=1e-9)
    assert run.K == pytest.approx(float(Fraction(5, 2)) ** 0.5, rel=1e-12)
    branches = {r["branch"] for r in run.records}
    assert branches == {"iteration", "trivial"}
    assert run.C_emp_grid <= run.C_proof
    assert run.failed_ids() == []


def test_theorem_p11_single_cube_guarantee():
    """The root-union mean of g is forced by the one-cube family bound."""
    rng = np.random.default_rng(57)
    for _ in range(10):
        f = random_fixed_grid(rng, 1, 3, denom=16)
        run = theorem_check(LemmaContext(f, 2, Fraction(1, 4)))
        assert run.passed_p11
        # cross-check the two sides directly
        g = offset_positive_part(f, forward(root_cube(1), 2))
        total = naive_block_sum(g, root_cube(1)) + naive_block_sum(g, forward(root_cube(1)))
        lhs = Fraction(total, g.denom) * g.cell_volume
        assert lhs == run.p11_lhs
        assert float(lhs) <= run.p11_rhs * (1 + 1e-9)


def test_theorem_distribution_dominated():
    rng = np.random.default_rng(59)
    for n, L in ((1, 3), (2, 2)):
        f = random_fixed_grid(rng, n, L)
        run = theorem_check(LemmaContext(f, 2, Fraction(1, 1 << (n + 1))))
        assert run.passed_dist
        for rec in run.records:
            assert rec["dist"] <= rec["E-aug"]
            assert rec["E-grid"] <= rec["E-aug"]


@pytest.mark.parametrize("mode", ["fixed", "f64", "big"])
def test_theorem_counts_match_one_lambda_functions(mode):
    """theorem_check counts every lambda in one pass; each record equals
    the one-lambda superlevel_measure of both fields and
    distribution_measure, at lambdas on and between the values of the
    fields and of g, on every corpus grid (int64, float and big-integer)."""
    records = 0
    for f in corpus_grids(mode):
        ctx = LemmaContext(f, 2, Fraction(1, 1 << (f.n + 1)))
        field_a = maximal_function(ctx.g, ctx.root, "augmented")
        scale = [ctx.field.denom_scale, field_a.denom_scale, ctx.g.denom]
        arrays = [ctx.field.values, field_a.values, ctx.g.region(ctx.root)]
        ties = sorted(
            {
                Fraction(int(v), d) if f.is_fixed else float(v)
                for arr, d in zip(arrays, scale)
                for v in np.unique(arr).tolist()
                if v > 0
            }
        )
        on = ties[:: max(1, len(ties) // 6)] + ties[-1:]
        lams = on + [(a + b) / 2 for a, b in zip(on, on[1:])] + [ties[0] / 2]
        run = theorem_check(ctx, lams)
        assert [r["lambda"] for r in run.records] == [f.scalar(lam) for lam in lams]
        for lam, rec in zip(lams, run.records):
            assert rec["E-grid"] == ctx.field.superlevel_measure(lam), lam
            assert rec["E-aug"] == field_a.superlevel_measure(lam), lam
            assert rec["dist"] == distribution_measure(f, ctx.root, lam), lam
            records += 1
    assert records >= 500


def _assert_theorem_order_free(ctx, lams, rng) -> int:
    """theorem_check on descending, shuffled and shuffled-with-repeats lists
    gives, in canonical JSON, the ascending run's record at every lambda
    and the same summary; neither that run nor the default one holds a nan."""
    def summary(run):
        return canonical_json({k: v for k, v in run.to_json_dict().items() if k != "records"})

    up = theorem_check(ctx, lams)
    assert '"nan"' not in canonical_json(up) + canonical_json(theorem_check(ctx))
    want = {rec["lambda"]: canonical_json(rec) for rec in up.records}
    repeated = lams + lams[::3]
    for order in (
        lams[::-1],
        [lams[i] for i in rng.permutation(len(lams))],
        [repeated[i] for i in rng.permutation(len(repeated))],
    ):
        run = theorem_check(ctx, order)
        assert [canonical_json(rec) for rec in run.records] == [want[lam] for lam in order]
        assert summary(run) == summary(up)
    return len(want)


@pytest.mark.parametrize("mode", ["fixed", "f64", "big"])
def test_theorem_records_do_not_depend_on_lambda_order(mode):
    """On every corpus grid (int64, float and big-integer cells) and on an
    off-origin root, at default-grid lambdas, values of g's field and
    midpoints between them."""
    rng = np.random.default_rng(83)
    checked = 0
    for f in corpus_grids(mode):
        ctx = LemmaContext(f, 2, Fraction(1, 1 << (f.n + 1)))
        checked += _assert_theorem_order_free(ctx, _probe_lambdas(ctx, rng), rng)
    f = random_fixed_grid(rng, 2, 4, denom=16)
    ctx = LemmaContext(f, Fraction(3, 2), Fraction(1, 8), DyadicCube(1, (1,), 1))
    assert _assert_theorem_order_free(ctx, _probe_lambdas(ctx, rng), rng) >= 12
    assert checked >= 1000


def test_theorem_empirical_constants_skip_an_empty_set_at_an_infinite_power():
    """At lam = 10^200, lam^3 is inf and E(lam) is empty: it adds 0 to
    both empirical constants (inf * 0 would be nan), in either order."""
    f = gen(GeneratorSpec(kind="uniform-random", n=1, L=3, denom=16))
    ctx = LemmaContext(f, 3, Fraction(1, 8))
    for lam in (1, Fraction(1, 4)):
        one = theorem_check(ctx, [lam])
        for lams in ([10**200, lam], [lam, 10**200]):
            run = theorem_check(ctx, lams)
            assert (run.C_emp_grid, run.C_emp_aug) == (one.C_emp_grid, one.C_emp_aug)
    assert one.C_emp_grid > 0 and one.C_emp_aug > 0


def test_theorem_csv_shape():
    f = bundled_example()
    run = theorem_check(LemmaContext(f, 2, Fraction(1, 4)))
    lines = run.to_csv().strip().splitlines()
    assert lines[0] == "lambda,E_grid,E_aug,dist,bound,pass"
    assert len(lines) == len(run.records) + 1
    for line in lines[1:]:
        cols = line.split(",")
        assert len(cols) == 6
        float(cols[0]), float(cols[1]), float(cols[4])  # parse checks
        assert cols[5] in ("0", "1")


def test_theorem_json_keys():
    f = bundled_example()
    run = theorem_check(LemmaContext(f, 2, Fraction(1, 4)))
    doc = run.to_json_dict()
    for key in (
        "p", "b", "root", "K", "K-weight", "lambda0", "C-proof",
        "C-empirical-grid", "C-empirical-augmented", "p11-lhs", "p11-rhs",
        "pass", "records",
    ):
        assert key in doc
    assert doc["pass"] is True
