"""The decay step, the iterated constant, and the superlevel theorem."""

import math
from fractions import Fraction

import numpy as np
import pytest

from jnplus import (
    GridFunction,
    InvalidExponentError,
    InvalidParamsError,
    LemmaContext,
    average,
    bundled_example,
    default_lambda_grid,
    forward,
    good_lambda_check,
    jnp_plus_dyadic,
    lemma_params,
    lemma_sweep,
    offset_positive_part,
    proof_constant,
    root_cube,
    theorem_check,
    volume,
)

from helpers import naive_block_sum, random_fixed_grid


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
