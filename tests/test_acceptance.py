"""Acceptance gate: one test per shipped guarantee.

Each criterion is a single test function; the pytest -v line for it is
the criterion's pass/fail line, and each test also prints an
``ACCEPTANCE k ...: PASS`` line (visible with -s / -rP) summarizing
what was measured.  Pinned sweep parameters: p = 2, b = 2^-(n+1)
unless the criterion says otherwise.
"""

import math
import statistics
from fractions import Fraction
from time import monotonic

import pytest

from jnplus import (
    GeneratorSpec,
    GridFunction,
    antichain_oracle,
    bmo_plus_limit_form,
    bundled_example,
    check_p1,
    check_p2,
    cz_decompose,
    default_lambda_grid,
    default_manifest,
    gen,
    jnp_classical_dyadic,
    jnp_plus_dyadic,
    LemmaContext,
    lemma_sweep,
    maximal_function,
    scale_values,
    shift_values,
    theorem_check,
    weak_type_check,
)

from helpers import random_fixed_grid

import numpy as np

PINNED_P = 2


def pinned_b(n: int) -> Fraction:
    return Fraction(1, 1 << (n + 1))


@pytest.fixture(scope="module")
def corpus():
    return [gen(s) for s in default_manifest()]


@pytest.fixture(scope="module")
def pinned_sweeps(corpus):
    """(f, lambda-grid, per-lambda decompositions) at the pinned params."""
    out = []
    for f in corpus:
        ctx = LemmaContext(f, PINNED_P, pinned_b(f.n))
        lambdas = [Fraction(x) for x in default_lambda_grid(ctx)]
        decs = [cz_decompose(f, None, lam) for lam in lambdas]
        out.append((f, lambdas, decs))
    return out


@pytest.fixture(scope="module")
def theorem_runs(corpus):
    return [theorem_check(LemmaContext(f, PINNED_P, pinned_b(f.n))) for f in corpus]


def test_criterion_01_tree_dp_matches_exhaustive_oracle():
    """200 small instances, both family functionals, plus the bundled
    example; exact equality, under 5 seconds."""
    t0 = monotonic()
    kinds = ["uniform-random", "dyadic-martingale", "time-step", "one-sided-power"]
    counts = {(1, 1): 60, (1, 2): 80, (2, 1): 40, (2, 2): 20}
    total = 0
    for (n, L), how_many in counts.items():
        for i in range(how_many):
            spec = GeneratorSpec(
                kind=kinds[i % 4], n=n, L=L, seed=1000 * n + 100 * L + i, denom=8
            )
            f = gen(spec)
            for p in (2,):
                fast = jnp_plus_dyadic(f, p)
                slow = antichain_oracle(f, p)
                assert fast.weight == slow.weight, (spec, "jnp-plus")
                fast_c = jnp_classical_dyadic(f, p)
                slow_c = antichain_oracle(f, p, functional="jnp-classical")
                assert fast_c.weight == slow_c.weight, (spec, "jnp-classical")
            total += 1
    assert total == 200
    example = jnp_plus_dyadic(bundled_example(), 2)
    assert example.exact and example.weight == Fraction(5, 2)
    elapsed = monotonic() - t0
    assert elapsed < 5.0, f"criterion 1 budget exceeded: {elapsed:.2f}s"
    print(f"ACCEPTANCE 1 dp-vs-oracle: PASS (200 instances x 2 functionals, "
          f"example 5/2, {elapsed:.2f}s < 5s)")


def test_criterion_02_stopping_cubes_exact_on_corpus(pinned_sweeps):
    """Strict threshold, failing parents, and the superlevel identity,
    exactly, for every corpus entry and every default-grid lambda."""
    lam_count = 0
    for f, lambdas, decs in pinned_sweeps:
        for lam, dec in zip(lambdas, decs):
            r = check_p1(f, dec)
            assert r.passed and r.exact, (f.n, f.L, lam)
            lam_count += 1
    print(f"ACCEPTANCE 2 stopping-exactness: PASS ({lam_count} "
          f"(entry, lambda) pairs, zero tolerance)")


def test_criterion_03_forward_mean_bound_exact_on_corpus(pinned_sweeps):
    """Two-steps-forward means stay under 2^n lambda at stopping cubes,
    exactly, with admissibility recorded per lambda."""
    admissible = inadmissible = 0
    for f, lambdas, decs in pinned_sweeps:
        for lam, dec in zip(lambdas, decs):
            r = check_p2(f, dec)
            assert r.passed and r.exact, (f.n, f.L, lam)
            if r.admissible:
                admissible += 1
            else:
                inadmissible += 1
    assert admissible > 0
    print(f"ACCEPTANCE 3 forward-mean-bound: PASS ({admissible} admissible / "
          f"{inadmissible} flagged-inadmissible lambdas, exact)")


def test_criterion_04_weak_type_with_intermediate_link(pinned_sweeps):
    """Superlevel measure == stopping volume <= 2 * selected forward
    volume <= (2/lambda) * the integral, all exact."""
    lam_count = 0
    for f, lambdas, _ in pinned_sweeps:
        for lam in lambdas:
            r = weak_type_check(f, None, lam)
            assert r.passed and r.exact, (f.n, f.L, lam)
            assert r.details["intermediate-holds"]
            assert r.details["superlevel-identity"]
            lam_count += 1
    print(f"ACCEPTANCE 4 weak-type-chain: PASS ({lam_count} (entry, lambda) "
          f"pairs incl. the intermediate link, exact)")


def test_criterion_05_decay_step_full_sweep(corpus):
    """The decay inequality plus its cellwise facts (splitting and local
    domination), for p in {3/2, 2, 3} x b in {2^-(n+1), 2^-(n+2)}, at
    every admissible default-grid lambda, within 1e-9 relative; < 60 s."""
    t0 = monotonic()
    checked = 0
    admissible = 0
    for f in corpus:
        for p in (Fraction(3, 2), 2, 3):
            for b in (Fraction(1, 1 << (f.n + 1)), Fraction(1, 1 << (f.n + 2))):
                reports = lemma_sweep(LemmaContext(f, p, b))
                assert any(r.admissible for r in reports)
                for r in reports:
                    assert r.passed, (f.n, f.L, p, b, r.details["failed-ids"])
                    assert r.details["p6-pass"] and r.details["p8-pass"]
                    checked += 1
                    admissible += bool(r.admissible)
    elapsed = monotonic() - t0
    assert elapsed < 60.0, f"criterion 5 budget exceeded: {elapsed:.2f}s"
    print(f"ACCEPTANCE 5 decay-step-sweep: PASS ({checked} checks, "
          f"{admissible} admissible, {elapsed:.1f}s < 60s)")


def test_criterion_06_superlevel_decay_theorem(theorem_runs):
    """lambda^p |E(lambda)| <= C K^p on the grid variant, both proof
    branches exercised, explicit constant finite."""
    for run in theorem_runs:
        assert run.passed_p9, (run.p, run.b, run.root)
        assert run.passed_p11
        assert math.isfinite(run.C_proof) and run.C_proof > 0
        if run.lam0 > 0:
            branches = {rec["branch"] for rec in run.records}
            assert branches == {"trivial", "iteration"}
    print(f"ACCEPTANCE 6 superlevel-decay: PASS ({len(theorem_runs)} corpus "
          f"runs, both branches, C finite)")


def test_criterion_07_distribution_dominated_and_logged(theorem_runs):
    """The plain distribution set never exceeds the augmented maximal
    superlevel set (exact); the augmented empirical constant is logged,
    never asserted."""
    emps = []
    for run in theorem_runs:
        assert run.passed_dist
        for rec in run.records:
            assert rec["dist"] <= rec["E-aug"]
        if math.isfinite(run.C_emp_aug):
            emps.append(run.C_emp_aug)
    top = max(emps) if emps else 0.0
    med = statistics.median(emps) if emps else 0.0
    print(f"ACCEPTANCE 7 distribution-domination: PASS (exact on all runs; "
          f"C_emp(augmented) max={top:.3g} median={med:.3g} [logged only])")


def test_criterion_08_large_p_approaches_limit_form():
    """On the 1D L=4 corpus entries, the p = 128 family value sits
    within 5% of the single-cube limit functional."""
    specs = [s for s in default_manifest() if s.n == 1 and s.L == 4]
    assert specs, "manifest must contain 1D L=4 entries"
    checked = 0
    worst = 0.0
    for s in specs:
        f = gen(s)
        lim = bmo_plus_limit_form(f)
        if lim.value == 0:
            continue
        K = jnp_plus_dyadic(f, 128)
        rel = abs(K.value - lim.value) / lim.value
        assert rel <= 0.05, (s, K.value, lim.value)
        worst = max(worst, rel)
        checked += 1
    assert checked >= 1
    print(f"ACCEPTANCE 8 large-p-limit: PASS ({checked} entries, "
          f"worst deviation {worst:.3%} <= 5%)")


def test_criterion_09_homogeneity_and_shift_exact():
    """weight(c*f) = c^p * weight(f) and shift invariance with identical
    witnesses, exactly, over 50 randomized trials."""
    rng = np.random.default_rng(2024)
    scales = [2, 3, Fraction(1, 2), Fraction(3, 2)]
    shifts = [1, Fraction(7, 3), Fraction(5, 16)]
    for trial in range(50):
        n = 1 + trial % 2
        L = 1 + (trial // 2) % 3 if n == 1 else 1 + trial % 2
        f = random_fixed_grid(rng, n, L, denom=8)
        base = jnp_plus_dyadic(f, PINNED_P)
        c = scales[trial % len(scales)]
        scaled = jnp_plus_dyadic(scale_values(f, c), PINNED_P)
        assert scaled.weight == Fraction(c) ** PINNED_P * base.weight
        s = shifts[trial % len(shifts)]
        shifted = jnp_plus_dyadic(shift_values(f, s), PINNED_P)
        assert shifted.weight == base.weight
        assert shifted.witness.expand() == base.witness.expand()
    print("ACCEPTANCE 9 homogeneity-shift: PASS (50 trials, exact weights, "
          "identical witnesses)")


def test_criterion_09_homogeneity_and_shift_in_f64():
    """The same laws on f64 grids, within 1e-9 relative: weight(c*f) =
    c^p * weight(f) and weight(f + s) = weight(f)."""
    rng = np.random.default_rng(2025)
    for trial in range(20):
        n = 1 + trial % 2
        L = 1 + (trial // 2) % 3 if n == 1 else 1 + trial % 2
        fixed = random_fixed_grid(rng, n, L, denom=8)
        f = GridFunction(n, L, fixed.values / 8, "f64")
        base = jnp_plus_dyadic(f, PINNED_P).weight
        c = [2.0, 3.0, 0.5, 1.5][trial % 4]
        scaled = jnp_plus_dyadic(scale_values(f, c), PINNED_P).weight
        assert scaled == pytest.approx(c**PINNED_P * base, rel=1e-9, abs=1e-300)
        s = [1.0, 7 / 3, 5 / 16][trial % 3]
        shifted = jnp_plus_dyadic(shift_values(f, s), PINNED_P).weight
        assert shifted == pytest.approx(base, rel=1e-9, abs=1e-12)
    print("ACCEPTANCE 9 homogeneity-shift f64: PASS (20 trials within 1e-9)")


def test_criterion_10_performance_budget():
    """n=2, L=8, denominator 256: maximal field + 20-lambda
    decompositions under 2 s; the family seminorm under 1 s."""
    f = gen(GeneratorSpec(kind="uniform-random", n=2, L=8, seed=0, denom=256))

    t0 = monotonic()
    field = maximal_function(f)
    lambdas = [Fraction(k + 1, 8) for k in range(20)]
    decs = [cz_decompose(f, None, lam) for lam in lambdas]
    t_max = monotonic() - t0
    assert field.values.size == 1 << 16
    assert len(decs) == 20
    assert t_max < 2.0, f"maximal+decompose budget exceeded: {t_max:.2f}s"

    t0 = monotonic()
    r = jnp_plus_dyadic(f, PINNED_P)
    t_sem = monotonic() - t0
    assert r.exact and r.weight > 0
    assert t_sem < 1.0, f"seminorm budget exceeded: {t_sem:.2f}s"
    print(f"ACCEPTANCE 10 performance: PASS (maximal+20-decompose "
          f"{t_max:.2f}s < 2s, seminorm {t_sem:.2f}s < 1s)")
