"""Refining a grid keeps the function, so nothing measured on it may shrink.

refine(f) splits every cell into 2^n equal children.  Every dyadic cube
of f is still a cube of refine(f) with the same averages, and the finer
grid only adds cubes.  So each supremum over cubes or cube families
(the seminorm weights, the maximal field) can only grow, and the
distribution measure, which reads cell values alone, stays equal.  All
comparisons are exact, in fixed mode.
"""

from fractions import Fraction

import numpy as np
import pytest

from jnplus import (
    GeneratorSpec,
    bmo_plus_dyadic,
    bmo_plus_limit_form,
    default_manifest,
    distribution_measure,
    forward,
    gen,
    jnp_plus_dyadic,
    maximal_function,
    offset_positive_part,
    refine,
)


def _grids():
    corpus = [gen(spec) for spec in default_manifest()]
    return corpus + [gen(GeneratorSpec(kind="uniform-random", n=3, L=2, seed=8))]


@pytest.fixture(scope="module")
def pairs():
    out = [(f, refine(f)) for f in _grids()]
    assert all(f.is_fixed for f, _ in out)
    return out


def _upsample(arr: np.ndarray, n: int) -> np.ndarray:
    for ax in range(n):
        arr = np.repeat(arr, 2, axis=ax)
    return arr


def _between(values: list[Fraction]) -> list[Fraction]:
    return [(a + b) / 2 for a, b in zip(values, values[1:])]


def test_seminorm_weights_do_not_decrease(pairs):
    for f, fine in pairs:
        assert jnp_plus_dyadic(fine, 2).weight >= jnp_plus_dyadic(f, 2).weight
        assert bmo_plus_dyadic(fine).weight >= bmo_plus_dyadic(f).weight
        assert bmo_plus_limit_form(fine).weight >= bmo_plus_limit_form(f).weight


def test_maximal_field_dominates_coarse_field(pairs):
    for f, fine in pairs:
        coarse, refined = maximal_function(f), maximal_function(fine)
        # c/sc <= r/sr, cross-multiplied on Python ints
        lhs = _upsample(coarse.values, f.n).astype(object) * refined.denom_scale
        rhs = refined.values.astype(object) * coarse.denom_scale
        assert (lhs <= rhs).all()
        levels = sorted({Fraction(int(v), coarse.denom_scale) for v in coarse.values.flat})
        for lam in levels + _between(levels):
            assert refined.superlevel_measure(lam) >= coarse.superlevel_measure(lam)


def test_distribution_measure_unchanged(pairs):
    for f, fine in pairs:
        g = offset_positive_part(f, forward(f.root, 2))
        levels = sorted({Fraction(int(v), g.denom) for v in g.region(f.root).flat})
        for lam in levels + _between(levels):
            assert distribution_measure(fine, None, lam) == distribution_measure(f, None, lam)
