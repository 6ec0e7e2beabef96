"""Family seminorms: tree programming vs. exhaustive antichain search."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jnplus import (
    CubeFamily,
    DyadicCube,
    GeneratorSpec,
    GridFunction,
    InstanceTooLargeError,
    InvalidExponentError,
    InvalidParamsError,
    antichain_oracle,
    bmo_plus_dyadic,
    bmo_plus_limit_form,
    bundled_example,
    default_manifest,
    gen,
    jnp_classical_dyadic,
    jnp_plus_dyadic,
    phi_classical,
    phi_plus,
    root_cube,
    scale_values,
    shift_values,
    volume,
)
from jnplus.reports import CubeRows, RatioRows
from jnplus.seminorms import _level_weights, _norm_exponent, _tree_dp

from helpers import (
    naive_best_family,
    naive_phi_classical,
    naive_phi_plus,
    random_fixed_grid,
    recursive_witness,
)


@st.composite
def small_grids(draw):
    n = draw(st.integers(1, 2))
    L = draw(st.integers(0, 2 if n == 1 else 1))
    denom = 4
    size = 3 * (1 << (L * n))
    vals = draw(st.lists(st.integers(0, 2 * denom), min_size=size, max_size=size))
    return GridFunction(n, L, np.array(vals), "fixed", denom)


def test_worked_example_values():
    f = bundled_example()
    r = jnp_plus_dyadic(f, 2)
    assert r.exact
    assert r.weight == Fraction(5, 2)
    assert r.value == pytest.approx(Fraction(5, 2) ** Fraction(1, 2), rel=1e-12)
    assert [(c.level, c.time) for c in r.witness.expand()] == [(1, 0), (2, 2), (2, 3)]
    # the witness weights decompose the total
    assert sum(r.witness_weights.expand(), Fraction(0)) == Fraction(5, 2)
    assert r.witness_weights.expand() == [Fraction(1, 2), Fraction(1), Fraction(1)]


def test_worked_example_cube_values():
    f = bundled_example()
    assert phi_plus(f, DyadicCube(1, (), 0), 2) == Fraction(1, 2)
    assert phi_plus(f, DyadicCube(2, (), 2), 2) == 1
    assert phi_plus(f, DyadicCube(2, (), 3), 2) == 1
    assert phi_plus(f, root_cube(1), 2) == Fraction(1, 4)


def test_worked_example_bmo():
    f = bundled_example()
    b = bmo_plus_dyadic(f)
    assert b.weight == 4
    assert [(c.level, c.time) for c in b.witness.expand()] == [(2, 3)]
    lim = bmo_plus_limit_form(f)
    assert lim.weight == 2
    assert [(c.level, c.time) for c in lim.witness.expand()] == [(2, 2)]


def test_worked_example_oracle_agrees():
    f = bundled_example()
    o = antichain_oracle(f, 2)
    assert o.exact and o.weight == Fraction(5, 2)
    assert o.details["antichains"] == 26
    r = jnp_plus_dyadic(f, 2)
    assert o.weight == r.weight


@settings(max_examples=20, deadline=None)
@given(small_grids(), st.integers(2, 3))
def test_dp_matches_exhaustive_search(f, p):
    """Tree programming equals brute force over every antichain."""
    want_plus, _ = naive_best_family(f, root_cube(f.n), p, naive_phi_plus)
    got = jnp_plus_dyadic(f, p)
    assert got.exact and got.weight == want_plus

    want_cl, _ = naive_best_family(f, root_cube(f.n), p, naive_phi_classical)
    got_cl = jnp_classical_dyadic(f, p)
    assert got_cl.exact and got_cl.weight == want_cl


@settings(max_examples=20, deadline=None)
@given(small_grids())
def test_oracle_matches_dp(f):
    for functional, dp in (
        ("jnp-plus", jnp_plus_dyadic),
        ("jnp-classical", jnp_classical_dyadic),
    ):
        o = antichain_oracle(f, 2, functional=functional)
        r = dp(f, 2)
        assert o.weight == r.weight
        assert o.functional == functional + "-oracle"


@settings(max_examples=15, deadline=None)
@given(small_grids())
def test_witness_is_partition_and_achieves_weight(f):
    r = jnp_plus_dyadic(f, 2)
    cubes = r.witness.expand()
    fam = CubeFamily(cubes)
    fam.validate()
    assert fam.is_partition_of(root_cube(f.n))
    direct = sum((phi_plus(f, c, 2) for c in cubes), Fraction(0))
    assert direct == r.weight
    assert r.witness_weights.expand() == [phi_plus(f, c, 2) for c in cubes]


def test_phi_matches_naive():
    rng = np.random.default_rng(12)
    f = random_fixed_grid(rng, 2, 1)
    for c in (root_cube(2), DyadicCube(1, (0,), 1), DyadicCube(1, (1,), 0)):
        assert phi_plus(f, c, 2) == naive_phi_plus(f, c, 2)
        assert phi_classical(f, c, 3) == naive_phi_classical(f, c, 3)


def test_non_integer_p_close_to_oracle():
    rng = np.random.default_rng(17)
    f = random_fixed_grid(rng, 1, 2)
    p = Fraction(3, 2)
    r = jnp_plus_dyadic(f, p)
    assert not r.exact
    o = antichain_oracle(f, p)
    assert r.weight == pytest.approx(float(o.weight), rel=1e-9)


def test_f64_close_to_fixed():
    rng = np.random.default_rng(23)
    f = random_fixed_grid(rng, 1, 2)
    g = GridFunction(f.n, f.L, f.values.astype(np.float64) / f.denom, "f64")
    rf = jnp_plus_dyadic(f, 2)
    rg = jnp_plus_dyadic(g, 2)
    assert not rg.exact
    assert rg.value == pytest.approx(rf.value, rel=1e-9)


def test_seminorm_over_subcube_root():
    rng = np.random.default_rng(29)
    f = random_fixed_grid(rng, 1, 2)
    sub = DyadicCube(1, (), 0)
    r = jnp_plus_dyadic(f, 2, root=sub)
    want, _ = naive_best_family(f, sub, 2, naive_phi_plus)
    assert r.weight == want
    for c in r.witness.expand():
        assert c.level >= 1


def test_homogeneity_and_shift():
    rng = np.random.default_rng(31)
    f = random_fixed_grid(rng, 1, 2)
    r = jnp_plus_dyadic(f, 2)
    r3 = jnp_plus_dyadic(scale_values(f, 3), 2)
    assert r3.weight == 9 * r.weight
    rs = jnp_plus_dyadic(shift_values(f, Fraction(7, 3)), 2)
    assert rs.weight == r.weight
    assert rs.witness.expand() == r.witness.expand()


def test_bad_exponent_rejected():
    f = bundled_example()
    for p in (1, Fraction(1, 2), 0, -2):
        with pytest.raises(InvalidExponentError):
            jnp_plus_dyadic(f, p)
    with pytest.raises(InvalidExponentError):
        antichain_oracle(f, 1)


def test_oracle_guards():
    rng = np.random.default_rng(37)
    # 2D at L = 3 has 85 tree cubes > 64
    f = random_fixed_grid(rng, 2, 3)
    with pytest.raises(InstanceTooLargeError):
        antichain_oracle(f, 2)
    # 1D at L = 5 has 63 cubes but ~2.1e11 antichain selections
    f = random_fixed_grid(rng, 1, 5)
    with pytest.raises(InstanceTooLargeError):
        antichain_oracle(f, 2)


def test_oracle_unknown_functional():
    f = bundled_example()
    with pytest.raises(InvalidParamsError):
        antichain_oracle(f, 2, functional="bmo-plus")


def test_family_validation():
    a = DyadicCube(1, (), 0)
    b = DyadicCube(2, (), 1)  # nested inside a
    fam = CubeFamily([a, b])
    with pytest.raises(InvalidParamsError):
        fam.validate()
    ok = CubeFamily([a, DyadicCube(1, (), 1)])
    ok.validate()
    assert ok.total_volume() == 1
    assert ok.is_partition_of(root_cube(1))
    assert not CubeFamily([a]).is_partition_of(root_cube(1))


def test_family_weight_matches_sum():
    f = bundled_example()
    fam = CubeFamily([DyadicCube(1, (), 0), DyadicCube(1, (), 1)])
    w = fam.weight(f, 2)
    assert w == phi_plus(f, DyadicCube(1, (), 0), 2) + phi_plus(f, DyadicCube(1, (), 1), 2)


def test_value_is_pth_root_of_weight():
    rng = np.random.default_rng(41)
    f = random_fixed_grid(rng, 2, 1)
    for p in (2, 3, Fraction(5, 2)):
        r = jnp_plus_dyadic(f, p)
        assert r.value == pytest.approx(float(r.weight) ** (1.0 / float(p)), rel=1e-12)


def test_single_cube_family_lower_bound():
    """Any single cube's weight is a lower bound for the family value."""
    rng = np.random.default_rng(43)
    f = random_fixed_grid(rng, 1, 2)
    r = jnp_plus_dyadic(f, 2)
    for k in range(3):
        for t in range(1 << k):
            assert phi_plus(f, DyadicCube(k, (), t), 2) <= r.weight


@pytest.mark.parametrize("variant", ["plus", "classical"])
def test_array_witness_matches_recursive_walk(variant):
    """The covering-sweep witness equals the recursive walk of tests/helpers.py:
    same cubes in the same order, same raw and reported weights, same
    witness-size, on every corpus grid in exact and float arithmetic."""
    functional = jnp_plus_dyadic if variant == "plus" else jnp_classical_dyadic
    for s in default_manifest():
        for mode in ("fixed", "f64"):
            f = gen(GeneratorSpec(s.kind, s.n, s.L, s.seed, mode, s.denom, s.params))
            # the unit cube, and a subcube off the origin on every axis
            for root, p in ((root_cube(f.n), 2), (root_cube(f.n), Fraction(3, 2)),
                            (DyadicCube(1, (1,) * (f.n - 1), 1), 2)):
                q, p_int = _norm_exponent(p)
                phi = _level_weights(f, root, variant, q, p_int)
                num, levels = _tree_dp(phi, f.n)
                want_num, want_cubes, want_raw = recursive_witness(phi, root, f.n)
                raw = [w for _, _, ws in levels for w in ws.tolist()]
                r = functional(f, p, root)
                assert r.details["witness-size"] == len(want_cubes)
                assert r.witness.expand() == want_cubes
                assert raw == want_raw
                if r.exact:
                    assert num == want_num
                    base = 2 * f.denom if variant == "plus" else f.denom
                    D = base**p_int * (1 << (2 * f.L * f.n * p_int))
                    assert r.witness_weights.expand() == [Fraction(w, D) for w in want_raw]
                else:
                    assert float(num) == pytest.approx(float(want_num), rel=1e-12)
                    assert r.witness_weights.expand() == [float(w) for w in want_raw]


def test_witness_is_row_views():
    """Every producer holds its witness as row views whose expanded
    weights add up to the reported weight: a partition of the root for
    the tree pass, non-overlapping cubes for the oracle, one cube for
    the bmo forms."""
    rng = np.random.default_rng(8)
    for f in (random_fixed_grid(rng, 2, 3), random_fixed_grid(rng, 1, 3), bundled_example()):
        tree = [jnp_plus_dyadic(f, 2), jnp_classical_dyadic(f, 2)]
        single = [bmo_plus_dyadic(f), bmo_plus_limit_form(f)]
        oracle = [antichain_oracle(f, 2, functional=fn)
                  for fn in ("jnp-plus", "jnp-classical") if f.n == 1]
        for r in tree + single + oracle:
            assert isinstance(r.witness, CubeRows) and isinstance(r.witness_weights, RatioRows)
            cubes, weights = r.witness.expand(), r.witness_weights.expand()
            assert len(r.witness) == len(cubes) == len(weights)
            assert sum(weights, Fraction(0)) == r.weight
            CubeFamily(cubes).validate()
        for r in tree + oracle:
            phi = phi_plus if r.functional.startswith("jnp-plus") else phi_classical
            assert r.witness_weights.expand() == [phi(f, c, 2) for c in r.witness.expand()]
        for r in tree:
            assert len(r.witness) == r.details["witness-size"]
            assert CubeFamily(r.witness.expand()).is_partition_of(r.root)
        for r in single:
            assert len(r.witness) == 1
