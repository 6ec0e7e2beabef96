"""Family seminorms: tree programming vs. exhaustive antichain search."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jnplus import (
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
    forward,
    gen,
    jnp_classical_dyadic,
    jnp_plus_dyadic,
    phi_classical,
    phi_plus,
    root_cube,
    scale_values,
    shift_values,
)
from jnplus.reports import Rows
from jnplus.seminorms import _exact_total, _level_weights, _norm_exponent, _tree_dp

from helpers import (
    corpus_grids,
    covers_once,
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
    assert covers_once(cubes, root_cube(f.n), f.L, partition=True)
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


@pytest.mark.parametrize("scale", ["2^40", "largest-lifted"])
def test_scaled_corpus_weights_and_witnesses(scale):
    """Every corpus grid scaled by 2^40 (where the larger grids leave int64
    cells but still reduce in int64), and scaled until its largest cell
    sits just below 2^61 (the quotient form at every level but the finest):
    each seminorm weight is the int64 grid's times the scale to the power
    p (to the first power for the bmo forms), on the same witness cubes."""
    p = 2
    object_grids = 0
    for f in corpus_grids("fixed"):
        M = int(np.abs(f.values).max())
        bits = 40 if scale == "2^40" else 61 - M.bit_length()
        g = scale_values(f, 1 << bits)
        object_grids += g.values.dtype == object
        for fn, power in (
            (lambda h: jnp_plus_dyadic(h, p), p),
            (lambda h: jnp_classical_dyadic(h, p), p),
            (bmo_plus_dyadic, 1),
            (bmo_plus_limit_form, 1),
        ):
            want, got = fn(f), fn(g)
            assert got.weight == want.weight * (1 << (bits * power))
            assert got.witness.expand() == want.witness.expand()
    assert object_grids >= (16 if scale == "2^40" else 50)


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
    """The cell-count check the witness tests use: overlap, a repeated
    cube or a cube outside the root is rejected, and a partition covers
    every cell of the root."""
    root, L = root_cube(1), 3
    a, half = DyadicCube(1, (), 0), DyadicCube(1, (), 1)
    nested = DyadicCube(2, (), 1)  # inside a
    for partition in (False, True):
        assert not covers_once([a, nested], root, L, partition=partition)
        assert not covers_once([a, a], root, L, partition=partition)
        assert not covers_once([forward(half)], root, L, partition=partition)
        assert covers_once([a, half], root, L, partition=partition)
    assert covers_once([a], root, L, partition=False)
    assert not covers_once([a], root, L, partition=True)


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
    witness-size, on every corpus grid in exact and float arithmetic.
    The walk reads the weights themselves (exact ones as Python ints, each
    level's normalised numerators times 2^{k*g}), and the DP's optimum and
    raw weights are compared after the same un-normalising."""
    functional = jnp_plus_dyadic if variant == "plus" else jnp_classical_dyadic
    for s in default_manifest():
        for mode in ("fixed", "f64"):
            f = gen(GeneratorSpec(s.kind, s.n, s.L, s.seed, mode, s.denom, s.params))
            # the unit cube, and a subcube off the origin on every axis
            for root, p in ((root_cube(f.n), 2), (root_cube(f.n), Fraction(3, 2)),
                            (DyadicCube(1, (1,) * (f.n - 1), 1), 2)):
                q, p_int = _norm_exponent(p)
                phi, g = _level_weights(f, root, variant, q, p_int)
                num, levels = _tree_dp(phi, g)
                if g:  # exact: the weight at level k is phi[k] * 2^{k*g}
                    weights = {k: phi[k].astype(object) << (k * g) for k in phi}
                    num = int(num) << (root.level * g)
                    raw = [w << (k * g) for k, _, ws in levels for w in ws.tolist()]
                else:
                    weights = phi
                    raw = [w for _, _, ws in levels for w in ws.tolist()]
                want_num, want_cubes, want_raw = recursive_witness(weights, root, f.n)
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


def _reference_tree(f: GridFunction, p: int, variant: str):
    """K, witness cubes and witness weights of the unit cube's tree, walked by
    :func:`helpers.recursive_witness` on Python-int weights from the
    cell-iteration route (``phi_plus``/``phi_classical``), all on the tree's
    denominator D: no block sum, no normalising and no int64 take part."""
    weigh = phi_plus if variant == "plus" else phi_classical
    base = 2 * f.denom if variant == "plus" else f.denom
    D = base**p << (2 * f.L * f.n * p)
    weights = {}
    for k in range(f.L + 1):
        arr = np.empty((1 << k,) * f.n, dtype=object)
        for idx in np.ndindex(arr.shape):
            w = weigh(f, DyadicCube(k, idx[:-1], idx[-1]), p) * D
            assert w.denominator == 1
            arr[idx] = w.numerator
        weights[k] = arr
    num, cubes, raws = recursive_witness(weights, root_cube(f.n), f.n)
    return Fraction(num, D), cubes, [Fraction(w, D) for w in raws]


def _same_as_reference(f: GridFunction, p: int, variant: str) -> None:
    r = (jnp_plus_dyadic if variant == "plus" else jnp_classical_dyadic)(f, p)
    weight, cubes, weights = _reference_tree(f, p, variant)
    assert r.weight == weight
    assert r.witness.expand() == cubes
    assert r.witness_weights.expand() == weights


# n=1, L=2 cell patterns, each with the largest c for which c * pattern
# keeps every level of the plus weights at p=2 on int64
_EDGES = {
    "ramp": (11 - np.arange(12), 11184810),
    "step": ((np.arange(12) < 5).astype(np.int64), 67108863),
}


@pytest.mark.parametrize("past", [0, 1])
@pytest.mark.parametrize("name", sorted(_EDGES))
def test_dp_int64_boundary_from_both_sides(name, past):
    """Level k is int64 while B_k = max(max T^p, 2^{n+g} B_{k+1}, 2^g) stays
    below 2^62: at the largest c every level is, at c + 1 the root level
    holds Python ints.  On the ramp c*(11 - t) the normalised DP values
    reach that bound, so the root's lies just below 2^62 at c and reaches
    2^62 at c + 1.  On the step (c on the first five time cells) the root's
    own T^p stays below 2^62 and the children's term passes it.  Both
    sides give the all-Python-int reference's K, witness and weights."""
    pattern, c = _EDGES[name]
    f = GridFunction(1, 2, (c + past) * pattern, "fixed", 1)
    phi, g = _level_weights(f, f.root, "plus", Fraction(2), 2)
    assert [k for k in sorted(phi) if phi[k].dtype == np.int64] == ([1, 2] if past else [0, 1, 2])
    if name == "ramp":
        num, _ = _tree_dp(phi, g)
        assert int(num).bit_length() == 62 + past
    else:
        assert int(phi[0].max()) < 1 << 62
    _same_as_reference(f, 2, "plus")


@pytest.mark.parametrize("p", [128, 1024])
def test_dp_at_large_p_with_an_all_zero_level(p):
    """At p = 128 and 1024 the factor 2^g alone passes 2^62, so every level
    holds Python ints, also a level whose sums are all zero: the finest,
    on a grid rising over the unit time interval's cells and the next two
    (the plus weights), and on any grid (the classical ones)."""
    f = GridFunction(1, 2, [1, 2, 3, 4, 5, 6] + [0] * 6, "fixed", 1)
    for variant in ("plus", "classical"):
        q, p_int = _norm_exponent(p)
        phi, _ = _level_weights(f, f.root, variant, q, p_int)
        assert not phi[2].any() and phi[1].any()
        assert all(a.dtype == object for a in phi.values())
        _same_as_reference(f, p, variant)


def test_dp_on_a_2_to_40_scaled_grid_holds_python_ints():
    """The benchmark's big-integer grid, 2^40 * a uniform grid, keeps every
    level with a nonzero weight on Python ints where the grid itself has
    int64 levels, and its result is 2^{40p} times the grid's, with the same
    witness.  (The classical weights' finest level is all zero.)"""
    f = gen(GeneratorSpec("uniform-random", 2, 3, 0, "fixed", 256))
    big = scale_values(f, 1 << 40)
    for variant in ("plus", "classical"):
        phi, phi_big = (_level_weights(h, h.root, variant, Fraction(2), 2)[0] for h in (f, big))
        assert any(a.dtype == np.int64 and a.any() for a in phi.values())
        assert all(a.dtype == object for a in phi_big.values() if a.any())
        functional = jnp_plus_dyadic if variant == "plus" else jnp_classical_dyadic
        r, rb = functional(f, 2), functional(big, 2)
        assert rb.weight == r.weight * (1 << 80)
        assert rb.witness.expand() == r.witness.expand()
        assert rb.witness_weights.expand() == [w * (1 << 80) for w in r.witness_weights.expand()]


def test_exact_total_of_int64_weights_past_int64():
    """The witness check sums each level's int64 weights exactly: one int64
    sum where it fits, 31-bit halves where the total passes 2^63."""
    top = (1 << 62) - 1
    for raw in ([], [top], [top, 1], [top] * 3, list(range(1 << 10)) + [top] * 5):
        assert _exact_total(np.array(raw, dtype=np.int64)) == sum(raw)
    assert _exact_total(np.array([1 << 80, 3], dtype=object)) == (1 << 80) + 3


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
            assert isinstance(r.witness, Rows) and isinstance(r.witness_weights, Rows)
            cubes, weights = r.witness.expand(), r.witness_weights.expand()
            assert len(r.witness) == len(cubes) == len(weights)
            assert sum(weights, Fraction(0)) == r.weight
            assert covers_once(cubes, r.root, f.L, partition=False)
        for r in tree + oracle:
            phi = phi_plus if r.functional.startswith("jnp-plus") else phi_classical
            assert r.witness_weights.expand() == [phi(f, c, 2) for c in r.witness.expand()]
        for r in tree:
            assert len(r.witness) == r.details["witness-size"]
            assert covers_once(r.witness.expand(), r.root, f.L, partition=True)
        for r in single:
            assert len(r.witness) == 1


def test_witness_columns_are_joined_when_first_read():
    """A seminorm's witness cubes and weights keep their per-level arrays
    until the columns are first read: the size, and the value a verify
    run reads, join nothing, and the first read joins them once."""
    f = random_fixed_grid(np.random.default_rng(3), 2, 3)
    r = jnp_plus_dyadic(f, 2)
    columns = r.witness.columns
    assert r.value > 0 and len(r.witness) == len(r.witness_weights) > 1
    assert "data" not in vars(columns) and "data" not in vars(r.witness_weights.columns)
    levels = columns["level"]
    assert "data" in vars(columns) and columns["level"] is levels
    assert levels.tolist() == [c.level for c in r.witness.expand()]
    assert sorted(columns) == ["level", "spatial-0", "time"]
