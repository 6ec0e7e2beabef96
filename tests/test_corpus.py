"""Seeded generators and the bundled manifest."""

from fractions import Fraction

import numpy as np
import pytest

from jnplus import (
    DyadicCube,
    GeneratorSpec,
    InvalidSpecError,
    average,
    bundled_example,
    children,
    default_manifest,
    gen,
    root_cube,
)
from jnplus.corpus import MAX_CELLS

from helpers import all_subcubes


def test_determinism():
    spec = GeneratorSpec(kind="uniform-random", n=2, L=3, seed=9)
    assert gen(spec).equals(gen(spec))
    other = GeneratorSpec(kind="uniform-random", n=2, L=3, seed=10)
    assert not gen(other).equals(gen(spec))


def test_constant():
    spec = GeneratorSpec(kind="constant", n=1, L=2, params={"value": 5})
    f = gen(spec)
    assert f.is_fixed
    assert set(f.values.ravel().tolist()) == {5}
    default = gen(GeneratorSpec(kind="constant", n=1, L=1))
    assert set(default.values.ravel().tolist()) == {16}  # the function 1


def test_uniform_random_range():
    f = gen(GeneratorSpec(kind="uniform-random", n=2, L=3, seed=1, denom=16))
    vals = f.values.ravel()
    assert vals.min() >= 0
    assert vals.max() <= 32
    assert len(set(vals.tolist())) > 1


def test_martingale_means_telescope():
    """Every cube's average equals its parent's average, per time box."""
    spec = GeneratorSpec(kind="dyadic-martingale", n=2, L=3, seed=4)
    f = gen(spec)
    assert int(f.values.min()) >= 0
    for c in all_subcubes(root_cube(2), f.L):
        if c.level < f.L:
            kids = children(c, f.L)
            mean_of_kids = sum((average(f, k) for k in kids), Fraction(0)) / len(kids)
            assert mean_of_kids == average(f, c)
    # the same telescoping holds inside the two forward time boxes
    for box_time in (2, 3, 4, 5):
        c = DyadicCube(1, (0,), box_time)
        kids = children(c, f.L)
        mean_of_kids = sum((average(f, k) for k in kids), Fraction(0)) / len(kids)
        assert mean_of_kids == average(f, c)


def test_martingale_refines_all_three_boxes():
    spec = GeneratorSpec(kind="dyadic-martingale", n=1, L=4, seed=8)
    f = gen(spec)
    side = 1 << f.L
    boxes = [f.values[i * side : (i + 1) * side] for i in range(3)]
    # independent boxes: at least two differ
    assert not (np.array_equal(boxes[0], boxes[1]) and np.array_equal(boxes[1], boxes[2]))


def test_time_step_monotone():
    f = gen(GeneratorSpec(kind="time-step", n=2, L=3, seed=3))
    vals = f.values
    # nonincreasing along the time axis, exactly two plateau values
    diffs = np.diff(vals, axis=-1)
    assert (diffs <= 0).all()
    assert len(set(vals.ravel().tolist())) <= 2
    assert int(vals.min()) >= 0


def test_one_sided_power_shape():
    f = gen(GeneratorSpec(kind="one-sided-power", n=2, L=3, seed=0, params={"alpha": 0.5}))
    vals = f.values
    diffs = np.diff(vals, axis=-1)
    assert (diffs <= 0).all()
    # spatially constant
    assert np.all(vals == vals[0:1, :])
    assert int(vals.min()) >= 0
    # top cell value is denom * (2^L / (1/2))^alpha = 16 * 4 = 64
    assert int(vals[0, 0]) == 64


def test_one_sided_power_alpha_validation():
    with pytest.raises(InvalidSpecError):
        gen(GeneratorSpec(kind="one-sided-power", n=1, L=2, params={"alpha": -1}))


def test_spec_rejects_params_its_kind_does_not_read():
    for kind, params in (
        ("uniform-random", {"alpha": 3.0, "value": 9}),
        ("dyadic-martingale", {"alpha": 0.5}),
        ("time-step", {"value": 1}),
        ("constant", {"alpha": 0.5}),
        ("one-sided-power", {"value": 9}),
        ("one-sided-power", {"alpha": 0.5, "beta": 1}),
    ):
        with pytest.raises(InvalidSpecError):
            GeneratorSpec(kind=kind, n=1, L=2, params=params)
        with pytest.raises(InvalidSpecError):
            GeneratorSpec.from_json_dict({"kind": kind, "n": 1, "L": 2, "params": params})
    manifest = default_manifest()
    assert [s.kind for s in manifest if s.params] == ["one-sided-power"] * 12


def test_f64_mode():
    spec = GeneratorSpec(kind="uniform-random", n=1, L=2, seed=2, mode="f64", denom=16)
    f = gen(spec)
    assert not f.is_fixed
    fixed = gen(GeneratorSpec(kind="uniform-random", n=1, L=2, seed=2, denom=16))
    assert np.allclose(f.values, fixed.values.astype(np.float64) / 16)


def test_invalid_specs():
    with pytest.raises(InvalidSpecError):
        GeneratorSpec(kind="white-noise", n=1, L=1)
    with pytest.raises(InvalidSpecError):
        GeneratorSpec(kind="constant", n=0, L=1)
    with pytest.raises(InvalidSpecError):
        GeneratorSpec(kind="constant", n=1, L=-1)
    with pytest.raises(InvalidSpecError):
        GeneratorSpec(kind="constant", n=1, L=1, mode="f32")
    with pytest.raises(InvalidSpecError):
        GeneratorSpec(kind="constant", n=1, L=1, denom=0)
    with pytest.raises(InvalidSpecError):
        GeneratorSpec.from_json_dict({"kind": "constant"})


def test_spec_cell_limit():
    # n*L = 20 is the largest admitted grid: n=2 L=10 and n=1 L=20
    assert 3 << 20 <= MAX_CELLS < 3 << 21
    GeneratorSpec(kind="uniform-random", n=2, L=10)
    GeneratorSpec(kind="constant", n=1, L=20)
    assert all(3 << (s.n * s.L) <= MAX_CELLS for s in default_manifest())
    for n, L in ((1, 21), (3, 7), (2, 11), (1, 40), (2, 10**12)):
        with pytest.raises(InvalidSpecError, match=f"n={n}, L={L}.*limit of {MAX_CELLS}"):
            GeneratorSpec(kind="constant", n=n, L=L)


def test_manifest_contents():
    specs = default_manifest()
    assert len(specs) == 50
    kinds = {s.kind for s in specs}
    assert kinds == {"uniform-random", "dyadic-martingale", "time-step", "one-sided-power"}
    assert {s.n for s in specs} == {1, 2}
    assert {s.L for s in specs} == {3, 4, 5}
    assert all(s.mode == "fixed" and s.denom == 16 for s in specs)
    assert len({s.seed for s in specs}) == 50
    # every entry generates, nonnegative, deterministic shape
    for s in specs[:8]:
        f = gen(s)
        assert f.n == s.n and f.L == s.L
        assert int(f.values.min()) >= 0


def test_manifest_roundtrip():
    for s in default_manifest()[:5]:
        assert GeneratorSpec.from_json_dict(s.to_json_dict()) == s


def test_bundled_example_frozen():
    f = bundled_example()
    assert f.n == 1 and f.L == 2 and f.is_fixed and f.denom == 1
    assert f.values.ravel().tolist() == [0, 0, 0, 4] + [0] * 8
