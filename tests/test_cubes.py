"""Dyadic cube geometry: translates, refinement, volume."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from jnplus import (
    DyadicCube,
    OutOfDomainError,
    children,
    forward,
    root_cube,
    volume,
)

from helpers import cube_cells


@st.composite
def cubes(draw, n=None, max_level=3):
    if n is None:
        n = draw(st.integers(1, 2))
    k = draw(st.integers(0, max_level))
    spatial = tuple(draw(st.integers(0, (1 << k) - 1)) for _ in range(n - 1))
    time = draw(st.integers(0, 3 * (1 << k) - 1))
    return DyadicCube(k, spatial, time)


def test_root_cube():
    for n in (1, 2, 3):
        r = root_cube(n)
        assert r.level == 0
        assert r.spatial == (0,) * (n - 1)
        assert r.time == 0
        assert r.n == n
        assert r.in_unit_cube
        assert volume(r) == 1


def test_domain_validation():
    with pytest.raises(OutOfDomainError):
        DyadicCube(0, (), 3)  # time beyond the extended domain
    with pytest.raises(OutOfDomainError):
        DyadicCube(1, (2,), 0)  # spatial index beyond the unit cube
    with pytest.raises(OutOfDomainError):
        DyadicCube(1, (0,), -1)
    with pytest.raises(OutOfDomainError):
        DyadicCube(-1, (), 0)


def test_forward_translate():
    c = DyadicCube(1, (0,), 0)
    assert forward(c) == DyadicCube(1, (0,), 1)
    assert forward(c, 2) == DyadicCube(1, (0,), 2)
    assert forward(c, 2) == forward(forward(c))
    # the extended domain leaves room for two forward steps from any
    # cube inside the unit cube
    for k in (0, 1, 2):
        last = DyadicCube(k, (), (1 << k) - 1)
        assert forward(last, 2).time == (1 << k) + 1
    with pytest.raises(OutOfDomainError):
        forward(DyadicCube(0, (), 2))


def test_in_unit_cube():
    assert not DyadicCube(2, (), 5).in_unit_cube
    assert DyadicCube(2, (), 3).in_unit_cube


def test_children_parent_roundtrip():
    c = DyadicCube(1, (1,), 1)
    kids = children(c, 2)
    assert len(kids) == 4  # n = 2: 2 spatial halves x 2 time halves
    for kid in kids:
        assert DyadicCube(kid.level - 1, tuple(s // 2 for s in kid.spatial), kid.time // 2) == c
        assert cube_cells(kid, 2) <= cube_cells(c, 2)
        assert volume(kid) == volume(c) / 4
    assert set().union(*(cube_cells(kid, 2) for kid in kids)) == cube_cells(c, 2)


def test_children_below_grid_rejected():
    from jnplus import RefinementBelowGridError

    c = DyadicCube(2, (), 1)
    with pytest.raises(RefinementBelowGridError):
        children(c, 2)


@given(cubes())
def test_volume_matches_cells(c):
    assert volume(c) == Fraction(len(cube_cells(c, 3)), (1 << 3) ** c.n)
