"""Dyadic cube geometry on the normalized extended domain.

The ambient domain is [0,1)^{n-1} x [0,3): a unit box in the first n-1
axes, stretched to three unit lengths along the last axis, which plays
the role of time.  A :class:`DyadicCube` at level k has side 2^{-k};
its spatial indices lie in [0, 2^k) and its time index in [0, 3*2^k).
The type therefore covers both the dyadic subcubes of the unit cube
Q0 = [0,1)^n (those with time index < 2^k) and their forward time
translates, which the one-sided operators consume.

All boxes are half-open, so "non-overlapping" means literal set
disjointness.  Because every instance is aligned to the 2^{-level} grid
on every axis, two valid cubes are always nested or disjoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import OutOfDomainError, RefinementBelowGridError

__all__ = [
    "DyadicCube",
    "root_cube",
    "forward",
    "children",
    "volume",
]


@dataclass(frozen=True, order=True)
class DyadicCube:
    """Half-open dyadic box: side 2^{-level}, integer corner indices.

    ``spatial`` holds the n-1 spatial indices (empty tuple when n = 1);
    ``time`` is the index along the last axis.  Ordering is lexicographic
    in (level, spatial, time), which is the canonical report order.
    """

    level: int
    spatial: tuple[int, ...]
    time: int

    def __post_init__(self) -> None:
        if self.level < 0:
            raise OutOfDomainError(f"negative level {self.level}")
        side = 1 << self.level
        for s in self.spatial:
            if not 0 <= s < side:
                raise OutOfDomainError(
                    f"spatial index {s} outside [0, {side}) at level {self.level}"
                )
        if not 0 <= self.time < 3 * side:
            raise OutOfDomainError(
                f"time index {self.time} outside [0, {3 * side}) at level {self.level}"
            )

    @property
    def n(self) -> int:
        return len(self.spatial) + 1

    @property
    def in_unit_cube(self) -> bool:
        """True when the cube lies inside Q0 = [0,1)^n (not a translate)."""
        return self.time < (1 << self.level)

    def __repr__(self) -> str:  # compact, index-based
        return f"DyadicCube(level={self.level}, spatial={self.spatial}, time={self.time})"


def root_cube(n: int) -> DyadicCube:
    """The unit cube Q0 = [0,1)^n as a level-0 cube."""
    if n < 1:
        raise OutOfDomainError(f"dimension must be >= 1, got {n}")
    return DyadicCube(0, (0,) * (n - 1), 0)


def forward(cube: DyadicCube, steps: int = 1) -> DyadicCube:
    """Translate forward in time by ``steps`` side lengths.

    forward(Q) is the one-step translate Q+; forward(Q, 2) is Q++ used as
    the reference cube for one-sided oscillation.  Raises OutOfDomainError
    when the translate leaves the extended domain.
    """
    if steps < 0:
        raise OutOfDomainError("forward translation must be non-negative")
    t = cube.time + steps
    if t >= 3 * (1 << cube.level):
        raise OutOfDomainError(
            f"forward({cube}, {steps}) leaves the extended time range"
        )
    return DyadicCube(cube.level, cube.spatial, t)


def children(cube: DyadicCube, max_level: int) -> list[DyadicCube]:
    """The 2^n half-side subcubes, in index order (time fastest).

    ``max_level`` is the grid resolution; refining past it raises
    RefinementBelowGridError.
    """
    if cube.level >= max_level:
        raise RefinementBelowGridError(
            f"cube at level {cube.level} cannot be refined below max level {max_level}"
        )
    out = []
    base = tuple(2 * s for s in cube.spatial)
    for bits in range(1 << (cube.n - 1)):
        sp = tuple(base[i] + ((bits >> (cube.n - 2 - i)) & 1) for i in range(cube.n - 1))
        for dt in (0, 1):
            out.append(DyadicCube(cube.level + 1, sp, 2 * cube.time + dt))
    return out


def volume(cube: DyadicCube) -> Fraction:
    return Fraction(1, 1 << (cube.level * cube.n))
