"""Grid functions on the extended dyadic domain, with exact arithmetic.

A :class:`GridFunction` is piecewise constant on the level-L cells of
[0,1)^{n-1} x [0,3), stored time-fastest (the last axis is the time
axis, matching C order).  Two value modes:

* ``"fixed"`` — every cell value is an integer numerator over one global
  ``denom``; averages, positive-part averages and measure counts are
  exact rationals, and strict comparisons against rational thresholds
  are decided exactly.
* ``"f64"`` — plain float64 cells; the same operations run in floating
  point and exactness claims are off.

Fixed-mode arrays have one of two dtypes, and :func:`exact` alone picks
it: int64 while :func:`int64_fits` proves that the largest magnitude a
computation reaches stays below 2^62, object dtype holding Python ints
(exact at any magnitude) past that.  A grid's cells use the bound
|value| * 2^{2Ln+3}, which covers every block sum and scaled comparison
made on it; each derived grid (offset, scale, shift) runs one numpy
expression on the dtype that ``exact`` picks for its own bound.
Integer and boolean numpy input is cast in one step.  Float and object
input (lists, JSON grids) is read cell by cell: an integral float is
kept exactly, and a fraction, inf or nan is a GridFormatError.
Instances are immutable: the value buffer is write-locked and per-level
block sums and the prefix table are memoized (idempotent, so concurrent
readers are fine).
"""

from __future__ import annotations

import contextlib
import itertools
import math
from fractions import Fraction
from typing import Iterable, Iterator, Literal

import numpy as np

from ._blocks import blocked, clamped_sums, in_block, root_box
from .cubes import DyadicCube, forward, root_cube
from .errors import GridFormatError, OutOfDomainError

__all__ = [
    "GridFunction",
    "PrefixTable",
    "resolve_root",
    "average",
    "union_sum",
    "pos_part_average",
    "distribution_measure",
    "offset_positive_part",
    "scale_values",
    "shift_values",
    "refine",
]

Mode = Literal["fixed", "f64"]

_GUARD_BITS = 62


def int64_fits(magnitude: int) -> bool:
    """True when |magnitude| stays below 2^62.

    The one overflow rule for fixed-mode int64 arithmetic: a grid keeps
    int64 cells while |value| * 2^{2Ln+3} fits, which bounds every
    block sum and scaled comparison made on it.
    """
    return int(magnitude).bit_length() <= _GUARD_BITS


def is_grid_size(n: int, L: int, size: int) -> bool:
    """True when ``size`` is the 3*2^(nL) cells of an n-dimensional level-L grid.

    Exponents are compared first, so a huge L never builds a huge integer.
    """
    return n * L < size.bit_length() and 3 << (n * L) == size


def _magnitude(arr: np.ndarray) -> int:
    """max |cell| of an integer array; np.abs would overflow on INT64_MIN."""
    return max(int(arr.max()), -int(arr.min())) if arr.size else 0


def exact(arr: np.ndarray, bound: int) -> np.ndarray:
    """``arr`` as int64 when int64_fits(bound), else as Python ints (object dtype).

    ``bound`` is the largest magnitude the caller will compute from
    ``arr``, scalar operands included.
    """
    return arr.astype(np.int64 if int64_fits(bound) else object)


def _affine(arr: np.ndarray, mul: int, add: int) -> np.ndarray:
    """arr * mul + add for integer cells, exact on the dtype :func:`exact` picks."""
    bound = max(_magnitude(arr), 1) * abs(mul) + abs(add)
    return exact(arr, bound) * mul + add


def _cube_slices(n: int, L: int, cube: DyadicCube) -> tuple[slice, ...]:
    if cube.n != n:
        raise OutOfDomainError(f"cube dimension {cube.n} != grid dimension {n}")
    if cube.level > L:
        raise OutOfDomainError(f"cube level {cube.level} is below grid resolution {L}")
    return root_box(cube, L)


class GridFunction:
    """Cell values of a function on the extended domain at resolution L."""

    def __init__(
        self,
        n: int,
        L: int,
        values: Iterable | np.ndarray,
        mode: Mode = "fixed",
        denom: int | None = None,
    ) -> None:
        if n < 1:
            raise GridFormatError(f"dimension must be >= 1, got {n}")
        if L < 0:
            raise GridFormatError(f"resolution level must be >= 0, got {L}")
        if mode not in ("fixed", "f64"):
            raise GridFormatError(f"unknown mode {mode!r}")
        self.n = int(n)
        self.L = int(L)
        self.mode: Mode = mode
        arr = np.asarray(values)
        if not is_grid_size(self.n, self.L, arr.size):
            raise GridFormatError(
                f"expected 3*2^{self.n * self.L} cells for n={n}, L={L}, got {arr.size}"
            )
        side = 1 << self.L
        shape = (side,) * (self.n - 1) + (3 * side,)
        if mode == "fixed":
            if denom is None or int(denom) <= 0:
                raise GridFormatError("fixed mode requires a positive denominator")
            self.denom = int(denom)
            if arr.dtype.kind not in "biu":
                if not isinstance(values, np.ndarray):
                    # numpy reads a list holding an int in [2^63, 2^64) as float64
                    arr = np.array(values, dtype=object)
                flat = arr.ravel().tolist()
                try:
                    ints = [int(v) for v in flat]
                except (TypeError, ValueError, OverflowError) as exc:
                    raise GridFormatError("fixed mode requires integer numerators") from exc
                if ints != flat:
                    raise GridFormatError("fixed mode requires integer numerators")
                arr = np.array(ints, dtype=object)
            bound = _magnitude(arr) << (2 * self.L * self.n + 3)
            self.values = exact(arr, bound).reshape(shape)
        else:
            if denom is not None:
                raise GridFormatError("f64 mode takes no denominator")
            self.denom = None
            try:
                buf = arr.astype(np.float64).reshape(shape)
            except OverflowError as exc:  # a Python int past the float64 range
                raise GridFormatError("f64 values must be finite") from exc
            if not np.all(np.isfinite(buf)):
                raise GridFormatError("f64 values must be finite")
            self.values = buf.copy()
        self.values.setflags(write=False)
        self._block_sums_cache: dict[int, np.ndarray] = {}
        self._clamped_sums_cache: dict[tuple[int, int], np.ndarray] | None = None
        self._prefix: PrefixTable | None = None

    # -- basic geometry -------------------------------------------------

    @property
    def is_fixed(self) -> bool:
        return self.mode == "fixed"

    @property
    def side(self) -> int:
        return 1 << self.L

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def cell_volume(self) -> Fraction:
        return Fraction(1, 1 << (self.L * self.n))

    @property
    def root(self) -> DyadicCube:
        return root_cube(self.n)

    def cube_slices(self, cube: DyadicCube) -> tuple[slice, ...]:
        return _cube_slices(self.n, self.L, cube)

    def region(self, cube: DyadicCube) -> np.ndarray:
        return self.values[self.cube_slices(cube)]

    def cells_in(self, cube: DyadicCube) -> int:
        return 1 << ((self.L - cube.level) * self.n)

    # -- exact/float scalar helpers --------------------------------------

    def ratio(self, numer, count: int):
        """Value of (sum of cell entries)/count as Fraction or float."""
        if self.is_fixed:
            return Fraction(int(numer), count * self.denom)
        return float(numer) / count

    def min_value(self):
        m = self.values.min()
        return Fraction(int(m), self.denom) if self.is_fixed else float(m)

    def max_value(self):
        m = self.values.max()
        return Fraction(int(m), self.denom) if self.is_fixed else float(m)

    def min_over(self, cube: DyadicCube):
        m = self.region(cube).min()
        return Fraction(int(m), self.denom) if self.is_fixed else float(m)

    # -- memoized aggregates ----------------------------------------------

    def block_sums(self, k: int) -> np.ndarray:
        """Sums over all level-k blocks of the extended domain.

        Result shape (2^k,)*(n-1) + (3*2^k,); entry [s, t] is the sum of
        cell values inside the level-k box with those indices.
        """
        if not 0 <= k <= self.L:
            raise OutOfDomainError(f"level {k} outside [0, {self.L}]")
        cached = self._block_sums_cache.get(k)
        if cached is not None:
            return cached
        sums = blocked(self.values, self.side >> k).sum(axis=in_block(self.n))
        sums.setflags(write=False)
        self._block_sums_cache[k] = sums
        return sums

    def clamped_sums(self, k: int, offset: int) -> np.ndarray:
        """:func:`_blocks.clamped_sums` of this grid at level k.

        Memoized per (k, offset) only inside :meth:`sharing_clamped_sums`:
        the arrays of all levels take memory on the order of the grid's
        own, and a caller that reads each one once should not keep them
        alive.
        """
        cache = self._clamped_sums_cache
        if cache is None:
            return clamped_sums(self, k, offset)
        sums = cache.get((k, offset))
        if sums is None:
            sums = cache[k, offset] = clamped_sums(self, k, offset)
            sums.setflags(write=False)
        return sums

    @contextlib.contextmanager
    def sharing_clamped_sums(self) -> Iterator[None]:
        """Memoize :meth:`clamped_sums` while several seminorms of this grid run."""
        self._clamped_sums_cache = {}
        try:
            yield
        finally:
            self._clamped_sums_cache = None

    def prefix(self) -> "PrefixTable":
        if self._prefix is None:
            self._prefix = PrefixTable(self)
        return self._prefix

    def equals(self, other: "GridFunction") -> bool:
        return (
            self.n == other.n
            and self.L == other.L
            and self.mode == other.mode
            and self.denom == other.denom
            and bool(np.array_equal(self.values, other.values))
        )


class PrefixTable:
    """Inclusive n-dimensional prefix sums with a zero pad row per axis.

    Any axis-aligned box sum costs 2^n table lookups (inclusion-exclusion);
    in fixed mode the lookups are integers, so cube averages are exact.
    The table keeps no reference to its grid, so the grid that memoizes
    it is freed by reference counting rather than by the cycle collector.
    """

    def __init__(self, gf: GridFunction) -> None:
        self.n, self.L, self.mode = gf.n, gf.L, gf.mode
        t = gf.values
        for ax in range(gf.n):
            t = np.cumsum(t, axis=ax)
        padded = np.zeros(tuple(s + 1 for s in t.shape), dtype=t.dtype)
        padded[tuple(slice(1, None) for _ in range(gf.n))] = t
        padded.setflags(write=False)
        self.table = padded

    def box_sum(self, lo: tuple[int, ...], hi: tuple[int, ...]):
        """Sum of cells with lo[i] <= index_i < hi[i]."""
        total = 0
        for corner in itertools.product((0, 1), repeat=self.n):
            idx = tuple(hi[i] if corner[i] else lo[i] for i in range(self.n))
            term = self.table[idx]
            if sum(corner) % 2 == self.n % 2:
                total += term
            else:
                total -= term
        return float(total) if self.mode == "f64" else int(total)

    def cube_sum(self, cube: DyadicCube):
        sl = _cube_slices(self.n, self.L, cube)
        lo = tuple(s.start for s in sl)
        hi = tuple(s.stop for s in sl)
        return self.box_sum(lo, hi)


# -- averaging operations ---------------------------------------------------


def resolve_root(f: GridFunction, root: DyadicCube | None) -> DyadicCube:
    """Default ``root`` to the unit cube and validate it against the grid."""
    if root is None:
        root = f.root
    if root.n != f.n:
        raise OutOfDomainError(f"root dimension {root.n} != grid dimension {f.n}")
    if root.level > f.L:
        raise OutOfDomainError("root level is below the grid resolution")
    if not root.in_unit_cube:
        raise OutOfDomainError("root must be a dyadic subcube of the unit cube")
    return root


def average(f: GridFunction, cube: DyadicCube):
    """Mean of f over a cube (exact Fraction in fixed mode)."""
    s = f.prefix().cube_sum(cube)
    return f.ratio(s, f.cells_in(cube))


def union_sum(f: GridFunction, cube: DyadicCube):
    """Sum of the cell entries of f over cube ∪ cube+ (int in fixed mode, else float)."""
    pre = f.prefix()
    return pre.cube_sum(cube) + pre.cube_sum(forward(cube))


def _domain_regions(f: GridFunction, domain: str, base: DyadicCube) -> list[np.ndarray]:
    if domain == "cube":
        return [f.region(base)]
    if domain == "union":
        return [f.region(base), f.region(forward(base))]
    raise OutOfDomainError(f"unknown domain token {domain!r} (use 'cube' or 'union')")


def pos_part_average(f: GridFunction, domain: str, base: DyadicCube, ref: DyadicCube):
    """Mean over the domain of (f - mean(f over ref))^+.

    ``domain`` is ``"cube"`` (the base cube alone) or ``"union"`` (base
    together with its forward translate).  The subtraction is nonlinear,
    so this iterates cells rather than using the prefix table.
    """
    ravg = average(f, ref)
    regions = _domain_regions(f, domain, base)
    count = sum(r.size for r in regions)
    if f.is_fixed:
        rn, rd = ravg.numerator, ravg.denominator
        d = f.denom
        total = 0
        for r in regions:
            for a in r.ravel().tolist():
                x = a * rd - rn * d
                if x > 0:
                    total += x
        return Fraction(total, count * d * rd)
    total = 0.0
    for r in regions:
        total += float(np.maximum(r - ravg, 0.0).sum())
    return total / count


def _count_above(f: GridFunction, arr: np.ndarray, ref_avg, lam) -> int:
    """Exact count of cells with (value - ref_avg) > lam (fixed mode)."""
    lam = Fraction(lam)
    rn, rd = ref_avg.numerator, ref_avg.denominator
    d = f.denom
    # value - ref = (a*rd - rn*d)/(d*rd) > lam  iff  a*rd > lam*d*rd + rn*d,
    # and for integer a*rd that holds iff a*rd > floor of the right side
    thr_num = lam.numerator * d * rd + rn * d * lam.denominator
    thr = thr_num // lam.denominator  # a*rd > thr  <=>  strict inequality
    return int((_affine(arr, rd, -thr) > 0).sum())


def distribution_measure(f: GridFunction, root: DyadicCube | None, lam) -> Fraction:
    """|{x in root : (f(x) - mean(f over root++))^+ > lam}| for lam >= 0.

    The count of qualifying cells is exact in fixed mode; the returned
    measure is count * 2^{-Ln} as a Fraction in either mode.
    """
    if root is None:
        root = f.root
    if not root.in_unit_cube:
        raise OutOfDomainError("distribution root must lie inside the unit cube")
    ref = forward(root, 2)
    ravg = average(f, ref)
    arr = f.region(root)
    if f.is_fixed:
        if Fraction(lam) < 0:
            raise OutOfDomainError("distribution threshold must be >= 0")
        count = _count_above(f, arr, ravg, lam)
    else:
        if float(lam) < 0:
            raise OutOfDomainError("distribution threshold must be >= 0")
        count = int((arr - ravg > float(lam)).sum())
    return Fraction(count, 1 << (f.L * f.n))


# -- derived grids ------------------------------------------------------------


def offset_positive_part(f: GridFunction, ref: DyadicCube) -> GridFunction:
    """The grid function (f - mean(f over ref))^+, exact in fixed mode."""
    ravg = average(f, ref)
    if f.is_fixed:
        # on the denominator lcm(d, rd): a/d - rn/rd = (a*sa - rn*sr)/lcm
        d = f.denom
        new_denom = math.lcm(d, ravg.denominator)
        sa, sr = new_denom // d, ravg.numerator * (new_denom // ravg.denominator)
        vals = np.maximum(_affine(f.values, sa, -sr), 0)
        return GridFunction(f.n, f.L, vals, "fixed", new_denom)
    return GridFunction(f.n, f.L, np.maximum(f.values - ravg, 0.0), "f64")


def scale_values(f: GridFunction, c) -> GridFunction:
    """c*f for a rational (fixed) or float (f64) factor c >= 0."""
    if f.is_fixed:
        c = Fraction(c)
        if c < 0:
            raise OutOfDomainError("scaling factor must be >= 0")
        vals = _affine(f.values, c.numerator, 0)
        return GridFunction(f.n, f.L, vals, "fixed", f.denom * c.denominator)
    return GridFunction(f.n, f.L, f.values * float(c), "f64")


def shift_values(f: GridFunction, s) -> GridFunction:
    """f + s for a rational (fixed) or float (f64) constant s."""
    if f.is_fixed:
        s = Fraction(s)
        vals = _affine(f.values, s.denominator, s.numerator * f.denom)
        return GridFunction(f.n, f.L, vals, "fixed", f.denom * s.denominator)
    return GridFunction(f.n, f.L, f.values + float(s), "f64")


def refine(f: GridFunction) -> GridFunction:
    """The same function at resolution L+1 (each cell split into 2^n)."""
    vals = f.values
    for ax in range(f.n):
        vals = np.repeat(vals, 2, axis=ax)
    return GridFunction(f.n, f.L + 1, vals, f.mode, f.denom)
