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

This module owns the mode decision for the rest of the package:

* :func:`exceeds` is the one strict-threshold rule, numer/(count*denom)
  > lam cell by cell.  It is exact on integer numerators and a float
  compare on float64 cells; every superlevel set, stopping condition
  and distribution set goes through it.  :func:`exceed_ranks` decides
  it for a whole ascending list of lam in one pass with the same cuts,
  and :func:`counts_above` counts those ranks per lam.  A
  :class:`Thresholds` list carries each lam's exact ratio, read once,
  so the cuts of many arrays against one list read no lam again.
* :meth:`GridFunction.scalar` lifts a threshold or constant to the
  mode's scalar (Fraction or float), :meth:`GridFunction.threshold`
  lifts a threshold that the reports must hold as a float too, and
  :meth:`GridFunction.ratio` turns a sum of cell entries into a value.
  A threshold whose float is infinite, or 0 while it is not, is refused
  (:func:`_in_float_range`) by ``scalar`` in f64 mode, by ``threshold`` in both.

Fixed-mode arrays have one of two dtypes, and :func:`exact` alone picks
it: int64 while :func:`int64_fits` proves that the largest magnitude a
computation reaches stays below 2^62, object dtype holding Python ints
(exact at any magnitude) past that.  The grid-wide bound
|value| * 2^{2Ln+3}, which covers every block sum and scaled comparison
made on a grid, picks its cells' dtype; each derived grid (offset,
scale, shift) runs one numpy expression on the dtype that ``exact``
picks for its own bound.  An object grid's block and deviation sums
still reduce in int64 where its cells fit: while 2 * max |value| does,
``exact`` makes it one int64 copy of its cells
(:meth:`GridFunction._int64_cells`), and the sums come back as Python
ints (:func:`jnplus._blocks._exact_sums`).
Integer and boolean numpy input is cast in one step.  Float and object
input (lists, JSON grids) is read cell by cell: an integral float is
kept exactly, and a fraction, inf or nan is a GridFormatError.
Instances are immutable: the value buffer is write-locked and per-level
block sums are memoized (idempotent, so concurrent readers are fine).
A cube's mean or sum (:func:`average`, :func:`union_sum`) reduces its own
cells.  Past the float range such an f64 value raises OutOfDomainError
and an f64 block sum reads inf or nan, without a numpy warning.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from bisect import bisect_left
from fractions import Fraction
from typing import Iterable, Iterator, Literal

import numpy as np

from ._blocks import _exact_sums, block_reduce, blocked, clamped_sums, root_box, upsample
from .cubes import DyadicCube, forward, root_cube
from .errors import GridFormatError, InvalidParamsError, OutOfDomainError

# Largest dimension a grid may have: the dyadic blocks of an n-dimensional
# array take 2n axes (:func:`~jnplus._blocks.blocked`), and numpy allows 64.
MAX_N = 32

__all__ = [
    "MAX_N",
    "int64_fits",
    "exceeds",
    "Thresholds",
    "exceed_ranks",
    "counts_above",
    "is_grid_size",
    "exact",
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
# entries per searchsorted call in exceed_ranks
_SLAB = 1 << 14


def int64_fits(magnitude: int) -> bool:
    """True when |magnitude| stays below 2^62.

    The one overflow rule for fixed-mode int64 arithmetic: a grid keeps
    int64 cells while |value| * 2^{2Ln+3} fits, which bounds every
    block sum and scaled comparison made on it.
    """
    return int(magnitude).bit_length() <= _GUARD_BITS


class Thresholds:
    """An ascending list of thresholds, held by each one's exact ratio.

    ``ratios`` holds each threshold's exact (numerator, denominator) in
    lowest terms, read once.  An ``exact`` list's items are its ratios'
    Fractions; a float list's (f64 mode) are floats, each its ratio
    divided: int true division rounds once, so the ratio of a float
    (``float.as_integer_ratio``) divides back to that float exactly.
    :func:`exceed_ranks` takes one in place of a list, and then
    :func:`_cuts` reads the pairs on integer cells instead of reading
    every threshold again.  A slice is again one.
    """

    def __init__(self, ratios: list[tuple[int, int]], exact: bool) -> None:
        self.ratios = ratios
        self.exact = exact

    def __len__(self) -> int:
        return len(self.ratios)

    def __iter__(self):
        return map(self.__getitem__, range(len(self.ratios)))

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Thresholds(self.ratios[i], self.exact)
        num, den = self.ratios[i]
        return Fraction(num, den) if self.exact else num / den

    def floats(self) -> list[float]:
        """Each threshold's float: its ratio rounded once, as float() rounds it."""
        return [num / den for num, den in self.ratios]

    def count_below(self, x) -> int:
        """How many thresholds lie below the number x, compared exactly."""
        xn, xd = x.as_integer_ratio()
        return bisect_left(self.ratios, True, key=lambda r: r[0] * xd >= xn * r[1])

    def times(self, c) -> Thresholds:
        """c * each threshold, for a factor c of the list's kind (Fraction or float).

        An exact list multiplies each ratio by c's and reduces the pair by
        one gcd; a float list holds the float products.
        """
        if not self.exact:
            return Thresholds([(c * lam).as_integer_ratio() for lam in self.floats()], False)
        cn, cd = c.as_integer_ratio()
        out = []
        for num, den in self.ratios:
            num, den = num * cn, den * cd
            g = math.gcd(num, den)
            out.append((num // g, den // g))
        return Thresholds(out, True)


def _cuts(numer: np.ndarray, count: int, denom: int | None, lams) -> list:
    """Per lam, the cut t with numer / (count * denom) > lam exactly when numer > t.

    Integer numerators (int64 or object) get floor(lam*count*denom) from
    each lam's numerator and denominator, the ``ratios`` of a
    :class:`Thresholds` (any other list is lifted through Fraction into
    one).  int64 cells stay below 2^62 (:func:`int64_fits`), so a cut
    past that is clamped to +-2^62 and stays an int64.  Float64 cells
    (f64 mode, ``denom`` None) get lam * count, exact because ``count``
    is a power of two.  The cut never decreases as lam grows.
    """
    if numer.dtype.kind == "f":
        floats = lams.floats() if isinstance(lams, Thresholds) else map(float, lams)
        return [lam * count for lam in floats]
    scale = count * denom
    if not isinstance(lams, Thresholds):
        lams = Thresholds([Fraction(lam).as_integer_ratio() for lam in lams], True)
    cuts = [num * scale // den for num, den in lams.ratios]
    top = 1 << _GUARD_BITS
    if numer.dtype == np.int64 and cuts and (max(cuts) > top or min(cuts) < -top):
        cuts = [min(max(t, -top), top) for t in cuts]
    return cuts


def exceeds(numer: np.ndarray, count: int, denom: int | None, lam) -> np.ndarray:
    """Cellwise numer / (count * denom) > lam: the one strict-threshold rule.

    Exact on integer numerators, a float compare on float64 cells; the
    cut comes from :func:`_cuts`.
    """
    return numer > _cuts(numer, count, denom, (lam,))[0]


def exceed_ranks(numer: np.ndarray, count: int, denom: int | None, lams) -> np.ndarray:
    """Per entry of ``numer``, how many of the ascending ``lams`` it exceeds.

    The cuts of :func:`_cuts` never decrease along ``lams``, so an entry
    with rank r exceeds lams[i] (as :func:`exceeds` decides it) exactly
    when i < r.  Equal lams may repeat.  The ranks come in an array of
    numer's shape (at least one axis), int16 while there are fewer than
    2^15 lams.  One lam is decided on its cut alone, as :func:`exceeds` decides it.
    """
    cuts = _cuts(numer, count, denom, lams)
    if len(cuts) == 1:  # exceeds, on the cut already made
        return (numer > cuts[0]).astype(np.int16)
    cuts = np.array(cuts, dtype=numer.dtype)
    ranks = np.empty(numer.shape, dtype=np.int16 if len(cuts) < 1 << 15 else np.intp)
    # the number of cuts strictly below each entry, a slab of rows at a
    # time: searchsorted makes an intp array and a contiguous copy of a
    # strided input, each as large as its input
    step = max(1, _SLAB * len(numer) // max(numer.size, 1))
    for i in range(0, len(numer), step):
        ranks[i : i + step] = np.searchsorted(cuts, numer[i : i + step], side="left")
    if numer.dtype.kind == "f":
        ranks[np.isnan(numer)] = 0  # nan exceeds nothing
    return ranks


def counts_above(ranks: np.ndarray, m: int) -> np.ndarray:
    """Per i < m, how many entries of ``ranks`` exceed i.

    With the ranks of :func:`exceed_ranks` against m lams, entry i counts
    the entries that exceed lams[i]: suffix sums of the rank counts.
    """
    return np.cumsum(np.bincount(ranks.ravel(), minlength=m + 1)[:0:-1])[::-1]


def _float_view(x) -> float:
    """float(x), and +-inf where an exact x lies past the float range, as in f64 mode."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _float_array(arr: np.ndarray) -> np.ndarray:
    """``arr`` as float64, object entries read by :func:`_float_view`, so that
    an exact entry past the float range reads +-inf."""
    if arr.dtype != object:
        return arr.astype(np.float64)
    return np.array([_float_view(x) for x in arr.ravel().tolist()]).reshape(arr.shape)


def _digits(n: int) -> int:
    """The decimal digits of |n|, counted without writing n out."""
    n = abs(n) or 1
    d = int((n.bit_length() - 1) * 0.30102999566398120) + 1  # log10(2)
    return d - (n < 10 ** (d - 1)) + (n >= 10**d)


def _number_name(x) -> str:
    """An error's name for the number x: its float (+-inf past the float range)
    and, when x is exact, its ratio's digit counts, not its digits."""
    name = repr(_float_view(x))
    if not isinstance(x, float):
        num, den = x.as_integer_ratio()
        name += f" (an exact ratio of {_digits(num)}/{_digits(den)} digits)"
    return name


def _in_float_range(lam, lift):
    """``lift(lam)``, refused (InvalidParamsError) when lam's float is
    infinite, or 0 while lam is not: the one float-range rule for thresholds.
    The error names lam by :func:`_number_name`.
    """
    x = _float_view(lam)
    if math.isinf(x) or (x == 0 and lam != 0):
        raise InvalidParamsError(f"threshold {_number_name(lam)} lies outside the float range")
    return lift(lam)


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
        if not 1 <= n <= MAX_N:
            raise GridFormatError(f"dimension must lie in [1, {MAX_N}], got {n}")
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
        self._int64_copy: tuple[np.ndarray | None, int] | None = None
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

    def scalar(self, x):
        """``x`` as this grid's scalar: a Fraction in fixed mode, an in-range float in f64."""
        if self.is_fixed:
            return x if type(x) is Fraction else Fraction(x)
        return _in_float_range(x, float)

    def threshold(self, lam):
        """:meth:`scalar` of ``lam``, refused outside the float range in fixed mode too."""
        return _in_float_range(lam, self.scalar)

    def ratio(self, numer, count: int):
        """Value of (sum of cell entries)/count as Fraction or float."""
        if self.is_fixed:
            return Fraction(int(numer), count * self.denom)
        return float(numer) / count

    def min_value(self):
        return self.ratio(self.values.min(), 1)

    def max_value(self):
        return self.ratio(self.values.max(), 1)

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
        cells, M = self._int64_cells()
        if cells is not None:
            sums = _exact_sums(cells, M, self.side >> k)
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                sums = block_reduce(blocked(self.values, self.side >> k), np.add)
        sums.setflags(write=False)
        self._block_sums_cache[k] = sums
        return sums

    def _int64_cells(self) -> tuple[np.ndarray | None, int]:
        """An object grid's cells as int64, and M = max |cell|, when 2*M fits.

        (None, 0) for an int64 or f64 grid, and (None, M) for cells at or
        past 2^61.  Made once through :func:`exact` and memoized, so the
        block and deviation sums of an object grid reduce in int64 wherever
        their terms fit (:func:`_blocks._exact_sums`).
        """
        if self.values.dtype != object:
            return None, 0
        if self._int64_copy is None:
            M = _magnitude(self.values)
            cells = exact(self.values, 2 * M) if int64_fits(2 * M) else None
            if cells is not None:
                cells.setflags(write=False)
            self._int64_copy = (cells, M)
        return self._int64_copy

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

    Any axis-aligned box sum costs 2^n table lookups (inclusion-exclusion).
    Nothing in the package calls it: a cube's own cells give its sum with
    no whole-grid table and no f64 cancellation against the cells before
    it.  It stays while the benchmark traces ``GridFunction.prefix``.
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
    """Mean of f over a cube, summed from its own cells (exact Fraction in fixed mode).

    An f64 mean whose cell sum leaves the float range raises OutOfDomainError.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        mean = f.ratio(f.region(cube).sum(), f.cells_in(cube))
    if not (f.is_fixed or math.isfinite(mean)):
        raise OutOfDomainError(f"the f64 mean of f over {cube} overflows")
    return mean


def union_sum(f: GridFunction, cube: DyadicCube):
    """Sum of the cell entries of f over cube ∪ cube+ (int in fixed mode, else float)."""
    with np.errstate(over="ignore", invalid="ignore"):
        total = sum(r.sum() for r in (f.region(cube), f.region(forward(cube))))
    if not (f.is_fixed or math.isfinite(total)):
        raise OutOfDomainError(f"the f64 sum of f over {cube} ∪ {forward(cube)} overflows")
    return int(total) if f.is_fixed else float(total)


def pos_part_average(f: GridFunction, base: DyadicCube, ref: DyadicCube):
    """Mean over base ∪ base+ of (f - mean(f over ref))^+.

    The clamp is nonlinear, so this iterates the cells one by one rather
    than summing them.
    """
    ravg = average(f, ref)
    regions = [f.region(base), f.region(forward(base))]
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


def distribution_measure(f: GridFunction, root: DyadicCube | None, lam) -> Fraction:
    """|{x in root : (f(x) - mean(f over root++))^+ > lam}| for lam >= 0.

    The count of qualifying cells is exact in fixed mode; the returned
    measure is count * 2^{-Ln} as a Fraction in either mode.
    """
    if root is None:
        root = f.root
    if not root.in_unit_cube:
        raise OutOfDomainError("distribution root must lie inside the unit cube")
    lam = f.scalar(lam)
    if lam < 0:
        raise OutOfDomainError("distribution threshold must be >= 0")
    g = offset_positive_part(f, forward(root, 2))
    above = exceeds(g.region(root), 1, g.denom, lam)
    return Fraction(int(above.sum()), 1 << (f.L * f.n))


# -- derived grids ------------------------------------------------------------


def offset_positive_part(f: GridFunction, ref: DyadicCube) -> GridFunction:
    """The grid function (f - mean(f over ref))^+, exact in fixed mode.

    An f64 cell that leaves the float range raises OutOfDomainError.
    """
    ravg = average(f, ref)
    if f.is_fixed:
        # on the denominator lcm(d, rd): a/d - rn/rd = (a*sa - rn*sr)/lcm
        d = f.denom
        new_denom = math.lcm(d, ravg.denominator)
        sa, sr = new_denom // d, ravg.numerator * (new_denom // ravg.denominator)
        vals = np.maximum(_affine(f.values, sa, -sr), 0)
        return GridFunction(f.n, f.L, vals, "fixed", new_denom)
    with np.errstate(over="ignore"):
        vals = np.maximum(f.values - ravg, 0.0)
    if not math.isfinite(vals.max()):  # vals >= 0, and finite f - mean is never nan
        raise OutOfDomainError(f"the f64 offset f - mean(f over {ref}) overflows")
    return GridFunction(f.n, f.L, vals, "f64")


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
    return GridFunction(f.n, f.L + 1, upsample(f.values), f.mode, f.denom)
