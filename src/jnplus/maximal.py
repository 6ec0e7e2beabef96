"""Forward-in-time dyadic maximal operator and stopping-time machinery.

For a dyadic cube R inside the unit cube, the maximal value at a cell x
of R is the supremum of the means of f over the forward translates Q+ of
the dyadic subcubes Q of R that contain x (R itself included):

    M_R f(x) = max { mean(f over Q+) : x in Q, Q dyadic subcube of R }.

Two variants:

* ``"grid"`` — exactly the definition above, truncated at the grid
  resolution L.  The stopping-time decomposition below matches its
  superlevel sets cell for cell, which the proof-chain checks rely on.
* ``"augmented"`` — the grid value joined with the cell's own value
  max(M_R f(x), f(x)).  Superlevel sets of the augmented field dominate
  plain distribution sets by construction.

The stopping-time decomposition of R at threshold lam collects the
maximal dyadic subcubes Q with mean(f over Q+) > lam (strict).  Their
union reproduces {M_R f > lam} exactly on the grid.  Every such strict
comparison goes through :func:`jnplus.grid.exceeds`, which decides it in
integer arithmetic in fixed mode; thresholds are lifted to the grid's
scalar by :meth:`~jnplus.grid.GridFunction.scalar`.

:func:`stopping_ranks` is the one stopping rule: it decides a whole
ascending list of thresholds on ranks, for :func:`cz_decompose` at one
threshold and for ``verification.lemma_sweep`` at every b*lam.

A decomposition holds its stopping cubes per level as the index rows
that :func:`cz_decompose` finds, not as one object per cube: the checks
read each level's rows against that level's block sums, the volumes
come from the per-level counts, and the report's level, spatial and
time columns (:func:`~jnplus.reports.cube_rows`) are joined when first read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterator

import numpy as np

from ._blocks import block_count, box_origin, level_sums, root_box, upsample
from .cubes import DyadicCube, forward
from .errors import InvalidParamsError, NegativeInputError
from .grid import GridFunction, average, exceed_ranks, exceeds, resolve_root, union_sum
from .grid import _float_view, _in_float_range
from .reports import Rows, VerificationReport, cube_rows

__all__ = [
    "MaximalField",
    "Decomposition",
    "maximal_function",
    "positive_part_field",
    "stopping_ranks",
    "cz_decompose",
    "select_subfamily",
    "check_p1",
    "check_p2",
    "weak_type_check",
]

_VARIANTS = ("grid", "augmented")


@dataclass
class MaximalField:
    """Maximal values on the leaf cells of ``root``.

    Fixed mode stores integer numerators over ``denom_scale`` =
    denom * 2^{(L-r)n}, so superlevel counts against rational thresholds
    are exact; f64 mode stores float values and ``denom_scale`` is None.
    """

    root: DyadicCube
    variant: str
    n: int
    L: int
    mode: str
    denom_scale: int | None
    values: np.ndarray = field(repr=False)

    def superlevel_mask(self, lam) -> np.ndarray:
        """Cells with value > lam; an f64 field refuses a lam outside the float range."""
        if self.mode == "f64":
            lam = _in_float_range(lam, float)
        return exceeds(self.values, 1, self.denom_scale, lam)

    def superlevel_measure(self, lam) -> Fraction:
        return Fraction(int(self.superlevel_mask(lam).sum()), 1 << (self.L * self.n))

    def _value(self, v):
        return Fraction(int(v), self.denom_scale) if self.mode == "fixed" else float(v)

    def value_at(self, index: tuple[int, ...]):
        return self._value(self.values[index])

    def max_value(self):
        return self._value(self.values.max())

    def min_value(self):
        return self._value(self.values.min())


def _running_max(fwd: list[np.ndarray]) -> np.ndarray:
    """Top-down running maximum of forward means, one entry per level.

    ``fwd[j]`` holds the sums over the forward translates of the
    level-(r+j) subcubes of a level-r root, down to the leaf level.  At
    each level the means are joined with the maximum inherited from the
    ancestors.  Integer sums (fixed mode) give numerators over
    2^{(L-r)n} times the cell denominator; float sums (f64) give the means.
    """
    depth, n = len(fwd) - 1, fwd[0].ndim
    fixed = fwd[0].dtype.kind != "f"
    running: np.ndarray | None = None
    for j, sums in enumerate(fwd):
        lvl = sums * (1 << (j * n)) if fixed else sums / (1 << ((depth - j) * n))
        running = lvl if running is None else np.maximum(upsample(running), lvl)
    assert running is not None
    return running


def maximal_function(
    f: GridFunction, root: DyadicCube | None = None, variant: str = "grid"
) -> MaximalField:
    """Forward maximal field of f over the dyadic subcubes of root.

    Runs one top-down pass: at each level the forward means are joined
    with the running maximum inherited from the ancestors, so the leaf
    array holds the full ancestor supremum.  Cost O(cells * levels).
    """
    if variant not in _VARIANTS:
        raise InvalidParamsError(f"unknown maximal variant {variant!r}")
    root = resolve_root(f, root)
    r = root.level
    fwd = [f.block_sums(k)[root_box(root, k, time_shift=1)] for k in range(r, f.L + 1)]
    running = _running_max(fwd)
    if variant == "augmented":
        leaf = f.region(root)
        if f.is_fixed:
            leaf = leaf * (1 << ((f.L - r) * f.n))
        running = np.maximum(running, leaf)
    scale = f.denom * (1 << ((f.L - r) * f.n)) if f.is_fixed else None
    running.setflags(write=False)
    return MaximalField(root, variant, f.n, f.L, f.mode, scale, running)


def positive_part_field(f: GridFunction, cube: DyadicCube) -> MaximalField:
    """Grid maximal field over ``cube`` of g = (f - mean(f over cube++))^+.

    Equals maximal_function(offset_positive_part(f, forward(cube, 2)),
    cube) cell for cell, but reads f on cube ∪ cube+ only: the mean is
    one lookup in f.block_sums(cube.level), and g stays a local array on
    the integer scale N*denom (N cells per cube) instead of a full-grid
    GridFunction.  On an int64 grid every intermediate stays below 2^62.
    """
    cube = resolve_root(f, cube)
    r = cube.level
    N = block_count(f, r)
    sl = f.cube_slices(cube)
    t = sl[-1]
    a = f.values[sl[:-1] + (slice(t.start, 2 * t.stop - t.start),)]
    ref = f.block_sums(r)[cube.spatial + (cube.time + 2,)]
    if f.is_fixed:
        h = np.maximum(a * N - ref, 0)
    else:
        h = np.maximum(a - ref / N, 0.0)
    # the forward translate of a block is the next block in time
    fwd = [s[..., 1 : s.shape[-1] // 2 + 1] for s in level_sums(h, f.L - r)]
    running = _running_max(fwd)
    scale = N * f.denom * (1 << ((f.L - r) * f.n)) if f.is_fixed else None
    running.setflags(write=False)
    return MaximalField(cube, "grid", f.n, f.L, f.mode, scale, running)


@dataclass
class Decomposition:
    """Stopping-time decomposition of ``root`` at ``threshold``.

    ``levels`` pairs each level k of the root, coarse to fine, with the
    index rows (spatial, then time) of the maximal dyadic subcubes whose
    forward mean exceeds the threshold, in index order; ``stopping`` is
    their :func:`~jnplus.reports.cube_rows`, made when first read.  ``groups`` maps
    the list position j of each cube whose forward translate is maximal
    with respect to inclusion among all forward translates to every
    position i whose forward translate lies inside that of j (j itself
    included), ascending; ``subfamily`` lists those positions j.
    """

    root: DyadicCube
    threshold: Fraction | float
    levels: list[tuple[int, np.ndarray]] = field(repr=False)
    groups: dict[int, list[int]]

    @cached_property
    def stopping(self) -> Rows:
        return cube_rows(self.levels)

    @property
    def subfamily(self) -> list[int]:
        return list(self.groups)

    def total_volume(self) -> Fraction:
        return self._volume([len(rows) for _, rows in self.levels])

    def subfamily_volume(self) -> Fraction:
        # a position's level is the number of levels that end at or before it
        ends = np.cumsum([len(rows) for _, rows in self.levels])
        at = np.searchsorted(ends, self.subfamily, side="right")
        return self._volume(np.bincount(at, minlength=len(ends)).tolist())

    def _volume(self, counts: list[int]) -> Fraction:
        # counts[i] cubes at the i-th level; a level-k cube weighs 2^{-kn}
        terms = (Fraction(c, 1 << (k * self.root.n)) for (k, _), c in zip(self.levels, counts))
        return sum(terms, Fraction(0))

    def to_json_dict(self) -> dict:
        return {
            "root": self.root,
            "lambda": self.threshold,
            "stopping": self.stopping,
            "subfamily": self.subfamily,
            "groups": self.groups,
            "total-volume": self.total_volume(),
        }


def _require_nonneg(f: GridFunction, root: DyadicCube) -> None:
    if f.values.min() >= 0:
        return
    if f.region(root).min() < 0 or f.region(forward(root)).min() < 0:
        raise NegativeInputError(
            "stopping-time decomposition requires f >= 0 on root and its forward translate"
        )


def stopping_ranks(
    f: GridFunction, root: DyadicCube, lams
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Per level k of ``root``, coarse to fine: (k, A, e) over its level-k blocks.

    ``e`` ranks each block's forward sum against the ascending ``lams``
    (:func:`jnplus.grid.exceed_ranks`), and ``A`` is the largest ``e``
    among the block's ancestors in the root box (0 at the root's level).
    A block is a stopping cube at lams[i] exactly when A <= i < e: its
    forward mean exceeds lams[i] and no ancestor's does.
    """
    A = np.zeros((1,) * f.n, dtype=np.int16)
    for k in range(root.level, f.L + 1):
        fwd = f.block_sums(k)[root_box(root, k, time_shift=1)]
        e = exceed_ranks(fwd, block_count(f, k), f.denom, lams)
        yield k, A, e
        if k < f.L:
            A = upsample(np.maximum(A, e))


def cz_decompose(f: GridFunction, root: DyadicCube | None, lam) -> Decomposition:
    """Maximal dyadic subcubes of root with mean(f over Q+) > lam (strict).

    :func:`stopping_ranks` at one threshold: a level-k cube is emitted when
    its forward mean exceeds lam and no ancestor's does.  Requires f >= 0
    on root ∪ root+.  Exact comparisons in fixed mode.
    """
    root = resolve_root(f, root)
    _require_nonneg(f, root)
    lam_n = f.scalar(lam)
    masks = [(k, e > A) for k, A, e in stopping_ranks(f, root, [lam_n])]
    levels = [(k, np.argwhere(emit) + box_origin(root, k)) for k, emit in masks]
    return Decomposition(root, lam_n, levels, select_subfamily(masks))


def select_subfamily(masks: list[tuple[int, np.ndarray]]) -> dict[int, list[int]]:
    """The stopping cubes whose forward translates are maximal, each with the cubes it covers.

    ``masks`` holds the per-level stopping masks of a root, coarse to fine,
    as :func:`cz_decompose` reads them; cubes are numbered level by level
    in index order.  The translate of block t is block t+1, inside a box of
    twice the root's time extent.  A top-down sweep over that box keeps
    per block the position of the kept translate covering it; a translate
    that none covers is kept and owns itself (aligned boxes are nested or
    disjoint).  Positions run coarse to fine, so an owner comes before the
    cubes it covers and one pass gives ``groups`` its keys and members ascending.
    """
    groups: dict[int, list[int]] = {}
    owner = None
    start = 0
    for _, emit in masks:
        T = emit.shape[-1]
        if owner is None:
            owner = np.full(emit.shape[:-1] + (2 * T,), -1, dtype=np.intp)
        else:
            owner = upsample(owner)
        fwd = owner[..., 1 : T + 1]
        got = fwd[emit]
        free = got < 0
        got[free] = np.arange(start, start + len(got))[free]
        fwd[emit] = got
        for i, j in enumerate(got.tolist(), start):
            groups.setdefault(j, []).append(i)
        start += len(got)
    return groups


def _forward_sums(f: GridFunction, k: int, rows: np.ndarray, steps: int) -> np.ndarray:
    """Block sums over the ``steps``-forward translates of the level-k cubes at index rows."""
    *space, t = rows.T
    return f.block_sums(k)[(*space, t + steps)]


def check_p1(f: GridFunction, dec: Decomposition) -> VerificationReport:
    """Stopping condition sharpness and the superlevel tiling, cellwise.

    Asserts for each stopping cube: mean(f over Q_j+) > lam strictly and
    the parent (when one exists inside ``dec.root``) fails the condition;
    then that the union of the stopping cubes equals {M f > lam} cell
    for cell (grid variant).  Exact in fixed mode.
    """
    root, lam = dec.root, dec.threshold
    strict_ok = parent_ok = True
    mask = np.zeros((1,) * f.n, dtype=bool)  # the cubes' union over the root box
    for k, rows in dec.levels:
        fwd = _forward_sums(f, k, rows, 1)
        strict_ok &= bool(exceeds(fwd, block_count(f, k), f.denom, lam).all())
        if k > root.level:
            fwd = _forward_sums(f, k - 1, rows >> 1, 1)  # the parents' translates
            parent_ok &= not exceeds(fwd, block_count(f, k - 1), f.denom, lam).any()
            mask = upsample(mask)
        mask[tuple((rows - box_origin(root, k)).T)] = True
    field = maximal_function(f, root, "grid")
    identity_ok = bool(np.array_equal(field.superlevel_mask(lam), mask))
    passed = strict_ok and parent_ok and identity_ok
    return VerificationReport(
        inequality_id="p1",
        lhs=float(dec.total_volume()),
        rhs=float(field.superlevel_measure(lam)),
        admissible=True,
        passed=passed,
        exact=f.is_fixed,
        details={
            "threshold": lam,
            "stopping-count": len(dec.stopping),
            "strict-at-stopping": strict_ok,
            "parent-fails": parent_ok,
            "superlevel-identity": identity_ok,
        },
    )


def check_p2(f: GridFunction, dec: Decomposition) -> VerificationReport:
    """Two-step forward means of stopping cubes stay below 2^n * threshold.

    Admissible exactly when the threshold is at least the forward mean of
    ``dec.root`` (equivalently, the root itself is not a stopping cube); an
    inadmissible call flags and asserts nothing.  A threshold without a
    float raises InvalidParamsError (:meth:`GridFunction.threshold`).
    """
    lam = f.threshold(dec.threshold)
    root_fwd_avg = average(f, forward(dec.root))
    admissible = not (root_fwd_avg > lam)
    bound = lam * (1 << f.n)
    worst = None
    worst_cube = None
    if admissible:
        # the largest mean of each level, the first cube attaining it in list order
        for k, rows in dec.levels:
            if not len(rows):
                continue
            sums = _forward_sums(f, k, rows, 2)
            i = int(np.argmax(sums))
            v = f.ratio(sums[i], block_count(f, k))
            if worst is None or v > worst:
                *space, t = rows[i].tolist()
                worst, worst_cube = v, DyadicCube(k, tuple(space), t)
    passed = worst is None or not (worst > bound)
    lhs = worst if worst is not None else f.scalar(0)
    return VerificationReport(
        inequality_id="p2",
        lhs=_float_view(lhs),
        rhs=_float_view(bound),
        admissible=admissible,
        passed=passed,
        exact=f.is_fixed,
        lhs_exact=str(lhs) if f.is_fixed else None,
        rhs_exact=str(bound) if f.is_fixed else None,
        details={
            "threshold": lam,
            "root-forward-mean": root_fwd_avg,
            "stopping-count": len(dec.stopping),
            "worst-cube": worst_cube,
        },
    )


def weak_type_check(f: GridFunction, root: DyadicCube | None, lam) -> VerificationReport:
    """Weak-type bound for the forward maximal operator at level lam > 0.

    Asserts, in order: the superlevel set of the grid variant tiles into
    the stopping cubes (exact identity); sum |Q_j| <= 2 * sum |sel Q_j+|
    over the maximal subfamily; and that this is at most (2/lam) times
    the integral of f over root ∪ root+.  The augmented variant's
    observed constant is reported, never asserted.  lam is lifted by
    :meth:`GridFunction.threshold`.
    """
    root = resolve_root(f, root)
    _require_nonneg(f, root)
    lam_n = f.threshold(lam)
    if not (lam_n > 0):
        raise InvalidParamsError("weak-type threshold must be positive")
    dec = cz_decompose(f, root, lam_n)
    sum_qj = dec.total_volume()
    sum_sel = dec.subfamily_volume()

    field_grid = maximal_function(f, root, "grid")
    measure_grid = field_grid.superlevel_measure(lam_n)
    identity_ok = measure_grid == sum_qj

    integral = f.ratio(union_sum(f, root), 1 << (f.L * f.n))
    rhs = 2 * integral / lam_n
    # the volumes are exact in both modes; a Fraction compares exactly with a float
    link1 = sum_qj <= 2 * sum_sel
    link2 = 2 * sum_sel <= rhs
    passed = identity_ok and link1 and link2

    field_aug = maximal_function(f, root, "augmented")
    measure_aug = field_aug.superlevel_measure(lam_n)
    if integral > 0:
        observed_aug = float(measure_aug) * float(lam_n) / _float_view(integral)
    else:
        observed_aug = 0.0

    return VerificationReport(
        inequality_id="p3",
        lhs=float(sum_qj),
        rhs=_float_view(rhs),
        admissible=True,
        passed=passed,
        exact=f.is_fixed,
        lhs_exact=str(sum_qj) if f.is_fixed else None,
        rhs_exact=str(rhs) if f.is_fixed else None,
        details={
            "threshold": lam_n,
            "superlevel-measure-grid": measure_grid,
            "superlevel-identity": identity_ok,
            "stopping-volume": sum_qj,
            "subfamily-forward-volume": sum_sel,
            "intermediate": 2 * sum_sel,
            "intermediate-holds": link1,
            "integral": integral,
            "final-holds": link2,
            "superlevel-measure-augmented": measure_aug,
            "observed-constant-augmented": observed_aug,
        },
    )
