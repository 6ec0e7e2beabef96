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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

import numpy as np

from ._blocks import block_count, block_cubes, covering_sweep, level_sums, root_box, upsample
from .cubes import DyadicCube, forward, parent, volume_sum
from .errors import InvalidParamsError, NegativeInputError
from .grid import GridFunction, average, exceeds, resolve_root, union_sum
from .reports import VerificationReport

__all__ = [
    "MaximalField",
    "Decomposition",
    "maximal_function",
    "positive_part_field",
    "stopping_levels",
    "cz_decompose",
    "select_subfamily",
    "rel_slices",
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
        return exceeds(self.values, 1, self.denom_scale, lam)

    def superlevel_count(self, lam) -> int:
        return int(self.superlevel_mask(lam).sum())

    def superlevel_measure(self, lam) -> Fraction:
        return Fraction(self.superlevel_count(lam), 1 << (self.L * self.n))

    def _value(self, v):
        return Fraction(int(v), self.denom_scale) if self.mode == "fixed" else float(v)

    def value_at(self, index: tuple[int, ...]):
        return self._value(self.values[index])

    def max_value(self):
        return self._value(self.values.max())

    def min_value(self):
        return self._value(self.values.min())


def _running_max(fwd: list[np.ndarray], n: int, fixed: bool) -> np.ndarray:
    """Top-down running maximum of forward means, one entry per level.

    ``fwd[j]`` holds the sums over the forward translates of the
    level-(r+j) subcubes of a level-r root, down to the leaf level.  At
    each level the means are joined with the maximum inherited from the
    ancestors.  Fixed mode returns numerators over 2^{(L-r)n} times the
    cell denominator; f64 mode returns the means.
    """
    depth = len(fwd) - 1
    running: np.ndarray | None = None
    for j, sums in enumerate(fwd):
        lvl = sums * (1 << (j * n)) if fixed else sums / (1 << ((depth - j) * n))
        running = lvl if running is None else np.maximum(upsample(running, n), lvl)
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
    running = _running_max(fwd, f.n, f.is_fixed)
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
    fwd = [s[..., 1 : s.shape[-1] // 2 + 1] for s in level_sums(h, f.n, f.L - r)]
    running = _running_max(fwd, f.n, f.is_fixed)
    scale = N * f.denom * (1 << ((f.L - r) * f.n)) if f.is_fixed else None
    running.setflags(write=False)
    return MaximalField(cube, "grid", f.n, f.L, f.mode, scale, running)


@dataclass
class Decomposition:
    """Stopping-time decomposition of ``root`` at ``threshold``.

    ``stopping`` lists the maximal dyadic subcubes whose forward mean
    exceeds the threshold (level ascending, index order within a level).
    ``subfamily`` indexes the cubes whose forward translates are maximal
    with respect to inclusion among all forward translates; ``groups``
    maps each subfamily index j to every index i whose forward translate
    lies inside that of j (j itself included).
    """

    root: DyadicCube
    threshold: Fraction | float
    stopping: list[DyadicCube]
    subfamily: list[int]
    groups: dict[int, list[int]]

    def total_volume(self) -> Fraction:
        return volume_sum(self.stopping)

    def subfamily_volume(self) -> Fraction:
        return volume_sum(self.stopping[j] for j in self.subfamily)

    def to_json_dict(self) -> dict:
        return {
            "root": self.root,
            "lambda": self.threshold,
            "stopping": self.stopping,
            "subfamily": self.subfamily,
            "groups": {j: sorted(ids) for j, ids in self.groups.items()},
            "total-volume": self.total_volume(),
        }


def _require_nonneg(f: GridFunction, root: DyadicCube) -> None:
    if f.values.min() >= 0:
        return
    if f.region(root).min() < 0 or f.region(forward(root)).min() < 0:
        raise NegativeInputError(
            "stopping-time decomposition requires f >= 0 on root and its forward translate"
        )


def stopping_levels(f: GridFunction, root: DyadicCube, lam) -> Iterator[tuple[int, np.ndarray]]:
    """Per level k of ``root``, the mask of its level-k stopping cubes.

    The mask covers the level-k blocks of the root box; a block is set
    when its forward mean exceeds lam (strict) and no ancestor is set.
    """
    def conds():
        for k in range(root.level, f.L + 1):
            fwd = f.block_sums(k)[root_box(root, k, time_shift=1)]
            yield exceeds(fwd, block_count(f, k), f.denom, lam)

    return zip(range(root.level, f.L + 1), covering_sweep(conds(), f.n))


def cz_decompose(f: GridFunction, root: DyadicCube | None, lam) -> Decomposition:
    """Maximal dyadic subcubes of root with mean(f over Q+) > lam (strict).

    Top-down sweep: a level-k cube is emitted when its forward mean
    exceeds lam and no ancestor was emitted.  Requires f >= 0 on
    root ∪ root+.  Exact comparisons in fixed mode.
    """
    root = resolve_root(f, root)
    _require_nonneg(f, root)
    lam_n = f.scalar(lam)
    stopping: list[DyadicCube] = []
    for k, emit in stopping_levels(f, root, lam_n):
        stopping += block_cubes(root, k, np.argwhere(emit))
    subfamily, groups = select_subfamily(stopping)
    return Decomposition(root, lam_n, stopping, subfamily, groups)


def select_subfamily(
    stopping: list[DyadicCube],
) -> tuple[list[int], dict[int, list[int]]]:
    """Indices whose forward translates are maximal, plus the grouping.

    Processes coarse levels first; a forward translate is owned by the
    unique kept translate containing it (aligned boxes never partially
    overlap, so corner lookup decides containment).  Input cubes must be
    pairwise non-overlapping — duplicate forward translates are rejected.
    """
    fwd = [forward(c) for c in stopping]
    order = sorted(range(len(stopping)), key=lambda i: (stopping[i].level, i))
    kept_by_level: dict[int, dict[tuple, int]] = {}
    subfamily: list[int] = []
    groups: dict[int, list[int]] = {}
    for i in order:
        F = fwd[i]
        owner = None
        for kl in sorted(kept_by_level):
            if kl > F.level:
                break
            sh = F.level - kl
            key = (tuple(s >> sh for s in F.spatial), F.time >> sh)
            j = kept_by_level[kl].get(key)
            if j is not None:
                if kl == F.level:
                    raise InvalidParamsError(
                        "duplicate forward translate: stopping cubes overlap"
                    )
                owner = j
                break
        if owner is None:
            subfamily.append(i)
            kept_by_level.setdefault(F.level, {})[(F.spatial, F.time)] = i
            groups[i] = [i]
        else:
            groups[owner].append(i)
    subfamily.sort()
    for ids in groups.values():
        ids.sort()
    return subfamily, groups


def rel_slices(f: GridFunction, root: DyadicCube, cube: DyadicCube) -> tuple[slice, ...]:
    """Leaf-cell slices of ``cube`` relative to the leaf box of ``root``."""
    gl = f.cube_slices(cube)
    base = f.cube_slices(root)
    return tuple(slice(g.start - b.start, g.stop - b.start) for g, b in zip(gl, base))


def check_p1(f: GridFunction, root: DyadicCube | None, dec: Decomposition) -> VerificationReport:
    """Stopping condition sharpness and the superlevel tiling, cellwise.

    Asserts for each stopping cube: mean(f over Q_j+) > lam strictly and
    the parent (when one exists inside root) fails the condition; then
    that the union of the stopping cubes equals {M f > lam} cell for
    cell (grid variant).  Exact in fixed mode.
    """
    root = resolve_root(f, root)
    lam = dec.threshold
    strict_ok = True
    parent_ok = True
    for c in dec.stopping:
        if not (average(f, forward(c)) > lam):
            strict_ok = False
        if c.level > root.level:
            par = parent(c)
            if average(f, forward(par)) > lam:
                parent_ok = False
    mask = np.zeros((1 << (f.L - root.level),) * f.n, dtype=bool)
    for c in dec.stopping:
        mask[rel_slices(f, root, c)] = True
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


def check_p2(f: GridFunction, root: DyadicCube | None, dec: Decomposition) -> VerificationReport:
    """Two-step forward means of stopping cubes stay below 2^n * threshold.

    Admissible exactly when the threshold is at least the forward mean of
    the root (equivalently, the root itself is not a stopping cube); an
    inadmissible call flags and asserts nothing.
    """
    root = resolve_root(f, root)
    lam = dec.threshold
    root_fwd_avg = average(f, forward(root))
    admissible = not (root_fwd_avg > lam)
    bound = lam * (1 << f.n)
    worst = None
    worst_cube = None
    passed = True
    if admissible:
        for c in dec.stopping:
            v = average(f, forward(c, 2))
            if worst is None or v > worst:
                worst, worst_cube = v, c
            if v > bound:
                passed = False
    lhs = worst if worst is not None else f.scalar(0)
    return VerificationReport(
        inequality_id="p2",
        lhs=float(lhs),
        rhs=float(bound),
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
    observed constant is reported, never asserted.
    """
    root = resolve_root(f, root)
    _require_nonneg(f, root)
    lam_n = f.scalar(lam)
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
        observed_aug = float(measure_aug) * float(lam_n) / float(integral)
    else:
        observed_aug = 0.0

    return VerificationReport(
        inequality_id="p3",
        lhs=float(sum_qj),
        rhs=float(rhs),
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
