"""Oscillation seminorms over families of dyadic subcubes.

Per-cube weights, for a dyadic cube Q of the unit cube with forward
translates Q+ and Q++:

    phi_plus(Q)      = |Q| * ( mean over Q ∪ Q+ of (f - mean(f over Q++))^+ )^p
    phi_classical(Q) = |Q| * ( mean over Q of |f - mean(f over Q)| )^p

The two family functionals take suprema of summed weights over families
of pairwise non-overlapping dyadic subcubes of the root:

    jnp_plus_dyadic      sup of sum of phi_plus over such families
    jnp_classical_dyadic sup of sum of phi_classical over such families

(the results report the p-th root).  Because the weights are nonnegative
and dyadic cubes nest, the supremum over families equals the maximum
over antichains of the subcube tree, which a bottom-up pass computes
exactly: best(Q) = max(phi(Q), sum of best over children), ties resolved
toward the children so the extracted witness is a full partition.  The
witness comes out of a top-down covering sweep as one index array per
level, with the chosen cubes' raw weights.

Every result here holds its witness in one form, the row views of
:mod:`jnplus.reports`: the cubes per level as index rows
(:class:`~jnplus.reports.CubeRows`) and their weights as raw values over
one denominator (:class:`~jnplus.reports.RatioRows`).  The report writes
them without a per-cube object; a caller that wants ``DyadicCube`` and
weight lists calls ``expand()``.

The weights are read only inside the root, which lies in Q0, so the
block reductions cover Q0 and the one time block after it.

Two cube-wise suprema with no exponent:

    bmo_plus_dyadic      sup over Q of mean over Q of (f - mean(f over Q+))^+
    bmo_plus_limit_form  sup over Q of mean over Q ∪ Q+ of (f - mean(f over Q++))^+

``antichain_oracle`` recomputes the jnp_plus objective by enumerating
every antichain explicitly with per-cube weights from the cell-iteration
route — an independent cross-check for the batched pass, feasible only
on tiny grids.

In fixed mode with integer p everything here is exact integer
arithmetic: at level k the weight numerators sit on the common
denominators (2*denom)^p * 2^{2Lnp} (plus) and denom^p * 2^{2Lnp}
(classical), with numerators T^p * 2^{kn(2p-1)} where T is the clamped
(resp. absolute) deviation sum of the level-k block engine.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

import numpy as np

from ._blocks import (
    _shift_time,
    absdev_sums,
    block_count,
    box_origin,
    children_sum,
    covering_sweep,
    root_box,
)
from .cubes import DyadicCube, children, contains, forward, volume, volume_sum
from .errors import InstanceTooLargeError, InvalidExponentError, InvalidParamsError
from .grid import GridFunction, average, pos_part_average, resolve_root
from .reports import CubeRows, RatioRows

__all__ = [
    "CubeFamily",
    "SeminormResult",
    "phi_plus",
    "phi_classical",
    "jnp_plus_dyadic",
    "jnp_classical_dyadic",
    "bmo_plus_dyadic",
    "bmo_plus_limit_form",
    "antichain_oracle",
]


def _norm_exponent(p) -> tuple[Fraction, int | None]:
    """Validate p > 1; return (p as Fraction, integer value or None)."""
    try:
        q = Fraction(p)
    except (TypeError, ValueError) as exc:
        raise InvalidExponentError(f"exponent {p!r} is not a number") from exc
    if q <= 1:
        raise InvalidExponentError(f"exponent must be > 1, got {p!r}")
    return q, (q.numerator if q.denominator == 1 else None)


def _pth_root(power, p: Fraction) -> float:
    """float(power) ** (1/p), surviving powers outside the float range."""
    try:
        base = float(power)
    except OverflowError:
        ln = math.log(power.numerator) - math.log(power.denominator)
        return math.exp(ln / float(p))
    return base ** (1.0 / float(p))


def phi_plus(f: GridFunction, cube: DyadicCube, p):
    """|Q| * (mean over Q ∪ Q+ of (f - mean(f over Q++))^+)^p, one cube.

    Exact Fraction for fixed mode with integer p, float otherwise.
    Cell-by-cell route, independent of the block engine.
    """
    q, p_int = _norm_exponent(p)
    ppa = pos_part_average(f, "union", cube, forward(cube, 2))
    if f.is_fixed and p_int is not None:
        return volume(cube) * ppa**p_int
    return float(volume(cube)) * float(ppa) ** float(q)


def phi_classical(f: GridFunction, cube: DyadicCube, p):
    """|Q| * (mean over Q of |f - mean(f over Q)|)^p, one cube."""
    q, p_int = _norm_exponent(p)
    avg = average(f, cube)
    region = f.region(cube)
    cells = region.size
    if f.is_fixed:
        an, ad = avg.numerator, avg.denominator
        d = f.denom
        total = sum(abs(a * ad - an * d) for a in region.ravel().tolist())
        dev = Fraction(total, cells * d * ad)
        if p_int is not None:
            return volume(cube) * dev**p_int
        return float(volume(cube)) * float(dev) ** float(q)
    dev = float(np.abs(region - avg).sum()) / cells
    return float(volume(cube)) * dev ** float(q)


@dataclass
class CubeFamily:
    """A family of dyadic subcubes meant to be pairwise non-overlapping."""

    cubes: list[DyadicCube]

    def validate(self) -> None:
        """Raise unless the cubes are pairwise non-overlapping.

        Aligned dyadic cubes overlap only by nesting, so it suffices to
        check that no cube has another family member as an ancestor —
        one shifted-index lookup per (cube, coarser level) pair.
        """
        by_level: dict[int, set[tuple]] = {}
        for c in self.cubes:
            key = (c.spatial, c.time)
            seen = by_level.setdefault(c.level, set())
            if key in seen:
                raise InvalidParamsError(f"duplicate cube {c!r} in family")
            seen.add(key)
        for c in self.cubes:
            for lvl in by_level:
                if lvl >= c.level:
                    continue
                sh = c.level - lvl
                anc = (tuple(s >> sh for s in c.spatial), c.time >> sh)
                if anc in by_level[lvl]:
                    raise InvalidParamsError(
                        f"overlapping cubes in family: {c!r} has an ancestor present"
                    )

    def total_volume(self) -> Fraction:
        return volume_sum(self.cubes)

    def is_partition_of(self, root: DyadicCube) -> bool:
        """True when the family tiles ``root`` exactly."""
        self.validate()
        if not all(contains(root, c) for c in self.cubes):
            return False
        return self.total_volume() == volume(root)

    def weight(self, f: GridFunction, p, variant: str = "plus"):
        """Sum of per-cube weights (exact when the per-cube weights are)."""
        if variant == "plus":
            terms = [phi_plus(f, c, p) for c in self.cubes]
        elif variant == "classical":
            terms = [phi_classical(f, c, p) for c in self.cubes]
        else:
            raise InvalidParamsError(f"unknown weight variant {variant!r}")
        zero = Fraction(0) if terms and isinstance(terms[0], Fraction) else 0.0
        return sum(terms, zero)


@dataclass
class SeminormResult:
    """Outcome of a seminorm computation.

    ``weight`` is the optimized objective: the p-th power of the
    seminorm for the jnp functionals, the supremum itself for the bmo
    functionals.  ``value`` is always the seminorm as a float.
    ``witness`` attains ``weight`` (for the jnp functionals a full
    partition of the root; for the bmo functionals a single cube), with
    per-cube weights alongside in ``witness_weights``.  Both are row
    views, written by the report as they are; ``expand()`` turns them
    into a ``DyadicCube`` list and a list of Fractions (exact) or floats.
    """

    functional: str
    p: Fraction | None
    weight: Fraction | float
    value: float
    exact: bool
    mode: str
    root: DyadicCube
    witness: CubeRows = field(repr=False)
    witness_weights: RatioRows = field(repr=False)
    details: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "functional": self.functional,
            "p": self.p,
            "value": self.value,
            "weight": self.weight,
            "exact": self.exact,
            "mode": self.mode,
            "root": self.root,
            "witness": self.witness,
            "witness-weights": self.witness_weights,
            "details": self.details,
        }


def _tree_dp(
    phi: dict[int, np.ndarray], n: int
) -> tuple[object, list[tuple[int, np.ndarray, np.ndarray]]]:
    """Maximize the summed weight over antichains of the subcube tree.

    ``phi[k]`` holds the level-k weights over the root box, all on one
    common scale.  Returns the root optimum (same scale) and, per level,
    the witness cubes as an (m, n) index array over the root box with
    their raw weights.  Ties prefer the children, so the witness tiles
    the root.  The witness comes from a top-down covering sweep: a cube
    is chosen when its own weight beat its children's best (every leaf
    qualifies) and no ancestor was chosen.
    """
    ks = sorted(phi)
    take: dict[int, np.ndarray] = {ks[-1]: np.ones(phi[ks[-1]].shape, dtype=bool)}
    best = phi[ks[-1]]
    for k in reversed(ks[:-1]):
        child = children_sum(best, n)
        t = phi[k] > child
        take[k] = t
        best = np.where(t, phi[k], child)
    levels = []
    for k, chosen in zip(ks, covering_sweep((take[k] for k in ks), n)):
        levels.append((k, np.argwhere(chosen), phi[k][chosen]))
    return best[(0,) * n], levels


def _plus_numerators(f: GridFunction, k: int) -> np.ndarray:
    # per block Q: sum over Q ∪ Q+ of max(value*N - sum over Q++, 0)
    return f.clamped_sums(k, 2) + _shift_time(f.clamped_sums(k, 1), 1)


def _level_weights(
    f: GridFunction, root: DyadicCube, variant: str, q: Fraction, p_int: int | None
) -> dict[int, np.ndarray]:
    """Per level k of ``root``, the weights of its level-k subcubes.

    Exact integer numerators (object arrays) on the common denominator
    of the module docstring in fixed mode with integer p; floats
    otherwise.
    """
    exact = f.is_fixed and p_int is not None
    phi: dict[int, np.ndarray] = {}
    for k in range(root.level, f.L + 1):
        if variant == "plus":
            T = _plus_numerators(f, k)[root_box(root, k)]
            half = 2
        else:
            T = absdev_sums(f, k)[root_box(root, k)]
            half = 1
        if exact:
            # Python-int elements so powering cannot overflow
            phi[k] = T.astype(object) ** p_int * (1 << (k * f.n * (2 * p_int - 1)))
        else:
            N = block_count(f, k)
            scale = float(half * N * N * (f.denom if f.is_fixed else 1))
            phi[k] = (T.astype(np.float64) / scale) ** float(q) * 2.0 ** (-k * f.n)
    return phi


def _family_seminorm(f: GridFunction, p, root: DyadicCube | None, variant: str):
    root = resolve_root(f, root)
    q, p_int = _norm_exponent(p)
    exact = f.is_fixed and p_int is not None
    # the weight arrays die with this call; the witness keeps only its own cubes
    num, levels = _tree_dp(_level_weights(f, root, variant, q, p_int), f.n)
    if exact:
        base = (2 * f.denom) if variant == "plus" else f.denom
        D = base**p_int * (1 << (2 * f.L * f.n * p_int))
        power = Fraction(int(num), D)
        if sum(int(raw.sum()) for _, _, raw in levels) != int(num):
            raise AssertionError("witness weights do not add up to the optimum")
    else:
        power = float(num)
        D = None
    witness = CubeRows([(k, idx + box_origin(root, k)) for k, idx, _ in levels])
    functional = "jnp-plus" if variant == "plus" else "jnp-classical"
    value = _pth_root(power, q)
    return SeminormResult(
        functional=functional,
        p=q,
        weight=power,
        value=value,
        exact=exact,
        mode=f.mode,
        root=root,
        witness=witness,
        witness_weights=RatioRows([raw for _, _, raw in levels], D),
        details={"levels": f.L - root.level + 1, "witness-size": len(witness)},
    )


def jnp_plus_dyadic(f: GridFunction, p, root: DyadicCube | None = None) -> SeminormResult:
    """Forward-oscillation family seminorm; ``value`` is the p-th root.

    power_value = sup over non-overlapping dyadic families {Q_j} of
    sum |Q_j| * (mean over Q_j ∪ Q_j+ of (f - mean(f over Q_j++))^+)^p.
    """
    return _family_seminorm(f, p, root, "plus")


def jnp_classical_dyadic(
    f: GridFunction, p, root: DyadicCube | None = None
) -> SeminormResult:
    """Two-sided family seminorm: weights |Q|*(mean |f - f_Q| over Q)^p."""
    return _family_seminorm(f, p, root, "classical")


def _cube_sweep(f: GridFunction, root: DyadicCube | None, kind: str):
    """Shared sweep for the two cube-wise suprema."""
    root = resolve_root(f, root)
    val = None
    for k in range(root.level, f.L + 1):
        if kind == "bmo-plus":
            arr = f.clamped_sums(k, 1)[root_box(root, k)]
            half = 1
        else:
            arr = _plus_numerators(f, k)[root_box(root, k)]
            half = 2
        # a mean over half*N cells of entries on the scale N*denom
        N = block_count(f, k)
        raw = arr.max()
        top = f.ratio(raw, half * N * N)
        if val is None or top > val:
            val = top
            at = (k, np.argwhere(arr == raw)[:1] + box_origin(root, k))
    # the one weight as a raw value over its denominator, or the float itself
    num, D = (val.numerator, val.denominator) if f.is_fixed else (val, None)
    return SeminormResult(
        functional=kind,
        p=None,
        weight=val,
        value=float(val),
        exact=f.is_fixed,
        mode=f.mode,
        root=root,
        witness=CubeRows([at]),
        witness_weights=RatioRows([np.array([num], dtype=object)], D),
    )


def bmo_plus_dyadic(f: GridFunction, root: DyadicCube | None = None) -> SeminormResult:
    """sup over dyadic Q of the mean over Q of (f - mean(f over Q+))^+."""
    return _cube_sweep(f, root, "bmo-plus")


def bmo_plus_limit_form(f: GridFunction, root: DyadicCube | None = None) -> SeminormResult:
    """sup over dyadic Q of the mean over Q ∪ Q+ of (f - mean(f over Q++))^+.

    This is the large-p comparison point for jnp_plus_dyadic: as p grows,
    the p-th root of the family optimum approaches this supremum.
    """
    return _cube_sweep(f, root, "bmo-limit")


def _antichain_count(root: DyadicCube, L: int) -> int:
    if root.level == L:
        return 2  # {root} and the empty family
    prod = 1
    for c in children(root, L):
        prod *= _antichain_count(c, L)
    return 1 + prod


# the oracle's bounds on the subtree size and on the antichain count
ORACLE_MAX_CUBES = 64
ORACLE_MAX_ANTICHAINS = 1 << 20


def antichain_oracle(
    f: GridFunction,
    p,
    root: DyadicCube | None = None,
    functional: str = "jnp-plus",
) -> SeminormResult:
    """Brute-force family objective: enumerate every antichain.

    Weights come from :func:`phi_plus` / :func:`phi_classical` cell
    iteration, and every antichain of the subcube tree is generated
    through the recursion lists(Q) = [{Q}] + (one list entry per
    combination of child antichains, the all-empty combination giving
    the empty family).  Exact integer totals in fixed mode with integer
    p (weights are put on their lcm denominator), floats otherwise.

    The cube-count bound caps the tree size, not the running time; deep
    one-dimensional trees near the bound have astronomically many
    antichains, which the antichain bound refuses up front.
    """
    root = resolve_root(f, root)
    if functional == "jnp-plus":
        weigh = phi_plus
    elif functional == "jnp-classical":
        weigh = phi_classical
    else:
        raise InvalidParamsError(f"unknown functional {functional!r}")
    q, p_int = _norm_exponent(p)
    nodes: list[DyadicCube] = []
    level_nodes = [root]
    while True:
        nodes.extend(level_nodes)
        if level_nodes[0].level == f.L:
            break
        level_nodes = [c for par in level_nodes for c in children(par, f.L)]
    if len(nodes) > ORACLE_MAX_CUBES:
        raise InstanceTooLargeError(
            f"{len(nodes)} subtree cubes exceed the oracle bound {ORACLE_MAX_CUBES}"
        )
    count = _antichain_count(root, f.L)
    if count > ORACLE_MAX_ANTICHAINS:
        raise InstanceTooLargeError(
            f"{count} antichains exceed the enumeration bound {ORACLE_MAX_ANTICHAINS}"
        )

    raw = {c: weigh(f, c, p) for c in nodes}
    exact = f.is_fixed and p_int is not None
    if exact:
        den = lcm(*(w.denominator for w in raw.values()))
        wt = {c: w.numerator * (den // w.denominator) for c, w in raw.items()}
        zero: object = 0
    else:
        den = None
        wt = {c: float(w) for c, w in raw.items()}
        zero = 0.0

    def lists(c: DyadicCube) -> list[tuple[object, tuple[DyadicCube, ...]]]:
        # all antichains of the subtree at c (empty included), materialized
        out: list[tuple[object, tuple[DyadicCube, ...]]] = [(wt[c], (c,))]
        if c.level == f.L:
            out.append((zero, ()))
            return out
        for parts in itertools.product(*(lists(ch) for ch in children(c, f.L))):
            w = sum(q2[0] for q2 in parts)
            cs = tuple(itertools.chain.from_iterable(q2[1] for q2 in parts))
            out.append((w, cs))
        return out

    best_w: object = wt[root]
    best_cubes: tuple[DyadicCube, ...] = (root,)
    if root.level < f.L:
        kid_lists = [lists(c) for c in children(root, f.L)]
        kid_weights = [[w for w, _ in kl] for kl in kid_lists]
        sizes = [len(kl) for kl in kid_lists]
        totals = [zero]
        for ws in kid_weights:
            totals = [t + w for t in totals for w in ws]
        flat = max(range(len(totals)), key=totals.__getitem__)
        if totals[flat] > best_w:
            best_w = totals[flat]
            sel = []
            for size in reversed(sizes):
                sel.append(flat % size)
                flat //= size
            sel.reverse()
            best_cubes = tuple(
                itertools.chain.from_iterable(
                    kid_lists[i][j][1] for i, j in enumerate(sel)
                )
            )
    power = Fraction(best_w, den) if exact else float(best_w)
    witness = sorted(best_cubes, key=lambda c: (c.level, c.spatial, c.time))
    by_level = [list(cs) for _, cs in itertools.groupby(witness, key=lambda c: c.level)]
    return SeminormResult(
        functional=functional + "-oracle",
        p=q,
        weight=power,
        value=_pth_root(power, q),
        exact=exact,
        mode=f.mode,
        root=root,
        witness=CubeRows(
            [(cs[0].level, np.array([[*c.spatial, c.time] for c in cs])) for cs in by_level]
        ),
        witness_weights=RatioRows(
            [np.array([wt[c] for c in cs], dtype=object) for cs in by_level], den
        ),
        details={"antichains": count, "tree-cubes": len(nodes)},
    )
