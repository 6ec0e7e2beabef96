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

Every result holds its witness as two :class:`~jnplus.reports.Rows`
of one length: the cubes as level, spatial and time columns
(:func:`~jnplus.reports.cube_rows`) and their weights as raw values
over one denominator (:class:`~jnplus.reports.Ratios`), or as floats.
Both are joined from the sweep's per-level arrays when first read (a
verify run reads only K).  The report writes them without a per-cube
object; a caller that wants ``DyadicCube`` and weight lists calls
``expand()``.

The weights are read only inside the root, which lies in Q0, so the
block reductions cover Q0 and the one time block after it.

Two cube-wise suprema with no exponent:

    bmo_plus_dyadic      sup over Q of mean over Q of (f - mean(f over Q+))^+
    bmo_plus_limit_form  sup over Q of mean over Q ∪ Q+ of (f - mean(f over Q++))^+

``antichain_oracle`` recomputes the jnp_plus objective by enumerating
every antichain explicitly with per-cube weights from the cell-iteration
route — an independent cross-check for the batched pass, feasible only
on tiny grids.

In fixed mode with integer p (at most 1024, :func:`_exact_power`)
everything here is exact integer arithmetic: at level k the weight numerators sit on the common
denominators (2*denom)^p * 2^{2Lnp} (plus) and denom^p * 2^{2Lnp}
(classical), with numerators T^p * 2^{k*g}, g = n(2p-1), where T is the
clamped (resp. absolute) deviation sum of the level-k block engine.

The tree pass runs on the normalised numerators T^p: it keeps
b_k = best_k / 2^{k*g}, so b_k = max(T^p, 2^g * sum of the children's
b_{k+1}), each comparison divided on both sides by one power of two.
Each level is int64 while its bound B_k = max(max T^p,
2^{n+g} * B_{k+1}, 2^g) fits (:func:`jnplus.grid.exact`), and Python
ints past that, as is every coarser level (:func:`_level_weights`).
The optimum is multiplied back by 2^{root.level*g} and the witness
weights by 2^{k*g} when first read.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from math import lcm

import numpy as np

from ._blocks import (
    _shift_time,
    absdev_sums,
    block_count,
    box_origin,
    children_sum,
    root_box,
    upsample,
)
from .cubes import DyadicCube, children, forward, volume
from .errors import InstanceTooLargeError, InvalidExponentError, InvalidParamsError
from .grid import GridFunction, _float_array, _float_view, _number_name, average, exact, int64_fits
from .grid import pos_part_average, resolve_root
from .reports import Ratios, Rows, Slot, _Columns, cube_rows

__all__ = [
    "SeminormResult",
    "phi_plus",
    "phi_classical",
    "jnp_plus_dyadic",
    "jnp_classical_dyadic",
    "bmo_plus_dyadic",
    "bmo_plus_limit_form",
    "antichain_oracle",
]


_MAX_EXACT_P = 1 << 10


def _norm_exponent(p) -> tuple[Fraction, int | None]:
    """Validate 1 < p < inf as floats read it; return (p as Fraction, integer value or None)."""
    try:
        q = Fraction(p)
    except (TypeError, ValueError) as exc:
        raise InvalidExponentError(f"exponent {p!r} is not a number") from exc
    if q <= 1:
        raise InvalidExponentError(f"exponent must be > 1, got {_number_name(q)}")
    if math.isinf(_float_view(q)):  # every path reads float(p)
        raise InvalidExponentError(f"exponent {_number_name(q)} lies outside the float range")
    return q, (q.numerator if q.denominator == 1 else None)


def _exact_power(f: GridFunction, p_int: int | None) -> bool:
    """Whether f's weights are raised to p exactly: on a fixed grid at an integer
    p, as every exact power is (the weights, ``phi_*``, and the decay step's and
    p11's comparisons, exact only when K is).  A power's digits grow with p
    whatever the weights, so p above ``_MAX_EXACT_P`` = 1024 is refused there
    (InvalidExponentError); an f64 grid or a non-integer p takes floats."""
    if not (f.is_fixed and p_int is not None):
        return False
    if p_int > _MAX_EXACT_P:
        raise InvalidExponentError(
            f"exponent {_number_name(p_int)} exceeds {_MAX_EXACT_P}, the largest integer p "
            "that a fixed grid's weights are raised to exactly"
        )
    return True


def _pth_root(power, p: Fraction) -> float:
    """float(power) ** (1/p), surviving powers outside the float range: inf
    where the root lies past it too."""
    try:
        base = float(power)
    except OverflowError:
        ln = math.log(power.numerator) - math.log(power.denominator)
        try:
            return math.exp(ln / float(p))
        except OverflowError:
            return math.inf
    return base ** (1.0 / float(p))


def _float_pow(base, q: Fraction) -> float:
    """float(base) ** float(q), and inf where the power passes the float range."""
    try:
        return float(base) ** float(q)
    except OverflowError:
        return math.inf


def phi_plus(f: GridFunction, cube: DyadicCube, p):
    """|Q| * (mean over Q ∪ Q+ of (f - mean(f over Q++))^+)^p, one cube.

    Exact Fraction for fixed mode with integer p, float otherwise.
    Cell-by-cell route, independent of the block engine.
    """
    q, p_int = _norm_exponent(p)
    ppa = pos_part_average(f, cube, forward(cube, 2))
    if _exact_power(f, p_int):
        return volume(cube) * ppa**p_int
    return float(volume(cube)) * _float_pow(ppa, q)


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
        if _exact_power(f, p_int):
            return volume(cube) * dev**p_int
        return float(volume(cube)) * _float_pow(dev, q)
    dev = float(np.abs(region - avg).sum()) / cells
    return float(volume(cube)) * _float_pow(dev, q)


@dataclass
class SeminormResult:
    """Outcome of a seminorm computation.

    ``weight`` is the optimized objective: the p-th power of the
    seminorm for the jnp functionals, the supremum itself for the bmo
    functionals (``p`` None).  ``value``, the seminorm as a float, and
    ``exact``, whether ``weight`` is a Fraction, are read from it.
    ``witness`` attains ``weight`` (for the jnp functionals a full
    partition of the root; for the bmo functionals a single cube), with
    per-cube weights alongside in ``witness_weights``.  Both are
    :class:`~jnplus.reports.Rows`, written by the report as they are;
    ``expand()`` turns them into a ``DyadicCube`` list and a list of
    Fractions (exact) or floats.
    """

    functional: str
    p: Fraction | None
    weight: Fraction | float
    mode: str
    root: DyadicCube
    witness: Rows = field(repr=False)
    witness_weights: Rows = field(repr=False)
    details: dict = field(default_factory=dict)

    @cached_property
    def value(self) -> float:
        return _float_view(self.weight) if self.p is None else _pth_root(self.weight, self.p)

    @property
    def exact(self) -> bool:
        return isinstance(self.weight, Fraction)

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


def _weight_rows(parts: list, D: int | None) -> Rows:
    """A witness's weights, the rationals raw/D or the floats raw when D is
    None, given in parts: (raws, s) pairs, each entry standing for raw * 2^s
    (lists, or arrays of Python ints, int64 or floats; s = 0 for floats).
    They are joined into one column when first read, exact ones as Python
    ints."""

    def columns() -> dict:
        raws = [raw if D is None else np.asarray(raw, dtype=object) << s for raw, s in parts]
        raws = raws[0] if len(raws) == 1 else np.concatenate(raws)
        return {"weight": raws if D is None else Ratios(raws, D)}

    return Rows(_WEIGHT, _Columns(columns), range(sum(len(raw) for raw, _ in parts)))


_WEIGHT = Slot("weight")


def _tree_dp(
    phi: dict[int, np.ndarray], g: int
) -> tuple[object, list[tuple[int, np.ndarray, np.ndarray]]]:
    """Maximize the summed weight over antichains of the subcube tree.

    ``phi[k]`` holds the level-k weights over the root box, each divided
    by 2^{k*g} (:func:`_level_weights`; g = 0 for floats).  The pass
    keeps best(Q) / 2^{k*g} for the level-k cubes Q,

        b_k = max(phi[k], 2^g * sum of b_{k+1} over the children),

    which divides both sides of every comparison by one power of two, so
    every decision and tie is that of the weights themselves.  The
    children's sums are cast to the parent level's dtype (int64, or Python
    ints from some level up, as :func:`_level_weights` picks).  Returns the
    root's b and, per level, the witness cubes as an (m, n) index array
    over the root box with their phi entries.  Ties prefer the children,
    so the witness tiles the root.  The witness comes from a top-down
    covering sweep: a cube is chosen when its own weight beat its
    children's best (every leaf qualifies) and no ancestor was chosen.
    """
    ks = sorted(phi)
    take: dict[int, np.ndarray] = {ks[-1]: np.ones(phi[ks[-1]].shape, dtype=bool)}
    best = phi[ks[-1]]
    for k in reversed(ks[:-1]):
        child = children_sum(best.astype(phi[k].dtype, copy=False))
        if g:
            child <<= g
        t = phi[k] > child
        take[k] = t
        best = np.where(t, phi[k], child)
    levels = []
    covered = np.zeros(best.shape, dtype=bool)  # the blocks under a chosen ancestor
    for k in ks:
        chosen = take[k] & ~covered
        levels.append((k, np.argwhere(chosen), phi[k][chosen]))
        if k < ks[-1]:
            covered = upsample(covered | chosen)
    return best[(0,) * best.ndim], levels


def _exact_total(raw: np.ndarray) -> int:
    """The exact sum of nonnegative integers: Python ints as they are.
    int64 ones (each below 2^62) sum in int64 where their count times their
    largest fits, else as two sums of their 31-bit halves, each below 2^63
    for fewer than 2^32 entries; the guard spares small levels those passes."""
    if raw.dtype == object or int64_fits(len(raw) * int(raw.max(initial=0))):
        return int(raw.sum())
    return (int((raw >> 31).sum()) << 31) + int((raw & 0x7FFFFFFF).sum())


def _plus_numerators(f: GridFunction, k: int) -> np.ndarray:
    # per block Q: sum over Q ∪ Q+ of max(value*N - sum over Q++, 0)
    return f.clamped_sums(k, 2) + _shift_time(f.clamped_sums(k, 1), 1)


def _level_weights(
    f: GridFunction, root: DyadicCube, variant: str, q: Fraction, p_int: int | None
) -> tuple[dict[int, np.ndarray], int]:
    """Per level k of ``root``, the weights of its level-k subcubes divided
    by 2^{k*g}, and g.

    In fixed mode with integer p these are the numerators T^p of the module
    docstring, g = n(2p-1).  Level k holds int64 when its bound

        B_k = max(max T^p, 2^{n+g} * B_{k+1}, 2^g)

    fits (:func:`jnplus.grid.exact`): it covers b_k of :func:`_tree_dp`,
    the children's sum and the factor 2^g itself.  Past that it holds
    Python ints, and so does every coarser level.  Otherwise the weights
    are floats and g = 0.  A float weight divides the block sum by its
    scale half*N^2*denom; where that scale has no float, each quotient is
    taken exactly and rounded once (inf past the float range).
    """
    g = f.n * (2 * p_int - 1) if f.is_fixed and p_int is not None else 0
    phi: dict[int, np.ndarray] = {}
    bound = 0  # B_{k+1}, the finer level's
    for k in range(f.L, root.level - 1, -1):
        if variant == "plus":
            T = _plus_numerators(f, k)[root_box(root, k)]
            half = 2
        else:
            T = absdev_sums(f, k)[root_box(root, k)]
            half = 1
        if g:
            if int64_fits(bound):  # past 2^62 it only grows
                bound = max(int(T.max()) ** p_int, bound << (f.n + g), 1 << g)
            phi[k] = exact(T, bound) ** p_int
        else:
            N = block_count(f, k)
            scale = half * N * N * (f.denom if f.is_fixed else 1)
            try:
                ratio = _float_array(T) / float(scale)
            except OverflowError:  # no float scale: each quotient exact, rounded once
                ratio = np.array([_float_view(Fraction(t, scale)) for t in T.ravel().tolist()])
                ratio = ratio.reshape(T.shape)
            with np.errstate(over="ignore"):  # a power past the float range is inf
                phi[k] = ratio ** float(q) * 2.0 ** (-k * f.n)
    return phi, g


def _family_seminorm(f: GridFunction, p, root: DyadicCube | None, variant: str):
    root = resolve_root(f, root)
    q, p_int = _norm_exponent(p)
    exact_p = _exact_power(f, p_int)
    # the weight arrays die with this call; the witness keeps only its own cubes
    phi, g = _level_weights(f, root, variant, q, p_int)
    num, levels = _tree_dp(phi, g)
    if exact_p:
        base = (2 * f.denom) if variant == "plus" else f.denom
        D = base**p_int * (1 << (2 * f.L * f.n * p_int))
        num = int(num) << (root.level * g)
        power = Fraction(num, D)
        if sum(_exact_total(raw) << (k * g) for k, _, raw in levels) != num:
            raise AssertionError("witness weights do not add up to the optimum")
    else:
        power = float(num)
        D = None
    witness = cube_rows([(k, idx + box_origin(root, k)) for k, idx, _ in levels])
    return SeminormResult(
        functional="jnp-plus" if variant == "plus" else "jnp-classical",
        p=q,
        weight=power,
        mode=f.mode,
        root=root,
        witness=witness,
        witness_weights=_weight_rows([(raw, k * g) for k, _, raw in levels], D),
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
        mode=f.mode,
        root=root,
        witness=cube_rows([at]),
        witness_weights=_weight_rows([([num], 0)], D),
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
    exact = _exact_power(f, p_int)
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
        mode=f.mode,
        root=root,
        witness=cube_rows(
            [(cs[0].level, np.array([[*c.spatial, c.time] for c in cs])) for cs in by_level]
        ),
        witness_weights=_weight_rows([([wt[c] for c in witness], 0)], den),
        details={"antichains": count, "tree-cubes": len(nodes)},
    )
