"""End-to-end checks of the superlevel-decay chain.

Everything below works with g = (f - mean(f over root++))^+ and the
grid maximal field M of g over the root, writing

    E(lam) = {x in root : M g(x) > lam},

and with the family seminorm K = jnp_plus_dyadic(f, p, root).value.

``LemmaContext(f, p, b, root=None)`` builds these once per tuple
(f, p, b, root), the field on first read.  Every check below takes the
context, so a sweep over many lam recomputes none of it.

* ``good_lambda_check(ctx, lam)`` — the decay step, which is
  ``lemma_sweep(ctx, [lam])[0]``: for admissible lam
  (meaning b*lam >= mean of g over root+),

      |E(lam)| <= (a*K/lam) * |E(b*lam)|^{1/q},

  with a = 4/(1 - 2^n b) and q = p/(p-1), plus two cellwise facts about
  the stopping cubes {Q_j} of g at threshold b*lam: E(lam) splits as the
  disjoint union of the per-cube sets {x in Q_j : M_{Q_j} g(x) > lam}
  ("p6"), and each of those sets lies inside
  {M_{Q_j} g_j > (1-2^n b)*lam} where g_j = (f - mean(f over Q_j++))^+
  ("p8").

* ``lemma_sweep(ctx, lambdas=None)`` — the decay step at every lam of
  ``default_lambda_grid(ctx)`` (or of the given list), decided for the
  whole list at once on rank intervals.  ``grid.exceed_ranks`` ranks
  each cell against the ascending lams and ``maximal.stopping_ranks``,
  the one stopping rule, each block against the b*lams, so each
  stopping cube, each cell of E(lam) and each p6/p8 failure holds on one
  interval of lam indices, and the two local fields of a visited
  stopping cube are built once per sweep.  The reports come as one
  :class:`jnplus.reports.Rows`: per-lam columns (the lams as their
  Thresholds, counts over the cells as Ratios, flags, floats) and a
  form holding what every report shares.  Indexing it builds a lam's
  :class:`VerificationReport`.

* ``proof_constant(n, p, b)`` — the explicit constant C(n,p,b) produced by
  iterating the decay step down the ladder lam, b*lam, b^2*lam, ...,
  combined with the trivial bound (2/b)^p for small lam.

* ``theorem_check(ctx, lambdas=None)`` — for a grid of lam values: asserts
  lam^p * |E(lam)| <= C * K^p ("p9"), the single-cube consequence
  (1/|root|) * integral of g over root ∪ root+ <= 2K/|root|^{1/p}
  ("p11"), and the constructional domination of the plain distribution
  set by the augmented maximal variant; records empirical constants for
  both variants.  It counts |E(lam)|, the augmented measure and the
  distribution measure of every lam in one pass over each array
  (``grid.exceed_ranks`` on the ascending list of ``_lambda_list``).
  Its records come as one :class:`jnplus.reports.Rows` of the same
  kinds of columns, whose items are the record dicts.

Measures are exact rationals in fixed mode.  The final inequality of
the lemma and the theorem bound involve p-th roots and the iterated
constant, so those comparisons run either exactly on p-th powers
(fixed mode, rational p) or in floating point at 1e-9 relative
tolerance; the report's ``exact`` flag says which.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from ._blocks import block_reduce, blocked, box_origin, cubes_at
from .cubes import DyadicCube, forward, volume
from .errors import InvalidParamsError
from .grid import (
    GridFunction,
    Thresholds,
    _float_view,
    _in_float_range,
    _number_name,
    average,
    counts_above,
    exceed_ranks,
    offset_positive_part,
    resolve_root,
    union_sum,
)
from .maximal import MaximalField, maximal_function, positive_part_field, stopping_ranks
from .reports import Ratios, Rows, Slot, VerificationReport, _rational
from .seminorms import SeminormResult, jnp_plus_dyadic, _float_pow, _norm_exponent

__all__ = [
    "LemmaParams",
    "lemma_params",
    "LemmaContext",
    "good_lambda_check",
    "lemma_sweep",
    "proof_constant",
    "default_lambda_grid",
    "TheoremRun",
    "theorem_check",
]

_REL_TOL = 1e-9
# default_lambda_grid: log-spaced values, then ladder points b^{-k} lambda0
_GRID_COUNT = 64
_LADDER = 8
# proof_constant's running max stops once successive terms agree to this
_SERIES_TOL = 1e-12
_SERIES_MAX_TERMS = 100000


@dataclass(frozen=True)
class LemmaParams:
    """Exponents and constants of the decay step."""

    n: int
    p: Fraction
    b: Fraction

    @cached_property
    def q(self) -> Fraction:
        return self.p / (self.p - 1)

    @cached_property
    def a(self) -> Fraction:
        return 4 / (1 - (1 << self.n) * self.b)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "p": self.p,
            "q": self.q,
            "b": self.b,
            "a": self.a,
        }


def lemma_params(n: int, p, b) -> LemmaParams:
    """Validate p > 1 and 0 < b < 2^{-n}, with a nonzero float for b."""
    pF, _ = _norm_exponent(p)
    try:
        bF = Fraction(b)
    except (TypeError, ValueError) as exc:
        raise InvalidParamsError(f"b {b!r} is not a number") from exc
    if not (0 < bF < Fraction(1, 1 << n)):
        raise InvalidParamsError(f"b must lie in (0, 2^-{n}), got {_number_name(bF)}")
    try:  # lam0 and the proof constant divide by float(b)
        _in_float_range(bF, Fraction)
    except InvalidParamsError:
        raise InvalidParamsError("b lies outside the float range: its float is 0") from None
    return LemmaParams(int(n), pF, bF)


class LemmaContext:
    """What every lambda of a sweep over (f, p, b, root) shares.

    Built once per sweep: the validated ``params``, the resolved
    ``root``, the seminorm K (``seminorm``), g = (f - mean(f over
    root++))^+ and the ladder base ``lam0`` = 2K / (b * |root|^{1/p}).
    g's grid maximal ``field`` over the root and g's mean over root+
    (``g_fwd_avg``) are built on first read, since a caller that only
    wants the lambda grid reads neither.  The two lambda-free fields of
    a stopping cube that p6 and p8 read belong to one sweep, not to the
    context: :func:`lemma_sweep` builds them once per visited cube and
    drops them when it has read the cube's ranks.
    """

    def __init__(self, f: GridFunction, p, b, root: DyadicCube | None = None) -> None:
        self.f = f
        self.params = lemma_params(f.n, p, b)
        self.root = resolve_root(f, root)
        # g before K: an f64 mean over root++ past the float range is the error
        self.g = offset_positive_part(f, forward(self.root, 2))
        self.seminorm: SeminormResult = jnp_plus_dyadic(f, self.params.p, self.root)
        K, params = self.seminorm, self.params
        vol = float(volume(self.root))
        # b, then the root factor: their product can underflow to 0
        self.lam0 = 2.0 * K.value / float(params.b) / vol ** (1.0 / float(params.p))

    @cached_property
    def field(self) -> MaximalField:
        return maximal_function(self.g, self.root, "grid")

    @cached_property
    def g_fwd_avg(self):
        return average(self.g, forward(self.root))


def good_lambda_check(ctx: LemmaContext, lam) -> VerificationReport:
    """One decay step |E(lam)| <= (a*K/lam)*|E(b*lam)|^{1/q} plus p6/p8.

    Inadmissible lam (b*lam below the forward mean of g over root+) is
    flagged and nothing is asserted.  In fixed mode the main inequality
    is decided exactly on u-th powers (p = u/v) whenever the seminorm
    weight K^p is exact; otherwise floats at 1e-9 relative tolerance.
    """
    return lemma_sweep(ctx, [lam])[0]


def lemma_sweep(ctx: LemmaContext, lambdas=None) -> Rows:
    """The decay step of :func:`good_lambda_check` at every lam of a list.

    The default list is ``default_lambda_grid(ctx)``.  The reports come
    in the order of ``lambdas``, repeats included, as one
    :class:`jnplus.reports.Rows`; the step itself is decided for
    all of them at once, on the ascending list (see :func:`_decay_steps`).
    """
    return _decay_steps(ctx, *_lambda_list(ctx, lambdas))


def _lambda_list(ctx: LemmaContext, lambdas) -> tuple[Thresholds, Sequence[int]]:
    """The lams of a sweep or theorem run, ascending and lifted once, and
    the ascending index of each lam of the caller's list: the one owner
    of lam order.

    The default ``default_lambda_grid(ctx)`` is already distinct,
    ascending, positive floats in the float range, so each lifts exactly
    by itself and its order is its own.  A caller's lams are each lifted
    by :meth:`GridFunction.threshold`, must be positive, and are sorted,
    repeats kept.  A fixed grid's list is exact: it holds the ratios alone.
    """
    f = ctx.f
    if lambdas is None:
        values = default_lambda_grid(ctx)
        order = range(len(values))
    else:
        lamNs = [f.threshold(lam) for lam in lambdas]
        if not all(lamN > 0 for lamN in lamNs):
            raise InvalidParamsError("lambda must be positive")
        at = sorted(range(len(lamNs)), key=lamNs.__getitem__)
        values, order = [lamNs[i] for i in at], [0] * len(at)
        for j, i in enumerate(at):
            order[i] = j
    ratios = [lam.as_integer_ratio() for lam in values]
    return Thresholds(ratios, f.is_fixed), order


def _held(lo: np.ndarray, hi: np.ndarray, m: int) -> np.ndarray:
    """Per i < m, how many of the lam-index intervals [lo, hi) hold i."""
    if not (lo < hi).any():
        return 0
    # #(hi > i) - #(lo > i), with an empty interval [hi, hi) where lo > hi
    return counts_above(hi, m) - counts_above(np.minimum(lo, hi), m)


def _decay_steps(ctx: LemmaContext, lams: Thresholds, order: Sequence[int]) -> Rows:
    """The decay-step reports at the ascending lams, decided on rank arrays,
    as the columns of a :class:`jnplus.reports.Rows` in ``order``.

    With m lams, ``grid.exceed_ranks`` turns each array into ranks r in
    [0, m]: an entry exceeds lams[i] (or b*lams[i]) exactly when i < r.
    Each block and cell then stops, or fails a check, on an interval of
    lam indices, and counting the intervals that hold each index gives
    every lam's counts and flags:

    * eE, the ranks of g's field against the lams, counts every E(lam);
      its ranks against the b*lams count every E(b*lam).
    * Admissible lam form a suffix i >= i0, as b*lam grows.
    * ``maximal.stopping_ranks`` over the b*lams gives each level-k
      block of the root box its rank e and its ancestors' largest rank
      A: it is a stopping cube at b*lams[i] exactly when A <= i < e.
    * p6, covering part: a cell fails at i when its ancestors' and its
      own largest rank is <= i < eE, i.e. it lies in E(lam) outside
      every stopping cube.
    * A block is visited (a stopping cube meeting E(lam)) on the one
      interval [max(A, i0), min(e, max eE over the block)), so its two
      lambda-free fields, M_Q g and the field of (f - mean(f over Q++))^+,
      are built once.  p6 fails at i in [min, max) of a cell's rank in
      M_Q g and eE; p8 fails at i in [j8, eE), j8 the cell's rank in
      the second field against the (1 - 2^n b)*lams.  Both are clipped to
      the cube's interval, over which the ranks are taken.

    The main inequality is decided on cross-multiplied Python ints when
    the seminorm weight is exact.
    """
    f, params, root, K, g = ctx.f, ctx.params, ctx.root, ctx.seminorm, ctx.g
    m, n = len(lams), f.n
    b = f.scalar(params.b)
    blams = lams.times(b)
    cells = 1 << (f.L * n)
    field, scale = ctx.field.values, ctx.field.denom_scale
    eE = exceed_ranks(field, 1, scale, lams)
    E_counts = counts_above(eE, m).tolist()
    B_counts = counts_above(exceed_ranks(field, 1, scale, blams), m).tolist()
    # admissible: not (g_fwd_avg > b*lam), a suffix as b*lam grows
    i0 = blams.count_below(ctx.g_fwd_avg)

    # per lam index: stopping cubes, and cells where p6 or p8 fails
    stops, fail6, fail8 = (np.zeros(m, dtype=np.intp) for _ in range(3))
    if i0 < m:
        # per level of the root box, fine to coarse: the largest eE in each block
        tops = [eE]
        for _ in range(f.L - root.level):
            tops.append(block_reduce(blocked(tops[-1], 2), np.maximum))
        one_minus = 1 - (1 << n) * b
        # p8's thresholds, at the admissible lams i >= i0 only
        under = lams[i0:].times(one_minus)
        for k, A, e in stopping_ranks(g, root, blams):
            stops += _held(A, e, m)
            lo, hi = np.maximum(A, i0), np.minimum(e, tops.pop())
            w = f.side >> k
            for row in np.argwhere(lo < hi).tolist():
                s, t = int(lo[tuple(row)]), int(hi[tuple(row)])
                [cube] = cubes_at(k, np.add([row], box_origin(root, k)))
                local = maximal_function(g, cube, "grid")
                local_j = positive_part_field(f, cube)
                sub = np.clip(eE[tuple(slice(i * w, (i + 1) * w) for i in row)], s, t)
                r6 = exceed_ranks(local.values, 1, local.denom_scale, lams[s:t]) + s
                under_st = under[s - i0 : t - i0]
                r8 = exceed_ranks(local_j.values, 1, local_j.denom_scale, under_st) + s
                fail6 += _held(np.minimum(r6, sub), np.maximum(r6, sub), m)
                fail8 += _held(r8, sub, m)
        # A and e of the leaf level: the cell's ancestors' and its own largest rank
        fail6 += _held(np.maximum(np.maximum(A, e), i0), eE, m)
    # nothing is asserted below i0
    stops[:i0] = 0
    ok6, ok8 = fail6 == 0, fail8 == 0
    ok6[:i0] = ok8[:i0] = True

    exact_main = K.exact  # an exact seminorm implies a fixed-mode grid
    if exact_main:
        # both sides to the power u (p = u/v): |E(lam)|^u <= (a/lam)^u *
        # (K^p)^v * |E(b lam)|^{u-v}.  With |E| = count/cells, a = an/ad,
        # lam = ln/ld and K^p = wn/wd, times every denominator:
        # (cE*ad*ln)^u * wd^v <= (an*ld)^u * wn^v * cB^{u-v} * cells^v
        u, v = params.p.numerator, params.p.denominator
        an, ad = params.a.numerator, params.a.denominator
        wn, wd = K.weight.numerator, K.weight.denominator
        lhs_scale, rhs_scale = wd**v, wn**v * cells**v
    aK, qinv = float(params.a) * K.value, 1.0 / float(params.q)
    rhs, main_ok = [], []
    columns = zip(lams.ratios, lams.floats(), E_counts, B_counts)
    for i, ((ln, ld), lam_f, cE, cB) in enumerate(columns):
        # aK / lam may be inf, and an empty E(b*lam) bounds E(lam) by 0
        rhs_float = aK / lam_f * (cB / cells) ** qinv if cB else 0.0
        rhs.append(rhs_float)
        if i < i0:
            main_ok.append(True)
        elif exact_main:
            lhs = (cE * ad * ln) ** u * lhs_scale
            main_ok.append(lhs <= (an * ld) ** u * cB ** (u - v) * rhs_scale)
        else:
            # cE / cells is float(|E(lam)|): both round the same rational once
            main_ok.append(cE / cells <= rhs_float * (1.0 + _REL_TOL) + 1e-18)
    ok6, ok8 = ok6.tolist(), ok8.tolist()
    failed = [[] if a and b and c else [name for name, ok in zip(_CHECKS, (a, b, c)) if not ok]
              for a, b, c in zip(main_ok, ok6, ok8)]
    columns = {
        "lhs": [c / cells for c in E_counts],
        "rhs": rhs,
        "admissible": [False] * i0 + [True] * (m - i0),
        "pass": [not ids for ids in failed],
        "lambda": lams,
        "b-lambda": blams,
        "E-lambda": Ratios(E_counts, cells),
        "E-b-lambda": Ratios(B_counts, cells),
        "stopping-count": stops.tolist(),
        "p6-pass": ok6,
        "p8-pass": ok8,
        "failed-ids": failed,
    }
    if lams.exact:
        exact = {c: _rational(c, cells)[1] for c in dict.fromkeys(E_counts)}
        columns["lhs-exact"] = [exact[c] for c in E_counts]
    details = {"params": params, "K": K.value, "K-weight": K.weight, **_DETAIL_SLOTS}
    lhs_exact = Slot("lhs-exact") if lams.exact else None
    form = VerificationReport("Lemma", *_REPORT_SLOTS, exact_main, lhs_exact, details=details)
    return Rows(form, columns, order)


_CHECKS = ("Lemma", "p6", "p8")
# the slots of a sweep report's lhs, rhs, admissible and pass, of its details, and a theorem record
_REPORT_SLOTS = tuple(map(Slot, ("lhs", "rhs", "admissible", "pass")))
_DETAIL = ("lambda", "b-lambda", "E-lambda", "E-b-lambda", "stopping-count", "p6-pass", "p8-pass",
           "failed-ids")
_DETAIL_SLOTS = {name: Slot(name) for name in _DETAIL}
_RECORD = ("lambda", "E-grid", "E-aug", "dist", "bound", "pass", "branch")
_RECORD_FORM = {name: Slot(name) for name in _RECORD}


def proof_constant(n: int, p, b) -> float:
    """The explicit constant C(n, p, b) of the iterated decay bound.

    C = max( (2/b)^p , sup_{N>=1} a^{p - p/q^N}
             * b^{-S_N + q^{-N} - (N+2) p q^{-N}} * 2^{(1+p) q^{-N}} ),
    with S_N = sum_{k=1}^{N} k q^{-(k-1)}.  The terms converge (S_N ->
    p^2), so the sup is a running max iterated until successive terms
    change by less than ``_SERIES_TOL`` relative, joined with the limit
    term a^p * b^{-p^2}.  A C past the float range (b tiny, or p large)
    is an InvalidParamsError naming n, p and b.
    """
    params = lemma_params(n, p, b)
    pf = float(params.p)
    qf = float(params.q)
    af = float(params.a)
    bf = float(params.b)
    try:
        small = (2.0 / bf) ** pf
        qinv = 1.0 / qf
        SN = 0.0
        best = -math.inf
        prev = None
        for N in range(1, _SERIES_MAX_TERMS + 1):
            SN += N * qinv ** (N - 1)
            qN = qinv**N
            term = af ** (pf - pf * qN) * bf ** (-SN + qN - (N + 2) * pf * qN) * 2.0 ** (
                (1 + pf) * qN
            )
            best = max(best, term)
            if prev is not None and abs(term - prev) <= _SERIES_TOL * max(abs(term), 1.0):
                break
            prev = term
        C = max(small, best, af**pf * bf ** (-pf * pf))
    except OverflowError:
        C = math.inf
    if not math.isfinite(C):
        raise InvalidParamsError(
            f"the proof constant C(n={n}, p={_number_name(params.p)}, b={bf!r}) "
            "lies outside the float range"
        )
    return C


def default_lambda_grid(ctx: LemmaContext) -> list[float]:
    """Log-spaced lambdas spanning both proof branches.

    ``_GRID_COUNT`` values from (max f - min f) * 2^{-10} up to max g + 1,
    plus the ladder points lambda0 and b^{-k} lambda0 for k = 1.._LADDER.
    An exact value past the float range reads inf.  A b whose
    b^{-_LADDER} passes the float range is an InvalidParamsError naming
    it, and so is a largest lambda (the span's top or a ladder point)
    that reaches inf, as a threshold outside the float range.
    """
    f = ctx.f
    hi = _float_view(ctx.g.max_value()) + 1.0
    lo = (_float_view(f.max_value()) - _float_view(f.min_value())) * 2.0**-10
    if not lo > 0.0:  # also the nan of inf - inf, when both f values pass the float range
        lo = hi * 2.0**-10
    if hi <= lo:
        hi = 2.0 * lo
    _in_float_range(hi, float)  # before logspace, which warns on an infinite span
    grid = list(np.logspace(math.log10(lo), math.log10(hi), _GRID_COUNT))
    bf = float(ctx.params.b)
    try:
        steps = [bf**-k for k in range(1, _LADDER + 1)]
    except OverflowError:
        raise InvalidParamsError(
            f"b={bf!r} is too small: b^-{_LADDER} lies outside the float range"
        ) from None
    lam0 = ctx.lam0
    if lam0 > 0.0:
        grid.append(lam0)
        grid.extend(lam0 * step for step in steps)
    grid = sorted({float(x) for x in grid if x > 0.0})
    if grid:
        _in_float_range(grid[-1], float)
    return grid


@dataclass
class TheoremRun:
    """Per-lambda records and summary of the weak-type conclusion."""

    p: Fraction
    b: Fraction
    root: DyadicCube
    K: float
    K_weight: Fraction | float
    lam0: float
    C_proof: float
    records: Rows = field(repr=False)
    passed_p9: bool
    passed_p11: bool
    passed_dist: bool
    C_emp_grid: float
    C_emp_aug: float
    p11_lhs: Fraction | float
    p11_rhs: float

    @property
    def passed(self) -> bool:
        return self.passed_p9 and self.passed_p11 and self.passed_dist

    def failed_ids(self) -> list[str]:
        flags = (("p9", self.passed_p9), ("p11", self.passed_p11), ("Theorem", self.passed_dist))
        return [name for name, passed in flags if not passed]

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "b": self.b,
            "root": self.root,
            "K": self.K,
            "K-weight": self.K_weight,
            "lambda0": self.lam0,
            "C-proof": self.C_proof,
            "C-empirical-grid": self.C_emp_grid,
            "C-empirical-augmented": self.C_emp_aug,
            "p11-lhs": self.p11_lhs,
            "p11-rhs": self.p11_rhs,
            "pass": self.passed,
            "pass-p9": self.passed_p9,
            "pass-p11": self.passed_p11,
            "pass-dist": self.passed_dist,
            "records": self.records,
        }

    def to_csv(self) -> str:
        rows = self.records
        cols = rows.columns
        floats = [cols[name].floats() for name in ("lambda", "E-grid", "E-aug", "dist")]
        lines = ["lambda,E_grid,E_aug,dist,bound,pass"]
        for j in rows.order:
            lam_f, eg, ea, ds = (col[j] for col in floats)
            bd, ok = float(cols["bound"][j]), int(cols["pass"][j])
            lines.append(f"{lam_f!r},{eg!r},{ea!r},{ds!r},{bd!r},{ok}")
        return "\n".join(lines) + "\n"


def theorem_check(ctx: LemmaContext, lambdas=None) -> TheoremRun:
    """Check lam^p |E(lam)| <= C K^p over a lambda grid, plus p11 and
    the distribution-vs-augmented domination.

    Per lambda the record holds |E_grid|, |E_aug|, the distribution
    measure, the measure bound C*K^p/lam^p, and its pass flag (1e-9
    relative tolerance; C and the p-th powers are floats).  The
    distribution <= |E_aug| comparison is exact: both are cell counts.
    """
    f, params, root, K, g, lam0 = ctx.f, ctx.params, ctx.root, ctx.seminorm, ctx.g, ctx.lam0
    field_g, field_a = ctx.field, maximal_function(g, root, "augmented")
    lams, order = _lambda_list(ctx, lambdas)
    m, cells = len(lams), 1 << (f.L * f.n)
    C = proof_constant(f.n, params.p, params.b)
    pf = float(params.p)
    Kp = _float_view(K.weight) if K.exact else K.value**pf

    def counts(numer: np.ndarray, denom: int | None) -> list[int]:
        # every lambda's superlevel count of one array in one pass
        return counts_above(exceed_ranks(numer, 1, denom, lams), m).tolist()

    # g is (f - mean(f over root++))^+, so on the root it holds the
    # distribution set of every lambda > 0
    G = counts(field_g.values, field_g.denom_scale)
    A = counts(field_a.values, field_a.denom_scale)
    D = counts(g.region(root), g.denom)
    bounds, passed, branches = [], [], []
    passed_p9 = True
    passed_dist = True
    emp_grid = 0.0
    emp_aug = 0.0
    for lam_f, cG, cA, cD in zip(lams.floats(), G, A, D):
        # lam^p is inf past the float range (bound 0) and 0 below it (bound inf)
        lam_p = _float_pow(lam_f, pf)
        bound = math.inf if lam_p == 0.0 else C * Kp / lam_p
        # an empty E(lam) meets any bound, also the nan of inf/inf
        ok = cG == 0 or cG / cells <= bound * (1.0 + _REL_TOL)
        dist_ok = cD <= cA
        passed_p9 &= ok
        passed_dist &= dist_ok
        # an empty set adds 0, also where lam^p is inf; a nonempty one with K = 0 adds inf
        if cG:
            emp_grid = max(emp_grid, lam_p * (cG / cells) / Kp if Kp > 0.0 else math.inf)
        if cA:
            emp_aug = max(emp_aug, lam_p * (cA / cells) / Kp if Kp > 0.0 else math.inf)
        bounds.append(bound)
        passed.append(bool(ok and dist_ok))
        branches.append("iteration" if lam_f > lam0 else "trivial")
    columns = {
        "lambda": lams,
        "E-grid": Ratios(G, cells),
        "E-aug": Ratios(A, cells),
        "dist": Ratios(D, cells),
        "bound": bounds,
        "pass": passed,
        "branch": branches,
    }
    records = Rows(_RECORD_FORM, columns, order)

    # single-cube consequence: (1/|root|) * integral of g over root∪root+
    V = volume(root)
    p11_lhs = g.ratio(union_sum(g, root), g.cells_in(root))
    p11_rhs = 2.0 * K.value / float(V) ** (1.0 / pf)
    if K.exact:
        u, v = params.p.numerator, params.p.denominator
        passed_p11 = p11_lhs**u * V**v <= 2**u * K.weight**v
    else:
        passed_p11 = _float_view(p11_lhs) <= p11_rhs * (1.0 + _REL_TOL) + 1e-18

    return TheoremRun(
        p=params.p,
        b=params.b,
        root=root,
        K=K.value,
        K_weight=K.weight,
        lam0=lam0,
        C_proof=C,
        records=records,
        passed_p9=bool(passed_p9),
        passed_p11=bool(passed_p11),
        passed_dist=bool(passed_dist),
        C_emp_grid=emp_grid,
        C_emp_aug=emp_aug,
        p11_lhs=p11_lhs,
        p11_rhs=p11_rhs,
    )
