"""End-to-end checks of the superlevel-decay chain.

Everything below works with g = (f - mean(f over root++))^+ and the
grid maximal field M of g over the root, writing

    E(lam) = {x in root : M g(x) > lam},

and with the family seminorm K = jnp_plus_dyadic(f, p, root).value.

``LemmaContext(f, p, b, root=None)`` builds these once per tuple
(f, p, b, root), the field on first read.  Every check below takes the
context, so a sweep over many lam recomputes none of it.

* ``good_lambda_check(ctx, lam)`` — the decay step: for admissible lam
  (meaning b*lam >= mean of g over root+),

      |E(lam)| <= (a*K/lam) * |E(b*lam)|^{1/q},

  with a = 4/(1 - 2^n b) and q = p/(p-1), plus two cellwise facts about
  the stopping cubes {Q_j} of g at threshold b*lam: E(lam) splits as the
  disjoint union of the per-cube sets {x in Q_j : M_{Q_j} g(x) > lam}
  ("p6"), and each of those sets lies inside
  {M_{Q_j} g_j > (1-2^n b)*lam} where g_j = (f - mean(f over Q_j++))^+
  ("p8").

* ``lemma_sweep(ctx, lambdas=None)`` — the decay step at every lam of
  ``default_lambda_grid(ctx)`` (or of the given list).

* ``proof_constant(n, p, b)`` — the explicit constant C(n,p,b) produced by
  iterating the decay step down the ladder lam, b*lam, b^2*lam, ...,
  combined with the trivial bound (2/b)^p for small lam.

* ``theorem_check(ctx, lambdas=None)`` — for a grid of lam values: asserts
  lam^p * |E(lam)| <= C * K^p ("p9"), the single-cube consequence
  (1/|root|) * integral of g over root ∪ root+ <= 2K/|root|^{1/p}
  ("p11"), and the constructional domination of the plain distribution
  set by the augmented maximal variant; records empirical constants for
  both variants.

Measures are exact rationals in fixed mode.  The final inequality of
the lemma and the theorem bound involve p-th roots and the iterated
constant, so those comparisons run either exactly on p-th powers
(fixed mode, rational p) or in floating point at 1e-9 relative
tolerance; the report's ``exact`` flag says which.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from ._blocks import block_cubes, level_sums
from .cubes import DyadicCube, forward, volume
from .errors import InvalidParamsError
from .grid import (
    GridFunction,
    average,
    distribution_measure,
    offset_positive_part,
    resolve_root,
    union_sum,
)
from .maximal import (
    MaximalField,
    maximal_function,
    positive_part_field,
    rel_slices,
    stopping_levels,
)
from .reports import VerificationReport
from .seminorms import SeminormResult, jnp_plus_dyadic, _norm_exponent

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
    """Validate p > 1 and 0 < b < 2^{-n}."""
    pF, _ = _norm_exponent(p)
    try:
        bF = Fraction(b)
    except (TypeError, ValueError) as exc:
        raise InvalidParamsError(f"b {b!r} is not a number") from exc
    if not (0 < bF < Fraction(1, 1 << n)):
        raise InvalidParamsError(f"b must lie in (0, 2^-{n}), got {b!r}")
    return LemmaParams(int(n), pF, bF)


class LemmaContext:
    """What every lambda of a sweep over (f, p, b, root) shares.

    Built once per sweep: the validated ``params``, the resolved
    ``root``, the seminorm K (``seminorm``), g = (f - mean(f over
    root++))^+ and the ladder base ``lam0`` = 2K / (b * |root|^{1/p}).
    g's grid maximal ``field`` over the root and g's mean over root+
    (``g_fwd_avg``) are built on first read, since a caller that only
    wants the lambda grid reads neither.
    """

    def __init__(self, f: GridFunction, p, b, root: DyadicCube | None = None) -> None:
        self.f = f
        self.params = lemma_params(f.n, p, b)
        self.root = resolve_root(f, root)
        self.seminorm: SeminormResult = jnp_plus_dyadic(f, self.params.p, self.root)
        self.g = offset_positive_part(f, forward(self.root, 2))
        K, params = self.seminorm, self.params
        vol = float(volume(self.root))
        self.lam0 = 2.0 * K.value / (float(params.b) * vol ** (1.0 / float(params.p)))

    @cached_property
    def field(self) -> MaximalField:
        return maximal_function(self.g, self.root, "grid")

    @cached_property
    def g_fwd_avg(self):
        return average(self.g, forward(self.root))


def _pow_le(lhs: Fraction, rhs_terms: list[tuple[Fraction, int]]) -> bool:
    # lhs <= prod term^exp with everything rational: compare exactly.
    prod = Fraction(1)
    for base, exp in rhs_terms:
        prod *= base**exp
    return lhs <= prod


def good_lambda_check(ctx: LemmaContext, lam) -> VerificationReport:
    """One decay step |E(lam)| <= (a*K/lam)*|E(b*lam)|^{1/q} plus p6/p8.

    Inadmissible lam (b*lam below the forward mean of g over root+) is
    flagged and nothing is asserted.  In fixed mode the main inequality
    is decided exactly on u-th powers (p = u/v) whenever the seminorm
    weight K^p is exact; otherwise floats at 1e-9 relative tolerance.
    """
    f, params, root = ctx.f, ctx.params, ctx.root
    lamN = f.scalar(lam)
    if not (lamN > 0):
        raise InvalidParamsError("lambda must be positive")
    b = f.scalar(params.b)
    blam = b * lamN
    admissible = not (ctx.g_fwd_avg > blam)

    E_lam = ctx.field.superlevel_measure(lamN)
    E_blam = ctx.field.superlevel_measure(blam)
    K = ctx.seminorm

    exact_main = K.exact  # an exact seminorm implies a fixed-mode grid
    rhs_float = (
        float(params.a) * K.value / float(lamN) * float(E_blam) ** (1.0 / float(params.q))
    )
    if not admissible:
        passed = True
        main_ok = True
        p6_ok = p8_ok = True
        dec_size = 0
    else:
        if exact_main:
            # raise both sides to the power u (p = u/v): K^u = (K^p)^v,
            # |E(b lam)|^{u/q} = |E(b lam)|^{u-v}
            u, v = params.p.numerator, params.p.denominator
            main_ok = _pow_le(
                E_lam**u,
                [(params.a / Fraction(lamN), u), (K.weight, v), (E_blam, u - v)],
            )
        else:
            main_ok = float(E_lam) <= rhs_float * (1.0 + _REL_TOL) + 1e-18

        # stopping cubes of g at b*lam, one mask per level of the root box,
        # and per level the count of E(lam) cells inside each block
        stopping = list(stopping_levels(ctx.g, root, blam))
        dec_size = sum(int(chosen.sum()) for _, chosen in stopping)
        E_mask = ctx.field.superlevel_mask(lamN)
        hits = level_sums(E_mask, f.n, f.L - root.level)
        # the stopping cubes are disjoint, so E lies in their union iff
        # they hold all of its cells
        inside = sum(int(h[chosen].sum()) for (_, chosen), h in zip(stopping, hits))
        p6_ok = inside == int(E_mask.sum())
        p8_ok = True
        one_minus = (1 - (1 << f.n) * b) * lamN
        for (k, chosen), h in zip(stopping, hits):
            # E ∩ Q_j empty forces E_{Q_j} empty too (M_{Q_j} <= M): skip
            for c in block_cubes(root, k, np.argwhere(chosen & (h > 0))):
                sub = E_mask[rel_slices(f, root, c)]
                local = maximal_function(ctx.g, c, "grid")
                if not bool(np.array_equal(local.superlevel_mask(lamN), sub)):
                    p6_ok = False
                local_j = positive_part_field(f, c)
                if bool(np.any(sub & ~local_j.superlevel_mask(one_minus))):
                    p8_ok = False
        passed = main_ok and p6_ok and p8_ok

    failed = [
        name
        for name, ok in (("Lemma", main_ok), ("p6", p6_ok), ("p8", p8_ok))
        if admissible and not ok
    ]
    return VerificationReport(
        inequality_id="Lemma",
        lhs=float(E_lam),
        rhs=rhs_float,
        admissible=admissible,
        passed=passed,
        exact=exact_main,
        lhs_exact=str(E_lam) if f.is_fixed else None,
        details={
            "lambda": lamN,
            "b-lambda": blam,
            "params": params,
            "K": K.value,
            "K-weight": K.weight,
            "E-lambda": E_lam,
            "E-b-lambda": E_blam,
            "stopping-count": dec_size,
            "p6-pass": p6_ok,
            "p8-pass": p8_ok,
            "failed-ids": failed,
        },
    )


def lemma_sweep(ctx: LemmaContext, lambdas=None) -> list[VerificationReport]:
    """good_lambda_check across a lambda grid (default: ``default_lambda_grid``)."""
    if lambdas is None:
        lambdas = default_lambda_grid(ctx)
    return [good_lambda_check(ctx, lam) for lam in lambdas]


def proof_constant(n: int, p, b) -> float:
    """The explicit constant C(n, p, b) of the iterated decay bound.

    C = max( (2/b)^p , sup_{N>=1} a^{p - p/q^N}
             * b^{-S_N + q^{-N} - (N+2) p q^{-N}} * 2^{(1+p) q^{-N}} ),
    with S_N = sum_{k=1}^{N} k q^{-(k-1)}.  The terms converge (S_N ->
    p^2), so the sup is a running max iterated until successive terms
    change by less than ``_SERIES_TOL`` relative, joined with the limit
    term a^p * b^{-p^2}.
    """
    params = lemma_params(n, p, b)
    pf = float(params.p)
    qf = float(params.q)
    af = float(params.a)
    bf = float(params.b)
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
    limit = af**pf * bf ** (-pf * pf)
    return max(small, best, limit)


def default_lambda_grid(ctx: LemmaContext) -> list[float]:
    """Log-spaced lambdas spanning both proof branches.

    ``_GRID_COUNT`` values from (max f - min f) * 2^{-10} up to max g + 1,
    plus the ladder points lambda0 and b^{-k} lambda0 for k = 1.._LADDER.
    """
    f = ctx.f
    hi = float(ctx.g.max_value()) + 1.0
    lo = (float(f.max_value()) - float(f.min_value())) * 2.0**-10
    if lo <= 0.0:
        lo = hi * 2.0**-10
    if hi <= lo:
        hi = 2.0 * lo
    grid = list(np.logspace(math.log10(lo), math.log10(hi), _GRID_COUNT))
    lam0 = ctx.lam0
    if lam0 > 0.0:
        grid.append(lam0)
        grid.extend(lam0 * float(ctx.params.b) ** -k for k in range(1, _LADDER + 1))
    return sorted({float(x) for x in grid if x > 0.0})


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
    records: list[dict] = field(repr=False)
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
        out = []
        if not self.passed_p9:
            out.append("p9")
        if not self.passed_p11:
            out.append("p11")
        if not self.passed_dist:
            out.append("Theorem")
        return out

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
        lines = ["lambda,E_grid,E_aug,dist,bound,pass"]
        for r in self.records:
            lines.append(
                "{lam!r},{eg!r},{ea!r},{ds!r},{bd!r},{ok}".format(
                    lam=float(r["lambda"]),
                    eg=float(r["E-grid"]),
                    ea=float(r["E-aug"]),
                    ds=float(r["dist"]),
                    bd=float(r["bound"]),
                    ok=int(bool(r["pass"])),
                )
            )
        return "\n".join(lines) + "\n"


def theorem_check(ctx: LemmaContext, lambdas=None) -> TheoremRun:
    """Check lam^p |E(lam)| <= C K^p over a lambda grid, plus p11 and
    the distribution-vs-augmented domination.

    Per lambda the record holds |E_grid|, |E_aug|, the distribution
    measure, the measure bound C*K^p/lam^p, and its pass flag (1e-9
    relative tolerance; C and the p-th powers are floats).  The
    distribution <= |E_aug| comparison is exact.
    """
    f, params, root, K, g, lam0 = ctx.f, ctx.params, ctx.root, ctx.seminorm, ctx.g, ctx.lam0
    field_g, field_a = ctx.field, maximal_function(g, root, "augmented")
    if lambdas is None:
        lambdas = default_lambda_grid(ctx)
    C = proof_constant(f.n, params.p, params.b)
    Kp = float(K.weight) if K.exact else K.value ** float(params.p)

    records: list[dict] = []
    passed_p9 = True
    passed_dist = True
    emp_grid = 0.0
    emp_aug = 0.0
    for lam in lambdas:
        lamN = f.scalar(lam)
        if not (lamN > 0):
            raise InvalidParamsError("lambda grid must be positive")
        Eg = field_g.superlevel_measure(lamN)
        Ea = field_a.superlevel_measure(lamN)
        dist = distribution_measure(f, root, lamN)
        lam_p = float(lamN) ** float(params.p)
        bound = math.inf if Kp == 0.0 and lam_p == 0.0 else C * Kp / lam_p
        ok = float(Eg) <= bound * (1.0 + _REL_TOL)
        dist_ok = dist <= Ea  # exact rationals in both modes
        passed_p9 &= ok
        passed_dist &= dist_ok
        if Kp > 0.0:
            emp_grid = max(emp_grid, lam_p * float(Eg) / Kp)
            emp_aug = max(emp_aug, lam_p * float(Ea) / Kp)
        else:
            if float(Eg) > 0.0:
                emp_grid = math.inf
            if float(Ea) > 0.0:
                emp_aug = math.inf
        records.append(
            {
                "lambda": lamN,
                "E-grid": Eg,
                "E-aug": Ea,
                "dist": dist,
                "bound": bound,
                "pass": bool(ok and dist_ok),
                "branch": "iteration" if float(lamN) > lam0 else "trivial",
            }
        )

    # single-cube consequence: (1/|root|) * integral of g over root∪root+
    V = volume(root)
    p11_lhs = g.ratio(union_sum(g, root), g.cells_in(root))
    p11_rhs = 2.0 * K.value / float(V) ** (1.0 / float(params.p))
    if K.exact:
        u, v = params.p.numerator, params.p.denominator
        passed_p11 = _pow_le(p11_lhs**u * V**v, [(Fraction(2), u), (K.weight, v)])
    else:
        passed_p11 = float(p11_lhs) <= p11_rhs * (1.0 + _REL_TOL) + 1e-18

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
