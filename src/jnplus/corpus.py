"""Deterministic test-input generators and the bundled input corpus.

Every generator maps a :class:`GeneratorSpec` (kind, dimensions,
resolution, seed, arithmetic mode) to a :class:`GridFunction` on the
extended domain, reproducibly: the same spec always yields the same
grid.  Kinds:

* ``constant`` — every cell equals ``params["value"]`` (a numerator in
  fixed mode, default: the denominator, i.e. the function 1).
* ``uniform-random`` — i.i.d. numerators uniform on [0, 2*denom].
* ``dyadic-martingale`` — three independent unit time boxes, each
  refined level by level with integer sibling increments that sum to
  zero over every sibling block, so cube averages match parent
  averages exactly; shifted up at the end if any cell went negative.
* ``time-step`` — a high plateau that drops to a low one at a
  seed-chosen time cell (decreasing in time, so genuinely one-sided).
* ``one-sided-power`` — spatially constant, f = t_center^{-alpha} on
  each time cell (scaled by the denominator and rounded), nonincreasing
  in time; ``params["alpha"]`` defaults to 1/2, and must be positive
  and small enough that the largest cell stays below 2^62.

A spec may carry only the params its kind reads (``value`` for
``constant``, ``alpha`` for ``one-sided-power``); any other is an
:class:`InvalidSpecError`.  The generators build their numerators in
int64, so a spec is refused where they could pass the package's int64
rule (:func:`jnplus.grid.int64_fits`, below 2^62): a constant ``value``
(by default denom) and, for the kinds that draw from it
(``uniform-random``, ``dyadic-martingale``, ``time-step``), a denom whose
largest numerator, (2^n + 5L + 3) * denom (:func:`_draw_bound`), does not fit.

``default_manifest()`` returns the bundled 50-spec corpus and
``bundled_example()`` the small worked example used throughout the
tests (one spatial dimension, L = 2, a single spike of height 4 in the
last quarter of the unit time interval).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from ._blocks import children_sum, upsample
from .errors import InvalidSpecError
from .grid import GridFunction, int64_fits

__all__ = ["GeneratorSpec", "gen", "default_manifest", "bundled_example", "KINDS", "MAX_CELLS"]

KINDS = (
    "constant",
    "uniform-random",
    "dyadic-martingale",
    "time-step",
    "one-sided-power",
)

# Largest grid a spec may ask for: 3 * 2^(nL) cells over the extended domain.
# It admits n=2, L=10 (3 * 2^20 cells, 24 MiB as int64).
MAX_CELLS = 1 << 22

# The only params a kind reads; a spec giving any other is rejected.
_KIND_PARAMS = {"constant": ("value",), "one-sided-power": ("alpha",)}
# The kinds whose numerators are random draws scaled by denom.
_DRAWING_KINDS = ("uniform-random", "dyadic-martingale", "time-step")


def _draw_bound(n: int, L: int, denom: int) -> int:
    """A bound on every magnitude the drawing kinds form in int64.

    uniform-random draws up to 2*denom and time-step's cells reach
    3*denom.  A martingale starts in [0, 2*denom]; each of its L levels
    sums 2^n increments from [-denom, denom] and then moves a cell by at
    most 2*denom+1, so its cells, shifted to be nonnegative, stay within
    2*denom + 4*denom*L + L <= (5L + 2) * denom.
    """
    return (((1 << n) if L else 0) + 5 * L + 3) * denom


@dataclass(frozen=True)
class GeneratorSpec:
    """Reproducible description of one generated grid."""

    kind: str
    n: int
    L: int
    seed: int = 0
    mode: str = "fixed"
    denom: int = 16
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise InvalidSpecError(f"unknown generator kind {self.kind!r}")
        if self.n < 1:
            raise InvalidSpecError(f"n must be >= 1, got {self.n}")
        if self.L < 0:
            raise InvalidSpecError(f"L must be >= 0, got {self.L}")
        # compare exponents first so a huge L never builds a huge integer
        if self.n * self.L >= MAX_CELLS.bit_length() or 3 << (self.n * self.L) > MAX_CELLS:
            raise InvalidSpecError(
                f"grid of 3*2^{self.n * self.L} cells (n={self.n}, L={self.L}) "
                f"exceeds the limit of {MAX_CELLS} cells"
            )
        if self.mode not in ("fixed", "f64"):
            raise InvalidSpecError(f"mode must be 'fixed' or 'f64', got {self.mode!r}")
        if self.denom <= 0:
            raise InvalidSpecError(f"denom must be positive, got {self.denom}")
        unread = sorted(set(self.params) - set(_KIND_PARAMS.get(self.kind, ())))
        if unread:
            raise InvalidSpecError(f"kind {self.kind!r} reads no param {', '.join(unread)}")
        if self.kind == "constant" and not int64_fits(int(self.params.get("value", self.denom))):
            raise InvalidSpecError(
                f"constant value {self.params.get('value', self.denom)} "
                f"{'' if 'value' in self.params else '(the default, denom) '}"
                "must lie below 2^62 in magnitude"
            )
        if self.kind in _DRAWING_KINDS and not int64_fits(_draw_bound(self.n, self.L, self.denom)):
            raise InvalidSpecError(
                f"denom {self.denom} is too large for kind {self.kind!r} at n={self.n}, "
                f"L={self.L}: the int64 numerators it forms must stay below 2^62"
            )

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "n": self.n,
            "L": self.L,
            "seed": self.seed,
            "mode": self.mode,
            "denom": self.denom,
            "params": dict(self.params),
        }

    @staticmethod
    def from_json_dict(doc: dict) -> "GeneratorSpec":
        try:
            return GeneratorSpec(
                kind=doc["kind"],
                n=int(doc["n"]),
                L=int(doc["L"]),
                seed=int(doc.get("seed", 0)),
                mode=doc.get("mode", "fixed"),
                denom=int(doc.get("denom", 16)),
                params=dict(doc.get("params", {})),
            )
        except KeyError as exc:
            raise InvalidSpecError(f"generator spec missing field {exc}") from exc


def _child_rank(shape: tuple[int, ...]) -> np.ndarray:
    """Rank 0..2^n-1 of each cell within its sibling block, C order."""
    n = len(shape)
    rank = np.zeros(shape, dtype=np.int64)
    for ax in range(n):
        idx = np.arange(shape[ax]) % 2
        rank += idx.reshape((1,) * ax + (-1,) + (1,) * (n - ax - 1)) << (n - ax - 1)
    return rank


def _zero_sum_adjust(inc: np.ndarray, n: int) -> np.ndarray:
    """Shift integer increments so every 2^n sibling block sums to zero."""
    totals = children_sum(inc)
    q, r = np.divmod(totals, 1 << n)  # totals = q*2^n + r, 0 <= r < 2^n
    rank = _child_rank(inc.shape)
    return inc - upsample(q) - (rank < upsample(r))


def _martingale_box(rng: np.random.Generator, n: int, L: int, denom: int) -> np.ndarray:
    vals = np.full((1,) * n, int(rng.integers(0, 2 * denom + 1)), dtype=np.int64)
    for _ in range(L):
        vals = upsample(vals)
        inc = rng.integers(-denom, denom + 1, size=vals.shape)
        vals = vals + _zero_sum_adjust(inc, n)
    return vals


def gen(spec: GeneratorSpec) -> GridFunction:
    """Build the grid a spec describes (deterministic in the seed)."""
    n, L, denom = spec.n, spec.L, spec.denom
    side = 1 << L
    shape = (side,) * (n - 1) + (3 * side,)
    rng = np.random.default_rng(spec.seed)

    if spec.kind == "constant":
        value = int(spec.params.get("value", denom))
        nums = np.full(shape, value, dtype=np.int64)
    elif spec.kind == "uniform-random":
        nums = rng.integers(0, 2 * denom + 1, size=shape).astype(np.int64)
    elif spec.kind == "dyadic-martingale":
        boxes = [_martingale_box(rng, n, L, denom) for _ in range(3)]
        nums = np.concatenate(boxes, axis=n - 1)
        low = int(nums.min())
        if low < 0:
            nums = nums - low
    elif spec.kind == "time-step":
        lo = int(rng.integers(0, denom + 1))
        hi = lo + int(rng.integers(1, 2 * denom + 1))
        tau = int(rng.integers(1, 3 * side))
        t = np.arange(3 * side)
        col = np.where(t < tau, hi, lo).astype(np.int64)
        nums = np.broadcast_to(col, shape).copy()
    elif spec.kind == "one-sided-power":
        alpha = float(spec.params.get("alpha", 0.5))
        # the largest cell, denom * (2 * side)^alpha at t = 0, stays below 2^62 (int64_fits)
        top = (62 - math.log2(denom)) / (L + 1)
        if not 0 < alpha < top:  # also nan
            raise InvalidSpecError(f"alpha must lie in (0, {top:.6g}) at L={L}, got {alpha}")
        t = np.arange(3 * side, dtype=np.float64)
        col = np.rint(denom * (side / (t + 0.5)) ** alpha).astype(np.int64)
        nums = np.broadcast_to(col, shape).copy()
    else:  # pragma: no cover - __post_init__ rejects unknown kinds
        raise InvalidSpecError(f"unknown generator kind {spec.kind!r}")

    if spec.mode == "fixed":
        return GridFunction(n, L, nums, "fixed", denom)
    return GridFunction(n, L, nums.astype(np.float64) / denom, "f64")


def default_manifest() -> list[GeneratorSpec]:
    """The bundled 50-spec corpus (mixed kinds, n in {1,2}, L in {3,4,5})."""
    text = resources.files("jnplus").joinpath("data/corpus_manifest.json").read_text()
    doc = json.loads(text)
    return [GeneratorSpec.from_json_dict(entry) for entry in doc["specs"]]


def bundled_example() -> GridFunction:
    """The worked example: n=1, L=2, one spike of height 4, denom 1."""
    text = resources.files("jnplus").joinpath("data/example_1d_l2.json").read_text()
    doc = json.loads(text)
    return GridFunction(doc["n"], doc["L"], doc["values"], doc["mode"], doc["denom"])
