"""Report records and canonical serialization.

Failed mathematical assertions are reported, not raised: every check
returns a :class:`VerificationReport` whose ``inequality_id`` names the
claim being tested, so a CLI exit can say exactly which link broke.
A report object's ``to_json_dict`` returns its fields by report key as
plain values; this module alone turns them into JSON.  Long lists of
cubes and of rationals can come as :class:`CubeRows` and
:class:`RatioRows`, per-level arrays that :func:`canonical_json` writes
without making an object per item.  :func:`canonical_json` writes a
whole document in one walk; :func:`scalar_json` maps one number to its
JSON value, for a compact dump of a few scalars.
Serialization is canonical (sorted keys, stable float repr, exact
rational strings alongside decimals in fixed mode) so identical inputs
produce byte-identical reports.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

import numpy as np

from ._blocks import cubes_at
from .cubes import DyadicCube

__all__ = [
    "VerificationReport",
    "CubeRows",
    "RatioRows",
    "scalar_json",
    "canonical_json",
]


@dataclass(frozen=True, eq=False)
class CubeRows:
    """A list of dyadic cubes held per level as rows of block indices.

    ``levels`` pairs a level k with an (m, n) integer array whose rows
    are the cubes' absolute level-k indices, spatial ones first and time
    last, in list order.
    """

    levels: list[tuple[int, np.ndarray]]

    def __len__(self) -> int:
        return sum(len(rows) for _, rows in self.levels)

    def expand(self) -> list[DyadicCube]:
        return [c for k, rows in self.levels for c in cubes_at(k, rows)]

    def volume(self) -> Fraction:
        """Summed volume: m cubes of level k in n dimensions weigh m * 2^{-kn}."""
        return sum((Fraction(len(r), 1 << (k * r.shape[1])) for k, r in self.levels), Fraction(0))

    def take(self, ids: list[int]) -> CubeRows:
        """The cubes at the ascending list positions ``ids``, in this form."""
        ids, out, start = np.asarray(ids, dtype=np.intp), [], 0
        for k, rows in self.levels:
            lo, hi = np.searchsorted(ids, [start, start + len(rows)])
            out.append((k, rows[ids[lo:hi] - start]))
            start += len(rows)
        return CubeRows(out)


@dataclass(frozen=True, eq=False)
class RatioRows:
    """A list of numbers held as arrays of raw values, one array per level.

    With an integer ``denom`` the items are the rationals raw/denom (the
    arrays hold Python ints); with ``denom`` None they are the raw floats.
    """

    raws: list[np.ndarray]
    denom: int | None

    def expand(self) -> list:
        D = self.denom
        if D is None:
            return [float(w) for raw in self.raws for w in raw.tolist()]
        return [Fraction(w, D) for raw in self.raws for w in raw.tolist()]


def _decimal(num: int, den: int) -> str:
    """repr(float(num/den)), or "inf"/"-inf" past the float range (den > 0).

    Int true division rounds correctly, as float(Fraction) does.
    """
    try:
        return repr(num / den)
    except OverflowError:
        return "inf" if num > 0 else "-inf"


def scalar_json(x: Any) -> Any:
    """JSON form of a numeric scalar.

    Ints pass through (JSON integers are exact); finite floats pass
    through (shortest-roundtrip repr is canonical); non-finite floats
    become strings; rationals become {"decimal", "exact"} pairs.
    """
    if isinstance(x, bool) or x is None or isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return {"decimal": _decimal(x.numerator, x.denominator), "exact": str(x)}
    if isinstance(x, float):
        return x if math.isfinite(x) else repr(x)
    return x


def canonical_json(obj: Any) -> str:
    """The canonical report text of ``obj``.

    Sorted keys, an indent of 2 and a final newline, written in one walk
    that appends to one list, as :func:`_write` maps each value.  A
    frozen dataclass that the document holds more than once (one
    ``LemmaParams`` sits in every report of a sweep) is rendered once per
    indent and its text reused, and so is the sorted key layout of dicts
    with the same str keys (every record of a sweep).
    """
    parts: list[str] = []
    _write(obj, parts.append, "\n", {})
    parts.append("\n")
    return "".join(parts)


_encode_str = json.encoder.encode_basestring_ascii


def _float_text(x: float) -> str:
    return float.__repr__(x) if math.isfinite(x) else f'"{x!r}"'


def _ratio_text(num: int, den: int, exact: str, nl: str) -> str:
    # scalar_json's {"decimal", "exact"} pair, laid out as _ratio_items writes it
    ind = nl + "  "
    return f'{{{ind}"decimal": "{_decimal(num, den)}",{ind}"exact": "{exact}"{nl}}}'


def _fraction_text(x: Fraction, nl: str) -> str:
    # a Fraction's str, from its numerator and denominator read in one call
    num, den = x.as_integer_ratio()
    return _ratio_text(num, den, f"{num}/{den}" if den != 1 else int.__repr__(num), nl)


# the text of a value of exactly one of these types, at any indent
_SCALAR_TEXT = {
    str: _encode_str,
    int: int.__repr__,
    float: _float_text,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _write(obj: Any, put, nl: str, memo: dict) -> None:
    """Append the JSON text of ``obj``; ``nl`` is a newline plus the current indent.

    A dict, list, tuple, Fraction or JSON scalar of exactly that type is
    written by its own branch.  Anything else (a subclass, a report
    object, a row view) takes :func:`_write_other`.
    """
    t = type(obj)
    if t is dict:
        _write_dict(obj, put, nl, memo)
    elif t is Fraction:
        put(_fraction_text(obj, nl))
    elif t in _SCALAR_TEXT:
        put(_SCALAR_TEXT[t](obj))
    elif t is list or t is tuple:
        _write_list(obj, put, nl, memo)
    else:
        _write_other(obj, put, nl, memo)


def _write_other(obj: Any, put, nl: str, memo: dict) -> None:
    """:func:`_write` for any other type.

    In order: a Fraction (subclasses too) as scalar_json's pair, its own
    str as "exact"; a float as float's repr, or its own repr quoted when
    not finite; a :class:`DyadicCube`; the row views; a dict, list or
    tuple; an object's ``to_json_dict``; a str; an int as int's repr;
    else a TypeError, as in json.  ``memo`` maps (id, nl) of a frozen
    dataclass to the object and its text; holding the object keeps its
    id unique while the document is written.
    """
    if isinstance(obj, Fraction):
        put(_ratio_text(obj.numerator, obj.denominator, str(obj), nl))
    elif isinstance(obj, float):
        put(_float_text(obj))
    elif isinstance(obj, DyadicCube):
        _write_cube(obj, put, nl)
    elif isinstance(obj, CubeRows):
        _write_items(_cube_items(obj, nl + "  "), put, nl)
    elif isinstance(obj, RatioRows):
        _write_items(_ratio_items(obj, nl + "  "), put, nl)
    elif isinstance(obj, dict):
        _write_dict(obj, put, nl, memo)
    elif isinstance(obj, (list, tuple)):
        _write_list(obj, put, nl, memo)
    elif hasattr(obj, "to_json_dict"):
        if not getattr(getattr(obj, "__dataclass_params__", None), "frozen", False):
            _write(obj.to_json_dict(), put, nl, memo)
            return
        key = (id(obj), nl)
        if key not in memo:
            parts: list[str] = []
            _write(obj.to_json_dict(), parts.append, nl, memo)
            memo[key] = (obj, "".join(parts))
        put(memo[key][1])
    elif isinstance(obj, str):
        put(_encode_str(obj))
    elif isinstance(obj, int):
        put(int.__repr__(obj))
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _cube_template(level: int, n: int, nl: str) -> str:
    """%-template of an n-dimensional cube at ``level`` and indent ``nl``: spatial indices, time."""
    ind = nl + "  "
    spatial = "[" + ind + "  " + f",{ind}  ".join(["%d"] * (n - 1)) + ind + "]" if n > 1 else "[]"
    return f'{{{ind}"level": {level},{ind}"spatial": {spatial},{ind}"time": %d{nl}}}'


def _write_cube(c: DyadicCube, put, nl: str) -> None:
    if {type(c.level), type(c.time), *map(type, c.spatial)} != {int}:
        # odd field types take the general path, field by field
        _write_dict({"level": c.level, "spatial": list(c.spatial), "time": c.time}, put, nl, {})
        return
    put(_cube_template(c.level, c.n, nl) % (*c.spatial, c.time))


def _write_items(pieces, put, nl: str) -> None:
    """Write a list from text pieces at indent nl + "  ", each holding one
    item or a run of items already joined as list items.

    Each piece is put on its own, as :func:`_write_list` puts items, rather
    than joined into one string for the list first, which would hold a
    second copy of the list's text.
    """
    ind = nl + "  "
    sep = "[" + ind
    for piece in pieces:
        put(sep + piece)
        sep = "," + ind
    put("[]" if sep[0] == "[" else nl + "]")  # sep still opens the list if it is empty


# cubes formatted by one % call; a % call per cube takes three times as
# long, and runs longer than 256 save only a few percent more
_RUN = 256


def _cube_items(rows: CubeRows, nl: str):
    # runs of cubes as _write_cube writes them at indent nl, joined as list
    # items; one % call formats a run from its level's template
    for k, idx in rows.levels:
        tmpl = _cube_template(k, idx.shape[1], nl)
        for start in range(0, len(idx), _RUN):
            run = idx[start : start + _RUN]
            yield f",{nl}".join([tmpl] * len(run)) % tuple(run.ravel().tolist())


def _ratio_items(rows: RatioRows, nl: str):
    # each item as _write writes the Fraction raw/denom, or the float
    D = rows.denom
    ind = nl + "  "
    head, mid, tail = "{" + ind + '"decimal": "', '",' + ind + '"exact": "', '"' + nl + "}"
    for raw in rows.raws:
        for w in raw.tolist():
            if D is None:
                yield float.__repr__(w) if math.isfinite(w) else f'"{w!r}"'
            else:
                g = math.gcd(w, D)
                exact = f"{w // g}/{D // g}" if g != D else str(w // g)
                yield head + _decimal(w, D) + mid + exact + tail


def _write_list(seq, put, nl: str, memo: dict) -> None:
    if not seq:
        put("[]")
        return
    ind = nl + "  "
    sep = "[" + ind
    for item in seq:
        put(sep)
        _write(item, put, ind, memo)
        sep = "," + ind
    put(nl + "]")


_STR_ONLY = frozenset([str])


def _write_dict(d: dict, put, nl: str, memo: dict) -> None:
    """Write a dict with keys sorted.

    A dict whose keys are all exactly str looks its keys' sorted order
    and texts up in ``memo`` by (insertion-order key tuple, nl), made
    once per document and indent, and puts a scalar value in one piece
    with its key.  Other keys are written as their str().
    """
    if not d:
        put("{}")
        return
    ind = nl + "  "
    keys = tuple(d)
    if not _STR_ONLY.issuperset(map(type, keys)):
        sep = "{" + ind
        for k, v in sorted({str(k): v for k, v in d.items()}.items()):
            put(f"{sep}{_encode_str(k)}: ")
            _write(v, put, ind, memo)
            sep = "," + ind
        put(nl + "}")
        return
    layout = memo.get((keys, nl))
    if layout is None:
        ordered = sorted(keys)
        heads = [("," if i else "{") + ind + _encode_str(k) + ": " for i, k in enumerate(ordered)]
        layout = memo[keys, nl] = list(zip(heads, ordered))
    for head, k in layout:
        v = d[k]
        t = type(v)
        if t in _SCALAR_TEXT:
            put(head + _SCALAR_TEXT[t](v))
        elif t is Fraction:
            put(head + _fraction_text(v, ind))
        else:
            put(head)
            _write(v, put, ind, memo)
    put(nl + "}")


@dataclass
class VerificationReport:
    """Outcome of one asserted (or flagged) inequality.

    ``admissible`` records whether the claim's side condition held; when
    it did not, nothing is asserted and ``passed`` stays vacuously True.
    ``exact`` marks comparisons decided entirely in rational arithmetic.
    """

    inequality_id: str
    lhs: float
    rhs: float
    admissible: bool
    passed: bool
    exact: bool
    lhs_exact: str | None = None
    rhs_exact: str | None = None
    details: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        out = {
            "inequality-id": self.inequality_id,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "admissible": self.admissible,
            "pass": self.passed,
            "exact": self.exact,
            "details": self.details,
        }
        if self.lhs_exact is not None:
            out["lhs-exact"] = self.lhs_exact
        if self.rhs_exact is not None:
            out["rhs-exact"] = self.rhs_exact
        return out
