"""Report records and canonical serialization.

Failed mathematical assertions are reported, not raised: every check
returns a :class:`VerificationReport` whose ``inequality_id`` names the
claim being tested, so a CLI exit can say exactly which link broke.
A report object's ``to_json_dict`` returns its fields by report key as
plain values; this module alone turns them into JSON.  Long lists of
cubes and of rationals can come as :class:`CubeRows` and
:class:`RatioRows`, per-level arrays that :func:`canonical_json` writes
without making an object per item, and the per-lam records of a sweep
and of a theorem run as :class:`LemmaRows` and :class:`TheoremRows`,
columns that it writes from one template per view.
:func:`canonical_json` writes a whole document in one walk;
:func:`scalar_json` maps one number to its JSON value, for a compact
dump of a few scalars.
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
from .grid import Thresholds

__all__ = [
    "VerificationReport",
    "CubeRows",
    "RatioRows",
    "LemmaRows",
    "TheoremRows",
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


class _LambdaRows:
    """Items held as columns by ascending lam index: item i is the one
    that ``_item`` builds at index ``order[i]``."""

    def __len__(self) -> int:
        return len(self.order)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self._item(j) for j in self.order[i]]
        return self._item(self.order[i])

    def __iter__(self):
        return map(self._item, self.order)


@dataclass(frozen=True, eq=False)
class LemmaRows(_LambdaRows):
    """The decay-step reports of one sweep, held as columns.

    Per ascending lam index j: ``lams`` and ``blams`` (the b*lams) as
    :class:`jnplus.grid.Thresholds`, the cell counts of E(lam) and
    E(b*lam) over ``cells``, the main inequality's right side ``rhs``,
    the flags ``main_ok``, ``p6_ok`` and ``p8_ok`` and the stopping-cube
    count ``stops``.  Below the first admissible index ``i0`` nothing
    is asserted: the flags are True and the count is 0.  ``params``,
    ``K``, ``K_weight`` and ``exact`` are shared by every report.
    Report i is the one at ascending index ``order[i]``; indexing or
    iterating builds it as a :class:`VerificationReport`.
    """

    lams: Thresholds
    blams: Thresholds
    order: list[int]
    i0: int
    cells: int
    E_counts: list[int]
    B_counts: list[int]
    rhs: list[float]
    main_ok: list[bool]
    p6_ok: list[bool]
    p8_ok: list[bool]
    stops: list[int]
    params: Any
    K: float
    K_weight: Any
    exact: bool

    def admissible_count(self) -> int:
        return len(self.order) - self.i0

    def failed_ids(self) -> list[str]:
        """The checks that failed at some lam, sorted."""
        return sorted(name for name, ok in self._checks() if not all(ok))

    def _checks(self):
        return (("Lemma", self.main_ok), ("p6", self.p6_ok), ("p8", self.p8_ok))

    def _failed(self, j: int) -> list[str]:
        return [name for name, ok in self._checks() if not ok[j]]

    def _item(self, j: int) -> VerificationReport:
        cE, cells = self.E_counts[j], self.cells
        E_lam = Fraction(cE, cells)
        failed = self._failed(j)
        return VerificationReport(
            inequality_id="Lemma",
            lhs=cE / cells,
            rhs=self.rhs[j],
            admissible=j >= self.i0,
            passed=not failed,
            exact=self.exact,
            lhs_exact=str(E_lam) if self.lams.exact else None,
            details={
                "lambda": self.lams[j],
                "b-lambda": self.blams[j],
                "params": self.params,
                "K": self.K,
                "K-weight": self.K_weight,
                "E-lambda": E_lam,
                "E-b-lambda": Fraction(self.B_counts[j], cells),
                "stopping-count": self.stops[j],
                "p6-pass": self.p6_ok[j],
                "p8-pass": self.p8_ok[j],
                "failed-ids": failed,
            },
        )


@dataclass(frozen=True, eq=False)
class TheoremRows(_LambdaRows):
    """The per-lam records of one theorem run, held as columns.

    Per ascending lam index j: ``lams`` as a
    :class:`jnplus.grid.Thresholds`, the cell counts of E_grid, E_aug and
    the distribution set over ``cells``, the measure ``bound``, the
    ``passed`` flag and the proof ``branch``.  Record i is the one at
    ascending index ``order[i]``; indexing or iterating builds it as a
    dict.
    """

    lams: Thresholds
    order: list[int]
    cells: int
    grid_counts: list[int]
    aug_counts: list[int]
    dist_counts: list[int]
    bound: list[float]
    passed: list[bool]
    branch: list[str]

    def _item(self, j: int) -> dict:
        cells = self.cells
        return {
            "lambda": self.lams[j],
            "E-grid": Fraction(self.grid_counts[j], cells),
            "E-aug": Fraction(self.aug_counts[j], cells),
            "dist": Fraction(self.dist_counts[j], cells),
            "bound": self.bound[j],
            "pass": self.passed[j],
            "branch": self.branch[j],
        }


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


_BOOL_TEXT = {True: "true", False: "false"}

# the text of a value of exactly one of these types, at any indent
_SCALAR_TEXT = {
    str: _encode_str,
    int: int.__repr__,
    float: _float_text,
    bool: _BOOL_TEXT.__getitem__,
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
    elif isinstance(obj, LemmaRows):
        _write_items(_lemma_items(obj, nl + "  ", memo), put, nl)
    elif isinstance(obj, TheoremRows):
        _write_items(_theorem_items(obj, nl + "  ", memo), put, nl)
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


def _threshold_texts(lams: Thresholds, nl: str) -> list[str]:
    # each lam as _write writes its Fraction (from the ratio) or float, as a value at indent nl
    if not lams.exact:
        return [_float_text(x) for x in lams.floats()]
    return [_ratio_text(n, d, f"{n}/{d}" if d != 1 else str(n), nl) for n, d in lams.ratios]


def _exact_text(count: int, cells: int) -> str:
    # str(Fraction(count, cells))
    g = math.gcd(count, cells)
    return f"{count // g}/{cells // g}" if g != cells else str(count // g)


def _count_texts(counts: list[int], cells: int, nl: str, memo: dict) -> list[str]:
    # each Fraction count/cells as _write writes it at indent nl; memo maps a
    # count to its text, made once per distinct count
    out = []
    for c in counts:
        text = memo.get(c)
        if text is None:
            text = memo[c] = _ratio_text(c, cells, _exact_text(c, cells), nl)
        out.append(text)
    return out


# records formatted by one % call.  A sweep's 73 records in one call ran no
# faster, and its strings of ~100 KB raised the peak RSS of a corpus-chain
# lap by 2-3 MB, while Python's own peak fell; runs of 8 stay near 10 KB
_RECORD_RUN = 8


def _record_items(first: dict, columns: dict, order: list[int], nl: str, memo: dict):
    """Runs of a row view's records in ``order``, as :func:`_write` writes each at indent nl.

    ``columns`` maps each per-record key ("outer/inner" inside a nested
    dict) to its value texts by ascending lam index.  The template is
    the record ``first`` as :func:`_write_dict` writes it, with a %s slot
    for each such key, so every value the records share is written once;
    one % call formats a run of records from it.
    """
    sample = dict(first)
    for name in columns:
        outer, _, inner = name.rpartition("/")
        d = sample
        if outer:
            d = sample[outer] = dict(sample[outer])
        d[inner] = "\0" + name  # a str no report holds
    parts: list[str] = []
    _write_dict(sample, parts.append, nl, memo)
    template = "".join(parts).replace("%", "%%")
    marks = {name: _encode_str("\0" + name) for name in columns}
    names = sorted(columns, key=lambda name: template.index(marks[name]))
    for mark in marks.values():
        template = template.replace(mark, "%s")
    k = len(names)
    flat = [""] * (k * len(order))
    for s, name in enumerate(names):
        col = columns[name]
        flat[s::k] = [col[j] for j in order]
    for start in range(0, len(order), _RECORD_RUN):
        stop = min(start + _RECORD_RUN, len(order))
        yield f",{nl}".join([template] * (stop - start)) % tuple(flat[start * k : stop * k])


def _lemma_items(rows: LemmaRows, nl: str, memo: dict):
    # the reports of a sweep as _write writes each VerificationReport at indent nl
    if not len(rows):
        return
    ind2 = nl + "    "  # the details' keys
    counts: dict[int, str] = {}
    passed = [a and b and c for a, b, c in zip(rows.main_ok, rows.p6_ok, rows.p8_ok)]
    columns = {
        "admissible": ["false"] * rows.i0 + ["true"] * (len(rows.E_counts) - rows.i0),
        "lhs": [float.__repr__(c / rows.cells) for c in rows.E_counts],
        "pass": [_BOOL_TEXT[ok] for ok in passed],
        "rhs": [_float_text(x) for x in rows.rhs],
        "details/lambda": _threshold_texts(rows.lams, ind2),
        "details/b-lambda": _threshold_texts(rows.blams, ind2),
        "details/E-lambda": _count_texts(rows.E_counts, rows.cells, ind2, counts),
        "details/E-b-lambda": _count_texts(rows.B_counts, rows.cells, ind2, counts),
        "details/stopping-count": [int.__repr__(c) for c in rows.stops],
        "details/p6-pass": [_BOOL_TEXT[ok] for ok in rows.p6_ok],
        "details/p8-pass": [_BOOL_TEXT[ok] for ok in rows.p8_ok],
        "details/failed-ids": [
            "[]" if ok else _list_text(rows._failed(j), ind2, memo) for j, ok in enumerate(passed)
        ],
    }
    if rows.lams.exact:
        columns["lhs-exact"] = [f'"{_exact_text(c, rows.cells)}"' for c in rows.E_counts]
    yield from _record_items(rows[0].to_json_dict(), columns, rows.order, nl, memo)


def _theorem_items(rows: TheoremRows, nl: str, memo: dict):
    # the records of a theorem run as _write writes each record dict at indent nl
    if not len(rows):
        return
    ind = nl + "  "
    counts: dict[int, str] = {}
    columns = {
        "lambda": _threshold_texts(rows.lams, ind),
        "E-grid": _count_texts(rows.grid_counts, rows.cells, ind, counts),
        "E-aug": _count_texts(rows.aug_counts, rows.cells, ind, counts),
        "dist": _count_texts(rows.dist_counts, rows.cells, ind, counts),
        "bound": [_float_text(x) for x in rows.bound],
        "pass": [_BOOL_TEXT[ok] for ok in rows.passed],
        "branch": [_encode_str(b) for b in rows.branch],
    }
    yield from _record_items(rows[0], columns, rows.order, nl, memo)


def _list_text(seq, nl: str, memo: dict) -> str:
    parts: list[str] = []
    _write_list(seq, parts.append, nl, memo)
    return "".join(parts)


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
