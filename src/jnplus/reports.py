"""Report records and canonical serialization.

Failed mathematical assertions are reported, not raised: every check
returns a :class:`VerificationReport` whose ``inequality_id`` names the
claim being tested, so a CLI exit can say exactly which link broke.
A report object's ``to_json_dict`` returns its fields by report key as
plain values; this module alone turns them into JSON.  A long list of
like items (a witness's cubes or weights, a sweep's reports, a theorem
run's records) is one :class:`Rows`: columns, a form holding what every
item shares and a :class:`Slot` per column, and an order.
:func:`canonical_json` writes a document in one walk, a :class:`Rows`
from its form's %-template without an object per item; the walk that
writes the form marks each slot, so the template is made in that walk;
:func:`scalar_json` maps one number to its JSON value.  The text is
canonical (sorted keys, stable float repr, exact rational strings beside
decimals in fixed mode), and :func:`_lowest` alone forms a rational's
"decimal" and "exact" strings; :func:`_rational` reduces a pair for it.
"""

from __future__ import annotations

import json
import math
import sys
from collections import UserDict
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Any, Callable

import numpy as np

from .cubes import DyadicCube
from .errors import OutOfDomainError
from .grid import Thresholds, _digits

__all__ = [
    "VerificationReport",
    "Slot",
    "Ratios",
    "Rows",
    "cube_rows",
    "scalar_json",
    "canonical_json",
]


@dataclass(frozen=True)
class Slot:
    """The place of column ``name``'s value in a :class:`Rows` form.

    The writer puts a mark where it reaches a slot, so the walk that
    writes a form also finds each slot and the indent of its line.
    """

    name: str


@dataclass(frozen=True, eq=False)
class Ratios:
    """A column of rationals over one denominator: entry j is
    ``nums[j] / den`` (den > 0), read as a Fraction and written from the
    pair without one.  ``nums`` is a list or an object array of Python ints."""

    nums: Any
    den: int

    def __len__(self) -> int:
        return len(self.nums)

    def __getitem__(self, j):
        if isinstance(j, slice):
            return Ratios(self.nums[j], self.den)
        return Fraction(self.nums[j], self.den)

    def floats(self) -> list[float]:
        """Each entry's float, rounded once as float(Fraction) rounds it."""
        return [num / self.den for num in self.nums]


@dataclass(frozen=True, eq=False)
class Rows:
    """A long list of like items, held as columns.

    ``columns`` (a dict, or :class:`_Columns` made when first read) maps
    each name to its values by ascending index, all of one length: a
    list, a numpy array, a :class:`Ratios` or a lam list
    (:class:`~jnplus.grid.Thresholds`).  ``form`` is an item with
    ``Slot(name)`` in place of each column's value, so what every item
    shares is held once.  ``order`` gives item i's ascending index
    ``order[i]``, a ``range`` for a list in its own order.  Item i is the
    form filled at that index and passed through ``make`` when one is
    given; indexing, iterating and ``expand()`` build items, and the
    writer builds none.
    """

    form: Any
    columns: Mapping[str, Any]
    order: Sequence[int]
    make: Callable | None = None

    def __len__(self) -> int:
        return len(self.order)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self._item(j) for j in self.order[i]]
        return self._item(self.order[i])

    def __iter__(self):
        return map(self._item, self.order)

    def expand(self) -> list:
        return list(self)

    @cached_property
    def _build(self) -> Callable[[int], Any]:
        # a numpy column's entries as Python scalars, a Ratios column's as Fractions, made once
        values = {name: col.tolist() if isinstance(col, np.ndarray) else list(col)
                  for name, col in self.columns.items()}
        return _builder(self.form, values)

    def _item(self, j: int):
        item = self._build(j)
        return item if self.make is None else self.make(item)


def _builder(form, values: dict) -> Callable[[int], Any]:
    """The function of an ascending index j that gives ``form`` with each
    slot filled by entry j of its column in ``values``: the form is walked
    once per list, not once per item."""
    t = type(form)
    if t is Slot:
        return values[form.name].__getitem__
    if t is list:
        parts = [_builder(v, values) for v in form]
        return lambda j: [at(j) for at in parts]
    if t is dict:
        pairs = [(k, _builder(v, values)) for k, v in form.items()]
        return lambda j: {k: at(j) for k, at in pairs}
    if t is VerificationReport:
        fields = _builder(vars(form), values)
        return lambda j: VerificationReport(**fields(j))
    return lambda j: form


class _Columns(UserDict):
    """The columns of a :class:`Rows`, made by ``make()`` when first read:
    a witness that nothing reads (a verify run reads only its seminorm's
    value) keeps its parts and is never joined."""

    def __init__(self, make: Callable[[], dict[str, Any]]) -> None:
        self._make = make

    @cached_property
    def data(self) -> dict[str, Any]:
        data, self._make = self._make(), None
        return data


def cube_rows(levels: list[tuple[int, np.ndarray]]) -> Rows:
    """The dyadic cubes given per level as one :class:`Rows` of ``DyadicCube`` items.

    ``levels`` pairs a level k with an (m, n) integer array whose rows
    are cubes' absolute level-k indices, spatial ones first and time
    last; the cubes keep that order.  The columns ``level``, ``spatial-i``
    per spatial axis and ``time`` are joined when first read.
    """
    n, m = levels[0][1].shape[1], sum(len(rows) for _, rows in levels)
    return Rows(_cube_form(n), _Columns(lambda: _cube_columns(levels, n)), range(m), _cube)


def _cube_columns(levels: list[tuple[int, np.ndarray]], n: int) -> dict[str, np.ndarray]:
    idx = np.concatenate([rows for _, rows in levels])
    columns = {f"spatial-{i}": idx[:, i] for i in range(n - 1)}
    columns["time"] = idx[:, -1]
    # a level fits a byte: the column of a 53,071-cube witness takes 53 KB, not 425 KB
    ks = np.array([k for k, _ in levels], dtype=np.uint8)
    columns["level"] = np.repeat(ks, [len(rows) for _, rows in levels])
    return columns


@lru_cache
def _cube_form(n: int) -> dict:
    # one form per dimension, so the writer reads its template once per document
    spatial = [Slot(f"spatial-{i}") for i in range(n - 1)]
    return {"level": Slot("level"), "spatial": spatial, "time": Slot("time")}


def _cube(d: dict) -> DyadicCube:
    return DyadicCube(d["level"], tuple(d["spatial"]), d["time"])


def _rational(num: int, den: int) -> tuple[str, str]:
    """The "decimal" and "exact" strings of the rational num/den, any pair
    with den > 0: reduced by its gcd, then written by :func:`_lowest`."""
    g = math.gcd(num, den)
    return _lowest(num // g, den // g) if g != 1 else _lowest(num, den)


def _lowest(num: int, den: int) -> tuple[str, str]:
    """The "decimal" and "exact" strings of num/den in lowest terms (den > 0):
    repr(float(num/den)), or "inf"/"-inf" past the float range, and
    str(Fraction(num, den)).  The one place they are formed; a Fraction's
    and a threshold list's ratios come in lowest terms and are written
    from here directly.

    Int true division rounds correctly, as float(Fraction) does.  An
    exact string past Python's limit on int-to-str digits is an
    OutOfDomainError naming its digit count; the limit stays as it is.
    """
    try:
        exact = f"{num}/{den}" if den != 1 else int.__repr__(num)
    except ValueError:
        raise OutOfDomainError(
            f"an exact value of {max(_digits(num), _digits(den))} digits has no text "
            f"under Python's limit of {sys.get_int_max_str_digits()} digits"
        ) from None
    try:
        return repr(num / den), exact
    except OverflowError:
        return ("inf" if num > 0 else "-inf"), exact


def scalar_json(x: Any) -> Any:
    """JSON form of a numeric scalar.

    Ints pass through (JSON integers are exact); finite floats pass
    through (shortest-roundtrip repr is canonical); non-finite floats
    become strings; rationals become {"decimal", "exact"} pairs.
    """
    if isinstance(x, Fraction):
        decimal, exact = _lowest(x.numerator, x.denominator)
        return {"decimal": decimal, "exact": exact}
    if isinstance(x, float):
        return x if math.isfinite(x) else repr(x)
    return x


def canonical_json(obj: Any) -> str:
    """The canonical report text of ``obj``.

    Sorted keys, an indent of 2 and a final newline, written in one walk
    that appends to one list, as :func:`_write` maps each value.  The
    sorted key layout of dicts with the same str keys is made once per
    indent, and a :class:`Rows` form's template once per indent.
    """
    parts: list[str] = []
    _write(obj, parts.append, "\n", {})
    parts.append("\n")
    return "".join(parts)


_encode_str = json.encoder.encode_basestring_ascii


def _float_text(x: float) -> str:
    return float.__repr__(x) if math.isfinite(x) else f'"{x!r}"'


def _ratio_text(strings: tuple[str, str], nl: str) -> str:
    # scalar_json's {"decimal", "exact"} pair, as _write_dict writes it at indent nl
    decimal, exact = strings
    ind = nl + "  "
    return f'{{{ind}"decimal": "{decimal}",{ind}"exact": "{exact}"{nl}}}'


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
    object, a :class:`Rows`) takes :func:`_write_other`.
    """
    t = type(obj)
    if t is dict:
        _write_dict(obj, put, nl, memo)
    elif t is Fraction:
        put(_ratio_text(_lowest(obj.numerator, obj.denominator), nl))
    elif t in _SCALAR_TEXT:
        put(_SCALAR_TEXT[t](obj))
    elif t is list or t is tuple:
        _write_list(obj, put, nl, memo)
    else:
        _write_other(obj, put, nl, memo)


def _write_other(obj: Any, put, nl: str, memo: dict) -> None:
    """:func:`_write` for any other type.

    In order: a Fraction (subclasses too) as scalar_json's pair; a float
    as float's repr, or its own repr quoted when not finite; a
    :class:`DyadicCube`; a :class:`Rows`; a :class:`Slot` of a form as
    the mark (its column's name, ``nl``) that :func:`_write_rows` makes
    a %s; a dict, list or tuple; an object's ``to_json_dict``; a str; an
    int as int's repr; else a TypeError, as in json.
    """
    if isinstance(obj, Fraction):
        put(_ratio_text(_lowest(obj.numerator, obj.denominator), nl))
    elif isinstance(obj, float):
        put(_float_text(obj))
    elif isinstance(obj, DyadicCube):
        cube = {"level": obj.level, "spatial": list(obj.spatial), "time": obj.time}
        _write_dict(cube, put, nl, memo)
    elif isinstance(obj, Rows):
        _write_rows(obj, put, nl, memo)
    elif isinstance(obj, Slot):
        put((obj.name, nl))
    elif isinstance(obj, dict):
        _write_dict(obj, put, nl, memo)
    elif isinstance(obj, (list, tuple)):
        _write_list(obj, put, nl, memo)
    elif hasattr(obj, "to_json_dict"):
        _write(obj.to_json_dict(), put, nl, memo)
    elif isinstance(obj, str):
        put(_encode_str(obj))
    elif isinstance(obj, int):
        put(int.__repr__(obj))
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _text(obj: Any, nl: str, memo: dict) -> str:
    parts: list[str] = []
    _write(obj, parts.append, nl, memo)
    return "".join(parts)


def _take(col, ids: Sequence[int]):
    """The entries of a column at ``ids`` as a column of its kind; a range of ids is a slice."""
    if isinstance(ids, range):
        return col if len(ids) == len(col) else col[ids.start : ids.stop]
    if isinstance(col, Ratios):
        return Ratios(_take(col.nums, ids), col.den)
    if isinstance(col, Thresholds):
        return Thresholds(_take(col.ratios, ids), col.exact)
    return col[ids] if isinstance(col, np.ndarray) else [col[j] for j in ids]


def _texts(values, nl: str, memo: dict, known: dict) -> list:
    """Each value's text at indent ``nl``, for a %s slot.

    An int stands for its own text, as %s of a plain int is its JSON
    text, so an integer array needs no pass.  ``known`` maps a
    denominator and an indent to the texts of numerators over it.
    """
    if isinstance(values, Thresholds):
        if values.exact:
            return [_ratio_text(_lowest(num, den), nl) for num, den in values.ratios]
        values = values.floats()
    if isinstance(values, Ratios):
        # over one denominator (counts, weights) values repeat: each text made once
        texts = known.setdefault((values.den, nl), {})
        for num in dict.fromkeys(values.nums):
            if num not in texts:
                texts[num] = _ratio_text(_rational(num, values.den), nl)
        return list(map(texts.__getitem__, values.nums))
    if isinstance(values, np.ndarray):
        if values.dtype.kind in "iu":
            return values.tolist()
        values = values.tolist()
    kinds = set(map(type, values))
    if kinds == {float} and all(map(math.isfinite, values)):
        return list(map(float.__repr__, values))  # half the time of _float_text per value
    if len(kinds) == 1 and (to_text := _SCALAR_TEXT.get(kinds.pop())):
        return list(map(to_text, values))
    # an empty list (a report's failed ids, mostly) needs no walk
    return [_text(v, nl, memo) if v or type(v) is not list else "[]" for v in values]


# items whose texts are made at once, and items formatted by one % call
# when all of an item's values are ints (a cube): a call per cube took three
# times as long, and runs longer than 256 saved only a few percent more
_RUN = 256
# items of any other form formatted by one % call.  A sweep's 73 reports in
# one call ran no faster, and their strings of ~100 KB raised the peak RSS
# of a corpus-chain lap by 2-3 MB, as theorem records in runs of 63 (~16 KB)
# raised it by ~1 MB; runs of 8 stay near 10 KB
_RECORD_RUN = 8


def _write_rows(rows: Rows, put, nl: str, memo: dict) -> None:
    """Write a :class:`Rows` as a list, from one %-template for its items.

    The template is the form as :func:`_write` writes it at the items'
    indent, with a %s at each slot's mark, made once per form and indent
    in a document; the mark holds the slot's column and the indent of its
    line.  Each column's texts fill its slot, at the slot's own indent, a
    block of ``_RUN`` items at a time; ``known``
    keeps the texts of numerators over one denominator for the whole
    list.  One % call formats a run of items, and each run is put on its
    own rather than joined into one string for the list first, which
    would hold a second copy of the list's text.  A bare value per item
    (a weight) is put on its own, as :func:`_write_list` puts items:
    weights joined into runs raised the peak RSS of a seminorm-deep run
    by ~5 MB.
    """
    m = len(rows)
    if not m:
        put("[]")
        return
    ind = nl + "  "
    key = (id(rows.form), ind)
    if key not in memo:  # the form's template and its slots' marks; the entry holds the form alive
        parts: list = []
        _write(rows.form, parts.append, ind, memo)
        template = "".join("%s" if type(part) is tuple else part.replace("%", "%%") for part in parts)
        memo[key] = (rows.form, template, [part for part in parts if type(part) is tuple])
    _, template, slots = memo[key]
    columns = rows.columns
    ints = all(isinstance(col, np.ndarray) and col.dtype.kind in "iu" for col in columns.values())
    k, run = len(slots), _RUN if ints else _RECORD_RUN
    sep, full = "[" + ind, f",{ind}".join([template] * run)
    known: dict = {}
    for lo in range(0, m, _RUN):
        ids = rows.order[lo : lo + _RUN]
        flat = [None] * (k * len(ids))  # the block's slot texts, item by item
        for s, (name, nl_s) in enumerate(slots):
            flat[s::k] = _texts(_take(columns[name], ids), nl_s, memo, known)
        if template == "%s":
            for text in flat:
                put(f"{sep}{text}")
                sep = "," + ind
            continue
        for start in range(0, len(ids), run):
            stop = min(start + run, len(ids))
            text = full if stop - start == run else f",{ind}".join([template] * (stop - start))
            put(sep + text % tuple(flat[start * k : stop * k]))
            sep = "," + ind
    put(nl + "]")


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
            put(head + _ratio_text(_lowest(v.numerator, v.denominator), ind))
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
