"""Report records and canonical serialization.

Failed mathematical assertions are reported, not raised: every check
returns a :class:`VerificationReport` whose ``inequality_id`` names the
claim being tested, so a CLI exit can say exactly which link broke.
A report object's ``to_json_dict`` returns its fields by report key as
plain values; this module alone turns them into JSON.
:func:`canonical_json` writes a whole document in one walk, and
:func:`jsonify` builds the same plain-value tree for compact dumps.
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

from .cubes import DyadicCube

__all__ = ["VerificationReport", "scalar_json", "jsonify", "canonical_json"]


def scalar_json(x: Any) -> Any:
    """JSON form of a numeric scalar.

    Ints pass through (JSON integers are exact); finite floats pass
    through (shortest-roundtrip repr is canonical); non-finite floats
    become strings; rationals become {"decimal", "exact"} pairs.
    """
    if isinstance(x, bool) or x is None or isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        try:
            dec = repr(float(x))
        except OverflowError:
            dec = "inf" if x > 0 else "-inf"
        return {"decimal": dec, "exact": str(x)}
    if isinstance(x, float):
        return x if math.isfinite(x) else repr(x)
    return x


def jsonify(obj: Any) -> Any:
    """Recursively convert package and report objects to JSON-serializable values."""
    if isinstance(obj, (Fraction, float)):
        return scalar_json(obj)
    if isinstance(obj, DyadicCube):
        return {"level": obj.level, "spatial": list(obj.spatial), "time": obj.time}
    if isinstance(obj, dict):
        return {str(k): jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonify(v) for v in obj]
    if hasattr(obj, "to_json_dict"):
        return jsonify(obj.to_json_dict())
    return obj


def canonical_json(obj: Any) -> str:
    """The canonical report text of ``obj``.

    Byte for byte ``json.dumps(jsonify(obj), sort_keys=True, indent=2)``
    plus a newline, written in one walk that appends to one list instead
    of building the :func:`jsonify` tree and running json's pure-Python
    indenting encoder over it.
    """
    parts: list[str] = []
    _write(obj, parts.append, "\n")
    parts.append("\n")
    return "".join(parts)


_encode_str = json.encoder.encode_basestring_ascii


def _write(obj: Any, put, nl: str) -> None:
    """Append the JSON text of ``obj``; ``nl`` is a newline plus the current indent.

    The branches follow :func:`jsonify`'s order and then json's rules for
    what it returns; plain str and int come first, as they have no
    ``to_json_dict``.
    """
    if obj is None:
        put("null")
    elif obj is True:
        put("true")
    elif obj is False:
        put("false")
    elif type(obj) is str:
        put(_encode_str(obj))
    elif type(obj) is int:
        put(int.__repr__(obj))
    elif isinstance(obj, (Fraction, float)):
        _write_scalar(scalar_json(obj), put, nl)
    elif isinstance(obj, DyadicCube):
        _write_cube(obj, put, nl)
    elif isinstance(obj, dict):
        _write_dict(obj, put, nl)
    elif isinstance(obj, (list, tuple)):
        _write_list(obj, put, nl)
    elif hasattr(obj, "to_json_dict"):
        _write(obj.to_json_dict(), put, nl)
    elif isinstance(obj, str):
        put(_encode_str(obj))
    elif isinstance(obj, int):
        put(int.__repr__(obj))
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _write_scalar(x: Any, put, nl: str) -> None:
    # x is what scalar_json returned for a Fraction or a float
    if isinstance(x, dict):
        ind = nl + "  "
        put(
            f'{{{ind}"decimal": {_encode_str(x["decimal"])},'
            f'{ind}"exact": {_encode_str(x["exact"])}{nl}}}'
        )
    elif isinstance(x, str):
        put(_encode_str(x))
    else:
        put(float.__repr__(x))


def _write_cube(c: DyadicCube, put, nl: str) -> None:
    if {type(c.level), type(c.time), *map(type, c.spatial)} != {int}:
        _write_dict(jsonify(c), put, nl)  # json's rules for odd field types
        return
    ind = nl + "  "
    if c.spatial:
        spatial = "[" + ind + "  " + f",{ind}  ".join(map(str, c.spatial)) + ind + "]"
    else:
        spatial = "[]"
    put(f'{{{ind}"level": {c.level},{ind}"spatial": {spatial},{ind}"time": {c.time}{nl}}}')


def _write_list(seq, put, nl: str) -> None:
    if not seq:
        put("[]")
        return
    ind = nl + "  "
    sep = "[" + ind
    for item in seq:
        put(sep)
        _write(item, put, ind)
        sep = "," + ind
    put(nl + "]")


def _write_dict(d: dict, put, nl: str) -> None:
    if not d:
        put("{}")
        return
    ind = nl + "  "
    sep = "{" + ind
    for k, v in sorted({str(k): v for k, v in d.items()}.items()):
        put(f"{sep}{_encode_str(k)}: ")
        _write(v, put, ind)
        sep = "," + ind
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
