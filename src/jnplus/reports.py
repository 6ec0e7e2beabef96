"""Report records and canonical serialization.

Failed mathematical assertions are reported, not raised: every check
returns a :class:`VerificationReport` whose ``inequality_id`` names the
claim being tested, so a CLI exit can say exactly which link broke.
A report object's ``to_json_dict`` returns its fields by report key as
plain values; :func:`jsonify` is the only converter, and
:func:`canonical_json` runs it once over the whole document.
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
    return json.dumps(jsonify(obj), sort_keys=True, indent=2) + "\n"


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
