"""Canonical serialization of reports."""

import json
import math
from fractions import Fraction

from jnplus import DyadicCube, VerificationReport, canonical_json
from jnplus.reports import jsonify, scalar_json


def test_scalar_json_forms():
    assert scalar_json(3) == 3
    assert scalar_json(True) is True
    assert scalar_json(None) is None
    assert scalar_json(0.25) == 0.25
    assert scalar_json(math.inf) == "inf"
    assert scalar_json(Fraction(3, 4)) == {"decimal": "0.75", "exact": "3/4"}


def test_jsonify_cube_and_nested():
    class Report:
        def to_json_dict(self):
            return {"root": DyadicCube(0, (0,), 0), "weight": Fraction(1, 4)}

    doc = jsonify(
        {"cube": DyadicCube(2, (1,), 5), "vals": [Fraction(1, 2), 7], "report": Report()}
    )
    assert doc == {
        "cube": {"level": 2, "spatial": [1], "time": 5},
        "vals": [{"decimal": "0.5", "exact": "1/2"}, 7],
        "report": {
            "root": {"level": 0, "spatial": [0], "time": 0},
            "weight": {"decimal": "0.25", "exact": "1/4"},
        },
    }


def test_canonical_json_stable():
    rep = VerificationReport(
        inequality_id="p1",
        lhs=0.75,
        rhs=1.0,
        admissible=True,
        passed=True,
        exact=True,
        lhs_exact="3/4",
        details={"threshold": Fraction(1, 2)},
    )
    a = canonical_json(rep)
    b = canonical_json(rep)
    assert a == b
    doc = json.loads(a)
    assert doc["inequality-id"] == "p1"
    assert doc["pass"] is True
    assert doc["lhs-exact"] == "3/4"
    assert doc["details"]["threshold"] == {"decimal": "0.5", "exact": "1/2"}
    # keys are sorted for byte-stable output
    assert list(doc) == sorted(doc)
