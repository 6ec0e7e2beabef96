"""Canonical serialization of reports."""

import enum
import json
import math
from decimal import Decimal
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from helpers import oracle_canonical_json, random_fixed_grid
from jnplus import (
    DyadicCube,
    GridFunction,
    VerificationReport,
    antichain_oracle,
    bmo_plus_dyadic,
    bmo_plus_limit_form,
    canonical_json,
    jnp_classical_dyadic,
    jnp_plus_dyadic,
    root_cube,
    scale_values,
)
from jnplus.reports import CubeRows, RatioRows, jsonify, scalar_json


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


class _Nested:
    """A report object whose to_json_dict holds another report object."""

    def __init__(self, depth):
        self.depth = depth

    def to_json_dict(self):
        inner = _Nested(self.depth - 1) if self.depth else {"leaf": (DyadicCube(1, (), 2),)}
        return {"depth": self.depth, "inner": inner, "w": Fraction(-7, 3)}


class _DictReport(dict):
    # jsonify treats a dict subclass as a dict, even with to_json_dict
    def to_json_dict(self):
        return {"never": "used"}


class _Level(enum.IntEnum):
    TOP = 3


class _Tag(str):
    pass


WRITER_CASES = [
    {},
    [],
    (),
    {"empty-dict": {}, "empty-list": [], "empty-tuple": ()},
    [[], [[]], {}, [{}]],
    "",
    0,
    None,
    True,
    False,
    [True, 1, False, 0, None, 1.0, 0.0, -0.0],
    {"b": True, "a": 1, "c": 2**70, "d": -(2**70)},
    DyadicCube(0, (), 0),
    [DyadicCube(3, (), 17), DyadicCube(2, (1,), 5), DyadicCube(2, (3, 0), 11)],
    {"spatial-1d": DyadicCube(1, (), 0), "spatial-3d": DyadicCube(1, (0, 1, 1), 4)},
    [math.inf, -math.inf, math.nan, 1e308, 5e-324, 0.1, 1e16, 123456789.0],
    [Fraction(3, 4), Fraction(-1, 3), Fraction(0), Fraction(5), Fraction(1, 10**400)],
    [Fraction(10**400), Fraction(-(10**400), 3), Fraction(2**1024 - 1)],
    [np.float64(0.5), np.float64(-1e-300), np.float64(np.inf), np.float64(np.nan)],
    {"np": {"x": np.float64(2.0), "y": [np.float64(-np.inf)]}},
    ["é", "日本語", "\U0001f600", "tab\there", "nl\n", "nul\x00", "\x1f\x7f", 'q"\\/'],
    {"é-key": 1, "\x00": 2, "日": 3, "A": 4, "a": 5, "": 6, "Z": 7},
    {1: "int key", "2": "str key", None: "none key", 2.5: "float key", True: "bool key"},
    (1, (2, (3, [4, (5,)])), ()),
    {"t": (Fraction(1, 2), DyadicCube(0, (0,), 2)), "l": [Fraction(1, 2)]},
    _Nested(0),
    _Nested(3),
    [_Nested(1), {"report": _Nested(2)}],
    _DictReport(z=1, a=[Fraction(1, 8)]),
    {"int-subclass": _Level.TOP, "str-subclass": _Tag("tag\u00e9"), _Tag("k"): [_Level.TOP]},
    VerificationReport("p6", math.inf, 0.5, False, True, False, details={"k": [1, 2]}),
]


@pytest.mark.parametrize("doc", WRITER_CASES, ids=range(len(WRITER_CASES)))
def test_canonical_json_matches_json_encoder(doc):
    assert canonical_json(doc) == oracle_canonical_json(doc)


class _Holder:
    def __init__(self, value):
        self.value = value

    def to_json_dict(self):
        return {"value": self.value}


REJECTED = {
    "int64": np.int64(3),
    "float32": np.float32(0.5),
    "bool_": np.bool_(True),
    "Decimal": Decimal("1.5"),
    "set": {1, 2},
    "object": object(),
    "bytes": b"x",
    "cube-int64-level": DyadicCube(np.int64(1), (), 0),
    "cube-int64-spatial": DyadicCube(1, (np.int64(0),), 0),
}


@pytest.mark.parametrize("bad", REJECTED.values(), ids=REJECTED.keys())
def test_canonical_json_rejects_what_json_rejects(bad):
    for doc in (bad, [bad], {"k": bad}, _Holder(bad)):
        with pytest.raises(TypeError) as oracle:
            oracle_canonical_json(doc)
        with pytest.raises(TypeError) as writer:
            canonical_json(doc)
        assert str(writer.value) == str(oracle.value)


def _seminorm_grids(n, L):
    """A fixed grid constant on the first half of Q0 in time (zero classical
    weights there), its f64 copy, copies scaled by 2^40 (Python-int
    numerators) and 2^600 (weights past the float range), and an f64 copy
    whose weights overflow to inf."""
    f = random_fixed_grid(np.random.default_rng(20 + n), n, L)
    vals = np.array(f.values)
    vals[..., : 1 << (L - 1)] = 3
    f = GridFunction(n, L, vals, "fixed", f.denom)
    yield f
    yield GridFunction(n, L, vals / f.denom, "f64")
    yield scale_values(f, 1 << 40)
    yield scale_values(f, 1 << 600)
    yield GridFunction(n, L, vals * 1e300, "f64")


@pytest.mark.parametrize("n,L", [(1, 3), (1, 9), (2, 2), (3, 1)])
def test_seminorm_witness_rows_match_json_encoder(n, L):
    rational, plain = set(), set()  # the "decimal" of each rational weight; float weights
    for i, f in enumerate(_seminorm_grids(n, L)):
        for root in (root_cube(n), DyadicCube(1, (1,) * (n - 1), 1)):
            ps = (2, Fraction(3, 2))
            runs = [partial(fn, f, p, root) for fn in (jnp_plus_dyadic, jnp_classical_dyadic)
                    for p in ps]
            runs += [partial(fn, f, root) for fn in (bmo_plus_dyadic, bmo_plus_limit_form)]
            if i < 3 and n * L <= 4:  # fixed, f64 and 2^40-scaled grids small enough to enumerate
                runs += [partial(antichain_oracle, f, p, root, fn)
                         for fn in ("jnp-plus", "jnp-classical") for p in ps]
            for run in runs:
                with np.errstate(over="ignore"):
                    fresh, expanded = run(), run()
                cubes, weights = expanded.witness.expand(), expanded.witness_weights.expand()
                texts = []
                for r in (fresh, expanded):
                    assert isinstance(r.witness, CubeRows)
                    assert isinstance(r.witness_weights, RatioRows)
                    nested = {"result": [r], "size": len(r.witness)}
                    assert canonical_json(nested) == oracle_canonical_json(nested)
                    texts.append(canonical_json(r))
                    assert texts[-1] == oracle_canonical_json(r)
                assert texts[0] == texts[1]  # expanding the views first changes nothing
                assert cubes == fresh.witness.expand() and len(weights) == len(cubes)
                assert len(cubes) == fresh.details.get("witness-size", len(cubes))
                for w in jsonify(fresh)["witness-weights"]:
                    if isinstance(w, dict):
                        rational.add(w["decimal"])
                    else:
                        plain.add(w)
    # zero weights, finite ones, and weights past the float range, in both forms
    assert {"0.0", "inf"} < rational
    assert {0.0, "inf"} < plain
