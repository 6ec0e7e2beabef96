"""Canonical serialization of reports."""

import enum
import json
import math
import sys
from dataclasses import dataclass, replace
from decimal import Decimal
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from helpers import failing_sweep, jsonify, oracle_canonical_json, random_fixed_grid
from jnplus import (
    DyadicCube,
    GeneratorSpec,
    GridFunction,
    LemmaContext,
    VerificationReport,
    antichain_oracle,
    bmo_plus_dyadic,
    bmo_plus_limit_form,
    canonical_json,
    cz_decompose,
    default_lambda_grid,
    default_manifest,
    gen,
    good_lambda_check,
    jnp_classical_dyadic,
    jnp_plus_dyadic,
    lemma_params,
    lemma_sweep,
    root_cube,
    scale_values,
    theorem_check,
)
from jnplus.errors import OutOfDomainError
from jnplus import reports
from jnplus.reports import Ratios, Rows, Slot, _rational, scalar_json


def test_scalar_json_forms():
    assert scalar_json(3) == 3
    assert scalar_json(True) is True
    assert scalar_json(None) is None
    assert scalar_json(0.25) == 0.25
    assert scalar_json(math.inf) == "inf"
    assert scalar_json(Fraction(3, 4)) == {"decimal": "0.75", "exact": "3/4"}


@pytest.mark.parametrize(
    "num,den",
    [(0, 7), (12, 1), (12, 8), (-6, 4), (1, 10**400), (-(10**400), 3), (10**400, 4 * 10**399)],
    ids=["zero", "integer", "unreduced", "negative", "below-float-range", "past-float-range", "past-reduced"],
)
def test_rational_strings_match_fraction_and_float(num, den):
    """The one function forming a rational's "decimal" and "exact" strings,
    from any (num, den) with den > 0: float's repr, or inf past the float
    range, and the Fraction's str."""
    x = Fraction(num, den)
    decimal, exact = _rational(num, den)
    assert exact == str(x)
    try:
        assert decimal == repr(float(x))
    except OverflowError:
        assert decimal == ("inf" if x > 0 else "-inf")
    assert scalar_json(x) == {"decimal": decimal, "exact": exact}


@pytest.mark.parametrize(
    "num,den", [(10**5000, 1), (-1, 10**5000), (10**5000 + 1, 3)], ids=["num", "den", "both"]
)
def test_rational_strings_past_the_digit_limit_name_the_digits(num, den):
    """An exact string longer than Python writes out is an error naming its
    digit count, and the limit is left as it is."""
    limit = sys.get_int_max_str_digits()
    with pytest.raises(OutOfDomainError, match="^an exact value of 5001 digits has no text"):
        _rational(num, den)
    assert sys.get_int_max_str_digits() == limit


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


@dataclass(frozen=True)
class _Frozen:
    """A frozen report object whose to_json_dict makes a fresh one."""

    k: int

    def to_json_dict(self):
        return {"k": self.k, "inner": _Frozen(self.k - 1) if self.k else [Fraction(1, 3)]}


_PARAMS = lemma_params(2, 3, Fraction(1, 8))


class _Level(enum.IntEnum):
    TOP = 3


class _Tag(str):
    pass


class _Renamed(str):
    # jsonify writes a key as str(key)
    def __str__(self):
        return "renamed-" + str.__str__(self)


_THIRD = Fraction(-7, 3)


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
    {"a": [_PARAMS, _PARAMS], "b": _PARAMS, "c": [{"d": _PARAMS}, [_PARAMS]]},
    [_Frozen(3), _Frozen(2), [_Frozen(3)], _Frozen(0), {"x": _Frozen(1)}],
    # dicts of one key set share a sorted key layout per indent
    {
        "records": [{"lam": Fraction(k, 3), "pass": k % 2 == 0, "n": k} for k in range(3)],
        "nested": [
            [{"n": 9, "pass": False, "lam": Fraction(9)}],
            {"n": -1, "lam": 0.5, "pass": None},
        ],
    },
    [{"x": 1, "y": "a", "z": [1.5]}, {"z": [2.5], "y": "b", "x": 2}, {"y": "c", "x": 3, "z": []}],
    [{"k": 1, "j": 2}, {_Tag("k"): 3, "j": 4}, {"k": 5, _Tag("j"): 6}],
    [{"k": 1, "j": 2}, {_Renamed("k"): 3, "j": 4}, {"j": 5, _Renamed("k"): 6}],
    [{1: "int key", "1": "str key"}, {"1": "str key", 1: "int key"}],
    [{"v": v} for v in (1.5, np.float64(2.5), True, 1, np.float64(-np.inf), False, 0)],
    {"a": _THIRD, "b": [_THIRD, {"c": _THIRD}], "d": {"e": [[_THIRD]]}},
]


@pytest.mark.parametrize("doc", WRITER_CASES, ids=range(len(WRITER_CASES)))
def test_canonical_json_matches_json_encoder(doc):
    assert canonical_json(doc) == oracle_canonical_json(doc)


def test_canonical_json_renders_a_frozen_object_once_per_occurrence():
    calls = []

    @dataclass(frozen=True)
    class Counted:
        def to_json_dict(self):
            calls.append(1)
            return {"x": Fraction(1, 3)}

    c = Counted()
    doc = {"a": [c, c, c], "b": c, "c": [{"d": c}, {"d": c}], "e": [Counted()]}
    text = canonical_json(doc)
    assert len(calls) == 7  # six occurrences of c, and the other object
    assert text == oracle_canonical_json(doc)


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
                    assert isinstance(r.witness, Rows)
                    assert isinstance(r.witness_weights, Rows)
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


@pytest.mark.parametrize("n,L", [(1, 6), (2, 3), (3, 2)])
def test_decomposition_rows_match_json_encoder(n, L):
    """A decomposition written from its index rows is json's own text, down
    to the groups with ten or more keys, which sort as strings ("10" < "2")."""
    f = gen(GeneratorSpec(kind="uniform-random", n=n, L=L, seed=4, denom=64))
    many = 0
    for j in range(1, 17):
        dec = cz_decompose(f, None, Fraction(j, 8))
        assert isinstance(dec.stopping, Rows)
        for doc in (dec, {"decompositions": [dec], "size": len(dec.stopping)}):
            assert canonical_json(doc) == oracle_canonical_json(doc)
        keys = list(json.loads(canonical_json(dec))["groups"])
        assert keys == sorted(str(j) for j in dec.groups)
        if len(keys) >= 10 and keys != [str(j) for j in sorted(dec.groups)]:
            many += 1
    assert many >= 2


def _verify_docs(ctx, lambdas=None):
    """The sweep and the theorem run at ``lambdas``, alone and nested as
    the CLI writes them."""
    rows = lemma_sweep(ctx, lambdas)
    run = theorem_check(ctx, lambdas)
    assert isinstance(rows, Rows) and isinstance(run.records, Rows)
    sweep = {"params": ctx.params, "K": ctx.seminorm.value, "reports": rows}
    return [rows, run.records, sweep, run]


def _assert_views_match_json_encoder(docs) -> None:
    for doc in docs:
        assert canonical_json(doc) == oracle_canonical_json(doc)


@pytest.mark.parametrize("mode", ["fixed", "f64", "scaled"])
def test_lambda_rows_match_json_encoder_on_the_corpus(mode):
    """The sweep's and the theorem's row views, written from one template
    each, are json's own text of the reports and records that indexing
    builds: on every corpus grid, in fixed, f64 and 2^40-scaled form, at
    p = 3/2, 2 and 3 in turn."""
    for j, s in enumerate(default_manifest()):
        kind = "f64" if mode == "f64" else "fixed"
        f = gen(GeneratorSpec(s.kind, s.n, s.L, s.seed, kind, s.denom, s.params))
        if mode == "scaled":
            f = scale_values(f, 1 << 40)
        p = (Fraction(3, 2), 2, 3)[j % 3]
        ctx = LemmaContext(f, p, Fraction(1, 1 << (s.n + 1)))
        _assert_views_match_json_encoder(_verify_docs(ctx))


def test_lambda_rows_match_json_encoder_in_caller_order():
    """Listed lams out of order and repeated, a one-lam sweep and
    good_lambda_check's one report."""
    rng = np.random.default_rng(91)
    for mode in ("fixed:16", "f64"):
        f = gen(GeneratorSpec("uniform-random", 2, 3, 5, mode.split(":")[0], 16))
        ctx = LemmaContext(f, 2, Fraction(1, 8))
        grid = default_lambda_grid(ctx)
        lams = [f.scalar(grid[i]) for i in rng.choice(len(grid), 12)] + [f.scalar(1)] * 2
        lams = [lams[i] for i in rng.permutation(len(lams))]
        rows = lemma_sweep(ctx, lams)
        assert [r.details["lambda"] for r in rows] == lams
        _assert_views_match_json_encoder(_verify_docs(ctx, lams))
        _assert_views_match_json_encoder(_verify_docs(ctx, [lams[0]]))
        report = good_lambda_check(ctx, lams[0])
        assert canonical_json(report) == canonical_json(rows[0]) == oracle_canonical_json(report)


def test_lambda_rows_match_json_encoder_past_the_float_range():
    """A 2^1100 cell: K and the bounds read inf, and so does K's weight, a
    float at p = 3/2 and an exact value whose decimal reads inf at p = 2."""
    f = GridFunction(1, 1, [2**1100] + [0] * 5, "fixed", 1)
    for p, weight in ((Fraction(3, 2), '"K-weight": "inf"'), (2, '"decimal": "inf"')):
        docs = _verify_docs(LemmaContext(f, p, Fraction(1, 8)), [1, Fraction(1, 3)])
        text = canonical_json(docs)
        assert '"K": "inf"' in text and '"bound": "inf"' in text and weight in text
        _assert_views_match_json_encoder(docs)


def test_lambda_rows_match_json_encoder_where_checks_fail():
    """A hand-built failing sweep (each check fails somewhere, so the
    failed ids are not empty) and a theorem run whose bounds are nan."""
    f = gen(GeneratorSpec("uniform-random", 1, 3, 2, "fixed", 16))
    ctx = LemmaContext(f, 2, Fraction(1, 8))
    failing, records = failing_sweep(ctx), theorem_check(ctx).records
    m = len(failing)
    assert {tuple(r.details["failed-ids"]) for r in failing} > {(), ("Lemma", "p6", "p8")}
    columns = {"bound": [math.nan] * m, "pass": [False] * m}
    nan_bounds = replace(records, columns={**records.columns, **columns})
    assert '"bound": "nan"' in canonical_json(nan_bounds)
    _assert_views_match_json_encoder([failing, nan_bounds, {"reports": failing, "n": 1}])


@pytest.mark.parametrize("mode", ["fixed", "f64"])
def test_stopping_check_reports_match_json_encoder(mode):
    """The p1, p2 and p3 reports are json's own text; in fixed mode p2 and p3
    are the reports that carry an "rhs-exact" key."""
    from jnplus.maximal import check_p1, check_p2, weak_type_check

    f = gen(GeneratorSpec(kind="uniform-random", n=2, L=3, seed=4, denom=64, mode=mode))
    keys = set()
    for lam in (Fraction(1, 2), Fraction(9, 8), 2):
        dec = cz_decompose(f, None, lam)
        for report in (check_p1(f, dec), check_p2(f, dec), weak_type_check(f, None, lam)):
            assert report.passed
            text = canonical_json(report)
            assert text == oracle_canonical_json(report)
            keys |= set(json.loads(text))
    exact_keys = {"lhs-exact", "rhs-exact"}
    assert keys & exact_keys == (exact_keys if mode == "fixed" else set())


def _long_columns(m: int) -> dict:
    """Columns of m entries for the writer's per-list tables: repeated
    floats with -0.0 beside 0.0, nan and both infinities; negative ints,
    bytes, ints near both int64 ends, an int column too wide for a table;
    rationals with repeated numerators over a denominator they share
    factors with; and bools, which take no table."""
    j = np.arange(m)
    floats = np.array([0.5, -0.0, 0.0, np.nan, np.inf, -np.inf, 0.1, 1e-300, -2.5])
    i64 = np.iinfo(np.int64)
    return {
        "float": floats[j * 7 % len(floats)],
        "neg": (j % 37) - 20,
        "byte": (j % 9).astype(np.uint8),
        "top": i64.max - (j % 5),
        "bottom": i64.min + (j % 3),
        "wide": j * 1_000_003 - 7,
        "ratio": Ratios(((j % 11) - 5).tolist(), 6),
        "flag": j % 3 == 0,  # a bool array, written value by value
    }


@pytest.mark.parametrize("m", [255, 256, 700])
def test_rows_from_per_list_tables_match_json_encoder(m):
    """Long columns take their texts from per-list tables (ints over their
    range, one text per float bit pattern and per rational numerator), on
    both sides of the 256-entry switch, in a bare form, an all-int form and
    a mixed form, in their own order, from an offset and shuffled."""
    columns = _long_columns(m)
    shuffled = np.random.default_rng(m).permutation(m).tolist()
    ints = ["neg", "byte", "top", "bottom", "wide"]
    forms = [Slot(name) for name in columns]
    forms.append({name: Slot(name) for name in ints})  # one % call per 256 items
    forms.append({"x": [Slot("neg"), Slot("float")], "r": Slot("ratio"), "b": Slot("byte")})
    for form in forms:
        for order in (range(m), range(3, m), shuffled):
            doc = {"rows": Rows(form, columns, order), "again": Rows(form, columns, order)}
            assert canonical_json(doc) == oracle_canonical_json(doc)


def test_a_weight_list_forms_each_distinct_rational_once(monkeypatch):
    # the n=2, L=8 witness's shape: 53,071 weights with 3,071 distinct numerators
    calls = []
    lowest = reports._lowest
    monkeypatch.setattr(reports, "_lowest", lambda num, den: calls.append(1) or lowest(num, den))
    nums = [10**20 + j * 7919 % 3_071 for j in range(53_071)]
    rows = Rows(Slot("weight"), {"weight": Ratios(nums, 3 << 40)}, range(len(nums)))
    text = canonical_json({"witness-weights": rows})
    assert len(calls) == 3_071
    assert text == oracle_canonical_json({"witness-weights": rows})
