"""Command-line interface: subcommands, formats, exit codes."""

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from helpers import failing_sweep, oracle_canonical_json
from jnplus import (
    DyadicCube,
    GeneratorSpec,
    GridFunction,
    LemmaContext,
    bundled_example,
    cz_decompose,
    default_lambda_grid,
    gen,
    load_grid,
    save_grid,
)
from jnplus import cli, verification
from jnplus.cli import main
from jnplus.corpus import MAX_CELLS
from jnplus.reports import Rows, VerificationReport


@pytest.fixture
def example_path(tmp_path):
    path = str(tmp_path / "example.grid")
    save_grid(bundled_example(), path)
    return path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_roundtrip(tmp_path, capsys):
    out = str(tmp_path / "g.grid")
    code, stdout, _ = run(
        capsys, "gen", "--kind", "uniform-random", "--n", "2", "--L", "3",
        "--seed", "5", "--mode", "fixed:16", "--out", out,
    )
    assert code == 0
    doc = json.loads(stdout)
    assert doc["spec"]["kind"] == "uniform-random"
    assert doc["cells"] == 8 * 24
    f = load_grid(out)
    direct = gen(GeneratorSpec(kind="uniform-random", n=2, L=3, seed=5, denom=16))
    assert f.equals(direct)


def test_gen_with_params(tmp_path, capsys):
    out = str(tmp_path / "g.json")
    code, stdout, _ = run(
        capsys, "gen", "--kind", "one-sided-power", "--n", "1", "--L", "3",
        "--alpha", "0.5", "--out", out,
    )
    assert code == 0
    assert json.loads(stdout)["spec"]["params"]["alpha"] == 0.5
    f = load_grid(out)
    assert f.n == 1 and f.L == 3


@pytest.mark.parametrize(
    "kind, flags",
    [
        ("uniform-random", ("--alpha", "3", "--value", "9")),
        ("constant", ("--alpha", "3")),
        ("one-sided-power", ("--value", "9")),
    ],
)
def test_gen_rejects_params_its_kind_does_not_read(tmp_path, capsys, kind, flags):
    out = tmp_path / "g.grid"
    code, stdout, stderr = run(
        capsys, "gen", "--kind", kind, "--n", "1", "--L", "2", *flags, "--out", str(out)
    )
    assert code == 2, (kind, flags)
    assert stdout == "" and stderr.startswith("error: ")
    assert not out.exists()


def test_seminorm_reports_all_functionals(example_path, capsys):
    code, stdout, _ = run(capsys, "seminorm", "--input", example_path, "--p", "2")
    assert code == 0
    doc = json.loads(stdout)
    assert doc["jnp-plus"]["weight"]["exact"] == "5/2"
    assert doc["jnp-plus"]["exact"] is True
    assert doc["bmo-plus"]["weight"]["exact"] == "4"
    assert doc["bmo-limit"]["weight"]["exact"] == "2"
    assert doc["bmo-over-limit"] == 2.0
    assert doc["jnp-classical"]["functional"] == "jnp-classical"


def test_seminorm_rational_p(example_path, capsys):
    code, stdout, _ = run(capsys, "seminorm", "--input", example_path, "--p", "3/2")
    assert code == 0
    doc = json.loads(stdout)
    assert doc["jnp-plus"]["exact"] is False


def test_maximal_summary_and_dump(example_path, tmp_path, capsys):
    out = str(tmp_path / "field.json")
    code, stdout, _ = run(
        capsys, "maximal", "--input", example_path, "--variant", "grid", "--out", out
    )
    assert code == 0
    summary = json.loads(stdout)
    assert summary["max"]["exact"] == "4"
    dumped = json.loads(Path(out).read_text())
    assert {k: dumped[k] for k in summary} == summary  # the summary's values, mapped alike
    assert dumped["denom-scale"] == 4
    assert dumped["values"] == [8, 8, 16, 0]


def test_decompose_json(example_path, capsys):
    code, stdout, _ = run(
        capsys, "decompose", "--input", example_path, "--lambda", "1/2"
    )
    assert code == 0
    doc = json.loads(stdout)
    (dec,) = doc["decompositions"]
    assert dec["lambda"]["exact"] == "1/2"
    assert [c["level"] for c in dec["stopping"]] == [1, 2]
    assert dec["subfamily"] == [0]
    assert dec["groups"] == {"0": [0, 1]}


def test_decompose_auto_grid(example_path, capsys):
    code, stdout, _ = run(
        capsys, "decompose", "--input", example_path, "--lambda", "auto"
    )
    assert code == 0
    doc = json.loads(stdout)
    assert len(doc["decompositions"]) >= 64


def test_decompose_rejects_p_b_without_auto(example_path, capsys):
    for flags in (("--p", "7", "--b", "1/64"), ("--p", "7"), ("--b", "1/64")):
        code, stdout, stderr = run(
            capsys, "decompose", "--input", example_path, "--lambda", "1/2", *flags
        )
        assert code == 2, flags
        assert stdout == ""
        assert stderr.startswith("error: ") and "--lambda auto" in stderr
    code, stdout, _ = run(
        capsys, "decompose", "--input", example_path, "--lambda", "auto", "--p", "3", "--b", "1/8"
    )
    assert code == 0
    assert len(json.loads(stdout)["decompositions"]) >= 64


def count_calls(monkeypatch, *names):
    """Record the positional arguments of every call to the named jnplus
    functions, through every module binding, as a tracer would see them."""
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "jnplus"]
    calls = {}
    for name in names:
        orig = next(vars(m)[name] for m in modules if name in vars(m))
        calls[name] = []

        def counted(*args, _log=calls[name], _orig=orig, **kwargs):
            _log.append(args)
            return _orig(*args, **kwargs)

        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    monkeypatch.setattr(mod, key, counted)
    return calls


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "good-lambda", "--p", "2", "--b", "1/4"),
        ("verify", "theorem", "--p", "2", "--b", "1/4"),
        ("decompose", "--lambda", "auto"),
    ],
)
def test_sweep_builds_shared_work_once(example_path, capsys, monkeypatch, argv):
    names = ("jnp_plus_dyadic", "offset_positive_part", "default_lambda_grid")
    calls = count_calls(monkeypatch, *names)
    code, _, _ = run(capsys, *argv, "--input", example_path)
    assert code == 0
    assert {name: len(log) for name, log in calls.items()} == dict.fromkeys(names, 1), argv


def test_lambda_free_work_built_once(example_path, capsys, monkeypatch):
    """good-lambda builds each stopping cube's two p6/p8 fields on its first
    visit only; theorem counts its lambda grid with no distribution_measure
    call and no cube mean per lambda."""
    calls = count_calls(
        monkeypatch, "positive_part_field", "maximal_function", "distribution_measure", "average"
    )
    code, _, _ = run(capsys, "verify", "good-lambda", "--input", example_path, "--p", "2", "--b", "1/4")
    assert code == 0
    cubes = [args[1] for args in calls["positive_part_field"]]
    assert cubes and len(set(cubes)) == len(cubes)
    # g's field over the root, then M_Q g once per visited cube
    assert [args[1] for args in calls["maximal_function"][1:]] == cubes

    averages = []
    for lams in ("3", "1,2,3,4,5,6,7,8"):
        for log in calls.values():
            log.clear()
        code, _, _ = run(
            capsys, "verify", "theorem", "--input", example_path,
            "--p", "2", "--b", "1/4", "--lambda", lams,
        )
        assert code == 0
        assert calls["distribution_measure"] == []
        averages.append(len(calls["average"]))
    assert averages[0] == averages[1] > 0


def test_decompose_auto_builds_no_maximal_field(example_path, capsys, monkeypatch):
    """The lambda grid reads neither g's maximal field nor its forward mean."""
    calls = count_calls(monkeypatch, "maximal_function")["maximal_function"]
    code, _, _ = run(capsys, "decompose", "--input", example_path, "--lambda", "auto")
    assert code == 0
    assert calls == []
    code, _, _ = run(capsys, "verify", "theorem", "--input", example_path, "--p", "2", "--b", "1/4")
    assert code == 0
    assert len(calls) == 2  # the grid field once, the augmented one once


def test_verify_good_lambda_pass(example_path, capsys):
    code, stdout, _ = run(
        capsys, "verify", "good-lambda", "--input", example_path,
        "--p", "2", "--b", "1/4",
    )
    assert code == 0
    doc = json.loads(stdout)
    assert doc["pass"] is True
    assert doc["failed"] == []
    assert doc["params"]["a"]["exact"] == "8"
    assert len(doc["reports"]) >= 64


def test_verify_good_lambda_explicit_lambdas(example_path, capsys):
    code, stdout, _ = run(
        capsys, "verify", "good-lambda", "--input", example_path,
        "--p", "2", "--b", "1/4", "--lambda", "1,2,4,8",
    )
    assert code == 0
    doc = json.loads(stdout)
    assert len(doc["reports"]) == 4


def test_verify_theorem_pass_and_csv(example_path, tmp_path, capsys):
    csv = str(tmp_path / "run.csv")
    out = str(tmp_path / "run.json")
    code, stdout, _ = run(
        capsys, "verify", "theorem", "--input", example_path,
        "--p", "2", "--b", "1/4", "--csv", csv, "--out", out,
    )
    assert code == 0
    doc = json.loads(Path(out).read_text())
    assert doc["pass"] is True
    lines = Path(csv).read_text().strip().splitlines()
    assert lines[0] == "lambda,E_grid,E_aug,dist,bound,pass"
    assert len(lines) == len(doc["records"]) + 1


def test_oracle_matches_dp(example_path, capsys):
    code, stdout, _ = run(capsys, "oracle", "--input", example_path, "--p", "2")
    assert code == 0
    doc = json.loads(stdout)
    assert doc["weight"]["exact"] == "5/2"
    assert doc["functional"] == "jnp-plus-oracle"


def test_verify_theorem_far_lambda_on_int64_grid(example_path, capsys):
    """lam * scale past 2^63 on an int64 grid: every measure is 0, exit 0."""
    assert load_grid(example_path).values.dtype == np.int64
    code, stdout, _ = run(
        capsys, "verify", "theorem", "--input", example_path,
        "--p", "2", "--b", "1/4", "--lambda", "1e30",
    )
    assert code == 0
    (rec,) = json.loads(stdout)["records"]
    assert rec["E-grid"]["exact"] == rec["E-aug"]["exact"] == rec["dist"]["exact"] == "0"


def _uniform_grid(capsys, tmp_path, mode="fixed:16") -> str:
    path = str(tmp_path / "u.bin")
    code, _, _ = run(
        capsys, "gen", "--kind", "uniform-random", "--n", "1", "--L", "3",
        "--mode", mode, "--out", path,
    )
    assert code == 0
    return path


@pytest.mark.parametrize(
    "lam,name",
    [
        ("1e-400", "0.0 (an exact ratio of 1/401 digits)"),
        ("1e400", "inf (an exact ratio of 401/1 digits)"),
        ("1e-5000", "0.0 (an exact ratio of 1/5001 digits)"),
        ("1e5000", "inf (an exact ratio of 5001/1 digits)"),
    ],
    ids=["1e-400", "1e400", "1e-5000", "1e5000"],
)
@pytest.mark.parametrize("command", ["good-lambda", "theorem"])
def test_exit_2_names_a_lambda_outside_the_float_range(tmp_path, capsys, command, lam, name):
    """A lam whose float is 0 or infinite is an input error that names it
    by that float and the digits of its ratio, not by all of them, and
    not a ZeroDivisionError or OverflowError from a float bound."""
    path = _uniform_grid(capsys, tmp_path)
    code, stdout, stderr = run(
        capsys, "verify", command, "--input", path, "--p", "2", "--b", "1/8", "--lambda", lam
    )
    assert code == 2 and stdout == ""
    assert stderr == f"error: threshold {name} lies outside the float range\n"


@pytest.mark.parametrize(
    "argv,digits",
    [
        (("decompose", "--lambda", "1e5000"), 5001),
        (("decompose", "--lambda", "1e-5000"), 5001),
        (("seminorm", "--p", "2"), None),
        (("oracle", "--p", "2"), None),
        (("verify", "theorem", "--p", "2", "--b", "1/4", "--lambda", "1"), None),
    ],
    ids=["decompose-1e5000", "decompose-1e-5000", "seminorm", "oracle", "theorem"],
)
def test_exit_2_names_an_exact_text_past_the_digit_limit(tmp_path, capsys, argv, digits):
    """A fixed-mode report with a rational whose numerator or denominator
    has more digits than Python writes out (a lam of 10^5000 or 10^-5000,
    or weights from a 10^4000 cell): a named error, not a ValueError, and
    neither stdout nor the --out file is written."""
    path = tmp_path / "long.json"
    if digits:
        path = _uniform_grid(capsys, tmp_path)
    else:
        doc = {"version": 1, "n": 1, "L": 1, "mode": "fixed", "denom": 1,
               "values": [10**4000] + [0] * 5}
        path.write_text(json.dumps(doc))
    out = tmp_path / "out.json"
    for extra in ((), ("--out", str(out))):
        code, stdout, stderr = run(capsys, *argv, "--input", str(path), *extra)
        assert code == 2 and stdout == "" and not out.exists()
        name = f"{digits} digits" if digits else "digits"
        assert stderr.startswith("error: an exact value of ")
        limit = sys.get_int_max_str_digits()
        assert stderr.endswith(f"{name} has no text under Python's limit of {limit} digits\n")


@pytest.mark.parametrize(
    "command", [("verify", "theorem"), ("verify", "good-lambda"), ("decompose", "--lambda", "auto")]
)
def test_exit_2_names_a_b_outside_the_float_range(tmp_path, capsys, command):
    """b = 1e-400 lies in (0, 2^-n) but its float is 0, and lam0 and the
    proof constant divide by it: an input error naming b, not a
    ZeroDivisionError."""
    path = _uniform_grid(capsys, tmp_path)
    code, stdout, stderr = run(capsys, *command, "--input", path, "--p", "2", "--b", "1e-400")
    assert code == 2 and stdout == ""
    assert stderr == "error: b lies outside the float range: its float is 0\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "theorem", "--b", "1e-40"),
        ("verify", "good-lambda", "--b", "1e-40"),
        ("decompose", "--lambda", "auto", "--b", "1e-40"),
        ("verify", "theorem", "--b", "1e-300", "--lambda", "1"),
    ],
)
def test_exit_2_names_a_tiny_b(tmp_path, capsys, argv):
    """A b with a nonzero float can still overflow a float power: b^-8 of
    the default lambda ladder at 1e-40, (2/b)^p of the proof constant at
    1e-300.  Each is an input error naming b, not an OverflowError."""
    path = _uniform_grid(capsys, tmp_path)
    code, stdout, stderr = run(capsys, *argv, "--input", path, "--p", "2")
    assert code == 2 and stdout == ""
    assert stderr.startswith("error: ") and "outside the float range" in stderr
    assert f"b={float(Fraction(argv[argv.index('--b') + 1]))!r}" in stderr


@pytest.mark.parametrize(
    "doc",
    [
        {"version": 1, "n": 1, "L": 1, "mode": "f64", "values": [1e300] + [0.0] * 5},
        {"version": 1, "n": 1, "L": 1, "mode": "fixed", "denom": 1, "values": [2**1000] + [0] * 5},
    ],
    ids=["f64", "big-integer"],
)
@pytest.mark.parametrize("command", ["good-lambda", "theorem"])
def test_exit_2_names_a_default_lambda_past_the_float_range(tmp_path, capsys, doc, command):
    """K near the top of the float range puts the default grid's ladder
    points lambda0 * 8^k at inf: refused as a threshold, whether the grid
    lifts lambdas to floats or to Fractions."""
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    code, stdout, stderr = run(
        capsys, "verify", command, "--input", str(path), "--p", "2", "--b", "1/8"
    )
    assert code == 2 and stdout == ""
    assert stderr == "error: threshold inf lies outside the float range\n"


_HUGE_GRIDS = {
    "big-integer": {"version": 1, "n": 1, "L": 1, "mode": "fixed", "denom": 1,
                    "values": [2**1100] + [0] * 5},
    "f64": {"version": 1, "n": 1, "L": 1, "mode": "f64", "values": [1e300] + [0.0] * 5},
}


def _huge_sweep():
    """(grid, argv, exit status) of every subcommand on the two grids of
    _HUGE_GRIDS: the lines that take p at p = 3/2, 2 and 3, the rest once.
    Only an auto lambda grid exits 2.  The big-integer grid's lines at
    p = 2 carry the bare command names as ids."""
    for grid in _HUGE_GRIDS:
        for p in ("3/2", "2", "3"):
            pb = ("--p", p, "--b", "1/8")
            lines = {
                "seminorm": (("seminorm", "--p", p), 0),
                "oracle-plus": (("oracle", "--p", p, "--functional", "jnp-plus"), 0),
                "oracle-classical": (("oracle", "--p", p, "--functional", "jnp-classical"), 0),
                "decompose": (("decompose", "--lambda", "auto", *pb), 2),
                "good-lambda": (("verify", "good-lambda", *pb), 2),
                "good-lambda-at-1": (("verify", "good-lambda", *pb, "--lambda", "1"), 0),
                "theorem": (("verify", "theorem", *pb), 2),
                "theorem-at-1": (("verify", "theorem", *pb, "--lambda", "1"), 0),
            }
            tag = "" if (grid, p) == ("big-integer", "2") else f"{grid}-p{p.replace('/', ':')}-"
            for name, (argv, want) in lines.items():
                yield pytest.param(grid, argv, want, id=tag + name)
        for variant in ("grid", "augmented"):
            argv = ("maximal", "--variant", variant)
            yield pytest.param(grid, argv, 0, id=f"{grid}-maximal-{variant}")
        yield pytest.param(grid, ("decompose", "--lambda", "1"), 0, id=f"{grid}-decompose-at-1")


@pytest.mark.parametrize("grid,argv,want", list(_huge_sweep()))
def test_exact_values_past_the_float_range(tmp_path, capsys, grid, argv, want):
    """A fixed grid with a 2^1100 cell and an f64 grid with a 1e300 cell,
    through every subcommand: a float view of an exact value past the float
    range reads inf, as an f64 value does, so the jnp seminorms and K read
    "inf" and no report holds a nan; the default lambda grid then reaches
    inf, which is refused as a threshold (exit 2) before numpy sees an
    infinite span."""
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(_HUGE_GRIDS[grid]))
    code, stdout, stderr = run(capsys, *argv, "--input", str(path))
    assert code == want and '"nan"' not in stdout
    if want == 2:
        assert stdout == "" and stderr == "error: threshold inf lies outside the float range\n"
        return
    assert stderr == ""
    out = json.loads(stdout)
    if argv[0] == "seminorm":
        # the bmo suprema are finite on the f64 grid; their ratio is 2 on both
        keys = ("jnp-plus", "jnp-classical", "bmo-plus", "bmo-limit")
        for key in keys if grid == "big-integer" else keys[:2]:
            weight = out[key]["weight"]
            assert out[key]["value"] == "inf"
            assert (weight["decimal"] if isinstance(weight, dict) else weight) == "inf"
        assert out["bmo-over-limit"] == 2.0
    elif argv[0] == "verify":
        assert out["K"] == "inf" and out["pass"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ("seminorm", "--p", "3/2"),
        ("verify", "theorem", "--p", "3/2", "--b", "1/8", "--lambda", "1"),
    ],
)
def test_denominator_past_the_float_range_at_a_non_integer_p(tmp_path, capsys, argv):
    """Cells 2^1101 and 0 over the denominator 2^1100, whose float is inf:
    the float weights of a non-integer p divide each block sum exactly, so
    the report equals that of the same values, 2 and 0, over 1."""
    texts = []
    for denom, top in ((2**1100, 2**1101), (1, 2)):
        path = tmp_path / f"grid{denom.bit_length()}.json"
        doc = {"version": 1, "n": 1, "L": 1, "mode": "fixed", "denom": denom,
               "values": [top] + [0] * 5}
        path.write_text(json.dumps(doc))
        code, stdout, stderr = run(capsys, *argv, "--input", str(path))
        assert code == 0 and stderr == ""
        texts.append(stdout)
    assert texts[0] == texts[1]
    assert '"nan"' not in texts[0] and '"inf"' not in texts[0]


@pytest.mark.parametrize(
    "command",
    [
        ("decompose",),
        ("verify", "good-lambda", "--p", "2", "--b", "1/8"),
        ("verify", "theorem", "--p", "2", "--b", "1/8"),
    ],
)
def test_exit_2_names_an_f64_lambda_outside_the_float_range(tmp_path, capsys, command):
    """On an f64 grid 1e-400 has no float: the token is named, not decided
    at 0.0 (decompose) or reported as a nonpositive lambda (verify)."""
    path = _uniform_grid(capsys, tmp_path, "f64")
    code, stdout, stderr = run(capsys, *command, "--input", path, "--lambda", "1e-400")
    assert code == 2 and stdout == ""
    assert stderr.startswith("error: ") and "outside the float range" in stderr
    assert "'1e-400'" in stderr


def test_decompose_fixed_grid_is_exact_below_the_float_range(tmp_path, capsys):
    """A fixed grid decides lam = 1e-400 exactly; only f64 refuses it."""
    path = _uniform_grid(capsys, tmp_path)
    code, stdout, _ = run(capsys, "decompose", "--input", path, "--lambda", "1e-400")
    assert code == 0
    (dec,) = json.loads(stdout)["decompositions"]
    assert dec["lambda"] == {"decimal": "0.0", "exact": str(Fraction(1, 10**400))}


@pytest.mark.parametrize("mode", ["fixed:16", "f64"])
def test_theorem_lambda_power_past_float_range_bounds_by_0(tmp_path, capsys, mode):
    """lam^p past the float range is inf, so the measure bound C*K^p/lam^p is 0."""
    path = _uniform_grid(capsys, tmp_path, mode)
    code, stdout, _ = run(
        capsys, "verify", "theorem", "--input", path, "--p", "3", "--b", "1/8",
        "--lambda", "1e200",
    )
    assert code == 0
    (rec,) = json.loads(stdout)["records"]
    assert rec["bound"] == 0.0 and rec["E-grid"]["exact"] == "0" and rec["pass"]


def test_theorem_empty_set_passes_a_nan_bound(tmp_path, capsys):
    """K^p and lam^p both past the float range make the bound inf/inf = nan;
    E(lam) is empty there, and an empty set meets any bound."""
    path = tmp_path / "big.json"
    doc = {"version": 1, "n": 1, "L": 1, "mode": "f64", "values": [1e300] + [0.0] * 5}
    path.write_text(json.dumps(doc))
    code, stdout, _ = run(
        capsys, "verify", "theorem", "--input", str(path), "--p", "2", "--b", "1/8",
        "--lambda", "1e200",
    )
    assert code == 0
    (rec,) = json.loads(stdout)["records"]
    assert rec["bound"] == "nan" and rec["E-grid"]["exact"] == "0" and rec["pass"]


def test_theorem_lambda_power_under_float_range_bounds_by_inf(tmp_path, capsys):
    """On an f64 grid lam = 1e-320 is a float, but lam^2 underflows to 0:
    the bound is inf, not a ZeroDivisionError."""
    path = _uniform_grid(capsys, tmp_path, "f64")
    code, stdout, _ = run(
        capsys, "verify", "theorem", "--input", path, "--p", "2", "--b", "1/8",
        "--lambda", "1e-320",
    )
    assert code == 0
    (rec,) = json.loads(stdout)["records"]
    assert rec["bound"] == "inf" and rec["pass"]


@pytest.mark.parametrize("functional", ["jnp-plus", "jnp-classical"])
def test_oracle_weight_past_float_range_is_inf(tmp_path, capsys, functional):
    """A float power past the float range is inf, as in the tree pass, not an OverflowError."""
    path = tmp_path / "big.json"
    doc = {"version": 1, "n": 1, "L": 1, "mode": "f64", "values": [1e300] + [0.0] * 5}
    path.write_text(json.dumps(doc))
    code, stdout, _ = run(
        capsys, "oracle", "--input", str(path), "--p", "2", "--functional", functional
    )
    assert code == 0
    assert json.loads(stdout)["weight"] == "inf"


def test_exit_1_names_failed_inequality(example_path, capsys, monkeypatch):
    import jnplus.cli as cli_mod

    class FakeRun:
        passed = False

        def failed_ids(self):
            return ["p9"]

        def to_json_dict(self):
            return {"pass": False}

        def to_csv(self):
            return "lambda,E_grid,E_aug,dist,bound,pass\n"

    monkeypatch.setattr(cli_mod, "theorem_check", lambda *a, **k: FakeRun())
    code, _, stderr = run(
        capsys, "verify", "theorem", "--input", example_path, "--p", "2", "--b", "1/4"
    )
    assert code == 1
    assert "p9" in stderr


def test_exit_1_names_failed_checks_of_a_sweep(example_path, capsys, monkeypatch):
    """A sweep whose Lemma, p6 and p8 checks each fail at some lam: the
    report's "failed" lists the three once each, "pass" is false, and the
    exit is 1 naming them."""
    failing = failing_sweep(LemmaContext(load_grid(example_path), 2, Fraction(1, 4)))
    monkeypatch.setattr(cli, "lemma_sweep", lambda *a, **k: failing)
    code, stdout, stderr = run(
        capsys, "verify", "good-lambda", "--input", example_path, "--p", "2", "--b", "1/4"
    )
    assert code == 1
    doc = json.loads(stdout)
    assert doc["failed"] == ["Lemma", "p6", "p8"]
    assert doc["pass"] is False
    assert "FAIL: Lemma, p6, p8" in stderr


def test_exit_2_on_bad_input(tmp_path, capsys):
    code, _, stderr = run(
        capsys, "seminorm", "--input", str(tmp_path / "missing.grid"), "--p", "2"
    )
    assert code == 2
    assert "error" in stderr.lower()


def test_exit_2_on_bad_params(example_path, tmp_path, capsys):
    # p <= 1 is outside the exponent domain
    code, _, stderr = run(
        capsys, "verify", "theorem", "--input", example_path, "--p", "1", "--b", "1/4"
    )
    assert code == 2
    # b >= 2^-n is outside the decay window
    code, _, _ = run(
        capsys, "verify", "theorem", "--input", example_path, "--p", "2", "--b", "1/2"
    )
    assert code == 2
    # a malformed --lambda is an input error naming the bad token
    f64_path = str(tmp_path / "f64.grid")
    save_grid(gen(GeneratorSpec(kind="uniform-random", n=1, L=2, mode="f64")), f64_path)
    params = ("--p", "2", "--b", "1/8")
    verify = (("verify", "good-lambda") + params, ("verify", "theorem") + params)
    for cmd in verify + (("decompose",),):
        for path, lambdas, token in (
            (example_path, "abc", "'abc'"),
            (example_path, "1/0", "'1/0'"),
            (example_path, "", "''"),
            (example_path, "1,,2", "''"),
            (f64_path, "1e400", "'1e400'"),
        ):
            code, _, stderr = run(capsys, *cmd, "--input", path, "--lambda", lambdas)
            assert code == 2, (cmd, lambdas)
            assert stderr.startswith("error: ") and token in stderr, (cmd, lambdas, stderr)


def test_exit_2_on_oversized_oracle(tmp_path, capsys):
    f = gen(GeneratorSpec(kind="uniform-random", n=2, L=3, seed=0))
    path = str(tmp_path / "big.grid")
    save_grid(f, path)
    code, _, stderr = run(capsys, "oracle", "--input", path, "--p", "2")
    assert code == 2


def test_exit_2_on_oversized_gen(tmp_path, capsys):
    out = tmp_path / "big.bin"
    code, stdout, stderr = run(
        capsys, "gen", "--kind", "constant", "--n", "1", "--L", "40", "--out", str(out)
    )
    assert code == 2
    assert stdout == ""
    assert "3*2^40 cells" in stderr and str(MAX_CELLS) in stderr
    assert not out.exists()


@pytest.mark.parametrize("mode", ["fixed:64", "f64"])
def test_n3_reports_match_json_encoder(tmp_path, capsys, monkeypatch, mode):
    # the corpus stops at n=2, so no digest covers a cube with two spatial indices
    written = []
    writer = cli.canonical_json

    def checked(doc):
        text = writer(doc)
        assert text == oracle_canonical_json(doc)
        written.append(text)
        return text

    monkeypatch.setattr(cli, "canonical_json", checked)
    path = str(tmp_path / "n3.grid")
    run(capsys, "gen", "--kind", "uniform-random", "--n", "3", "--L", "2", "--seed", "4",
        "--mode", mode, "--out", path)
    for argv in (
        ("seminorm", "--p", "2"),
        ("seminorm", "--p", "3/2"),
        ("verify", "theorem", "--p", "2", "--b", "1/16"),
        ("decompose", "--lambda", "auto"),
    ):
        code, stdout, _ = run(capsys, *argv, "--input", path)
        assert code == 0
        assert stdout == written[-1]
    assert len(written) == 5
    witness = json.loads(written[1])["jnp-plus"]["witness"]
    assert witness and all(len(c["spatial"]) == 2 for c in witness)


@pytest.mark.parametrize("L", [32, 40, 1 << 62])
@pytest.mark.parametrize("form", ["json", "binary"])
def test_exit_2_on_header_past_cell_count(tmp_path, capsys, form, L):
    # 3*2^64 wraps to 0 in int64, and 1 << 2^62 does not fit in memory
    header = {"version": 1, "n": 2, "L": L, "mode": "fixed", "denom": 1,
              "order": "time-fastest"}
    if form == "json":
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({**header, "values": []}))
    else:
        path = tmp_path / "grid.bin"
        path.write_bytes(b"")
        (tmp_path / "grid.bin.json").write_text(json.dumps(header))
    code, stdout, stderr = run(capsys, "seminorm", "--input", str(path), "--p", "2")
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("error: ") and f"3*2^{2 * L} " in stderr


def test_main_calls_parse_independently(example_path, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "build_parser", None)  # main reuses its one parser
    out = tmp_path / "seminorm.json"
    code, stdout, _ = run(capsys, "seminorm", "--input", example_path, "--p", "2",
                          "--out", str(out))
    assert code == 0 and stdout == "" and out.exists()
    code, stdout, _ = run(capsys, "maximal", "--input", example_path, "--variant", "augmented")
    assert code == 0 and json.loads(stdout)["variant"] == "augmented"
    code, stdout, _ = run(capsys, "maximal", "--input", example_path)
    assert code == 0 and json.loads(stdout)["variant"] == "grid"
    code, stdout, _ = run(capsys, "seminorm", "--input", example_path, "--p", "3/2")
    assert code == 0  # written to stdout: no --out carried over
    assert json.loads(stdout)["jnp-plus"]["p"] == {"decimal": "1.5", "exact": "3/2"}


def test_seminorm_makes_no_cube_per_witness_cube(tmp_path, capsys, monkeypatch):
    path = str(tmp_path / "grid.bin")
    save_grid(gen(GeneratorSpec(kind="uniform-random", n=2, L=5, seed=3)), path)
    created = []
    init = DyadicCube.__init__

    def counted(self, *args, **kwargs):
        created.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(DyadicCube, "__init__", counted)
    code, stdout, _ = run(capsys, "seminorm", "--input", path, "--p", "2")
    assert code == 0
    assert len(json.loads(stdout)["jnp-plus"]["witness"]) > 100
    # the four results' roots, and not one witness cube
    assert len(created) == 4


def test_decompose_makes_no_cube_per_stopping_cube(tmp_path, capsys, monkeypatch):
    path = str(tmp_path / "grid.bin")
    save_grid(gen(GeneratorSpec(kind="uniform-random", n=2, L=5, seed=3)), path)
    created = []
    init = DyadicCube.__init__

    def counted(self, *args, **kwargs):
        created.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(DyadicCube, "__init__", counted)
    code, stdout, _ = run(capsys, "decompose", "--input", path, "--lambda", "auto")
    assert code == 0
    decs = json.loads(stdout)["decompositions"]
    assert sum(len(d["stopping"]) for d in decs) > 1000
    # one root per decomposition, and the lambda grid's root and its
    # translate; not one stopping cube
    assert len(created) == len(decs) + 2


@pytest.mark.parametrize("mode", ["fixed:16", "f64"])
@pytest.mark.parametrize("command", ["good-lambda", "theorem"])
def test_verify_makes_no_object_per_lambda(tmp_path, capsys, monkeypatch, command, mode):
    """From the sweep or theorem call to the written report and CSV, a
    verify run builds as many VerificationReports, theorem record dicts
    and Fractions at the 73 default lambdas as at 5 listed ones: the
    records are written from columns, not from an object per lambda.
    The default grid's own reads of the grid's extremes are not counted."""
    path = str(tmp_path / "grid.bin")
    save_grid(gen(GeneratorSpec("uniform-random", 2, 4, 3, mode.split(":")[0], 16)), path)
    on, built = [False], {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            if on[0]:
                built[name] = built.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def starting(fn):
        def wrapper(*args, **kwargs):
            on[0] = True
            return fn(*args, **kwargs)
        return wrapper

    def pausing(fn):
        def wrapper(*args, **kwargs):
            on[0] = False
            try:
                return fn(*args, **kwargs)
            finally:
                on[0] = True
        return wrapper

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted("Fraction", Fraction.__new__)))
    monkeypatch.setattr(
        VerificationReport, "__init__", counted("report", VerificationReport.__init__)
    )
    monkeypatch.setattr(Rows, "_item", counted("record", Rows._item))
    monkeypatch.setattr(cli, "lemma_sweep", starting(cli.lemma_sweep))
    monkeypatch.setattr(cli, "theorem_check", starting(cli.theorem_check))
    monkeypatch.setattr(verification, "default_lambda_grid", pausing(default_lambda_grid))
    key = "reports" if command == "good-lambda" else "records"
    extra = ("--csv", str(tmp_path / "run.csv")) if command == "theorem" else ()
    counts = []
    for lambdas in ("auto", "0.25,0.5,1,2,4"):
        on[0], built = False, {}
        code, stdout, _ = run(
            capsys, "verify", command, "--input", path, "--p", "2", "--b", "1/8",
            "--lambda", lambdas, *extra,
        )
        assert code == 0
        counts.append((len(json.loads(stdout)[key]), built))
    (m_auto, auto), (m_list, listed) = counts
    assert (m_auto, m_list) == (73, 5)
    assert auto == listed
    assert auto.get("report", 0) <= 1 and auto.get("record", 0) <= 1


@pytest.mark.parametrize("command", [["verify", "theorem"], ["verify", "good-lambda"]])
def test_exit_2_names_an_overflowing_f64_mean(tmp_path, command):
    """Finite cells whose mean over root++ overflows: a named error, not
    "f64 values must be finite" from the offset grid of inf cells."""
    path = str(tmp_path / "overflow.json")
    save_grid(GridFunction(1, 1, [1e308, 0, 0, 0, -1e308, -1e308], "f64"), path)
    proc = subprocess.run(
        [sys.executable, "-m", "jnplus.cli", *command, "--input", path, "--p", "2", "--b", "1/4"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    last = proc.stderr.strip().splitlines()[-1]
    assert last == "error: the f64 mean of f over DyadicCube(level=0, spatial=(), time=2) overflows"


@pytest.mark.parametrize("command", [["verify", "theorem"], ["verify", "good-lambda"]])
def test_exit_2_names_an_overflowing_f64_offset(tmp_path, command):
    """A finite mean over root++ whose offset f - mean leaves the float
    range: a named error and no numpy warning."""
    path = str(tmp_path / "offset.json")
    save_grid(GridFunction(1, 1, [1e308, 0, 0, 0, -0.8e308, -0.8e308], "f64"), path)
    proc = _jnplus(*command, "--input", path, "--p", "2", "--b", "1/4")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == (
        "error: the f64 offset f - mean(f over DyadicCube(level=0, spatial=(), time=2)) overflows\n"
    )


def _jnplus(*argv):
    return subprocess.run(
        [sys.executable, "-m", "jnplus.cli", *argv], capture_output=True, text=True
    )


def test_seminorm_on_f64_sums_past_float_range(tmp_path):
    """Clamped sums past the float range: exit 2 with a named error and no
    numpy warning.  Finite sums whose p-th power overflows: inf weights."""
    over = str(tmp_path / "over.json")
    save_grid(GridFunction(1, 1, [1e308, 0, 0, 0, -1e308, -1e308], "f64"), over)
    proc = _jnplus("seminorm", "--input", over, "--p", "2")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "error: the f64 clamped deviation sums of f at level 0 overflow\n"
    for command in ("theorem", "good-lambda"):
        proc = _jnplus("verify", command, "--input", over, "--p", "2", "--b", "1/4")
        assert proc.returncode == 2
        assert proc.stderr.count("\n") == 1  # the named error alone, no warning

    big = str(tmp_path / "big.json")
    save_grid(GridFunction(1, 1, [1e300, 0, 0, 0, 0, 0], "f64"), big)
    proc = _jnplus("seminorm", "--input", big, "--p", "2")
    assert proc.returncode == 0 and proc.stderr == ""
    doc = json.loads(proc.stdout)
    assert doc["jnp-plus"]["weight"] == doc["jnp-classical"]["weight"] == "inf"
    assert doc["bmo-plus"]["weight"] == 1e300


def test_digest_ops_build_no_prefix_table(example_path, capsys, monkeypatch):
    calls = []
    prefix = GridFunction.prefix

    def counted(self):
        calls.append(self)
        return prefix(self)

    monkeypatch.setattr(GridFunction, "prefix", counted)
    f64_path = example_path + ".f64.json"
    f = bundled_example()
    save_grid(GridFunction(f.n, f.L, f.values / f.denom, "f64"), f64_path)
    for path in (example_path, f64_path):
        for argv in (
            ("seminorm", "--p", "2"),
            ("verify", "good-lambda", "--p", "2", "--b", "1/4"),
            ("verify", "theorem", "--p", "2", "--b", "1/4"),
            ("decompose", "--lambda", "auto"),
        ):
            code, _, _ = run(capsys, *argv, "--input", path)
            assert code == 0, argv
    assert calls == []


def test_good_lambda_makes_a_cube_per_built_field_pair_only(tmp_path, capsys, monkeypatch):
    path = str(tmp_path / "grid.bin")
    f = gen(GeneratorSpec(kind="dyadic-martingale", n=2, L=5, seed=1))
    save_grid(f, path)
    # lambda-visits: per admissible lambda of the sweep, the stopping cubes
    # of g at b*lambda that meet E(lambda)
    ctx = LemmaContext(f, 2, Fraction(1, 8))
    visits = []
    for lam in default_lambda_grid(ctx):
        blam = Fraction(lam) / 8
        if not ctx.g_fwd_avg > blam:
            E = ctx.field.superlevel_mask(lam)
            cubes = cz_decompose(ctx.g, None, blam).stopping.expand()
            visits += [c for c in cubes if E[ctx.g.cube_slices(c)].any()]
    calls = count_calls(monkeypatch, "positive_part_field", "maximal_function")
    created = []
    init = DyadicCube.__init__

    def counted(self, *args, **kwargs):
        created.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(DyadicCube, "__init__", counted)
    code, _, _ = run(capsys, "verify", "good-lambda", "--input", path, "--p", "2", "--b", "1/8")
    assert code == 0
    built = [args[1] for args in calls["positive_part_field"]]
    # each visited cube's pair once: g's field over the root, then M_Q g per cube
    assert sorted(built) == sorted(set(visits))
    assert [args[1] for args in calls["maximal_function"][1:]] == built
    assert len(visits) > 2 * len(built) > 0
    # the root, root+ and root++, and one cube per built pair of local fields
    assert len(created) == 3 + len(built)


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as err:
        main(["gen", "--kind", "uniform-random"])  # missing required flags
    assert err.value.code == 2


def test_bad_mode_string():
    with pytest.raises(SystemExit) as err:
        main(["gen", "--kind", "constant", "--n", "1", "--L", "1",
              "--mode", "fixed", "--out", "/tmp/x.grid"])
    assert err.value.code == 2


def test_console_entry_point(example_path):
    proc = subprocess.run(
        [sys.executable, "-m", "jnplus.cli", "seminorm", "--input", example_path, "--p", "2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["jnp-plus"]["weight"]["exact"] == "5/2"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0


@pytest.fixture
def small_grids(tmp_path):
    """A fixed and an f64 n=1 L=2 grid, as ``gen --kind uniform-random`` writes them."""
    paths = {}
    for mode in ("fixed", "f64"):
        paths[mode] = str(tmp_path / f"{mode}.bin")
        save_grid(gen(GeneratorSpec(kind="uniform-random", n=1, L=2, mode=mode)), paths[mode])
    return paths


@pytest.mark.parametrize(
    "mode, argv, message",
    [
        ("fixed", ("seminorm", "--p", "1e5000"),
         "exponent inf (an exact ratio of 5001/1 digits) lies outside the float range"),
        ("f64", ("seminorm", "--p", "1e5000"),
         "exponent inf (an exact ratio of 5001/1 digits) lies outside the float range"),
        ("fixed", ("seminorm", "--p", "1e-5000"),
         "exponent must be > 1, got 0.0 (an exact ratio of 1/5001 digits)"),
        ("fixed", ("seminorm", "--p", "1025"),
         "exponent 1025.0 (an exact ratio of 4/1 digits) exceeds 1024, the largest integer p "
         "that a fixed grid's weights are raised to exactly"),
        ("fixed", ("verify", "theorem", "--p", "2", "--b", "1e5000"),
         "b must lie in (0, 2^-1), got inf (an exact ratio of 5001/1 digits)"),
        ("fixed", ("decompose", "--lambda", "auto", "--b", "1e5000"),
         "b must lie in (0, 2^-1), got inf (an exact ratio of 5001/1 digits)"),
        ("f64", ("verify", "theorem", "--p", "1e300", "--b", "1/8"),
         "the proof constant C(n=1, p=1e+300 (an exact ratio of 301/1 digits), b=0.125) "
         "lies outside the float range"),
    ],
    ids=["p-1e5000", "p-1e5000-f64", "p-1e-5000", "p-past-the-exact-bound", "theorem-b-1e5000",
         "decompose-b-1e5000", "proof-constant-p-1e300"],
)
def test_exit_2_names_a_large_p_or_b(small_grids, capsys, mode, argv, message):
    """An exponent or b far from the usual range is an input error that names
    it by its float and its digit counts, at once: no power to a 5001-digit
    p, and no int-to-str conversion past Python's digit limit."""
    from time import monotonic

    t0 = monotonic()
    code, stdout, stderr = run(capsys, *argv[:-2], "--input", small_grids[mode], *argv[-2:])
    assert monotonic() - t0 < 1.0
    assert (code, stdout, stderr) == (2, "", f"error: {message}\n")


def test_exact_exponent_bound_from_both_sides(small_grids, capsys):
    """A fixed grid's weights are powered exactly up to p = 1024; past it an
    integer p is refused there, while an f64 grid and a non-integer p keep
    their float weights."""
    from jnplus.errors import InvalidExponentError
    from jnplus.seminorms import _MAX_EXACT_P, antichain_oracle, jnp_plus_dyadic

    fixed, f64 = load_grid(small_grids["fixed"]), load_grid(small_grids["f64"])
    assert _MAX_EXACT_P == 1024
    assert jnp_plus_dyadic(fixed, 1024).exact
    assert run(capsys, "seminorm", "--input", small_grids["fixed"], "--p", "1024")[0] == 0
    for call in (jnp_plus_dyadic, antichain_oracle):
        with pytest.raises(InvalidExponentError, match="exceeds 1024"):
            call(fixed, 1025)
    assert not jnp_plus_dyadic(f64, 1025).exact
    assert not jnp_plus_dyadic(fixed, Fraction(2051, 2)).exact


@pytest.mark.parametrize("alpha", ["1e300", "nan", "inf", "1e5000", "20"])
def test_gen_refuses_an_alpha_it_cannot_build(tmp_path, capsys, alpha):
    """one-sided-power's largest cell is denom * (2 * 2^L)^alpha, and stays
    below 2^62: at L=2 and denom 16 that is 2^61 at alpha = 19, and 2^64,
    past int64, at 20."""
    out = tmp_path / "a.bin"
    argv = ("gen", "--kind", "one-sided-power", "--n", "1", "--L", "2", "--alpha", alpha)
    code, stdout, stderr = run(capsys, *argv, "--out", str(out))
    assert (code, stdout) == (2, "")
    assert stderr.startswith("error: alpha must lie in (0, 19.3333) at L=2, got ")
    assert not out.exists() and not (tmp_path / "a.bin.json").exists()

    code, _, _ = run(capsys, *argv[:-1], "19", "--out", str(out))
    assert code == 0
    f = load_grid(str(out))
    column = f.values.ravel().tolist()
    assert column[0] == 1 << 61 and column == sorted(column, reverse=True) and column[-1] >= 0


@pytest.mark.parametrize("value", [(1 << 62) - 1, 1 - (1 << 62)])
def test_gen_constant_value_from_both_sides_of_the_int64_rule(tmp_path, capsys, value):
    """A constant value below 2^62 in magnitude builds its grid exactly; one
    of magnitude 2^62 (or 2^70) exits 2 naming the value, and writes no file."""
    out = tmp_path / "c.bin"
    argv = ("gen", "--kind", "constant", "--n", "1", "--L", "2", "--out", str(out))
    assert run(capsys, *argv, "--value", str(value))[0] == 0
    assert load_grid(str(out)).values.ravel().tolist() == [value] * 12
    out.unlink()
    for past in (value + (1 if value > 0 else -1), 1 << 70):
        code, stdout, stderr = run(capsys, *argv, "--value", str(past))
        assert (code, stdout) == (2, "")
        assert stderr == f"error: constant value {past} must lie below 2^62 in magnitude\n"
        assert not out.exists()


@pytest.mark.parametrize("kind", ["uniform-random", "dyadic-martingale", "time-step"])
def test_gen_denom_from_both_sides_of_the_draw_bound(tmp_path, capsys, kind):
    """At n=1, L=2 a drawing kind's numerators stay within (2 + 10 + 3) * denom:
    the largest denom under 2^62 / 15 builds a grid within that range (no
    int64 draw or sum wrapped), and the next one, or 2^63, exits 2 naming
    denom."""
    top = ((1 << 62) - 1) // 15
    out = tmp_path / "d.bin"
    argv = ("gen", "--kind", kind, "--n", "1", "--L", "2", "--seed", "3", "--out", str(out))
    assert run(capsys, *argv, "--mode", f"fixed:{top}")[0] == 0
    cells = load_grid(str(out)).values.ravel().tolist()
    assert 0 <= min(cells) and max(cells) <= 15 * top and max(cells) > top // 2
    out.unlink()
    for denom in (top + 1, 1 << 63):
        code, stdout, stderr = run(capsys, *argv, "--mode", f"fixed:{denom}")
        assert (code, stdout) == (2, "")
        assert stderr.startswith(f"error: denom {denom} is too large for kind '{kind}' at n=1, L=2")
        assert not out.exists()


def test_exit_1_names_every_failed_theorem_check(example_path, capsys, monkeypatch):
    """A real theorem run with its p9, p11 and distribution flags failed: exit
    1 names all three, and the document's pass keys read false."""
    from dataclasses import replace

    run_ = verification.theorem_check(LemmaContext(load_grid(example_path), 2, Fraction(1, 4)))
    assert run_.passed and run_.failed_ids() == []
    failing = replace(run_, passed_p9=False, passed_p11=False, passed_dist=False)
    assert failing.failed_ids() == ["p9", "p11", "Theorem"]
    monkeypatch.setattr(cli, "theorem_check", lambda *a, **k: failing)
    code, stdout, stderr = run(
        capsys, "verify", "theorem", "--input", example_path, "--p", "2", "--b", "1/4"
    )
    assert code == 1
    assert stderr == "FAIL: Theorem, p11, p9\n"
    doc = json.loads(stdout)
    assert [doc[key] for key in ("pass", "pass-p9", "pass-p11", "pass-dist")] == [False] * 4
