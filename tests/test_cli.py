"""Command-line interface: subcommands, formats, exit codes."""

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import jnplus
from helpers import oracle_canonical_json
from jnplus import DyadicCube, bundled_example, gen, GeneratorSpec, load_grid, save_grid
from jnplus import cli
from jnplus.cli import main
from jnplus.corpus import MAX_CELLS


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


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "good-lambda", "--p", "2", "--b", "1/4"),
        ("verify", "theorem", "--p", "2", "--b", "1/4"),
        ("decompose", "--lambda", "auto"),
    ],
)
def test_sweep_builds_shared_work_once(example_path, capsys, monkeypatch, argv):
    calls = {}
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "jnplus"]
    for name in ("jnp_plus_dyadic", "offset_positive_part", "default_lambda_grid"):
        orig = getattr(jnplus, name)
        calls[name] = 0

        def counted(*args, _name=name, _orig=orig, **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)

        for mod in modules:  # every binding, as a tracer would see them
            for key, value in list(vars(mod).items()):
                if value is orig:
                    monkeypatch.setattr(mod, key, counted)
    code, _, _ = run(capsys, *argv, "--input", example_path)
    assert code == 0
    assert calls == dict.fromkeys(calls, 1), argv


def test_decompose_auto_builds_no_maximal_field(example_path, capsys, monkeypatch):
    """The lambda grid reads neither g's maximal field nor its forward mean."""
    calls = []
    orig = jnplus.maximal_function

    def counted(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    for mod in [m for name, m in sys.modules.items() if name.split(".")[0] == "jnplus"]:
        for key, value in list(vars(mod).items()):
            if value is orig:
                monkeypatch.setattr(mod, key, counted)
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
