"""Smoke mode of the benchmark: tiny grids, every workload, a few seconds each.

Also checks, in-process, the witness mapping through the relabelling and
that a rejected command line counts as a failed op.

Run with ``python -m pytest perfbench`` from the root of a source checkout.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
import run  # noqa: E402

run.import_jnplus()
import workloads  # noqa: E402
from jnplus import GeneratorSpec, gen, save_grid  # noqa: E402
from jnplus.cli import main as cli_main  # noqa: E402


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_emits_every_metric_with_its_unit(workload, trace):
    proc = run_bench(
        ROOT, "--smoke", "--workload", workload, "--seed", "1", "--seconds", "1",
        "--trace", str(trace),
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(
        tmp_path, "--workload", SPEC["workloads"][0]["name"], "--seed", "0", "--seconds", "1",
        "--trace", "0",
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def seminorm_report(path: str) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli_main(["seminorm", "--input", path, "--p", "2"]) == 0
    return json.loads(out.getvalue())


def test_witness_digest_undoes_the_relabelling(tmp_path):
    spec = GeneratorSpec("uniform-random", 2, 4, 0, "fixed", 256)
    base = gen(spec)
    save_grid(base, str(tmp_path / "base.bin"))
    want = seminorm_report(str(tmp_path / "base.bin"))
    for seed in (1, 2):
        flips = workloads.tree_flips(np.random.default_rng(seed), spec.n, spec.L)
        save_grid(workloads.relabel(base, flips), str(tmp_path / "moved.bin"))
        got = seminorm_report(str(tmp_path / "moved.bin"))
        assert got["jnp-plus"]["witness"] != want["jnp-plus"]["witness"]
        for name in workloads.SEMINORMS:
            assert workloads.witness_digest(got[name], flips) == workloads.witness_digest(want[name])


def test_rejected_argv_is_a_failed_op():
    bad = workloads.Op("bad", ("verify", "good-lambda", "--no-such-option"))
    wl = workloads.Workload(setup=lambda: None, ops=[bad], warmup=[])
    runner = run.Runner(wl)
    runner.lap()
    assert runner.attempted == 1
    assert len(runner.failures) == 1 and "exit 2" in runner.failures[0]
