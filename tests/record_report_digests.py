"""Record the sha256 of every corpus report into ``tests/data/report_digests.json``.

Usage (no options; run it only on a commit whose reports are known good)::

    PYTHONPATH=src python tests/record_report_digests.py

Every one of the 50 bundled corpus specs is written twice, as generated
(fixed mode) and regenerated in f64 mode, and each grid runs through the
CLI: ``seminorm`` at p in {3/2, 2, 3}, ``verify good-lambda``, ``verify
theorem --csv``, ``decompose --lambda auto`` and ``maximal`` in both
variants with ``--out``, plus ``oracle`` on the n=1, L<=3 specs and one
``gen``.  The digests cover stdout and every file written, the input
grids included.  Ops run in the current directory with relative file
names, so no report carries a temporary path.
``tests/test_report_digests.py`` compares a fresh run against the file.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from jnplus import default_manifest, gen, save_grid
from jnplus.cli import main as jnplus

DIGESTS = Path(__file__).parent / "data" / "report_digests.json"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _files(paths) -> dict[str, str]:
    return {p: _sha(Path(p).read_bytes()) for p in paths}


def _run(argv: list[str], outputs: tuple[str, ...] = ()) -> dict[str, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = jnplus(argv)
    if code != 0:
        raise AssertionError(f"exit {code}: jnplus {' '.join(argv)}")
    return {"stdout": _sha(buf.getvalue().encode("utf-8")), **_files(outputs)}


def _grid_ops(path: str, n: int, L: int) -> dict[str, tuple[list[str], tuple[str, ...]]]:
    inp = ["--input", path]
    verify = inp + ["--p", "2", "--b", str(Fraction(1, 1 << (n + 1)))]
    ops = {
        f"seminorm/p={p}": (["seminorm", *inp, "--p", p], ())
        for p in ("3/2", "2", "3")
    }
    ops["good-lambda"] = (["verify", "good-lambda", *verify], ())
    ops["theorem"] = (["verify", "theorem", *verify, "--csv", "theorem.csv"], ("theorem.csv",))
    ops["decompose"] = (["decompose", *inp, "--lambda", "auto"], ())
    for variant in ("grid", "augmented"):
        out = f"maximal-{variant}.json"
        ops[f"maximal/{variant}"] = (
            ["maximal", *inp, "--variant", variant, "--out", out],
            (out,),
        )
    if n == 1 and L <= 3:
        ops["oracle"] = (["oracle", *inp, "--p", "2"], ())
    return ops


def report_digests() -> dict[str, dict[str, str]]:
    """Run every op in the current directory; digests keyed by op name."""
    out: dict[str, dict[str, str]] = {}
    for i, spec in enumerate(default_manifest()):
        for mode in ("fixed", "f64"):
            path = f"c{i:02d}-{mode}.bin"
            save_grid(gen(dataclasses.replace(spec, mode=mode)), path)
            out[f"{i:02d}/{mode}/input"] = _files((path, path + ".json"))
            for name, (argv, outputs) in _grid_ops(path, spec.n, spec.L).items():
                out[f"{i:02d}/{mode}/{name}"] = _run(argv, outputs)
    gen_argv = ["gen", "--kind", "one-sided-power", "--n", "2", "--L", "3", "--seed", "5"]
    gen_argv += ["--mode", "fixed:64", "--alpha", "0.5", "--out", "gen.bin"]
    out["gen"] = _run(gen_argv, ("gen.bin", "gen.bin.json"))
    return out


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            digests = report_digests()
        finally:
            os.chdir(cwd)
    DIGESTS.parent.mkdir(exist_ok=True)
    # one line per op keeps a changed digest visible in a diff
    lines = (f"{json.dumps(k)}: {json.dumps(digests[k], sort_keys=True)}" for k in sorted(digests))
    DIGESTS.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    ops = sum(1 for k in digests if not k.endswith("/input"))
    print(f"wrote {DIGESTS}: {ops} ops on {len(default_manifest())} specs", file=sys.stderr)


if __name__ == "__main__":
    main()
