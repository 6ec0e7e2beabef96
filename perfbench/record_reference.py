"""Regenerate ``reference.json``: the digests and weights the benchmark checks against.

Usage, from the root of a source checkout::

    python3 perfbench/record_reference.py

Run it only on a commit whose reports are known good; a later commit must
reproduce every fixed-mode report byte for byte.  It records:

* the sha256 of every fixed-mode op of ``corpus-chain`` and ``lemma-deep``,
  whose reports do not depend on the seed, after checking that they agree
  across all of ``REFERENCE_SEEDS``;
* per reference seed, the sha256 of the fixed-mode ``seminorm-deep`` ops;
* the exact weights of the ``seminorm-deep`` int64 grid and the digests of
  its witnesses mapped back through the relabelling, after checking that
  they agree across all reference seeds.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (sets no state on import)


REFERENCE_SEEDS = range(10)


def record() -> dict:
    import workloads

    ref: dict = {name: {} for name in run.WORKLOADS}
    for name in run.WORKLOADS:
        for seed in REFERENCE_SEEDS:
            wl = workloads.build(name, seed, smoke=False, reference={})
            runner = run.Runner(wl)
            wl.setup()
            digests = {}
            for op in wl.ops:
                rc, _, out, err = runner.call(op.argv)
                if rc != 0:
                    raise SystemExit(f"{name} seed {seed} {op.key} failed ({rc}): {err}")
                if op.fixed:
                    digests[op.key] = workloads.digest(out)
                if name == "seminorm-deep" and op.key == "fixed":
                    doc = wl.summary(op.key, json.loads(out))
                    fields = {
                        "weights": {s: doc[s]["weight"]["exact"] for s in workloads.SEMINORMS},
                        "witnesses": {s: doc[s]["witness-digest"] for s in workloads.SEMINORMS},
                    }
                    for field, got in fields.items():
                        if ref[name].setdefault(field, got) != got:
                            raise SystemExit(f"seminorm {field} depend on the seed ({seed})")
            if name == "seminorm-deep":
                ref[name].setdefault("seeds", {})[str(seed)] = digests
            elif ref[name].setdefault("digests", digests) != digests:
                raise SystemExit(f"{name} reports depend on the seed ({seed})")
            print(f"{name} seed {seed}: {len(digests)} digests", file=sys.stderr)
    return ref


def main() -> int:
    for var in run.THREAD_VARS:
        os.environ[var] = "1"
    run.import_jnplus()
    run.OUT_DIR.mkdir(exist_ok=True)
    work = run.OUT_DIR / f"record-{os.getpid()}"
    work.mkdir()
    cwd = os.getcwd()
    os.chdir(work)
    try:
        ref = record()
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)
    with open(HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
