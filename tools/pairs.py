"""Alternating parent/change pairs of ``perfbench/run.py``, summarised in a BENCH file.

Usage, from anywhere::

    python3 tools/pairs.py --parent DIR --change DIR --tag TAG \\
        --workload corpus-chain [--workload lemma-deep ...] \\
        --pairs 10 --seed 4101 --seconds 36

``--parent`` and ``--change`` are two source checkouts (for example a
``git clone`` of the parent commit and the working tree); each run is
``python3 perfbench/run.py --workload W --seed S --seconds T --trace 0``
inside one of them, so both sides run their own benchmark code.  Pair i
uses seed ``--seed`` + i on every workload.  Even pairs run the parent
first and odd pairs the change first, and the workloads take turns
within a pair index, so slow drift of the machine falls on both sides.

The summary goes to ``BENCH_<TAG>.json`` at the root of the checkout
holding this script, rewritten after every pair so an interrupted run
keeps what it measured.  Per workload and end-to-end metric it holds
each side's runs, median and [q1, q3] (inclusive quartiles), the pairs
the change won (ties count for neither), and whether that is a gain by
the rule of at least 9 pairs in 10 and medians further apart than the
parent's interquartile range.  It also records the seeds, the failed
operation counts, the Python, numpy and CPU stamp and each side's commit
that ``run.py`` prints (the checkout's HEAD: uncommitted edits do not
show in it), and each side's source digest, a sha256 over the files
under ``src/`` and ``perfbench/`` that does show them, also for a copy
made with ``git archive``.  Pass the same directory twice for an A/A
run, which measures the noise floor.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9
DIGESTED = ("src", "perfbench")


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, type=Path, help="checkout of the change")
    ap.add_argument("--tag", required=True, help="the file written is BENCH_<tag>.json")
    ap.add_argument("--workload", required=True, action="append", help="repeat for several")
    ap.add_argument("--pairs", required=True, type=int)
    ap.add_argument("--seed", required=True, type=int, help="seed of the first pair")
    ap.add_argument("--seconds", required=True, type=float)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    for side in (args.parent, args.change):
        if not (side / "perfbench" / "run.py").is_file():
            ap.error(f"{side}: no perfbench/run.py")
    return args


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run.py process in ``tree``: its stamp and its result line."""
    argv = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{tree}: {' '.join(argv)} exited {proc.returncode}\n{proc.stderr}")
    stamp = next(json.loads(ln[len("stamp "):]) for ln in lines if ln.startswith("stamp "))
    return {"stamp": stamp, "result": json.loads(lines[-1])}


def source_digest(tree: Path) -> str:
    """sha256 over the relative paths and bytes of the files under ``tree``'s
    ``src/`` and ``perfbench/``, in path order, ``__pycache__`` skipped."""
    files = sorted(
        path.relative_to(tree) for top in DIGESTED for path in (tree / top).rglob("*")
        if path.is_file() and "__pycache__" not in path.relative_to(tree).parts
    )
    h = hashlib.sha256()
    for rel in files:
        data = (tree / rel).read_bytes()
        rel = rel.as_posix()
        h.update(f"{len(rel)}:{rel}{len(data)}:".encode())
        h.update(data)
    return h.hexdigest()


def spread(values: list[float]) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": values}


def summarise(runs: dict, better: dict[str, str]) -> dict:
    """Per metric: both sides' spreads, pairs won, and whether the gain holds."""
    out = {}
    pairs = len(runs["change"])
    for name, direction in better.items():
        par = [r["metrics"][name]["value"] for r in runs["parent"]]
        chg = [r["metrics"][name]["value"] for r in runs["change"]]
        sign = 1.0 if direction == "lower" else -1.0
        won = sum(1 for a, b in zip(par, chg) if sign * (a - b) > 0)
        p, c = spread(par), spread(chg)
        gain = sign * (p["median"] - c["median"])
        out[name] = {
            "unit": runs["change"][0]["metrics"][name]["unit"],
            "better": direction,
            "parent": p,
            "change": c,
            "change_vs_parent": c["median"] / p["median"] - 1.0 if p["median"] else None,
            "pairs_won": won,
            "gain": won >= WIN_SHARE * pairs and gain > p["q3"] - p["q1"],
        }
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    out_path = ROOT / f"BENCH_{args.tag}.json"
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    digests = {side: source_digest(tree) for side, tree in sides.items()}
    runs = {w: {"parent": [], "change": []} for w in args.workload}
    stamps = {}
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for w in args.workload:
            for side in order:
                got = run_once(sides[side], w, seed, args.seconds)
                runs[w][side].append(got["result"])
                stamps[side] = got["stamp"]
                m = got["result"]["metrics"]
                print(f"pair {i} {w} {side} seed {seed} wall_s {m['wall_s']['value']:.4f}", flush=True)
        doc = {
            "tag": args.tag,
            "seconds": args.seconds,
            "pairs": i + 1,
            "seeds": [args.seed + j for j in range(i + 1)],
            "first_in_pair": "parent on even pairs, change on odd pairs",
            "stamp": {
                k: stamps["change"][k] for k in ("python", "numpy", "cpu", "nproc", "threads")
            },
            "commits": {side: stamps[side].get("commit") for side in sides},
            "source_digests": digests,
            "workloads": {
                w: {
                    "attempted": {s: sum(r["attempted"] for r in runs[w][s]) for s in sides},
                    "failed": {s: sum(r["failed"] for r in runs[w][s]) for s in sides},
                    "metrics": summarise(runs[w], better),
                }
                for w in args.workload
            },
        }
        out_path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    for w, entry in doc["workloads"].items():
        for name, m in entry["metrics"].items():
            print(
                f"{w:14s} {name:12s} {m['parent']['median']:.5g} -> {m['change']['median']:.5g}"
                f" ({100 * (m['change_vs_parent'] or 0):+.1f}%, won {m['pairs_won']}/{doc['pairs']},"
                f" gain {m['gain']})"
            )
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
