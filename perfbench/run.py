"""jnplus benchmark: time to verified reports on three CLI workloads.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload corpus-chain|lemma-deep|seminorm-deep \\
        --seed N --seconds S --trace 0|1 [--smoke]

Each run is one process, single-threaded (numeric libraries are pinned to
one thread before numpy loads).  It imports ``jnplus`` from ``src/`` of the
checkout and drives the public entry point in-process with
``jnplus.cli.main(argv)``, stdout captured.  It sets up the workload's input
files five times and reports the median as ``setup_s``, then repeats the
workload's list of commands (a lap) until ``--seconds`` would run out, and
checks every report (see ``workloads``).

``--trace 0`` prints the end-to-end metrics: median lap time ``wall_s``,
``setup_s``, per-command ``op_p50_s``/``op_p90_s`` and ``peak_rss_mb``.
Times are scaled to a reference machine speed measured by ``speed_probe``
around every lap and set-up; the raw lap times and their factors are printed
above the result.
``--trace 1`` runs every op untraced and traced back to back and prints
per-layer self times, call counts and work counters (medians over laps),
``trace.coverage`` (the time in spans below ``cli.main`` over the untraced
lap time) and the traced/untraced time ratio; the spans go to
``.perfbench_out/``.  ``--smoke`` runs tiny grids in seconds.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` (ops, over all laps) and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("corpus-chain", "lemma-deep", "seminorm-deep")
SETUP_REPEATS = 5
# speed_probe() takes PROBE_REF_S at the machine speed the reported times are
# scaled to (about its median on a 2-vCPU Intel Xeon virtual machine); it runs at
# every lap boundary and between ops once PROBE_EVERY_S has passed.
PROBE_REF_S = 0.1
PROBE_EVERY_S = 2.0

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    from tracing import COUNTERS, LAYERS

    units = {}
    for layer in LAYERS:
        units[f"{layer.name}.self_s"] = "s"
        units[f"{layer.name}.calls"] = "count"
    for name in COUNTERS:
        if name == "grid.block_sums.repeats":
            units["grid.block_sums.hit_ratio"] = "ratio"
        else:
            units[name] = "bytes" if "bytes" in name else "count"
    units["trace.coverage"] = "ratio"
    units["trace.overhead_ratio"] = "ratio"
    return units


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny grids, no reference digests")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def import_jnplus():
    """Import jnplus from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "jnplus" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no jnplus sources under {src}")
    sys.path.insert(0, str(src))
    import jnplus
    import jnplus.cli  # noqa: F401  (the entry point the ops call)

    if Path(jnplus.__file__).resolve().parent != src / "jnplus":
        raise SystemExit(f"perfbench: jnplus imported from {jnplus.__file__}, not {src}")
    return jnplus


def stamp(seed: int, workload: str) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "commit": git_commit(),
        "threads": {k: os.environ[k] for k in THREAD_VARS},
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        res = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def speed_probe() -> float:
    """Seconds taken by a fixed piece of work that never calls jnplus.

    On a shared host the CPU speed a process gets drifts by up to half over
    minutes.  The probe mixes the kinds of work the program does (Fraction
    arithmetic, small objects, pure-Python JSON encoding, many small int64
    array operations, conversion to Python ints) in under 1 MB of memory, so
    its slowdowns track the program's without raising the peak RSS,
    and the benchmark scales each lap's times by ``PROBE_REF_S`` over the
    median probe time around that lap.
    """
    import numpy as np

    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 5000):
        acc += Fraction(i % 97, i + 1)
    for r in range(24):
        recs = [{"lambda": i / 7, "E": [i, r], "pass": i % 3 == 0, "id": str(i)} for i in range(300)]
        json.dumps(recs, sort_keys=True, indent=2)
    a = np.arange(1 << 12, dtype=np.int64)
    for _ in range(700):
        a = np.maximum(a * 3 - 7, 0) % 1000003
        int(a[:64].sum())
    sum(int(v) for v in a.tolist())
    return time.perf_counter() - t0


class Runner:
    """Runs ops through ``jnplus.cli.main`` and checks their reports."""

    def __init__(self, workload, tracer=None) -> None:
        from workloads import digest

        self.wl = workload
        self.tracer = tracer
        self.digest = digest
        self.cli = sys.modules["jnplus.cli"]
        self.first_digest: dict[str, str] = {}
        self.laps = 0
        self.attempted = 0
        self.failures: list[str] = []
        self.op_times: list[float] = []  # scaled to the reference speed
        self.probes: list[float] = []
        self.last_probe = 0.0

    def probe(self) -> None:
        self.probes.append(speed_probe())
        self.last_probe = time.perf_counter()

    def call(self, argv) -> tuple[int | str, float, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = self.cli.main(list(argv))
            except SystemExit as exc:  # argparse rejecting the argv, for one
                rc = 0 if exc.code is None else exc.code
            except Exception:  # a crash is a failed op; the run goes on
                rc = "exception"
                traceback.print_exc()
            dt = time.perf_counter() - t0
        return rc, dt, out.getvalue(), err.getvalue()

    def warm(self) -> None:
        for argv in self.wl.warmup:
            rc, _, _, err = self.call(argv)
            if rc != 0:
                raise SystemExit(f"perfbench: warm-up {' '.join(argv)} failed ({rc}): {err}")

    def run_op(self, op, traced: bool) -> tuple[int | str, float, str, str]:
        if not traced:
            return self.call(op.argv)
        self.tracer.op_id += 1
        self.tracer.install()
        try:
            return self.call(op.argv)
        finally:
            self.tracer.uninstall()

    def lap(self, paired: bool = False) -> tuple[float, float, float]:
        """One pass over the workload's ops.

        Returns the summed untraced op time, the factor that scales it to the
        reference speed, and for a ``paired`` lap the summed time of the same
        ops traced.  A paired lap runs every op untraced and traced back to
        back, alternating which goes first, so both see the same machine.
        """
        self.laps += 1
        self.probes = []
        self.probe()
        times: list[float] = []
        traced_time = 0.0
        # per execution (op key, traced): a paired lap runs each op twice
        docs: dict[bool, dict[str, dict]] = {False: {}, True: {}}
        failed: dict[str, str] = {}
        for i, op in enumerate(self.wl.ops):
            if time.perf_counter() - self.last_probe >= PROBE_EVERY_S:
                self.probe()
            order = (False, True) if i % 2 == 0 else (True, False)
            for traced in order if paired else (False,):
                rc, dt, out, err = self.run_op(op, traced)
                if traced:
                    traced_time += dt
                else:
                    times.append(dt)
                self.attempted += 1
                name = f"{op.key} (traced)" if traced else op.key
                if rc != 0:
                    failed[name] = f"exit {rc}: {err.strip()[-300:]}"
                    continue
                d = self.digest(out)
                want = self.wl.digests.get(op.key) or self.first_digest.setdefault(op.key, d)
                if d != want:
                    failed[name] = f"sha256 {d[:16]} != reference {want[:16]}"
                if op.key in self.wl.keep:
                    docs[traced][op.key] = self.wl.summary(op.key, json.loads(out))
        for traced in (False, True) if paired else (False,):
            if len(docs[traced]) == len(self.wl.keep):
                for key, why in self.wl.check_lap(docs[traced]).items():
                    failed.setdefault(f"{key} (traced)" if traced else key, why)
        self.failures += [f"lap {self.laps} {key}: {why}" for key, why in sorted(failed.items())]
        gc.collect()  # the next lap starts without this lap's garbage
        self.probe()
        factor = PROBE_REF_S / statistics.median(self.probes)
        self.op_times += [t * factor for t in times]
        return sum(times), factor, traced_time


def median_metrics(rows: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def measure(runner: Runner, seconds: float, traced: bool) -> tuple[dict[str, float], list[str]]:
    """Repeat laps (paired ones when ``traced``) while another fits in ``seconds``.

    Returns the metrics and, per lap, its raw time and speed factor.
    """
    walls, ratios, layer_rows, laps = [], [], [], []
    t_start = time.perf_counter()
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        since = runner.tracer.mark() if traced else None
        wall, factor, traced_wall = runner.lap(paired=traced)
        walls.append(wall * factor)
        laps.append(f"{wall:.4f}x{factor:.3f}")
        if traced:
            laps[-1] += f"(traced {traced_wall:.4f})"
            layer_rows.append(runner.tracer.lap_metrics(since, wall))
            ratios.append(traced_wall / wall)
        now = time.perf_counter()
        longest = max(longest, now - t0)
        if now - t_start + longest > seconds:
            break
    if traced:
        out = median_metrics(layer_rows)
        out["trace.overhead_ratio"] = statistics.median(ratios)
        return out, laps
    times = runner.op_times
    return {
        "wall_s": statistics.median(walls),
        "op_p50_s": statistics.median(times),
        "op_p90_s": statistics.quantiles(times, n=10)[8] if len(times) > 1 else times[0],
    }, laps


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    import_jnplus()
    sys.path.insert(0, str(HERE))
    import workloads
    from tracing import Tracer

    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    wl = workloads.build(args.workload, args.seed, args.smoke, reference)
    info = stamp(args.seed, args.workload)
    print("stamp " + json.dumps(info, sort_keys=True), flush=True)

    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / f"work-{os.getpid()}"
    work.mkdir()
    cwd = os.getcwd()
    os.chdir(work)  # relative paths keep reports (gen's "out") identical
    try:
        tracer = Tracer() if args.trace else None
        runner = Runner(wl, tracer)
        setups = []
        for _ in range(SETUP_REPEATS):
            before = speed_probe()
            t0 = time.perf_counter()
            wl.setup()
            runner.warm()
            dt = time.perf_counter() - t0
            setups.append(dt * 2 * PROBE_REF_S / (before + speed_probe()))
        results, laps = measure(runner, args.seconds, traced=bool(args.trace))
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        units = per_layer_units()
        tag = f"{args.workload}-seed{args.seed}{'-smoke' if args.smoke else ''}"
        tracer.dump(str(OUT_DIR / f"trace-{tag}.npz"), info)
    else:
        units = END_TO_END
        results["setup_s"] = statistics.median(setups)
        results["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed = len(runner.failures)
    for line in runner.failures[:20]:
        print("FAILED " + line)
    print(f"ops {runner.attempted}  failed {failed}  failed_ratio {failed / runner.attempted:.6g}")
    print(f"setups_s(scaled) {' '.join(f'{t:.4f}' for t in setups)}  laps_s(raw x speed) {' '.join(laps)}")
    for name, unit in units.items():
        print(f"{name:42s} {results[name]:.6g} {unit}")
    metrics = {name: {"value": results[name], "unit": unit} for name, unit in units.items()}
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": runner.attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
