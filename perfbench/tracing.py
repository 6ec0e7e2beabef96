"""Span tracing around the jnplus layers, installed from outside the package.

Only the traced run calls :meth:`Tracer.install`; the untraced run never
touches the package.  Installing replaces each traced function in every
``jnplus`` module namespace that binds it (``jnplus.verification.
maximal_function`` as well as ``jnplus.maximal.maximal_function``) and each
traced method on its class, and :meth:`Tracer.uninstall` puts the originals
back.

A span records its layer, start, end, parent span and op id.  Spans stay in
memory in flat arrays and are written out by :meth:`Tracer.dump` when the
run ends.  A layer's self time is its spans' duration minus the duration of
their direct children, so the self times of all layers add up to the time
spent inside the outermost spans.
"""

from __future__ import annotations

import json
import os
import sys
import weakref
from array import array
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np

from jnplus.cubes import DyadicCube
from jnplus.grid import GridFunction
from jnplus.maximal import MaximalField


@dataclass(frozen=True)
class Layer:
    """One traced entry point: metric prefix, defining module, attribute path."""

    name: str
    module: str
    attr: str


LAYERS = (
    Layer("cli.main", "jnplus.cli", "main"),
    Layer("gridio.load_grid", "jnplus.gridio", "load_grid"),
    Layer("gridio.save_grid", "jnplus.gridio", "save_grid"),
    Layer("corpus.gen", "jnplus.corpus", "gen"),
    Layer("grid.GridFunction.init", "jnplus.grid", "GridFunction.__init__"),
    Layer("grid.GridFunction.block_sums", "jnplus.grid", "GridFunction.block_sums"),
    Layer("grid.GridFunction.prefix", "jnplus.grid", "GridFunction.prefix"),
    Layer("grid.average", "jnplus.grid", "average"),
    Layer("grid.distribution_measure", "jnplus.grid", "distribution_measure"),
    Layer("grid.offset_positive_part", "jnplus.grid", "offset_positive_part"),
    Layer("blocks.clamped_sums", "jnplus._blocks", "clamped_sums"),
    Layer("blocks.absdev_sums", "jnplus._blocks", "absdev_sums"),
    Layer("maximal.maximal_function", "jnplus.maximal", "maximal_function"),
    Layer("maximal.cz_decompose", "jnplus.maximal", "cz_decompose"),
    Layer("maximal.select_subfamily", "jnplus.maximal", "select_subfamily"),
    Layer(
        "maximal.MaximalField.superlevel_mask", "jnplus.maximal", "MaximalField.superlevel_mask"
    ),
    Layer("seminorms.jnp_plus_dyadic", "jnplus.seminorms", "jnp_plus_dyadic"),
    Layer("seminorms.jnp_classical_dyadic", "jnplus.seminorms", "jnp_classical_dyadic"),
    Layer("seminorms.bmo_plus_dyadic", "jnplus.seminorms", "bmo_plus_dyadic"),
    Layer("seminorms.bmo_plus_limit_form", "jnplus.seminorms", "bmo_plus_limit_form"),
    Layer("verification.LemmaContext", "jnplus.verification", "LemmaContext.__init__"),
    Layer("verification.good_lambda_check", "jnplus.verification", "good_lambda_check"),
    Layer("verification.theorem_check", "jnplus.verification", "theorem_check"),
    Layer("verification.default_lambda_grid", "jnplus.verification", "default_lambda_grid"),
    Layer("verification.proof_constant", "jnplus.verification", "proof_constant"),
    Layer("reports.canonical_json", "jnplus.reports", "canonical_json"),
)

# Work counted at the layer boundaries, per lap.  The three array counters
# classify every GridFunction built and every MaximalField returned by the
# dtype of its values, which is how the silent big-integer fallback shows.
COUNTERS = (
    "grid.int64_arrays",
    "grid.object_arrays",
    "grid.f64_arrays",
    "grid.block_sums.repeats",
    "maximal.stopping_cubes",
    "seminorms.witness_cubes",
    "cubes.DyadicCube.created",
    "verification.admissible",
    "reports.bytes",
    "gridio.bytes_read",
    "gridio.bytes_written",
)

_DTYPE_COUNTER = {"i": "grid.int64_arrays", "O": "grid.object_arrays", "f": "grid.f64_arrays"}


def _file_bytes(path: str) -> int:
    # binary grids carry a JSON sidecar next to the payload
    paths = [path] if path.endswith(".json") else [path, path + ".json"]
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p))


class Tracer:
    """Collects spans and counters while installed; computes per-lap layer metrics."""

    def __init__(self) -> None:
        self.names = [layer.name for layer in LAYERS]
        self.layer = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.op_id = -1
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._seen_levels: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "jnplus"]
        notes = self._notes()
        for idx, layer in enumerate(LAYERS):
            owner = sys.modules[layer.module]
            *path, attr = layer.attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            orig = getattr(owner, attr)
            wrapper = self._spanned(idx, orig, notes.get(layer.name))
            if path:  # a method: rebind on its class
                self._rebind(owner, attr, orig, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._rebind(mod, key, orig, wrapper)
        self._rebind(DyadicCube, "__init__", DyadicCube.__init__, self._counted(DyadicCube.__init__))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    def _rebind(self, owner, attr: str, orig, wrapper) -> None:
        self._restore.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def _spanned(self, idx: int, fn: Callable, note: Callable | None) -> Callable:
        stack = self._stack

        def wrapper(*args, **kwargs):
            sid = len(self.start)
            self.layer.append(idx)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.end.append(0.0)
            stack.append(sid)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[sid] = perf_counter()
                stack.pop()
            if note is not None:
                note(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    def _counted(self, fn: Callable) -> Callable:
        counts = self.counts

        def init(*args, **kwargs):
            counts["cubes.DyadicCube.created"] += 1
            fn(*args, **kwargs)

        init.__wrapped__ = fn
        return init

    # -- counters ------------------------------------------------------------

    def _notes(self) -> dict[str, Callable]:
        counts = self.counts
        seen = self._seen_levels

        def array_kind(args, result):
            obj = args[0] if result is None else result  # __init__ returns None
            if isinstance(obj, (GridFunction, MaximalField)):
                key = _DTYPE_COUNTER.get(obj.values.dtype.kind)
                if key is not None:
                    counts[key] += 1

        def block_sums(args, result):
            gf, k = args[0], int(args[1])
            levels = seen.setdefault(gf, set())
            if k in levels:
                counts["grid.block_sums.repeats"] += 1
            levels.add(k)

        def stopping(args, result):
            counts["maximal.stopping_cubes"] += len(result.stopping)

        def witness(args, result):
            counts["seminorms.witness_cubes"] += len(result.witness)

        def lemma(args, result):
            counts["verification.admissible"] += int(bool(result.admissible))

        def report(args, result):
            counts["reports.bytes"] += len(result.encode("utf-8"))

        def loaded(args, result):
            counts["gridio.bytes_read"] += _file_bytes(args[0])

        def saved(args, result):
            counts["gridio.bytes_written"] += _file_bytes(args[1])

        return {
            "grid.GridFunction.init": array_kind,
            "grid.GridFunction.block_sums": block_sums,
            "maximal.maximal_function": array_kind,
            "maximal.cz_decompose": stopping,
            "seminorms.jnp_plus_dyadic": witness,
            "seminorms.jnp_classical_dyadic": witness,
            "seminorms.bmo_plus_dyadic": witness,
            "seminorms.bmo_plus_limit_form": witness,
            "verification.good_lambda_check": lemma,
            "reports.canonical_json": report,
            "gridio.load_grid": loaded,
            "gridio.save_grid": saved,
        }

    # -- results -------------------------------------------------------------

    def mark(self) -> tuple[int, dict[str, int]]:
        """Position to measure a lap from: span count and a counter snapshot."""
        return len(self.start), dict(self.counts)

    def lap_metrics(self, since: tuple[int, dict[str, int]], wall: float) -> dict[str, float]:
        """Self time and calls per layer, and counters, for the spans after ``since``.

        ``trace.coverage`` is the time in spans below ``cli.main`` over
        ``wall``, the same ops' untraced time.  It falls short of 1 by the
        time no named layer covers, and the tracer's own cost inside the
        spans can lift it a little above 1.
        """
        first, counts0 = since
        # slicing an array.array copies it, so no view pins the growing buffers
        names = np.frombuffer(self.layer[first:], dtype=np.int32)
        parent = np.frombuffer(self.parent[first:], dtype=np.int64)
        dur = np.frombuffer(self.end[first:]) - np.frombuffer(self.start[first:])
        nested = parent >= first
        child = np.bincount(parent[nested] - first, weights=dur[nested], minlength=dur.size)
        self_time = np.bincount(names, weights=dur - child, minlength=len(LAYERS))
        calls = np.bincount(names, minlength=len(LAYERS))
        out: dict[str, float] = {}
        for i, name in enumerate(self.names):
            out[f"{name}.self_s"] = float(self_time[i])
            out[f"{name}.calls"] = float(calls[i])
        delta = {k: self.counts[k] - counts0[k] for k in COUNTERS}
        repeats = delta.pop("grid.block_sums.repeats")
        requests = out["grid.GridFunction.block_sums.calls"]
        out["grid.block_sums.hit_ratio"] = repeats / requests if requests else 0.0
        out.update((k, float(v)) for k, v in delta.items())
        cli = self.names.index("cli.main")
        out["trace.coverage"] = (float(dur[~nested].sum()) - float(self_time[cli])) / wall
        return out

    def dump(self, path: str, stamp: dict) -> None:
        """Write every span and the layer names to ``path`` (.npz)."""
        np.savez_compressed(
            path,
            layer=np.array(self.layer, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int64),
            op=np.array(self.op, dtype=np.int64),
            start=np.array(self.start, dtype=np.float64),
            end=np.array(self.end, dtype=np.float64),
            names=np.array(self.names),
            stamp=np.array(json.dumps(stamp, sort_keys=True)),
        )
