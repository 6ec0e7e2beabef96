"""The three benchmark workloads: their input files, CLI ops and output checks.

Every workload runs a fixed list of ``jnplus`` CLI commands (a lap) on grid
files that its set-up writes into the current directory.  The benchmark seed
changes the inputs without changing the amount of work, because wall time
that swings with the seed would hide a regression:

* ``corpus-chain`` runs the bundled 50-spec manifest at its own spec seeds,
  in an order the benchmark seed shuffles.  Offsetting the spec seeds
  instead would move the lap between 9 s and 14 s from seed to seed,
  mostly through the n=2 ``time-step`` grids.
* ``lemma-deep`` and ``seminorm-deep`` take fixed base grids and relabel
  them by a random automorphism of the dyadic tree along each spatial axis
  (at every node, maybe swap the two halves).  Dyadic cubes map to dyadic
  cubes and the time axis is untouched, so the relabelled grid has the same
  averages on the same tree, the same stopping families and the same work,
  and every report that carries no cube positions is identical byte for
  byte.

Output checks (an op that fails any of them counts as failed):

* the command exits 0, since every input satisfies the whole chain;
* the sha256 of a fixed-mode report matches the shipped reference digest
  wherever one exists (every seed for ``corpus-chain`` and ``lemma-deep``,
  the reference seeds for ``seminorm-deep``, whose witnesses move with the
  relabelling); otherwise it matches the op's output in the first lap;
* f64 reports agree with the fixed-mode report of the same grid within the
  documented 1e-9 relative tolerance (seminorm values, ``K``);
* the big-integer copy ``scale_values(f, 2**40)`` has every seminorm weight
  exactly 2^(40p) (jnp) or 2^40 (bmo) times the int64 grid's weight and the
  same witness cubes, and the int64 grid's weights equal the shipped
  reference weights;
* on every seed, the int64 grid's witnesses, mapped back through the
  relabelling, match the shipped reference digests.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from jnplus import GeneratorSpec, default_manifest, gen, save_grid, scale_values
from jnplus.grid import GridFunction

F64_REL_TOL = 1e-9
BIG_SCALE_BITS = 40
SEMINORMS = ("jnp-plus", "jnp-classical", "bmo-plus", "bmo-limit")


@dataclass(frozen=True)
class Op:
    """One CLI command of a lap; ``key`` names it in digests and failures."""

    key: str
    argv: tuple[str, ...]
    fixed: bool = True  # fixed-mode output: compared byte for byte


@dataclass
class Workload:
    setup: Callable[[], None]
    ops: list[Op]
    warmup: list[tuple[str, ...]]
    # lap-level checks over summary(key, report) of the ops in ``keep``
    keep: tuple[str, ...] = ()
    summary: Callable[[str, dict], dict] = lambda key, doc: scalars(doc)
    check_lap: Callable[[dict[str, dict]], dict[str, str]] = lambda docs: {}
    digests: dict[str, str] = field(default_factory=dict)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def scalars(doc: dict) -> dict:
    """``doc`` without its lists (witnesses, per-lambda records), for the lap checks."""
    return {
        k: scalars(v) if isinstance(v, dict) else v
        for k, v in doc.items()
        if not isinstance(v, list)
    }


def gen_argv(spec: GeneratorSpec, out: str) -> tuple[str, ...]:
    argv = ["gen", "--kind", spec.kind, "--n", str(spec.n), "--L", str(spec.L)]
    mode = f"fixed:{spec.denom}" if spec.mode == "fixed" else "f64"
    argv += ["--seed", str(spec.seed), "--mode", mode]
    for key, value in sorted(spec.params.items()):
        argv += [f"--{key}", str(value)]
    return tuple(argv + ["--out", out])


def tree_flips(rng: np.random.Generator, n: int, L: int) -> list[list[np.ndarray]]:
    """Per spatial axis, per level j < L, one coin flip for each level-j dyadic interval."""
    return [[rng.integers(0, 2, size=1 << j) for j in range(L)] for _ in range(n - 1)]


def flip_mask(flips: list[np.ndarray], idx: np.ndarray, k: int) -> np.ndarray:
    """The mask XORed into level-k indices ``idx``: bit k-1-j is the flip of the level-j ancestor."""
    mask = np.zeros_like(idx)
    for j in range(k):
        mask |= flips[j][idx >> (k - j)] << (k - 1 - j)
    return mask


def relabel(f: GridFunction, flips: list[list[np.ndarray]]) -> GridFunction:
    """``f`` under the automorphism of the dyadic tree that ``flips`` draws on each spatial axis.

    The value at leaf x comes from leaf x XOR mask(x) of ``f``.  Each ancestor
    prefix of x determines the same prefix of mask(x), so every dyadic
    interval maps onto a dyadic interval of the same level.
    """
    vals = f.values
    x = np.arange(f.side)
    for axis, axis_flips in enumerate(flips):
        vals = np.take(vals, x ^ flip_mask(axis_flips, x, f.L), axis=axis)
    return GridFunction(f.n, f.L, vals, f.mode, f.denom)


def witness_digest(result: dict, flips: list[list[np.ndarray]] | None = None) -> str:
    """sha256 of a seminorm's witness cubes and their weights, in canonical order.

    With ``flips``, each cube is first mapped back to the cube of the grid
    before :func:`relabel`, so the digest does not depend on the relabelling.
    """
    cubes = result["witness"]
    level = np.array([c["level"] for c in cubes], dtype=np.int64)
    spatial = np.array([c["spatial"] for c in cubes], dtype=np.int64).reshape(len(cubes), -1)
    for axis, axis_flips in enumerate(flips or ()):
        for k in np.unique(level):
            at = level == k
            spatial[at, axis] ^= flip_mask(axis_flips, spatial[at, axis], int(k))
    rows = sorted(
        (c["level"], s, c["time"], w["exact"])
        for c, s, w in zip(cubes, spatial.tolist(), result["witness-weights"])
    )
    return digest(json.dumps(rows))


def _warm_grid() -> tuple[str, ...]:
    return gen_argv(GeneratorSpec("uniform-random", 1, 2, 0, "fixed", 16), "warm.bin")


def _verify(path: str, p: str, b: str) -> list[tuple[str, tuple[str, ...]]]:
    args = ("--input", path, "--p", p, "--b", b)
    return [
        ("good-lambda", ("verify", "good-lambda") + args),
        ("theorem", ("verify", "theorem") + args),
    ]


WARM_VERIFY = tuple(argv for _, argv in _verify("warm.bin", "2", "1/4"))


# -- corpus-chain -----------------------------------------------------------


def corpus_chain(seed: int, smoke: bool) -> Workload:
    """gen + good-lambda + theorem at p in {3/2, 2, 3} for every manifest spec."""
    specs = list(enumerate(default_manifest()))
    if smoke:
        specs = [(i, s) for i, s in specs if s.L == 3][:4]
    random.Random(seed).shuffle(specs)
    ops: list[Op] = []
    for i, spec in specs:
        path = f"c{i:02d}.bin"
        ops.append(Op(f"{i:02d}/gen", gen_argv(spec, path)))
        b = str(Fraction(1, 1 << (spec.n + 1)))
        for p in ("3/2", "2", "3"):
            for cmd, argv in _verify(path, p, b):
                ops.append(Op(f"{i:02d}/{cmd}/p={p}", argv))
    return Workload(
        setup=lambda: None,
        ops=ops,
        warmup=[_warm_grid(), *WARM_VERIFY],
    )


# -- lemma-deep -------------------------------------------------------------

LEMMA_GRIDS = (
    ("martingale", GeneratorSpec("dyadic-martingale", 2, 8, 3, "fixed", 256)),
    ("uniform", GeneratorSpec("uniform-random", 2, 8, 0, "fixed", 256)),
    ("uniform-f64", GeneratorSpec("uniform-random", 2, 8, 0, "f64", 256)),
)


def _smaller(spec: GeneratorSpec) -> GeneratorSpec:
    return GeneratorSpec(spec.kind, spec.n, 3, spec.seed, spec.mode, spec.denom)


def _write_relabelled(specs, seed: int) -> None:
    # every grid of a workload gets the same relabelling
    for name, spec in specs:
        flips = tree_flips(np.random.default_rng(seed), spec.n, spec.L)
        save_grid(relabel(gen(spec), flips), f"{name}.bin")


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= F64_REL_TOL * abs(b)


def lemma_deep(seed: int, smoke: bool) -> Workload:
    """good-lambda and theorem (p=2, b=1/8, auto lambda) on three n=2, L=8 grids."""
    grids = [(name, _smaller(s) if smoke else s) for name, s in LEMMA_GRIDS]
    ops = [
        Op(f"{name}/{cmd}", argv, fixed=spec.mode == "fixed")
        for name, spec in grids
        for cmd, argv in _verify(f"{name}.bin", "2", "1/8")
    ]

    def check_lap(docs: dict[str, dict]) -> dict[str, str]:
        failures = {}
        for cmd in ("good-lambda", "theorem"):
            fixed, f64 = float(docs[f"uniform/{cmd}"]["K"]), float(docs[f"uniform-f64/{cmd}"]["K"])
            if not _close(f64, fixed):
                failures[f"uniform-f64/{cmd}"] = f"K {f64!r} vs fixed {fixed!r}"
        return failures

    return Workload(
        setup=lambda: _write_relabelled(grids, seed),
        ops=ops,
        warmup=[_warm_grid(), *WARM_VERIFY],
        keep=tuple(op.key for op in ops if op.key.startswith("uniform")),
        check_lap=check_lap,
    )


# -- seminorm-deep ----------------------------------------------------------

SEMINORM_GRID = GeneratorSpec("uniform-random", 2, 8, 0, "fixed", 256)


def _weight(doc: dict, name: str) -> Fraction:
    return Fraction(doc[name]["weight"]["exact"])


def seminorm_deep(seed: int, smoke: bool, reference: dict) -> Workload:
    """jnplus seminorm --p 2 on one grid in the int64, f64 and big-integer paths.

    ``reference`` holds the int64 grid's exact weights and the digests of its
    witnesses mapped back to the base grid (see :func:`witness_digest`).
    """
    base = _smaller(SEMINORM_GRID) if smoke else SEMINORM_GRID
    p = 2
    flips = tree_flips(np.random.default_rng(seed), base.n, base.L)

    def setup() -> None:
        fixed = relabel(gen(base), flips)
        f64 = GeneratorSpec(base.kind, base.n, base.L, base.seed, "f64", base.denom)
        save_grid(fixed, "fixed.bin")
        save_grid(relabel(gen(f64), flips), "f64.bin")
        save_grid(scale_values(fixed, 1 << BIG_SCALE_BITS), "big.bin")

    def summary(key: str, doc: dict) -> dict:
        out = scalars(doc)
        for name in SEMINORMS:
            # cube positions as reported, so fixed and big can be compared
            out[name]["witness-cubes"] = digest(json.dumps(doc[name]["witness"], sort_keys=True))
            if key == "fixed":
                out[name]["witness-digest"] = witness_digest(doc[name], flips)
        return out

    ops = [
        Op(name, ("seminorm", "--input", f"{name}.bin", "--p", str(p)), fixed=name != "f64")
        for name in ("fixed", "f64", "big")
    ]

    def check_lap(docs: dict[str, dict]) -> dict[str, str]:
        failures = {}
        fixed, f64, big = docs["fixed"], docs["f64"], docs["big"]
        for name in SEMINORMS:
            want = reference.get("weights", {}).get(name)
            if want is not None and _weight(fixed, name) != Fraction(want):
                failures["fixed"] = f"{name} weight {_weight(fixed, name)} != reference {want}"
            want = reference.get("witnesses", {}).get(name)
            if want is not None and fixed[name]["witness-digest"] != want:
                failures["fixed"] = f"{name} witness differs from the reference"
            a, b = float(f64[name]["value"]), float(fixed[name]["value"])
            if not _close(a, b):
                failures["f64"] = f"{name} value {a!r} vs fixed {b!r}"
            power = p if name.startswith("jnp") else 1
            if _weight(big, name) != _weight(fixed, name) * (1 << (BIG_SCALE_BITS * power)):
                failures["big"] = f"{name} weight is not 2^{BIG_SCALE_BITS * power} x int64"
            if big[name]["witness-cubes"] != fixed[name]["witness-cubes"]:
                failures["big"] = f"{name} witness cubes differ from int64"
        return failures

    return Workload(
        setup=setup,
        ops=ops,
        warmup=[_warm_grid(), ("seminorm", "--input", "warm.bin", "--p", "2")],
        keep=("fixed", "f64", "big"),
        summary=summary,
        check_lap=check_lap,
    )


def build(name: str, seed: int, smoke: bool, reference: dict) -> Workload:
    """The workload ``name`` for ``seed`` with its reference digests attached."""
    ref = reference.get(name, {})
    if name == "corpus-chain":
        wl = corpus_chain(seed, smoke)
    elif name == "lemma-deep":
        wl = lemma_deep(seed, smoke)
    elif name == "seminorm-deep":
        wl = seminorm_deep(seed, smoke, {} if smoke else ref)
    else:
        raise ValueError(f"unknown workload {name!r}")
    if not smoke:
        wl.digests = dict(ref.get("digests", {}))
        wl.digests.update(ref.get("seeds", {}).get(str(seed), {}))
    return wl
