"""Naive reference implementations used as oracles by the test suite.

Everything here is written for clarity over speed: direct cell
iteration, Fractions end to end, no shared code paths with the
package's fast implementations (level block sums, tree programming,
rank intervals).  Agreement between the two routes is the point of the
tests.  :func:`naive_good_lambda` is the exception: it decides one
decay step per lam from the package's fields and the stopping masks of
:func:`boolean_stopping_levels`, the route that the batched
``lemma_sweep`` replaced.  :func:`failing_sweep` builds a sweep whose
checks fail, which no corpus grid gives.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np

from jnplus import (
    DyadicCube,
    GeneratorSpec,
    GridFunction,
    InvalidParamsError,
    LemmaContext,
    VerificationReport,
    children,
    default_manifest,
    forward,
    gen,
    lemma_sweep,
    maximal_function,
    root_cube,
    scale_values,
)
from jnplus._blocks import block_count, box_origin, cubes_at, level_sums, root_box, upsample
from jnplus.grid import exceeds
from jnplus.maximal import positive_part_field
from jnplus.reports import Rows, scalar_json


def cell_value(f: GridFunction, idx: tuple[int, ...]) -> Fraction | float:
    v = f.values[idx]
    return Fraction(int(v), f.denom) if f.is_fixed else float(v)


def cells_of(cube: DyadicCube, L: int):
    """Level-L cell indices covered by a cube, as tuples in index order."""
    sh = L - cube.level
    sides = [range(c << sh, (c + 1) << sh) for c in cube.spatial]
    sides.append(range(cube.time << sh, (cube.time + 1) << sh))
    return itertools.product(*sides)


def cube_cells(cube: DyadicCube, L: int) -> set[tuple[int, ...]]:
    """Level-L cells covered by a cube, as a set of index tuples."""
    return set(cells_of(cube, L))


def covers_once(cubes, root: DyadicCube, L: int, *, partition: bool) -> bool:
    """Cell-count check of a family of cubes against root's level-L cells.

    True when every cube lies in root and no cell is covered twice (a
    non-overlapping family; a repeated cube covers its cells twice);
    with ``partition``, also when every cell of root is covered.
    """
    counts = Counter(cell for c in cubes for cell in cells_of(c, L))
    inside = cube_cells(root, L)
    if not counts.keys() <= inside or any(m > 1 for m in counts.values()):
        return False
    return not partition or len(counts) == len(inside)


def naive_block_sum(f: GridFunction, cube: DyadicCube):
    """Sum of the raw cell entries inside a cube (Python ints in fixed mode)."""
    conv = int if f.is_fixed else float
    return sum(conv(f.values[idx]) for idx in cells_of(cube, f.L))


def naive_average(f: GridFunction, cube: DyadicCube):
    vals = [cell_value(f, idx) for idx in cells_of(cube, f.L)]
    if f.is_fixed:
        return sum(vals, Fraction(0)) / len(vals)
    return sum(vals) / len(vals)


def naive_pos_part_average(f: GridFunction, domain, base: DyadicCube, ref: DyadicCube):
    """Mean of (f - mean(f over ref))^+ over base or base ∪ base+."""
    r = naive_average(f, ref)
    idxs = list(cells_of(base, f.L))
    if domain == "union":
        idxs += list(cells_of(forward(base), f.L))
    vals = [max(cell_value(f, i) - r, 0) for i in idxs]
    if f.is_fixed:
        return sum(vals, Fraction(0)) / len(vals)
    return sum(vals) / len(vals)


def naive_distribution_measure(f: GridFunction, root: DyadicCube, lam) -> Fraction:
    """|{x in root : f(x) - mean(f over root++) > lam}|, cell by cell."""
    r = naive_average(f, forward(root, 2))
    count = sum(1 for idx in cells_of(root, f.L) if cell_value(f, idx) - r > lam)
    return Fraction(count, 1 << (f.L * f.n))


def ancestors_within(f: GridFunction, idx: tuple[int, ...], root: DyadicCube):
    """Dyadic cubes Q with root ⊇ Q ∋ cell idx, one per level."""
    out = []
    for k in range(root.level, f.L + 1):
        sh = f.L - k
        spatial = tuple(i >> sh for i in idx[:-1])
        time = idx[-1] >> sh
        out.append(DyadicCube(k, spatial, time))
    return out


def naive_maximal(f: GridFunction, root: DyadicCube, variant: str):
    """Per-cell sup of forward-translate averages over dyadic ancestors."""
    sh = f.L - root.level
    shape = tuple([1 << sh] * f.n)
    out = np.empty(shape, dtype=object)
    base = tuple(c << sh for c in root.spatial) + (root.time << sh,)
    for rel in itertools.product(*[range(s) for s in shape]):
        idx = tuple(b + r for b, r in zip(base, rel))
        best = None
        for q in ancestors_within(f, idx, root):
            v = naive_average(f, forward(q))
            if best is None or v > best:
                best = v
        if variant == "augmented":
            best = max(best, cell_value(f, idx))
        out[rel] = best
    return out


def naive_cz(f: GridFunction, root: DyadicCube, lam, avg=naive_average) -> list[DyadicCube]:
    """Maximal dyadic subcubes of root with mean(f over Q+) > lam.

    ``avg`` computes the means; a caller sweeping many lam can pass a
    memoized :func:`naive_average`.
    """
    if avg(f, forward(root)) > lam:
        return [root]
    if root.level == f.L:
        return []
    out = []
    for c in children(root, f.L):
        out.extend(naive_cz(f, c, lam, avg))
    return out


def boolean_stopping_levels(f: GridFunction, root: DyadicCube, lam):
    """Per level k of ``root``, the mask of its level-k stopping cubes at one lam.

    A top-down covering sweep of boolean masks, one lam at a time: a
    block is set when its forward mean exceeds lam (``grid.exceeds``)
    and no ancestor is set.  The reference for ``maximal.stopping_ranks``,
    which decides a whole lam list on ranks.
    """
    covered = np.zeros((1,) * f.n, dtype=bool)
    out = []
    for k in range(root.level, f.L + 1):
        fwd = f.block_sums(k)[root_box(root, k, time_shift=1)]
        chosen = exceeds(fwd, block_count(f, k), f.denom, lam) & ~covered
        out.append((k, chosen))
        covered = upsample(covered | chosen)
    return out


def naive_select_subfamily(stopping: list[DyadicCube]) -> tuple[list[int], dict[int, list[int]]]:
    """Indices whose forward translates are maximal, plus the grouping, cube by cube.

    Coarse levels first; a forward translate is owned by the unique kept
    translate containing it (aligned boxes are nested or disjoint, so a
    corner lookup decides containment).
    """
    fwd = [forward(c) for c in stopping]
    order = sorted(range(len(stopping)), key=lambda i: (stopping[i].level, i))
    kept_by_level: dict[int, dict[tuple, int]] = {}
    subfamily: list[int] = []
    groups: dict[int, list[int]] = {}
    for i in order:
        F = fwd[i]
        owner = None
        for kl in sorted(kept_by_level):
            if kl > F.level:
                break
            sh = F.level - kl
            j = kept_by_level[kl].get((tuple(s >> sh for s in F.spatial), F.time >> sh))
            if j is not None:
                assert kl < F.level, "duplicate forward translate: stopping cubes overlap"
                owner = j
                break
        if owner is None:
            subfamily.append(i)
            kept_by_level.setdefault(F.level, {})[(F.spatial, F.time)] = i
            groups[i] = [i]
        else:
            groups[owner].append(i)
    subfamily.sort()
    for ids in groups.values():
        ids.sort()
    return subfamily, groups


def naive_phi_plus(f: GridFunction, cube: DyadicCube, p: int) -> Fraction:
    """|Q| * (mean over Q ∪ Q+ of (f - mean(f over Q++))^+)^p, exactly."""
    m = naive_pos_part_average(f, "union", cube, forward(cube, 2))
    return Fraction(1, 1 << (cube.level * f.n)) * m**p


def naive_phi_classical(f: GridFunction, cube: DyadicCube, p: int) -> Fraction:
    r = naive_average(f, cube)
    vals = [abs(cell_value(f, i) - r) for i in cells_of(cube, f.L)]
    m = sum(vals, Fraction(0)) / len(vals)
    return Fraction(1, 1 << (cube.level * f.n)) * m**p


def all_subcubes(root: DyadicCube, max_level: int):
    """Every dyadic subcube of root down to max_level, root included (depth first)."""
    stack = [root]
    while stack:
        c = stack.pop()
        yield c
        if c.level < max_level:
            stack.extend(children(c, max_level))


def antichains(root: DyadicCube, max_level: int):
    """Every non-empty antichain (set of non-overlapping subcubes) of root."""
    if root.level == max_level:
        yield (root,)
        return
    kids = children(root, max_level)
    child_lists = []
    for c in kids:
        child_lists.append([()] + [a for a in antichains(c, max_level)])
    for combo in itertools.product(*child_lists):
        merged = tuple(itertools.chain.from_iterable(combo))
        if merged:
            yield merged
    yield (root,)


def naive_best_family(f: GridFunction, root: DyadicCube, p: int, phi) -> tuple[Fraction, tuple]:
    """Max of sum(phi) over every antichain, by exhaustive enumeration."""
    best = None
    best_fam = None
    for fam in antichains(root, f.L):
        w = sum((phi(f, c, p) for c in fam), Fraction(0))
        if best is None or w > best:
            best, best_fam = w, fam
    return best, best_fam


def recursive_witness(phi: dict, root: DyadicCube, n: int):
    """Tree optimum and witness by plain recursion over the subcube tree.

    ``phi[k][idx]`` is the weight of the level-k subcube at index idx of
    the root box.  best(Q) = max(phi(Q), sum of best over children), a
    cube is taken only when its weight beats its children's strictly,
    and the witness is read off by walking down from the root.  Returns
    (optimum, witness cubes in canonical order, their raw weights).
    """
    leaf = max(phi)
    take: dict = {}

    def best(k, idx):
        w = phi[k][idx]
        if k == leaf:
            return w
        kids = [
            best(k + 1, tuple(2 * i + o for i, o in zip(idx, off)))
            for off in itertools.product((0, 1), repeat=n)
        ]
        child = kids[0]
        for v in kids[1:]:
            child = child + v
        take[k, idx] = w > child
        return w if take[k, idx] else child

    top = best(root.level, (0,) * n)
    picked = []

    def walk(k, idx):
        if k == leaf or take[k, idx]:
            sh = k - root.level
            sp = tuple(root.spatial[i] * (1 << sh) + idx[i] for i in range(n - 1))
            picked.append((DyadicCube(k, sp, root.time * (1 << sh) + idx[-1]), phi[k][idx]))
            return
        for off in itertools.product((0, 1), repeat=n):
            walk(k + 1, tuple(2 * i + o for i, o in zip(idx, off)))

    walk(root.level, (0,) * n)
    picked.sort(key=lambda cw: (cw[0].level, cw[0].spatial, cw[0].time))
    return top, [c for c, _ in picked], [w for _, w in picked]


def random_fixed_grid(rng: np.random.Generator, n: int, L: int, denom: int = 8) -> GridFunction:
    shape = (1 << L,) * (n - 1) + (3 << L,)
    vals = rng.integers(0, 2 * denom + 1, size=shape)
    return GridFunction(n, L, vals, "fixed", denom)


def unit_root(n: int) -> DyadicCube:
    return root_cube(n)


def jsonify(obj):
    """The plain-value tree of a report: the reference mapping from package
    and report objects to what json's own encoder writes."""
    if isinstance(obj, (Fraction, float)):
        return scalar_json(obj)
    if isinstance(obj, DyadicCube):
        return {"level": obj.level, "spatial": list(obj.spatial), "time": obj.time}
    if isinstance(obj, Rows):
        return jsonify(obj.expand())
    if isinstance(obj, dict):
        return {str(k): jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonify(v) for v in obj]
    if hasattr(obj, "to_json_dict"):
        return jsonify(obj.to_json_dict())
    return obj


def oracle_canonical_json(doc) -> str:
    """Report text from json's own encoder: the jsonify tree, sorted keys, indent 2."""
    return json.dumps(jsonify(doc), sort_keys=True, indent=2) + "\n"


def corpus_grids(mode: str):
    """The bundled corpus as fixed, f64 or "big" grids (fixed, scaled by 2^56)."""
    for s in default_manifest():
        kind = "f64" if mode == "f64" else "fixed"
        f = gen(GeneratorSpec(s.kind, s.n, s.L, s.seed, kind, s.denom, s.params))
        # 2^56 puts every cell past the int64 guard, onto Python ints
        yield scale_values(f, 1 << 56) if mode == "big" else f


def naive_good_lambda(ctx: LemmaContext, lam) -> VerificationReport:
    """One decay step at one lam, the report of ``good_lambda_check``.

    The per-lam route: masks of E(lam) and of the stopping cubes at
    b*lam, and for each stopping cube meeting E(lam) its two local
    fields built afresh and compared cell by cell.
    """
    f, params, root = ctx.f, ctx.params, ctx.root
    lamN = f.scalar(lam)
    if not (lamN > 0):
        raise InvalidParamsError("lambda must be positive")
    b = f.scalar(params.b)
    blam = b * lamN
    admissible = not (ctx.g_fwd_avg > blam)

    E_mask = ctx.field.superlevel_mask(lamN)
    E_count = int(E_mask.sum())
    E_lam = Fraction(E_count, 1 << (f.L * f.n))
    E_blam = ctx.field.superlevel_measure(blam)
    K = ctx.seminorm

    exact_main = K.exact
    rhs_float = (
        float(params.a) * K.value / float(lamN) * float(E_blam) ** (1.0 / float(params.q))
    )
    main_ok = p6_ok = p8_ok = True
    dec_size = 0
    if admissible:
        if exact_main:
            u, v = params.p.numerator, params.p.denominator
            rhs = (params.a / lamN) ** u * K.weight**v * E_blam ** (u - v)
            main_ok = E_lam**u <= rhs
        else:
            main_ok = float(E_lam) <= rhs_float * (1.0 + 1e-9) + 1e-18
        stopping = boolean_stopping_levels(ctx.g, root, blam)
        dec_size = sum(int(chosen.sum()) for _, chosen in stopping)
        hits = level_sums(E_mask, f.L - root.level)
        inside = sum(int(h[chosen].sum()) for (_, chosen), h in zip(stopping, hits))
        p6_ok = inside == E_count
        one_minus = (1 - (1 << f.n) * b) * lamN
        for (k, chosen), h in zip(stopping, hits):
            w = f.side >> k
            for row in np.argwhere(chosen & (h > 0)).tolist():
                [cube] = cubes_at(k, np.add([row], box_origin(root, k)))
                local = maximal_function(ctx.g, cube, "grid")
                local_j = positive_part_field(f, cube)
                sub = E_mask[tuple(slice(i * w, (i + 1) * w) for i in row)]
                p6_ok &= bool(np.array_equal(local.superlevel_mask(lamN), sub))
                p8_ok &= not np.any(sub & ~local_j.superlevel_mask(one_minus))

    failed = [
        name
        for name, ok in (("Lemma", main_ok), ("p6", p6_ok), ("p8", p8_ok))
        if admissible and not ok
    ]
    return VerificationReport(
        inequality_id="Lemma",
        lhs=float(E_lam),
        rhs=rhs_float,
        admissible=admissible,
        passed=main_ok and p6_ok and p8_ok,
        exact=exact_main,
        lhs_exact=str(E_lam) if f.is_fixed else None,
        details={
            "lambda": lamN,
            "b-lambda": blam,
            "params": params,
            "K": K.value,
            "K-weight": K.weight,
            "E-lambda": E_lam,
            "E-b-lambda": E_blam,
            "stopping-count": dec_size,
            "p6-pass": p6_ok,
            "p8-pass": p8_ok,
            "failed-ids": failed,
        },
    )


def failing_sweep(ctx):
    """``ctx``'s sweep with each check made to fail somewhere: the Lemma at
    odd lam indices, p6 at multiples of 3 and p8 at 1 mod 5."""
    rows = lemma_sweep(ctx)
    m = len(rows)
    flags = {
        "Lemma": [i % 2 == 0 for i in range(m)],
        "p6": [i % 3 != 0 for i in range(m)],
        "p8": [i % 5 != 1 for i in range(m)],
    }
    failed = [[name for name, ok in flags.items() if not ok[i]] for i in range(m)]
    columns = {"p6-pass": flags["p6"], "p8-pass": flags["p8"], "failed-ids": failed,
               "pass": [not ids for ids in failed]}
    return replace(rows, columns={**rows.columns, **columns})
