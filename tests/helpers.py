"""Naive reference implementations used as oracles by the test suite.

Everything here is written for clarity over speed: direct cell
iteration, Fractions end to end, no shared code paths with the
package's fast implementations (prefix tables, level block sums, tree
programming).  Agreement between the two routes is the point of the
tests.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from jnplus import DyadicCube, GridFunction, children, forward, root_cube


def cell_value(f: GridFunction, idx: tuple[int, ...]) -> Fraction | float:
    v = f.values[idx]
    return Fraction(int(v), f.denom) if f.is_fixed else float(v)


def cells_of(f: GridFunction, cube: DyadicCube):
    """Leaf-cell indices covered by a cube, as tuples."""
    sh = f.L - cube.level
    sides = [range(c << sh, (c + 1) << sh) for c in cube.spatial]
    sides.append(range(cube.time << sh, (cube.time + 1) << sh))
    return itertools.product(*sides)

def naive_block_sum(f: GridFunction, cube: DyadicCube):
    """Sum of the raw cell entries inside a cube (Python ints in fixed mode)."""
    conv = int if f.is_fixed else float
    return sum(conv(f.values[idx]) for idx in cells_of(f, cube))


def naive_average(f: GridFunction, cube: DyadicCube):
    vals = [cell_value(f, idx) for idx in cells_of(f, cube)]
    if f.is_fixed:
        return sum(vals, Fraction(0)) / len(vals)
    return sum(vals) / len(vals)


def naive_pos_part_average(f: GridFunction, domain, base: DyadicCube, ref: DyadicCube):
    """Mean of (f - mean(f over ref))^+ over base or base ∪ base+."""
    r = naive_average(f, ref)
    idxs = list(cells_of(f, base))
    if domain == "union":
        idxs += list(cells_of(f, forward(base)))
    vals = [max(cell_value(f, i) - r, 0) for i in idxs]
    if f.is_fixed:
        return sum(vals, Fraction(0)) / len(vals)
    return sum(vals) / len(vals)


def naive_distribution_measure(f: GridFunction, root: DyadicCube, lam) -> Fraction:
    """|{x in root : f(x) - mean(f over root++) > lam}|, cell by cell."""
    r = naive_average(f, forward(root, 2))
    count = sum(1 for idx in cells_of(f, root) if cell_value(f, idx) - r > lam)
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


def naive_cz(f: GridFunction, root: DyadicCube, lam) -> list[DyadicCube]:
    """Maximal dyadic subcubes of root with mean(f over Q+) > lam."""
    if naive_average(f, forward(root)) > lam:
        return [root]
    if root.level == f.L:
        return []
    out = []
    for c in children(root, f.L):
        out.extend(naive_cz(f, c, lam))
    return out


def naive_phi_plus(f: GridFunction, cube: DyadicCube, p: int) -> Fraction:
    """|Q| * (mean over Q ∪ Q+ of (f - mean(f over Q++))^+)^p, exactly."""
    m = naive_pos_part_average(f, "union", cube, forward(cube, 2))
    return Fraction(1, 1 << (cube.level * f.n)) * m**p


def naive_phi_classical(f: GridFunction, cube: DyadicCube, p: int) -> Fraction:
    r = naive_average(f, cube)
    vals = [abs(cell_value(f, i) - r) for i in cells_of(f, cube)]
    m = sum(vals, Fraction(0)) / len(vals)
    return Fraction(1, 1 << (cube.level * f.n)) * m**p


def all_subcubes(root: DyadicCube, max_level: int):
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
