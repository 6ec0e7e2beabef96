"""The dyadic block layout, and the level-batched block reductions
shared by the maximal scan and the seminorm DP.

:func:`blocked` splits each axis of a cell array into (block,
cell-in-block) axes: summing over the :func:`in_block` axes gives block
sums, and a per-block array blocked with side 1 broadcasts over the
cells of each block.  :func:`root_box` maps a cube to its level-k block
indices and :func:`block_cubes` maps such indices back to cubes.

Everything here works on raw cell entries: integer numerators in fixed
mode (where sums and clamps stay exact) or float64 values.  Callers own
the bookkeeping of denominators.  For a level-k block holding N = 2^{(L-k)n}
cells, the identities used downstream are

    mean over block  = block_sum / (N * denom)
    (value - ref_sum/(N*denom))^+  per cell
        = max(value*N - ref_sum, 0) / (N * denom)

so multiplying cells by N puts per-cell comparisons against a block sum
on one integer scale.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np

from .cubes import DyadicCube

if TYPE_CHECKING:
    from .grid import GridFunction

__all__ = [
    "blocked",
    "in_block",
    "block_count",
    "root_box",
    "block_cubes",
    "clamped_sums",
    "absdev_sums",
    "upsample",
    "children_sum",
    "level_sums",
    "covering_sweep",
]


def blocked(arr: np.ndarray, w: int) -> np.ndarray:
    """``arr`` with each axis split into (block, cell-in-block) for blocks of side w.

    Axis 2i of the result indexes the blocks along axis i of ``arr`` and
    axis 2i+1 the cells inside them.
    """
    shape: list[int] = []
    for s in arr.shape:
        shape += [s // w, w]
    return arr.reshape(shape)


def in_block(n: int) -> tuple[int, ...]:
    """The cell-in-block axes of a :func:`blocked` n-dimensional array."""
    return tuple(range(1, 2 * n, 2))


def block_count(gf: GridFunction, k: int) -> int:
    """Cells per level-k block."""
    return 1 << ((gf.L - k) * gf.n)


def root_box(root: DyadicCube, k: int, time_shift: int = 0) -> tuple[slice, ...]:
    """Level-k block indices covered by ``root``, optionally shifted in time."""
    sh = k - root.level
    sl = [slice(s << sh, (s + 1) << sh) for s in root.spatial]
    t0 = (root.time << sh) + time_shift
    sl.append(slice(t0, t0 + (1 << sh)))
    return tuple(sl)


def block_cubes(root: DyadicCube, k: int, idx: np.ndarray) -> list[DyadicCube]:
    """The level-k cubes at block indices ``idx`` of the root box; inverse of :func:`root_box`.

    ``idx`` is an (m, n) integer array of indices relative to the box,
    as :func:`numpy.argwhere` returns them.
    """
    if not len(idx):  # most levels of a stopping family hold no cubes
        return []
    sh = k - root.level
    base = [s << sh for s in root.spatial] + [root.time << sh]
    return [DyadicCube(k, tuple(row[:-1]), row[-1]) for row in (idx + base).tolist()]


def _shift_time(blocks: np.ndarray, offset: int) -> np.ndarray:
    """blocks advanced by ``offset`` along the time axis, zero-filled tail.

    Entry [..., t] of the result is blocks[..., t+offset].  Tail entries
    have no reference; callers only read blocks whose reference exists.
    """
    if offset == 0:
        return blocks
    out = np.zeros_like(blocks)
    T = blocks.shape[-1]
    if offset < T:
        out[..., : T - offset] = blocks[..., offset:]
    return out


def clamped_sums(gf: GridFunction, k: int, offset: int) -> np.ndarray:
    """Per level-k block: sum of max(value*N - S[t+offset], 0) over its cells.

    S is the per-block sum array at level k, so S[t+offset]/(N*denom) is
    the mean over the block ``offset`` steps forward in time.  offset=1
    references the block's forward translate, offset=2 the two-step one.
    """
    ref = blocked(_shift_time(gf.block_sums(k), offset), 1)
    diff = blocked(gf.values, gf.side >> k) * block_count(gf, k) - ref
    zero = 0.0 if gf.mode == "f64" else 0
    return np.maximum(diff, zero).sum(axis=in_block(gf.n))


def absdev_sums(gf: GridFunction, k: int) -> np.ndarray:
    """Per level-k block: sum of |value*N - S| over its cells (S = own sum)."""
    ref = blocked(gf.block_sums(k), 1)
    diff = blocked(gf.values, gf.side >> k) * block_count(gf, k) - ref
    return np.abs(diff).sum(axis=in_block(gf.n))


def upsample(arr: np.ndarray, n: int) -> np.ndarray:
    """Each entry repeated over its 2^n children (one dyadic level finer)."""
    for ax in range(n):
        arr = np.repeat(arr, 2, axis=ax)
    return arr


def children_sum(arr: np.ndarray, n: int) -> np.ndarray:
    """Per parent block, the sum of its 2^n children (one dyadic level coarser)."""
    return blocked(arr, 2).sum(axis=in_block(n))


def level_sums(arr: np.ndarray, n: int, depth: int) -> list[np.ndarray]:
    """Block sums of ``arr`` at ``depth`` coarser levels and its own, coarse to fine."""
    out = [arr]
    for _ in range(depth):
        out.append(children_sum(out[-1], n))
    out.reverse()
    return out


def covering_sweep(conds: Iterable[np.ndarray], n: int) -> Iterator[np.ndarray]:
    """Top-down covering sweep over the levels of a root box.

    ``conds`` yields one boolean array per level, coarse to fine, each
    one dyadic level finer than the last.  Yields per level the blocks
    that satisfy their condition with no chosen ancestor:
    chosen_k = cond_k & ~covered_k, then
    covered_{k+1} = upsample(covered_k | chosen_k).
    """
    covered: np.ndarray | None = None
    for cond in conds:
        if covered is None:
            chosen = covered = cond
        else:
            covered = upsample(covered, n)
            chosen = cond & ~covered
            covered |= chosen
        yield chosen
