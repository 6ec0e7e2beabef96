"""Level-batched block reductions shared by the maximal scan and the
seminorm DP.

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

from typing import Iterable, Iterator

import numpy as np

from .cubes import DyadicCube
from .grid import GridFunction

__all__ = [
    "block_count",
    "root_box",
    "clamped_sums",
    "absdev_sums",
    "upsample",
    "children_sum",
    "level_sums",
    "covering_sweep",
]


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


def _interleaved(gf: GridFunction, k: int) -> np.ndarray:
    w = gf.side >> k
    shape: list[int] = []
    for _ in range(gf.n - 1):
        shape += [1 << k, w]
    shape += [3 << k, w]
    return gf.values.reshape(shape)


def _expand(gf: GridFunction, k: int, blocks: np.ndarray) -> np.ndarray:
    # Reshape a per-block array so it broadcasts over the cells of each block.
    shape: list[int] = []
    for _ in range(gf.n - 1):
        shape += [1 << k, 1]
    shape += [3 << k, 1]
    return blocks.reshape(shape)


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
    S = gf.block_sums(k)
    N = block_count(gf, k)
    inter = _interleaved(gf, k)
    ref = _expand(gf, k, _shift_time(S, offset))
    diff = inter * N - ref
    zero = 0.0 if gf.mode == "f64" else 0
    clamped = np.maximum(diff, zero)
    within = tuple(range(1, 2 * gf.n, 2))
    return clamped.sum(axis=within)


def absdev_sums(gf: GridFunction, k: int) -> np.ndarray:
    """Per level-k block: sum of |value*N - S| over its cells (S = own sum)."""
    S = gf.block_sums(k)
    N = block_count(gf, k)
    inter = _interleaved(gf, k)
    diff = inter * N - _expand(gf, k, S)
    within = tuple(range(1, 2 * gf.n, 2))
    return np.abs(diff).sum(axis=within)


def upsample(arr: np.ndarray, n: int) -> np.ndarray:
    """Each entry repeated over its 2^n children (one dyadic level finer)."""
    for ax in range(n):
        arr = np.repeat(arr, 2, axis=ax)
    return arr


def children_sum(arr: np.ndarray, n: int) -> np.ndarray:
    """Per parent block, the sum of its 2^n children (one dyadic level coarser)."""
    shape: list[int] = []
    for s in arr.shape:
        shape += [s // 2, 2]
    return arr.reshape(shape).sum(axis=tuple(range(1, 2 * n, 2)))


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
