"""The dyadic block layout, and the level-batched block reductions
shared by the maximal scan, the one stopping rule
(:func:`jnplus.maximal.stopping_ranks`) and the seminorm DP.

:func:`blocked` splits each axis of a cell array into (block,
cell-in-block) axes: reducing the :func:`in_block` axes
(:func:`block_reduce`) gives block sums, and a per-block array blocked
with side 1 broadcasts over the cells of each block.  :func:`root_box`
maps a cube to its level-k block indices and :func:`box_origin` gives
the first of them; callers keep blocks as index rows, and
:func:`cubes_at` turns absolute rows into cubes where a caller wants
the objects.

Everything here works on raw cell entries: integer numerators in fixed
mode (where sums and clamps stay exact) or float64 values.  Callers own
the bookkeeping of denominators.  For a level-k block holding N = 2^{(L-k)n}
cells, the identities used downstream are

    mean over block  = block_sum / (N * denom)
    (value - ref_sum/(N*denom))^+  per cell
        = max(value*N - ref_sum, 0) / (N * denom)

so multiplying cells by N puts per-cell comparisons against a block sum
on one integer scale.

Two more identities keep an object grid's deviation sums in int64 where
its cells fit (:func:`_lifted_deviation_sums`).  With c = floor(r/N) and
rho = r - c*N (so 0 <= rho < N), an integer v exceeds r/N exactly when
v > c, and then

    sum of max(v*N - r, 0)  =  N * sum of (v - c)^+  -  rho * #{v > c},

whose per-cell terms stay below 2*max|v| where the products v*N do not
fit.  Against a block's own sum S the terms v*N - S add up to 0, so

    sum of |v*N - S|  =  2 * sum of max(v*N - S, 0).

Every exact block reduction on such int64 terms goes through
:func:`_exact_sums`, which hands the sums back as Python ints.

Every per-block sum or maximum goes through :func:`block_reduce`.
numpy's multi-axis reduce over the in-block axes is slow on large
arrays with small blocks, so there integer and boolean arrays, and
float maxima, fold axis by axis by strided halving (:func:`_halve`),
exact in any order.  Float sums keep the multi-axis reduce: a sum's rounding
depends on the order of its terms, and the f64 reports are pinned to
that one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .cubes import DyadicCube
from .errors import OutOfDomainError

if TYPE_CHECKING:
    from .grid import GridFunction

__all__ = [
    "blocked",
    "in_block",
    "block_count",
    "root_box",
    "box_origin",
    "cubes_at",
    "clamped_sums",
    "absdev_sums",
    "block_reduce",
    "upsample",
    "children_sum",
    "level_sums",
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


# block_reduce folds blocks of side w <= _FOLD_MAX_SIDE in arrays of at least
# _FOLD_AREA * w^2 entries.  Each halving step is one pass with a fixed cost,
# while the multi-axis reduce gets cheaper as w grows; these are the
# crossovers measured on int64 arrays from 3*2^4 to 2^8 x 3*2^8 entries.
_FOLD_AREA = 1 << 7
_FOLD_MAX_SIDE = 16


def block_reduce(blocks: np.ndarray, op: np.ufunc) -> np.ndarray:
    """Per block of a :func:`blocked` array, ``op`` (np.add or np.maximum)
    over its cells: the one per-block reduction, equal to
    ``op.reduce(blocks, axis=in_block(n))``.

    Integer and boolean arrays, and float maxima, fold by :func:`_halve`
    where that is faster: blocks of side w at most :data:`_FOLD_MAX_SIDE`
    in an array of at least :data:`_FOLD_AREA` * w^2 entries.  Float sums
    keep the multi-axis reduce, whose rounding order the f64 reports are
    pinned to; so do object arrays, whose Python-int adds cost the same
    either way.
    """
    w, kind = blocks.shape[1], blocks.dtype.kind
    if (
        w <= _FOLD_MAX_SIDE
        and blocks.size >= _FOLD_AREA * w * w
        and (kind in "bi" or (kind == "f" and op is np.maximum))
    ):
        cells = tuple(b * c for b, c in zip(blocks.shape[::2], blocks.shape[1::2]))
        return _halve(blocks.reshape(cells), w, op)
    return op.reduce(blocks, axis=in_block(blocks.ndim // 2))


def _halve(arr: np.ndarray, w: int, op: np.ufunc) -> np.ndarray:
    """:func:`block_reduce` of ``blocked(arr, w)``, axis by axis: each step
    joins every even-odd pair of entries along one axis, log2(w) steps per
    axis, so w=1 reduces nothing.  Booleans and small integers add as
    int64, as numpy's sums add them.  The terms meet in another order than
    in the multi-axis reduce, so a float sum may round differently;
    integer, boolean and object sums and all maxima are exact in any order."""
    if op is np.add and arr.dtype.kind in "bi":
        arr = arr.astype(np.int64, copy=False)
    for ax in range(arr.ndim):
        head = (slice(None),) * ax
        for _ in range(w.bit_length() - 1):
            arr = op(arr[head + (slice(0, None, 2),)], arr[head + (slice(1, None, 2),)])
    return arr


def block_count(gf: GridFunction, k: int) -> int:
    """Cells per level-k block."""
    return 1 << ((gf.L - k) * gf.n)


def box_origin(root: DyadicCube, k: int) -> list[int]:
    """Level-k block index of ``root``'s first corner: spatial indices, then time."""
    sh = k - root.level
    return [s << sh for s in root.spatial] + [root.time << sh]


def root_box(root: DyadicCube, k: int, time_shift: int = 0) -> tuple[slice, ...]:
    """Level-k block indices covered by ``root``, optionally shifted in time."""
    side = 1 << (k - root.level)
    *lo, t0 = box_origin(root, k)
    t0 += time_shift
    return tuple(slice(s, s + side) for s in lo) + (slice(t0, t0 + side),)


def cubes_at(k: int, rows: np.ndarray) -> list[DyadicCube]:
    """The level-k cubes whose absolute block indices are the rows of ``rows``."""
    return [DyadicCube(k, tuple(row[:-1]), row[-1]) for row in rows.tolist()]


def _shift_time(blocks: np.ndarray, offset: int) -> np.ndarray:
    """blocks advanced by ``offset`` along the time axis, zero-filled tail.

    Entry [..., t] of the result is blocks[..., t+offset].  Tail entries
    have no reference; callers only read blocks whose reference exists.
    """
    out = np.zeros_like(blocks)
    T = blocks.shape[-1]
    if offset < T:
        out[..., : T - offset] = blocks[..., offset:]
    return out


def clamped_sums(gf: GridFunction, k: int, offset: int) -> np.ndarray:
    """Per level-k block of Q0 and of the one block after it in time:
    sum of max(value*N - S[t+offset], 0) over its cells.

    S is the per-block sum array at level k, so S[t+offset]/(N*denom) is
    the mean over the block ``offset`` steps forward in time.  offset=1
    references the block's forward translate, offset=2 the two-step one.
    The result has time extent 2^k + 1: every seminorm root lies in Q0
    (time blocks [0, 2^k)), and its forward-shifted term reads one block
    more.  Only those cells are multiplied and clamped.
    """
    return _deviation_sums(gf, k, _shift_time(gf.block_sums(k), offset), (1 << k) + 1, "clamped")


def absdev_sums(gf: GridFunction, k: int) -> np.ndarray:
    """Per level-k block of Q0: sum of |value*N - S| over its cells (S = own sum).

    The result has time extent 2^k, the blocks of Q0.
    """
    return _deviation_sums(gf, k, gf.block_sums(k), 1 << k, "absolute")


def _deviation_sums(gf: GridFunction, k: int, ref: np.ndarray, T: int, kind: str) -> np.ndarray:
    """Per level-k block before time index T: the sum over its cells of max(value*N - r, 0)
    or |value*N - r| by ``kind``, r = ref[block].  f64 overflow raises OutOfDomainError.

    Bounds, with M = max |cell| (so |r| <= M*N): a term v*N - r reaches
    2*M*N per cell, and a block's sum 2*M*N^2.  An object grid whose cells
    lift to int64 (:meth:`GridFunction._int64_cells`) reduces by
    :func:`_lifted_deviation_sums`, whose quotient form keeps its per-cell
    terms below 2*M where 2*M*N does not fit.  int64, f64 and other object
    grids run the one expression below on their own cells.
    """
    w, N = gf.side >> k, block_count(gf, k)
    cells, M = gf._int64_cells()
    if cells is not None:
        return _lifted_deviation_sums(cells[..., : T * w], M, N, w, ref[..., :T], kind)
    with np.errstate(over="ignore", invalid="ignore"):
        diff = blocked(gf.values[..., : T * w], w) * N - blocked(ref[..., :T], 1)
        dev = np.maximum(diff, 0) if kind == "clamped" else np.abs(diff)
        sums = block_reduce(dev, np.add)
    if gf.is_fixed or np.isfinite(sums).all():
        return sums
    raise OutOfDomainError(f"the f64 {kind} deviation sums of f at level {k} overflow")


def _lifted_deviation_sums(
    cells: np.ndarray, M: int, N: int, w: int, ref: np.ndarray, kind: str
) -> np.ndarray:
    """:func:`_deviation_sums` on int64 ``cells`` with 2*M < 2^62, as Python ints.

    Where the per-cell bound 2*M*N fits, the terms are formed as written.
    Where it does not, they take the quotient form of the module docstring,
    and the absolute sums are twice the clamped ones.
    """
    from .grid import int64_fits  # grid imports this module

    v = blocked(cells, w)
    if int64_fits(2 * M * N):
        diff = v * N - blocked(ref.astype(np.int64), 1)
        dev = np.maximum(diff, 0) if kind == "clamped" else np.abs(diff)
        return _exact_sums(dev.reshape(cells.shape), 2 * M * N, w)
    c = ref // N  # Python ints, so the floor is exact
    rho = ref - c * N
    d = v - blocked(c.astype(np.int64), 1)
    above = d > 0
    pos = np.where(above, d, 0).reshape(cells.shape)
    sums = N * _exact_sums(pos, 2 * M, w) - rho * _exact_sums(above.reshape(cells.shape), 1, w)
    return sums if kind == "clamped" else 2 * sums


def _exact_sums(terms: np.ndarray, bound: int, w: int) -> np.ndarray:
    """Per block of side w, the exact sum of the int64 (or boolean) ``terms``,
    each of magnitude at most ``bound``, as Python ints (object dtype).

    The sums run in int64 over the largest sub-blocks whose sums fit
    (:func:`jnplus.grid.int64_fits`), and only the sub-block totals left
    are added as Python ints.
    """
    from .grid import int64_fits  # grid imports this module

    n = terms.ndim
    s = w
    while s > 1 and not int64_fits(bound * s**n):
        s >>= 1
    part = block_reduce(blocked(terms, s), np.add).astype(object)
    return part if s == w else block_reduce(blocked(part, w // s), np.add)


def upsample(arr: np.ndarray) -> np.ndarray:
    """Each entry repeated over its 2^n children (one dyadic level finer), n = arr.ndim."""
    for ax in range(arr.ndim):
        arr = np.repeat(arr, 2, axis=ax)
    return arr


def children_sum(arr: np.ndarray) -> np.ndarray:
    """Per parent block, the sum of its 2^n children (one dyadic level coarser), n = arr.ndim."""
    return block_reduce(blocked(arr, 2), np.add)


def level_sums(arr: np.ndarray, depth: int) -> list[np.ndarray]:
    """Block sums of ``arr`` at ``depth`` coarser levels and its own, coarse to fine."""
    out = [arr]
    for _ in range(depth):
        out.append(children_sum(out[-1]))
    out.reverse()
    return out

