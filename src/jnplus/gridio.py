"""Grid file round-tripping.

Two on-disk forms, both self-describing:

* **Binary + sidecar** (any path not ending in ``.json``): the payload
  file holds the cell values as little-endian 64-bit scalars — int64
  numerators in fixed mode, IEEE float64 in f64 mode — flattened in
  C order with the time axis fastest; a JSON sidecar at ``path + ".json"``
  carries the header::

      {"version": 1, "n": 2, "L": 4, "mode": "fixed", "denom": 16,
       "order": "time-fastest"}

  (``denom`` appears only in fixed mode).

* **Pure JSON** (path ending in ``.json``): the header plus a
  ``values`` field holding the cells as a (possibly nested) array,
  time axis fastest.  This is the convenient hand-editable form for
  one spatial dimension.

Loading validates every header field and names the offending one in
:class:`~jnplus.errors.GridFormatError`.  Saving a fixed-mode grid to
the binary form requires every numerator to fit in int64; grids that
exceed that (exact big-integer numerators) must use the JSON form.

Every file the package writes goes through :func:`open_for_write`,
which replaces an existing regular file instead of truncating it.
"""

from __future__ import annotations

import json
import os
import stat

import numpy as np

from .errors import GridFormatError
from .grid import GridFunction

__all__ = ["save_grid", "load_grid", "open_for_write"]

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1


def _header(f: GridFunction) -> dict:
    h = {
        "version": 1,
        "n": f.n,
        "L": f.L,
        "mode": f.mode,
        "order": "time-fastest",
    }
    if f.is_fixed:
        h["denom"] = f.denom
    return h


def open_for_write(path: str, binary: bool = False):
    """Open ``path`` for writing, replacing an existing regular file.

    The old file is unlinked and a new one created, because truncating
    a file in place (O_TRUNC) can stall for tens of milliseconds on
    some filesystems while unlink-and-create does not.  A symlink or a
    non-regular file (a FIFO, a device) is opened as it is, so writes
    still go through to its target.
    """
    try:
        if stat.S_ISREG(os.lstat(path).st_mode):
            os.unlink(path)
    except FileNotFoundError:
        pass
    if binary:
        return open(path, "wb")
    return open(path, "w", encoding="utf-8")


def save_grid(f: GridFunction, path: str) -> None:
    """Write ``f`` to ``path`` (JSON if the path ends in ``.json``,
    otherwise binary payload + ``path + ".json"`` sidecar)."""
    if path.endswith(".json"):
        doc = _header(f)
        doc["values"] = f.values.tolist()
        with open_for_write(path) as fh:
            json.dump(doc, fh)
            fh.write("\n")
        return
    if f.is_fixed:
        if int(f.values.min()) < _INT64_MIN or int(f.values.max()) > _INT64_MAX:
            raise GridFormatError(
                "values: fixed-mode numerators exceed int64; "
                "use the .json form for big-integer grids"
            )
        payload = f.values.astype("<i8").ravel()
    else:
        payload = f.values.astype("<f8").ravel()
    with open_for_write(path, binary=True) as fh:
        fh.write(payload.tobytes(order="C"))
    with open_for_write(path + ".json") as fh:
        json.dump(_header(f), fh)
        fh.write("\n")


def _check_header(doc: dict, where: str) -> tuple[int, int, str, int | None]:
    if not isinstance(doc, dict):
        raise GridFormatError(f"{where}: header must be a JSON object")
    if doc.get("version") != 1:
        raise GridFormatError(f"version: expected 1, got {doc.get('version')!r}")
    n = doc.get("n")
    if not isinstance(n, int) or n < 1:
        raise GridFormatError(f"n: expected a positive integer, got {n!r}")
    L = doc.get("L")
    if not isinstance(L, int) or L < 0:
        raise GridFormatError(f"L: expected a nonnegative integer, got {L!r}")
    mode = doc.get("mode")
    if mode not in ("f64", "fixed"):
        raise GridFormatError(f"mode: expected 'f64' or 'fixed', got {mode!r}")
    denom = doc.get("denom")
    if mode == "fixed":
        if not isinstance(denom, int) or denom <= 0:
            raise GridFormatError(
                f"denom: fixed mode requires a positive integer, got {denom!r}"
            )
    elif denom is not None:
        raise GridFormatError("denom: only valid in fixed mode")
    order = doc.get("order", "time-fastest")
    if order != "time-fastest":
        raise GridFormatError(f"order: only 'time-fastest' is supported, got {order!r}")
    return n, L, mode, denom


def load_grid(path: str) -> GridFunction:
    """Read a grid written by :func:`save_grid` (either form)."""
    if path.endswith(".json"):
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise GridFormatError(f"{path}: not valid JSON ({exc})") from exc
        n, L, mode, denom = _check_header(doc, path)
        if "values" not in doc:
            raise GridFormatError("values: missing from JSON grid")
        try:
            arr = np.asarray(doc["values"], dtype=object if mode == "fixed" else np.float64)
        except (TypeError, ValueError) as exc:
            raise GridFormatError(f"values: not a numeric array ({exc})") from exc
        if mode == "fixed":
            flat = arr.ravel().tolist()
            if any(not isinstance(v, int) for v in flat):
                raise GridFormatError("values: fixed mode requires integer numerators")
        return GridFunction(n, L, arr.ravel(), mode, denom)

    sidecar = path + ".json"
    if not os.path.exists(sidecar):
        raise GridFormatError(f"{sidecar}: sidecar header not found")
    with open(sidecar, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise GridFormatError(f"{sidecar}: not valid JSON ({exc})") from exc
    if "values" in doc:
        raise GridFormatError("values: belongs in pure-JSON grids, not sidecars")
    n, L, mode, denom = _check_header(doc, sidecar)
    expected = 3 * (1 << (L * n))
    raw = np.fromfile(path, dtype="<i8" if mode == "fixed" else "<f8")
    if raw.size != expected:
        raise GridFormatError(
            f"payload: expected {expected} 64-bit values for n={n}, L={L}, got {raw.size}"
        )
    return GridFunction(n, L, raw, mode, denom)
