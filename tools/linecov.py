"""Statements of ``src/jnplus`` that a pytest selection never executes.

Usage, from the root of the checkout::

    python3 tools/linecov.py [PYTEST ARGS ...]

The arguments go to ``pytest.main`` unchanged (default: ``tests -q -p
no:cacheprovider``), which runs in this process under a
``sys.settrace`` line probe; ``src`` is put first on ``sys.path`` and on
``PYTHONPATH``, so the package imported is the checkout's, also in
child processes.  A statement is a line that
holds bytecode of a module, class or function body (``co_lines`` of
every code object compiled from the file), and it ran when the probe
saw the line execute, or saw a call start on it.  Lines that run only in
a child process (the CLI tests that start ``python -m jnplus``) count as
never run.  Test outcomes do not matter: a timing budget may fail under
the probe, which slows traced code several times.

The report lists, per file, how many statements never ran and where,
consecutive lines joined into ranges.  It needs nothing beyond pytest,
so it runs where ``coverage`` is not installed.
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path
from types import CodeType
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "jnplus"


def statements(path: Path) -> set[int]:
    """The lines of ``path`` that hold bytecode of some code object compiled from it."""
    lines: set[int] = set()
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if isinstance(c, CodeType))
    return lines


def probe(package: Path, run: Callable[[], object]) -> dict[Path, list[int]]:
    """Call ``run()`` under a line probe, and return for each ``.py`` file
    under ``package`` its statements that never ran, ascending."""
    prefix = str(package.resolve())
    seen: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        seen.setdefault(name, set()).add(frame.f_lineno)  # the line a call starts or resumes on
        return local

    # a probe run under another (its own test, under the tool) hands the outer one back
    outer, outer_threads = sys.gettrace(), threading.gettrace()
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        run()
    finally:
        sys.settrace(outer)
        threading.settrace(outer_threads)  # type: ignore[arg-type]
    missed = {}
    for path in sorted(package.resolve().rglob("*.py")):
        missed[path] = sorted(statements(path) - seen.get(str(path), set()))
    return missed


def ranges(lines: list[int]) -> str:
    """Ascending line numbers as "3, 7-9, 12"."""
    parts: list[str] = []
    start = prev = None
    for line in lines + [None]:
        if prev is not None and line == prev + 1:
            prev = line
            continue
        if start is not None:
            parts.append(str(start) if start == prev else f"{start}-{prev}")
        start = prev = line
    return ", ".join(parts)


def report(missed: dict[Path, list[int]], base: Path = ROOT) -> str:
    out, total, never = [], 0, 0
    for path, lines in missed.items():
        count = len(statements(path))
        total, never = total + count, never + len(lines)
        if lines:
            name = path.relative_to(base) if path.is_relative_to(base) else path
            out.append(f"{name}: {len(lines)} of {count} never ran: {ranges(lines)}")
    out.append(f"total: {never} of {total} statements never ran")
    return "\n".join(out) + "\n"


def main(argv: list[str]) -> int:
    import pytest

    src = str(ROOT / "src")
    sys.path.insert(0, src)  # and for the child processes that the CLI tests start
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    args = argv or ["tests", "-q", "-p", "no:cacheprovider"]
    missed = probe(PACKAGE, lambda: pytest.main(args))
    sys.stdout.write(report(missed))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
