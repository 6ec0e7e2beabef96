"""tools/linecov.py: the line probe, on a toy module."""

import importlib.util
import sys
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "linecov.py"
_spec = importlib.util.spec_from_file_location("linecov", _PATH)
linecov = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(linecov)

TOY = '''"""A toy module."""


def sign(x):
    if x > 0:
        return 1
    elif x < 0:
        return -1
    return 0


def unused():
    return [
        1,
        2,
    ]
'''


def test_probe_lists_the_statements_a_run_never_executes(tmp_path, monkeypatch):
    package = tmp_path / "toy"
    package.mkdir()
    (package / "toymod.py").write_text(TOY)
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.delitem(sys.modules, "toy.toymod", raising=False)

    def run():
        from toy import toymod

        assert toymod.sign(3) == 1

    missed = linecov.probe(package, run)
    # the negative and zero branches, and each line of unused's body
    assert missed == {(package / "toymod.py").resolve(): [7, 8, 9, 13, 14, 15]}
    assert linecov.ranges([2, 7, 8, 9, 13]) == "2, 7-9, 13"
    text = linecov.report(missed, tmp_path.resolve())
    assert text.splitlines() == [
        f"toy/toymod.py: 6 of {len(linecov.statements(package / 'toymod.py'))} never ran: 7-9, 13-15",
        f"total: 6 of {len(linecov.statements(package / 'toymod.py'))} statements never ran",
    ]
