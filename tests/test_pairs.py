"""tools/pairs.py: the summary of alternating benchmark pairs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "pairs.py"
_spec = importlib.util.spec_from_file_location("pairs", _PATH)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)


def _runs(values: list[float], unit: str = "s") -> list[dict]:
    return [{"metrics": {"m": {"value": v, "unit": unit}}} for v in values]


def test_gain_needs_nine_in_ten_and_medians_past_parent_iqr():
    parent = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]
    change = [v - 0.2 for v in parent]
    got = pairs.summarise({"parent": _runs(parent), "change": _runs(change)}, {"m": "lower"})["m"]
    assert got["pairs_won"] == 10 and got["gain"]
    assert got["parent"]["median"] == pytest.approx(1.045)
    assert got["parent"]["q1"] == pytest.approx(1.0225)
    assert got["parent"]["q3"] == pytest.approx(1.0675)
    assert got["change_vs_parent"] == pytest.approx(0.845 / 1.045 - 1)

    # 8 wins, one tie and one loss: short of 9 in 10
    mixed = [v - 0.2 for v in parent[:8]] + [parent[8], parent[9] + 0.1]
    got = pairs.summarise({"parent": _runs(parent), "change": _runs(mixed)}, {"m": "lower"})["m"]
    assert got["pairs_won"] == 8 and not got["gain"]

    # every pair won, but the medians are closer than the parent's IQR
    close = [v - 0.001 for v in parent]
    got = pairs.summarise({"parent": _runs(parent), "change": _runs(close)}, {"m": "lower"})["m"]
    assert got["pairs_won"] == 10 and not got["gain"]

    # "higher is better" flips the sign
    got = pairs.summarise({"parent": _runs(parent), "change": _runs(change)}, {"m": "higher"})["m"]
    assert got["pairs_won"] == 0 and not got["gain"]


def _tree(root: Path, body: bytes) -> Path:
    for rel, data in {
        "src/jnplus/a.py": body,
        "src/jnplus/b.py": b"y = 2\n",
        "perfbench/run.py": b"print()\n",
        "README.md": b"not digested\n",
    }.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_bytes(data)
    return root


def test_source_digest_follows_bytes_not_directory(tmp_path):
    one = _tree(tmp_path / "one", b"x = 1\n")
    two = _tree(tmp_path / "elsewhere" / "two", b"x = 1\n")
    # compiled files and files outside src/ and perfbench/ do not count
    (two / "src" / "jnplus" / "__pycache__").mkdir()
    (two / "src" / "jnplus" / "__pycache__" / "a.cpython-311.pyc").write_bytes(b"\0")
    (two / "README.md").write_bytes(b"edited\n")
    assert pairs.source_digest(one) == pairs.source_digest(two)
    three = _tree(tmp_path / "three", b"x = 2\n")  # one byte apart under src/
    assert pairs.source_digest(three) != pairs.source_digest(one)
    (one / "perfbench" / "run.py").write_bytes(b"print(1)\n")
    assert pairs.source_digest(one) != pairs.source_digest(two)
