"""Grid file round-trips and header validation."""

import json

import numpy as np
import pytest

from jnplus import GridFormatError, GridFunction, load_grid, save_grid
from jnplus.cli import main

from helpers import random_fixed_grid


def test_binary_roundtrip_fixed(tmp_path):
    rng = np.random.default_rng(0)
    f = random_fixed_grid(rng, 2, 3, denom=16)
    path = str(tmp_path / "grid.bin")
    save_grid(f, path)
    g = load_grid(path)
    assert g.equals(f)
    header = json.loads((tmp_path / "grid.bin.json").read_text())
    assert header == {
        "version": 1,
        "n": 2,
        "L": 3,
        "mode": "fixed",
        "denom": 16,
        "order": "time-fastest",
    }


def test_binary_roundtrip_f64(tmp_path):
    vals = np.linspace(0.0, 1.0, 6)
    f = GridFunction(1, 1, vals, "f64")
    path = str(tmp_path / "grid.bin")
    save_grid(f, path)
    g = load_grid(path)
    assert g.equals(f)
    header = json.loads((tmp_path / "grid.bin.json").read_text())
    assert "denom" not in header


def test_json_roundtrip(tmp_path):
    f = GridFunction(1, 2, [0, 0, 0, 4] + [0] * 8, "fixed", 1)
    path = str(tmp_path / "grid.json")
    save_grid(f, path)
    g = load_grid(path)
    assert g.equals(f)
    doc = json.loads((tmp_path / "grid.json").read_text())
    assert doc["values"] == [0, 0, 0, 4] + [0] * 8


def test_json_accepts_nested_values(tmp_path):
    doc = {
        "version": 1,
        "n": 2,
        "L": 1,
        "mode": "fixed",
        "denom": 2,
        "order": "time-fastest",
        "values": [[0, 1, 2, 3, 4, 5], [6, 7, 8, 9, 10, 11]],
    }
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(doc))
    g = load_grid(str(path))
    assert g.shape == (2, 6)
    assert int(g.values[1, 4]) == 10


def test_header_field_errors(tmp_path):
    base = {
        "version": 1,
        "n": 1,
        "L": 1,
        "mode": "fixed",
        "denom": 2,
        "order": "time-fastest",
        "values": [0] * 6,
    }
    bad = [
        ("version", 2),
        ("n", 0),
        ("n", "one"),
        ("L", -1),
        ("mode", "f32"),
        ("denom", 0),
        ("order", "space-fastest"),
        # JSON booleans load as Python bools, which are ints
        ("version", True),
        ("version", 1.0),
        ("n", True),
        ("L", False),
        ("denom", True),
    ]
    for key, value in bad:
        doc = dict(base)
        doc[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(GridFormatError) as err:
            load_grid(str(path))
        assert key in str(err.value)


def test_denom_rejected_in_f64(tmp_path):
    doc = {
        "version": 1,
        "n": 1,
        "L": 0,
        "mode": "f64",
        "denom": 2,
        "values": [0.0, 0.0, 0.0],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(GridFormatError, match="denom"):
        load_grid(str(path))


def test_missing_sidecar(tmp_path):
    path = tmp_path / "grid.bin"
    path.write_bytes(b"\x00" * 48)
    with pytest.raises(GridFormatError, match="sidecar"):
        load_grid(str(path))


def test_payload_size_mismatch(tmp_path):
    path = tmp_path / "grid.bin"
    path.write_bytes(b"\x00" * 40)  # 5 values, header says 6
    (tmp_path / "grid.bin.json").write_text(
        json.dumps({"version": 1, "n": 1, "L": 1, "mode": "fixed", "denom": 1})
    )
    with pytest.raises(GridFormatError, match="payload"):
        load_grid(str(path))


def test_non_integer_fixed_values_rejected(tmp_path):
    fixed = {"version": 1, "n": 1, "L": 0, "mode": "fixed", "denom": 2}
    f64 = {"version": 1, "n": 1, "L": 0, "mode": "f64"}
    path = tmp_path / "bad.json"
    for header, values in (
        (fixed, [0.5, 0, 0]),
        (fixed, [True, False, True]),
        (f64, [True, False, True]),
        (f64, ["1.5", 0, 0]),
        (f64, [None, 0, 0]),
        (f64, [10**400, 0, 0]),
    ):
        path.write_text(json.dumps(dict(header, values=values)))
        with pytest.raises(GridFormatError, match="values"):
            load_grid(str(path))


_HEADER = b'"version": 1, "n": 1, "L": 1, "mode": "fixed", "denom": 1'


@pytest.mark.parametrize(
    "grid,name,text",
    [
        ("grid.json", "grid.json", b"{" + _HEADER + b', "values": [0, 0, 0, 0, 0, 0], "x": "\xff"}'),
        ("grid.bin", "grid.bin.json", b"{" + _HEADER + b', "x": "\xff"}'),
        ("grid.json", "grid.json", b"{" + _HEADER + b', "values": [1' + b"0" * 5000 + b", 0, 0, 0, 0, 0]}"),
    ],
    ids=["json-not-utf8", "sidecar-not-utf8", "json-integer-past-digit-limit"],
)
def test_malformed_bytes_name_the_file(tmp_path, capsys, grid, name, text):
    """Bytes that are not UTF-8, and a JSON integer past Python's limit on
    str-to-int digits, are a GridFormatError naming the file: exit 2."""
    (tmp_path / name).write_bytes(text)
    (tmp_path / "grid.bin").write_bytes(b"\x00" * 48)
    path, named = str(tmp_path / grid), f"{tmp_path / name}: not valid JSON ("
    with pytest.raises(GridFormatError) as err:
        load_grid(path)
    assert str(err.value).startswith(named)
    assert main(["maximal", "--input", path]) == 2
    out, errors = capsys.readouterr()
    assert out == "" and errors.startswith("error: " + named)


def test_big_integers_need_json(tmp_path):
    # object-dtype grids whose numerators fit int64 still use the binary form
    int64_max, int64_min = (1 << 63) - 1, -(1 << 63)
    for fits in ([int64_max, 0, 1], [int64_min, 0, 1], [1 << 62, -(1 << 62), 5]):
        f = GridFunction(1, 0, fits, "fixed", 1)
        assert f.values.dtype == object
        save_grid(f, str(tmp_path / "fits.bin"))
        assert load_grid(str(tmp_path / "fits.bin")).equals(f)
    for over in ([1 << 63, 0, 0], [0, 0, int64_min - 1]):
        with pytest.raises(GridFormatError, match="int64"):
            save_grid(GridFunction(1, 0, over, "fixed", 1), str(tmp_path / "over.bin"))

    big = 1 << 70
    f = GridFunction(1, 0, [big, 0, 0], "fixed", 1)
    with pytest.raises(GridFormatError, match="int64"):
        save_grid(f, str(tmp_path / "grid.bin"))
    jpath = str(tmp_path / "grid.json")
    save_grid(f, jpath)
    g = load_grid(jpath)
    assert g.equals(f)
    assert int(g.values[0]) == big


def test_save_grid_overwrites_and_writes_through_symlinks(tmp_path):
    a = GridFunction(1, 1, [0, 1, 2, 3, 4, 5], "fixed", 2)
    b = GridFunction(1, 1, [5, 4, 3, 2, 1, 0], "fixed", 2)
    for name in ("grid.bin", "grid.json"):
        path = str(tmp_path / name)
        save_grid(a, path)
        with open(path, "rb") as old:
            before = old.read()
            old.seek(0)
            save_grid(b, path)
            # the file was replaced, not truncated: the old one is intact
            assert old.read() == before
        assert load_grid(path).equals(b)

    for name in ("target.bin", "target.json"):
        target = tmp_path / name
        link = tmp_path / ("link-" + name)
        save_grid(a, str(target))
        link.symlink_to(target)
        save_grid(b, str(link))
        assert link.is_symlink()
        assert load_grid(str(link)).equals(b)
        if name.endswith(".json"):
            assert load_grid(str(target)).equals(b)
        else:  # the payload went through the link; the sidecar sits next to it
            assert np.fromfile(str(target), dtype="<i8").tolist() == [5, 4, 3, 2, 1, 0]


_SIDECAR = {"version": 1, "n": 1, "L": 1, "mode": "fixed", "denom": 1}


@pytest.mark.parametrize(
    "grid,name,text,message",
    [
        ("grid.bin", "grid.bin.json", "5", "header must be a JSON object"),
        ("grid.bin", "grid.bin.json", "null", "header must be a JSON object"),
        ("grid.bin", "grid.bin.json", "true", "header must be a JSON object"),
        ("grid.bin", "grid.bin.json", "1.5", "header must be a JSON object"),
        ("grid.bin", "grid.bin.json", json.dumps(dict(_SIDECAR, values=[0] * 6)),
         "values: belongs in pure-JSON grids, not sidecars"),
        ("grid.json", "grid.json", json.dumps(_SIDECAR), "values: missing from JSON grid"),
        ("grid.json", "grid.json", json.dumps(dict(_SIDECAR, values=[[0, 0], [0, 0, 0, 0]])),
         "values: expected numbers"),
        ("grid.json", "grid.json", "[" * 100000 + "]" * 100000, "not valid JSON (maximum recursion"),
    ],
    ids=["sidecar-int", "sidecar-null", "sidecar-bool", "sidecar-float", "sidecar-values",
         "json-without-values", "json-ragged-values", "json-nested-past-the-decoder-depth"],
)
def test_rejected_grid_documents_exit_2(tmp_path, capsys, grid, name, text, message):
    """A header that is valid JSON but not an object, values where they do not
    belong, missing or ragged, and nesting past the JSON decoder's depth are
    each a GridFormatError: exit 2, empty stdout."""
    (tmp_path / name).write_text(text)
    (tmp_path / "grid.bin").write_bytes(b"\x00" * 48)
    path = str(tmp_path / grid)
    with pytest.raises(GridFormatError) as err:
        load_grid(path)
    assert message in str(err.value)
    assert main(["maximal", "--input", path]) == 2
    out, errors = capsys.readouterr()
    assert out == "" and errors.startswith("error: ") and message in errors
