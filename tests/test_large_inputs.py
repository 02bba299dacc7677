"""Inputs of 1 MiB or more: orjson reads a matrix document, json.loads reads
everything else, and either way stdout and the exit code are json.loads's.

Each document below is one way the two parsers part.  Every test runs the
command twice, the second time with the orjson threshold out of reach, and
compares what it printed.  The last two tests run commands whose documents
orjson reads or writes under an address-space cap.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import bkt.cli
from bkt.cli import main
from helpers import random_matrix

MIB = 1 << 20
SRC = Path(__file__).resolve().parent.parent / "src"
SIZE = 256  # players: an interior matrix document of 1.3 MB


def _doc():
    m = random_matrix(np.random.default_rng(SIZE), SIZE, interior=True)
    return m.to_json_dict()


def _nested(depth):
    return '{"a": ' * depth + "0" + "}" * depth


def _text(edit=None, **extra):
    """A matrix document's text, after edit(doc) and with extra keys first."""
    doc = _doc()
    if edit is not None:
        edit(doc)
    return json.dumps({**extra, **doc})


def _set_cells(cells):
    """An edit that sets each (i, j) cell, 0-based, to its value."""
    def edit(doc):
        for (i, j), value in cells.items():
            doc["matrix"][i][j] = value
    return edit


# name: (matrix bytes, whether orjson's result is kept, exit code, error kind)
CASES = {
    "plain": (lambda: _text().encode(), True, 0, None),
    "nan-diagonal": (lambda: _text().replace("null", "NaN").encode(), False, 0, None),
    "infinity-cell": (lambda: _text(_set_cells({(0, 1): math.inf})).encode(),
                      False, 2, "RangeError"),
    "1e400-cell": (lambda: _text(_set_cells({(0, 1): "@"})).replace('"@"', "1e400").encode(),
                   False, 2, "RangeError"),
    "utf8-bom": (lambda: b"\xef\xbb\xbf" + _text().encode(), False, 0, None),
    "utf16": (lambda: _text().encode("utf-16"), False, 0, None),
    "lone-surrogate-key": (lambda: _text(**{"\ud800": "x"}).encode(), False, 0, None),
    "lone-surrogate-bytes": (lambda: _text(note="@").replace('"@"', '"\udc80"')
                             .encode("utf-8", "surrogatepass"), False, 0, None),
    "n-2**64": (lambda: _text(lambda d: d.update(n=2 ** 64)).encode(),
                False, 2, "DimensionError"),
    "n-below-int64": (lambda: _text(lambda d: d.update(n=-2 ** 63 - 1)).encode(),
                      False, 2, "DimensionError"),
    "n-10.0": (lambda: _text(lambda d: d.update(n=10.0)).encode(), False, 2, "DimensionError"),
    "n-twice": (lambda: ('{"n": 8.0, ' + _text()[1:]).encode(), True, 0, None),
    "n-twice-big-last": (lambda: _text(lambda d: d.update(n=2 ** 64))
                         .replace('{"n"', '{"n": 8, "n"', 1).encode(), False, 2, "DimensionError"),
    "big-integer-cell": (lambda: _text(_set_cells({(0, 1): 2 ** 70 + 1, (1, 0): 0})).encode(),
                         True, 2, "RangeError"),
    "big-negative-integer-cell": (lambda: _text(_set_cells({(3, 2): -(2 ** 64) - 3})).encode(),
                                  True, 2, "RangeError"),
    "integer-past-floats": (lambda: _text(_set_cells({(0, 1): "@"})).replace('"@"', "9" * 400)
                            .encode(), False, 2, "RangeError"),
    # deeper than json's recursion limit, which orjson accepts
    "nested-1000": (lambda: _text(note="@").replace('"@"', _nested(1000)).encode(),
                    False, 2, "ParameterError"),
    "nested-in-a-cell": (lambda: _text(_set_cells({(0, 1): "@"})).replace('"@"', _nested(1000))
                         .encode(), False, 2, "ParameterError"),
    "bracket-in-a-string": (lambda: _text(note="[{").encode(), False, 0, None),
    "trailing-garbage": (lambda: (_text() + " x").encode(), False, 2, "ParameterError"),
    "not-a-matrix-document": (lambda: json.dumps([_doc()]).encode(), False, 2, "DimensionError"),
}


def _run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def _runs(capsys, monkeypatch, argv):
    """(code, stdout) as read with orjson and as read by json.loads alone,
    and how many times json.loads ran in the first."""
    calls = []
    monkeypatch.setattr(bkt.cli, "json", SimpleNamespace(
        loads=lambda *a, **k: calls.append(1) or json.loads(*a, **k),
        dumps=json.dumps, JSONDecodeError=json.JSONDecodeError))
    fast, loads = _run(capsys, argv), len(calls)
    monkeypatch.setattr(bkt.cli, "_ORJSON_MIN_BYTES", math.inf)
    return fast, _run(capsys, argv), loads


@pytest.fixture(scope="module")
def draw(tmp_path_factory):
    path = tmp_path_factory.mktemp("draw") / "draw.json"
    path.write_text(json.dumps({"leaves": list(range(1, SIZE + 1))}))
    return str(path)


@pytest.mark.parametrize("name", CASES)
def test_a_large_matrix_document_reads_as_json_loads_reads_it(
        capsys, monkeypatch, tmp_path, draw, name):
    build, kept, code, kind = CASES[name]
    raw = build()
    assert len(raw) >= MIB
    path = tmp_path / "m.json"
    path.write_bytes(raw)
    fast, plain, loads = _runs(capsys, monkeypatch,
                               ["winprob", "--matrix", str(path), "--draw", draw, "--player", "1"])
    assert fast == plain
    assert fast[0] == code
    if kind is not None:
        assert json.loads(fast[1])["error"]["kind"] == kind
    # json.loads reads the matrix unless orjson's result is kept, and the
    # draw once the matrix is valid
    assert loads == (not kept) + (code == 0)


def test_a_large_draw_file_is_read_by_json_loads(capsys, monkeypatch, tmp_path):
    matrix = tmp_path / "m.json"
    matrix.write_text(json.dumps(_doc()))
    small = tmp_path / "small.json"
    small.write_text(json.dumps({"leaves": list(range(SIZE, 0, -1))}))
    padded = tmp_path / "padded.json"
    padded.write_text(small.read_text() + " " * MIB)
    argv = ["winprob", "--matrix", str(matrix), "--draw", str(padded)]
    fast, plain, loads = _runs(capsys, monkeypatch, argv)
    assert fast == plain and fast[0] == 0
    assert loads == 1  # orjson's matrix is kept, its draw is not a matrix document
    assert json.loads(fast[1])["result"] == json.loads(
        _run(capsys, ["winprob", "--matrix", str(matrix), "--draw", str(small)])[1])["result"]


@pytest.mark.parametrize("opener", ['{"a": ', "["])
def test_nesting_that_would_overflow_orjsons_stack_is_read_by_json_loads(tmp_path, opener):
    # 100 000 nested objects crash orjson 3.8 on an 8 MB stack
    depth = 100_000
    closer = "}" if opener.startswith("{") else "]"
    path = tmp_path / "m.json"
    path.write_text(_text(note="@").replace('"@"', opener * depth + "0" + closer * depth))
    assert path.stat().st_size >= MIB
    outs = [
        subprocess.run(
            [sys.executable, "-c",
             "import sys, bkt.cli\n"
             f"bkt.cli._ORJSON_MIN_BYTES = {limit}\n"
             "sys.exit(bkt.cli.main(sys.argv[1:]))",
             "perturb", "--matrix", str(path), "--eps", "0.01"],
            env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True)
        for limit in (MIB, "float('inf')")
    ]
    assert [o.returncode for o in outs] == [2, 2], outs[0].stderr
    assert outs[0].stdout == outs[1].stdout
    assert "is not valid JSON" in json.loads(outs[0].stdout)["error"]["message"]


def test_orjson_nests_past_jsons_limit():
    # the premise of the check on '[' and '{' bytes: without it, orjson's
    # result for the "nested-1000" document would be kept
    import orjson

    text = _nested(1000)
    orjson.loads(text)
    with pytest.raises(RecursionError):
        json.loads(text)


_CAPPED = """
import os, resource, sys
import bkt.cli
size = int(open("/proc/self/statm").read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
if sys.argv[1] != "none":
    cap = size + int(sys.argv[1]) * (1 << 20)
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
sys.exit(bkt.cli.main(sys.argv[2:]))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="needs RLIMIT_AS and /proc/self/statm")
def test_perturb_under_an_address_space_cap_finishes_or_reports_memory_error(tmp_path):
    # orjson 3.8 ends the process with SIGSEGV when an allocation fails.
    # With 4-21 MB above the size after import, orjson would run out of room
    # reading this 1.3 MB document, which json.loads now reads; from about
    # 48 MB orjson reads it with little more than the room it reserves.
    # Above 9 MB or so orjson writes the perturbed table (perturb hashes no
    # input, so it does not load hashlib and its OpenSSL library).
    path = tmp_path / "m.json"
    path.write_text(json.dumps(_doc()))
    argv = ["perturb", "--matrix", str(path), "--eps", "0.01"]

    def run(headroom):
        out = subprocess.run([sys.executable, "-c", _CAPPED, str(headroom), *argv],
                             env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True)
        return out.returncode, out.stdout

    full = run("none")
    assert full[0] == 0
    outcomes = {headroom: run(headroom) for headroom in [*range(4, 22), 48, 51, 54]}
    for headroom, (code, out) in outcomes.items():
        assert (code, out) == full or (
            code == 2 and json.loads(out)["error"]["kind"] == "MemoryError"), (headroom, code)
    assert full in outcomes.values()


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="needs RLIMIT_AS and /proc/self/statm")
def test_drop_report_under_an_address_space_cap_finishes_or_reports_memory_error(tmp_path):
    # orjson writes this 2.8 MB report.  Without the room it reserves first,
    # 14-16 MB above the size after import ended in SIGSEGV; from about
    # 28 MB the report is written.
    m = random_matrix(np.random.default_rng(128), 128, interior=True)
    matrix, draw = tmp_path / "m.json", tmp_path / "d.json"
    matrix.write_text(json.dumps(m.to_json_dict()))
    draw.write_text(json.dumps({"leaves": list(range(1, 129))}))
    argv = ["drop", "--matrix", str(matrix), "--draw", str(draw), "--player", "1",
            "--eps", "0.001", "--witness"]

    def run(headroom):
        out = subprocess.run([sys.executable, "-c", _CAPPED, str(headroom), *argv],
                             env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True)
        return out.returncode, out.stdout

    full = run("none")
    assert full[0] == 0
    outcomes = {headroom: run(headroom) for headroom in range(12, 32, 2)}
    for headroom, (code, out) in outcomes.items():
        assert (code, out) == full or (
            code == 2 and json.loads(out)["error"]["kind"] == "MemoryError"), (headroom, code)
    assert full in outcomes.values()
