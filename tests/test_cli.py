import argparse
import collections
import contextlib
import io
import itertools
import json
import math
import os
import shutil
import subprocess
import sys
import time
from importlib.metadata import EntryPoint
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import bkt.cli
from bkt import (
    gen_bigsmall,
    gen_hard,
    gen_threetier,
    gen_unbalanced,
    uniform_perturbation,
    validate_matrix,
)
from bkt.cli import _as_json_floats, _matrix_lines, main
from helpers import random_matrix, random_mixed


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def run_json(capsys, *argv):
    """Exit code and parsed stdout, which must be strict JSON (RFC 8259)."""
    code, out = run(capsys, *argv)
    return code, json.loads(out, parse_constant=_reject_constant)


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def src_env():
    return dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))


@pytest.fixture
def hard2(tmp_path):
    return write_json(tmp_path / "hard2.json", gen_hard(2).to_json_dict())


@pytest.fixture
def ident4(tmp_path):
    return write_json(tmp_path / "ident4.json", {"leaves": [1, 2, 3, 4]})


# ------------------------------------------------------------------------ gen


def test_gen_hard_prints_bare_matrix(capsys):
    code, doc = run_json(capsys, "gen", "hard", "2")
    assert code == 0
    assert doc["n"] == 2
    assert doc["matrix"][0][0] is None
    got = validate_matrix(doc["matrix"])
    assert np.array_equal(got.probs, gen_hard(2).probs)


def test_gen_prints_exactly_the_indented_json(capsys):
    for argv, m in [
        (["gen", "hard", "4"], gen_hard(4)),
        (["gen", "hard", "9"], gen_hard(9)),  # 512 players: four chunks of rows
        (["gen", "unbalanced", "3"], gen_unbalanced(3)),
        (["gen", "bigsmall", "3", "--p", "0.7"], gen_bigsmall(3, 0.7).matrix),
        (["gen", "threetier", "2", "--eps", "0.02"], gen_threetier(2, 0.02)),
    ]:
        code, out = run(capsys, *argv)
        assert code == 0
        assert out == json.dumps(m.to_json_dict(), indent=2) + "\n", argv


@pytest.mark.parametrize("source", [
    gen_hard(1), gen_hard(3), gen_unbalanced(6),
    random_matrix(np.random.default_rng(7), 128),
    gen_hard(9),  # 512 players: four chunks of rows
])
def test_perturb_prints_exactly_the_indented_json(capsys, tmp_path, source):
    src = write_json(tmp_path / "m.json", source.to_json_dict())
    code, out = run(capsys, "perturb", "--matrix", src, "--eps", "0.1")
    assert code == 0
    want = uniform_perturbation(source, 0.1).to_json_dict()
    assert out == json.dumps(want, indent=2) + "\n"


def test_matrix_out_of_memory_writes_only_the_error(capsys, monkeypatch, tmp_path):
    # the whole document is built before the first byte is written; a table
    # of two entries takes the binary search, one of 240 orjson, which is
    # first offered its room (np.empty) and then fails on its own
    import orjson

    array_memory_error = type("_ArrayMemoryError", (MemoryError,), {})

    def too_big(*args, **kwargs):
        raise array_memory_error("Unable to allocate 8.00 MiB for an array")

    m = random_matrix(np.random.default_rng(16), 16, interior=True)
    many = ["perturb", "--matrix", write_json(tmp_path / "m.json", m.to_json_dict()),
            "--eps", "0.01"]
    for module, fails, argv in ((np, "sort", ["gen", "hard", "10"]),
                                (np, "searchsorted", ["gen", "hard", "10"]),
                                (np, "empty", many), (orjson, "dumps", many)):
        with monkeypatch.context() as patch:
            patch.setattr(bkt.cli, "_ORJSON_MIN_VALUES", 0)
            patch.setattr(module, fails, too_big)
            code, out = run(capsys, *argv)
        assert code == 2
        assert json.loads(out) == {"error": {"kind": "MemoryError",
                                             "message": "Unable to allocate 8.00 MiB for an array"}}


def test_a_large_many_valued_matrix_is_written_whole_by_orjson(capsys, monkeypatch, tmp_path):
    # eps = 1e-05 and the entries below it are the ones orjson writes apart
    # from json (0.00001, 1e-6); the document must still be json's, byte for
    # byte, from one orjson call
    import orjson

    rng = np.random.default_rng(20)
    arr = random_mixed(rng, 1024).probs.copy()
    tiny = [3e-06, 1.5e-07, 2.5e-09, 7.25e-05, 1e-10]
    for k, v in enumerate(tiny):
        arr[k, k + 1], arr[k + 1, k] = v, 1.0 - v
    src = tmp_path / "m.json"
    src.write_text(json.dumps(validate_matrix(arr).to_json_dict()))
    calls = []
    dumps = orjson.dumps
    monkeypatch.setattr(orjson, "dumps", lambda *a, **k: calls.append(1) or dumps(*a, **k))
    code, out = run(capsys, "perturb", "--matrix", str(src), "--eps", "1e-05")
    assert code == 0
    assert calls == [1]
    want = uniform_perturbation(validate_matrix(arr), 1e-05).to_json_dict()
    assert out == json.dumps(want, indent=2) + "\n"
    assert "1e-05" in out and "1.5e-07" in out


def test_orjson_writes_entries_outside_0_to_1e_4_as_json_does():
    # the premise of both orjson writers: orjson writes a float as json does
    # unless 0 < |x| < 1e-4 or |x| >= 1e16, where it writes 1e16 for json's
    # 1e+16, and _as_json_floats rewrites both; a NaN diagonal reads null
    import orjson

    rng = np.random.default_rng(2016)
    values = np.concatenate([rng.random(100_000), 10.0 ** rng.uniform(-4, 0, 20_000),
                             10.0 ** rng.uniform(-330, -4, 2_000),
                             10.0 ** rng.uniform(0, 16, 20_000),
                             10.0 ** rng.uniform(16, 308.2, 2_000),
                             [1e-4, math.nextafter(1e-4, 0.0), 9.5e-05, 1 - 2**-53,
                              -0.0, 5e-324, 0.0, 1.0, 10.00001, 100.000012, 1e15,
                              math.nextafter(1e16, 0.0), 1e16, 1.7976931348623157e308]])
    values = np.concatenate([values, -values])
    got = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_INDENT_2)
    got = [w.rstrip(",") for w in got.decode().split()[1:-1]]
    want = [json.dumps(v) for v in values.tolist()]
    size = np.abs(values)
    outside = (size == 0.0) | ((size >= 1e-4) & (size < 1e16))
    assert [g for g, o in zip(got, outside) if o] == [w for w, o in zip(want, outside) if o]
    # below 1e-4, the digits agree: repr of the value orjson wrote is json's text
    tiny = ~outside & (size < 1e-4)
    assert [repr(float(g)) for g, t in zip(got, tiny) if t] == [w for w, t in zip(want, tiny) if t]
    # from 1e16 up, only the sign of the exponent is missing
    huge = size >= 1e16
    assert [g for g, h in zip(got, huge) if h] == [w.replace("e+", "e") for w, h in zip(want, huge)
                                                  if h]
    # and the rules make orjson's text json's, up to the largest float
    every = values.tolist()
    assert _as_json_floats(orjson.dumps(every, option=orjson.OPT_INDENT_2)) == \
        json.dumps(every, indent=2).encode()
    assert orjson.dumps(np.array([np.nan]), option=orjson.OPT_SERIALIZE_NUMPY) == b"[null]"


@pytest.mark.parametrize("argv", [
    ["gen", "hard", "20"],
    ["gen", "bigsmall", "20", "--p", "0.7"],
    ["gen", "threetier", "20", "--eps", "0.1"],
])
def test_gen_out_of_memory_is_a_json_error(capsys, monkeypatch, argv):
    # numpy raises a private MemoryError subclass when an array will not fit
    array_memory_error = type("_ArrayMemoryError", (MemoryError,), {})

    def too_big(*args):
        raise array_memory_error("Unable to allocate 8.00 TiB for an array")

    monkeypatch.setattr(bkt.generators, f"gen_{argv[1]}", too_big)
    code, doc = run_json(capsys, *argv)
    assert code == 2
    assert doc["error"] == {"kind": "MemoryError",
                            "message": "Unable to allocate 8.00 TiB for an array"}


def test_gen_past_physical_memory_is_a_scale_error(capsys, monkeypatch):
    monkeypatch.setattr(bkt.errors, "_physical_memory", lambda: 4 << 20)
    code, doc = run_json(capsys, "gen", "hard", "10")
    assert code == 2
    assert doc["error"]["kind"] == "ScaleError"


@pytest.mark.parametrize("argv", [["gen", "hard", "100000"], ["gen", "hard", "62"],
                                  ["draws", "list", "100000"]])
def test_sizes_past_any_address_space_are_scale_errors_where_memory_is_unknown(
        capsys, monkeypatch, argv):
    # numpy's size limits and Python's digit limit would raise ValueError
    monkeypatch.setattr(bkt.errors, "_physical_memory", lambda: None)
    code, doc = run_json(capsys, *argv)
    assert code == 2
    assert doc["error"]["kind"] == "ScaleError"
    assert "any host can address" in doc["error"]["message"]


def test_gen_families_and_parameters(capsys):
    code, doc = run_json(capsys, "gen", "bigsmall", "1", "--p", "0.6")
    assert code == 0
    assert doc["matrix"][1][0] == pytest.approx(0.6)
    code, doc = run_json(capsys, "gen", "threetier", "2", "--eps", "0.02")
    assert code == 0
    assert doc["matrix"][4][6] == pytest.approx(0.49)


def test_gen_rejects_bad_parameters(capsys):
    code, doc = run_json(capsys, "gen", "bigsmall", "1", "--p", "0.4")
    assert code == 2
    assert doc["error"]["kind"] == "RangeError"


def test_gen_pretty_grid(capsys):
    code, out = run(capsys, "gen", "hard", "1", "--pretty")
    assert code == 0
    assert "2 players" in out


# -------------------------------------------------------------------- perturb


def test_perturb_pipes_from_gen(capsys, tmp_path):
    _, doc = run_json(capsys, "gen", "hard", "1")
    src = write_json(tmp_path / "m.json", doc)
    code, out = run_json(capsys, "perturb", "--matrix", src, "--eps", "0.1")
    assert code == 0
    assert out["matrix"][0][1] == pytest.approx(0.9)
    assert out["matrix"][1][0] == pytest.approx(0.1)


def test_perturb_reads_stdin(capsys, monkeypatch):
    payload = json.dumps(gen_hard(1).to_json_dict()).encode()
    monkeypatch.setattr(sys, "stdin", SimpleNamespace(buffer=io.BytesIO(payload)))
    code, out = run_json(capsys, "perturb", "--matrix", "-", "--eps", "0.2")
    assert code == 0
    assert out["matrix"][0][1] == pytest.approx(0.8)


# -------------------------------------------------------------------- winprob


def test_winprob_report_envelope(capsys, hard2, ident4):
    code, doc = run_json(capsys, "winprob", "--matrix", hard2, "--draw", ident4)
    assert code == 0
    assert doc["command"] == f"winprob --matrix {hard2} --draw {ident4}"
    assert set(doc["inputs"]) == {hard2, ident4}
    for digest in doc["inputs"].values():
        assert len(digest) == 64
    assert doc["result"]["wps"] == [1.0, 0.0, 0.0, 0.0]
    assert doc["warnings"] == []


def test_winprob_player_focus(capsys, hard2, ident4):
    code, doc = run_json(capsys, "winprob", "--matrix", hard2,
                         "--draw", ident4, "--player", "1")
    assert code == 0
    assert doc["result"]["player"] == 1
    assert doc["result"]["wp"] == 1.0


def test_winprob_stdin_matrix(capsys, monkeypatch, ident4):
    payload = json.dumps(gen_hard(2).to_json_dict()).encode()
    monkeypatch.setattr(sys, "stdin", SimpleNamespace(buffer=io.BytesIO(payload)))
    code, doc = run_json(capsys, "winprob", "--matrix", "-", "--draw", ident4)
    assert code == 0
    assert "stdin" in doc["inputs"]
    assert doc["result"]["wps"][0] == 1.0


def test_only_one_stdin_input(capsys, monkeypatch):
    payload = json.dumps(gen_hard(2).to_json_dict()).encode()
    monkeypatch.setattr(sys, "stdin", SimpleNamespace(buffer=io.BytesIO(payload)))
    code, doc = run_json(capsys, "winprob", "--matrix", "-", "--draw", "-")
    assert code == 2
    assert doc["error"]["kind"] == "ParameterError"


def test_output_is_deterministic(capsys, hard2, ident4):
    _, first = run(capsys, "winprob", "--matrix", hard2, "--draw", ident4)
    _, second = run(capsys, "winprob", "--matrix", hard2, "--draw", ident4)
    assert first == second


# ----------------------------------------------------------------------- drop


def test_drop_report_with_estimate_and_witness(capsys, hard2, ident4):
    code, doc = run_json(capsys, "drop", "--matrix", hard2, "--draw", ident4,
                         "--player", "1", "--eps", "0.1", "--witness")
    assert code == 0
    res = doc["result"]
    assert res["drop_coefficient"] == 3.0
    assert res["estimate"]["drop"] == pytest.approx(0.3)
    assert res["estimate"]["guaranteed"] == pytest.approx(0.7)
    wit = res["witness"]
    assert wit["matrix"]["matrix"][0][1] == pytest.approx(0.9)


def test_drop_warns_on_noncanonical_draw(capsys, hard2, tmp_path):
    scrambled = write_json(tmp_path / "d.json", {"leaves": [3, 4, 1, 2]})
    code, doc = run_json(capsys, "drop", "--matrix", hard2,
                         "--draw", scrambled, "--player", "1")
    assert code == 0
    assert any("not canonical" in w for w in doc["warnings"])
    assert doc["result"]["drop_coefficient"] == 3.0


def test_drop_warns_beyond_validity(capsys, tmp_path, ident4):
    even = np.full((4, 4), 0.5) - 0.5 * np.eye(4)
    src = write_json(tmp_path / "even.json",
                     validate_matrix(even).to_json_dict())
    code, doc = run_json(capsys, "drop", "--matrix", src, "--draw", ident4,
                         "--player", "1", "--eps", "0.6")
    assert code == 0
    assert doc["result"]["estimate"]["exceeds_validity"]
    assert any("validity" in w for w in doc["warnings"])


def test_drop_witness_needs_eps(capsys, hard2, ident4):
    code, doc = run_json(capsys, "drop", "--matrix", hard2, "--draw", ident4,
                         "--player", "1", "--witness")
    assert code == 2
    assert doc["error"]["kind"] == "ParameterError"


def test_drop_witness_at_the_validity_bound_stays_in_range(capsys, tmp_path):
    # the entries sum to 1 + 5e-10, inside the complement tolerance, so
    # raising P[1,2] by eps = xi would take it past 1
    src = write_json(tmp_path / "m.json", {"matrix": [[None, 0.7], [0.3000000005, None]]})
    draw = write_json(tmp_path / "d.json", {"leaves": [1, 2]})
    code, doc = run_json(capsys, "drop", "--matrix", src, "--draw", draw,
                         "--player", "2", "--eps", "0.3000000005", "--witness")
    assert code == 0
    assert doc["result"]["validity_bound"] == 0.3000000005
    before = np.array([[np.nan, 0.7], [0.3000000005, np.nan]])
    after = np.array(doc["result"]["witness"]["matrix"]["matrix"], dtype=float)
    off = ~np.isnan(before)
    assert ((0.0 <= after[off]) & (after[off] <= 1.0)).all()
    assert (np.abs(after[off] - before[off]) <= 0.3000000005).all()


def test_drop_checks_its_arguments_before_reading_inputs(capsys, tmp_path):
    missing = str(tmp_path / "missing.json")
    code, doc = run_json(capsys, "drop", "--matrix", missing, "--draw", missing,
                         "--player", "1", "--witness")
    assert code == 2
    assert doc["error"] == {"kind": "ParameterError", "message": "--witness needs --eps"}


# -------------------------------------------------------------------- crucial


def test_crucial_and_oracle_agree(capsys, hard2, ident4):
    code, fast = run_json(capsys, "crucial", "--matrix", hard2,
                          "--draw", ident4, "--player", "1")
    assert code == 0
    code, slow = run_json(capsys, "crucial", "--matrix", hard2,
                          "--draw", ident4, "--player", "1", "--oracle")
    assert code == 0
    assert fast["result"] == slow["result"]
    assert fast["result"]["count"] == 3


def test_crucial_pretty_lists_matches(capsys, hard2, ident4):
    code, out = run(capsys, "crucial", "--matrix", hard2, "--draw", ident4,
                    "--player", "1", "--pretty")
    assert code == 0
    assert "3 crucial matches" in out
    assert "1 vs 2" in out


def test_crucial_rejects_non_winner(capsys, hard2, ident4):
    code, doc = run_json(capsys, "crucial", "--matrix", hard2,
                         "--draw", ident4, "--player", "2")
    assert code == 2
    assert doc["error"]["kind"] == "NotWinner"


# ---------------------------------------------------------------------- solve


def test_solve_tfp_yes(capsys, hard2):
    code, doc = run_json(capsys, "solve", "tfp", "--matrix", hard2,
                         "--player", "1")
    assert code == 0
    assert doc["result"]["answer"] == "yes"
    assert doc["result"]["witness"] == [1, 2, 3, 4]


def test_solve_tfp_no_exit_code(capsys, hard2):
    code, doc = run_json(capsys, "solve", "tfp", "--matrix", hard2,
                         "--player", "2")
    assert code == 1
    assert doc["result"]["answer"] == "no"


def test_solve_rtfp_witness(capsys, tmp_path):
    src = write_json(tmp_path / "u3.json", gen_unbalanced(3).to_json_dict())
    code, doc = run_json(capsys, "solve", "rtfp", "--matrix", src,
                         "--player", "1", "--c", "3")
    assert code == 0
    assert doc["result"]["witness"] == [1, 2, 3, 5, 4, 6, 7, 8]
    assert doc["result"]["drop_coefficient"] == 3.0


def test_solve_prints_the_wp_that_winprob_prints_on_a_signed_zero(capsys, tmp_path):
    # player 1 beats player 2 with probability -0.0, so wins with +0.0
    table = [[None, -0.0, 0.5, 0.5], [1.0, None, 0.5, 0.5],
             [0.5, 0.5, None, 0.5], [0.5, 0.5, 0.5, None]]
    src = write_json(tmp_path / "zero.json", {"matrix": table})
    code, doc = run_json(capsys, "solve", "ptfp", "--matrix", src, "--player", "1", "--q", "0")
    assert code == 0
    assert doc["result"]["witness"] == [1, 2, 3, 4]
    assert math.copysign(1.0, doc["result"]["wp"]) == 1.0


def test_solve_heuristic_not_found_warns(capsys, tmp_path):
    src = write_json(tmp_path / "h4.json", gen_hard(4).to_json_dict())
    code, doc = run_json(capsys, "solve", "tfp", "--matrix", src,
                         "--player", "2", "--heuristic", "--restarts", "2")
    assert code == 1
    assert doc["result"]["answer"] == "not-found"
    assert any("inconclusive" in w for w in doc["warnings"])


def test_solve_rejects_nan_bounds(capsys, tmp_path):
    # a NaN bound fails every comparison: it must not become a proven "no"
    src = write_json(tmp_path / "u3.json", gen_unbalanced(3).to_json_dict())
    for argv in (["rtfp", "--c", "nan"], ["rptfp", "--q", "0.5", "--s", "nan"]):
        code, doc = run_json(capsys, "solve", argv[0], "--matrix", src,
                             "--player", "1", *argv[1:])
        assert code == 2
        assert doc["error"]["kind"] == "ParameterError"


@pytest.mark.parametrize("n", [3, 4])
def test_solve_rejects_a_negative_seed(capsys, tmp_path, n):
    # 8 players scan exactly and never use the seed; 16 players search
    m = uniform_perturbation(gen_hard(n), 0.1)
    src = write_json(tmp_path / "p.json", m.to_json_dict())
    code, doc = run_json(capsys, "solve", "ptfp", "--matrix", src, "--player", "1",
                         "--q", "0", "--seed", "-1")
    assert code == 2
    assert doc["error"]["kind"] == "ParameterError"


@pytest.mark.parametrize("restarts", ["0", "-3"])
@pytest.mark.parametrize("n", [3, 4])
def test_solve_rejects_a_restart_count_below_one(capsys, tmp_path, n, restarts):
    # 8 players scan exactly and never restart; 16 players search
    m = uniform_perturbation(gen_hard(n), 0.1)
    src = write_json(tmp_path / "p.json", m.to_json_dict())
    code, doc = run_json(capsys, "solve", "ptfp", "--matrix", src, "--player", "3",
                         "--q", "0.99", "--restarts", restarts)
    assert code == 2
    assert doc["error"]["kind"] == "ParameterError"


def test_solve_draws_each_restart_only_when_it_starts(tmp_path):
    # the identity start already meets q = 0; drawing all 10**8 starts
    # first would take minutes and tens of GB
    resource = pytest.importorskip("resource")

    def cap_address_space():  # 2 GiB
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    m = uniform_perturbation(gen_hard(4), 0.1)
    src = write_json(tmp_path / "p16.json", m.to_json_dict())
    out = subprocess.run(
        [sys.executable, "-m", "bkt.cli", "solve", "ptfp", "--matrix", src, "--player", "1",
         "--q", "0", "--restarts", str(10**8)],
        capture_output=True, text=True, env=src_env(), timeout=60,
        preexec_fn=cap_address_space)
    assert out.returncode == 0, out.stdout + out.stderr
    result = json.loads(out.stdout)["result"]
    assert result["witness"] == list(range(1, 17))
    assert result["draws_examined"] == 1


@pytest.mark.parametrize("size, draws", [(4, 3), (8, 315)])
def test_a_small_heuristic_search_ends_once_every_draw_is_examined(tmp_path, size, draws):
    # no draw reaches q = 1 on an interior matrix, and the budget counts
    # distinct draws, so each of 10**9 restarts would climb again: days at 8
    src = write_json(tmp_path / "m.json",
                     random_matrix(np.random.default_rng(size), size, interior=True).to_json_dict())
    out = subprocess.run(
        [sys.executable, "-m", "bkt.cli", "solve", "ptfp", "--matrix", src, "--player", "1",
         "--q", "1", "--heuristic", "--restarts", str(10**9)],
        capture_output=True, text=True, env=src_env(), timeout=60)
    assert out.returncode == 1, out.stdout + out.stderr
    result = json.loads(out.stdout)["result"]
    assert (result["answer"], result["exact"]) == ("not-found", False)
    assert result["draws_examined"] == draws


def test_solve_at_128_players_ends_at_its_draw_budget(tmp_path):
    # no draw reaches q = 1 on an interior matrix, so every restart would
    # climb to its end: no answer after 7 minutes before the budget
    src = write_json(tmp_path / "m.json",
                     random_matrix(np.random.default_rng(10), 128, interior=True).to_json_dict())
    start = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-m", "bkt.cli", "solve", "ptfp", "--matrix", src, "--player", "1",
         "--q", "1.0"],
        capture_output=True, text=True, env=src_env(), timeout=120)
    assert time.perf_counter() - start < 60
    assert out.returncode == 1, out.stdout + out.stderr
    doc = json.loads(out.stdout)
    assert doc["result"]["answer"] == "not-found"
    assert doc["result"]["draws_examined"] >= bkt.solvers.DRAW_BUDGET
    assert f"budget of {bkt.solvers.DRAW_BUDGET} examined draws" in doc["warnings"][-1]


def test_solve_at_1024_players_is_refused_before_its_swaps_are_built(tmp_path):
    # one neighbourhood holds 698 027 draws of 1 024 entries, 5.7 GB
    resource = pytest.importorskip("resource")

    def cap_address_space():  # 2 GiB
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    src = write_json(tmp_path / "m.json", gen_hard(10).to_json_dict())
    out = subprocess.run(
        [sys.executable, "-m", "bkt.cli", "solve", "ptfp", "--matrix", src, "--player", "1",
         "--q", "1.0"],
        capture_output=True, text=True, env=src_env(), timeout=120,
        preexec_fn=cap_address_space)
    assert out.returncode == 2, out.stdout + out.stderr
    error = json.loads(out.stdout)["error"]
    assert error["kind"] == "ScaleError"
    assert "698027 draws a step" in error["message"]


def test_solve_requires_problem_parameters(capsys, hard2):
    code, doc = run_json(capsys, "solve", "rtfp", "--matrix", hard2, "--player", "1")
    assert code == 2
    assert doc["error"] == {"kind": "ParameterError",
                            "message": "the following arguments are required: --c"}


# usage errors that argparse finds: a JSON error on stdout, as for any other
# refusal, and argparse's own usage and error lines on stderr
USAGE_ERRORS = [
    ["oracle", "drop", "--matrix", "M", "--draw", "D", "--player", "1", "--eps", "0.1",
     "--bogus"],
    ["solve", "tfp", "--player", "abc"],
    ["gen", "hard"],
    [],
    ["draws", "list", "x"],
    ["solve", "rtfp", "--matrix", "M", "--player", "1"],
]


@pytest.mark.parametrize("argv", USAGE_ERRORS,
                         ids=["unknown-flag", "bad-int", "no-n", "no-command", "bad-n", "no-c"])
def test_a_usage_error_is_a_json_error_beside_argparse_usage(capsys, monkeypatch, argv):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out.count("\n") == 1
    error = json.loads(out)["error"]
    assert error["kind"] == "ParameterError"
    assert err.startswith("usage: bkt")
    assert err.endswith(f": error: {error['message']}\n")
    # stderr is what argparse's own error exit writes
    monkeypatch.setattr(bkt.cli._Parser, "error", argparse.ArgumentParser.error)
    with pytest.raises(SystemExit) as stock:
        main(argv)
    assert stock.value.code == 2
    assert capsys.readouterr() == ("", err)


def test_help_exits_zero_where_a_usage_error_exits_two(capsys):
    for argv in (["--help"], ["oracle", "drop", "--help"]):
        with pytest.raises(SystemExit) as help_exit:
            main(argv)
        assert help_exit.value.code == 0
        assert capsys.readouterr().out.startswith("usage: bkt")
    assert main(["oracle", "drop"]) == 2


def test_drop_rejects_nan_eps(capsys, hard2, ident4):
    code, doc = run_json(capsys, "drop", "--matrix", hard2, "--draw", ident4,
                         "--player", "1", "--eps", "nan")
    assert code == 2
    assert doc["error"]["kind"] == "NonpositiveEpsilon"


@pytest.mark.parametrize("cmd", [["drop"], ["drop", "--witness"], ["oracle", "drop"]])
@pytest.mark.parametrize("eps, kind", [("inf", "RangeError"), ("-inf", "NonpositiveEpsilon"),
                                       ("1e308", "RangeError"), ("2", "RangeError")])
def test_eps_beyond_one_is_a_json_error(capsys, hard2, ident4, cmd, eps, kind):
    # no entry can move by more than 1; a larger eps once printed Infinity
    code, doc = run_json(capsys, *cmd, "--matrix", hard2, "--draw", ident4,
                         "--player", "1", f"--eps={eps}")
    assert code == 2
    assert doc["error"]["kind"] == kind


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(player=st.one_of(st.integers(max_value=0), st.integers(min_value=5)),
       cmd=st.sampled_from([["winprob"], ["drop"], ["crucial"], ["oracle", "wp"],
                            ["oracle", "drop", "--eps", "0.1"]]))
def test_player_out_of_range_is_a_json_error(hard2, ident4, player, cmd):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*cmd, "--matrix", hard2, "--draw", ident4, "--player", str(player)])
    assert code == 2
    assert json.loads(out.getvalue())["error"]["kind"] == "ParameterError"


def test_closed_stdout_exits_without_traceback():
    with subprocess.Popen([sys.executable, "-m", "bkt.cli", "gen", "hard", "8"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=src_env()) as proc:
        proc.stdout.read(16)
        proc.stdout.close()  # like `| head -c 16`: the reader leaves early
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 2
    assert "Traceback" not in err


def process_env():
    """src_env with stdout block-buffered, as a shell gives it to a command
    writing to a file or a pipe."""
    env = src_env()
    env.pop("PYTHONUNBUFFERED", None)
    return env


@pytest.fixture(scope="module")
def entry_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("entry")
    rng = np.random.default_rng(31)
    return {
        "H2": write_json(root / "hard2.json", gen_hard(2).to_json_dict()),
        "I4": write_json(root / "ident4.json", {"leaves": [1, 2, 3, 4]}),
        "H16": write_json(root / "hard16.json", gen_hard(4).to_json_dict()),
        "R16": write_json(root / "r16.json", random_matrix(rng, 16, interior=True).to_json_dict()),
        "R128": write_json(root / "r128.json",
                           random_matrix(rng, 128, interior=True).to_json_dict()),
        "D128": write_json(root / "d128.json", {"leaves": list(range(1, 129))}),
    }


@pytest.mark.parametrize("argv, code", [
    (["solve", "ptfp", "--matrix", "R16", "--player", "1", "--q", "0", "--heuristic"], 0),
    (["solve", "tfp", "--matrix", "H16", "--player", "2", "--heuristic", "--restarts", "2"], 1),
    # a result of more than 8 192 values, written by orjson
    (["drop", "--matrix", "R128", "--draw", "D128", "--player", "1", "--eps", "0.001",
      "--witness"], 0),
    (["gen", "hard", "8"], 0),  # 256 players, written in chunks of rows
    (["winprob", "--matrix", "H2", "--draw", "I4", "--pretty"], 0),
    (["solve", "rtfp", "--matrix", "H2", "--player", "1"], 2),  # a usage error
    (["crucial", "--matrix", "H2", "--draw", "I4", "--player", "2"], 2),  # NotWinner
], ids=["solve-found", "solve-not-found", "drop-witness-128", "gen-hard-8", "pretty",
        "usage-error", "bkt-error"])
def test_the_process_entry_prints_what_main_prints(capfdbinary, entry_inputs, argv, code):
    argv = [entry_inputs.get(a, a) for a in argv]
    assert main(argv) == code
    out, err = capfdbinary.readouterr()
    proc = subprocess.run([sys.executable, "-m", "bkt.cli", *argv], capture_output=True,
                          env=process_env(), timeout=120)
    assert proc.returncode == code
    assert proc.stdout == out
    assert proc.stderr == err  # argparse's usage lines too, on a usage error


def test_the_process_entry_exits_2_when_the_reader_leaves_before_its_flush():
    # main returns with an error document still buffered; run's flush meets
    # the closed pipe
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "bkt.cli", "draws", "count", "x"],
                              stdout=write, stderr=subprocess.PIPE, env=process_env(),
                              timeout=60)
    finally:
        os.close(write)
    assert proc.returncode == 2
    assert proc.stderr.decode().startswith("usage: bkt draws count")
    assert "Traceback" not in proc.stderr.decode()


def test_an_exception_escaping_main_gets_a_traceback_and_a_normal_exit():
    script = ("import bkt.cli\n"
              "def fail(argv=None):\n"
              "    print('written before')\n"
              "    raise RuntimeError('raised in main')\n"
              "bkt.cli.main = fail\n"
              "bkt.cli.run()\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=process_env(), timeout=60)
    assert proc.returncode == 1
    assert proc.stdout == "written before\n"
    assert "Traceback" in proc.stderr
    assert proc.stderr.endswith("RuntimeError: raised in main\n")


# --------------------------------------------------------------------- oracle


def test_oracle_wp(capsys, hard2, ident4):
    code, doc = run_json(capsys, "oracle", "wp", "--matrix", hard2,
                         "--draw", ident4, "--player", "1")
    assert code == 0
    assert doc["result"]["wp"] == 1.0


def test_oracle_drop(capsys, hard2, ident4):
    code, doc = run_json(capsys, "oracle", "drop", "--matrix", hard2,
                         "--draw", ident4, "--player", "1", "--eps", "0.1")
    assert code == 0
    assert doc["result"]["drop"] == pytest.approx(0.271)
    assert doc["result"]["worst_matrix"]["matrix"][0][1] == pytest.approx(0.9)


@pytest.mark.parametrize("cmd", [["oracle", "wp"], ["drop"]])
def test_a_short_draw_is_reported_before_a_bad_player(capsys, hard2, tmp_path, cmd):
    pair = write_json(tmp_path / "pair.json", {"leaves": [1, 2]})
    code, doc = run_json(capsys, *cmd, "--matrix", hard2, "--draw", pair, "--player", "0")
    assert code == 2
    assert doc["error"]["kind"] == "DimensionMismatch"


def test_oracle_drop_needs_eps(capsys, hard2, ident4):
    code, doc = run_json(capsys, "oracle", "drop", "--matrix", hard2,
                         "--draw", ident4, "--player", "1")
    assert code == 2
    assert doc["error"]["kind"] == "ParameterError"


def test_oracle_drop_ends_at_once_past_four_players(tmp_path):
    # the corner scan takes no override: 2**120 corners at 16 players would
    # never finish, so the flag is an unknown argument and the size a ScaleError
    rng = np.random.default_rng(16)
    matrix = tmp_path / "m16.json"
    matrix.write_text("".join(_matrix_lines(random_matrix(rng, 16, interior=True))))
    draw = write_json(tmp_path / "d16.json", {"leaves": list(range(1, 17))})
    argv = [sys.executable, "-m", "bkt.cli", "oracle", "drop", "--matrix", str(matrix),
            "--draw", draw, "--player", "1", "--eps", "0.01"]
    out = subprocess.run([*argv, "--allow-large"], capture_output=True, text=True,
                         env=src_env(), timeout=30)
    assert out.returncode == 2, out.stdout + out.stderr
    assert "unrecognized arguments: --allow-large" in out.stderr
    assert json.loads(out.stdout)["error"] == {
        "kind": "ParameterError", "message": "unrecognized arguments: --allow-large"}
    out = subprocess.run(argv, capture_output=True, text=True, env=src_env(), timeout=30)
    assert out.returncode == 2, out.stdout + out.stderr
    assert json.loads(out.stdout)["error"] == {
        "kind": "ScaleError", "message": "120 pairs exceed the corner-scan limit 13"}


# ---------------------------------------------------------------------- draws


def test_draws_count(capsys):
    code, doc = run_json(capsys, "draws", "count", "3")
    assert code == 0
    assert doc["result"] == {"n": 3, "count": 315}


def test_draws_count_overflow(capsys):
    code, doc = run_json(capsys, "draws", "count", "6")
    assert code == 2
    assert doc["error"]["kind"] == "OverflowError"


def test_draws_count_refuses_without_a_huge_factorial(capsys, monkeypatch):
    sizes = []
    factorial = math.factorial

    def recorded(k):
        sizes.append(k)
        return factorial(k)

    monkeypatch.setattr(math, "factorial", recorded)
    code, doc = run_json(capsys, "draws", "count", "40")
    assert code == 2
    assert doc["error"]["kind"] == "OverflowError"
    assert max(sizes, default=0) <= 32


def test_draws_list(capsys):
    code, doc = run_json(capsys, "draws", "list", "2")
    assert code == 0
    assert doc["result"]["draws"] == [[1, 2, 3, 4], [1, 3, 2, 4], [1, 4, 2, 3]]


def test_draws_list_needs_limit_or_override_when_large(capsys):
    code, doc = run_json(capsys, "draws", "list", "4")
    assert code == 2
    assert doc["error"] == {"kind": "ScaleError",
                            "message": "enumeration of 16 players needs --limit (limit is 8)"}
    code, doc = run_json(capsys, "draws", "list", "4", "--limit", "2")
    assert code == 0
    assert len(doc["result"]["draws"]) == 2


def test_draws_list_rejects_a_negative_limit(capsys):
    code, doc = run_json(capsys, "draws", "list", "3", "--limit", "-1")
    assert code == 2
    assert doc["error"]["kind"] == "ParameterError"
    code, doc = run_json(capsys, "draws", "list", "3", "--limit", "0")
    assert code == 0
    assert doc["result"]["draws"] == []
    # past sys.maxsize, where islice refuses a stop: such a limit lists all
    code, doc = run_json(capsys, "draws", "list", "2", "--limit", "9" * 23)
    assert code == 0
    assert doc["result"]["draws"] == [[1, 2, 3, 4], [1, 3, 2, 4], [1, 4, 2, 3]]


def test_draws_list_refuses_a_size_past_physical_memory():
    # the first draw holds about N**2 / 4 bytes: 1.2 GB at 2**16 players,
    # which still list, and 275 GB at 2**20, refused before it is built
    resource = pytest.importorskip("resource")

    def cap_address_space():  # 3 GiB
        resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

    def first_draw(n):
        return subprocess.run(
            [sys.executable, "-m", "bkt.cli", "draws", "list", str(n), "--limit", "1"],
            capture_output=True, text=True, env=src_env(), timeout=120,
            preexec_fn=cap_address_space)

    out = first_draw(20)
    assert out.returncode == 2, out.stdout + out.stderr
    assert json.loads(out.stdout)["error"]["kind"] == "ScaleError"
    out = first_draw(16)
    assert out.returncode == 0, out.stdout + out.stderr
    assert json.loads(out.stdout)["result"]["draws"] == [list(range(1, 65537))]


def test_draws_list_starts_promptly_at_thirty_two_players():
    resource = pytest.importorskip("resource")

    def cap_address_space():  # 2 GiB: the first draws need a few MB
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    out = subprocess.run(
        [sys.executable, "-m", "bkt.cli", "draws", "list", "5", "--limit", "3"],
        capture_output=True, text=True, env=src_env(), timeout=60,
        preexec_fn=cap_address_space)
    assert out.returncode == 0, out.stdout + out.stderr
    draws = json.loads(out.stdout)["result"]["draws"]
    assert draws == [
        list(range(1, 33)),
        [*range(1, 30), 31, 30, 32],
        [*range(1, 30), 32, 30, 31],
    ]


def test_draws_list_refuses_a_listing_past_physical_memory_before_listing():
    # 10**12 rows of 33 values; before the check, rows were built until the
    # address space ran out, after tens of seconds
    resource = pytest.importorskip("resource")

    def cap_address_space():  # 1 GiB
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    out = subprocess.run(
        [sys.executable, "-m", "bkt.cli", "draws", "list", "5", "--limit", str(10**12)],
        capture_output=True, text=True, env=src_env(), timeout=30,
        preexec_fn=cap_address_space)
    assert out.returncode == 2, out.stdout + out.stderr
    assert json.loads(out.stdout)["error"]["kind"] == "ScaleError"


def test_draws_list_counts_the_rows_it_will_list_against_memory(capsys, monkeypatch):
    import bkt.draws

    def unlisted(*args, **kwargs):
        raise AssertionError("enumerate_draws ran")

    monkeypatch.setattr(bkt.errors, "_physical_memory", lambda: 8 << 30)
    monkeypatch.setattr(bkt.draws, "enumerate_draws", unlisted)
    code, doc = run_json(capsys, "draws", "list", "4", "--limit", "100000000")
    assert code == 2
    assert doc["error"]["kind"] == "ScaleError"
    assert doc["error"]["message"].startswith("listing 100000000 draws of 2**4 players")
    # a limit past every draw counts the draws there are: 315 at 8 players
    monkeypatch.undo()
    monkeypatch.setattr(bkt.errors, "_physical_memory", lambda: 1 << 20)
    code, doc = run_json(capsys, "draws", "list", "3", "--limit", str(10**30))
    assert code == 0
    assert len(doc["result"]["draws"]) == 315


def test_draws_list_pretty(capsys):
    code, out = run(capsys, "draws", "list", "2", "--pretty")
    assert code == 0
    assert out.splitlines() == ["1 2 3 4", "1 3 2 4", "1 4 2 3"]


# ------------------------------------------------------------------- failures


def test_missing_file_reports_json_error(capsys):
    code, doc = run_json(capsys, "winprob", "--matrix", "/nonexistent.json",
                         "--draw", "/also-missing.json")
    assert code == 2
    assert doc["error"]["kind"] == "FileNotFoundError"


def test_invalid_json_input(capsys, tmp_path, ident4):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, doc = run_json(capsys, "winprob", "--matrix", str(bad),
                         "--draw", ident4)
    assert code == 2
    assert doc["error"]["kind"] == "ParameterError"


@pytest.mark.parametrize("raw", [b"\xff\xfe{", b'{"leaves": [1, 2\xff]}', b"\xff",
                                 b'{"n": 1, "matrix": [[null, 0.5], [0.5, null]]}\xff',
                                 # too deep for the parser, too long for int()
                                 pytest.param(b"[" * 100_000 + b"]" * 100_000, id="deep"),
                                 pytest.param(b"7" * 5_000, id="long-int")])
@pytest.mark.parametrize("role", ["--matrix", "--draw"])
def test_input_that_does_not_decode_is_a_json_error(capsys, tmp_path, hard2, ident4, raw, role):
    bad = tmp_path / "bad.json"
    bad.write_bytes(raw)
    files = {"--matrix": hard2, "--draw": ident4, role: str(bad)}
    code, doc = run_json(capsys, "winprob", *itertools.chain(*files.items()))
    assert code == 2
    assert doc["error"]["kind"] == "ParameterError"
    assert "bad.json is not valid JSON" in doc["error"]["message"]


@pytest.mark.parametrize("leaves", ["[1, 2.5]", "[true, 2]", '"12"', "5", "null", "[[1], 2]",
                                    '[1, "x"]', '{"a": 1, "b": 2}'])
def test_draw_leaves_that_are_not_integers_are_a_json_error(capsys, tmp_path, leaves):
    two = write_json(tmp_path / "two.json", gen_hard(1).to_json_dict())
    draw = tmp_path / "draw.json"
    draw.write_text(f'{{"leaves": {leaves}}}')
    code, doc = run_json(capsys, "winprob", "--matrix", two, "--draw", str(draw))
    assert code == 2
    assert doc["error"]["kind"] == "PermutationError"


def test_invalid_matrix_content(capsys, tmp_path, ident4):
    bad = write_json(tmp_path / "bad.json",
                     {"matrix": [[None, 0.7], [0.4, None]]})
    code, doc = run_json(capsys, "winprob", "--matrix", bad, "--draw", ident4)
    assert code == 2
    assert doc["error"]["kind"] == "ComplementarityError"


# --------------------------------------------------------------- json output


_TRICKY_FLOATS = [1e-05, 9.5e-05, 2.5e-07, -1e-05, -9.5e-05, -2.5e-07, 10.00001, 100.000012,
                  -0.0, 5e-324, 1 - 2**-53, 1e-4, math.nextafter(1e-4, 0.0), 0.1 + 0.2, 1e15,
                  -1e15, math.nextafter(1e16, 0.0), 1e16, -1e16, 1.5e300]
# what orjson would write apart from json, or not at all: the json path takes them
_NOT_FOR_ORJSON = [2**64, -2**63 - 1, {1: 0.5}, collections.OrderedDict(a=0.5), np.float64(0.5)]
_report_floats = st.floats(-1.0, 1.0) | st.sampled_from(_TRICKY_FLOATS)
_players = st.integers(1, 64)
# user text in the envelope: non-ASCII, and what the float rules would rewrite
_ENVELOPES = [
    ("drop --matrix caf\u00e9-e-1.json --draw 0.00001.json --eps 0.00001",
     {"caf\u00e9-e-1.json": "ab" * 32, "0.00001.json": "cd" * 32}, []),
    ("draws list 3", {}, ["draw from stdin was not canonical; using its canonical form",
                          "\u00fc 1e-7 0.0000 \u2028"]),
]


@st.composite
def _results(draw):
    """(a report-shaped result, the value put in it that orjson must not
    write, or None): rows of i, j and floats, a witness with directions and
    a matrix, or lists of integer rows."""
    kind = draw(st.sampled_from(["pairs", "witness", "rows"]))
    if kind == "pairs":
        rows = [{"i": draw(_players), "j": draw(_players), "alpha": draw(_report_floats),
                 "beta": draw(_report_floats), "p": draw(_report_floats)}
                for _ in range(draw(st.integers(0, 8)))]
        result = {"player": draw(_players), "wp": draw(_report_floats), "alphas": rows,
                  "drop_coefficient": draw(_report_floats),
                  "estimate": {"drop": draw(_report_floats), "clamped": draw(st.booleans())}}
        spot = rows[-1] if rows else result
    elif kind == "witness":
        size = draw(st.sampled_from([2, 4]))
        directions = [{"i": draw(_players), "j": draw(_players),
                       "direction": draw(st.sampled_from(["hold", "increase", "decrease"]))}
                      for _ in range(draw(st.integers(0, 6)))]
        matrix = [[None if i == j else draw(_report_floats) for j in range(size)]
                  for i in range(size)]
        result = {"epsilon": draw(_report_floats), "directions": directions,
                  "matrix": {"n": size.bit_length() - 1, "matrix": matrix}}
        spot = result["matrix"]
    else:
        rows = draw(st.lists(st.lists(st.integers(-2**63, 2**64 - 1), max_size=8), max_size=6))
        result = {"n": draw(st.integers(1, 3)), "draws": draw(st.sampled_from([list, tuple]))(rows)}
        spot = result
    bad = draw(st.none() | st.sampled_from(_NOT_FOR_ORJSON))
    if bad is not None:
        spot["deep"] = [0.5, [bad]]
    return result, bad


@settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow])
@given(_results(), st.sampled_from(_ENVELOPES))
def test_a_report_written_by_orjson_is_the_indented_json(case, envelope):
    (result, bad), (command, inputs, warnings) = case, envelope
    rewritten = []
    with mock.patch.object(bkt.cli, "_ORJSON_MIN_VALUES", 0), \
            mock.patch.object(bkt.cli, "_as_json_floats",
                              lambda doc: rewritten.append(doc) or _as_json_floats(doc)):
        text = bkt.cli._report(command, inputs, result, warnings)
    assert text == json.dumps({"command": command, "inputs": inputs, "result": result,
                               "warnings": warnings}, indent=2)
    assert bool(rewritten) == (bad is None)


def test_a_large_report_is_written_by_one_orjson_call(capsys, monkeypatch, tmp_path):
    # 64 players: 2 016 pairs, and no json call sees the result
    import orjson

    m = random_matrix(np.random.default_rng(64), 64, interior=True)
    src = write_json(tmp_path / "m.json", m.to_json_dict())
    draw = write_json(tmp_path / "d.json", {"leaves": list(range(1, 65))})
    argv = ["drop", "--matrix", src, "--draw", draw, "--player", "3", "--eps", "0.001",
            "--witness"]
    want = run(capsys, *argv)
    with monkeypatch.context() as patch:
        patch.setattr(bkt.cli, "_ORJSON_MIN_VALUES", math.inf)
        assert run(capsys, *argv) == want
    calls, docs = [], []
    dumps = orjson.dumps
    monkeypatch.setattr(orjson, "dumps", lambda *a, **k: calls.append(1) or dumps(*a, **k))
    monkeypatch.setattr(bkt.cli, "json", SimpleNamespace(
        loads=json.loads, JSONDecodeError=json.JSONDecodeError,
        dumps=lambda doc, **k: docs.append(doc) or json.dumps(doc, **k)))
    assert run(capsys, *argv) == want
    assert calls == [1]
    assert docs and all("result" not in doc for doc in docs)
    code, out = want
    assert code == 0 and len(json.loads(out)["result"]["alphas"]) == 2016


_TRICKY = [0.0, -0.0, 1.0, 0.5, 5e-324, 1e-05, 0.1 + 0.2, 1 - 2**-53,
           1e-4, math.nextafter(1e-4, 0.0), 9.5e-05, 2.5e-07]
_few_entries = st.sampled_from(_TRICKY + [0.1, 0.9, 0.25])
_any_entries = st.floats(0.0, 1.0) | st.sampled_from(_TRICKY)


@st.composite
def _matrices(draw):
    size = 1 << draw(st.integers(1, 6))
    t = draw(hnp.arrays(np.float64, (size, size), elements=draw(
        st.sampled_from([_few_entries, _any_entries]))))
    lower = np.tri(size, k=-1, dtype=bool)
    arr = np.where(lower, 1.0 - t.T, t)
    arr[lower & (arr == 0.0) & np.signbit(t)] = -0.0  # -0.0 complements 1.0 too
    return validate_matrix(arr)


@settings(max_examples=200, suppress_health_check=[HealthCheck.too_slow])
@given(_matrices(), st.sampled_from([1, 5, 64, bkt.cli._CHUNK_CELLS]),
       st.sampled_from([0, bkt.cli._FEW_ENTRIES, 1 << 13]))
def test_matrix_lines_match_indented_json(m, chunk_cells, few_entries):
    # with no least size, few_entries 0 takes orjson for every table and
    # 1 << 13 the binary search
    with mock.patch.object(bkt.cli, "_CHUNK_CELLS", chunk_cells), \
            mock.patch.object(bkt.cli, "_FEW_ENTRIES", few_entries), \
            mock.patch.object(bkt.cli, "_ORJSON_MIN_VALUES", 0):
        text = "".join(_matrix_lines(m))
    assert text == json.dumps(m.to_json_dict(), indent=2)


def test_cli_needs_only_loads_and_dumps_from_json(capsys, monkeypatch, hard2, ident4):
    # the benchmark's traced run (bench/layers.py) swaps bkt.cli.json for
    # a proxy that holds just these three
    argvs = [
        ["gen", "hard", "3"],
        ["perturb", "--matrix", hard2, "--eps", "0.1"],
        ["winprob", "--matrix", hard2, "--draw", ident4],
        ["drop", "--matrix", hard2, "--draw", ident4, "--player", "1",
         "--eps", "0.1", "--witness"],
    ]
    plain = [run(capsys, *argv) for argv in argvs]
    monkeypatch.setattr(bkt.cli, "json", SimpleNamespace(
        loads=json.loads, dumps=json.dumps, JSONDecodeError=json.JSONDecodeError))
    assert [run(capsys, *argv) for argv in argvs] == plain
    assert all(code == 0 for code, _ in plain)


# ------------------------------------------------ what every result holds


def _every_value(x):
    """The number of values in x at every depth, entering every dict, list
    and tuple."""
    if type(x) is dict:
        x = list(x.values())
    return sum(1 + _every_value(v) for v in x) if type(x) in (list, tuple) else 0


def _scalars(x):
    """Every key in x and every value in it that is no dict, list or tuple."""
    if type(x) is dict:
        yield from x
        x = list(x.values())
    if type(x) in (list, tuple):
        for v in x:
            yield from _scalars(v)
    else:
        yield x


def _report_invocations(tmp_path, size):
    """(argv, its exit code or None for either of 0 and 1) of every report
    command at size players: on an interior matrix with the entries 0, 1,
    5e-324 and 1 - 2**-53 written in, and on a relabelled 0/1 order, whose
    strongest player wins every draw and whose weakest wins none."""
    rng = np.random.default_rng(size)
    edges = random_matrix(rng, size, interior=True).probs.copy()
    i, j = np.triu_indices(size, 1)
    for k, p in zip(rng.permutation(len(i)), [5e-324, 1 - 2**-53, 0.0, 1.0]):
        edges[i[k], j[k]], edges[j[k], i[k]] = p, 1.0 - p
    rank = rng.permutation(size)
    order = (rank[:, None] < rank[None, :]).astype(float)
    strongest, weakest = str(int(np.argmin(rank)) + 1), str(int(np.argmax(rank)) + 1)
    draw = write_json(tmp_path / "draw.json", {"leaves": (rng.permutation(size) + 1).tolist()})
    solve = [] if size <= 8 else ["--heuristic", "--restarts", "2"]
    for name, arr, player in [("edges", edges, str(rng.integers(1, size + 1))),
                              ("order", order, strongest)]:
        m = validate_matrix(arr)
        path = write_json(tmp_path / f"{name}.json", m.to_json_dict())
        scored = ["--matrix", path, "--draw", draw, "--player", player]
        yield ["winprob", "--matrix", path, "--draw", draw], 0
        yield ["winprob", *scored], 0
        yield ["drop", *scored], 0
        for eps in (5e-324, m.xi, 1.0):
            yield ["drop", *scored, "--eps", repr(eps)], 0
            if eps <= m.xi:
                yield ["drop", *scored, "--eps", repr(eps), "--witness"], 0
            if size <= 4:
                yield ["oracle", "drop", *scored, "--eps", repr(eps)], 0
        if size <= 16:
            yield ["oracle", "wp", *scored], 0
        if m.deterministic:
            yield ["crucial", *scored], 0
            yield ["crucial", *scored, "--oracle"], 0
        if size > 16:
            continue
        problems = [("tfp", []), ("rtfp", ["--c", "1e9"]), ("ptfp", ["--q", "1"]),
                    ("rptfp", ["--q", "1", "--s", "1e9"])]
        if not m.deterministic:
            problems = [("ptfp", ["--q", "0.5"]), ("rptfp", ["--q", "0.5", "--s", "0.5"])]
        for problem, bounds in problems:
            for v, code in [(player, 0), (weakest, 1)] if m.deterministic else [(player, None)]:
                yield ["solve", problem, "--matrix", path, "--player", v, *bounds, *solve], code


@pytest.mark.parametrize("size", [2, 4, 8, 16, 32, 64])
def test_every_result_has_one_shape_finite_floats_and_ascii_text(capsys, monkeypatch, tmp_path,
                                                                  size):
    # _report counts a result's values from its first list members and hands
    # orjson floats it would write as null if they were not finite
    results = []
    report = bkt.cli._report
    monkeypatch.setattr(bkt.cli, "_report",
                        lambda c, i, result, w: results.append(result) or report(c, i, result, w))
    argvs = list(_report_invocations(tmp_path, size))
    if size == 4:
        argvs += [(["draws", "count", str(n)], 0) for n in (1, 2, 3)]
        argvs += [(["draws", "list", str(n)], 0) for n in (1, 2, 3)]
        argvs += [(["draws", "list", "4", "--limit", limit], 0) for limit in ("0", "2000")]
    for argv, want in argvs:
        code, _ = run(capsys, *argv)
        assert code in ((0, 1) if want is None else (want,)), argv
        (result,) = results
        results.clear()
        assert bkt.cli._values(result) == _every_value(result), argv
        for x in _scalars(result):
            assert type(x) in (str, int, float, bool, type(None)), argv
            assert type(x) is not float or math.isfinite(x), argv
            assert type(x) is not str or x.isascii() and x.isprintable(), argv


# ------------------------------------------------------- the contract, fuzzed


_NUMBERS = ["0", "-0", "0.5", "1e-9", "1e400", "nan", "inf", "x", "", str(2**70),
            *map(str, range(-1, 6))]
# values each option takes; --player's and the inputs' depend on the size
_LIKELY = {"n": ["2", "3"], "--eps": ["0.1", "1e-9"], "--p": ["0.7"], "--q": ["0", "0.5", "1"],
           "--c": ["0", "3"], "--s": ["0", "3"], "--restarts": ["1", str(2**70)],
           "--seed": ["0", str(2**70)], "--limit": ["0", "3", str(2**70)]}
# each command's words and the options it may take; "n" is its positional
# number, and a flag in _FLAGS takes no value
_COMMANDS = [
    *[(["gen", fam], ["n", *extra]) for fam, extra in
      [("hard", []), ("unbalanced", []), ("bigsmall", ["--p"]), ("threetier", ["--eps"])]],
    (["perturb"], ["--matrix", "--eps"]),
    (["winprob"], ["--matrix", "--draw", "--player"]),
    (["drop"], ["--matrix", "--draw", "--player", "--eps", "--witness"]),
    (["crucial"], ["--matrix", "--draw", "--player", "--oracle"]),
    *[(["solve", problem], ["--matrix", "--player", *bounds, "--heuristic", "--restarts", "--seed"])
      for problem, bounds in [("tfp", []), ("ptfp", ["--q"]), ("rtfp", ["--c"]),
                              ("rptfp", ["--q", "--s"])]],
    (["oracle", "wp"], ["--matrix", "--draw", "--player"]),
    (["oracle", "drop"], ["--matrix", "--draw", "--player", "--eps"]),
    (["draws", "count"], ["n"]),
    (["draws", "list"], ["n", "--limit"]),
]
_FLAGS = {"--witness", "--oracle", "--heuristic", "--pretty"}


@pytest.fixture(scope="module")
def documents():
    """The bytes of each input document, by name."""
    rng = np.random.default_rng(14)
    docs = {f"interior{size}": json.dumps(random_matrix(rng, size, interior=True).to_json_dict())
            for size in (2, 4, 8)}
    docs.update({f"hard{1 << n}": json.dumps(gen_hard(n).to_json_dict()) for n in (1, 2, 3)})
    docs.update({f"draw{size}": json.dumps({"leaves": list(range(size, 0, -1))})
                 for size in (2, 4, 8)})
    docs.update(nan='{"n": 1, "matrix": [[null, NaN], [NaN, null]]}', empty="",
                array="[[null, 0.5], [0.5, null]]",
                ragged='{"n": 1, "matrix": [[null, 0.5], [0.5]]}')
    docs = {name: text.encode() for name, text in docs.items()}
    docs["not_utf8"] = b'{"n": 1, "matrix": "\xc3\x28"}'
    return docs


@pytest.fixture(scope="module")
def document_paths(tmp_path_factory, documents):
    """The path of each document by name, beside a missing one, a directory
    and stdin."""
    root = tmp_path_factory.mktemp("documents")
    for name, raw in documents.items():
        (root / f"{name}.json").write_bytes(raw)
    return {**{name: str(root / f"{name}.json") for name in documents},
            "missing": str(root / "missing.json"), "directory": str(root), "stdin": "-"}


@st.composite
def _invocations(draw, paths):
    """The argv of a command of _COMMANDS: each flag a coin toss, each other
    option mostly present, and its value mostly one the option takes, with
    inputs of one size."""
    words, options = draw(st.sampled_from(_COMMANDS))
    size = draw(st.sampled_from([2, 4, 8]))
    likely = {**_LIKELY, "--matrix": [paths[f"interior{size}"], paths[f"hard{size}"]],
              "--draw": [paths[f"draw{size}"]], "--player": [str(k) for k in range(1, size + 1)]}
    argv = list(words)
    for option in [*options, "--pretty"]:
        if option in _FLAGS:
            argv += [option] * draw(st.booleans())
        elif draw(st.integers(0, 7)):
            wild = list(paths.values()) if option in ("--matrix", "--draw") else _NUMBERS
            values = likely[option] if draw(st.integers(0, 7)) else wild
            argv += [option] * (option != "n") + [draw(st.sampled_from(values))]
    return argv


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_invocation_exits_0_1_or_2_with_one_json_document(documents, document_paths,
                                                                data):
    argv = data.draw(_invocations(document_paths))
    piped = data.draw(st.sampled_from(sorted(documents)))
    out = io.StringIO()
    with mock.patch.object(sys, "stdin", SimpleNamespace(buffer=io.BytesIO(documents[piped]))), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    out = out.getvalue()
    assert code in (0, 1, 2), (argv, out)
    if code == 2:
        doc = json.loads(out)
        assert list(doc) == ["error"] and list(doc["error"]) == ["kind", "message"], out
        assert out == json.dumps(doc) + "\n"
    elif "--pretty" not in argv:
        json.loads(out, parse_constant=_reject_constant)


# -------------------------------------------------------------- installation


@pytest.mark.skipif(shutil.which("bkt") is None,
                    reason="bkt console script not installed")
def test_console_entry_point():
    out = subprocess.run(["bkt", "draws", "count", "3"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert json.loads(out.stdout)["result"]["count"] == 315


def test_declared_entry_point_runs_without_install():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts.get("bkt") == "bkt.cli:run"
    ep = EntryPoint(name="bkt", value=scripts["bkt"], group="console_scripts")
    assert ep.load() is bkt.cli.run
    # the same call the generated console-script wrapper makes
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys; from bkt.cli import run; sys.exit(run())",
         "draws", "count", "3"],
        capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["result"]["count"] == 315


# ------------------------------------------------------------- documentation


def readme_command_lines():
    """The lines of the README's fenced block under "## Command line"."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1]
    block = section.split("```\n", 2)[1]
    return [line for line in block.splitlines() if line.strip()]


def test_readme_command_lines_run(tmp_path):
    # run in order, so the first lines write the files the later ones read
    lines = readme_command_lines()
    assert any("oracle drop" in line for line in lines)
    prelude = f'set -o pipefail; bkt() {{ "{sys.executable}" -m bkt.cli "$@"; }}; '
    for line in lines:
        out = subprocess.run(["bash", "-c", prelude + line], capture_output=True, text=True,
                             cwd=tmp_path, env=src_env(), timeout=60)
        assert out.returncode in (0, 1), (line, out.stdout, out.stderr)
        assert "Traceback" not in out.stdout + out.stderr, line
