import contextlib
import io
import itertools
import json
import os
import shutil
import subprocess
import sys
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
from bkt.cli import _dumps, _matrix_lines, main
from helpers import random_matrix


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


def test_matrix_out_of_memory_writes_only_the_error(capsys, monkeypatch):
    # the table-sized arrays are built before the first byte is written
    array_memory_error = type("_ArrayMemoryError", (MemoryError,), {})

    def too_big(*args, **kwargs):
        raise array_memory_error("Unable to allocate 8.00 MiB for an array")

    monkeypatch.setattr(bkt.cli.np, "unique", too_big)
    code, out = run(capsys, "gen", "hard", "10")
    assert code == 2
    assert json.loads(out) == {"error": {"kind": "MemoryError",
                                         "message": "Unable to allocate 8.00 MiB for an array"}}


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

    monkeypatch.setattr(bkt.cli, f"gen_{argv[1]}", too_big)
    code, doc = run_json(capsys, *argv)
    assert code == 2
    assert doc["error"] == {"kind": "MemoryError",
                            "message": "Unable to allocate 8.00 TiB for an array"}


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


def test_solve_requires_problem_parameters(capsys, hard2):
    with pytest.raises(SystemExit):
        main(["solve", "rtfp", "--matrix", hard2, "--player", "1"])


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
    proc = subprocess.Popen([sys.executable, "-m", "bkt.cli", "gen", "hard", "8"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=src_env())
    proc.stdout.read(16)
    proc.stdout.close()  # like `| head -c 16`: the reader leaves early
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 2
    assert "Traceback" not in err


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


def test_oracle_drop_needs_eps(capsys, hard2, ident4):
    code, doc = run_json(capsys, "oracle", "drop", "--matrix", hard2,
                         "--draw", ident4, "--player", "1")
    assert code == 2
    assert doc["error"]["kind"] == "ParameterError"


# ---------------------------------------------------------------------- draws


def test_draws_count(capsys):
    code, doc = run_json(capsys, "draws", "count", "3")
    assert code == 0
    assert doc["result"] == {"n": 3, "count": 315}


def test_draws_count_overflow(capsys):
    code, doc = run_json(capsys, "draws", "count", "6")
    assert code == 2
    assert doc["error"]["kind"] == "OverflowError"


def test_draws_list(capsys):
    code, doc = run_json(capsys, "draws", "list", "2")
    assert code == 0
    assert doc["result"]["draws"] == [[1, 2, 3, 4], [1, 3, 2, 4], [1, 4, 2, 3]]


def test_draws_list_needs_limit_or_override_when_large(capsys):
    code, doc = run_json(capsys, "draws", "list", "4")
    assert code == 2
    assert doc["error"]["kind"] == "ScaleError"
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
                                 b'{"n": 1, "matrix": [[null, 0.5], [0.5, null]]}\xff'])
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


_json_scalars = (st.none() | st.booleans() | st.integers()
                 | st.floats(allow_nan=True, allow_infinity=True) | st.text())
_json_keys = st.text() | st.integers() | st.booleans() | st.none() | st.floats()


@settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow])
@given(st.recursive(
    _json_scalars,
    lambda kids: (st.lists(kids) | st.lists(kids).map(tuple)
                  | st.dictionaries(_json_keys, kids)),
    max_leaves=40,
))
def test_dumps_matches_indented_json(obj):
    assert _dumps(obj) == json.dumps(obj, indent=2)


_TRICKY = [0.0, -0.0, 1.0, 0.5, 5e-324, 1e-05, 0.1 + 0.2, 1 - 2**-53]
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
@given(_matrices(), st.sampled_from([1, 5, 64, bkt.cli._CHUNK_CELLS]))
def test_matrix_lines_match_indented_json(m, chunk_cells):
    with mock.patch.object(bkt.cli, "_CHUNK_CELLS", chunk_cells):
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
    assert scripts.get("bkt") == "bkt.cli:main"
    ep = EntryPoint(name="bkt", value=scripts["bkt"], group="console_scripts")
    assert ep.load() is main
    # the same call the generated console-script wrapper makes
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys; from bkt.cli import main; sys.exit(main())",
         "draws", "count", "3"],
        capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["result"]["count"] == 315
