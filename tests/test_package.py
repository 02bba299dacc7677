"""The package's import surface: lazy names, the CLI's BLAS thread cap and
the premise behind that cap, that bkt makes no BLAS call.

The import tests each run in a fresh interpreter, since this one has loaded
numpy and the submodules already.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bkt
from helpers import random_matrix

SRC = Path(__file__).resolve().parent.parent / "src"
BLAS_THREADS = "OPENBLAS_NUM_THREADS"


def _run(code, **env_changes):
    """stdout of a fresh interpreter running code with bkt from SRC, parsed as JSON.

    env_changes maps a variable to its value, or to None to unset it.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for key, value in env_changes.items():
        env.pop(key, None)
        if value is not None:
            env[key] = value
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


# ---------------------------------------------------------------- lazy package


def test_import_bkt_loads_no_numpy_and_no_submodule():
    loaded = _run(
        "import json, sys, bkt\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "                        if m.split('.')[0] == 'numpy' or m.startswith('bkt.'))))"
    )
    assert loaded == []


def test_every_public_name_is_its_home_modules_object():
    wrong = _run(
        "import importlib, json, bkt\n"
        "wrong = []\n"
        "for name in bkt.__all__:\n"
        "    home = 'bkt.' + bkt._HOME[name]\n"
        "    obj = getattr(bkt, name)\n"
        "    if obj is not getattr(importlib.import_module(home), name):\n"
        "        wrong.append(name)\n"
        "    elif getattr(obj, '__module__', home) != home:\n"
        "        wrong.append(name)  # listed under a module that only imports it\n"
        "print(json.dumps(wrong))"
    )
    assert wrong == []


def test_star_import_and_dir_list_every_public_name():
    missing = _run(
        "import json, bkt\n"
        "ns = {}\n"
        "exec('from bkt import *', ns)\n"
        "print(json.dumps([sorted(set(bkt.__all__) - set(ns)),\n"
        "                  sorted(set(bkt.__all__) - set(dir(bkt))),\n"
        "                  len(bkt.__all__)]))"
    )
    assert missing == [[], [], 61]


def test_submodules_resolve_after_a_bare_import():
    names = _run(
        "import json, bkt\n"
        "print(json.dumps([bkt.draws.__name__, bkt.cli.__name__, 'winprob' in dir(bkt)]))"
    )
    assert names == ["bkt.draws", "bkt.cli", True]


def test_unknown_attribute_is_an_attribute_error():
    result = _run(
        "import json, bkt\n"
        "try:\n"
        "    bkt.no_such_name\n"
        "except AttributeError as e:\n"
        "    print(json.dumps(str(e)))"
    )
    assert result == "module 'bkt' has no attribute 'no_such_name'"
    with pytest.raises(AttributeError):
        bkt.no_such_name  # noqa: B018


def test_a_swapped_submodule_function_is_not_kept_by_the_package(monkeypatch):
    # the benchmark's tracer swaps functions inside the submodules and puts
    # them back; the package must follow both ways
    original = bkt.winner
    sentinel = object()
    with monkeypatch.context() as patch:
        patch.setattr(bkt.winprob, "winner", sentinel)
        assert bkt.winner is sentinel
    assert bkt.winner is original
    assert "winner" not in vars(bkt)


# ------------------------------------------- what each CLI command loads

COMMANDS = ["gen", "perturb", "winprob", "drop", "crucial", "solve", "oracle", "draws"]
SLOW = ["bkt.draws", "bkt.winprob", "bkt.robustness", "bkt.solvers", "hashlib"]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Paths of a 4-player 0/1 matrix file and a draw file, of a 512-player
    matrix file of at least 1 MiB and its draw file, and of 8-, 64- and
    128-player interior matrix files of less than 1 MiB, with draw files
    for 8 and 128 players."""
    folder = tmp_path_factory.mktemp("inputs")
    (folder / "m.json").write_text(json.dumps(bkt.gen_hard(2).to_json_dict()))
    for name, size in (("e", 8), ("s", 64), ("i", 128)):
        (folder / f"{name}.json").write_text(json.dumps(
            random_matrix(np.random.default_rng(size), size, interior=True).to_json_dict()))
    assert (folder / "i.json").stat().st_size < 1 << 20
    (folder / "d.json").write_text(json.dumps({"leaves": [1, 2, 3, 4]}))
    for name, size in (("ed", 8), ("id", 128)):
        (folder / f"{name}.json").write_text(json.dumps({"leaves": list(range(1, size + 1))}))
    (folder / "large.json").write_text(json.dumps(bkt.gen_hard(9).to_json_dict()))
    assert (folder / "large.json").stat().st_size >= 1 << 20
    (folder / "ld.json").write_text(json.dumps({"leaves": list(range(1, 513))}))
    return {name: str(folder / f"{name}.json")
            for name in ("m", "d", "large", "ld", "e", "ed", "s", "i", "id")}


@pytest.mark.parametrize("argv, code, absent", [
    (["gen", "hard", "2"], 0, SLOW),
    (["gen", "threetier", "2", "--eps", "0.1"], 0, SLOW),
    (["gen", "hard", "7"], 0, SLOW),  # 128 players, but two entries
    (["perturb", "--matrix", "M", "--eps", "0.1"], 0, SLOW[:-1]),
    # orjson writes a table of 128 players or more with many entries
    (["perturb", "--matrix", "S", "--eps", "0.05"], 0, SLOW[:-1]),
    (["perturb", "--matrix", "I", "--eps", "0.05"], 0, SLOW[:-1]),
    (["solve", "tfp", "--matrix", "M", "--player", "1"], 0, ["bkt.robustness", "bkt.generators"]),
    (["solve", "ptfp", "--matrix", "M", "--player", "1", "--q", "0.5", "--heuristic"], 0,
     ["bkt.robustness", "bkt.generators"]),
    # a robust witness is re-checked, drop coefficient and all
    (["solve", "rtfp", "--matrix", "M", "--player", "1", "--c", "10"], 0,
     ["bkt.robustness", "bkt.generators"]),
    (["solve", "rptfp", "--matrix", "M", "--player", "1", "--q", "0.5", "--s", "10",
      "--heuristic"], 0, ["bkt.robustness", "bkt.generators"]),
    (["winprob", "--matrix", "M", "--draw", "D"], 0,
     ["bkt.robustness", "bkt.solvers", "bkt.generators"]),
    (["draws", "count", "3"], 0, ["bkt.winprob", "bkt.solvers", "hashlib"]),
    # orjson reads an input of 1 MiB or more
    (["winprob", "--matrix", "L", "--draw", "LD"], 0,
     ["bkt.robustness", "bkt.solvers", "bkt.generators"]),
    # orjson writes a report of many values: a drop report at 128 players,
    # not at 8
    (["drop", "--matrix", "E", "--draw", "ED", "--player", "1", "--eps", "0.01", "--witness"],
     0, ["bkt.solvers", "bkt.generators"]),
    (["drop", "--matrix", "I", "--draw", "ID", "--player", "1", "--eps", "0.01", "--witness"],
     0, ["bkt.solvers", "bkt.generators"]),
], ids=["gen-hard", "gen-threetier", "gen-hard-128", "perturb", "perturb-interior64",
        "perturb-interior128", "solve-tfp", "solve-ptfp", "solve-rtfp", "solve-rptfp", "winprob",
        "draws-count", "winprob-large", "drop-witness-8", "drop-witness-128"])
def test_each_command_loads_only_what_it_runs(inputs, argv, code, absent):
    orjson = "L" in argv or "I" in argv
    argv = [{"M": inputs["m"], "D": inputs["d"], "L": inputs["large"], "LD": inputs["ld"],
             "E": inputs["e"], "ED": inputs["ed"], "S": inputs["s"], "I": inputs["i"],
             "ID": inputs["id"]}.get(a, a) for a in argv]
    got, numpy_at_import, loaded = _run(
        "import contextlib, io, json, sys\n"
        "import bkt.cli\n"
        "numpy_at_import = 'numpy' in sys.modules\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = bkt.cli.main({argv!r})\n"
        "print(json.dumps([code, numpy_at_import,\n"
        "                  sorted(m for m in sys.modules\n"
        "                         if m.startswith('bkt.') or m in ('hashlib', 'orjson'))]))"
    )
    assert got == code
    assert numpy_at_import  # so under the BLAS cap, before any command's imports
    assert not set(absent) & set(loaded), loaded
    assert ("orjson" in loaded) == orjson, loaded
    if argv[0] == "gen":
        assert loaded == ["bkt.cli", "bkt.errors", "bkt.generators", "bkt.matrix"]


def test_help_lists_every_command():
    text = _run(
        "import contextlib, io, json, bkt.cli\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        "    try:\n"
        "        bkt.cli.main(['--help'])\n"
        "    except SystemExit:\n"
        "        pass\n"
        "print(json.dumps(out.getvalue()))"
    )
    assert "{" + ",".join(COMMANDS) + "}" in text
    for command in COMMANDS:
        assert f"\n    {command} " in text


# -------------------------------------------------------------------- BLAS cap


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_cli_loads_numpy_with_one_blas_thread():
    count = "import json, os; print(json.dumps(len(os.listdir('/proc/self/task'))))"
    capped = _run("import bkt.cli; " + count, **{BLAS_THREADS: None})
    single = _run("import numpy; " + count, **{BLAS_THREADS: "1"})
    assert capped == single


@pytest.mark.parametrize("value", ["2", None])
def test_cli_import_leaves_the_environment_as_found(value):
    seen = _run(
        f"import json, os; before = os.environ.get({BLAS_THREADS!r}); import bkt.cli\n"
        f"print(json.dumps([before, os.environ.get({BLAS_THREADS!r})]))",
        **{BLAS_THREADS: value},
    )
    assert seen == [value, value]


# ------------------------------------------ the cap's premise: no BLAS calls

BLAS_CALLS = {"dot", "matmul", "tensordot", "inner", "vdot"}


def blas_uses(tree):
    """(line, what) of every BLAS entry point in a module's syntax tree."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif (isinstance(node, ast.Name) and node.id == "linalg"
              or isinstance(node, ast.Attribute) and node.attr == "linalg"):
            found.append((node.lineno, "linalg"))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = [getattr(node, "module", None) or ""] + [a.name for a in node.names]
            if any("linalg" in m.split(".") for m in modules):
                found.append((node.lineno, "linalg"))
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in BLAS_CALLS:
                found.append((node.lineno, name))
            elif name == "einsum" and any(
                    k.arg == "optimize" and not (isinstance(k.value, ast.Constant)
                                                 and k.value.value is False)
                    for k in node.keywords):
                found.append((node.lineno, "einsum(optimize=...)"))
    return found


@pytest.mark.parametrize("snippet", [
    "c = a @ b",
    "a @= b",
    "np.dot(a, b)",
    "a.dot(b)",
    "np.matmul(a, b)",
    "np.tensordot(a, b, 1)",
    "np.inner(a, b)",
    "np.vdot(a, b)",
    "np.linalg.norm(a)",
    "from numpy import linalg",
    "from numpy.linalg import solve",
    "import numpy.linalg",
    "np.einsum('ij,jk->ik', a, b, optimize=True)",
    "np.einsum('ij,jk->ik', a, b, optimize='greedy')",
])
def test_blas_guard_sees_each_entry_point(snippet):
    assert blas_uses(ast.parse(snippet))


@pytest.mark.parametrize("snippet", [
    "np.einsum('ij,jk->ik', a, b)",
    "np.einsum('ij,jk->ik', a, b, optimize=False)",
    "c = a * b",
])
def test_blas_guard_passes_plain_arithmetic(snippet):
    assert blas_uses(ast.parse(snippet)) == []


def test_bkt_makes_no_blas_call():
    found = [
        f"{path.name}:{line}: {what}"
        for path in sorted((SRC / "bkt").glob("*.py"))
        for line, what in blas_uses(ast.parse(path.read_text(), str(path)))
    ]
    assert not found, (
        "bkt now calls BLAS, so the BLAS cap in cli.py (one OpenBLAS thread) "
        "must be revisited: " + "; ".join(found)
    )
