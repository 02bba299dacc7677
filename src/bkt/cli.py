"""Command-line front end.

Generators and perturb print a bare matrix JSON document so commands can be
piped into each other; every other command prints a report envelope
{"command", "inputs", "result", "warnings"} where inputs maps each file (or
"stdin") to its sha256.  Exit status: 0 success / yes / found, 1 no /
not-found, 2 error, a usage error too ({"error": {"kind", "message"}}).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import re
import sys
from json import detect_encoding
from pathlib import Path
from typing import NoReturn

# bkt makes no BLAS call, yet numpy's OpenBLAS starts a thread pool on
# import whose idle threads spin and burn CPU.  Load it with one thread
# unless the user chose a count or numpy is loaded already, and leave
# os.environ as it was found.  Every submodule but errors and matrix is
# imported inside the command that runs it, so a job compiles and loads
# only what it uses.
_BLAS_THREADS = "OPENBLAS_NUM_THREADS"
_cap_blas = "numpy" not in sys.modules and _BLAS_THREADS not in os.environ
if _cap_blas:
    os.environ[_BLAS_THREADS] = "1"
try:
    import numpy as np
finally:
    if _cap_blas:
        del os.environ[_BLAS_THREADS]

from .errors import BktError, ParameterError, ScaleError, _check_memory
from .matrix import ComparisonMatrix, _check_player, matrix_from_json_dict


# Inputs of at least this many bytes are offered to orjson, which parses a
# matrix document 2-4x faster than json.loads.  With its import (4.5-6 ms)
# counted, it breaks even at about 330 KB and saves 13-20 ms at 1 MB.
_ORJSON_MIN_BYTES = 1 << 20
# orjson nests without a limit and overflows the C stack past 40 000-60 000
# objects on an 8 MB stack, so it only sees documents with at most this many
# '[' and '{' bytes: room for a matrix of 4094 players.
_ORJSON_MAX_OPENERS = 1 << 12
_NOT_OPENERS = bytes(sorted(set(range(256)) - set(b"[{")))
# Address space orjson.loads may take, per byte of input.  The least that
# let it finish was 3.6x for an indented interior matrix, 5.6x minified,
# 6.9x for a half 0/1 one, 13-14x for a 0/1 one and 23x for an array of
# one-character strings.
_ORJSON_LOAD_BYTES = 32


def _reserve(nbytes: int) -> None:
    """Raise MemoryError unless nbytes can be allocated now.

    orjson 3.8 ends the process with SIGSEGV, not MemoryError, when one of
    its own allocations fails.  So each call into it first allocates and
    frees what the call may take; untouched, that costs no resident memory.
    """
    np.empty(nbytes, np.uint8)


def _matrix_document(raw: bytes):
    """raw parsed by orjson, if it is a matrix document that json.loads
    would read to the same values; else None.

    orjson rejects everything else json.loads reads differently (NaN,
    Infinity, numbers past the float range, a BOM, UTF-16 or UTF-32 text,
    lone surrogates) but for two cases.  It reads an integer past 64 bits as
    a float, which only the declared "n" could show, since cells become
    floats anyway.  And it accepts nesting past json's recursion limit, so
    its result is kept only when the '[' and '{' bytes are exactly the
    document's own object, its matrix and the rows.
    """
    openers = len(raw.translate(None, _NOT_OPENERS))
    if openers > _ORJSON_MAX_OPENERS:
        return None
    import orjson

    try:
        _reserve(len(raw) * _ORJSON_LOAD_BYTES)
        obj = orjson.loads(raw)
    except (MemoryError, orjson.JSONDecodeError):
        return None
    rows = obj.get("matrix") if type(obj) is dict else None
    if (type(rows) is list and openers == 2 + len(rows)
            and all(type(row) is list for row in rows)
            and not isinstance(obj.get("n"), float)):
        return obj
    return None


def _load(path: str, taken: set, inputs: dict | None) -> tuple[object, str]:
    """The JSON document at path ("-" for stdin) and its name.  Its sha256 is
    recorded in inputs under that name, unless inputs is None."""
    if path == "-":
        if "stdin" in taken:
            raise ParameterError("only one input may come from stdin")
        taken.add("stdin")
        raw = sys.stdin.buffer.read()
        name = "stdin"
    else:
        raw = Path(path).read_bytes()
        name = path
    if inputs is not None:
        import hashlib

        inputs[name] = hashlib.sha256(raw).hexdigest()
    if len(raw) >= _ORJSON_MIN_BYTES:
        obj = _matrix_document(raw)
        if obj is not None:
            return obj, name
    try:
        # decoded as json.loads decodes bytes, but the bytes go before the
        # parse builds its objects
        text = raw.decode(detect_encoding(raw), "surrogatepass")
        del raw
        obj = json.loads(text)
    # ValueError covers bad bytes, bad syntax and integers past Python's
    # digit limit; RecursionError covers too deep a nesting
    except (ValueError, RecursionError) as e:
        raise ParameterError(f"{name} is not valid JSON: {e}") from e
    return obj, name


def _inputs(args):
    """(matrix, draw, inputs, warnings) of a report command: the --matrix
    document, the canonical form of the --draw one if the command has
    --draw (else None), each input's sha256 by name, and a warning for a
    draw that was not canonical."""
    taken, inputs, warnings = set(), {}, []
    m = matrix_from_json_dict(_load(args.matrix, taken, inputs)[0])
    if not hasattr(args, "draw"):
        return m, None, inputs, warnings
    from .draws import canonicalize, draw_from_json_dict

    obj, name = _load(args.draw, taken, inputs)
    d = draw_from_json_dict(obj)
    if not d.is_canonical:
        warnings.append(f"draw from {name} was not canonical; using its canonical form")
        d = canonicalize(d)
    return m, d, inputs, warnings


_CHUNK_CELLS = 1 << 16  # matrix cells joined into one write
# A document of fewer values than this is written by json, as orjson's
# import alone takes 4.3-9 ms.  At 32 players (6 529 values) a drop report
# took json 6.6 ms, and orjson about as long.  On an interior table, in a
# fresh process, the words took 5.0 ms and orjson with its import 8.5 ms at
# 64 players (4 096 cells), and 33 ms against 12 ms at 128 (16 384 cells).
_ORJSON_MIN_VALUES = 1 << 13
# A table of more distinct entries than this, and of at least
# _ORJSON_MIN_VALUES cells, is written by orjson.
_FEW_ENTRIES = 64
# Address space orjson.dumps may take, per cell.  An entry's text is at
# most 23 bytes (1.2345678901234567e-100), so with its indent, comma and
# newline a cell takes at most 31 bytes; orjson doubles its buffer as it
# grows, so the buffer may be twice what it holds.
_ORJSON_CELL_BYTES = 64


def _matrix_lines(m: ComparisonMatrix):
    """The text of json.dumps(m.to_json_dict(), indent=2), in chunks of rows.

    A large table of many entries is written whole by orjson
    (_orjson_matrix).  Otherwise each distinct entry is formatted once by
    the encoder, keyed on its bits so that -0.0 keeps its own text, and rows
    are joins of those words.  Every table-sized array is built before the
    first chunk is yielded, so running out of memory leaves nothing written.
    """
    size = m.size
    bits = m.probs.view(np.int64).ravel()
    ordered = np.sort(bits)
    keys = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    del ordered
    if len(keys) > _FEW_ENTRIES and bits.size >= _ORJSON_MIN_VALUES:
        yield _orjson_matrix(m)
        return
    at = np.searchsorted(keys, bits).reshape(size, size)
    np.fill_diagonal(at, len(keys))
    text = json.dumps(keys.view(np.float64).tolist(), separators=("\n", ""))
    words = np.empty(len(keys) + 1, dtype=object)  # np.array would probe each str
    words[:-1] = text[1:-1].split("\n")
    words[-1] = "null"
    cell, row = ",\n      ", "\n    ],\n    [\n      "
    yield f'{{\n  "n": {m.n},\n  "matrix": [\n    [\n      '
    step = max(1, _CHUNK_CELLS // size)
    for lo in range(0, size, step):
        if lo:
            yield row
        yield row.join(map(cell.join, words[at[lo:lo + step]].tolist()))
    yield "\n    ]\n  ]\n}"


def _orjson_matrix(m: ComparisonMatrix) -> str:
    """The text of json.dumps(m.to_json_dict(), indent=2), from one orjson
    call on the table with a NaN diagonal, which orjson writes as null."""
    import orjson

    arr = m.probs.copy()
    np.fill_diagonal(arr, np.nan)
    _reserve(arr.size * _ORJSON_CELL_BYTES)
    doc = orjson.dumps({"n": m.n, "matrix": arr},
                       option=orjson.OPT_INDENT_2 | orjson.OPT_SERIALIZE_NUMPY)
    # entries in [0, 1] differ only below 1e-4, found 20x faster here than in text
    if ((m.probs > 0.0) & (m.probs < 1e-4)).any():
        doc = _as_json_floats(doc)
    return doc.decode()


# orjson writes a finite float as json does but for |x| in [1e-5, 1e-4)
# (0.00001 for 1e-05), a one-digit negative exponent (1e-6 for 1e-06) and a
# positive exponent (1e16 for 1e+16).  Each pattern starts with a literal: a
# leading lookbehind made a split of 22 MB take 0.6 s, not 0.04 s.
_DECIMAL = re.compile(rb"(0\.0000\d+)")
_EXPONENT = re.compile(rb"(e-?\d+)")
# Address space orjson.dumps may take, per value of a result: a member's
# text, indent and key take at most 64 bytes, and its buffer may be twice that.
_ORJSON_VALUE_BYTES = 128


def _as_json_floats(doc: bytes) -> bytes:
    """orjson's text doc, of finite floats only, as json writes it."""
    parts = _DECIMAL.split(doc)
    # a token after a digit is inside a number such as 10.00001
    parts[1::2] = [t if p[-1:].isdigit() else repr(float(t)).encode()
                   for p, t in zip(parts[::2], parts[1::2])]
    parts = _EXPONENT.split(b"".join(parts))
    # e16 becomes e+16, and e-6 becomes e-06
    parts[1::2] = [b"e+" + t[1:] if t[1:2] != b"-" else b"e-0" + t[2:] if len(t) == 3 else t
                   for t in parts[1::2]]
    return b"".join(parts)


def _values(x) -> int:
    """The number of values in x at every depth, read from its shape: a list
    or tuple is counted from its first member, as every result's lists hold
    members of one shape (rows with the same keys, matrix rows, labels)."""
    if type(x) is dict:
        return sum(1 + _values(v) for v in x.values())
    return len(x) * (1 + _values(x[0])) if type(x) in (list, tuple) and x else 0


def _report(command: str, inputs: dict, result, warnings: list) -> str:
    """The text of json.dumps of the report envelope, indent=2.  A result is
    plain dicts, lists whose members share one shape, finite floats (each
    made from a validated matrix and an eps in (0, 1]) and the program's own
    strings.  One of _ORJSON_MIN_VALUES values or more is written by one
    orjson call unless orjson refuses it (an integer past 64 bits, a key not
    a str, a container subclass, a numpy scalar); json writes the user text
    around it."""
    doc = {"command": command, "inputs": inputs, "result": result, "warnings": warnings}
    values = _values(result)
    if values < _ORJSON_MIN_VALUES:
        return json.dumps(doc, indent=2)
    import orjson

    _reserve(values * _ORJSON_VALUE_BYTES)
    try:
        body = orjson.dumps(result, option=orjson.OPT_INDENT_2 | orjson.OPT_PASSTHROUGH_SUBCLASS)
    except orjson.JSONEncodeError:
        return json.dumps(doc, indent=2)
    body = _as_json_floats(body).replace(b"\n", b"\n  ").decode()
    head = json.dumps({"command": command, "inputs": inputs}, indent=2)[:-2]
    return f'{head},\n  "result": {body},{json.dumps({"warnings": warnings}, indent=2)[1:]}'


def _print_matrix(m: ComparisonMatrix, pretty: bool) -> None:
    if not pretty:
        sys.stdout.writelines(_matrix_lines(m))
        sys.stdout.write("\n")
        return
    print(f"{m.size} players (n={m.n})")
    width = 7
    print(" " * 5 + "".join(f"{j + 1:>{width}}" for j in range(m.size)))
    for i in range(m.size):
        cells = [
            " " * (width - 1) + "-" if i == j else f"{m.probs[i, j]:>{width}.3f}"
            for j in range(m.size)
        ]
        print(f"{i + 1:>4} " + "".join(cells))


def _emit_report(args, inputs: dict, result: dict, warnings: list, pretty_lines) -> None:
    if args.pretty:
        for line in pretty_lines:
            print(line)
        for w in warnings:
            print(f"warning: {w}")
    else:
        print(_report(" ".join(args.invocation), inputs, result, warnings))


def _cmd_gen(args) -> int:
    from .generators import gen_bigsmall, gen_hard, gen_threetier, gen_unbalanced

    if args.family == "hard":
        m = gen_hard(args.n)
    elif args.family == "unbalanced":
        m = gen_unbalanced(args.n)
    elif args.family == "bigsmall":
        m = gen_bigsmall(args.n, args.p).matrix
    else:
        m = gen_threetier(args.n, args.eps)
    _print_matrix(m, args.pretty)
    return 0


def _cmd_perturb(args) -> int:
    from .generators import uniform_perturbation

    m = matrix_from_json_dict(_load(args.matrix, set(), None)[0])
    _print_matrix(uniform_perturbation(m, args.eps), args.pretty)
    return 0


def _cmd_winprob(args) -> int:
    from .winprob import win_probabilities

    m, d, inputs, warnings = _inputs(args)
    if args.player is not None:
        _check_player(m, args.player)
    wps = win_probabilities(m, d)
    result = {"leaves": list(d.leaves), "wps": [float(x) for x in wps]}
    lines = [f"draw: {' '.join(map(str, d.leaves))}"]
    if args.player is not None:
        result["player"] = args.player
        result["wp"] = float(wps[args.player - 1])
    for i, x in enumerate(wps, start=1):
        mark = " *" if args.player == i else ""
        lines.append(f"player {i:>3}  wp {x:.6f}{mark}")
    _emit_report(args, inputs, result, warnings, lines)
    return 0


def _cmd_drop(args) -> int:
    from .robustness import drop_estimate, sensitivity, worst_perturbation_witness

    if args.witness and args.eps is None:
        raise ParameterError("--witness needs --eps")
    m, d, inputs, warnings = _inputs(args)
    rep = sensitivity(m, d, args.player)
    result = rep.to_json_dict()
    lines = [
        f"player {rep.player}: wp {rep.wp:.6f}",
        f"drop coefficient {rep.drop_coefficient:.6f} (valid for eps <= {rep.validity_bound})",
    ]
    if args.eps is not None:
        est = drop_estimate(rep, args.eps)
        result["estimate"] = est.to_json_dict()
        if est.exceeds_validity:
            warnings.append(
                f"eps {args.eps} exceeds the validity bound {rep.validity_bound}; "
                "the first-order estimate may be optimistic"
            )
        lines.append(
            f"eps {est.epsilon}: first-order drop {est.drop:.6f}, "
            f"guaranteed wp {est.guaranteed:.6f}"
        )
    if args.witness:
        result["witness"] = worst_perturbation_witness(rep, m, args.eps).to_json_dict()
    _emit_report(args, inputs, result, warnings, lines)
    return 0


def _cmd_crucial(args) -> int:
    from .robustness import crucial_matches, crucial_matches_oracle

    m, d, inputs, warnings = _inputs(args)
    fn = crucial_matches_oracle if args.oracle else crucial_matches
    rep = fn(m, d, args.player)
    lines = [f"player {rep.player}: {rep.count} crucial matches"]
    lines += [
        f"round {mt.round} node {mt.node}: {mt.first} vs {mt.second}"
        for mt in rep.crucial
    ]
    _emit_report(args, inputs, rep.to_json_dict(), warnings, lines)
    return 0


def _cmd_solve(args) -> int:
    from .solvers import DRAW_BUDGET, SolveRequest, solve

    m, _, inputs, warnings = _inputs(args)
    req = SolveRequest(
        problem=args.problem, matrix=m, player=args.player,
        q=getattr(args, "q", None), c=getattr(args, "c", None),
        s=getattr(args, "s", None),
        mode="heuristic" if args.heuristic else "auto",
    )
    res = solve(req, restarts=args.restarts, seed=args.seed)
    if not res.answer and not res.exact:
        warnings.append("heuristic search found no witness; the answer is inconclusive")
    if res.budget_spent:
        warnings.append(f"the search stopped at its budget of {DRAW_BUDGET} examined draws")
    lines = [f"answer: {res.verdict}"]
    if res.witness is not None:
        lines.append(f"witness: {' '.join(map(str, res.witness.leaves))}")
        lines.append(f"wp: {res.wp:.6f}")
        if res.drop_coefficient is not None:
            lines.append(f"drop coefficient: {res.drop_coefficient:.6f}")
    lines.append(f"draws examined: {res.draws_examined}")
    _emit_report(args, inputs, res.to_json_dict(), warnings, lines)
    return 0 if res.answer else 1


def _cmd_oracle(args) -> int:
    m, d, inputs, warnings = _inputs(args)
    if args.quantity == "wp":
        from .winprob import wp_by_outcome_enumeration

        wp = wp_by_outcome_enumeration(m, d, args.player)
        result = {"player": args.player, "wp": wp}
        lines = [f"player {args.player}: wp {wp:.6f} (outcome enumeration)"]
    else:
        from .robustness import exact_worst_drop_oracle

        drop, worst = exact_worst_drop_oracle(m, d, args.player, args.eps)
        result = {
            "player": args.player,
            "epsilon": args.eps,
            "drop": drop,
            "worst_matrix": worst.to_json_dict(),
        }
        lines = [f"player {args.player}: exact worst drop {drop:.6f} at eps {args.eps}"]
    _emit_report(args, inputs, result, warnings, lines)
    return 0


def _cmd_draws(args) -> int:
    from .draws import count_draws, enumerate_draws

    if args.action == "count":
        c = count_draws(args.n)
        _emit_report(args, {}, {"n": args.n, "count": c}, [], [str(c)])
        return 0
    if args.limit is not None:
        if args.limit < 0:
            raise ParameterError(f"--limit must be nonnegative, got {args.limit}")
        # a limit past every draw lists them all; each row is a list of N
        # labels, N + 1 <= 2**(n + 1) values, counted as the writer counts them
        rows = min(args.limit, count_draws(args.n)) if args.n <= 5 else args.limit
        _check_memory((rows * _ORJSON_VALUE_BYTES - 1).bit_length() + args.n + 1,
                      f"listing {rows} draws of 2**{args.n} players")
    try:
        gen = enumerate_draws(args.n, allow_large=args.limit is not None)
    except ScaleError as e:  # name the flag the command line has
        raise ScaleError(str(e).replace("allow_large=True", "--limit")) from None
    if args.limit is not None:
        gen = itertools.islice(gen, min(args.limit, sys.maxsize))
    listed = [list(d.leaves) for d in gen]
    result = {"n": args.n, "draws": listed}
    lines = (" ".join(map(str, leaves)) for leaves in listed)
    _emit_report(args, {}, result, [], lines)
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise ParameterError, once
    argparse's usage and error lines are on stderr, in place of its exit.

    A parser given fill is empty until it first parses: fill(parser) then
    adds its arguments.  argparse parses with a command's parser only once
    it has chosen that command, so a job builds its own command's arguments
    and none of the others'.
    """

    def __init__(self, *args, fill=None, **kwargs):
        super().__init__(*args, **kwargs)
        self._fill = fill

    def parse_known_args(self, args=None, namespace=None):
        if self._fill is not None:
            fill, self._fill = self._fill, None
            fill(self)
        return super().parse_known_args(args, namespace)

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise ParameterError(message)


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="bkt", description="balanced knockout tournament toolkit")
    sub = p.add_subparsers(dest="cmd", required=True)
    sub.add_parser("gen", help="generate a comparison matrix",
                   fill=_choices("family", _family_args,
                                 "hard", "unbalanced", "bigsmall", "threetier"))
    sub.add_parser("perturb", fill=_perturb_args,
                   help="push 0/1 entries eps into the interior")
    sub.add_parser("winprob", fill=_winprob_args,
                   help="winning probability of every player under a draw")
    sub.add_parser("drop", fill=_drop_args,
                   help="sensitivity report and first-order adversarial damage")
    sub.add_parser("crucial", fill=_crucial_args,
                   help="matches whose lone flip dethrones the winner")
    sub.add_parser("solve", help="draw-fixing problems",
                   fill=_choices("problem", _problem_args, "tfp", "ptfp", "rtfp", "rptfp"))
    sub.add_parser("oracle", help="independent brute-force cross-checks",
                   fill=_choices("quantity", _quantity_args, "wp", "drop"))
    sub.add_parser("draws", help="canonical draw classes",
                   fill=_choices("action", _action_args, "count", "list"))
    return p


def _choices(dest: str, fill, *names):
    """The fill of a parser whose required subcommand, stored in dest, is one
    of names; fill(parser, name) adds the arguments of each."""
    def add(parser) -> None:
        sub = parser.add_subparsers(dest=dest, required=True)
        for name in names:
            sub.add_parser(name, fill=functools.partial(fill, name=name))
    return add


def _pretty_arg(p) -> None:
    p.add_argument("--pretty", action="store_true",
                   help="human-readable output instead of JSON")


def _scored_args(p) -> None:
    """The arguments of a command that scores one player in one draw."""
    _pretty_arg(p)
    p.add_argument("--matrix", required=True)
    p.add_argument("--draw", required=True)
    p.add_argument("--player", type=int, required=True)


def _family_args(fp, name: str) -> None:
    _pretty_arg(fp)
    fp.add_argument("n", type=int, help="round count of the construction")
    if name == "bigsmall":
        fp.add_argument("--p", type=float, required=True,
                        help="big-beats-small probability, in (0.5, 1)")
    if name == "threetier":
        fp.add_argument("--eps", type=float, required=True,
                        help="tier imbalance, in (0, 0.5)")
    fp.set_defaults(func=_cmd_gen)


def _perturb_args(pe) -> None:
    _pretty_arg(pe)
    pe.add_argument("--matrix", required=True)
    pe.add_argument("--eps", type=float, required=True)
    pe.set_defaults(func=_cmd_perturb)


def _winprob_args(wp) -> None:
    _pretty_arg(wp)
    wp.add_argument("--matrix", required=True)
    wp.add_argument("--draw", required=True)
    wp.add_argument("--player", type=int)
    wp.set_defaults(func=_cmd_winprob)


def _drop_args(dr) -> None:
    _scored_args(dr)
    dr.add_argument("--eps", type=float)
    dr.add_argument("--witness", action="store_true",
                    help="include a realizing perturbed matrix (needs eps <= xi)")
    dr.set_defaults(func=_cmd_drop)


def _crucial_args(cr) -> None:
    _scored_args(cr)
    cr.add_argument("--oracle", action="store_true",
                    help="use the quadratic replay oracle instead")
    cr.set_defaults(func=_cmd_crucial)


def _problem_args(sp, name: str) -> None:
    _pretty_arg(sp)
    sp.add_argument("--matrix", required=True)
    sp.add_argument("--player", type=int, required=True)
    if name in ("ptfp", "rptfp"):
        sp.add_argument("--q", type=float, required=True,
                        help="winning-probability threshold")
    if name == "rtfp":
        sp.add_argument("--c", type=float, required=True, help="drop bound")
    if name == "rptfp":
        sp.add_argument("--s", type=float, required=True, help="drop bound")
    sp.add_argument("--heuristic", action="store_true",
                    help="force the local search even on small instances")
    sp.add_argument("--restarts", type=int, default=10)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=_cmd_solve)


def _quantity_args(op, name: str) -> None:
    _scored_args(op)
    if name == "drop":
        op.add_argument("--eps", type=float, required=True)
    op.set_defaults(func=_cmd_oracle)


def _action_args(dp, name: str) -> None:
    _pretty_arg(dp)
    dp.add_argument("n", type=int)
    if name == "list":
        dp.add_argument("--limit", type=int)
    dp.set_defaults(func=_cmd_draws)


def _print_error(kind: str, message: str) -> int:
    print(json.dumps({"error": {"kind": kind, "message": message}}))
    return 2


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _build_parser().parse_args(argv)
        args.invocation = argv
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe must surface here, not at exit
        return code
    except BrokenPipeError:
        # the reader went away: send what stdout still buffers nowhere, so
        # that run's flush, or the interpreter's at exit, cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    except MemoryError as e:  # numpy raises a private subclass; name the base
        return _print_error("MemoryError", str(e) or "out of memory")
    except (BktError, OverflowError, OSError) as e:
        return _print_error(type(e).__name__, str(e))


def run() -> NoReturn:
    """The process entry: main on the process's arguments, then, once stdout
    and stderr are flushed, the end of the process with main's code.

    It skips the interpreter's teardown of every loaded module, which writes
    no output and took 14-16 ms a job on a 2-CPU host.  Only a normal return
    from main ends the process here: an exception that escapes main (a bug,
    or KeyboardInterrupt) gets Python's traceback and a normal shutdown.  main
    flushes stdout only on success, so an error document and argparse's usage
    lines are flushed here; a reader gone by then makes the exit code 2.
    """
    code = main()
    # a stream is None where its descriptor was closed when Python started
    for stream in filter(None, (sys.stdout, sys.stderr)):
        try:
            stream.flush()
        except BrokenPipeError:
            code = 2
    os._exit(code)


if __name__ == "__main__":
    run()
