"""Command-line front end.

Generators and perturb print a bare matrix JSON document so commands can be
piped into each other; every other command prints a report envelope
{"command", "inputs", "result", "warnings"} where inputs maps each file (or
"stdin") to its sha256.  Exit status: 0 success / yes / found, 1 no /
not-found, 2 error (a JSON object {"error": {"kind", "message"}}).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import re
import sys
from json import detect_encoding
from pathlib import Path

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

from .errors import BktError, ParameterError
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


def _load(path: str, taken: set, inputs: dict) -> tuple[object, str]:
    """The JSON document at path ("-" for stdin) and its name, once its
    sha256 is recorded in inputs under that name."""
    import hashlib

    if path == "-":
        if "stdin" in taken:
            raise ParameterError("only one input may come from stdin")
        taken.add("stdin")
        raw = sys.stdin.buffer.read()
        name = "stdin"
    else:
        raw = Path(path).read_bytes()
        name = path
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


def _load_draw(path: str, taken: set, inputs: dict, warnings: list):
    from .draws import canonicalize, draw_from_json_dict

    obj, name = _load(path, taken, inputs)
    d = draw_from_json_dict(obj)
    if not d.is_canonical:
        warnings.append(f"draw from {name} was not canonical; using its canonical form")
        d = canonicalize(d)
    return d


_SCALARS = {str, int, float, bool, type(None)}


def _key(k) -> str:
    # the encoder's own rules for keys (str, int, float, bool or None), quoted
    return json.dumps({k: 0})[1:-4]


def _dumps(obj, depth: int = 0) -> str:
    """The text of json.dumps(obj, indent=2), through the C encoder.

    With an indent the json module encodes one value per Python call.  A
    container whose members are all plain scalars is encoded here in one
    compact call whose item separator carries the indentation; only its
    brackets are re-indented.  A list of same-keyed rows of scalars is
    encoded one column at a time (_table_rows).  Deeper containers are
    walked.
    """
    is_dict = isinstance(obj, dict)
    if not is_dict and not isinstance(obj, (list, tuple)):
        return json.dumps(obj)
    brackets = "{}" if is_dict else "[]"
    if not obj:
        return brackets
    inner = "\n" + "  " * (depth + 1)
    outer = "\n" + "  " * depth
    if set(map(type, obj.values() if is_dict else obj)) <= _SCALARS:
        body = json.dumps(obj, separators=("," + inner, ": "))[1:-1]
    elif is_dict:
        body = ("," + inner).join(f"{_key(k)}: {_dumps(v, depth + 1)}" for k, v in obj.items())
    else:
        rows = _table_rows(obj, depth + 1)
        if rows is None:
            rows = (_dumps(v, depth + 1) for v in obj)
        body = ("," + inner).join(rows)
    return brackets[0] + inner + body + outer + brackets[1]


def _table_rows(obj, depth: int):
    """The text of each row, at depth, if obj holds two or more non-empty
    dicts with the same keys in the same order and only scalar values;
    else None.

    Each column is encoded in one call, split on its "\n" separators as
    in _matrix_lines, and each row is joined by one template.
    """
    if len(obj) < 2 or set(map(type, obj)) != {dict} or len(set(map(tuple, obj))) > 1:
        return None
    keys = tuple(obj[0])
    if not keys:
        return None
    # equal keys may still print apart (1, 1.0 and True; 0.0 and -0.0)
    if not all(type(k) is str for k in keys) and len({tuple(map(_key, r)) for r in obj}) > 1:
        return None
    columns = list(zip(*map(dict.values, obj)))
    if not set(map(type, itertools.chain.from_iterable(columns))) <= _SCALARS:
        return None
    words = [json.dumps(c, separators=("\n", ""))[1:-1].split("\n") for c in columns]
    inner = "\n" + "  " * (depth + 1)
    template = "{" + inner + ("," + inner).join(
        _key(k).replace("%", "%%") + ": %s" for k in keys) + "\n" + "  " * depth + "}"
    return map(template.__mod__, zip(*words))


_CHUNK_CELLS = 1 << 16  # matrix cells joined into one write
# A table of more distinct entries than this, and of at least
# _ORJSON_MIN_CELLS cells, is written by orjson.  Below that size orjson's
# import costs more than it saves: on an interior table, in a fresh process,
# the words took 5.0 ms and orjson with its import 8.5 ms at 64 players,
# and 33 ms against 12 ms at 128 players.
_FEW_ENTRIES = 64
_ORJSON_MIN_CELLS = 128 * 128
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
    if len(keys) > _FEW_ENTRIES and bits.size >= _ORJSON_MIN_CELLS:
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
    if ((m.probs > 0.0) & (m.probs < 1e-4)).any():
        # orjson writes only these entries apart from json: 1e-05 as 0.00001
        # and 1e-06 as 1e-6.  Each pattern starts with a literal, which re
        # finds fast (0.1 s on 21 MB, where a line-anchored one takes 0.9 s).
        doc = re.sub(rb"0\.0000\d+", lambda t: repr(float(t[0])).encode(), doc)
        doc = re.sub(rb"e-(\d)(?!\d)", rb"e-0\1", doc)
    return doc.decode()


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


def _emit_report(args, inputs: dict, result: dict, warnings: list,
                 pretty_lines=None) -> None:
    if args.pretty and pretty_lines is not None:
        for line in pretty_lines:
            print(line)
        for w in warnings:
            print(f"warning: {w}")
    else:
        print(_dumps({"command": " ".join(args.invocation), "inputs": inputs,
                      "result": result, "warnings": warnings}))


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

    taken, inputs = set(), {}
    m = matrix_from_json_dict(_load(args.matrix, taken, inputs)[0])
    _print_matrix(uniform_perturbation(m, args.eps), args.pretty)
    return 0


def _cmd_winprob(args) -> int:
    from .winprob import win_probabilities

    taken, inputs, warnings = set(), {}, []
    m = matrix_from_json_dict(_load(args.matrix, taken, inputs)[0])
    d = _load_draw(args.draw, taken, inputs, warnings)
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
    taken, inputs, warnings = set(), {}, []
    m = matrix_from_json_dict(_load(args.matrix, taken, inputs)[0])
    d = _load_draw(args.draw, taken, inputs, warnings)
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

    taken, inputs, warnings = set(), {}, []
    m = matrix_from_json_dict(_load(args.matrix, taken, inputs)[0])
    d = _load_draw(args.draw, taken, inputs, warnings)
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
    from .solvers import SolveRequest, solve

    taken, inputs, warnings = set(), {}, []
    m = matrix_from_json_dict(_load(args.matrix, taken, inputs)[0])
    req = SolveRequest(
        problem=args.problem, matrix=m, player=args.player,
        q=getattr(args, "q", None), c=getattr(args, "c", None),
        s=getattr(args, "s", None),
        mode="heuristic" if args.heuristic else "auto",
    )
    res = solve(req, restarts=args.restarts, seed=args.seed)
    if not res.answer and not res.exact:
        warnings.append("heuristic search found no witness; the answer is inconclusive")
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
    taken, inputs, warnings = set(), {}, []
    m = matrix_from_json_dict(_load(args.matrix, taken, inputs)[0])
    d = _load_draw(args.draw, taken, inputs, warnings)
    if args.quantity == "wp":
        from .winprob import wp_by_outcome_enumeration

        wp = wp_by_outcome_enumeration(m, d, args.player)
        result = {"player": args.player, "wp": wp}
        lines = [f"player {args.player}: wp {wp:.6f} (outcome enumeration)"]
    else:
        if args.eps is None:
            raise ParameterError("oracle drop needs --eps")
        from .robustness import exact_worst_drop_oracle

        drop, worst = exact_worst_drop_oracle(
            m, d, args.player, args.eps, allow_large=args.allow_large
        )
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
    if args.action == "count":
        from .draws import count_draws

        c = count_draws(args.n)
        _emit_report(args, {}, {"n": args.n, "count": c}, [], [str(c)])
        return 0
    if args.limit is not None and args.limit < 0:
        raise ParameterError(f"--limit must be nonnegative, got {args.limit}")
    from .draws import enumerate_draws

    gen = enumerate_draws(args.n, allow_large=args.limit is not None or args.allow_large)
    if args.limit is not None:  # a limit past every draw lists them all
        gen = itertools.islice(gen, min(args.limit, sys.maxsize))
    listed = [list(d.leaves) for d in gen]
    result = {"n": args.n, "draws": listed}
    lines = [" ".join(map(str, leaves)) for leaves in listed]
    _emit_report(args, {}, result, [], lines)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--pretty", action="store_true",
                        help="human-readable output instead of JSON")

    p = argparse.ArgumentParser(prog="bkt",
                                description="balanced knockout tournament toolkit")
    sub = p.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("gen", help="generate a comparison matrix")
    gs = g.add_subparsers(dest="family", required=True)
    for fam in ("hard", "unbalanced", "bigsmall", "threetier"):
        fp = gs.add_parser(fam, parents=[common])
        fp.add_argument("n", type=int, help="round count of the construction")
        if fam == "bigsmall":
            fp.add_argument("--p", type=float, required=True,
                            help="big-beats-small probability, in (0.5, 1)")
        if fam == "threetier":
            fp.add_argument("--eps", type=float, required=True,
                            help="tier imbalance, in (0, 0.5)")
        fp.set_defaults(func=_cmd_gen)

    pe = sub.add_parser("perturb", parents=[common],
                        help="push 0/1 entries eps into the interior")
    pe.add_argument("--matrix", required=True)
    pe.add_argument("--eps", type=float, required=True)
    pe.set_defaults(func=_cmd_perturb)

    wp = sub.add_parser("winprob", parents=[common],
                        help="winning probability of every player under a draw")
    wp.add_argument("--matrix", required=True)
    wp.add_argument("--draw", required=True)
    wp.add_argument("--player", type=int)
    wp.set_defaults(func=_cmd_winprob)

    dr = sub.add_parser("drop", parents=[common],
                        help="sensitivity report and first-order adversarial damage")
    dr.add_argument("--matrix", required=True)
    dr.add_argument("--draw", required=True)
    dr.add_argument("--player", type=int, required=True)
    dr.add_argument("--eps", type=float)
    dr.add_argument("--witness", action="store_true",
                    help="include a realizing perturbed matrix (needs eps <= xi)")
    dr.set_defaults(func=_cmd_drop)

    cr = sub.add_parser("crucial", parents=[common],
                        help="matches whose lone flip dethrones the winner")
    cr.add_argument("--matrix", required=True)
    cr.add_argument("--draw", required=True)
    cr.add_argument("--player", type=int, required=True)
    cr.add_argument("--oracle", action="store_true",
                    help="use the quadratic replay oracle instead")
    cr.set_defaults(func=_cmd_crucial)

    so = sub.add_parser("solve", help="draw-fixing problems")
    ss = so.add_subparsers(dest="problem", required=True)
    for prob in ("tfp", "ptfp", "rtfp", "rptfp"):
        sp = ss.add_parser(prob, parents=[common])
        sp.add_argument("--matrix", required=True)
        sp.add_argument("--player", type=int, required=True)
        if prob in ("ptfp", "rptfp"):
            sp.add_argument("--q", type=float, required=True,
                            help="winning-probability threshold")
        if prob == "rtfp":
            sp.add_argument("--c", type=float, required=True, help="drop bound")
        if prob == "rptfp":
            sp.add_argument("--s", type=float, required=True, help="drop bound")
        sp.add_argument("--heuristic", action="store_true",
                        help="force the local search even on small instances")
        sp.add_argument("--restarts", type=int, default=10)
        sp.add_argument("--seed", type=int, default=0)
        sp.set_defaults(func=_cmd_solve)

    orc = sub.add_parser("oracle", help="independent brute-force cross-checks")
    os_ = orc.add_subparsers(dest="quantity", required=True)
    for qty in ("wp", "drop"):
        op = os_.add_parser(qty, parents=[common])
        op.add_argument("--matrix", required=True)
        op.add_argument("--draw", required=True)
        op.add_argument("--player", type=int, required=True)
        if qty == "drop":
            op.add_argument("--eps", type=float)
            op.add_argument("--allow-large", action="store_true")
        op.set_defaults(func=_cmd_oracle)

    dw = sub.add_parser("draws", help="canonical draw classes")
    ds = dw.add_subparsers(dest="action", required=True)
    dc = ds.add_parser("count", parents=[common])
    dc.add_argument("n", type=int)
    dc.set_defaults(func=_cmd_draws)
    dl = ds.add_parser("list", parents=[common])
    dl.add_argument("n", type=int)
    dl.add_argument("--limit", type=int)
    dl.add_argument("--allow-large", action="store_true")
    dl.set_defaults(func=_cmd_draws)

    return p


def _print_error(kind: str, message: str) -> int:
    print(json.dumps({"error": {"kind": kind, "message": message}}))
    return 2


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser().parse_args(argv)
    args.invocation = argv
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe must surface here, not at exit
        return code
    except BrokenPipeError:
        # the reader went away: send the interpreter's final flush nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    except MemoryError as e:  # numpy raises a private subclass; name the base
        return _print_error("MemoryError", str(e) or "out of memory")
    except (BktError, OverflowError, OSError) as e:
        return _print_error(type(e).__name__, str(e))


if __name__ == "__main__":
    sys.exit(main())
