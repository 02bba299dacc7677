"""Command-line front end.

Generators and perturb print a bare matrix JSON document so commands can be
piped into each other; every other command prints a report envelope
{"command", "inputs", "result", "warnings"} where inputs maps each file (or
"stdin") to its sha256.  Exit status: 0 success / yes / found, 1 no /
not-found, 2 error (a JSON object {"error": {"kind", "message"}}).
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import sys
from json import detect_encoding
from pathlib import Path

import numpy as np

from .draws import Draw, canonicalize, count_draws, draw_from_json_dict, enumerate_draws
from .errors import BktError, ParameterError
from .generators import gen_bigsmall, gen_hard, gen_threetier, gen_unbalanced, uniform_perturbation
from .matrix import ComparisonMatrix, matrix_from_json_dict
from .robustness import (
    crucial_matches,
    crucial_matches_oracle,
    drop_estimate,
    exact_worst_drop_oracle,
    sensitivity,
    worst_perturbation_witness,
)
from .solvers import SolveRequest, solve
from .winprob import _check_player, win_probabilities, wp_by_outcome_enumeration


def _load(path: str, taken: set) -> tuple[object, str, str]:
    if path == "-":
        if "stdin" in taken:
            raise ParameterError("only one input may come from stdin")
        taken.add("stdin")
        raw = sys.stdin.buffer.read()
        name = "stdin"
    else:
        raw = Path(path).read_bytes()
        name = path
    digest = hashlib.sha256(raw).hexdigest()
    try:
        # decoded as json.loads decodes bytes, but the bytes go before the
        # parse builds its objects
        text = raw.decode(detect_encoding(raw), "surrogatepass")
        del raw
        obj = json.loads(text)
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ParameterError(f"{name} is not valid JSON: {e}") from e
    return obj, name, digest


def _load_matrix(path: str, taken: set, inputs: dict) -> ComparisonMatrix:
    obj, name, digest = _load(path, taken)
    inputs[name] = digest
    return matrix_from_json_dict(obj)


def _load_draw(path: str, taken: set, inputs: dict, warnings: list) -> Draw:
    obj, name, digest = _load(path, taken)
    inputs[name] = digest
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
    brackets are re-indented.  Deeper containers are walked.
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
        body = ("," + inner).join(_dumps(v, depth + 1) for v in obj)
    return brackets[0] + inner + body + outer + brackets[1]


def _print_json(obj) -> None:
    print(_dumps(obj))


_CHUNK_CELLS = 1 << 16  # matrix cells joined into one write


def _matrix_lines(m: ComparisonMatrix):
    """The text of json.dumps(m.to_json_dict(), indent=2), in chunks of rows.

    Each distinct entry is formatted once by the encoder, keyed on its bits
    so that -0.0 keeps its own text; rows are joins of those words.  Every
    table-sized array is built before the first chunk is yielded, so running
    out of memory leaves nothing written.
    """
    size = m.size
    keys, at = np.unique(m.probs.view(np.int64), return_inverse=True)
    at = at.reshape(size, size)  # the inverse is 1-D before numpy 2.0
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
        _print_json({"command": " ".join(args.invocation), "inputs": inputs,
                     "result": result, "warnings": warnings})


def _cmd_gen(args) -> int:
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
    taken, inputs = set(), {}
    m = _load_matrix(args.matrix, taken, inputs)
    _print_matrix(uniform_perturbation(m, args.eps), args.pretty)
    return 0


def _cmd_winprob(args) -> int:
    taken, inputs, warnings = set(), {}, []
    m = _load_matrix(args.matrix, taken, inputs)
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
    taken, inputs, warnings = set(), {}, []
    m = _load_matrix(args.matrix, taken, inputs)
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
        if args.eps is None:
            raise ParameterError("--witness needs --eps")
        result["witness"] = worst_perturbation_witness(rep, m, args.eps).to_json_dict()
    _emit_report(args, inputs, result, warnings, lines)
    return 0


def _cmd_crucial(args) -> int:
    taken, inputs, warnings = set(), {}, []
    m = _load_matrix(args.matrix, taken, inputs)
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
    taken, inputs, warnings = set(), {}, []
    m = _load_matrix(args.matrix, taken, inputs)
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
    m = _load_matrix(args.matrix, taken, inputs)
    d = _load_draw(args.draw, taken, inputs, warnings)
    if args.quantity == "wp":
        wp = wp_by_outcome_enumeration(m, d, args.player)
        result = {"player": args.player, "wp": wp}
        lines = [f"player {args.player}: wp {wp:.6f} (outcome enumeration)"]
    else:
        if args.eps is None:
            raise ParameterError("oracle drop needs --eps")
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
        c = count_draws(args.n)
        _emit_report(args, {}, {"n": args.n, "count": c}, [], [str(c)])
        return 0
    if args.limit is not None and args.limit < 0:
        raise ParameterError(f"--limit must be nonnegative, got {args.limit}")
    gen = enumerate_draws(args.n, allow_large=args.limit is not None or args.allow_large)
    if args.limit is not None:
        gen = itertools.islice(gen, args.limit)
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
