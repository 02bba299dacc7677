"""The benchmark's workloads: seeded input files, CLI job lists and checks.

Each workload builder draws its inputs from the seed, writes them as JSON
files and returns the jobs to run.  A job's check receives the parsed
stdout and exit code and raises CheckFailed unless the output has the
properties a correct answer must have; properties rather than bytes, so a
different valid witness still passes.  Every check is computed with the
benchmark's own reference code in oracle.py.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracle

TOL = 1e-9
SLOPE_SAMPLES = 16  # seeded pairs whose slope is recomputed per drop report


class CheckFailed(Exception):
    pass


@dataclass
class Job:
    kind: str  # the CLI command, e.g. "winprob" or "solve ptfp"
    argv: list[str]
    check: Callable[[object, int], None]
    known_witness: bool = False  # heuristic job on an instance with a known witness


def expect(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _close(a, b, tol=TOL) -> bool:
    return bool(np.all(np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)) <= tol))


def interior(rng, size: int) -> np.ndarray:
    """Random matrix with every off-diagonal entry in [0.05, 0.95]."""
    upper = np.triu(0.05 + 0.9 * rng.random((size, size)), 1)
    p = upper + (1.0 - upper.T) * np.tri(size, k=-1)
    np.fill_diagonal(p, 0.0)
    return p


def coin(rng, size: int) -> np.ndarray:
    """Random 0/1 matrix: each pair's orientation is a fair coin."""
    upper = np.triu((rng.random((size, size)) < 0.5).astype(float), 1)
    p = upper + (1.0 - upper.T) * np.tri(size, k=-1)
    np.fill_diagonal(p, 0.0)
    return p


def matrix_doc(p: np.ndarray) -> dict:
    rows = p.tolist()
    for i, row in enumerate(rows):
        row[i] = None
    return {"n": len(p).bit_length() - 1, "matrix": rows}


def read_matrix(doc) -> np.ndarray:
    """Matrix of a {"n", "matrix"} document, checked for shape and complements."""
    expect(isinstance(doc, dict) and "matrix" in doc, "output is not a matrix document")
    p = np.array(doc["matrix"], dtype=float)
    size = len(p)
    expect(p.shape == (size, size) and doc.get("n") == size.bit_length() - 1,
           "matrix shape does not match n")
    off = ~np.eye(size, dtype=bool)
    expect(_close((p + p.T)[off], 1.0), "matrix entries are not complementary")
    np.fill_diagonal(p, 0.0)
    return p


def _write(path: Path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


def _draw(rng, size: int) -> list[int]:
    return [int(x) + 1 for x in rng.permutation(size)]


def _envelope(doc, code: int, ok_codes=(0,)) -> dict:
    expect(code in ok_codes, f"exit code {code}")
    expect(isinstance(doc, dict) and "result" in doc and "inputs" in doc,
           "output is not a report envelope")
    return doc["result"]


# -------------------------------------------------------------------- ingest

def _check_winprob(p, draw, player):
    want = oracle.win_probabilities(p, draw)[0]

    def check(doc, code):
        res = _envelope(doc, code)
        expect(oracle.bracket(res["leaves"]) == oracle.bracket(draw),
               "reported leaves are not the input's bracket")
        expect(_close(res["wps"], want), "wps differ from the reach recursion")
        expect(res["player"] == player and _close(res["wp"], want[player - 1]),
               "player's wp is wrong")
    return check


def _check_crucial(p, draw, player):
    want = oracle.crucial_set(p, draw)
    below = oracle.rounds(p, draw)

    def check(doc, code):
        res = _envelope(doc, code)
        got = {(m["round"], m["node"]) for m in res["crucial"]}
        expect(res["player"] == player and res["count"] == len(res["crucial"]),
               "crucial report header is wrong")
        expect(got == want, f"crucial set differs from flip replay ({len(got)} vs {len(want)})")
        for m in res["crucial"]:
            pair = below[m["round"] - 1][2 * m["node"]:2 * m["node"] + 2] + 1
            expect([m["first"], m["second"]] == pair.tolist(), "crucial match players are wrong")
    return check


def ingest(rng, root: Path) -> list[Job]:
    """Large inputs, small outputs: reading and validating a 1024-player
    matrix outweighs the compute."""
    size = 1024
    p = interior(rng, size)
    draw = _draw(rng, size)
    player = int(rng.integers(1, size + 1))
    m = _write(root / "interior1024.json", matrix_doc(p))
    d = _write(root / "draw1024.json", {"leaves": draw})

    sigma = _draw(rng, size)
    hard = oracle.relabel(oracle.hard(10), sigma)
    hard_draw = oracle.canonical(sigma)
    hm = _write(root / "hard1024.json", matrix_doc(hard))
    hd = _write(root / "harddraw1024.json", {"leaves": list(hard_draw)})

    c = coin(rng, size)
    coin_draw = oracle.canonical(_draw(rng, size))
    cm = _write(root / "coin1024.json", matrix_doc(c))
    cd = _write(root / "coindraw1024.json", {"leaves": list(coin_draw)})
    coin_winner = oracle.winner(c, coin_draw)
    return [
        Job("winprob", ["winprob", "--matrix", m, "--draw", d, "--player", str(player)],
            _check_winprob(p, draw, player)),
        Job("crucial", ["crucial", "--matrix", hm, "--draw", hd, "--player", str(sigma[0])],
            _check_crucial(hard, hard_draw, sigma[0])),
        Job("crucial", ["crucial", "--matrix", cm, "--draw", cd, "--player", str(coin_winner)],
            _check_crucial(c, coin_draw, coin_winner)),
    ]


# ---------------------------------------------------------------------- emit

def _check_matrix(want):
    def check(doc, code):
        expect(code == 0, f"exit code {code}")
        expect(np.array_equal(read_matrix(doc), want), "matrix differs from its definition")
    return check


def emit(rng, root: Path) -> list[Job]:
    """The write side of the same layers: building and printing
    1024-player matrices."""
    size = 1024
    hard = oracle.hard(10)

    prob = round(float(rng.uniform(0.55, 0.95)), 4)
    half = size // 2
    bigsmall = np.full((size, size), 0.5)
    bigsmall[half:, :half] = prob
    bigsmall[:half, half:] = 1.0 - prob
    np.fill_diagonal(bigsmall, 0.0)

    # half the pairs deterministic, half interior, so perturb both moves
    # and keeps entries
    mixed = coin(rng, size)
    soft = interior(rng, size)
    keep = np.triu(rng.random((size, size)) < 0.5, 1)
    keep = keep | keep.T
    mixed[keep] = soft[keep]
    eps = round(float(rng.uniform(0.01, 0.04)), 4)
    perturbed = mixed.copy()
    off = ~np.eye(size, dtype=bool)
    perturbed[off & (mixed == 0.0)] = eps
    perturbed[off & (mixed == 1.0)] = 1.0 - eps
    mm = _write(root / "mixed1024.json", matrix_doc(mixed))
    return [
        Job("gen", ["gen", "hard", "10"], _check_matrix(hard)),
        Job("gen", ["gen", "bigsmall", "10", "--p", repr(prob)], _check_matrix(bigsmall)),
        Job("perturb", ["perturb", "--matrix", mm, "--eps", repr(eps)],
            _check_matrix(perturbed)),
    ]


# -------------------------------------------------------------------- robust

def _check_drop(p, draw, player, eps, sample_rng):
    size = len(p)
    pairs = list(itertools.combinations(range(1, size + 1), 2))
    picks = [pairs[k] for k in sample_rng.choice(len(pairs), SLOPE_SAMPLES, replace=False)]
    alphas, betas = oracle.pair_slopes(p, draw, player, picks)
    base = oracle.wp(p, draw, player)

    def check(doc, code):
        res = _envelope(doc, code)
        expect(res["player"] == player and _close(res["wp"], base), "wp differs")
        rows = res["alphas"]
        expect([(r["i"], r["j"]) for r in rows] == pairs, "pairs are not all listed in order")
        by_pair = {(r["i"], r["j"]): r for r in rows}
        for (i, j), a, b in zip(picks, alphas, betas):
            r = by_pair[(i, j)]
            expect(_close([r["alpha"], r["beta"]], [a, b]), f"slope of pair {i},{j} differs")
        total = 0.0
        for r in rows:
            expect(r["p"] == p[r["i"] - 1, r["j"] - 1], "pair entry is wrong")
            expect(_close(r["contribution"], oracle.clipped(r["alpha"], r["p"]), 1e-15),
                   "contribution is not the clipped slope")
            total += r["contribution"]
        s = res["drop_coefficient"]
        expect(abs(s - total) <= TOL * max(1.0, total), "drop coefficient is not the sum")
        est = res["estimate"]
        floor = min(1.0, max(0.0, base - s * eps))
        expect(_close([est["drop"], est["guaranteed"]], [s * eps, floor]),
               "first-order estimate is wrong")
        w = res["witness"]
        moved = read_matrix(w["matrix"])
        off = ~np.eye(size, dtype=bool)
        expect(np.all(np.abs(moved - p)[off] <= eps + 1e-12), "witness leaves the eps box")
        for row in w["directions"]:
            i, j, way = row["i"], row["j"], row["direction"]
            a = by_pair[(i, j)]["alpha"]
            step = moved[i - 1, j - 1] - p[i - 1, j - 1]
            ok = {"decrease": a > 0 and step < 0, "increase": a < 0 and step > 0,
                  "hold": step == 0}.get(way, False)
            expect(ok, f"witness moves pair {i},{j} the wrong way")
        expect(len(w["directions"]) == len(pairs), "witness does not move every pair")
        expect(oracle.wp(moved, draw, player) <= base + TOL, "witness does not lower wp")
    return check


def _check_oracle_drop(p, draw, player, eps):
    base = oracle.wp(p, draw, player)
    lowest = oracle.corner_minimum(p, draw, player, eps)

    def check(doc, code):
        res = _envelope(doc, code)
        worst = read_matrix(res["worst_matrix"])
        off = ~np.eye(len(p), dtype=bool)
        expect(np.all(np.abs(worst - p)[off] <= eps + 1e-12), "worst matrix leaves the eps box")
        expect(np.all((worst >= 0.0) & (worst <= 1.0)), "worst matrix leaves [0, 1]")
        at = oracle.wp(worst, draw, player)
        expect(_close(base - at, res["drop"]), "drop does not match its worst matrix")
        expect(_close(at, lowest), "worst matrix is not the lowest corner")
    return check


def robust(rng, root: Path) -> list[Job]:
    """Sensitivity reports, whose all-pairs slopes cost O(N^4) today, and the
    many-matrices-one-draw corner oracle."""
    jobs = []
    for size in (64, 128):
        p = interior(rng, size)
        draw = _draw(rng, size)
        player = int(rng.integers(1, size + 1))
        eps = round(float(rng.uniform(0.005, 0.03)), 4)
        m = _write(root / f"interior{size}.json", matrix_doc(p))
        d = _write(root / f"draw{size}.json", {"leaves": draw})
        check = _check_drop(p, draw, player, eps, np.random.default_rng(rng.integers(2**32)))
        jobs.append(Job("drop", ["drop", "--matrix", m, "--draw", d, "--player", str(player),
                                 "--eps", repr(eps), "--witness"], check))
    p = interior(rng, 4)
    draw = _draw(rng, 4)
    player = int(rng.integers(1, 5))
    eps = round(float(rng.uniform(0.01, 0.05)), 4)
    m = _write(root / "interior4.json", matrix_doc(p))
    d = _write(root / "draw4.json", {"leaves": draw})
    jobs.append(Job("oracle drop", ["oracle", "drop", "--matrix", m, "--draw", d,
                                    "--player", str(player), "--eps", repr(eps)],
                    _check_oracle_drop(p, draw, player, eps)))
    return jobs


# -------------------------------------------------------------------- search

_classes: dict[int, np.ndarray] = {}


def classes(size: int) -> np.ndarray:
    """Every bracket class, by brute force over permutations (cached)."""
    if size not in _classes:
        _classes[size] = np.array(oracle.classes_by_permutation(size))
    return _classes[size]


def _check_solve(p, player, problem, q=None, bound=None, exact=False):
    """Checks a solve verdict: witnesses are re-verified, exact "no" answers
    are confirmed over every class, heuristic negatives must stay
    "not-found"."""
    deterministic = problem in ("tfp", "rtfp")

    def meets(draw) -> bool:
        if deterministic:
            ok = oracle.winner(p, draw) == player
        else:
            ok = oracle.wp(p, draw, player) >= q - TOL
        return ok and (bound is None or oracle.drop_coefficient(p, draw, player) <= bound + TOL)

    def check(doc, code):
        res = _envelope(doc, code, (0, 1))
        answer = res["answer"]
        expect(res["exact"] is exact, "wrong search mode")
        expect(answer in (("yes", "no") if exact else ("found", "not-found")),
               f"answer {answer!r} is not allowed in this mode")
        expect(code == (0 if answer in ("yes", "found") else 1), "exit code does not match answer")
        expect(isinstance(res["draws_examined"], int) and res["draws_examined"] >= 1,
               "draws_examined is not a positive count")
        if answer in ("yes", "found"):
            expect(meets(res["witness"]), "witness does not meet the request")
        elif answer == "no":
            all_draws = classes(len(p))
            expect(res["draws_examined"] == len(all_draws), "exact no did not scan every class")
            if deterministic:
                candidates = all_draws
            else:
                wps = oracle.win_probabilities(p, all_draws)[:, player - 1]
                candidates = all_draws[wps >= q - TOL]
            expect(not any(meets(d) for d in candidates), "a draw meets the request")
    return check


def _hard_relabelled(rng, n: int) -> tuple[np.ndarray, int]:
    """gen_hard(n) under a random relabelling in which the identity draw
    does not crown the target player (who still wins exactly one class)."""
    size = 1 << n
    while True:
        sigma = _draw(rng, size)
        p = oracle.relabel(oracle.hard(n), sigma)
        if oracle.winner(p, range(1, size + 1)) != sigma[0]:
            return p, sigma[0]


def search(rng, root: Path) -> list[Job]:
    """Many small evaluations inside the draw searches, where per-call
    overhead rather than input size sets the cost."""
    jobs = []

    def solve(kind, p, player, extra, name, check, known=False):
        m = _write(root / name, matrix_doc(p))
        argv = ["solve", kind, "--matrix", m, "--player", str(player), *extra]
        jobs.append(Job(f"solve {kind} n{len(p)}", argv, check, known))

    p8 = interior(rng, 8)
    k8 = int(rng.integers(1, 9))
    # interior entries are at most 0.95, so wp <= 0.95**3 < 0.9: "no"
    solve("ptfp", p8, k8, ["--q", "0.9"], "p8.json", _check_solve(p8, k8, "ptfp", 0.9, exact=True))
    # q = 0 keeps every draw, s = 0 rejects each after its sensitivity: 315 of them
    solve("rptfp", p8, k8, ["--q", "0", "--s", "0"], "p8.json",
          _check_solve(p8, k8, "rptfp", 0.0, 0.0, exact=True))
    reachable = oracle.wp(p8, _draw(rng, 8), k8) - 1e-6
    solve("ptfp", p8, k8, ["--q", repr(reachable)], "p8.json",
          _check_solve(p8, k8, "ptfp", reachable, exact=True))
    h8, k = _hard_relabelled(rng, 3)
    solve("tfp", h8, k, [], "hard8.json", _check_solve(h8, k, "tfp", exact=True))
    # every match of the one winning draw is crucial: its drop coefficient is 7
    solve("rtfp", h8, k, ["--c", "7"], "hard8.json",
          _check_solve(h8, k, "rtfp", bound=7.0, exact=True))

    p16 = interior(rng, 16)
    k16 = int(rng.integers(1, 17))
    solve("ptfp", p16, k16, ["--q", "0.99"], "p16.json", _check_solve(p16, k16, "ptfp", 0.99))
    h16, k = _hard_relabelled(rng, 4)
    solve("tfp", h16, k, [], "hard16.json", _check_solve(h16, k, "tfp"), known=True)
    # the identity start is the known witness: the search's own path (and
    # so its cost) then does not depend on the seed
    target = list(range(1, 17))
    q = oracle.wp(p16, target, k16) - 1e-6
    s = oracle.drop_coefficient(p16, target, k16) + 1e-6
    solve("rptfp", p16, k16, ["--q", repr(q), "--s", repr(s)], "p16.json",
          _check_solve(p16, k16, "rptfp", q, s), known=True)

    p32 = interior(rng, 32)
    k32 = int(rng.integers(1, 33))
    solve("ptfp", p32, k32, ["--q", "0.99", "--restarts", "2"], "p32.json",
          _check_solve(p32, k32, "ptfp", 0.99))
    return jobs


WORKLOADS = {"ingest": ingest, "emit": emit, "robust": robust, "search": search}


def build(name: str, seed: int, root: Path) -> list[Job]:
    """Write the workload's inputs for this seed under root; return its jobs."""
    root.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](np.random.default_rng(seed), root)
