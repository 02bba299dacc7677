import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from bkt import (
    Draw,
    NoWinningDraw,
    NotDeterministic,
    ParameterError,
    ScaleError,
    SolveRequest,
    best_draw,
    canonicalize,
    enumerate_delta_optimal,
    enumerate_draws,
    gen_bigsmall,
    gen_hard,
    gen_threetier,
    gen_unbalanced,
    most_robust_winning_draw,
    sensitivity,
    solve,
    validate_matrix,
    win_probabilities,
    winner,
)
from bkt import errors, solvers, winprob
from bkt.draws import _canon_rows
from bkt.solvers import _row_keys, _scores, _swaps, _verify_witness
from bkt.winprob import _player_reach, _slopes
from helpers import (
    _reference_neighbors,
    random_deterministic,
    random_matrix,
    reference_best_draw,
    reference_delta_optimal,
    reference_solve_exact,
    reference_solve_heuristic,
)


def all_even(size):
    return validate_matrix(np.full((size, size), 0.5) - 0.5 * np.eye(size))


# ---------------------------------------------------------- request validation


def test_request_rejects_unknown_problem():
    with pytest.raises(ParameterError):
        SolveRequest("XXX", gen_hard(2), 1)


def test_request_rejects_bad_player():
    with pytest.raises(ParameterError):
        SolveRequest("TFP", gen_hard(2), 0)
    with pytest.raises(ParameterError):
        SolveRequest("TFP", gen_hard(2), 5)
    with pytest.raises(ParameterError):
        SolveRequest("TFP", gen_hard(2), True)


def test_request_problem_is_case_insensitive():
    req = SolveRequest("tfp", gen_hard(2), 1)
    assert req.problem == "TFP"


def test_fixture_problems_need_deterministic_matrices():
    with pytest.raises(NotDeterministic):
        SolveRequest("TFP", all_even(4), 1)
    with pytest.raises(NotDeterministic):
        SolveRequest("RTFP", all_even(4), 1, c=2.0)


def test_probabilistic_problems_need_q():
    with pytest.raises(ParameterError):
        SolveRequest("PTFP", all_even(4), 1)
    with pytest.raises(ParameterError):
        SolveRequest("PTFP", all_even(4), 1, q=1.5)
    with pytest.raises(ParameterError):
        SolveRequest("RPTFP", all_even(4), 1, q=0.5)  # missing s


def test_robust_problems_need_nonnegative_bounds():
    with pytest.raises(ParameterError):
        SolveRequest("RTFP", gen_hard(2), 1)
    with pytest.raises(ParameterError):
        SolveRequest("RTFP", gen_hard(2), 1, c=-1.0)
    with pytest.raises(ParameterError):
        SolveRequest("RPTFP", all_even(4), 1, q=0.5, s=-0.5)
    # NaN fails every drop comparison and would turn into a proven "no"
    with pytest.raises(ParameterError):
        SolveRequest("RTFP", gen_hard(2), 1, c=float("nan"))
    with pytest.raises(ParameterError):
        SolveRequest("RPTFP", all_even(4), 1, q=0.5, s=float("nan"))


@pytest.mark.parametrize("problem, field, m, given", [
    ("PTFP", "q", all_even(4), {}),
    ("RPTFP", "q", all_even(4), {"s": 1.0}),
    ("RTFP", "c", gen_hard(2), {}),
    ("RPTFP", "s", all_even(4), {"q": 0.5}),
])
def test_thresholds_and_bounds_follow_one_real_number_rule(problem, field, m, given):
    message = {"q": f"{problem} needs a threshold q in [0, 1]",
               "c": "RTFP needs a nonnegative drop bound c",
               "s": "RPTFP needs a nonnegative drop bound s"}[field]
    for bad in ("0.5", "1", True, False, None, [0.5], np.bool_(True), float("nan")):
        with pytest.raises(ParameterError) as err:
            SolveRequest(problem, m, 1, **given, **{field: bad})
        assert str(err.value) == message, bad
    for good, want in ((np.float64(0.25), 0.25), (np.int64(1), 1.0), (0, 0.0)):
        got = getattr(SolveRequest(problem, m, 1, **given, **{field: good}), field)
        assert type(got) is float and got == want


@pytest.mark.parametrize("problem, m, given, extra", [
    ("TFP", gen_hard(2), {}, {"c": 1.0}),
    ("TFP", gen_hard(2), {}, {"q": 1.0}),
    ("RTFP", gen_hard(2), {"c": 1.0}, {"s": 1.0}),
    ("PTFP", all_even(4), {"q": 0.2}, {"s": 0.0}),
    ("PTFP", all_even(4), {"q": 0.2}, {"c": 0.0}),
    ("RPTFP", all_even(4), {"q": 0.2, "s": 0.0}, {"c": 0.0}),
])
def test_request_refuses_a_bound_its_problem_does_not_take(problem, m, given, extra):
    # a dropped bound answers another question: PTFP with q = 0.2 is yes on
    # all_even(4), RPTFP with q = 0.2 and s = 0 is no
    SolveRequest(problem, m, 1, **given)
    ((bound, value),) = extra.items()
    with pytest.raises(ParameterError) as err:
        SolveRequest(problem, m, 1, **given, **extra)
    assert str(err.value) == f"{problem} takes no bound {bound}, got {bound}={value!r}"


def test_request_rejects_unknown_mode():
    with pytest.raises(ParameterError):
        SolveRequest("TFP", gen_hard(2), 1, mode="quantum")


# ------------------------------------------------------------------ exact TFP


def test_tfp_hard_family_favors_player_one():
    for n in (1, 2, 3):
        res = solve(SolveRequest("TFP", gen_hard(n), 1))
        assert res.verdict == "yes"
        assert res.exact
        assert res.wp == 1.0
        assert res.witness.leaves == tuple(range(1, (1 << n) + 1))
        # the winning draw is lexicographically first, found immediately
        assert res.draws_examined == 1


def test_tfp_no_answer_scans_everything():
    res = solve(SolveRequest("TFP", gen_hard(2), 2))
    assert res.verdict == "no"
    assert res.witness is None
    assert res.draws_examined == 3
    res = solve(SolveRequest("TFP", gen_hard(3), 2))
    assert res.verdict == "no"
    assert res.draws_examined == 315


def test_tfp_witness_is_replayable():
    res = solve(SolveRequest("TFP", gen_unbalanced(3), 1))
    assert res.verdict == "yes"
    assert winner(gen_unbalanced(3), res.witness) == 1


# ----------------------------------------------------------------- exact PTFP


def test_ptfp_threshold_cases():
    m = all_even(4)
    yes = solve(SolveRequest("PTFP", m, 1, q=0.25))
    assert yes.verdict == "yes"
    assert yes.witness.leaves == (1, 2, 3, 4)
    assert yes.wp == pytest.approx(0.25)
    no = solve(SolveRequest("PTFP", m, 1, q=0.3))
    assert no.verdict == "no"


def test_ptfp_accepts_probabilistic_verdicts():
    rng = np.random.default_rng(2)
    m = random_matrix(rng, 8)
    ident = tuple(range(1, 9))
    base = float(win_probabilities(m, ident)[0])
    res = solve(SolveRequest("PTFP", m, 1, q=base))
    assert res.verdict == "yes"
    assert res.wp >= base - 1e-9


# ----------------------------------------------------------------- exact RTFP


def test_rtfp_unbalanced_frozen_cases():
    m = gen_unbalanced(3)
    res = solve(SolveRequest("RTFP", m, 1, c=3.0))
    assert res.verdict == "yes"
    assert res.witness.leaves == (1, 2, 3, 5, 4, 6, 7, 8)
    assert res.drop_coefficient == 3.0
    assert res.draws_examined == 4  # lex position of the witness

    res = solve(SolveRequest("RTFP", m, 1, c=2.0))
    assert res.verdict == "no"
    assert res.draws_examined == 315

    res = solve(SolveRequest("RTFP", m, 1, c=4.0))
    assert res.verdict == "yes"
    assert res.witness.leaves == tuple(range(1, 9))
    assert res.draws_examined == 1


def test_rtfp_witness_meets_both_conditions():
    m = gen_unbalanced(3)
    res = solve(SolveRequest("RTFP", m, 1, c=3.0))
    assert winner(m, res.witness) == 1
    assert sensitivity(m, res.witness, 1).drop_coefficient <= 3.0


def test_a_witness_that_fails_its_recheck_is_an_error():
    # player 1 wins this draw, whose drop coefficient is 3.0 (see above)
    m, d = gen_unbalanced(3), Draw((1, 2, 3, 5, 4, 6, 7, 8))
    _verify_witness(SolveRequest("RTFP", m, 1, c=3.0), d, 1.0, 3.0)
    with pytest.raises(RuntimeError, match="winning probability"):
        _verify_witness(SolveRequest("RTFP", m, 1, c=3.0), d, 0.5, 3.0)
    even = SolveRequest("PTFP", all_even(8), 1, q=0.5)  # every draw gives 0.125
    with pytest.raises(RuntimeError, match="winning probability"):
        _verify_witness(even, Draw(tuple(range(1, 9))), 0.125, None)
    with pytest.raises(RuntimeError, match="drop coefficient"):
        _verify_witness(SolveRequest("RTFP", m, 1, c=2.5), d, 1.0, 2.5)


# ---------------------------------------------------------------- exact RPTFP


def test_rptfp_threetier_cases():
    t = gen_threetier(2, 0.02)
    res = solve(SolveRequest("RPTFP", t, 1, q=0.502, s=2.21))
    assert res.verdict == "yes"
    assert res.witness.leaves == tuple(range(1, 9))
    assert res.wp == pytest.approx(0.502)
    assert res.drop_coefficient == pytest.approx(2.204)

    assert solve(SolveRequest("RPTFP", t, 1, q=0.503, s=10.0)).verdict == "no"
    assert solve(SolveRequest("RPTFP", t, 1, q=0.5029, s=2.21)).verdict == "no"


# ------------------------------------------------------------------ heuristic


def test_heuristic_finds_hard_family_witness():
    for n in (3, 4):
        res = solve(SolveRequest("TFP", gen_hard(n), 1, mode="heuristic"),
                    restarts=3, seed=0)
        assert res.verdict == "found"
        assert not res.exact
        assert winner(gen_hard(n), res.witness) == 1


def test_heuristic_never_claims_no():
    res = solve(SolveRequest("TFP", gen_hard(4), 2, mode="heuristic"),
                restarts=3, seed=0)
    assert res.verdict == "not-found"
    assert res.witness is None
    assert not res.exact


def test_heuristic_stops_at_its_draw_budget(monkeypatch):
    # gen_hard(4)'s player 2 wins no draw, so only the budget ends the
    # search; it is checked between neighbourhoods of 155 draws each
    req = SolveRequest("TFP", gen_hard(4), 2, mode="heuristic")
    full = solve(req, restarts=10, seed=0)
    assert not full.budget_spent and full.draws_examined > 400
    monkeypatch.setattr(solvers, "DRAW_BUDGET", 400)
    res = solve(req, restarts=10, seed=0)
    assert res.verdict == "not-found" and res.budget_spent
    assert 400 <= res.draws_examined < 400 + 155
    assert res.to_json_dict().keys() == full.to_json_dict().keys()


@pytest.mark.parametrize("budget, memory, match", [
    (154, None, "more than its budget of 154"),
    (155, 1 << 14, "the 155 swaps of 16 players"),
])
def test_heuristic_refuses_a_neighbourhood_past_its_budget_or_memory(
        monkeypatch, budget, memory, match):
    # 16 players: 155 rows of 16 entries, 19 840 bytes
    monkeypatch.setattr(solvers, "DRAW_BUDGET", budget)
    monkeypatch.setattr(errors, "_physical_memory", lambda: memory)
    monkeypatch.setattr(solvers, "_swaps", None)  # refused before it is called
    with pytest.raises(ScaleError, match=match):
        solve(SolveRequest("TFP", gen_hard(4), 1, mode="heuristic"))


def test_neighbourhood_size_counts_the_swaps():
    assert [solvers._neighbourhood_size(1 << n) for n in range(1, 6)] == \
        [len(_swaps(1 << n)) for n in range(1, 6)]
    assert [solvers._neighbourhood_size(1 << n) for n in range(7, 11)] == \
        [10_795, 43_435, 174_251, 698_027]


def test_swaps_are_the_block_swaps_in_order():
    for n in range(1, 8):
        rows = _swaps(1 << n)
        assert rows.dtype == np.intp
        assert list(map(tuple, rows.tolist())) == \
            list(_reference_neighbors(tuple(range(1 << n))))


def test_heuristic_witness_meets_conditions():
    m = gen_unbalanced(4)
    res = solve(SolveRequest("RTFP", m, 1, c=6.0, mode="heuristic"),
                restarts=5, seed=2)
    assert res.verdict == "found"
    assert winner(m, res.witness) == 1
    assert sensitivity(m, res.witness, 1).drop_coefficient <= 6.0
    assert res.drop_coefficient <= 6.0


def test_heuristic_counts_unique_evaluations():
    res = solve(SolveRequest("TFP", gen_hard(3), 1, mode="heuristic"),
                restarts=2, seed=0)
    assert res.draws_examined >= 1


def test_heuristic_is_deterministic_for_a_seed():
    m = gen_unbalanced(4)
    a = solve(SolveRequest("RTFP", m, 1, c=6.0, mode="heuristic"),
              restarts=4, seed=9)
    b = solve(SolveRequest("RTFP", m, 1, c=6.0, mode="heuristic"),
              restarts=4, seed=9)
    assert a.witness.leaves == b.witness.leaves
    assert a.draws_examined == b.draws_examined


# ----------------------------------------------------------------- auto mode


def test_auto_mode_picks_exact_for_small_instances():
    res = solve(SolveRequest("TFP", gen_hard(3), 1))
    assert res.exact


def test_auto_mode_falls_back_to_heuristic():
    rng = np.random.default_rng(5)
    m = random_matrix(rng, 16, interior=True)
    q = float(win_probabilities(m, tuple(range(1, 17)))[0]) + 0.05
    res = solve(SolveRequest("PTFP", m, 1, q=q))
    assert not res.exact
    assert res.verdict == "found"
    assert res.wp >= q - 1e-9


def test_exact_mode_refuses_large_instances():
    with pytest.raises(ScaleError):
        solve(SolveRequest("TFP", gen_hard(4), 1, mode="exact"))


# ------------------------------------------------------------------ best_draw


def test_best_draw_examples():
    d, wp = best_draw(gen_hard(2), 1)
    assert d.leaves == (1, 2, 3, 4)
    assert wp == 1.0

    d, wp = best_draw(all_even(4), 1)
    assert d.leaves == (1, 2, 3, 4)
    assert wp == pytest.approx(0.25)

    d, wp = best_draw(gen_bigsmall(2, 0.6).matrix, 3)
    assert d.leaves == (1, 3, 2, 4)
    assert wp == pytest.approx(0.324)


def test_a_numpy_integer_player_is_kept_as_an_int():
    m = gen_unbalanced(3)
    assert best_draw(m, np.int64(1)) == best_draw(m, 1)
    assert enumerate_delta_optimal(m, np.int64(1), 0.5) == enumerate_delta_optimal(m, 1, 0.5)
    req = SolveRequest("RTFP", m, np.int64(1), c=3.0)
    assert type(req.player) is int
    assert solve(req) == solve(SolveRequest("RTFP", m, 1, c=3.0))


def test_best_draw_scale_guard():
    with pytest.raises(ScaleError):
        best_draw(gen_hard(4), 1)
    with pytest.raises(ScaleError):
        enumerate_delta_optimal(gen_hard(4), 1, 0.0)


@pytest.mark.parametrize("size", [4, 8])
def test_best_draw_matches_the_per_draw_scan(size):
    rng = np.random.default_rng(size)
    for m in (random_matrix(rng, size), random_deterministic(rng, size), all_even(size)):
        for player in (1, size):
            d, wp = best_draw(m, player)
            assert (d, wp) == reference_best_draw(m, player)


def test_best_draw_is_the_argmax():
    rng = np.random.default_rng(31)
    m = random_matrix(rng, 8)
    d, wp = best_draw(m, 4)
    values = [float(win_probabilities(m, dd)[3]) for dd in enumerate_draws(3)]
    assert wp == pytest.approx(max(values), abs=1e-12)


# ----------------------------------------------------- delta-optimal frontier


def test_delta_optimal_unbalanced_frozen():
    ents = enumerate_delta_optimal(gen_unbalanced(3), 1, 0.0)
    assert len(ents) == 255
    assert ents[0].draw.leaves == (1, 2, 3, 5, 4, 6, 7, 8)
    assert ents[0].drop_coefficient == 3.0
    assert all(e.wp == 1.0 for e in ents)
    coeffs = [e.drop_coefficient for e in ents]
    assert coeffs == sorted(coeffs)
    assert min(coeffs) == 3.0
    assert max(coeffs) == 4.0


def test_delta_optimal_wide_tolerance_keeps_everything():
    ents = enumerate_delta_optimal(all_even(4), 1, 1.0)
    assert len(ents) == 3


def test_delta_optimal_zero_on_unique_optimum():
    ents = enumerate_delta_optimal(gen_hard(3), 1, 0.0)
    assert len(ents) == 1
    assert ents[0].draw.leaves == tuple(range(1, 9))
    assert ents[0].drop_coefficient == 7.0


@pytest.mark.parametrize("size", [4, 8])
def test_delta_optimal_matches_the_per_draw_scan(size):
    rng = np.random.default_rng(40 + size)
    n = size.bit_length() - 1
    for m in (random_matrix(rng, size), random_deterministic(rng, size), gen_unbalanced(n)):
        player = int(rng.integers(1, size + 1))
        for delta in (0.0, 0.02, 1.0):
            got = [(e.draw.leaves, e.wp, e.drop_coefficient)
                   for e in enumerate_delta_optimal(m, player, delta)]
            assert got == reference_delta_optimal(m, player, delta)


def test_delta_optimal_rejects_negative_delta():
    for delta in (-0.1, float("nan")):
        with pytest.raises(ParameterError, match=f"^delta must be nonnegative, got {delta}$"):
            enumerate_delta_optimal(gen_hard(2), 1, delta)


def test_delta_follows_the_real_number_rule():
    for delta in ("0.1", True, None, np.bool_(False)):
        with pytest.raises(ParameterError, match="^delta must be nonnegative, got "):
            enumerate_delta_optimal(gen_hard(2), 1, delta)
        with pytest.raises(ParameterError, match="^delta must be nonnegative, got "):
            most_robust_winning_draw(gen_hard(2), 1, delta)
    exact = enumerate_delta_optimal(gen_hard(2), 1, 0.0)
    assert enumerate_delta_optimal(gen_hard(2), 1, np.int64(0)) == exact


# --------------------------------------------------- most robust winning draw


def test_most_robust_examples():
    e = most_robust_winning_draw(gen_unbalanced(3), 1)
    assert e.draw.leaves == (1, 2, 3, 5, 4, 6, 7, 8)
    assert e.drop_coefficient == 3.0

    e = most_robust_winning_draw(gen_hard(3), 1)
    assert e.draw.leaves == tuple(range(1, 9))
    assert e.drop_coefficient == 7.0


def test_widening_the_tolerance_can_lower_the_coefficient():
    # at the 8-player three-tier instance, trading one part in a thousand of
    # winning probability buys a strictly sturdier draw
    t = gen_threetier(2, 0.02)
    tight = most_robust_winning_draw(t, 1, 0.0)
    loose = most_robust_winning_draw(t, 1, 0.001)
    assert tight.draw.leaves == (1, 2, 3, 4, 5, 7, 6, 8)
    assert tight.wp == pytest.approx(0.5029996)
    assert tight.drop_coefficient == pytest.approx(2.3058792)
    assert loose.draw.leaves == tuple(range(1, 9))
    assert loose.wp == pytest.approx(0.502)
    assert loose.drop_coefficient == pytest.approx(2.204)
    assert loose.drop_coefficient < tight.drop_coefficient


def test_require_win_raises_without_sure_winner():
    with pytest.raises(NoWinningDraw):
        most_robust_winning_draw(all_even(4), 1, require_win=True)
    e = most_robust_winning_draw(gen_unbalanced(3), 1, require_win=True)
    assert e.wp == 1.0


# -------------------------------------------------------------- serialization


def test_solve_result_serialization():
    d = solve(SolveRequest("TFP", gen_hard(2), 1)).to_json_dict()
    assert d == {
        "answer": "yes",
        "witness": [1, 2, 3, 4],
        "wp": 1.0,
        "drop_coefficient": None,
        "draws_examined": 1,
        "exact": True,
    }
    d = solve(SolveRequest("TFP", gen_hard(2), 2)).to_json_dict()
    assert d["answer"] == "no"
    assert d["witness"] is None


def test_heuristic_found_matches_exact_when_both_apply():
    # whenever the heuristic reports found, the exact answer must be yes
    rng = np.random.default_rng(14)
    for _ in range(5):
        m = random_matrix(rng, 8)
        base = float(win_probabilities(m, tuple(range(1, 9)))[0])
        req_h = SolveRequest("PTFP", m, 1, q=base, mode="heuristic")
        req_e = SolveRequest("PTFP", m, 1, q=base, mode="exact")
        h = solve(req_h, restarts=2, seed=1)
        if h.verdict == "found":
            assert solve(req_e).verdict == "yes"


# ------------------------------------------------------ batched scan oracles


def relabelled_hard(rng, n):
    """gen_hard(n) with its players renamed; returns it and the renamed player
    1, who still wins exactly one draw class."""
    size = 1 << n
    sigma = rng.permutation(size)
    arr = np.empty((size, size))
    arr[np.ix_(sigma, sigma)] = gen_hard(n).probs
    return validate_matrix(arr), int(sigma[0]) + 1


def oracle_requests(rng, size, mode):
    """Requests of all four problems on random, coin and relabelled gen_hard
    matrices, some of them satisfiable and some not."""
    p = random_matrix(rng, size)
    coin = random_deterministic(rng, size)
    hard, champion = relabelled_hard(rng, size.bit_length() - 1)
    player = int(rng.integers(1, size + 1))
    draw = tuple(int(x) + 1 for x in rng.permutation(size))
    q = float(win_probabilities(p, draw)[player - 1])
    s = sensitivity(p, draw, player).drop_coefficient
    return [
        SolveRequest("PTFP", p, player, q=q, mode=mode),
        SolveRequest("PTFP", p, player, q=0.9, mode=mode),
        SolveRequest("RPTFP", p, player, q=q, s=s, mode=mode),
        SolveRequest("RPTFP", p, player, q=0.9, s=s, mode=mode),
        SolveRequest("TFP", coin, player, mode=mode),
        SolveRequest("RTFP", coin, player, c=float(size // 2), mode=mode),
        SolveRequest("TFP", hard, champion, mode=mode),
        SolveRequest("RTFP", hard, champion, c=float(size - 1), mode=mode),
        SolveRequest("RTFP", hard, champion, c=float(size - 2), mode=mode),
    ]


@pytest.mark.parametrize("size", [4, 8])
def test_exact_scan_matches_the_per_draw_scan(size):
    rng = np.random.default_rng(size)
    verdicts = set()
    for _ in range(3):
        for req in oracle_requests(rng, size, "exact"):
            got = solve(req).to_json_dict()
            assert got == reference_solve_exact(req).to_json_dict()
            verdicts.add(got["answer"])
    assert verdicts == {"yes", "no"}


@pytest.mark.parametrize("size, runs", [
    (8, [(1, 0), (3, 5)]),
    (16, [(1, 0), (2, 1), (3, 7)]),
    (32, [(1, 0)]),
])
def test_heuristic_matches_the_per_draw_search(size, runs):
    rng = np.random.default_rng(100 + size)
    verdicts = set()
    for req in oracle_requests(rng, size, "heuristic"):
        for restarts, seed in runs:
            got = solve(req, restarts=restarts, seed=seed).to_json_dict()
            assert got == reference_solve_heuristic(req, restarts, seed).to_json_dict()
            verdicts.add(got["answer"])
    assert verdicts == {"found", "not-found"}


@pytest.mark.parametrize("size", [2, 4, 8, 16, 32])
def test_batched_winning_probabilities_equal_the_per_draw_ones(size):
    # 150 rows: two full chunks and a partial one at 32 players
    rng = np.random.default_rng(size)
    m = random_matrix(rng, size)
    draws = [canonicalize(tuple(int(x) + 1 for x in rng.permutation(size))) for _ in range(150)]
    rows = np.array([d.leaves for d in draws])
    for player in (1, size):
        want = [float(win_probabilities(m, d)[player - 1]) for d in draws]
        assert _player_reach(m, rows, player)[:, -1].tolist() == want
        assert np.concatenate([wp for wp, *_ in _slopes(m, rows, player)]).tolist() == want


def test_scores_take_slopes_a_chunk_at_a_time_up_to_the_first_ok_row(monkeypatch):
    # 64 players, so a chunk holds 16 rows; with q = 0 every block-swap
    # neighbour meets the target and needs its drop coefficient, and the
    # 101st row is the first to meet the bound
    rng = np.random.default_rng(64)
    m = random_matrix(rng, 64)
    rows = _canon_rows(rng.permutation(64)[_swaps(64)] + 1)
    drops = np.array([sensitivity(m, tuple(r), 1).drop_coefficient for r in rows[:101].tolist()])
    last = drops == drops.min()
    rows = np.concatenate([rows[:101][~last], rows[:101][last], rows[101:]])
    assert last.sum() == 1 and len(rows) > 2000
    batches = []
    adjoint = winprob._reach_adjoint

    def counted(pq, levels, leaf):
        batches.append(len(pq))
        return adjoint(pq, levels, leaf)

    monkeypatch.setattr(winprob, "_reach_adjoint", counted)
    scores, hit = _scores(SolveRequest("RPTFP", m, 1, q=0.0, s=float(drops.min())), rows)
    assert scores.shape == (2, 101)  # the 101st row is the first ok one
    assert hit == (float(win_probabilities(m, tuple(rows[100]))[0]), float(drops.min()))
    assert batches == [16] * 7  # rows 0..111: nothing past the first ok row's chunk
    assert (-scores[1]).tolist() == [sensitivity(m, tuple(r), 1).drop_coefficient
                                     for r in rows[:101].tolist()]


def test_solve_rejects_a_seed_that_is_not_a_nonnegative_integer():
    for m, mode in ((gen_hard(3), "exact"), (gen_hard(4), "heuristic")):
        req = SolveRequest("TFP", m, 1, mode=mode)
        for seed in (-1, 1.5, True, "0", None):
            with pytest.raises(ParameterError):
                solve(req, seed=seed)
    assert solve(SolveRequest("TFP", gen_hard(4), 1), seed=np.int64(3)).verdict == "found"


def test_solve_rejects_a_restart_count_that_is_not_a_positive_integer():
    for m, mode in ((gen_hard(3), "exact"), (gen_hard(4), "heuristic")):
        req = SolveRequest("TFP", m, 1, mode=mode)
        for restarts in (0, -3, 1.5, True, "2", None):
            with pytest.raises(ParameterError):
                solve(req, restarts=restarts)
    assert solve(SolveRequest("TFP", gen_hard(4), 1), restarts=np.int64(1)).verdict == "found"


@pytest.mark.parametrize("size, itemsize", [(2, 1), (256, 1), (512, 2)])
def test_row_keys_tell_every_row_apart(size, itemsize):
    rng = np.random.default_rng(size)
    ident = np.arange(1, size + 1)
    rows = [ident, ident[::-1]] + [rng.permutation(size) + 1 for _ in range(20)]
    for a, b in ((0, 1), (size - 2, size - 1), (0, size - 1)):  # one swap each
        swapped = ident.copy()
        swapped[[a, b]] = swapped[[b, a]]
        rows.append(swapped)
    rows = np.array(rows + rows[:3])  # three repeats
    keys = _row_keys(rows)
    assert all(len(k) == size * itemsize for k in keys)
    dtype = np.uint8 if itemsize == 1 else np.uint16
    assert [np.frombuffer(k, dtype).tolist() for k in keys] == (rows - 1).tolist()
    assert len(set(keys)) == len(set(map(tuple, rows.tolist())))


def test_heuristic_search_remembers_a_draw_in_a_few_hundred_bytes():
    # q is out of reach, so every draw the one restart examines stays
    # remembered to the end; above the working set of scoring one
    # neighbourhood, the search may hold 240 bytes per draw (tuple keys
    # with tuples of scores take about 520)
    m = random_matrix(np.random.default_rng(32), 32, interior=True)
    req = SolveRequest("PTFP", m, 1, q=1.0, mode="heuristic")
    rows = _canon_rows(np.arange(1, 33)[_swaps(32)])
    tracemalloc.start()
    try:
        _scores(req, rows)
        _, step = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        res = solve(req, restarts=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.verdict == "not-found" and res.draws_examined > 5000
    assert peak - step <= 240 * res.draws_examined


def test_heuristic_search_keeps_nothing_once_it_returns():
    # a fresh interpreter, so that no earlier test's search or table is held
    code = """
import gc, tracemalloc
import numpy as np
from bkt import SolveRequest, solve
from helpers import random_matrix
req = SolveRequest("PTFP", random_matrix(np.random.default_rng(32), 32, interior=True), 1,
                   q=1.0, mode="heuristic")
tracemalloc.start()
gc.collect()
before, _ = tracemalloc.get_traced_memory()
res = solve(req, restarts=1)
gc.collect()
after, _ = tracemalloc.get_traced_memory()
print(res.verdict, res.draws_examined, after - before)
"""
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path), timeout=60, check=True)
    verdict, draws, held = out.stdout.split()
    assert verdict == "not-found" and int(draws) > 5000
    assert int(held) <= 32 << 10


def test_search_imports_numpy_random_only_for_a_random_restart():
    code = """
import sys
from bkt import SolveRequest, gen_hard, solve, uniform_perturbation
req = SolveRequest("PTFP", uniform_perturbation(gen_hard(4), 0.1), 1, q=0.99, mode="heuristic")
for restarts in (1, 2):
    verdict = solve(req, restarts=restarts).verdict
    print(restarts, verdict, "numpy.random" in sys.modules)
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), timeout=60, check=True)
    assert out.stdout.split("\n")[:2] == ["1 not-found False", "2 not-found True"]
