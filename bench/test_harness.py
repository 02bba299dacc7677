"""Tests of the benchmark's own reference code and bookkeeping.

    PYTHONPATH=src python3 -m pytest bench
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bkt  # noqa: E402
import bkt.cli  # noqa: E402
import layers  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("size", [2, 4, 8, 16])
@pytest.mark.parametrize("seed", range(4))
def test_reach_matches_outcome_enumeration(size, seed):
    rng = np.random.default_rng(seed)
    p = workloads.interior(rng, size) if seed % 2 else workloads.coin(rng, size)
    draws = [rng.permutation(size) + 1 for _ in range(3)]
    got = oracle.win_probabilities(p, draws)
    m = bkt.validate_matrix(p)
    for row, d in zip(got, draws):
        np.testing.assert_allclose(row, bkt.outcome_win_distribution(m, d), atol=1e-12)


def test_brute_force_finds_every_class():
    assert len(oracle.classes_by_permutation(4)) == 3
    found = oracle.classes_by_permutation(8)
    assert len(found) == 315
    assert {oracle.canonical(d) for d in found} == {d.leaves for d in bkt.enumerate_draws(3)}


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_hard_family_matches_its_generator(n):
    assert np.array_equal(oracle.hard(n), bkt.gen_hard(n).probs)


def test_slopes_and_drop_coefficient_match_sensitivity():
    rng = np.random.default_rng(7)
    p = workloads.interior(rng, 8)
    d = rng.permutation(8) + 1
    rep = bkt.sensitivity(bkt.validate_matrix(p), d, 3)
    pairs = [(ps.i, ps.j) for ps in rep.pairs]
    alphas, betas = oracle.pair_slopes(p, d, 3, pairs)
    np.testing.assert_allclose(alphas, [ps.alpha for ps in rep.pairs], atol=1e-12)
    np.testing.assert_allclose(betas, [ps.beta for ps in rep.pairs], atol=1e-12)
    assert oracle.drop_coefficient(p, d, 3) == pytest.approx(rep.drop_coefficient, abs=1e-12)


@pytest.mark.parametrize("seed", range(3))
def test_crucial_replay_matches_the_program_oracle(seed):
    rng = np.random.default_rng(seed)
    p = workloads.coin(rng, 32)
    d = oracle.canonical(rng.permutation(32) + 1)
    champion = oracle.winner(p, d)
    rep = bkt.crucial_matches_oracle(bkt.validate_matrix(p), d, champion)
    assert oracle.crucial_set(p, d) == rep.ids()


def test_corner_minimum_matches_the_program_oracle():
    rng = np.random.default_rng(3)
    p = workloads.interior(rng, 4)
    d = rng.permutation(4) + 1
    drop, _ = bkt.exact_worst_drop_oracle(bkt.validate_matrix(p), d, 2, 0.03)
    lowest = oracle.corner_minimum(p, d, 2, 0.03)
    assert oracle.wp(p, d, 2) - lowest == pytest.approx(drop, abs=1e-12)


def test_checks_reject_a_wrong_exact_no(tmp_path):
    jobs = workloads.build("search", 5, tmp_path)
    tfp8 = next(j for j in jobs if j.kind == "solve tfp n8")
    doc = {"command": "", "inputs": {}, "warnings": [], "result": {
        "answer": "no", "witness": None, "wp": None, "drop_coefficient": None,
        "draws_examined": 315, "exact": True}}
    with pytest.raises(workloads.CheckFailed):
        tfp8.check(doc, 1)


def test_checks_accept_the_seed_outputs(tmp_path, capsys):
    for name in ("robust", "search"):
        jobs = workloads.build(name, 2, tmp_path / name)
        check = run.Checker(jobs)
        for k, job in enumerate(jobs[:3]):
            code = bkt.cli.main(job.argv)
            passed, _, reason = check(k, code, capsys.readouterr().out)
            assert passed, (job.kind, reason)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail(list(range(100)))[1:] == (90.0, 10)
    value, pct, beyond = run.tail(list(range(12)))
    assert (pct, beyond) == (50.0, 6)


def test_self_time_subtracts_children():
    spans = [
        (1, 0, "j", "winprob.win_probabilities", 8, 10, 20, None),
        (0, -1, "j", "cli.main", 0, 0, 100, None),
    ]
    assert layers.self_times(spans) == {"cli": 90, "winprob": 10}
