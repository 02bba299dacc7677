import numpy as np
import pytest

from bkt import (
    ParameterError,
    RangeError,
    ScaleError,
    bigsmall_even_probability,
    compose_big_win,
    drop_estimate,
    exact_worst_drop_oracle,
    gen_bigsmall,
    gen_hard,
    gen_threetier,
    gen_unbalanced,
    hard_path_probability,
    sensitivity,
    uniform_perturbation,
    validate_matrix,
    win_probabilities,
    winner,
    worst_perturbation_witness,
)
from bkt import errors, generators
from helpers import hard_by_spawning, unbalanced_by_loop


# ------------------------------------------------------------------ gen_hard


def test_hard_two_players():
    m = gen_hard(1)
    assert m.probs.tolist() == [[0.0, 1.0], [0.0, 0.0]]


def test_hard_four_players():
    # 1 beats 2 and 3; 3 beats 2 and 4; 4 beats 1 and 2
    assert gen_hard(2).probs.astype(int).tolist() == [
        [0, 1, 1, 0],
        [0, 0, 0, 0],
        [0, 1, 0, 1],
        [1, 1, 0, 0],
    ]


def test_hard_properties():
    for n in range(1, 7):
        m = gen_hard(n)
        assert m.size == 1 << n
        assert m.deterministic
        assert m.xi == 1.0
        assert winner(m, tuple(range(1, (1 << n) + 1))) == 1


def test_hard_matches_the_doubling_construction():
    for n in range(1, 11):
        assert np.array_equal(gen_hard(n).probs, hard_by_spawning(n)), n


def test_hard_rejects_bad_n():
    with pytest.raises(ParameterError):
        gen_hard(0)


@pytest.mark.parametrize("build", [
    lambda n: gen_hard(n).probs.tolist(),
    lambda n: gen_unbalanced(n).probs.tolist(),
    lambda n: gen_bigsmall(n, 0.7).matrix.probs.tolist(),
    lambda n: gen_threetier(n, 0.1).probs.tolist(),
    lambda n: hard_path_probability(n, 0.1),
    lambda n: bigsmall_even_probability(n, 0.1),
])
def test_round_counts_follow_one_integer_rule(build):
    # numpy integers count as integers and bools do not, as for solve's seed
    assert build(np.int64(2)) == build(2)
    for n in (True, False, 2.0, "2", None, np.int64(0), np.float64(2.0)):
        with pytest.raises(ParameterError):
            build(n)


def test_a_numpy_round_count_gives_plain_ints():
    inst = gen_bigsmall(np.int64(3), 0.7)
    assert type(inst.n) is int and inst.matrix.size == 8
    assert inst.big == tuple(range(5, 9))


# ------------------------------------------------------------ gen_unbalanced


def test_unbalanced_four_players():
    # core 1 > 2; 3 and 4 lose only to 1, beat 2; 4 beats 3
    assert gen_unbalanced(2).probs.astype(int).tolist() == [
        [0, 1, 1, 1],
        [0, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 1, 1, 0],
    ]


def test_unbalanced_properties():
    for n in range(2, 7):
        m = gen_unbalanced(n)
        size = 1 << n
        half = size // 2
        assert m.deterministic
        # the core block is the smaller hard instance
        assert np.array_equal(m.probs[:half, :half], gen_hard(n - 1).probs)
        # added players beat every core player except 1
        assert (m.probs[half:, 1:half] == 1.0).all()
        assert (m.probs[half:, 0] == 0.0).all()
        # among the added players the higher index wins
        added = m.probs[half:, half:]
        assert np.array_equal(added, np.tril(np.ones((half, half)), -1))
        assert winner(m, tuple(range(1, size + 1))) == 1
        assert winner(m, (size, *range(2, size), 1)) == 1


def test_unbalanced_matches_the_pairwise_construction():
    for n in range(2, 11):
        assert np.array_equal(gen_unbalanced(n).probs, unbalanced_by_loop(n)), n


def test_unbalanced_rejects_small_n():
    with pytest.raises(ParameterError):
        gen_unbalanced(1)


# -------------------------------------------------------------- gen_bigsmall


def test_bigsmall_two_players():
    inst = gen_bigsmall(1, 0.6)
    assert inst.n == 1
    assert inst.p == 0.6
    assert inst.big == (2,)
    assert inst.small == (1,)
    assert inst.matrix.probability(2, 1) == pytest.approx(0.6)


def test_bigsmall_blocks():
    inst = gen_bigsmall(2, 0.7)
    m = inst.matrix
    assert inst.big == (3, 4)
    assert inst.small == (1, 2)
    for b in inst.big:
        for s in inst.small:
            assert m.probability(b, s) == pytest.approx(0.7)
    assert m.probability(1, 2) == 0.5
    assert m.probability(3, 4) == 0.5


def test_bigsmall_rejects_degenerate_p():
    for p in (0.5, 1.0, 0.4, -0.1):
        with pytest.raises(RangeError):
            gen_bigsmall(2, p)


def test_bigsmall_mixing_beats_splitting():
    # seeding one big player into each half is strictly better for the bigs
    # than banking them together
    inst = gen_bigsmall(2, 0.6)
    split = win_probabilities(inst.matrix, (1, 2, 3, 4))
    mixed = win_probabilities(inst.matrix, (1, 3, 2, 4))
    big_split = float(split[2] + split[3])
    big_mixed = float(mixed[2] + mixed[3])
    assert big_split == pytest.approx(0.6)
    assert big_mixed == pytest.approx(0.648)
    assert big_mixed > big_split
    # within a tier the label is irrelevant
    assert float(mixed[2]) == pytest.approx(0.324)


# -------------------------------------------------------------- gen_threetier


def test_threetier_eight_players():
    m = gen_threetier(2, 0.02)
    assert m.size == 8
    # tier membership: 1 apart, smalls 2..4, mediums 5..6, bigs 7..8
    for s in (2, 3, 4):
        assert m.probability(1, s) == 1.0
    for md in (5, 6):
        assert m.probability(1, md) == pytest.approx(0.4)
    for b in (7, 8):
        assert m.probability(1, b) == pytest.approx(0.6)
    for s in (2, 3, 4):
        for other in (5, 6, 7, 8):
            assert m.probability(s, other) == 0.0
    for md in (5, 6):
        for b in (7, 8):
            assert m.probability(md, b) == pytest.approx(0.49)
    assert m.probability(2, 3) == 0.5
    assert m.probability(5, 6) == 0.5
    assert m.probability(7, 8) == 0.5


def test_threetier_large_layout():
    m = gen_threetier(5, 0.02)
    assert m.size == 64
    assert m.probability(1, 2) == 1.0
    assert m.probability(1, 33) == pytest.approx(0.4)
    assert m.probability(1, 49) == pytest.approx(0.6)
    assert m.probability(2, 33) == 0.0
    assert m.probability(33, 49) == pytest.approx(0.49)
    assert m.probability(33, 34) == 0.5
    assert m.xi == pytest.approx(0.4)


def test_threetier_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        gen_threetier(1, 0.02)
    for eps in (0.0, 0.5, -0.1):
        with pytest.raises(RangeError):
            gen_threetier(2, eps)


# ------------------------------------------------------ uniform perturbation


def test_uniform_perturbation_moves_only_corners():
    m = uniform_perturbation(gen_hard(1), 0.1)
    assert m.probs.tolist() == [[0.0, 0.9], [0.1, 0.0]]
    t = gen_threetier(2, 0.02)
    t2 = uniform_perturbation(t, 0.05)
    assert t2.probability(1, 2) == pytest.approx(0.95)
    assert t2.probability(2, 5) == pytest.approx(0.05)
    assert t2.probability(5, 7) == pytest.approx(0.49)  # interior: untouched
    assert t2.probability(1, 5) == pytest.approx(0.4)


def test_uniform_perturbation_fixes_interior_matrices():
    m = validate_matrix(np.full((4, 4), 0.5) - 0.5 * np.eye(4))
    assert np.array_equal(uniform_perturbation(m, 0.2).probs, m.probs)


def test_uniform_perturbation_rejects_bad_eps():
    for eps in (0.0, 0.5, -0.1):
        with pytest.raises(RangeError):
            uniform_perturbation(gen_hard(1), eps)


# ---------------------------------------------------------- closed-form paths


def test_hard_path_probability_small_cases():
    assert hard_path_probability(1, 0.1) == pytest.approx(0.9)
    assert hard_path_probability(2, 0.1) == pytest.approx(0.738)
    assert hard_path_probability(3, 0.0) == 1.0


def test_hard_path_probability_matches_evaluation():
    for k in range(1, 6):
        for eps in (0.01, 0.1, 0.3):
            m = uniform_perturbation(gen_hard(k), eps)
            wp = float(win_probabilities(m, tuple(range(1, (1 << k) + 1)))[0])
            assert hard_path_probability(k, eps) == pytest.approx(wp, abs=1e-12)


def test_hard_path_probability_decreases_in_rounds():
    vals = [hard_path_probability(k, 0.05) for k in range(1, 8)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_hard_path_probability_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        hard_path_probability(0, 0.1)
    with pytest.raises(RangeError):
        hard_path_probability(2, 0.5)
    with pytest.raises(RangeError):
        hard_path_probability(2, -0.01)


def test_bigsmall_even_probability_small_cases():
    assert bigsmall_even_probability(1, 0.1) == pytest.approx(0.6)
    assert bigsmall_even_probability(2, 0.1) == pytest.approx(0.648)
    assert bigsmall_even_probability(4, 0.0) == 0.5


def test_bigsmall_even_probability_matches_evaluation():
    # fully mixed draw: one big player in every first-round match
    for k in (2, 3):
        half = 1 << (k - 1)
        mixed = tuple(x for i in range(half) for x in (i + 1, half + i + 1))
        for eps in (0.05, 0.1, 0.2):
            inst = gen_bigsmall(k, 0.5 + eps)
            wp = win_probabilities(inst.matrix, mixed)
            big_total = float(sum(wp[b - 1] for b in inst.big))
            assert bigsmall_even_probability(k, eps) == pytest.approx(
                big_total, abs=1e-12)


def test_bigsmall_even_probability_increases_in_rounds():
    vals = [bigsmall_even_probability(k, 0.05) for k in range(1, 8)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert all(v < 1.0 for v in vals)


def test_bigsmall_even_slope_approaches_half_round_count_plus_one():
    for k, slope in ((1, 1.0), (2, 1.5), (3, 2.0), (4, 2.5)):
        measured = (bigsmall_even_probability(k, 1e-6) - 0.5) / 1e-6
        assert measured == pytest.approx(slope, abs=1e-4)


# ------------------------------------------------------------ compose_big_win


def test_compose_corner_cases():
    assert compose_big_win(1.0, 1.0, 0.7) == 1.0
    assert compose_big_win(0.0, 0.0, 0.7) == 0.0
    assert compose_big_win(1.0, 0.0, 0.7) == pytest.approx(0.7)
    assert compose_big_win(0.5, 0.5, 0.6) == pytest.approx(0.55)


def test_compose_is_symmetric():
    rng = np.random.default_rng(4)
    for _ in range(50):
        l, r, p = rng.random(3)
        assert compose_big_win(l, r, p) == pytest.approx(
            compose_big_win(r, l, p), abs=1e-15)


def test_compose_matches_even_recursion():
    for k in (1, 2, 3):
        for eps in (0.02, 0.1):
            e = bigsmall_even_probability(k, eps)
            assert compose_big_win(e, e, 0.5 + eps) == pytest.approx(
                bigsmall_even_probability(k + 1, eps), abs=1e-12)


def test_compose_rejects_out_of_range():
    for bad in ((1.2, 0.5, 0.5), (0.5, -0.1, 0.5), (0.5, 0.5, 2.0)):
        with pytest.raises(RangeError):
            compose_big_win(*bad)


def test_pairing_strong_with_weak_helps_the_strong_side():
    # with half-probabilities a >= b >= c >= d, pairing extremes (a with d,
    # b with c) beats pairing neighbours (a with b, c with d) whenever the
    # middle two differ or the outer pairs both differ
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 500:
        a, b, c, d = sorted(rng.random(4), reverse=True)
        p = 0.5 + 0.499 * float(rng.random()) + 1e-9
        if not (b > c or (a > b and c > d)):
            continue
        mixed = compose_big_win(
            compose_big_win(a, d, p), compose_big_win(b, c, p), p)
        neighbours = compose_big_win(
            compose_big_win(a, b, p), compose_big_win(c, d, p), p)
        assert mixed > neighbours
        gap = p * (2 * p - 1) * (1 - p) * (a - c) * (b - d)
        assert mixed - neighbours == pytest.approx(gap, abs=1e-12)
        checked += 1


@pytest.mark.parametrize("build", [
    lambda n: gen_hard(n),
    lambda n: gen_unbalanced(n),
    lambda n: gen_bigsmall(n, 0.7).matrix,
    lambda n: gen_threetier(n - 1, 0.1),
])
def test_table_past_physical_memory_is_a_scale_error(monkeypatch, build):
    # 1024 players take 8 MiB: refused at 4 MiB before anything is
    # allocated, built at 16 MiB
    monkeypatch.setattr(errors, "_physical_memory", lambda: 4 << 20)
    with pytest.raises(ScaleError, match="physical memory"):
        build(10)
    assert build(4).size == 16
    monkeypatch.setattr(errors, "_physical_memory", lambda: 16 << 20)
    assert build(10).size == 1024


def test_absurd_round_count_is_refused_without_building_it(monkeypatch):
    monkeypatch.setattr(errors, "_physical_memory", lambda: 8 << 30)
    with pytest.raises(ScaleError):
        gen_hard(10**9)
    # the closed forms build no table
    assert hard_path_probability(40, 0.0) == 1.0
    assert bigsmall_even_probability(40, 0.0) == 0.5


def test_unknown_physical_memory_skips_the_check(monkeypatch):
    monkeypatch.setattr(errors, "_physical_memory", lambda: None)
    assert gen_hard(3).size == 8


_EVEN4 = validate_matrix(np.where(np.eye(4), 0.0, 0.5))
_REPORT = sensitivity(_EVEN4, (1, 2, 3, 4), 1)


@pytest.mark.parametrize("call", [
    lambda x: gen_bigsmall(2, x),
    lambda x: gen_threetier(2, x),
    lambda x: uniform_perturbation(gen_hard(2), x),
    lambda x: hard_path_probability(3, x),
    lambda x: bigsmall_even_probability(3, x),
    lambda x: compose_big_win(x, 0.5, 0.7),
    lambda x: compose_big_win(0.5, x, 0.7),
    lambda x: compose_big_win(0.5, 0.5, x),
    lambda x: gen_hard(2).with_entry(1, 2, x),
    lambda x: drop_estimate(_REPORT, x),
    lambda x: worst_perturbation_witness(_REPORT, _EVEN4, x),
    lambda x: exact_worst_drop_oracle(_EVEN4, (1, 2, 3, 4), 1, x),
])
@pytest.mark.parametrize("bad", ["0.5", None, True, np.bool_(True)])
def test_real_parameters_refuse_what_is_no_real_number(call, bad):
    # the solvers' rule: numpy's numbers count, a bool or a string does not
    with pytest.raises(ParameterError, match="must be a real number"):
        call(bad)
