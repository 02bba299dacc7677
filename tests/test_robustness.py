import dataclasses
import functools
import json
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bkt import (
    DECREASE,
    HOLD,
    INCREASE,
    DimensionMismatch,
    EpsilonTooLarge,
    NonpositiveEpsilon,
    NotDeterministic,
    NotWinner,
    PairSensitivity,
    ParameterError,
    PermutationError,
    ScaleError,
    canonicalize,
    crucial_matches,
    crucial_matches_oracle,
    drop_estimate,
    enumerate_draws,
    exact_worst_drop_oracle,
    gen_hard,
    gen_unbalanced,
    outcome_win_distribution,
    reach_table,
    sensitivity,
    validate_matrix,
    win_probabilities,
    winner,
    worst_perturbation_witness,
    wp_by_outcome_enumeration,
)
from bkt.winprob import _drop_coefficients, _slopes
from helpers import (
    corner_descent,
    random_deterministic,
    random_matrix,
    random_mixed,
    reference_witness,
    two_point_slopes,
)


def drop_coefficients(m, rows, player):
    """(B,) drop coefficients of leaf rows, chunk by chunk, as the scans take them."""
    return np.concatenate([_drop_coefficients(m, a) for _, a in _slopes(m, rows, player)])


def all_even(size):
    return validate_matrix(np.full((size, size), 0.5) - 0.5 * np.eye(size))


def spoiler_matrix():
    # 1 beats 2 and 4 but loses to 3; 4 beats 3, so 1 wins (1,2,3,4).
    # Raising P[3,4] lets 3 through and sinks player 1: a negative-slope
    # pair sitting at 0, reachable only by increase.
    return validate_matrix([
        [0, 1, 0, 1],
        [0, 0, 0.5, 0.5],
        [1, 0.5, 0, 0],
        [0, 0.5, 1, 0],
    ])


# ---------------------------------------------------------------- sensitivity


def test_single_match_sensitivity():
    m = validate_matrix([[0, 0.7], [0.3, 0]])
    rep = sensitivity(m, (1, 2), 1)
    assert rep.player == 1
    assert rep.wp == pytest.approx(0.7)
    assert rep.alpha(1, 2) == pytest.approx(1.0)
    assert rep.drop_coefficient == pytest.approx(1.0)
    assert rep.validity_bound == pytest.approx(0.3)


def test_hard_family_sensitivity_n2():
    rep = sensitivity(gen_hard(2), (1, 2, 3, 4), 1)
    assert rep.wp == 1.0
    assert rep.alphas == {
        (1, 2): 1.0, (1, 3): 1.0, (1, 4): 0.0,
        (2, 3): 0.0, (2, 4): 0.0, (3, 4): 1.0,
    }
    assert rep.betas == {
        (1, 2): 0.0, (1, 3): 0.0, (1, 4): 1.0,
        (2, 3): 1.0, (2, 4): 1.0, (3, 4): 0.0,
    }
    assert rep.drop_coefficient == 3.0


def test_even_field_sensitivity():
    rep = sensitivity(all_even(4), (1, 2, 3, 4), 1)
    assert rep.wp == pytest.approx(0.25)
    assert rep.alphas == pytest.approx({
        (1, 2): 0.5, (1, 3): 0.25, (1, 4): 0.25,
        (2, 3): 0.0, (2, 4): 0.0, (3, 4): 0.0,
    })
    assert rep.drop_coefficient == pytest.approx(1.0)


def test_negative_slope_at_zero_counts_via_increase():
    rep = sensitivity(spoiler_matrix(), (1, 2, 3, 4), 1)
    assert rep.wp == 1.0
    assert rep.alpha(3, 4) == pytest.approx(-1.0)
    assert rep.pair(3, 4).contribution == pytest.approx(1.0)
    # (1,3) never meet: the final opponent is always 4
    assert rep.alpha(1, 3) == 0.0
    assert rep.drop_coefficient == pytest.approx(3.0)


@pytest.mark.parametrize("size", [2, 4, 8, 16, 64])
@pytest.mark.parametrize("kind", ["random", "coin", "hard"])
def test_slopes_match_two_point_evaluation(size, kind):
    rng = np.random.default_rng(40 + size)
    if kind == "random":
        m = random_matrix(rng, size)
    elif kind == "coin":
        m = random_deterministic(rng, size)
    else:
        m = gen_hard(size.bit_length() - 1)
    for _ in range(2):
        d = tuple(int(x) + 1 for x in rng.permutation(size))
        for player in sorted({1, size, int(rng.integers(1, size + 1))}):
            rep = sensitivity(m, d, player)
            pairs, alphas, betas = two_point_slopes(m, d, player)
            assert [(ps.i, ps.j) for ps in rep.pairs] == pairs
            got_a = np.array([ps.alpha for ps in rep.pairs])
            got_b = np.array([ps.beta for ps in rep.pairs])
            if m.deterministic:
                assert np.array_equal(got_a, alphas)
                assert np.array_equal(got_b, betas)
            else:
                assert np.abs(got_a - alphas).max() <= 1e-12
                assert np.abs(got_b - betas).max() <= 1e-12
            # affine decomposition: wp = alpha * p + beta
            ps = np.array([ps.p for ps in rep.pairs])
            assert np.abs(got_a * ps + got_b - rep.wp).max() <= 1e-12


BAD_PLAYER_4 = st.one_of(st.integers(max_value=0), st.integers(min_value=5), st.booleans())


@settings(max_examples=30, deadline=None)
@given(BAD_PLAYER_4)
def test_sensitivity_rejects_bad_player(player):
    with pytest.raises(ParameterError):
        sensitivity(all_even(4), (1, 2, 3, 4), player)


@settings(max_examples=30, deadline=None)
@given(BAD_PLAYER_4)
def test_crucial_matches_rejects_bad_player(player):
    with pytest.raises(ParameterError):
        crucial_matches(gen_hard(2), (1, 2, 3, 4), player)


def test_a_numpy_integer_player_gives_plain_json():
    d = (1, 2, 3, 4)
    for fn, m in ((sensitivity, all_even(4)), (crucial_matches, gen_hard(2)),
                  (crucial_matches_oracle, gen_hard(2))):
        got = fn(m, d, np.int64(1))
        assert type(got.player) is int
        assert json.dumps(got.to_json_dict()) == json.dumps(fn(m, d, 1).to_json_dict())


def test_contribution_clipping_rule():
    rng = np.random.default_rng(41)
    for m in (random_matrix(rng, 8), random_mixed(rng, 8)):
        for player in (1, 5):
            rep = sensitivity(m, tuple(range(1, 9)), player)
            for pair in rep.pairs:
                p = m.probability(pair.i, pair.j)
                if p == 1.0:
                    expected = max(pair.alpha, 0.0)
                elif p == 0.0:
                    expected = max(-pair.alpha, 0.0)
                else:
                    expected = abs(pair.alpha)
                # the sign of a zero shows in the report's JSON
                assert pair.contribution == expected
                assert math.copysign(1.0, pair.contribution) == math.copysign(1.0, expected)
            # summed from left to right, over the pairs in lexicographic order
            contributions = [pair.contribution for pair in rep.pairs]
            assert rep.drop_coefficient == functools.reduce(operator.add, contributions)


def test_drop_coefficient_of_zero_terms_is_positive_zero():
    # player 2 loses every match, and every contribution here is -0.0; the
    # report prints Python's sum of them, 0.0, not -0.0
    m = validate_matrix([[0, 1, 0, 0], [0, 0, 0, 0], [1, 1, 0, 0], [1, 1, 1, 0]])
    rep = sensitivity(m, (1, 3, 2, 4), 2)
    assert all(math.copysign(1.0, pair.contribution) < 0 for pair in rep.pairs)
    assert math.copysign(1.0, rep.drop_coefficient) == 1.0
    (s,) = drop_coefficients(m, np.array([[1, 3, 2, 4]]), 2)
    assert math.copysign(1.0, s) == 1.0


@pytest.mark.parametrize("size", [4, 8, 16, 32])
def test_report_views_match_its_columns(size):
    rng = np.random.default_rng(60 + size)
    for m in (random_matrix(rng, size), random_mixed(rng, size)):
        d = tuple(int(x) + 1 for x in rng.permutation(size))
        player = int(rng.integers(1, size + 1))
        rep = sensitivity(m, d, player)
        # nothing per pair is built until a view asks for it
        assert all(type(c) is np.ndarray for c in rep.columns)
        assert "pairs" not in vars(rep)
        c = rep.columns
        want = [
            PairSensitivity(int(c.i[k]), int(c.j[k]), float(c.alpha[k]), float(c.beta[k]),
                            float(c.p[k]), float(c.contribution[k]))
            for k in range(size * (size - 1) // 2)
        ]
        assert [(ps.i, ps.j) for ps in want] == [
            (i, j) for i in range(1, size + 1) for j in range(i + 1, size + 1)]
        # repr tells -0.0 from 0.0 and an int from a float
        assert repr(rep.pairs) == repr(tuple(want))
        for ps in want:
            assert repr(rep.pair(ps.i, ps.j)) == repr(ps)
            assert repr(rep.pair(ps.j, ps.i)) == repr(ps)
        for i, j in [(1, 1), (size, size), (0, 2), (1, size + 1), (-1, 2)]:
            with pytest.raises(KeyError):
                rep.pair(i, j)
        assert repr(rep.alphas) == repr({(ps.i, ps.j): ps.alpha for ps in want})
        assert repr(rep.betas) == repr({(ps.i, ps.j): ps.beta for ps in want})
        rows = rep.to_json_dict()["alphas"]
        assert repr(rows) == repr([ps._asdict() for ps in want])
        assert all(type(row) is dict for row in rows)


def _same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def _signed_zeros(m):
    """m with every exact 0 above the diagonal written as -0.0."""
    arr = m.probs.copy()
    arr[np.triu(arr == 0.0, 1)] = -0.0
    return validate_matrix(arr)


@pytest.mark.parametrize("size", [4, 8, 32])
def test_witness_matches_the_per_pair_loop(size):
    rng = np.random.default_rng(80 + size)
    kinds = [random_matrix(rng, size, interior=True), random_matrix(rng, size),
             random_deterministic(rng, size), random_mixed(rng, size),
             _signed_zeros(random_mixed(rng, size))]
    for m in kinds:
        d = tuple(int(x) + 1 for x in rng.permutation(size))
        rep = sensitivity(m, d, int(rng.integers(1, size + 1)))
        # slopes of both signs and both zeros, next to the real ones
        alpha = rep.columns.alpha.copy()
        pick = rng.random(len(alpha)) < 0.5
        alpha[pick] = rng.choice([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324], pick.sum())
        crafted = dataclasses.replace(rep, columns=rep.columns._replace(alpha=alpha))
        # eps = xi moves the smallest entries exactly onto 0 or 1
        for r in (rep, crafted):
            for eps in sorted({m.xi, min(0.01, m.xi)}):
                w = worst_perturbation_witness(r, m, eps)
                directions, arr = reference_witness(r, m, eps)
                assert _same_bits(w.matrix.probs, arr)
                assert w.directions == directions
                assert list(w.directions) == list(directions)
                assert w.to_json_dict()["directions"] == [
                    {"i": i, "j": j, "direction": way} for (i, j), way in directions.items()]


def test_sensitivity_report_serialization():
    rep = sensitivity(gen_hard(2), (1, 2, 3, 4), 1)
    d = rep.to_json_dict()
    assert d["player"] == 1
    assert d["wp"] == 1.0
    assert d["drop_coefficient"] == 3.0
    assert d["validity_bound"] == 1.0


# -------------------------------------------------------------- drop estimate


def test_drop_estimate_basic():
    rep = sensitivity(gen_hard(2), (1, 2, 3, 4), 1)
    est = drop_estimate(rep, 0.01)
    assert est.drop == pytest.approx(0.03)
    assert est.guaranteed == pytest.approx(0.97)
    assert not est.clamped
    assert not est.exceeds_validity


def test_drop_estimate_clamps_at_zero():
    rep = sensitivity(gen_hard(2), (1, 2, 3, 4), 1)
    est = drop_estimate(rep, 0.4)
    assert est.drop == pytest.approx(1.2)
    assert est.guaranteed == 0.0
    assert est.clamped
    assert not est.exceeds_validity  # bound here is 1.0


def test_drop_estimate_flags_validity():
    rep = sensitivity(all_even(4), (1, 2, 3, 4), 1)
    est = drop_estimate(rep, 0.6)
    assert est.exceeds_validity


def test_drop_estimate_rejects_nonpositive_epsilon():
    rep = sensitivity(all_even(4), (1, 2, 3, 4), 1)
    for eps in (0.0, -0.1, float("nan")):
        with pytest.raises(NonpositiveEpsilon):
            drop_estimate(rep, eps)


def test_a_bool_is_no_epsilon():
    # True > 0.0 and True <= 1.0, so only the type tells it apart from 1
    m = all_even(4)
    rep = sensitivity(m, (1, 2, 3, 4), 1)
    for eps in (True, False):
        with pytest.raises(ParameterError):
            drop_estimate(rep, eps)
        with pytest.raises(ParameterError):
            worst_perturbation_witness(rep, m, eps)
        with pytest.raises(ParameterError):
            exact_worst_drop_oracle(m, (1, 2, 3, 4), 1, eps)
    assert drop_estimate(rep, 1).epsilon == 1


def test_hard_instance_estimate_scales_with_crucial_count():
    m = gen_hard(6)
    rep = sensitivity(m, tuple(range(1, 65)), 1)
    assert rep.drop_coefficient == 63.0
    assert drop_estimate(rep, 0.01).drop == pytest.approx(0.63)


# ------------------------------------------------------------------- witness


def test_witness_directions_even_field():
    m = all_even(4)
    rep = sensitivity(m, (1, 2, 3, 4), 1)
    w = worst_perturbation_witness(rep, m, 0.1)
    assert w.epsilon == 0.1
    assert w.directions == {
        (1, 2): DECREASE, (1, 3): DECREASE, (1, 4): DECREASE,
        (2, 3): HOLD, (2, 4): HOLD, (3, 4): HOLD,
    }
    assert w.matrix.probability(1, 2) == pytest.approx(0.4)
    assert w.matrix.probability(3, 4) == pytest.approx(0.5)
    wp = float(win_probabilities(w.matrix, (1, 2, 3, 4))[0])
    assert wp == pytest.approx(0.16)


def test_witness_uses_increase_on_negative_slope_corner():
    m = spoiler_matrix()
    rep = sensitivity(m, (1, 2, 3, 4), 1)
    w = worst_perturbation_witness(rep, m, 0.1)
    assert w.directions[(3, 4)] == INCREASE
    assert w.directions[(1, 2)] == DECREASE
    assert w.directions[(1, 4)] == DECREASE
    assert w.directions[(1, 3)] == HOLD
    assert w.matrix.probability(3, 4) == pytest.approx(0.1)
    wp = float(win_probabilities(w.matrix, (1, 2, 3, 4))[0])
    assert wp == pytest.approx(0.729)


def test_witness_on_hard_instance_keeps_unplayed_pairs():
    # only the pairs that can actually meet move; the witness therefore
    # realizes exactly the corner-oracle worst case here
    m = gen_hard(2)
    rep = sensitivity(m, (1, 2, 3, 4), 1)
    w = worst_perturbation_witness(rep, m, 0.1)
    assert w.directions == {
        (1, 2): DECREASE, (1, 3): DECREASE, (3, 4): DECREASE,
        (1, 4): HOLD, (2, 3): HOLD, (2, 4): HOLD,
    }
    assert w.matrix.probability(1, 4) == 0.0
    wp = float(win_probabilities(w.matrix, (1, 2, 3, 4))[0])
    assert wp == pytest.approx(0.729)


def test_witness_respects_validity_bound():
    m = all_even(4)
    rep = sensitivity(m, (1, 2, 3, 4), 1)
    with pytest.raises(EpsilonTooLarge):
        worst_perturbation_witness(rep, m, 0.51)
    for eps in (0.0, float("nan")):
        with pytest.raises(NonpositiveEpsilon):
            worst_perturbation_witness(rep, m, eps)


def test_witness_clips_an_entry_the_complement_tolerance_lets_pass_one():
    # P[1,2] + P[2,1] = 1 + 5e-10, so raising P[1,2] by xi overshoots 1
    m = validate_matrix([[None, 0.7], [0.3000000005, None]])
    w = worst_perturbation_witness(sensitivity(m, (1, 2), 2), m, m.xi)
    assert w.directions == {(1, 2): INCREASE}
    assert w.matrix.probs.tolist() == [[0.0, 1.0], [0.0, 0.0]]


def test_witness_never_helps_the_player():
    rng = np.random.default_rng(77)
    for _ in range(20):
        m = random_matrix(rng, 8, interior=True)
        d = tuple(rng.permutation(8) + 1)
        rep = sensitivity(m, d, 5)
        eps = min(0.04, m.xi)
        w = worst_perturbation_witness(rep, m, eps)
        assert np.abs(w.matrix.probs - m.probs).max() <= eps + 1e-12
        wp = float(win_probabilities(w.matrix, d)[4])
        assert wp <= rep.wp + 1e-12


# -------------------------------------------------------------- exact oracle


def test_exact_oracle_single_match():
    m = validate_matrix([[0, 0.7], [0.3, 0]])
    drop, wit = exact_worst_drop_oracle(m, (1, 2), 1, 0.1)
    assert drop == pytest.approx(0.1)
    assert wit.probability(1, 2) == pytest.approx(0.6)


def test_exact_oracle_even_field():
    drop, wit = exact_worst_drop_oracle(all_even(4), (1, 2, 3, 4), 1, 0.1)
    assert drop == pytest.approx(0.09)
    assert wit.probs[0, 1:].tolist() == pytest.approx([0.4, 0.4, 0.4])


def test_exact_oracle_hard_instance():
    m = gen_hard(2)
    drop, wit = exact_worst_drop_oracle(m, (1, 2, 3, 4), 1, 0.1)
    assert drop == pytest.approx(0.271)
    # the adversary leaves P[1,4] at zero: raising it would help player 1
    assert wit.probability(1, 4) == 0.0
    assert float(win_probabilities(wit, (1, 2, 3, 4))[0]) == pytest.approx(0.729)


def test_exact_oracle_never_exceeds_first_order_estimate():
    rng = np.random.default_rng(90)
    for _ in range(40):
        m = random_matrix(rng, 4, interior=True)
        rep = sensitivity(m, (1, 2, 3, 4), 1)
        eps = min(0.02 + 0.1 * float(rng.random()), m.xi)
        exact, wit = exact_worst_drop_oracle(m, (1, 2, 3, 4), 1, eps)
        assert exact <= rep.drop_coefficient * eps + 1e-9
        assert np.abs(wit.probs - m.probs).max() <= eps + 1e-12


_FLOOR_KINDS = {
    "interior": lambda rng, size: random_matrix(rng, size, interior=True),
    "0/1": random_deterministic,
    "mixed": random_mixed,
}


@pytest.mark.parametrize("size, random_starts, max_steps", [
    (8, 4, 10**9), (16, 2, 10**9), (32, 1, 20), (64, 0, 2),
])
@pytest.mark.parametrize("kind", list(_FLOOR_KINDS))
def test_first_order_floor_holds_against_corner_descent(size, random_starts, max_steps, kind):
    # beyond the 4 players of the exact oracle: no corner the descent finds
    # may lie below wp - S*eps, the witness may not drop wp further than
    # that corner, and |drop - S*eps| shrinks quadratically (criterion 4)
    rng = np.random.default_rng(1100 + size)
    m = _FLOOR_KINDS[kind](rng, size)
    d = canonicalize(tuple(int(x) + 1 for x in rng.permutation(size)))
    wps = win_probabilities(m, d)
    player = int(np.argmax(wps)) + 1
    rep = sensitivity(m, d, player)
    c = rep.columns
    # the witness's own corner: raised where the slope is negative, and held
    # at 1 where it is 0
    witness_corner = (c.alpha < 0.0) | ((c.alpha == 0.0) & (c.p == 1.0))
    errs = {}
    for eps in (m.xi, 1e-2, 1e-3):
        starts = [witness_corner] + [rng.random(len(c.p)) < 0.5 for _ in range(random_starts)]
        corner_wp, _ = corner_descent(m, d.leaves, player, eps, starts, max_steps)
        assert drop_estimate(rep, eps).guaranteed <= corner_wp + 1e-12, (eps, corner_wp)
        w = worst_perturbation_witness(rep, m, eps)
        assert float(win_probabilities(w.matrix, d)[player - 1]) >= corner_wp - 1e-12, eps
        errs[eps] = abs(rep.wp - corner_wp - rep.drop_coefficient * eps)
    if errs[1e-2] > 1e-12:
        assert errs[1e-3] / errs[1e-2] <= 0.05, errs


def test_exact_oracle_dominates_witness_drop():
    rng = np.random.default_rng(91)
    for _ in range(20):
        m = random_matrix(rng, 4, interior=True)
        rep = sensitivity(m, (1, 2, 3, 4), 1)
        eps = min(0.05, m.xi)
        exact, _ = exact_worst_drop_oracle(m, (1, 2, 3, 4), 1, eps)
        w = worst_perturbation_witness(rep, m, eps)
        witness_drop = rep.wp - float(win_probabilities(w.matrix, (1, 2, 3, 4))[0])
        assert witness_drop <= exact + 1e-12


def test_exact_oracle_pair_guard():
    m = all_even(8)
    with pytest.raises(ScaleError):
        exact_worst_drop_oracle(m, tuple(range(1, 9)), 1, 0.1)


def test_exact_oracle_rejects_nonpositive_epsilon():
    for eps in (0.0, float("nan")):
        with pytest.raises(NonpositiveEpsilon):
            exact_worst_drop_oracle(all_even(4), (1, 2, 3, 4), 1, eps)


# ------------------------------------------------------------ crucial matches


def test_crucial_matches_single_pair():
    m = validate_matrix([[0, 1], [0, 0]])
    rep = crucial_matches(m, (1, 2), 1)
    assert rep.count == 1
    assert rep.ids() == {(1, 0)}


def test_crucial_matches_hard_family():
    for n in range(1, 7):
        m = gen_hard(n)
        d = tuple(range(1, (1 << n) + 1))
        rep = crucial_matches(m, d, 1)
        assert rep.count == (1 << n) - 1
        # every crucial match count equals the drop coefficient here
        assert sensitivity(m, d, 1).drop_coefficient == float(rep.count)


def test_crucial_match_structure_hard_n2():
    rep = crucial_matches(gen_hard(2), (1, 2, 3, 4), 1)
    assert rep.ids() == {(1, 0), (1, 1), (2, 0)}
    by_id = {(mt.round, mt.node): (mt.first, mt.second) for mt in rep.crucial}
    assert by_id[(1, 0)] == (1, 2)
    assert by_id[(1, 1)] == (3, 4)
    assert by_id[(2, 0)] == (1, 3)


def test_crucial_matches_unbalanced_family():
    for n in range(2, 7):
        m = gen_unbalanced(n)
        size = 1 << n
        ident = tuple(range(1, size + 1))
        assert crucial_matches(m, ident, 1).count == 1 << (n - 1)
        other = (size, *range(2, size), 1)
        assert crucial_matches(m, other, 1).count == n


def test_crucial_count_equals_drop_coefficient_for_deterministic():
    rng = np.random.default_rng(60)
    for _ in range(30):
        m = random_deterministic(rng, 8)
        d = tuple(rng.permutation(8) + 1)
        w = winner(m, d)
        rep = crucial_matches(m, d, w)
        assert sensitivity(m, d, w).drop_coefficient == float(rep.count)


def test_crucial_matches_agree_with_replay_oracle():
    rng = np.random.default_rng(99)
    for _ in range(100):
        m = random_deterministic(rng, 8)
        for d in enumerate_draws(3):
            w = winner(m, d)
            assert crucial_matches(m, d, w).ids() == \
                crucial_matches_oracle(m, d, w).ids()


def test_crucial_matches_requires_the_winner():
    m = gen_hard(2)
    with pytest.raises(NotWinner):
        crucial_matches(m, (1, 2, 3, 4), 2)
    with pytest.raises(NotDeterministic):
        crucial_matches(all_even(4), (1, 2, 3, 4), 1)


def test_crucial_oracle_scale_guard():
    size = 128
    arr = np.triu(np.ones((size, size)), 1)
    arr = arr + (1.0 - arr.T) * (np.tri(size, k=-1) > 0)
    m = validate_matrix(arr)
    d = tuple(range(1, size + 1))
    with pytest.raises(ScaleError):
        crucial_matches_oracle(m, d, 1)
    # the fast path itself has no such limit
    assert crucial_matches(m, d, 1).count >= 7


@pytest.mark.parametrize("size", [2, 8, 16, 32])
def test_drop_coefficient_without_the_report_equals_the_reports(size):
    # 150 rows: at 32 players a chunk holds 64, so two full chunks and a part
    rng = np.random.default_rng(size)
    for make in (random_matrix, random_deterministic, random_mixed):
        m = make(rng, size)
        rows = np.array([
            canonicalize(tuple(int(x) + 1 for x in rng.permutation(size))).leaves
            for _ in range(150)
        ])
        for player in sorted({1, int(rng.integers(1, size + 1))}):
            got = drop_coefficients(m, rows, player).tolist()
            assert got == [sensitivity(m, tuple(row), player).drop_coefficient
                           for row in rows.tolist()]


@pytest.mark.parametrize("evaluate, rest", [
    (reach_table, None),
    (winner, None),
    (outcome_win_distribution, None),
    (sensitivity, ()),
    (crucial_matches, ()),
    (crucial_matches_oracle, ()),
    (exact_worst_drop_oracle, (-1.0,)),  # a bad eps too, checked after the player
    (wp_by_outcome_enumeration, ()),
])
def test_evaluators_check_leaves_then_size_then_player(evaluate, rest):
    m = gen_hard(2)  # 4 players, 0/1, player 1 wins the identity draw

    def call(leaves, player):
        return evaluate(m, leaves) if rest is None else evaluate(m, leaves, player, *rest)

    with pytest.raises(PermutationError):
        call((1, 1), 0)
    with pytest.raises(DimensionMismatch):
        call((2, 1), 0)
    if rest is not None:
        for player in (0, 5, True, 1.0, None):
            with pytest.raises(ParameterError):
                call((1, 2, 3, 4), player)
