import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bkt import (
    DimensionMismatch,
    NotDeterministic,
    ParameterError,
    ScaleError,
    canonicalize,
    enumerate_draws,
    gen_hard,
    outcome_win_distribution,
    reach_table,
    validate_matrix,
    win_probabilities,
    winner,
    wp_by_outcome_enumeration,
)
import bkt.winprob
from bkt.draws import _canon_rows
from bkt.solvers import _swaps
from bkt.winprob import (_CHUNK_CELLS, _leaf_stacks, _player_reach, _reach, _reach_adjoint,
                         _sibling_sums)
from helpers import (
    einsum_sibling_sums,
    random_deterministic,
    random_matrix,
    random_mixed,
    scramble,
)


def all_even(size):
    return validate_matrix(np.full((size, size), 0.5) - 0.5 * np.eye(size))


def test_single_match():
    m = validate_matrix([[0, 0.7], [0.3, 0]])
    wp = win_probabilities(m, (1, 2))
    assert wp[0] == pytest.approx(0.7)
    assert wp[1] == pytest.approx(0.3)


def test_deterministic_favorite_wins_surely():
    wp = win_probabilities(gen_hard(2), (1, 2, 3, 4))
    assert wp[0] == 1.0
    assert wp[1] == wp[2] == wp[3] == 0.0


def test_even_field_is_uniform():
    for size in (4, 8):
        wp = win_probabilities(all_even(size), tuple(range(1, size + 1)))
        assert np.allclose(wp, 1.0 / size, atol=1e-12)


def test_probabilities_sum_to_one():
    rng = np.random.default_rng(5)
    for size in (4, 8, 16):
        m = random_matrix(rng, size)
        d = tuple(rng.permutation(size) + 1)
        wp = win_probabilities(m, d)
        assert wp.shape == (size,)
        assert float(wp.sum()) == pytest.approx(1.0, abs=1e-9)
        assert (wp >= 0).all()


def test_result_is_indexed_by_player_not_seat():
    m = validate_matrix([[0, 0.7], [0.3, 0]])
    wp = win_probabilities(m, (2, 1))
    # wp[0] still belongs to player 1
    assert wp[0] == pytest.approx(0.7)


def test_equivalent_draws_give_bitwise_equal_results():
    rng = np.random.default_rng(8)
    m = random_matrix(rng, 8)
    base = tuple(rng.permutation(8) + 1)
    ref = win_probabilities(m, base)
    for _ in range(20):
        twin = scramble(rng, base)
        assert np.array_equal(win_probabilities(m, twin), ref)


def test_affine_in_each_entry():
    # wp is affine in any single P[i,j]: the midpoint value must match the
    # average of the endpoint values.
    rng = np.random.default_rng(13)
    m = random_matrix(rng, 8)
    d = tuple(range(1, 9))
    for i, j in [(1, 2), (1, 8), (3, 6), (4, 5), (2, 7)]:
        lo = win_probabilities(m.with_entry(i, j, 0.0), d)
        hi = win_probabilities(m.with_entry(i, j, 1.0), d)
        mid = win_probabilities(m.with_entry(i, j, 0.5), d)
        assert np.allclose(mid, 0.5 * (lo + hi), atol=1e-12)


def test_rejects_size_mismatch():
    with pytest.raises(DimensionMismatch):
        win_probabilities(gen_hard(2), (1, 2))


def test_winner_examples():
    assert winner(gen_hard(2), (1, 2, 3, 4)) == 1
    # 1 beats 3, 4 beats 2, and 4 beats 1 in the final
    assert winner(gen_hard(2), (1, 3, 2, 4)) == 4


def test_winner_requires_deterministic_matrix():
    with pytest.raises(NotDeterministic):
        winner(validate_matrix([[0, 0.7], [0.3, 0]]), (1, 2))


def test_winner_agrees_with_probability_one():
    rng = np.random.default_rng(21)
    from helpers import random_deterministic
    for _ in range(20):
        m = random_deterministic(rng, 8)
        d = tuple(rng.permutation(8) + 1)
        w = winner(m, d)
        wp = win_probabilities(m, d)
        assert wp[w - 1] == 1.0


def test_outcome_enumeration_single_match():
    m = validate_matrix([[0, 0.7], [0.3, 0]])
    assert wp_by_outcome_enumeration(m, (1, 2), 1) == pytest.approx(0.7)
    dist = outcome_win_distribution(m, (1, 2))
    assert np.allclose(dist, [0.7, 0.3])


def test_outcome_enumeration_matches_recursion():
    rng = np.random.default_rng(34)
    for size in (4, 8):
        for _ in range(5):
            m = random_matrix(rng, size)
            d = tuple(rng.permutation(size) + 1)
            fast = win_probabilities(m, d)
            slow = outcome_win_distribution(m, d)
            assert np.allclose(fast, slow, atol=1e-9)


def test_kernel_batch_matches_outcome_enumeration():
    # one (B, N, N) stack through the kernel, each row checked on its own
    rng = np.random.default_rng(35)
    for size in (2, 4, 8):
        ms = [random_matrix(rng, size) for _ in range(4)]
        ms += [random_deterministic(rng, size) for _ in range(2)]
        d = tuple(int(x) + 1 for x in rng.permutation(size))
        perm = np.array(d) - 1
        pq = np.stack([m.probs for m in ms])[:, perm[:, None], perm]
        levels = _reach(pq)
        assert [lv.shape for lv in levels] == [(len(ms), size)] * size.bit_length()
        for row, m in zip(levels[-1], ms):
            assert np.allclose(row, outcome_win_distribution(m, d)[perm], atol=1e-12)


def test_stacked_adjoint_matches_row_by_row_calls():
    # several matrices and a different root leaf for each, in one call
    rng = np.random.default_rng(36)
    for size in (2, 4, 8, 16):
        ms = [random_matrix(rng, size) for _ in range(4)]
        ms += [random_deterministic(rng, size) for _ in range(2)]
        d = tuple(int(x) + 1 for x in rng.permutation(size))
        perm = np.array(d) - 1
        pq = np.stack([m.probs for m in ms])[:, perm[:, None], perm]
        levels = _reach(pq)
        leaf = rng.integers(0, size, len(ms))
        stacked = _reach_adjoint(pq, levels, leaf)
        assert stacked.shape == (len(ms), size, size)
        for b in range(len(ms)):
            one = _reach_adjoint(pq[b:b + 1], [lv[b:b + 1] for lv in levels], leaf[b:b + 1])
            assert np.array_equal(stacked[b:b + 1], one)


def signed_zero_stack(rng, size, count):
    """(count, size, size) leaf-ordered stack of matrices whose 0/1 entries
    are kept, and whose zeros below the diagonal are -0.0."""
    out = []
    for _ in range(count):
        arr = random_mixed(rng, size).probs.copy()
        arr[np.tri(size, k=-1, dtype=bool) & (arr == 0.0)] = -0.0
        out.append(validate_matrix(arr).probs)
    return np.stack(out)


@pytest.mark.parametrize("size", [2, 4, 8, 16, 32, 64, 128])
def test_sibling_sums_give_the_einsum_bits(size):
    # the gathered sums at half 1 and 2 and einsum above, against einsum
    # everywhere: interior, 0/1 and signed-zero entries and reach values,
    # and the signed values the adjoint feeds in; the last four batches are
    # as tall as a _leaf_stacks chunk, the shape the evaluators feed in
    rng = np.random.default_rng(40 + size)
    for case in range(44):
        B = int(rng.integers(1, 9)) if case < 40 else _CHUNK_CELLS // size**2
        pq, r = rng.random((B, size, size)), rng.random((B, size))
        if case % 4 == 1:
            pq = np.round(pq)
        elif case % 4 == 2:
            # a tall batch repeats eight matrices: validating each is slow
            pq = signed_zero_stack(rng, size, min(B, 8))
            pq = pq[np.arange(B) % len(pq)]
            r = np.where(rng.random(r.shape) < 0.3, -0.0, np.round(r))
        elif case % 4 == 3:
            pq, r = rng.standard_normal(pq.shape), rng.standard_normal(r.shape)
        half = 1
        while half < size:
            got = _sibling_sums(pq, r, half)
            assert got.tobytes() == einsum_sibling_sums(pq, r, half).tobytes()
            half *= 2


@pytest.mark.parametrize("size", [2, 4, 8, 16, 32, 64, 128])
def test_kernel_and_adjoint_give_the_einsum_bits(size, monkeypatch):
    # both passes read _sibling_sums; the reference runs them on einsum's.
    # The last stack is as tall as a _leaf_stacks chunk, eight signed-zero
    # matrices repeated
    rng = np.random.default_rng(50 + size)
    stacks = [signed_zero_stack(rng, size, 4)]
    for make in (random_matrix, random_deterministic, random_mixed):
        stacks.append(np.stack([make(rng, size).probs for _ in range(4)]))
    tall = signed_zero_stack(rng, size, 8)
    stacks.append(tall[np.arange(_CHUNK_CELLS // size**2) % 8])
    for pq in stacks:
        perm = rng.permutation(size)
        pq = np.ascontiguousarray(pq[:, perm[:, None], perm])
        leaf = rng.integers(0, size, len(pq))
        levels = _reach(pq)
        alphas = _reach_adjoint(pq, levels, leaf)
        with monkeypatch.context() as patch:
            patch.setattr(bkt.winprob, "_sibling_sums", einsum_sibling_sums)
            want_levels = _reach(pq)
            want_alphas = _reach_adjoint(pq, want_levels, leaf)
        assert [lv.tobytes() for lv in levels] == [lv.tobytes() for lv in want_levels]
        assert alphas.tobytes() == want_alphas.tobytes()


def signed_zero_deterministic(rng, size):
    """Random 0/1 comparison matrix whose zeros are all -0.0."""
    arr = random_deterministic(rng, size).probs.copy()
    arr[arr == 0.0] = -0.0
    return validate_matrix(arr)


def full_kernel_reach(m, rows, player):
    """(B, rounds + 1) reach levels of the player from the whole bracket's
    forward pass, read at their leaf."""
    out = []
    for perm, pq in _leaf_stacks(m, rows):
        leaf = np.argmax(perm == player - 1, axis=1)
        out.append(np.stack([level[np.arange(len(perm)), leaf] for level in _reach(pq)], axis=1))
    return np.concatenate(out)


def neighbourhood(rng, size):
    """A random draw's block-swap neighbours, then as many random draws."""
    rows = (rng.permutation(size) + 1)[_swaps(size)]
    rows = np.concatenate([rows, [rng.permutation(size) + 1 for _ in range(len(rows))]])
    return _canon_rows(rows)


@pytest.mark.parametrize("size", [2, 4, 8, 16, 32, 64, 512])
def test_player_reach_equals_the_full_kernel_bit_for_bit(size):
    rng = np.random.default_rng(size)
    if size <= 64:
        rows = neighbourhood(rng, size)
    else:
        # at 512 players a part's labels take two bytes each: player 1 meets
        # (3, 4) in one row and (3, 260) in the other, whose labels agree
        # in their low bytes
        rows = np.tile(np.arange(1, size + 1), (8, 1))
        rows[1, [3, 259]] = 260, 4
        rows[2:] = [rng.permutation(size) + 1 for _ in range(6)]
        rows = _canon_rows(rows)
    matrices = (random_matrix(rng, size, interior=True), random_deterministic(rng, size),
                signed_zero_deterministic(rng, size))
    for m in matrices:
        for player in sorted({1, size // 2 + 1, size}):
            got = _player_reach(m, rows, player)
            want = full_kernel_reach(m, rows, player)
            assert got.shape == (len(rows), size.bit_length())
            assert got.tobytes() == want.tobytes()
            assert _player_reach(m, rows[:0], player).shape == (0, size.bit_length())


def test_player_reach_evaluates_each_distinct_part_once(monkeypatch):
    rng = np.random.default_rng(32)
    m = random_matrix(rng, 32, interior=True)
    rows = _canon_rows((rng.permutation(32) + 1)[_swaps(32)])
    player = int(rng.integers(1, 33))
    parts = {}  # part size: the distinct opponent parts of the player
    for row in rows.tolist():
        t = row.index(player)
        for k in range(5):
            start = (t >> k ^ 1) << k
            parts.setdefault(1 << k, set()).add(tuple(row[start:start + (1 << k)]))
    evaluated = {}
    reach = bkt.winprob._reach

    def counted(pq):
        evaluated[pq.shape[1]] = evaluated.get(pq.shape[1], 0) + len(pq)
        return reach(pq)

    monkeypatch.setattr(bkt.winprob, "_reach", counted)
    _player_reach(m, rows, player)
    # a part of one player is its P(v, u) alone
    assert evaluated == {size: len(found) for size, found in parts.items() if size > 1}
    assert sum(evaluated.values()) < len(rows) * 5 / 2


@settings(max_examples=30, deadline=None)
@given(st.one_of(st.integers(max_value=0), st.integers(min_value=5), st.booleans()))
def test_outcome_enumeration_rejects_bad_player(player):
    with pytest.raises(ParameterError):
        wp_by_outcome_enumeration(all_even(4), (1, 2, 3, 4), player)


def test_outcome_enumeration_guard():
    with pytest.raises(ScaleError):
        outcome_win_distribution(all_even(32), tuple(range(1, 33)))


def test_reach_table_shape_and_rounds():
    rng = np.random.default_rng(55)
    m = random_matrix(rng, 8)
    t = reach_table(m, (1, 2, 3, 4, 5, 6, 7, 8))
    assert t.rounds == 3


def test_reach_table_invariants():
    rng = np.random.default_rng(56)
    m = random_matrix(rng, 8)
    d = tuple(rng.permutation(8) + 1)
    t = reach_table(m, d)
    # every player reaches its own leaf with certainty
    for seat, pl in enumerate(d):
        assert t.probability(0, seat, pl) == pytest.approx(1.0)
    # per-node distributions are over exactly the players under the node
    for level in range(4):
        for node in range(8 >> level):
            under = t.players_under(level, node)
            assert len(under) == 1 << level
            dist = t.distribution(level, node)
            assert sum(dist.values()) == pytest.approx(1.0)
            assert set(dist) == set(under)


@pytest.mark.parametrize("node", [(1, 5), (2, 1), (-1, 0), (3, 0), (1.0, 0), (0, True)])
def test_reach_table_refuses_a_node_outside_the_tree(node):
    t = reach_table(gen_hard(2), (1, 2, 3, 4))
    for read in (t.players_under, t.distribution, lambda *at: t.probability(*at, 1)):
        with pytest.raises(ParameterError):
            read(*node)
    # a node in the tree gives 0.0 for a player outside it
    assert t.probability(1, 1, 1) == 0.0 and t.probability(2, 0, 3) == 0.0


@pytest.mark.parametrize("player", [True, 1.0, np.float64(2.0), 99, 5, 0, -1, "x", None])
def test_reach_table_refuses_a_player_that_is_not_a_player(player):
    t = reach_table(gen_hard(2), (1, 2, 3, 4))
    with pytest.raises(ParameterError, match=r"player must be an integer in 1\.\.4"):
        t.probability(2, 0, player)
    assert t.probability(2, 0, np.int64(1)) == 1.0 and t.probability(1, 1, np.int8(1)) == 0.0


def test_reach_table_uses_the_literal_tree():
    rng = np.random.default_rng(57)
    m = random_matrix(rng, 4)
    t = reach_table(m, (3, 1, 2, 4))
    assert t.players_under(1, 0) == (3, 1)
    assert t.players_under(1, 1) == (2, 4)


def test_reach_table_root_matches_win_probabilities():
    rng = np.random.default_rng(58)
    m = random_matrix(rng, 8)
    d = tuple(rng.permutation(8) + 1)
    t = reach_table(m, d)
    wp = win_probabilities(m, d)
    root = t.root_distribution()
    assert np.allclose(root, wp, atol=1e-12)


def test_accepts_draw_objects_and_sequences():
    m = gen_hard(2)
    a = win_probabilities(m, canonicalize((2, 1, 4, 3)))
    b = win_probabilities(m, [2, 1, 4, 3])
    assert np.array_equal(a, b)
