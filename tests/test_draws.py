import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bkt import (
    Draw,
    ParameterError,
    PermutationError,
    ScaleError,
    canonicalize,
    count_draws,
    draw_from_json_dict,
    enumerate_draws,
)
from bkt.draws import _canon, _canon_rows
from helpers import is_canonical_sequence, round_signature, scramble


def test_counts_small():
    assert count_draws(1) == 1
    assert count_draws(2) == 3
    assert count_draws(3) == 315
    assert count_draws(4) == 638512875


def test_count_formula():
    import math
    for n in range(1, 6):
        size = 2 ** n
        assert count_draws(n) == math.factorial(size) // 2 ** (size - 1)


def test_count_rejects_nonpositive():
    with pytest.raises(ParameterError):
        count_draws(0)
    with pytest.raises(ParameterError):
        count_draws(-1)


def test_count_overflows_beyond_128_bits():
    count_draws(5)  # still representable
    with pytest.raises(OverflowError):
        count_draws(6)


def test_enumerate_two_players():
    assert [d.leaves for d in enumerate_draws(1)] == [(1, 2)]


def test_enumerate_four_players():
    got = [d.leaves for d in enumerate_draws(2)]
    assert got == [(1, 2, 3, 4), (1, 3, 2, 4), (1, 4, 2, 3)]


def test_enumerate_eight_players_is_complete_and_ordered():
    draws = [d.leaves for d in enumerate_draws(3)]
    assert len(draws) == 315
    assert len(set(draws)) == 315
    assert draws == sorted(draws)
    for leaves in draws:
        assert canonicalize(leaves).leaves == leaves
    # one canonical representative per equivalence class
    sigs = {round_signature(leaves) for leaves in draws}
    assert len(sigs) == 315


def test_enumerate_guard_and_override():
    with pytest.raises(ScaleError):
        enumerate_draws(4)
    first = list(itertools.islice(enumerate_draws(4, allow_large=True), 3))
    assert first[0].leaves == tuple(range(1, 17))
    assert all(d.is_canonical for d in first)


def test_enumerate_sixteen_players_prefix_matches_brute_force():
    # Every sequence starting 1..7 precedes every other one, so the canonical
    # ones among the 9! orders of the tail are the first canonical draws.
    want = [
        leaves
        for tail in itertools.permutations(range(8, 17))
        if is_canonical_sequence(leaves := (1, 2, 3, 4, 5, 6, 7, *tail))
    ]
    assert len(want) == 9 * 315
    got = itertools.islice(enumerate_draws(4, allow_large=True), len(want))
    assert [d.leaves for d in got] == want


def test_enumeration_covers_every_permutation_class():
    reps = {round_signature(d.leaves) for d in enumerate_draws(2)}
    for perm in itertools.permutations(range(1, 5)):
        assert round_signature(perm) in reps


def test_canonicalize_examples():
    assert canonicalize((2, 1)).leaves == (1, 2)
    assert canonicalize((3, 4, 1, 2)).leaves == (1, 2, 3, 4)
    assert canonicalize((2, 4, 3, 1)).leaves == (1, 3, 2, 4)


def test_canonicalize_accepts_lists_and_draws():
    d = canonicalize([4, 3, 2, 1])
    assert isinstance(d, Draw)
    assert canonicalize(d).leaves == d.leaves


def test_canonicalize_idempotent():
    rng = np.random.default_rng(3)
    for _ in range(50):
        perm = tuple(rng.permutation(8) + 1)
        d = canonicalize(perm)
        assert canonicalize(d.leaves).leaves == d.leaves


def test_canonicalize_rejects_non_permutations():
    with pytest.raises(PermutationError):
        canonicalize((1, 1, 2, 3))
    with pytest.raises(PermutationError):
        canonicalize((1, 2, 3))
    with pytest.raises(PermutationError):
        canonicalize((0, 1, 2, 3))
    with pytest.raises(PermutationError):
        canonicalize((1, 2, 3, 5))


@settings(max_examples=200, deadline=None)
@given(st.permutations(list(range(1, 9))))
def test_canonical_form_preserves_bracket(perm):
    d = canonicalize(perm)
    assert d.is_canonical
    assert round_signature(d.leaves) == round_signature(tuple(perm))


def test_equivalent_sequences_share_canonical_form():
    rng = np.random.default_rng(17)
    for _ in range(100):
        perm = tuple(rng.permutation(16) + 1)
        base = canonicalize(perm)
        twin = scramble(rng, perm)
        assert round_signature(twin) == round_signature(perm)
        assert canonicalize(twin).leaves == base.leaves


def test_equivalent_to():
    rng = np.random.default_rng(23)
    a = canonicalize((1, 2, 3, 4, 5, 6, 7, 8))
    assert a.equivalent_to(scramble(rng, a.leaves))
    assert not a.equivalent_to((1, 3, 2, 4, 5, 6, 7, 8))


def test_draw_properties():
    d = Draw((1, 2, 3, 4))
    assert d.size == 4
    assert d.rounds == 2
    assert d.is_canonical
    assert not Draw((2, 1, 3, 4)).is_canonical
    assert Draw((2, 1, 3, 4)).canonical().leaves == (1, 2, 3, 4)


def test_draw_is_immutable_and_ordered():
    d = Draw((1, 2, 3, 4))
    with pytest.raises(AttributeError):
        d.leaves = (1, 3, 2, 4)
    assert Draw((1, 2, 3, 4)) < Draw((1, 3, 2, 4))
    assert Draw((1, 2, 3, 4)) == Draw((1, 2, 3, 4))


def test_json_round_trip():
    d = draw_from_json_dict({"leaves": [2, 1]})
    assert d.leaves == (2, 1)  # loading preserves the literal tree
    assert d.to_json_dict() == {"leaves": [2, 1]}
    with pytest.raises(PermutationError):
        draw_from_json_dict({"tree": [1, 2]})
    with pytest.raises(PermutationError):
        draw_from_json_dict({"leaves": [1, 1]})


def test_draw_leaves_must_be_integers():
    for leaves in ((1, 2.5), (True, 2), (1.0, 2.0), ("1", "2"), ([1], 2), (1, None)):
        with pytest.raises(PermutationError):
            Draw(leaves)
    d = Draw(np.array([3, 1, 4, 2], dtype=np.int64))
    assert d.leaves == (3, 1, 4, 2) and all(type(x) is int for x in d.leaves)
    assert Draw(np.array([2, 1], dtype=np.uint8)).leaves == (2, 1)
    assert canonicalize(np.array([4, 3, 2, 1])).leaves == (1, 2, 3, 4)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda n: st.lists(st.permutations(list(range(1, 2**n + 1))), min_size=1, max_size=6)))
def test_canon_rows_matches_canon_row_by_row(perms):
    rows = np.array(perms)
    assert _canon_rows(rows) is rows
    assert rows.tolist() == [list(_canon(tuple(p))) for p in perms]
