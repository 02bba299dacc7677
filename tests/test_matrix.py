import numpy as np
import pytest

from bkt import (
    ComparisonMatrix,
    ComplementarityError,
    DimensionError,
    ParameterError,
    RangeError,
    gen_hard,
    matrix_from_json_dict,
    validate_matrix,
)
from bkt import matrix
from bkt.matrix import _coerce_cells
from helpers import random_matrix


def test_accepts_two_player_deterministic():
    m = validate_matrix([[0, 1], [0, 0]])
    assert m.n == 1
    assert m.size == 2
    assert m.deterministic
    assert m.xi == 1.0
    assert m.probability(1, 2) == 1.0
    assert m.probability(2, 1) == 0.0


def test_accepts_interior_entries():
    m = validate_matrix([[0, 0.7], [0.3, 0]])
    assert not m.deterministic
    assert m.xi == pytest.approx(0.3)


def test_validity_bound_is_min_nonzero_distance_to_corners():
    arr = [
        [0.0, 1.0, 0.25, 0.5],
        [0.0, 0.0, 0.9, 0.5],
        [0.75, 0.1, 0.0, 0.5],
        [0.5, 0.5, 0.5, 0.0],
    ]
    m = validate_matrix(arr)
    assert m.xi == pytest.approx(0.1)


def test_all_deterministic_bound_is_one():
    arr = np.triu(np.ones((4, 4)), 1)
    arr = arr + (1.0 - arr.T) * (np.tri(4, k=-1) > 0)
    m = validate_matrix(arr)
    assert m.deterministic
    assert m.xi == 1.0


@pytest.mark.parametrize("shape", [(3, 3), (5, 5), (6, 6), (2, 4)])
def test_rejects_non_power_of_two_or_non_square(shape):
    with pytest.raises(DimensionError):
        validate_matrix(np.full(shape, 0.5))


def test_rejects_one_by_one():
    with pytest.raises(DimensionError):
        validate_matrix([[0.0]])


def test_rejects_ragged_rows():
    with pytest.raises(DimensionError):
        validate_matrix([[0, 0.5], [0.5]])


def test_rejects_entry_above_one():
    with pytest.raises(RangeError) as exc:
        validate_matrix([[0, 1.1], [-0.1, 0]])
    assert "1.1" in str(exc.value)


def test_rejects_negative_entry():
    with pytest.raises(RangeError):
        validate_matrix([[0, -0.2], [1.2, 0]])


@pytest.mark.parametrize("big", [10**400, -10**400, 2**1024],
                         ids=["10**400", "-10**400", "2**1024"])
def test_an_integer_past_the_float_range_is_a_range_error(big):
    # as 1e400 reads as inf: outside [0, 1], not a bare OverflowError
    with pytest.raises(RangeError) as exc:
        validate_matrix([[None, big], [0, None]])
    assert str(exc.value) == f"entry {float(np.sign(big) * np.inf)!r} outside [0, 1]"
    with pytest.raises(RangeError):
        validate_matrix(np.array([[None, big], [0, None]], dtype=object))


def test_rejects_nan_off_diagonal():
    with pytest.raises(RangeError):
        validate_matrix([[0, float("nan")], [0.5, 0]])


def test_rejects_non_numeric_off_diagonal():
    with pytest.raises(RangeError):
        validate_matrix([[0, "x"], [0.5, 0]])


def test_diagonal_content_is_ignored():
    for diag in (None, 0.25, "anything", float("nan")):
        m = validate_matrix([[diag, 0.6], [0.4, diag]])
        assert m.probs[0, 0] == 0.0
        assert m.probs[1, 1] == 0.0
        assert m.probability(1, 2) == pytest.approx(0.6)


def test_complementarity_violation_reports_worst_pair():
    with pytest.raises(ComplementarityError) as exc:
        validate_matrix([[0, 0.7], [0.4, 0]])
    assert "P[1,2]" in str(exc.value)


def test_complementarity_tolerance_is_tight():
    validate_matrix([[0, 0.7], [0.3 + 9e-10, 0]])
    with pytest.raises(ComplementarityError):
        validate_matrix([[0, 0.7], [0.3 + 2e-9, 0]])


def _whole_table_message(arr):
    """The message the whole-table check names: the first largest gap."""
    gap = np.abs(arr + arr.T - 1.0)
    np.fill_diagonal(gap, 0.0)
    i, j = np.unravel_index(int(np.argmax(gap)), gap.shape)
    return f"P[{i + 1},{j + 1}] + P[{j + 1},{i + 1}] = {float(arr[i, j] + arr[j, i])!r} != 1"


@pytest.mark.parametrize("breaks", [
    [(5, 9, 0.01)],  # a diagonal tile
    [(3, 200, 0.01)],  # the tile above the diagonal
    [(250, 255, 0.01)],  # the last tile
    [(200, 3, 0.25)],  # below the diagonal: read from its mirror tile
    [(5, 9, 1e-6), (250, 255, 0.3)],  # the first tile fails, the last holds the largest gap
    [(130, 140, 0.2), (2, 3, 0.2)],  # equal gaps: the first in row order is named
])
def test_a_complement_failure_names_the_whole_tables_pair(breaks):
    arr = random_matrix(np.random.default_rng(256), 256, interior=True).probs.copy()
    assert matrix._TILE < 256
    for i, j, by in breaks:
        arr[i, j] += by
    with pytest.raises(ComplementarityError) as exc:
        validate_matrix(arr)
    assert str(exc.value) == _whole_table_message(arr)


@pytest.mark.parametrize("tile", [1, 3, 8, 128])
def test_the_complement_tiles_cover_every_pair(monkeypatch, tile):
    monkeypatch.setattr(matrix, "_TILE", tile)
    base = random_matrix(np.random.default_rng(tile), 16).probs
    validate_matrix(base)
    for i, j in zip(*np.triu_indices(16, 1)):
        for a, b in ((i, j), (j, i)):
            arr = base.copy()
            arr[a, b] = 0.5 * (arr[a, b] + (arr[a, b] < 0.5))  # halfway to the far corner
            with pytest.raises(ComplementarityError) as exc:
                validate_matrix(arr)
            assert str(exc.value) == _whole_table_message(arr)


def test_near_corner_entries_are_not_deterministic():
    m = validate_matrix([[0, 1 - 1e-12], [1e-12, 0]])
    assert not m.deterministic
    assert m.xi == pytest.approx(1e-12)


def test_with_entry_sets_both_sides():
    m = validate_matrix([[0, 0.5], [0.5, 0]])
    m2 = m.with_entry(1, 2, 0.8)
    assert m2.probability(1, 2) == pytest.approx(0.8)
    assert m2.probability(2, 1) == pytest.approx(0.2)
    # the original is untouched
    assert m.probability(1, 2) == pytest.approx(0.5)


def test_with_entry_rejects_out_of_range():
    m = validate_matrix([[0, 0.5], [0.5, 0]])
    with pytest.raises(RangeError):
        m.with_entry(1, 2, 1.5)


def test_probability_rejects_diagonal_query():
    m = validate_matrix([[0, 0.5], [0.5, 0]])
    with pytest.raises(ValueError):
        m.probability(1, 1)


@pytest.mark.parametrize("i, j", [(0, 2), (2, 0), (5, 1), (1, 5), (-3, 1), (True, 2),
                                  (1.0, 2), ("1", 2), (None, 2)])
def test_entries_are_read_and_written_only_between_players(i, j):
    # player 0 once read, and wrote, player 4's row through index -1
    m = gen_hard(2)
    with pytest.raises(ParameterError, match=r"player must be an integer in 1\.\.4"):
        m.probability(i, j)
    with pytest.raises(ParameterError):
        m.with_entry(i, j, 0.3)


def test_with_entry_rejects_a_diagonal_entry():
    with pytest.raises(ValueError):
        gen_hard(2).with_entry(2, 2, 0.3)


def test_a_numpy_integer_is_a_player():
    m = gen_hard(2)
    assert m.probability(np.int64(2), np.int32(1)) == m.probability(2, 1)
    assert np.array_equal(m.with_entry(np.int64(1), 2, 0.3).probs, m.with_entry(1, 2, 0.3).probs)


def test_json_round_trip():
    m = validate_matrix([[0, 0.7, 0.2, 1.0],
                         [0.3, 0, 0.5, 0.5],
                         [0.8, 0.5, 0, 0.0],
                         [0.0, 0.5, 1.0, 0]])
    d = m.to_json_dict()
    assert d["n"] == 2
    assert d["matrix"][0][0] is None
    m2 = matrix_from_json_dict(d)
    assert np.array_equal(m.probs, m2.probs)


def test_json_dict_requires_matrix_key():
    with pytest.raises(DimensionError):
        matrix_from_json_dict({"n": 1})


def test_json_dict_checks_declared_size():
    with pytest.raises(DimensionError):
        matrix_from_json_dict({"n": 2, "matrix": [[None, 0.5], [0.5, None]]})


@pytest.mark.parametrize("n", [True, 1.0, "1", [1]])
def test_json_dict_declared_n_must_be_an_integer(n):
    table = [[None, 0.5], [0.5, None]]
    with pytest.raises(DimensionError):
        matrix_from_json_dict({"n": n, "matrix": table})
    assert matrix_from_json_dict({"n": 1, "matrix": table}).n == 1
    assert matrix_from_json_dict({"matrix": table}).n == 1


def test_json_dict_without_n_is_accepted():
    m = matrix_from_json_dict({"matrix": [[None, 0.5], [0.5, None]]})
    assert m.size == 2


def test_matrix_is_immutable():
    m = validate_matrix([[0, 0.5], [0.5, 0]])
    with pytest.raises(ValueError):
        m.probs[0, 1] = 0.9
    with pytest.raises(AttributeError):
        m.n = 3


def test_validate_is_idempotent_on_comparison_matrix():
    m = validate_matrix([[0, 0.5], [0.5, 0]])
    m2 = validate_matrix(m)
    assert isinstance(m2, ComparisonMatrix)
    assert np.array_equal(m.probs, m2.probs)


def _outcome(build):
    try:
        return "ok", build().probs.tolist()
    except Exception as e:  # the type and the message are what is compared
        return type(e).__name__, str(e)


@pytest.mark.parametrize("raw, kind", [
    ([[None, 0.5], [0.5]], "DimensionError"),  # ragged
    ([[[0.5], [0.5]], [[0.5], [0.5]]], "RangeError"),  # 3-D
    ([[None, {}], [{}, None]], "RangeError"),  # dict cells
    ([[None, 10**400], [0, None]], "RangeError"),  # too big for a float
    ([[None, "0.25"], [" 0.75 ", None]], "ok"),  # numeric strings
    ([[None, "1_0"], ["-9", None]], "RangeError"),
    ([[None, "x"], [0.5, None]], "RangeError"),
    ([["anything", 0.5], [0.5, "anything"]], "ok"),
    ([[None, True], [False, None]], "ok"),
    (["01", "00"], "ok"),  # rows of characters, as the per-cell path reads them
    ([0.5, 0.5], "DimensionError"),
    ([], "DimensionError"),
    ([[]], "DimensionError"),
    (0.5, "DimensionError"),
    # arrays that are not of bools or real numbers are read as their lists
    (np.array([["0", "0.25"], [" 0.75 ", "0"]]), "ok"),
    (np.array([["0", "1_0"], ["-9", "0"]]), "RangeError"),
    (np.array([["0", "x"], ["0.5", "0"]]), "RangeError"),
    (np.array([["anything", "0.5"], ["0.5", "anything"]]), "ok"),
    (np.array(["01", "00"]), "ok"),
    (np.array([[0, 1j], [1, 0]]), "RangeError"),  # not the 0/1 table of its real parts
])
def test_one_call_table_reader_agrees_with_per_cell_reader(raw, kind):
    fast = _outcome(lambda: validate_matrix(raw))
    cells = raw.tolist() if isinstance(raw, np.ndarray) else raw
    assert fast == _outcome(lambda: validate_matrix(_coerce_cells(cells)))
    assert fast[0] == kind


def test_json_dict_rows_hold_plain_floats():
    m = validate_matrix([[0, 0.7], [0.3, 0]])
    rows = m.to_json_dict()["matrix"]
    assert rows == [[None, 0.7], [0.3, None]]
    assert all(type(v) is float for row in rows for v in row if v is not None)
