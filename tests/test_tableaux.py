import itertools

import pytest
from hypothesis import given, strategies as st

from conftest import tb
from dominotab.partitions import partitions_up_to
from dominotab.tableaux import (
    MAX_CANDIDATE_FILLS,
    PLAIN,
    SET_VALUED,
    SHIFTED,
    SHIFTED_SET_VALUED,
    Tableau,
    _candidate_fills,
    cardinality,
    enumerate_tableaux,
    format_fill,
    make_tableau,
    parse_fill,
    parse_letter,
    rank,
    reading_word,
    tableau_from_reading_word,
    validate_tableau,
    weight,
)

ALL_FAMILIES = (PLAIN, SET_VALUED, SHIFTED, SHIFTED_SET_VALUED)


def gt_pattern_count(shape, n):
    """Independent SSYT counting oracle via Gelfand-Tsetlin patterns.

    A pattern is a chain of rows of lengths n, n-1, ..., 1 starting from the
    padded shape, consecutive rows interlacing; patterns biject with SSYT
    having entries at most n.
    """
    if len(shape) > n:
        return 0

    def interlace_down(upper):
        ranges = [range(upper[i + 1], upper[i] + 1) for i in range(len(upper) - 1)]
        yield from itertools.product(*ranges)

    level = {tuple(shape) + (0,) * (n - len(shape)): 1}
    for _ in range(n - 1):
        nxt = {}
        for upper, ways in level.items():
            for mu in interlace_down(upper):
                nxt[mu] = nxt.get(mu, 0) + ways
        level = nxt
    return sum(level.values())


def test_letter_order_and_formatting():
    assert parse_letter("3'") == 5 and parse_letter("3") == 6
    assert format_fill((5,)) == "3'"
    assert format_fill((1, 6)) == "{1',3}"
    assert format_fill(()) == "X"
    assert parse_fill("{1,3'}") == (2, 5)
    # 1' < 1 < 2' < 2 < ...
    assert rank(1, True) < rank(1) < rank(2, True) < rank(2)


def test_validate_fixtures(ssyt_t1, set_valued_flat):
    assert validate_tableau(ssyt_t1)
    assert validate_tableau(set_valued_flat)
    bad = tb(SHIFTED, (2, 2), [["1'", "1"], ["X", "1"]])
    assert not validate_tableau(bad)  # unprimed 1 twice in column 2
    assert validate_tableau(tb(SHIFTED, (3, 3), [["1'", "1", "2'"], ["X", "2", "4"]]))
    assert validate_tableau(
        tb(SHIFTED, (4, 3, 3), [["2", "3'", "3", "3"], ["X", "3'", "4"], ["X", "X", "6"]])
    )


def test_validate_rejects_misplaced_x():
    assert not validate_tableau(tb(SHIFTED, (2, 2), [["X", "1"], ["X", "2"]]))
    assert not validate_tableau(tb(SHIFTED, (2, 2), [["1'", "1"], ["2", "2"]]))


def test_validate_raises_on_grid_mismatch():
    t = Tableau(PLAIN, (2, 1), (((2,), (2,)),))
    with pytest.raises(ValueError):
        validate_tableau(t)


def test_weight_fixtures(ssyt_t1):
    assert weight(ssyt_t1, 7) == (3, 0, 3, 2, 2, 0, 1)
    shifted = tb(
        SHIFTED, (4, 3, 3), [["2", "3'", "3", "3"], ["X", "3'", "4"], ["X", "X", "6"]]
    )
    assert weight(shifted, 6) == (0, 1, 4, 1, 0, 1)
    assert weight(Tableau(PLAIN, (), ()), 3) == (0, 0, 0)
    with pytest.raises(ValueError):
        weight(ssyt_t1, 5)


def test_cardinality(ssyt_t1, set_valued_flat):
    assert cardinality(ssyt_t1) == 11
    assert cardinality(set_valued_flat) == 8
    assert cardinality(Tableau(PLAIN, (), ())) == 0


def test_reading_word_fixtures(ssyt_t1, set_valued_flat):
    assert str(reading_word(ssyt_t1)) == "4 / 3,5 / 1,3,7 / 1,5 / 1 / 3 / 4"
    assert str(reading_word(set_valued_flat)) == "4 / {1,3},{5,9} / 3 / {6,7}"
    ssv = tb(SHIFTED_SET_VALUED, (2, 2), [["{1',2'}", "{2,3'}"], ["X", "{3',5}"]])
    assert str(reading_word(ssv)) == "{1',2'},{3',5} / {2,3'}"


def test_reading_word_roundtrip_fixtures(ssyt_t1, set_valued_flat):
    for t in (ssyt_t1, set_valued_flat):
        assert tableau_from_reading_word(t.family, reading_word(t)) == t


def test_from_reading_word_single_cell():
    from dominotab.tableaux import ReadingWord

    t = tableau_from_reading_word(PLAIN, ReadingWord(0, 1, (((2,),),)))
    assert t.shape == (1,) and t.rows == (((2,),),)


def test_from_reading_word_rejects_bad_profile():
    from dominotab.tableaux import ReadingWord

    # Two cells on D_0 but nothing on D_{-1}/D_1 is not a partition profile.
    with pytest.raises(ValueError):
        tableau_from_reading_word(PLAIN, ReadingWord(0, 1, (((2,), (2,)),)))


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_reading_word_roundtrip_exhaustive(family):
    for lam in partitions_up_to(6):
        if family.shifted and (not lam or lam[-1] < len(lam)):
            continue
        for t in enumerate_tableaux(family, lam, 3 if not family.set_valued else 2):
            assert tableau_from_reading_word(family, reading_word(t)) == t


def test_enumerate_counts():
    assert len(enumerate_tableaux(PLAIN, (2, 1), 3)) == 8
    assert len(enumerate_tableaux(SET_VALUED, (1,), 2)) == 3
    shifted = enumerate_tableaux(SHIFTED, (2, 2), 2)
    by_weight = {}
    for t in shifted:
        by_weight.setdefault(weight(t, 2), []).append(t)
    assert len(by_weight[(2, 1)]) == 4
    assert len(enumerate_tableaux(PLAIN, (), 3)) == 1


def test_enumerate_matches_gt_oracle():
    for lam in partitions_up_to(6):
        if not lam:
            continue
        for n in range(1, 5):
            expected = gt_pattern_count(lam, n)
            assert len(enumerate_tableaux(PLAIN, lam, n)) == expected, (lam, n)


def test_enumerate_validates_and_dedupes():
    for family in ALL_FAMILIES:
        for lam in ((2, 2), (3, 1), (4,)):
            if family.shifted and lam[-1] < len(lam):
                continue
            ts = enumerate_tableaux(family, lam, 2)
            assert len(set(ts)) == len(ts)
            for t in ts:
                assert validate_tableau(t)


def test_enumerate_rejects_bad_shifted_shape():
    with pytest.raises(ValueError):
        enumerate_tableaux(SHIFTED, (2, 1), 2)


def test_candidate_fills_limit():
    assert len(_candidate_fills(SET_VALUED, 16)) == MAX_CANDIDATE_FILLS
    assert len(_candidate_fills(SHIFTED_SET_VALUED, 8)) == MAX_CANDIDATE_FILLS
    assert len(_candidate_fills(PLAIN, 100)) == 100
    for family, letters in ((SET_VALUED, 17), (SHIFTED_SET_VALUED, 9)):
        with pytest.raises(ValueError):
            _candidate_fills(family, letters)
        with pytest.raises(ValueError):
            enumerate_tableaux(family, (1,), letters)


def test_set_valued_minima_restrict_to_plain():
    for t in enumerate_tableaux(SET_VALUED, (2, 2), 2):
        rows = tuple(tuple((fill[0],) for fill in row) for row in t.rows)
        assert validate_tableau(Tableau(PLAIN, t.shape, rows))


def test_shifted_x_cells_have_negative_content():
    for t in enumerate_tableaux(SHIFTED, (3, 2), 2):
        for r, c, fill in t.cells_with_fills():
            assert (fill == ()) == (c - r < 0)


@given(st.integers(min_value=1, max_value=40), st.booleans())
def test_letter_parse_format_roundtrip(idx, primed):
    r = rank(idx, primed)
    assert parse_letter(format_fill((r,))) == r
