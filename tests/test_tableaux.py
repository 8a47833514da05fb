import itertools

import pytest
from hypothesis import given, strategies as st

import reference_tableaux
from conftest import cardinality, parse_fill, tb
from dominotab import tableaux
from dominotab.domino_tableaux import enumerate_domino_tableaux
from dominotab.partitions import is_staircase_admissible, partitions_up_to
from dominotab.tableaux import (
    MAX_CANDIDATE_FILLS,
    PLAIN,
    SET_VALUED,
    SHIFTED,
    SHIFTED_SET_VALUED,
    Tableau,
    _candidate_fills,
    check_fill,
    enumerate_tableaux,
    fill_classes,
    flat_walk,
    format_fill,
    format_letter,
    make_tableau,
    parse_letter,
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
    assert [parse_letter(x) for x in ("1'", "1", "2'", "2")] == [1, 2, 3, 4]


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


def test_from_reading_word_rejects_an_invalid_word():
    from dominotab.tableaux import ReadingWord

    # The profile is the one-row shape (2), but the row decreases, 2 then 1.
    with pytest.raises(ValueError, match="^reading word does not define a valid tableau$"):
        tableau_from_reading_word(PLAIN, ReadingWord(0, 1, (((4,),), ((2,),))))


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
    assert len(_candidate_fills(PLAIN, 65535)) == MAX_CANDIDATE_FILLS
    assert len(_candidate_fills(SHIFTED, 32767)) == MAX_CANDIDATE_FILLS - 1
    for family, letters in (
        (PLAIN, 65536),
        (SHIFTED, 32768),
        (SET_VALUED, 17),
        (SHIFTED_SET_VALUED, 9),
    ):
        with pytest.raises(ValueError):
            _candidate_fills(family, letters)
        with pytest.raises(ValueError):
            enumerate_tableaux(family, (1,), letters)


def test_a_negative_letter_count_is_rejected():
    """Both listings raise ValueError for max_letter < 0 in every family,
    where the set-valued families raised a shift-count error and the others
    listed nothing, or the empty tableau; a count of 0 stays valid."""
    for family in (PLAIN, SET_VALUED, SHIFTED, SHIFTED_SET_VALUED):
        for listing in (enumerate_tableaux, enumerate_domino_tableaux):
            for shape in ((2,), ()):
                with pytest.raises(ValueError, match="letter count must not be negative, got -1"):
                    listing(family, shape, -1)
            assert listing(family, (2,), 0) == []
            assert len(listing(family, (), 0)) == 1


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
    r = 2 * idx - primed
    assert parse_letter(format_fill((r,))) == r


def _outcome(fn, arg):
    try:
        return fn(arg)
    except ValueError as exc:
        return f"ValueError: {exc}"


def test_letter_codec_matches_reference():
    # Every rank of the 65,535 letters a plain fill may use, primed or not.
    for r in range(1, 2 * MAX_CANDIDATE_FILLS + 1):
        text = format_letter(r)
        assert text == reference_tableaux.format_letter(r), r
        assert format_fill((r,)) == reference_tableaux.format_fill((r,)) == text
        assert parse_letter(text) == r
        assert check_fill((r,)) == reference_tableaux.check_fill((r,)) == (r,)
        pair = (r, r + 1)
        assert format_fill(pair) == reference_tableaux.format_fill(pair)
    assert format_fill(()) == reference_tableaux.format_fill(()) == "X"
    texts = (" 3 ", "03", "3'", " 7' ", "0", "0'", "", "'", "1''", "-1", "+1", "1 '")
    for text in texts:
        assert _outcome(parse_letter, text) == _outcome(reference_tableaux.parse_letter, text)
    fills = ((), (0,), (-1,), (2, 1), (1, 1), (1, 2, 5), (0, 3), (True,), (2.0,))
    for fill in fills:
        assert _outcome(check_fill, fill) == _outcome(reference_tableaux.check_fill, fill)


def test_non_ascii_digits_are_bad_letters():
    # str.isdigit holds for both, so the old parser crashed on the
    # superscript and read the Arabic-Indic digit as 3.
    assert reference_tableaux.parse_letter("\u0663") == 6
    with pytest.raises(ValueError, match="invalid literal"):
        reference_tableaux.parse_letter("\u00b2")
    for text in ("\u00b2", "\u0663", "\u0663'"):
        with pytest.raises(ValueError, match="bad letter"):
            parse_letter(text)


def test_enumerate_tableaux_past_the_listing_limit_raises(monkeypatch):
    count = len(enumerate_tableaux(SHIFTED_SET_VALUED, (3, 2), 2))
    monkeypatch.setattr(tableaux, "MAX_LISTED", count)
    assert len(enumerate_tableaux(SHIFTED_SET_VALUED, (3, 2), 2)) == count
    monkeypatch.setattr(tableaux, "MAX_LISTED", count - 1)
    with pytest.raises(ValueError, match=f"more than {count - 1} tableaux"):
        enumerate_tableaux(SHIFTED_SET_VALUED, (3, 2), 2)


def _limit_fill_floor(monkeypatch, most):
    """Patch ``tableaux.fill_floor`` to fail the test on its call after the
    ``most``-th, and return the list its calls are counted in."""
    calls = []
    fill_floor = tableaux.fill_floor

    def counted(left, above):
        calls.append(None)
        assert len(calls) <= most, "too many fills judged"
        return fill_floor(left, above)

    monkeypatch.setattr(tableaux, "fill_floor", counted)
    return calls


def test_a_tall_column_lists_without_dead_fills(monkeypatch):
    """Plain (1^18) over 18 letters has one tableau.  A search that tries
    every partial fill judges 2^18 - 1 of them; the walk judges each cell's
    few states once."""
    calls = _limit_fill_floor(monkeypatch, 100)
    (t,) = enumerate_tableaux(PLAIN, (1,) * 18, 18)
    assert t.rows == tuple(((2 * i,),) for i in range(1, 19))
    assert len(calls) == 18


def test_a_listing_past_the_limit_stops_early(monkeypatch):
    """Plain (6^6) over 20 letters has far more than MAX_LISTED tableaux.
    The listing raises as soon as the partial fillings up to one cell
    outnumber the limit, after about 29,000 fills judged, where counting
    all the tableaux would judge millions."""
    _limit_fill_floor(monkeypatch, 100_000)
    with pytest.raises(ValueError, match=f"more than {tableaux.MAX_LISTED} tableaux"):
        enumerate_tableaux(PLAIN, (6,) * 6, 20)


def test_every_state_of_the_flat_walk_completes():
    """Every link the flat walk records enters the total or a state with a
    link out, so no partial filling is dead and the listing may stop as
    soon as those up to one cell outnumber MAX_LISTED: every family, every
    shape up to size 7, 1 to 3 letters."""
    links_seen = 0
    for family in ALL_FAMILIES:
        for letters in (1, 2, 3):
            counts = [(fills[0], ((0, len(fills)),)) for fills in fill_classes(family, letters)]
            for lam in partitions_up_to(7):
                if family.shifted and not is_staircase_admissible(lam):
                    continue
                links = []
                total = flat_walk(family, lam, counts, links)
                left = {id(terms) for terms, *_ in links}
                for *_, acc in links:
                    assert acc is total or id(acc) in left, (family.name, lam, letters)
                links_seen += len(links)
    assert links_seen > 4000
