import pytest

from conftest import dt
from dominotab.partitions import is_pavable, partitions_up_to, size, two_quotient, up_cell_count
from dominotab.pavings import Domino, is_shifted_pavable, is_shifted_paving
from dominotab.domino_tableaux import (
    DominoTableau,
    diagonal_reading,
    dt_cardinality,
    dt_weight,
    enumerate_domino_tableaux,
    up_domino_count,
    up_fingerprint,
    validate_domino_tableau,
    weakly_southeast,
)
from dominotab.tableaux import PLAIN, SET_VALUED, SHIFTED, SHIFTED_SET_VALUED


def test_validate_fixtures(plain_example, set_valued_example):
    assert validate_domino_tableau(plain_example)
    assert validate_domino_tableau(set_valued_example)


def test_column_strictness_rejected():
    bad = dt(PLAIN, (2, 2), [(1, 1, "H", "2"), (2, 1, "H", "2")])
    assert not validate_domino_tableau(bad)
    good = dt(PLAIN, (2, 2), [(1, 1, "V", "2"), (1, 2, "V", "2")])
    assert validate_domino_tableau(good)
    # A vertical 2 directly above another domino filled 2 in the same column.
    stacked = dt(
        PLAIN,
        (2, 2, 1, 1),
        [(1, 1, "V", "2"), (1, 2, "V", "2"), (3, 1, "V", "2")],
    )
    assert not validate_domino_tableau(stacked)
    assert validate_domino_tableau(
        dt(PLAIN, (2, 2, 1, 1), [(1, 1, "V", "2"), (1, 2, "V", "2"), (3, 1, "V", "3")])
    )


def test_malformed_structure_raises():
    with pytest.raises(ValueError):
        validate_domino_tableau(
            DominoTableau(PLAIN, (2, 2), ((Domino(1, 1, True), (2,)),))
        )


def test_unsorted_fill_raises():
    # Rules read a fill's minimum as fill[0], so the order is checked first.
    unsorted = DominoTableau(SET_VALUED, (2,), ((Domino(1, 1, True), (4, 2)),))
    with pytest.raises(ValueError):
        validate_domino_tableau(unsorted)


def test_weakly_southeast():
    d = Domino(1, 1, True)
    assert weakly_southeast(d, d)
    assert not weakly_southeast(Domino(1, 3, True), Domino(2, 1, False))
    assert not weakly_southeast(Domino(2, 2, False), Domino(1, 3, True))
    assert weakly_southeast(Domino(2, 2, False), Domino(2, 3, True))


def test_diagonal_reading_fixtures(plain_example, set_valued_example):
    assert str(diagonal_reading(plain_example)) == "2 / 1,3 / 1,6 / 5"
    assert (
        str(diagonal_reading(set_valued_example))
        == "5 / {3,4},10 / {1,2},3,{7,8,9} / {3,7},{4,6},9 / {6,8}"
    )


def test_shifted_reading_and_equivalence(shifted_equivalent_triple):
    T, Tp, Tpp = shifted_equivalent_triple
    expected = "1',1,2',3',3 / 1,2',3' / 3',4 / 3"
    for x in shifted_equivalent_triple:
        assert validate_domino_tableau(x)
        assert str(diagonal_reading(x)) == expected
    assert up_fingerprint(T) == up_fingerprint(Tp) == up_fingerprint(Tpp)


def test_shifted_set_valued_equivalent_pair(shifted_set_valued_equivalent_pair):
    A, B = shifted_set_valued_equivalent_pair
    assert validate_domino_tableau(A) and validate_domino_tableau(B)
    expected = "{1,2},1,3',{4',7},4' / {1,2'},3',{3,4'} / 2"
    assert str(diagonal_reading(A)) == expected
    assert str(diagonal_reading(B)) == expected
    assert up_fingerprint(A) == up_fingerprint(B)
    assert A != B


def test_fingerprint_differs_on_fill_change(shifted_equivalent_triple):
    T = shifted_equivalent_triple[0]
    pieces = []
    for dom, fill in T.pieces:
        if dom == Domino(1, 7, True):
            fill = (8,)  # bump the 3 to a 4
        pieces.append((dom, fill))
    other = DominoTableau(SHIFTED, T.shape, tuple(pieces))
    assert up_fingerprint(other) != up_fingerprint(T)


def test_fingerprint_requires_shifted_family(plain_example):
    with pytest.raises(ValueError):
        up_fingerprint(plain_example)


def test_set_valued_example_details(set_valued_example):
    assert dt_cardinality(set_valued_example) == 17
    # {3,4} sits left of {3}: fine because the dominoes have different types.
    doms = {d: f for d, f in set_valued_example.pieces}
    assert doms[Domino(2, 1, False)] == (6, 8) and doms[Domino(2, 2, False)] == (6,)
    assert Domino(2, 1, False).dtype() != Domino(2, 2, False).dtype()


def test_enumerate_plain_counts():
    ts = enumerate_domino_tableaux(PLAIN, (2,), 1)
    assert len(ts) == 1 and ts[0].pieces[0][0].horiz
    with pytest.raises(ValueError):
        enumerate_domino_tableaux(PLAIN, (5, 3, 3, 2, 1), 2)
    with pytest.raises(ValueError):
        enumerate_domino_tableaux(SHIFTED, (5, 5, 4, 3, 3, 2), 2)


def test_enumerate_valid_and_distinct():
    for family in (PLAIN, SET_VALUED):
        for lam in partitions_up_to(8):
            if not lam or not is_pavable(lam):
                continue
            ts = enumerate_domino_tableaux(family, lam, 2)
            assert len(set(ts)) == len(ts)
            for t in ts:
                assert validate_domino_tableau(t)


def test_enumerate_shifted_representatives_use_shifted_pavings():
    ts = enumerate_domino_tableaux(SHIFTED, (6, 5, 5, 4), 2)
    assert ts
    for t in ts:
        assert is_shifted_paving(t.paving())


def test_enumerate_shifted_dedupes_by_fingerprint():
    for family in (SHIFTED, SHIFTED_SET_VALUED):
        for lam in partitions_up_to(10):
            if not lam or not is_pavable(lam) or not is_shifted_pavable(lam):
                continue
            ts = enumerate_domino_tableaux(family, lam, 2)
            prints = [up_fingerprint(t) for t in ts]
            assert len(set(prints)) == len(prints)
            for t in ts:
                assert validate_domino_tableau(t)
                assert is_shifted_paving(t.paving())


def test_set_valued_cardinality_bound():
    for lam in ((2, 2), (4,), (3, 1)):
        for t in enumerate_domino_tableaux(SET_VALUED, lam, 2):
            assert dt_cardinality(t) >= size(lam) // 2
            if dt_cardinality(t) == size(lam) // 2:
                assert all(len(f) == 1 for _, f in t.pieces)


def test_shifted_set_valued_up_count_bound():
    for t in enumerate_domino_tableaux(SHIFTED_SET_VALUED, (2, 2), 2):
        up_letters = sum(len(f) for _, f in t.up_pieces())
        assert up_letters >= up_domino_count(t)


def test_min_restriction_is_plain():
    for t in enumerate_domino_tableaux(SET_VALUED, (3, 1), 2):
        mins = tuple((d, (f[0],)) for d, f in t.pieces)
        assert validate_domino_tableau(DominoTableau(PLAIN, t.shape, mins))


def test_weight_counts_domino_fill_once(plain_example):
    assert dt_weight(plain_example, 6) == (2, 1, 1, 0, 1, 1)


def test_up_domino_count_constant_across_class():
    for lam, letters in (((2, 2), 1), ((6, 5, 5, 4), 2)):
        q1, q2 = two_quotient(lam)
        expected = up_cell_count(q1) + up_cell_count(q2)
        ts = enumerate_domino_tableaux(SHIFTED, lam, letters)
        assert ts
        for t in ts:
            assert up_domino_count(t) == expected
