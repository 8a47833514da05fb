import copy
import pickle

import pytest

from conftest import (
    diagonal_reading,
    dt,
    dt_cardinality,
    dt_weight,
    up_cell_count,
    up_domino_count,
)
from dominotab import domino_tableaux
from dominotab.cli import main
from dominotab.partitions import is_pavable, partitions_up_to, two_quotient
from dominotab.pavings import Domino, is_shifted_pavable, is_shifted_paving
from dominotab.domino_tableaux import (
    DominoTableau,
    enumerate_domino_tableaux,
    up_fingerprint,
    validate_domino_tableau,
)
from dominotab.tableaux import (
    PLAIN,
    SET_VALUED,
    SHIFTED,
    SHIFTED_SET_VALUED,
    X_FILL,
    ReadingWord,
)
from reference_fillstate import weakly_southeast

FAMILIES = (PLAIN, SET_VALUED, SHIFTED, SHIFTED_SET_VALUED)


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


def test_structure_checks_keep_their_order_and_messages():
    """A tableau built directly is proved on its first validation: its
    fills first, then its tiling, every time it is asked."""
    bad_fill_and_tiling = DominoTableau(SET_VALUED, (2, 2), ((Domino(1, 1, True), (4, 2)),))
    untiled = DominoTableau(PLAIN, (2, 2), ((Domino(1, 1, True), (2,)),))
    for _ in range(2):
        with pytest.raises(ValueError, match="strictly increasing"):
            validate_domino_tableau(bad_fill_and_tiling)
        with pytest.raises(ValueError, match="dominoes do not tile the shape"):
            validate_domino_tableau(untiled)


def test_a_parsed_tableau_is_tiled_and_ordered_once(monkeypatch, plain_example):
    """Parsing proves the tiling, which the split's validation reuses, and
    the validation and the split share one diagonal sort; the kept values
    change neither equality nor the hash."""
    from dominotab import canonical, pavings
    from dominotab.bijections import gamma_split

    text = canonical.serialize(plain_example)
    fresh = canonical.parse(text)
    tilings, sorts = [], []
    new, diag_order = pavings.Paving.__new__, domino_tableaux._diag_order
    monkeypatch.setattr(
        pavings.Paving, "__new__", lambda cls, *args: tilings.append(1) or new(cls, *args)
    )
    monkeypatch.setattr(
        domino_tableaux, "_diag_order", lambda pieces: sorts.append(1) or diag_order(pieces)
    )
    t = canonical.parse(text)
    assert len(tilings) == 1
    split = gamma_split(t)
    assert gamma_split(t) == split
    assert len(tilings) == 1 and len(sorts) == 1
    assert t == fresh == plain_example and hash(t) == hash(fresh) and repr(t) == repr(fresh)
    assert t.diagonal_order() == tuple(diag_order(t.pieces))
    # Copies of a tableau that keeps both values are the same value.
    for copied in (pickle.loads(pickle.dumps(t)), copy.deepcopy(t)):
        assert copied == t and hash(copied) == hash(t) and repr(copied) == repr(t)
        assert gamma_split(copied) == split


def test_listed_tableaux_share_their_down_pieces():
    """A listed tableau holds no __dict__, and the tableaux that end at one
    complete node hold the same X pieces, not equal copies."""
    listed = enumerate_domino_tableaux(SHIFTED_SET_VALUED, (4, 4, 4), 2)
    assert not hasattr(listed[0], "__dict__")
    by_down: dict[tuple, list[tuple]] = {}
    for t in listed:
        down = tuple(p for p in t.pieces if p[1] == X_FILL)
        by_down.setdefault(tuple(d for d, _ in down), []).append(down)
    groups = [downs for downs in by_down.values() if len(downs) > 1]
    assert groups
    for first, *rest in groups:
        for other in rest:
            assert all(a is b for a, b in zip(first, other, strict=True))


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


def grouped_reading(t):
    """The diagonal reading as it was built from the pieces themselves:
    grouped by crossing diagonal, each group sorted northwest first."""
    by_diag = {}
    for dom, fill in t.pieces:
        by_diag.setdefault(dom.crossing(), []).append((dom, fill))
    diags = sorted(d for d in by_diag if d >= 0 or not t.family.shifted)
    if not diags:
        return ReadingWord(start=0, step=2, segments=())
    segments = []
    for d in range(diags[0], diags[-1] + 2, 2):
        entry = sorted(by_diag.get(d, ()), key=lambda p: p[0].crossing_cell())
        segments.append(tuple(fill for _, fill in entry))
    return ReadingWord(start=diags[0], step=2, segments=tuple(segments))


def test_diagonal_reading_matches_the_grouped_reading():
    """On every domino tableau of every shape up to size 10 with 2 letters
    in the four families, and on untiled pieces whose crossings skip
    diagonal 2, or lie below D_0 only."""
    checked = 0
    for family in FAMILIES:
        for lam in partitions_up_to(10):
            if lam and is_pavable(lam) and (not family.shifted or is_shifted_pavable(lam)):
                for t in enumerate_domino_tableaux(family, lam, 2):
                    assert diagonal_reading(t) == grouped_reading(t), t
                    checked += 1
    assert checked > 1000
    gapped = [Domino(5, 1, False), Domino(1, 5, True), Domino(3, 1, True), Domino(1, 1, True)]
    for family in FAMILIES:
        for doms in (gapped, gapped[2:3]):
            t = DominoTableau(family, (6, 2, 2, 1, 1), tuple((d, (2,)) for d in doms))
            assert diagonal_reading(t) == grouped_reading(t), t
    assert str(diagonal_reading(DominoTableau(PLAIN, (6,), tuple((d, (2,)) for d in gapped)))) == (
        "1 / 1 / 1 /  / 1"
    )


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
            assert dt_cardinality(t) >= sum(lam) // 2
            if dt_cardinality(t) == sum(lam) // 2:
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


def test_enumerate_domino_tableaux_past_the_listing_limit_raises(monkeypatch, capsys):
    """Past MAX_LISTED the listing raises from its count, before any
    ``DominoTableau`` is built, and ``enumerate`` exits 2."""
    count = len(enumerate_domino_tableaux(SET_VALUED, (4, 2), 3))
    built = 0

    class CountedTableau(DominoTableau):
        def __init__(self, *args):
            nonlocal built
            built += 1
            super().__init__(*args)

    monkeypatch.setattr(domino_tableaux, "DominoTableau", CountedTableau)
    monkeypatch.setattr(domino_tableaux, "MAX_LISTED", count)
    assert len(enumerate_domino_tableaux(SET_VALUED, (4, 2), 3)) == built == count
    built = 0
    monkeypatch.setattr(domino_tableaux, "MAX_LISTED", count - 1)
    with pytest.raises(ValueError, match=f"more than {count - 1} domino tableaux"):
        enumerate_domino_tableaux(SET_VALUED, (4, 2), 3)
    argv = ["enumerate", "--kind", "domino", "--family", "set-valued", "--shape", "[4,2]"]
    assert main(argv + ["--max-letter", "3"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert built == 0


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
def test_fill_search_adds_pieces_in_diagonal_order_without_overlap(family, monkeypatch):
    """The listing's walk judges each domino against the frontier of pieces
    placed before it, so it must place them in diagonal reading order, and
    never two that overlap: on every fold the domino overlaps no frontier
    piece and comes after each of them, on every shape up to size 10 that
    the family paves, with 2 letters.  (The pieces that left the frontier
    cross two or more diagonals lower, so they can neither overlap nor
    follow the domino.)"""
    fold_bounds = domino_tableaux.fold_bounds
    folds = 0

    def checked_fold(dom, frontier, set_valued):
        nonlocal folds
        cells = set(dom.cells())
        for placed, _ in frontier:
            assert not cells & set(placed.cells()), (placed, dom)
            assert placed.crossing() <= dom.crossing(), (placed, dom)
            assert (placed.crossing(), placed.crossing_cell()) < (
                dom.crossing(),
                dom.crossing_cell(),
            ), (placed, dom)
        folds += 1
        return fold_bounds(dom, frontier, set_valued)

    monkeypatch.setattr(domino_tableaux, "fold_bounds", checked_fold)
    shapes = tableaux = 0
    for lam in partitions_up_to(10):
        if lam and is_pavable(lam) and (not family.shifted or is_shifted_pavable(lam)):
            shapes += 1
            tableaux += len(enumerate_domino_tableaux(family, lam, 2))
    assert tableaux > 0
    assert folds > shapes  # the walk folds on every listed shape
