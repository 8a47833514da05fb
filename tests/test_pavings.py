import pytest

from dominotab import pavings
from dominotab.cli import main
from dominotab.partitions import is_pavable, partitions_up_to, size, two_quotient
from dominotab.pavings import (
    Domino,
    Paving,
    _least_tiling,
    _tiling_automaton,
    enumerate_pavings,
    is_shifted_pavable,
    is_shifted_paving,
    region_split,
)


def test_least_tiling():
    assert _least_tiling([]) == ()
    assert _least_tiling([(1, 1)]) is None
    # A vertical domino first, then a horizontal one after backtracking.
    assert _least_tiling([(1, 1), (1, 2), (2, 1), (3, 1)]) == (
        Domino(1, 1, True),
        Domino(2, 1, False),
    )
    # Two rows of 2,000 cells: 2,000 vertical dominoes, without recursion.
    block = [(r, c) for r in (1, 2) for c in range(1, 2001)]
    assert _least_tiling(block) == tuple(Domino(1, c, False) for c in range(1, 2001))


def test_domino_geometry():
    d = Domino(1, 1, True)
    assert d.cells() == ((1, 1), (1, 2))
    assert d.contents() == (0, 1)
    assert d.crossing() == 0
    assert d.dtype() == 2
    d = Domino(2, 2, False)
    assert d.contents() == (0, -1)
    assert d.crossing() == 0
    assert d.dtype() == 1
    d = Domino(2, 1, False)
    assert d.crossing() == -2
    assert d.dtype() == 2
    d = Domino(1, 3, False)
    assert d.crossing() == 2


def test_enumerate_pavings_counts():
    assert enumerate_pavings((5, 3, 3, 2, 1)) == []
    assert len(enumerate_pavings((2,))) == 1
    assert len(enumerate_pavings((2, 2))) == 2
    assert len(enumerate_pavings(())) == 1  # the empty paving


def test_pavings_are_valid_and_distinct():
    for lam in partitions_up_to(10):
        ps = enumerate_pavings(lam)
        assert len(set(p.dominoes for p in ps)) == len(ps)
        assert bool(ps) == is_pavable(lam)
        for p in ps:
            covered = [cell for d in p.dominoes for cell in d.cells()]
            assert len(covered) == size(lam) == len(set(covered))


def test_type_counts_match_quotient():
    for lam in partitions_up_to(12):
        q1, q2 = two_quotient(lam)
        for p in enumerate_pavings(lam):
            types = [d.dtype() for d in p.dominoes]
            assert types.count(1) == size(q1)
            assert types.count(2) == size(q2)


def test_paving_invariant_rejects_overlap():
    with pytest.raises(ValueError):
        Paving((2, 2), (Domino(1, 1, True), Domino(1, 2, False), Domino(2, 1, True)))


LEFT_PAVING = Paving(
    (6, 5, 5, 4),
    (
        Domino(1, 1, False),
        Domino(1, 2, True),
        Domino(2, 2, True),
        Domino(1, 4, False),
        Domino(1, 5, True),
        Domino(3, 1, False),
        Domino(3, 2, False),
        Domino(3, 3, True),
        Domino(4, 3, True),
        Domino(2, 5, False),
    ),
)

RIGHT_PAVING = Paving(
    (6, 5, 5, 4),
    (
        Domino(1, 1, False),
        Domino(1, 2, True),
        Domino(2, 2, True),
        Domino(1, 4, False),
        Domino(1, 5, True),
        Domino(3, 1, False),
        Domino(3, 2, False),
        Domino(3, 3, False),
        Domino(3, 4, False),
        Domino(2, 5, False),
    ),
)


def test_shifted_paving_fixtures():
    assert is_shifted_paving(LEFT_PAVING)
    # The right paving has a vertical on D_0 whose left neighbour sits
    # entirely below D_0.
    assert not is_shifted_paving(RIGHT_PAVING)
    for p in enumerate_pavings((5, 5, 4, 3, 3, 2)):
        assert not is_shifted_paving(p)


def test_is_shifted_pavable():
    assert is_shifted_pavable((6, 5, 5, 4))
    assert not is_shifted_pavable((5, 5, 4, 3, 3, 2))
    assert is_shifted_pavable(())


def test_region_split_simple():
    p = Paving((2,), (Domino(1, 1, True),))
    split = region_split(p)
    assert split.up == (Domino(1, 1, True),) and split.down == ()


def test_region_split_left_paving():
    # Derived by reading the crossing diagonal of each domino in the fixture:
    # only the two verticals in columns 1 and 2 of rows 3-4 cross D_{-2}.
    split = region_split(LEFT_PAVING)
    assert len(split.up) == 8
    assert len(split.down) == 2
    assert set(split.down) == {Domino(3, 1, False), Domino(3, 2, False)}


def test_region_split_partitions_dominoes():
    for lam in partitions_up_to(10):
        for p in enumerate_pavings(lam):
            split = region_split(p)
            assert set(split.up) | set(split.down) == set(p.dominoes)
            assert all(d.crossing() >= 0 for d in split.up)
            assert all(d.crossing() < 0 for d in split.down)


def test_up_domino_contents_straddle_at_most_one():
    # A domino crossing D_0 may dip one cell below the diagonal but no deeper.
    for lam in partitions_up_to(10):
        for p in enumerate_pavings(lam):
            for d in region_split(p).up:
                assert min(d.contents()) >= -1 or d.crossing() > 0


def test_column_one_vertical_on_d0_is_not_forbidden():
    # Present in the valid left paving above: the vertical at (1,1).
    assert Domino(1, 1, False) in LEFT_PAVING.dominoes
    assert is_shifted_paving(LEFT_PAVING)


def test_automaton_size_is_limited(monkeypatch, capsys):
    # The one-row shape (3000) needs 1,501 states, the most any test or
    # benchmark workload reaches.
    assert pavings.MAX_AUTOMATON_STATES > 1_501
    assert _tiling_automaton((3000,), False) is not None
    monkeypatch.setattr(pavings, "MAX_AUTOMATON_STATES", 1_000)
    with pytest.raises(ValueError, match="more than 1000 automaton states"):
        _tiling_automaton((3000,), False)
    argv = ["genfun", "--family", "plain", "--shape", "[3000]", "--vars", "1", "--domino"]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
