import hashlib

import pytest

import reference_pavings
from conftest import region_split
from dominotab import pavings
from dominotab.cli import main
from dominotab.partitions import is_pavable, partitions_up_to, two_quotient
from dominotab.pavings import (
    Domino,
    Paving,
    _least_tiling,
    _tiling_automaton,
    enumerate_pavings,
    is_shifted_pavable,
    is_shifted_paving,
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


# The sha256 of every paving of every shape up to size 16, in shape order and
# then listing order: 915 shapes, 2,671 pavings.
PAVINGS_16 = "393482aac5269aa611d8cfad94bb0594ff141ef204c067ae9426672af9d10667"


def test_pavings_unchanged_up_to_size_16():
    h = hashlib.sha256()
    listed = 0
    for lam in partitions_up_to(16):
        for p in enumerate_pavings(lam):
            listed += 1
            h.update(repr((lam, [(d.row, d.col, d.horiz) for d in p.dominoes])).encode() + b"\n")
    assert (listed, h.hexdigest()) == (2671, PAVINGS_16)


def test_path_count_matches_the_listing(monkeypatch):
    """The automaton's paths are counted before any paving is listed.  On
    every pavable shape up to size 16 the count is the number listed: a
    limit of exactly that many lists them all, and one less raises."""
    limit = pavings.MAX_LISTED
    checked = 0
    for lam in partitions_up_to(16):
        monkeypatch.setattr(pavings, "MAX_LISTED", limit)
        listed = enumerate_pavings(lam)
        if not listed:
            assert not is_pavable(lam), lam
            continue
        monkeypatch.setattr(pavings, "MAX_LISTED", len(listed))
        assert enumerate_pavings(lam) == listed, lam
        monkeypatch.setattr(pavings, "MAX_LISTED", len(listed) - 1)
        with pytest.raises(ValueError, match=f"more than {len(listed) - 1} pavings"):
            enumerate_pavings(lam)
        checked += 1
    assert checked == sum(1 for lam in partitions_up_to(16) if is_pavable(lam))


def test_pavings_are_valid_and_distinct():
    for lam in partitions_up_to(10):
        ps = enumerate_pavings(lam)
        assert len(set(p.dominoes for p in ps)) == len(ps)
        assert bool(ps) == is_pavable(lam)
        for p in ps:
            covered = [cell for d in p.dominoes for cell in d.cells()]
            assert len(covered) == sum(lam) == len(set(covered))


def test_type_counts_match_quotient():
    for lam in partitions_up_to(12):
        q1, q2 = two_quotient(lam)
        for p in enumerate_pavings(lam):
            types = [d.dtype() for d in p.dominoes]
            assert types.count(1) == sum(q1)
            assert types.count(2) == sum(q2)


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


def test_shifted_paving_matches_owner_grid_reference():
    """``is_shifted_paving`` against the owner-grid test, on the fixtures
    and on every paving of every pavable shape up to size 22."""
    assert reference_pavings.is_shifted_paving(LEFT_PAVING) is is_shifted_paving(LEFT_PAVING)
    assert reference_pavings.is_shifted_paving(RIGHT_PAVING) is is_shifted_paving(RIGHT_PAVING)
    checked = shifted = 0
    for lam in partitions_up_to(22):
        if not is_pavable(lam):
            continue
        for p in enumerate_pavings(lam):
            expected = reference_pavings.is_shifted_paving(p)
            assert is_shifted_paving(p) is expected, p
            checked += 1
            shifted += expected
    assert (checked, shifted) == (35_881, 3_375)


def test_is_shifted_pavable():
    assert is_shifted_pavable((6, 5, 5, 4))
    assert not is_shifted_pavable((5, 5, 4, 3, 3, 2))
    assert is_shifted_pavable(())


def test_region_split_simple():
    p = Paving((2,), (Domino(1, 1, True),))
    up, down = region_split(p)
    assert up == (Domino(1, 1, True),) and down == ()


def test_region_split_left_paving():
    # Derived by reading the crossing diagonal of each domino in the fixture:
    # only the two verticals in columns 1 and 2 of rows 3-4 cross D_{-2}.
    up, down = region_split(LEFT_PAVING)
    assert len(up) == 8
    assert len(down) == 2
    assert set(down) == {Domino(3, 1, False), Domino(3, 2, False)}


def test_region_split_partitions_dominoes():
    for lam in partitions_up_to(10):
        for p in enumerate_pavings(lam):
            up, down = region_split(p)
            assert set(up) | set(down) == set(p.dominoes)
            assert all(d.crossing() >= 0 for d in up)
            assert all(d.crossing() < 0 for d in down)


def test_up_domino_contents_straddle_at_most_one():
    # A domino crossing D_0 may dip one cell below the diagonal but no deeper.
    for lam in partitions_up_to(10):
        for p in enumerate_pavings(lam):
            for d in region_split(p)[0]:
                assert min(d.contents()) >= -1 or d.crossing() > 0


def test_column_one_vertical_on_d0_is_not_forbidden():
    # Present in the valid left paving above: the vertical at (1,1).
    assert Domino(1, 1, False) in LEFT_PAVING.dominoes
    assert is_shifted_paving(LEFT_PAVING)


def test_automaton_size_is_limited(monkeypatch, capsys):
    # The one-row shape (3000) needs 1,501 states, the most any test or
    # benchmark workload reaches.
    assert pavings.MAX_AUTOMATON_STATES > 1_501
    assert _tiling_automaton((3000,), False, pavings.INF) is not None
    monkeypatch.setattr(pavings, "MAX_AUTOMATON_STATES", 1_000)
    with pytest.raises(ValueError, match="more than 1000 automaton states"):
        _tiling_automaton((3000,), False, pavings.INF)
    argv = ["genfun", "--family", "plain", "--shape", "[3000]", "--vars", "1", "--domino"]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_pavings_past_the_listing_limit_raise(monkeypatch, capsys):
    """The rows (2,) * k have Fibonacci-many pavings.  The automaton's paths
    are counted before any paving is listed, so 1,500 such rows raise at
    once, and the count is exact at the limit."""
    tall = [2] * 1500
    with pytest.raises(ValueError, match=f"more than {pavings.MAX_LISTED} pavings"):
        enumerate_pavings(tall)
    assert main(["pavings", "--shape", str(tall)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    monkeypatch.setattr(pavings, "MAX_LISTED", 5)
    assert len(enumerate_pavings((2, 2, 2, 2))) == 5
    with pytest.raises(ValueError, match="more than 5 pavings"):
        enumerate_pavings((2, 2, 2, 2, 2))


def _automaton_nodes(root):
    """The automaton under ``root`` node by node, in first-visit order: each
    node as its edges, (domino, rank window, child's index) in edge order,
    or None once complete, and its down dominoes.  Two automata with equal
    listings have equal nodes, edges and edge order, and share alike."""
    if root is None:
        return None
    order, index, out = [root], {id(root): 0}, []
    for edges, down in order:  # the list grows as new children are met
        row = None
        if edges is not None:
            row = []
            for dom, window, child in edges:
                if id(child) not in index:
                    index[id(child)] = len(order)
                    order.append(child)
                row.append((dom, dom.horiz, window, index[id(child)]))
        out.append((row, down))
    return out


def test_automaton_matches_the_cell_set_build():
    """Node for node, edge order included, on every pavable shape up to size
    16 and every shifted-pavable one, under each top rank of 0 to 4 letters
    and under INF."""
    built = 0
    for lam in partitions_up_to(16):
        for shifted, ok in ((False, is_pavable), (True, is_shifted_pavable)):
            if not ok(lam):
                continue
            for top in (0, 2, 4, 6, 8, pavings.INF):
                got = _tiling_automaton(lam, shifted, top)
                want = reference_pavings._tiling_automaton(lam, shifted, top)
                assert _automaton_nodes(got) == _automaton_nodes(want), (lam, shifted, top)
                built += 1
    assert built == 3_144
