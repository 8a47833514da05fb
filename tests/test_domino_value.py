"""The value contract of ``pavings.Domino``.

A domino is equal to, hashes like and sorts like its key (row, col, horiz):
by row, then column, then vertical before horizontal.  It keeps its
geometry through pickling and deep copies, and neither its fields nor its
cached geometry can be assigned or deleted.
"""

import copy
import pickle
import random

import pytest

from dominotab.pavings import Domino, domino

ARGS = [(r, c, h) for r in range(1, 7) for c in range(1, 7) for h in (False, True)]


def geometry(d):
    return (d.cells(), d.contents(), d.crossing(), d.crossing_cell(), d.dtype())


@pytest.mark.parametrize("make", [Domino, domino], ids=["fresh", "interned"])
def test_equality_hash_and_order_follow_the_key(make):
    dominoes = [make(*a) for a in ARGS]
    for a, d in zip(ARGS, dominoes):
        assert (d.row, d.col, d.horiz) == a
        for b, e in zip(ARGS, dominoes):
            assert (d == e) == (a == b) and (d != e) == (a != b), (a, b)
            assert (d < e) == (a < b) and (d <= e) == (a <= b), (a, b)
            assert (d > e) == (a > b) and (d >= e) == (a >= b), (a, b)
        assert hash(d) == hash(make(*a))
    assert len({*dominoes}) == len(ARGS)
    order = list(range(len(ARGS)))
    random.Random("domino order").shuffle(order)
    assert sorted(dominoes[k] for k in order) == dominoes
    # Vertical sorts before horizontal on the same cell.
    assert make(2, 3, False) < make(2, 3, True) < make(2, 4, False) < make(3, 1, False)


def test_repr_is_the_field_form():
    assert repr(Domino(1, 2, True)) == "Domino(row=1, col=2, horiz=True)"
    assert repr(domino(3, 1, False)) == "Domino(row=3, col=1, horiz=False)"
    assert Domino(row=1, col=2, horiz=True) == Domino(1, 2, True)


@pytest.mark.parametrize("clone", [pickle.loads, copy.deepcopy], ids=["pickle", "deepcopy"])
def test_a_copy_keeps_the_geometry(clone):
    for a in ARGS:
        d = domino(*a)
        c = clone(pickle.dumps(d)) if clone is pickle.loads else clone(d)
        assert type(c) is Domino and c == d and hash(c) == hash(d)
        assert geometry(c) == geometry(d), a


@pytest.mark.parametrize("name", ["row", "_crossing"])
def test_fields_and_geometry_are_read_only(name):
    d = domino(2, 2, True)
    before = geometry(d)
    with pytest.raises(AttributeError):
        setattr(d, name, 5)
    with pytest.raises(AttributeError):
        delattr(d, name)
    assert (d.row, d.col, d.horiz) == (2, 2, True) and geometry(d) == before


def test_replace_and_make_build_the_geometry():
    d = domino(2, 3, False)
    for e in (d._replace(row=4, horiz=True), Domino._make((4, 3, True))):
        assert type(e) is Domino and e == domino(4, 3, True)
        assert geometry(e) == geometry(domino(4, 3, True))


def test_domino_interns():
    for a in ARGS:
        assert domino(*a) is domino(*a)


def test_comparisons_and_hash_are_the_tuples_own():
    # Listing sorts dominoes by the hundred thousand: a Python-level
    # comparison or hash here would undo the C ones.
    for name in ("__lt__", "__le__", "__gt__", "__ge__", "__eq__", "__ne__", "__hash__"):
        assert getattr(Domino, name) is getattr(tuple, name), name
