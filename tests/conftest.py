"""Shared fixtures: worked tableaux exercised across the test modules."""

import pytest

from dominotab.pavings import Domino
from dominotab.polyring import Polynomial
from dominotab.domino_tableaux import DominoTableau, make_domino_tableau
from dominotab.tableaux import (
    PLAIN,
    SET_VALUED,
    SHIFTED,
    SHIFTED_SET_VALUED,
    X_FILL,
    ReadingWord,
    check_fill,
    letter_index,
    make_tableau,
    parse_letter,
)


def parse_fill(text):
    """A fill from its text: ``X``, one letter, or ``{a,b,...}``."""
    text = text.strip()
    if text == "X":
        return X_FILL
    if text.startswith("{") and text.endswith("}"):
        text = text[1:-1]
    return check_fill(tuple(parse_letter(part) for part in text.split(",")))


def up_cell_count(shape):
    """Number of cells of nonnegative content (weakly northeast of D_0)."""
    return sum(max(0, length - (r - 1)) for r, length in enumerate(shape, start=1))


def dt(family, shape, pieces):
    """Build a domino tableau from (row, col, 'H'|'V', fill-text) tuples."""
    return make_domino_tableau(
        family,
        shape,
        [(Domino(r, c, o == "H"), parse_fill(f)) for r, c, o, f in pieces],
    )


def tb(family, shape, rows):
    return make_tableau(family, shape, [[parse_fill(x) for x in row] for row in rows])


def region_split(paving):
    """The dominoes of a paving with crossing >= 0 (the up region) and the
    rest (the down region)."""
    up = tuple(d for d in paving.dominoes if d.crossing() >= 0)
    down = tuple(d for d in paving.dominoes if d.crossing() < 0)
    return up, down


def homogeneous_component(poly, degree):
    return Polynomial(poly.n, {m: c for m, c in poly.terms.items() if sum(m) == degree})


def min_degree(poly):
    return min((sum(m) for m in poly.terms), default=0)


def cardinality(t):
    """Total letters over the non-X cells of a flat tableau."""
    return sum(len(fill) for _, _, fill in t.cells_with_fills())


def dt_cardinality(t):
    """Total letters over all dominoes (X contributes nothing)."""
    return sum(len(fill) for _, fill in t.pieces)


def up_domino_count(t):
    return len(t.up_pieces())


def dt_weight(t, n):
    """Exponent vector of a domino tableau or of its pieces; each domino
    contributes its fill once, and e_i counts i and i' together."""
    exps = [0] * n
    for _, fill in t.pieces if isinstance(t, DominoTableau) else t:
        for letter in fill:
            exps[letter_index(letter) - 1] += 1
    return tuple(exps)


def diagonal_reading(t):
    """The reading word of a domino tableau: a segment per even diagonal
    ascending, each read northwest to southeast, from the tableau's
    diagonal order; a diagonal between the first and the last that crosses
    no piece reads as an empty segment.  Shifted families start at D_0, so
    the X-filled down region never appears."""
    order = t.diagonal_order()
    if t.family.shifted:
        order = [p for p in order if p[0].crossing() >= 0]
    if not order:
        return ReadingWord(start=0, step=2, segments=())
    start = order[0][0].crossing()
    segments = [[] for _ in range(start, order[-1][0].crossing() + 2, 2)]
    for dom, fill in order:
        segments[(dom.crossing() - start) // 2].append(fill)
    return ReadingWord(start=start, step=2, segments=tuple(map(tuple, segments)))


@pytest.fixture
def plain_example():
    """Plain domino tableau of shape (5,4,2,1), reading word 2 / 1,3 / 1,6 / 5."""
    return dt(
        PLAIN,
        (5, 4, 2, 1),
        [
            (1, 1, "V", "1"),
            (3, 1, "V", "2"),
            (1, 2, "H", "1"),
            (2, 2, "V", "3"),
            (1, 4, "H", "5"),
            (2, 3, "H", "6"),
        ],
    )


@pytest.fixture
def plain_bijection_case():
    """The worked plain split: shape (6,4,4,2,1,1) versus its two halves."""
    T = dt(
        PLAIN,
        (6, 4, 4, 2, 1, 1),
        [
            (1, 1, "H", "1"),
            (2, 1, "V", "2"),
            (2, 2, "V", "2"),
            (1, 3, "V", "2"),
            (1, 4, "V", "3"),
            (1, 5, "H", "4"),
            (3, 3, "H", "4"),
            (4, 1, "H", "3"),
            (5, 1, "V", "4"),
        ],
    )
    t1 = tb(PLAIN, (2, 1, 1), [["2", "2"], ["3"], ["4"]])
    t2 = tb(PLAIN, (3, 2), [["1", "3", "4"], ["2", "4"]])
    return T, t1, t2


@pytest.fixture
def set_valued_example():
    """Set-valued domino tableau of shape (6,5,5,3,1) with |T| = 17."""
    return dt(
        SET_VALUED,
        (6, 5, 5, 3, 1),
        [
            (1, 1, "H", "{1,2}"),
            (2, 1, "V", "{3,4}"),
            (2, 2, "V", "3"),
            (1, 3, "V", "{3,7}"),
            (1, 4, "V", "{4,6}"),
            (1, 5, "H", "{6,8}"),
            (2, 5, "V", "9"),
            (3, 3, "H", "{7,8,9}"),
            (4, 2, "H", "10"),
            (4, 1, "V", "5"),
        ],
    )


@pytest.fixture
def set_valued_bijection_case():
    """The worked set-valued split: shape (6,4,2,2) versus its halves."""
    T = dt(
        SET_VALUED,
        (6, 4, 2, 2),
        [
            (1, 1, "H", "{1,2}"),
            (2, 1, "V", "{3,6}"),
            (2, 2, "V", "{3,4}"),
            (1, 3, "V", "{4,7}"),
            (1, 4, "V", "4"),
            (1, 5, "H", "{4,5,6}"),
            (4, 1, "H", "5"),
        ],
    )
    t1 = tb(SET_VALUED, (2, 1), [["{3,4}", "{4,7}"], ["5"]])
    t2 = tb(SET_VALUED, (3, 1), [["{1,2}", "4", "{4,5,6}"], ["{3,6}"]])
    return T, t1, t2


SHIFTED_UP = [
    (1, 1, "V", "1'"),
    (1, 2, "V", "1"),
    (1, 3, "V", "1"),
    (1, 4, "V", "2'"),
    (1, 5, "H", "3'"),
    (1, 7, "H", "3"),
    (2, 6, "H", "4"),
    (2, 5, "V", "3'"),
    (3, 3, "H", "2'"),
    (4, 4, "H", "3'"),
    (5, 4, "H", "3"),
]


@pytest.fixture
def shifted_equivalent_triple():
    """Three equivalent shifted domino tableaux of shape (8,7,5,5,5)."""
    shape = (8, 7, 5, 5, 5)
    T = dt(
        SHIFTED,
        shape,
        SHIFTED_UP
        + [(3, 1, "V", "X"), (3, 2, "V", "X"), (4, 3, "V", "X"), (5, 1, "H", "X")],
    )
    Tp = dt(
        SHIFTED,
        shape,
        SHIFTED_UP
        + [(3, 1, "H", "X"), (4, 1, "H", "X"), (4, 3, "V", "X"), (5, 1, "H", "X")],
    )
    Tpp = dt(
        SHIFTED,
        shape,
        SHIFTED_UP
        + [(3, 1, "H", "X"), (4, 1, "V", "X"), (4, 2, "H", "X"), (5, 2, "H", "X")],
    )
    return T, Tp, Tpp


@pytest.fixture
def shifted_bijection_case(shifted_equivalent_triple):
    T = shifted_equivalent_triple[0]
    t1 = tb(SHIFTED, (2, 2), [["1'", "1"], ["X", "3"]])
    t2 = tb(
        SHIFTED,
        (4, 4, 3),
        [["1", "2'", "3'", "3"], ["X", "2'", "3'", "4"], ["X", "X", "3'"]],
    )
    return T, t1, t2


@pytest.fixture
def shifted_set_valued_bijection_case():
    """The worked shifted set-valued split: shape (6,5,5,5,1)."""
    T = dt(
        SHIFTED_SET_VALUED,
        (6, 5, 5, 5, 1),
        [
            (1, 1, "V", "{1',1}"),
            (1, 2, "V", "1"),
            (1, 3, "H", "2'"),
            (1, 5, "H", "{2,3'}"),
            (2, 3, "H", "{2',2}"),
            (3, 1, "H", "X"),
            (3, 3, "H", "{3',3}"),
            (4, 1, "V", "X"),
            (4, 2, "H", "X"),
            (2, 5, "V", "{3,4'}"),
            (4, 4, "H", "4'"),
        ],
    )
    t1 = tb(SHIFTED_SET_VALUED, (2,), [["{1',1}", "{2',2}"]])
    t2 = tb(
        SHIFTED_SET_VALUED,
        (3, 3, 3),
        [["1", "2'", "{2,3'}"], ["X", "{3',3}", "{3,4'}"], ["X", "X", "4'"]],
    )
    return T, t1, t2


SSV_PAIR_UP = [
    (1, 1, "V", "{1,2}"),
    (1, 2, "V", "1"),
    (1, 3, "H", "{1,2'}"),
    (1, 5, "H", "2"),
    (2, 3, "H", "3'"),
    (3, 3, "H", "3'"),
    (2, 5, "V", "{3,4'}"),
    (4, 4, "H", "{4',7}"),
    (5, 4, "H", "4'"),
]


@pytest.fixture
def shifted_set_valued_equivalent_pair():
    """Equivalent shifted set-valued pair; the figures give shape (6,5,5,5,5).

    The surrounding prose names (6,5,5,5,3), but the stated reading word has
    five D_0 entries, which forces five cells on the main diagonal.
    """
    shape = (6, 5, 5, 5, 5)
    A = dt(
        SHIFTED_SET_VALUED,
        shape,
        SSV_PAIR_UP
        + [(3, 1, "H", "X"), (4, 1, "V", "X"), (4, 2, "H", "X"), (5, 2, "H", "X")],
    )
    B = dt(
        SHIFTED_SET_VALUED,
        shape,
        SSV_PAIR_UP
        + [(3, 1, "V", "X"), (3, 2, "V", "X"), (5, 1, "H", "X"), (4, 3, "V", "X")],
    )
    return A, B


@pytest.fixture
def ssyt_t1():
    """The running semistandard example of shape (5,3,3)."""
    return tb(
        PLAIN,
        (5, 3, 3),
        [["1", "1", "1", "3", "4"], ["3", "3", "5"], ["4", "5", "7"]],
    )


@pytest.fixture
def set_valued_flat():
    """Set-valued tableau of shape (3,2) with weight x1 x3^2 x4 x6 x7 x9."""
    return tb(SET_VALUED, (3, 2), [["{1,3}", "3", "{6,7}"], ["4", "{5,9}"]])
