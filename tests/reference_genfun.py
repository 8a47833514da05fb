"""The generating functions that the transfers in ``polyring`` replaced.

``streamed_genfun`` sums sign * x^weight over every fill ``domino_fills``
yields, recomputing the weight and the sign of each tableau from its pieces;
no ``DominoTableau`` is built.  ``enumerated_genfun`` sums the same over
every flat tableau ``enumerate_tableaux`` lists.  They are kept here only as
the oracles of the differential tests in ``test_differential.py``.
"""

from __future__ import annotations

from dominotab.domino_tableaux import Piece, domino_fills, dt_weight
from dominotab.partitions import Shape, check_partition, up_cell_count
from dominotab.polyring import Monomial, Polynomial
from dominotab.tableaux import Family, Tableau, cardinality, enumerate_tableaux, weight


def _domino_sign(family: Family, pieces: tuple[Piece, ...], shape: Shape) -> int:
    if not family.set_valued:
        return 1
    if family.shifted:
        up = [fill for dom, fill in pieces if dom.crossing() >= 0]
        excess = sum(len(fill) for fill in up) - len(up)
    else:
        excess = sum(len(fill) for _, fill in pieces) - sum(shape) // 2
    return -1 if excess % 2 else 1


def streamed_genfun(family: Family, shape: Shape, n: int) -> Polynomial:
    """Signed weight generating function over the domino tableaux of a shape,
    one yielded fill at a time: the set-valued sum signs by letters minus
    domino count, the shifted set-valued sum by up-region letters minus
    up-region domino count."""
    shape = check_partition(shape)
    terms: dict[Monomial, int] = {}
    for pieces in domino_fills(family, shape, n):
        m = dt_weight(pieces, n)
        terms[m] = terms.get(m, 0) + _domino_sign(family, pieces, shape)
    return Polynomial(n, terms)


def _flat_sign(family: Family, t: Tableau, shape: Shape) -> int:
    if not family.set_valued:
        return 1
    base = up_cell_count(shape) if family.shifted else sum(shape)
    return -1 if (cardinality(t) - base) % 2 else 1


def enumerated_genfun(family: Family, shape: Shape, n: int) -> Polynomial:
    """Signed weight generating function over the flat tableaux of a shape,
    one listed tableau at a time: the set-valued sum signs by letters minus
    cells, the shifted set-valued sum by letters minus up-region cells."""
    shape = check_partition(shape)
    terms: dict[Monomial, int] = {}
    for t in enumerate_tableaux(family, shape, n):
        m = weight(t, n)
        terms[m] = terms.get(m, 0) + _flat_sign(family, t, shape)
    return Polynomial(n, terms)
