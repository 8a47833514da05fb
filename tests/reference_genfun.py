"""The generating functions that the transfers in ``polyring`` replaced.

``streamed_genfun`` sums sign * x^weight over every fill ``domino_fills``
yields, recomputing the weight and the sign of each tableau from its pieces;
no ``DominoTableau`` is built.  ``fillstate_domino_genfun`` is the domino
transfer as it was when it rebuilt a checker from each state's frontier
and judged every edge's fills through it; the checker is
``IndexedFillState``, which states the rules apart from ``piece_relation``.
``enumerated_genfun`` sums the same over every flat tableau the reference
enumerator in ``reference_tableaux.py`` lists, so it shares no fill rule
with ``polyring.genfun``.  They are kept here only as the oracles of the
differential tests in ``test_differential.py``.

``fillstate_domino_genfun`` builds its fill classes and its result with the
copies of ``_fill_classes`` and ``_unpack`` below, as they were before the
library cached the classes and built its transfer results unchecked: a
fresh list per call, and a ``Polynomial`` that checks every monomial.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from conftest import cardinality, up_cell_count
from dominotab.domino_tableaux import Piece, domino_fills, dt_weight, tiling_root
from dominotab.partitions import Shape, check_partition
from dominotab.pavings import Node
from dominotab.polyring import MAX_TRANSFER_STATES, MAX_TRANSFER_TERMS, Monomial, Polynomial
from dominotab.tableaux import Family, Fill, Tableau, _candidate_fills, letter_index, weight
from reference_fillstate import IndexedFillState
from reference_tableaux import enumerate_tableaux


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


def _unpack(n: int, bits: int, packed: dict[int, int]) -> Polynomial:
    """The polynomial of packed terms: a monomial's exponent j is its field
    j of ``bits`` bits, counting from 0 at the low end."""
    field = (1 << bits) - 1
    shifts = [bits * j for j in range(n)]
    return Polynomial(n, {tuple([m >> s & field for s in shifts]): c for m, c in packed.items()})


def _fill_classes(family: Family, n: int, bits: int) -> list[tuple[Fill, list[tuple[int, int]]]]:
    """The candidate fills over n letters grouped by (min, max), sorted by
    min.  A class is its first fill and the sum of sign * x^weight over its
    fills, as (packed exponents, coefficient) terms: a fill's sign is
    (-1)^(|fill| - 1), and its letters of index j add 1 to field j - 1 of
    ``bits`` bits."""
    classes: dict[tuple[int, int], tuple[Fill, dict[int, int]]] = {}
    for fill in _candidate_fills(family, n):
        first, terms = classes.setdefault((fill[0], fill[-1]), (fill, {}))
        exps = sum(1 << bits * (letter_index(r) - 1) for r in fill)
        terms[exps] = terms.get(exps, 0) + (-1 if len(fill) % 2 == 0 else 1)
    return sorted((first, list(terms.items())) for first, terms in classes.values())


def fillstate_domino_genfun(family: Family, shape: Shape, n: int) -> Polynomial:
    """Signed weight generating function over domino tableaux of a shape.

    Signs mirror the flat case with cells replaced by dominoes: the set-valued
    sum signs by letters minus domino count, the shifted set-valued sum by
    up-region letters minus up-region domino count.  So each non-X domino
    contributes its own factor (-1)^(|fill| - 1) x^weight(fill), and the X
    dominoes below D_0 contribute nothing.

    The sum is a transfer over the shape's tiling automaton, one even cell
    per layer, and lists no tableau.  A state is an automaton node and the
    frontier: the (domino, fill) of every placed piece whose crossing is at
    least c - 2, where c is the crossing of the next even cell.  Each state
    holds the signed weight polynomial of the prefixes that reach it, and
    prefixes with equal states are summed once.  The frontier is enough to
    judge every later piece, whose crossing d is at least c:

    * the ordering rules read the neighbour cells of a piece, whose content
      is at least d - 2, and only pieces of crossing at least d - 2 cover
      such cells;
    * the southeast rule reads only the pieces of crossing d - 2 and d + 2;
    * the multiplicity rule of the shifted families is part of the ordering
      rules: ``IndexedFillState.bounds`` reads it, as ``fill_floor`` and
      its mirror, on the same neighbour cells.

    So a state's ``IndexedFillState`` is rebuilt from its frontier alone,
    and its ``bounds`` and ``check`` judge the fills of each edge as in
    ``domino_fills``.  Those rules read a candidate fill only through its
    minimum and maximum, so the fills are judged and stored by (min, max)
    class, and each class carries the summed terms of its fills.  The
    2-quotient enters only the shifted shape test, never the sum, and the
    bijection not at all, so the identity check stays independent of them.

    A layer of more than MAX_TRANSFER_STATES states, or of more than
    MAX_TRANSFER_TERMS terms in its polynomials, raises ValueError.
    """
    shape = check_partition(shape)
    root = tiling_root(family, shape)
    if root[0] is None:  # the empty shape
        return Polynomial.one(n)
    bits = sum(shape).bit_length()  # no letter index occurs more than |shape| times
    classes = _fill_classes(family, n, bits)
    class_mins = [fill[0] for fill, _ in classes]
    max_rank = class_mins[-1]
    total: dict[int, int] = {}
    # A state's key is its node's id and the ids of its frontier's dominoes
    # and fills (one object each per shape and call), so no key hashes a
    # Domino.
    layer = {(id(root),): (root, (), {0: 1})}
    while layer:
        nxt: dict[tuple[int, ...], tuple[Node, tuple[Piece, ...], dict[int, int]]] = {}
        stored = 0
        for key, (node, frontier, terms) in layer.items():
            state = IndexedFillState(family)
            for dom, fill in frontier:
                state.add(dom, fill)
            edges = node[0]
            ahead = edges[0][2][0]  # the edges of the next even cell, None at the end
            if ahead is not None:
                keep_from = ahead[0][0].crossing() - 2
                drop = sum(1 for dom, _ in frontier if dom.crossing() < keep_from)
                kept, kept_key = frontier[drop:], key[1 + 2 * drop :]
            for dom, depth, child in edges:
                lo_min, lo_max, _, _ = state.bounds(dom)
                top = bisect_right(class_mins, min(lo_max, max_rank - depth))
                for fill, fill_terms in classes[bisect_left(class_mins, lo_min) : top]:
                    if not state.check(dom, fill):
                        continue
                    if ahead is None:  # a complete tiling
                        acc = total
                    else:
                        child_key = (id(child), *kept_key, id(dom), id(fill))
                        entry = nxt.get(child_key)
                        if entry is None:
                            if len(nxt) >= MAX_TRANSFER_STATES:
                                raise ValueError(
                                    f"the domino sum over {shape} needs more than "
                                    f"{MAX_TRANSFER_STATES} states in one layer"
                                )
                            entry = nxt[child_key] = (child, kept + ((dom, fill),), {})
                        acc = entry[2]
                    before = len(acc)
                    for m, c in terms.items():
                        for e, s in fill_terms:
                            acc[m + e] = acc.get(m + e, 0) + c * s
                    stored += len(acc) - before
                    if stored > MAX_TRANSFER_TERMS:
                        raise ValueError(
                            f"the domino sum over {shape} needs more than "
                            f"{MAX_TRANSFER_TERMS} terms in one layer"
                        )
        layer = nxt
    return _unpack(n, bits, total)
