"""The split and merge maps between domino tableaux and pairs of tableaux.

One generic engine drives all four families: the plain maps are the
restriction of the shifted set-valued ones to singleton, unprimed, X-free
data.  Splitting restricts the diagonal reading word to type-1 and type-2
dominoes, halving each diagonal index.  Merging adds the pair's cells to the
2-quotient one at a time; each addition grows the inverse 2-quotient by
exactly one domino, which takes the cell's fill.
"""

from __future__ import annotations

from .domino_tableaux import DominoTableau, _diag_order, validate_domino_tableau
from .pavings import Domino
from .partitions import Shape, inverse_two_quotient
from .tableaux import (
    Family,
    Fill,
    ReadingWord,
    Tableau,
    X_FILL,
    is_primed,
    tableau_from_reading_word,
    validate_tableau,
)


def gamma_split(t: DominoTableau) -> tuple[Tableau, Tableau]:
    """Split a domino tableau into its type-1 and type-2 flat tableaux.

    The fill of a domino crossing D_{2k} lands on diagonal D_k of the flat
    tableau matching its type; X dominoes of shifted families come through as
    X cells.  Both halves are rebuilt from their restricted reading words.
    """
    if not validate_domino_tableau(t):
        raise ValueError("gamma_split requires a valid domino tableau")
    per_type: dict[int, dict[int, list[Fill]]] = {1: {}, 2: {}}
    for dom, fill in _diag_order(t.pieces):
        per_type[dom.dtype()].setdefault(dom.crossing() // 2, []).append(fill)
    halves = []
    for dtype in (1, 2):
        segs = per_type[dtype]
        if not segs:
            halves.append(Tableau(t.family, (), ()))
            continue
        lo, hi = min(segs), max(segs)
        word = ReadingWord(
            start=lo,
            step=1,
            segments=tuple(tuple(segs.get(d, ())) for d in range(lo, hi + 1)),
        )
        halves.append(tableau_from_reading_word(t.family, word))
    return (halves[0], halves[1])


def _chain(family: Family, t1: Tableau, t2: Tableau) -> list[tuple[int, int, Fill]]:
    """(type, flat row, fill) for every cell of the pair, in merge order.

    Letter cells run by ascending minimum letter u; for an unprimed u by
    ascending content, type 1 before type 2, for a primed u by descending
    content, type 2 before type 1.  In shifted families a row's X cells come
    left to right just before the row's first letter cell, on D_0.
    """
    letters = []
    for dtype, t in ((1, t1), (2, t2)):
        for r, c, fill in t.cells_with_fills():
            if fill == X_FILL:
                continue
            u = fill[0]
            key = (u, r - c, -dtype) if is_primed(u) else (u, c - r, dtype)
            letters.append((key, dtype, r, c, fill))
    letters.sort()
    order = []
    for _, dtype, r, c, fill in letters:
        if family.shifted and c == r:
            order.extend((dtype, r, X_FILL) for _ in range(r - 1))
        order.append((dtype, r, fill))
    return order


def _added_domino(old: Shape, new: Shape) -> Domino:
    """The domino new / old, for shapes differing by exactly two cells."""
    (r, c), (r2, _) = [
        (r, c)
        for r, length in enumerate(new, start=1)
        for c in range((old[r - 1] if r <= len(old) else 0) + 1, length + 1)
    ]
    return Domino(r, c, horiz=r == r2)


def gamma_merge(family: Family, t1: Tableau, t2: Tableau) -> DominoTableau:
    """Merge a pair of flat tableaux into the domino tableau splitting to it.

    The cells of t1 (type 1) and t2 (type 2) are added to the quotient pair in
    the order of ``_chain``; after each one the shape is the inverse
    2-quotient of the cells added so far, so it grows by one domino, which
    takes the cell's fill.  For shifted families the X cells lay down the
    lexicographically least down region, the representative that
    ``enumerate_domino_tableaux`` keeps.
    """
    for t in (t1, t2):
        if t.family != family:
            raise ValueError("tableau family does not match the requested merge")
        if not validate_tableau(t):
            raise ValueError("gamma_merge requires valid tableaux")
    rows: dict[int, list[int]] = {1: [], 2: []}
    shape: Shape = ()
    pieces = []
    for dtype, r, fill in _chain(family, t1, t2):
        if r > len(rows[dtype]):
            rows[dtype].append(1)
        else:
            rows[dtype][r - 1] += 1
        grown = inverse_two_quotient(tuple(rows[1]), tuple(rows[2]))
        pieces.append((_added_domino(shape, grown), fill))
        shape = grown
    return DominoTableau(family, shape, tuple(pieces))
