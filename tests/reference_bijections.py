"""The split that rebuilt each half from its reading word and the merge
that built each domino as an inverse 2-quotient, kept as the oracles for the
direct split layout and the bead-move merge.

``reading_word_split`` below restricts the diagonal reading word to each
domino type, halving the diagonal indices, and rebuilds each half with
``tableau_from_reading_word``.  ``gamma_merge`` below adds the pair's cells
in the order of ``_chain`` and, after each one, recomputes the whole inverse
2-quotient of the cells added so far; ``_added_domino`` reads the new domino
off the difference of the two shapes.  ``tests/test_differential.py`` checks
the library's split half for half and its merge piece for piece against
them.
"""

from __future__ import annotations

from dominotab.bijections import _chain
from dominotab.domino_tableaux import DominoTableau, _diag_order, validate_domino_tableau
from dominotab.partitions import Shape, inverse_two_quotient
from dominotab.pavings import Domino
from dominotab.tableaux import (
    Family,
    Fill,
    ReadingWord,
    Tableau,
    tableau_from_reading_word,
    validate_tableau,
)


def reading_word_split(t: DominoTableau) -> tuple[Tableau, Tableau]:
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
