"""The merge that built each domino as an inverse 2-quotient, kept as the
oracle for the bead-move merge.

``gamma_merge`` below adds the pair's cells in the order of ``_chain`` and,
after each one, recomputes the whole inverse 2-quotient of the cells added so
far; ``_added_domino`` reads the new domino off the difference of the two
shapes.  ``tests/test_differential.py`` checks the library's merge against it
piece for piece.
"""

from __future__ import annotations

from dominotab.bijections import _chain
from dominotab.domino_tableaux import DominoTableau
from dominotab.partitions import Shape, inverse_two_quotient
from dominotab.pavings import Domino
from dominotab.tableaux import Family, Tableau, validate_tableau


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
