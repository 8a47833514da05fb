"""The split and merge maps between domino tableaux and pairs of tableaux.

One generic engine drives all four families: the plain maps are the
restriction of the shifted set-valued ones to singleton, unprimed, X-free
data.  Splitting lays each domino's fill on the next cell of the halved
diagonal in the flat tableau of its type, reading the dominoes in diagonal
order: the cells of a diagonal are known, so no reading word is rebuilt.
Merging adds the pair's cells to the
2-quotient one at a time on the 2-abacus (James-Kerber): row j of component
t holds a bead on place 2(q_t[j] + m-1-j) + t-1, so a cell moves one bead two
places up, and that move fixes the one domino the shape grows by, which takes
the cell's fill.
"""

from __future__ import annotations

from .domino_tableaux import DominoTableau, validate_domino_tableau
from .partitions import Cell
from .pavings import domino
from .tableaux import (
    Family,
    Fill,
    Tableau,
    X_FILL,
    _tableau_from_cells,
    is_primed,
    validate_tableau,
)
# Unused here; the benchmark tracer patches the reading-word rebuild under this name.
from .tableaux import tableau_from_reading_word  # noqa: F401


def gamma_split(t: DominoTableau) -> tuple[Tableau, Tableau]:
    """Split a domino tableau into its type-1 and type-2 flat tableaux.

    The fill of a domino crossing D_{2k} lands on diagonal D_k of the flat
    tableau matching its type; X dominoes of shifted families come through as
    X cells.  The j-th piece of type t on D_{2k} (from 0, northwest to
    southeast) takes cell (r0 + j, r0 + j + k) of half t, r0 = max(1, 1 - k),
    the j-th cell of D_k.  The domino tableau is validated, once; the halves
    are not, since the bijection sends a valid tableau to a valid pair.
    """
    if not validate_domino_tableau(t):
        raise ValueError("gamma_split requires a valid domino tableau")
    fills: tuple[dict[Cell, Fill], dict[Cell, Fill]] = ({}, {})
    placed: tuple[dict[int, int], dict[int, int]] = ({}, {})  # pieces laid per diagonal
    for dom, fill in t.diagonal_order():
        half = dom.dtype() - 1
        k = dom.crossing() // 2
        j = placed[half].get(k, 0)
        placed[half][k] = j + 1
        r = max(1, 1 - k) + j
        fills[half][r, r + k] = fill
    return (_tableau_from_cells(t.family, fills[0]), _tableau_from_cells(t.family, fills[1]))


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


def gamma_merge(family: Family, t1: Tableau, t2: Tableau) -> DominoTableau:
    """Merge a pair of flat tableaux into the domino tableau splitting to it.

    The cells of t1 (type 1) and t2 (type 2) are added to the quotient pair in
    the order of ``_chain``; after each one the shape is the inverse
    2-quotient of the cells added so far, so it grows by one domino, which
    takes the cell's fill.  For shifted families the X cells lay down the
    lexicographically least down region, the representative that
    ``enumerate_domino_tableaux`` keeps.

    The shape is kept on a 2-abacus of 2m beads, m = max(len(t1.shape),
    len(t2.shape)): row j of component t holds the bead on place
    2(q_t[j] + m-1-j) + t-1, and the bead with i beads above it stands for
    part i of the shape (0-based).  A cell in that row moves its bead from b
    to b+2; b+2 is free exactly when the component stays a partition.  If
    b+1 is free the bead passes no other and part i grows by a horizontal
    domino; otherwise it passes the bead of part i-1, parts i-1 and i grow by
    one each, and the domino is vertical.
    """
    for t in (t1, t2):
        if t.family != family:
            raise ValueError("tableau family does not match the requested merge")
        if not validate_tableau(t):
            raise ValueError("gamma_merge requires valid tableaux")
    chain = _chain(family, t1, t2)
    m = max(len(t1.shape), len(t2.shape))
    # beads[t - 1][j]: the place of the bead of row j of component t.
    beads = ([2 * (m - 1 - j) for j in range(m)], [2 * (m - 1 - j) + 1 for j in range(m)])
    # part[b]: the number of beads above place b if it holds one, else -1.
    part = [2 * m - 1 - b for b in range(2 * m)] + [-1] * (2 * len(chain) + 1)
    lam = [0] * (2 * m)
    pieces = []
    for dtype, r, fill in chain:
        row = beads[dtype - 1]
        b = row[r - 1]
        if part[b + 2] >= 0:
            raise ValueError(f"cell in row {r} of component {dtype} leaves no partition")
        i = part[b]
        if part[b + 1] < 0:
            dom = domino(i + 1, lam[i] + 1, True)
            lam[i] += 2
            part[b + 2] = i
        else:
            dom = domino(i, lam[i - 1] + 1, False)
            lam[i - 1] += 1
            lam[i] += 1
            part[b + 2], part[b + 1] = i - 1, i
        part[b] = -1
        row[r - 1] = b + 2
        pieces.append((dom, fill))
    return DominoTableau(family, tuple(p for p in lam if p), tuple(pieces))
