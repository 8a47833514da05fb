"""The fill searches that the domino listing replaced, and the row-major
paving backtracker the first of them ran on.

``reference_domino_fills`` enumerates every paving, groups the shifted ones
by their up region, and runs a separate depth-first fill search on each
paving, judged by ``IndexedFillState``.  ``domino_fills`` is the depth-first
search on the shape's tiling automaton that followed it, with its
incremental checker ``FillState`` and the listing ``enumerate_domino_tableaux``
built on it, as they stood before the listing became a walk of the
automaton's layers.  All are kept here only as oracles of the differential
tests in ``test_differential.py``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import islice
from typing import Iterator

from dominotab import domino_tableaux
from dominotab.domino_tableaux import (
    DominoTableau,
    Piece,
    _diag_key,
    fill_fits,
    fold_bounds,
    tiling_root,
)
from dominotab.partitions import Cell, Shape, cells, check_partition
from dominotab.pavings import Domino, Edge, Node, Paving, is_shifted_paving
from dominotab.tableaux import Family, Fill, X_FILL, _candidate_fills
from reference_fillstate import IndexedFillState


def enumerate_pavings(shape: Shape) -> list[Paving]:
    """All domino pavings, by backtracking on the first uncovered cell.

    At each step the first free cell in row-major order is covered by a
    horizontal domino, then by a vertical one.  Output order is deterministic;
    the list is empty iff the shape is not pavable.
    """
    shape = check_partition(shape)
    cell_list = list(cells(shape))
    cell_set = set(cell_list)
    out: list[Paving] = []
    used: set[Cell] = set()
    placed: list[Domino] = []

    def rec(idx: int) -> None:
        while idx < len(cell_list) and cell_list[idx] in used:
            idx += 1
        if idx == len(cell_list):
            out.append(Paving(shape, tuple(placed)))
            return
        r, c = cell_list[idx]
        for horiz, other in ((True, (r, c + 1)), (False, (r + 1, c))):
            if other in cell_set and other not in used:
                used.add((r, c))
                used.add(other)
                placed.append(Domino(r, c, horiz))
                rec(idx + 1)
                placed.pop()
                used.discard((r, c))
                used.discard(other)

    rec(0)
    return out


def reference_domino_fills(
    family: Family, shape: Shape, max_letter: int
) -> Iterator[tuple[Piece, ...]]:
    """The pieces of every valid domino tableau, paving by paving.

    Unshifted families run over every paving.  Shifted families run over
    shifted pavings grouped by their up region (fills only constrain the up
    region), keeping one representative per equivalence class: the down
    region whose domino list is lexicographically least.
    """
    shape = check_partition(shape)
    if not shape:
        yield ()
        return
    pavings = enumerate_pavings(shape)
    if not pavings:
        raise ValueError(f"shape {shape} is not pavable")
    candidates = _candidate_fills(family, max_letter)

    if family.shifted:
        groups: dict[tuple[Domino, ...], Paving] = {}
        for p in pavings:
            if not is_shifted_paving(p):
                continue
            key = tuple(d for d in p.dominoes if d.crossing() >= 0)
            if key not in groups or p.dominoes < groups[key].dominoes:
                groups[key] = p
        if not groups:
            raise ValueError(f"shape {shape} is not shifted pavable")
        pavings = [groups[key] for key in sorted(groups)]
    for p in pavings:
        yield from _fill_paving(family, p, candidates)


def _column_caps(order: list[Domino], max_rank: int) -> list[int]:
    """The largest minimum each domino of ``order`` can hold in an unshifted
    family.

    Minima strictly increase down a column across distinct dominoes, and the
    unshifted ranks are even, so a domino with a chain of k distinct
    dominoes below it in its columns needs a minimum <= max_rank - 2k.
    """
    owner = {cell: i for i, d in enumerate(order) for cell in d.cells()}
    depth = [0] * len(order)
    for i in sorted(range(len(order)), key=lambda i: -order[i].row):  # lowest first
        for r, c in order[i].cells():
            j = owner.get((r + 1, c))
            if j is not None and j != i:
                depth[i] = max(depth[i], depth[j] + 1)
    return [max_rank - 2 * k for k in depth]


def _fill_paving(
    family: Family, paving: Paving, candidates: list[Fill]
) -> Iterator[tuple[Piece, ...]]:
    """Depth-first fill of one paving in diagonal reading order.

    ``candidates`` is sorted, so the fills whose minimum lies in a range are
    one slice of it.  A domino's range runs from the lowest to the highest
    minimum that ``IndexedFillState.bounds`` allows, and in unshifted
    families to the column cap at most; ``IndexedFillState.check`` still
    judges every fill of the slice.
    """
    order = sorted(paving.dominoes, key=_diag_key)
    cand_mins = [fill[0] for fill in candidates]
    max_rank = cand_mins[-1] if candidates else 0
    caps = [max_rank] * len(order) if family.shifted else _column_caps(order, max_rank)
    state = IndexedFillState(family)

    def options(i: int) -> Iterator[Fill]:
        dom = order[i]
        if family.shifted and dom.crossing() < 0:
            return iter((X_FILL,))
        lo_min, lo_max, _, _ = state.bounds(dom)
        top = bisect_right(cand_mins, min(lo_max, caps[i]))
        return iter(candidates[bisect_left(cand_mins, lo_min) : top])

    stack = [options(0)]
    while stack:
        dom = order[len(stack) - 1]
        for fill in stack[-1]:
            if state.try_add(dom, fill):
                break
        else:  # this domino's options are spent: back up one domino
            stack.pop()
            if stack:
                state.pop()
            continue
        if len(stack) == len(order):
            yield tuple(state.pieces)
            state.pop()
        else:
            stack.append(options(len(stack)))


class FillState:
    """Incremental validity checker of the fill search.

    The search adds pieces in diagonal reading order, along paths of the
    tiling automaton, so no two of them overlap and no piece of crossing
    d + 2 comes before one of crossing d.  ``try_add`` accepts a piece only
    if every family rule between it and the pieces already present holds;
    every rule is pairwise or per piece, so each pair is judged by its later
    piece, and succeeding every time is full validity of the final tableau.
    Pieces added in any other order may be judged wrongly.

    Fills must be strictly increasing, as ``check_fill`` ensures: the rules
    read a fill's minimum as ``fill[0]`` and its maximum as ``fill[-1]``.
    ``add`` and ``pop`` keep the non-X pieces of each crossing in step with
    ``pieces``.  A piece of crossing d is bounded only by the placed pieces
    of crossing d - 2 and d: they alone cover its neighbour cells or lie two
    diagonals below it.  ``bounds`` folds those through ``fold_bounds`` once
    per domino and set of placed pieces, as ``validate_domino_tableau``
    folds a tableau's own pieces: ``add`` sets the last result aside and
    ``pop``, which brings back the pieces it was folded over, restores it.
    ``check`` judges each fill against the result by ``fill_fits``.
    """

    def __init__(self, family: Family):
        self.family = family
        self.set_valued = family.set_valued
        self.pieces: list[Piece] = []
        self.by_crossing: dict[int, list[Piece]] = {}
        self._last_bounds: tuple[Domino, tuple] | None = None
        self._saved_bounds: list[tuple[Domino, tuple] | None] = []  # one per piece

    def bounds(self, dom: Domino) -> tuple[int, float, float]:
        """``fold_bounds`` over the placed pieces of crossings d - 2 and d."""
        last_bounds = self._last_bounds
        if last_bounds is not None and last_bounds[0] is dom:
            return last_bounds[1]
        d, placed = dom.crossing(), self.by_crossing
        near = (*placed.get(d - 2, ()), *placed.get(d, ()))
        result = fold_bounds(dom, near, self.set_valued)
        self._last_bounds = (dom, result)
        return result

    def check(self, dom: Domino, fill: Fill) -> bool:
        return fill_fits(self.family, dom, fill, self.bounds(dom))

    def add(self, dom: Domino, fill: Fill) -> None:
        self._saved_bounds.append(self._last_bounds)
        self._last_bounds = None
        self.pieces.append((dom, fill))
        if fill != X_FILL:
            self.by_crossing.setdefault(dom.crossing(), []).append((dom, fill))

    def try_add(self, dom: Domino, fill: Fill) -> bool:
        if not self.check(dom, fill):
            return False
        self.add(dom, fill)
        return True

    def pop(self) -> None:
        self._last_bounds = self._saved_bounds.pop()  # the pieces are as they were then
        dom, fill = self.pieces.pop()
        if fill != X_FILL:
            self.by_crossing[dom.crossing()].pop()


def enumerate_domino_tableaux(
    family: Family, shape: Shape, max_letter: int
) -> list[DominoTableau]:
    """All valid domino tableaux with letters <= max_letter, sorted by pieces.

    The tableaux are those ``domino_fills`` yields: for shifted families one
    representative per equivalence class.  More than MAX_LISTED of them
    raise ValueError, once one more than that is found.  MAX_LISTED is read
    from ``domino_tableaux``, so a test that lowers it there lowers it here.
    """
    MAX_LISTED = domino_tableaux.MAX_LISTED
    shape = check_partition(shape)
    fills = islice(domino_fills(family, shape, max_letter), MAX_LISTED + 1)
    out = [DominoTableau(family, shape, p) for p in fills]
    if len(out) > MAX_LISTED:
        raise ValueError(f"shape {shape} has more than {MAX_LISTED} domino tableaux")
    out.sort(key=lambda t: t.pieces)
    return out


def domino_fills(
    family: Family, shape: Shape, max_letter: int
) -> Iterator[tuple[Piece, ...]]:
    """The pieces of every valid domino tableau, tiling and fills in one search.

    The search walks the paths of ``_tiling_automaton`` depth first, so
    dominoes arrive in diagonal reading order, a prefix shared by many
    pavings is filled once, and no path ends in a dead-end tiling.  The
    candidate fills are sorted, so the fills whose minimum lies in a range
    are one slice of them.  A domino's range runs from the floor to the cap
    that ``fold_bounds`` gives over the placed pieces, and to the top rank
    less the edge's column depth at most; ``FillState.check`` still judges
    every fill of the slice.

    Shifted families fill the up region only (fills constrain nothing else)
    and complete each up region with its least down region in X, so they
    yield one representative per equivalence class.  Shapes that are not
    pavable, or not shifted pavable, raise ValueError before any search.
    """
    root = tiling_root(family, shape)
    if root[0] is None:  # the empty shape
        yield ()
        return
    candidates = _candidate_fills(family, max_letter)
    cand_mins = [fill[0] for fill in candidates]
    max_rank = cand_mins[-1] if candidates else 0
    state = FillState(family)
    bounds, try_add, pop = state.bounds, state.try_add, state.pop

    def options(edges: tuple[Edge, ...]) -> Iterator[Node]:
        """The child of each edge, once per valid fill of its domino; the
        piece stays in ``state`` until the next child is asked for."""
        for dom, depth, child in edges:
            lo_min, lo_max, _ = bounds(dom)
            top = bisect_right(cand_mins, min(lo_max, max_rank - depth))
            for fill in candidates[bisect_left(cand_mins, lo_min) : top]:
                if try_add(dom, fill):
                    yield child
                    pop()

    stack = [options(root[0])]
    while stack:
        child = next(stack[-1], None)
        if child is None:  # this node's options are spent: back up one domino
            stack.pop()
        elif child[0] is None:  # a complete tiling; shifted ones add X below D_0
            down = child[1]
            pieces = tuple(state.pieces)
            yield pieces + tuple((dom, X_FILL) for dom in down) if down else pieces
        else:
            stack.append(options(child[0]))
