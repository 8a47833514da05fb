"""The per-paving fill search that the tiling automaton replaced, and the
row-major paving backtracker it ran on.

The fill search enumerates every paving, groups the shifted ones by their up
region, and runs a separate depth-first fill search on each paving.  Both are
kept here only as oracles of the differential tests in ``test_differential.py``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterator

from dominotab.domino_tableaux import Piece, _diag_key
from dominotab.partitions import Cell, Shape, cells, check_partition
from dominotab.pavings import Domino, Paving, is_shifted_paving
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
