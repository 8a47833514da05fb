"""The flat enumerators and validator that the package replaced.

``enumerate_tableaux`` is the recursive search that tries every candidate
fill at every cell, judging it by the ordering rules and by sets of the
(row, primed letter) and (column, unprimed letter) pairs already taken;
``validate_tableau`` judges a whole tableau by the ordering rules and by
counting every letter of every fill per line.  Neither reads
``tableaux.fill_floor``.  ``enumerate_tableaux_by_search`` is the row-major
depth-first search over ``fill_floor`` that the listing over the flat walk's
live links replaced.  They are kept here only as the oracles of the
differential tests in ``test_differential.py``.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterator

from dominotab import tableaux
from dominotab.partitions import (
    Shape,
    cells,
    check_cells,
    check_partition,
    is_staircase_admissible,
)
from dominotab.tableaux import (
    Family,
    Fill,
    Tableau,
    X_FILL,
    _candidate_fills,
    fill_floor,
    is_primed,
    letter_index,
)


def _letter_ok(family: Family, fill: Fill) -> bool:
    if fill == X_FILL:
        return False
    if not family.set_valued and len(fill) != 1:
        return False
    if not family.shifted and any(is_primed(r) for r in fill):
        return False
    return True


def validate_tableau(t: Tableau) -> bool:
    """True iff the fill satisfies every rule of the tableau's family.

    Unshifted families: no X cells, rows weakly increase (max of the left fill
    at most min of the right), columns strictly increase.  Shifted families
    additionally require the shape to satisfy lambda_k >= k, X exactly on the
    negative-content cells, weak increase along both rows and columns, at most
    one unprimed i in any column and at most one primed i' in any row,
    counting occurrences across set fills.
    """
    # Structure (shape/grid mismatch, unsorted fills) raises via make_tableau;
    # here the grid is assumed coherent and only family rules are judged.
    if len(t.rows) != len(t.shape) or any(
        len(row) != part for row, part in zip(t.rows, t.shape)
    ):
        raise ValueError("grid does not match shape")
    if t.family.shifted:
        if not is_staircase_admissible(t.shape):
            return False
        for r, c, fill in t.cells_with_fills():
            if (fill == X_FILL) != (c - r < 0):
                return False
            if c - r >= 0 and not _letter_ok(t.family, fill):
                return False
    else:
        for _, _, fill in t.cells_with_fills():
            if not _letter_ok(t.family, fill):
                return False

    for r, c, fill in t.cells_with_fills():
        if fill == X_FILL:
            continue
        if c > 1:
            left = t.fill_at(r, c - 1)
            if left != X_FILL and max(left) > min(fill):
                return False
        if r > 1 and c <= t.shape[r - 2]:
            above = t.fill_at(r - 1, c)
            if above != X_FILL:
                if t.family.shifted:
                    if max(above) > min(fill):
                        return False
                elif max(above) >= min(fill):
                    return False

    if t.family.shifted:
        col_unprimed: dict[tuple[int, int], int] = {}
        row_primed: dict[tuple[int, int], int] = {}
        for r, c, fill in t.cells_with_fills():
            for letter in fill:
                if is_primed(letter):
                    key = (r, letter)
                    row_primed[key] = row_primed.get(key, 0) + 1
                    if row_primed[key] > 1:
                        return False
                else:
                    key = (c, letter)
                    col_unprimed[key] = col_unprimed.get(key, 0) + 1
                    if col_unprimed[key] > 1:
                        return False
    return True


def enumerate_tableaux(family: Family, shape: Shape, max_letter: int) -> list[Tableau]:
    """All valid tableaux of the family on the shape with letters <= max_letter.

    Cells are filled in row-major order with candidates tried in ascending
    fill order, so the output is duplicate-free and lexicographically sorted
    by row-major fill sequence.
    """
    shape = check_partition(shape)
    if family.shifted and not is_staircase_admissible(shape):
        raise ValueError(f"shape {shape} is not admissible for shifted tableaux")
    if not shape:
        return [Tableau(family, (), ())]

    letter_cells = [
        (r, c) for r, c in cells(shape) if not (family.shifted and c - r < 0)
    ]
    candidates = _candidate_fills(family, max_letter)
    grid: dict[tuple[int, int], Fill] = {
        (r, c): X_FILL for r, c in cells(shape) if family.shifted and c - r < 0
    }
    col_unprimed: set[tuple[int, int]] = set()
    row_primed: set[tuple[int, int]] = set()
    out: list[Tableau] = []

    def ok(r: int, c: int, fill: Fill) -> bool:
        if c > 1:
            left = grid[(r, c - 1)]
            if left != X_FILL and max(left) > min(fill):
                return False
        if r > 1 and c <= shape[r - 2]:
            above = grid[(r - 1, c)]
            if above != X_FILL:
                if family.shifted:
                    if max(above) > min(fill):
                        return False
                elif max(above) >= min(fill):
                    return False
        if family.shifted:
            for letter in fill:
                key = (r, letter) if is_primed(letter) else (c, letter)
                if key in (row_primed if is_primed(letter) else col_unprimed):
                    return False
        return True

    def rec(idx: int) -> None:
        if idx == len(letter_cells):
            rows = tuple(
                tuple(grid[(r, c)] for c in range(1, length + 1))
                for r, length in enumerate(shape, start=1)
            )
            out.append(Tableau(family, shape, rows))
            return
        r, c = letter_cells[idx]
        for fill in candidates:
            if not ok(r, c, fill):
                continue
            grid[(r, c)] = fill
            added = []
            if family.shifted:
                for letter in fill:
                    key = (r, letter) if is_primed(letter) else (c, letter)
                    (row_primed if is_primed(letter) else col_unprimed).add(key)
                    added.append((is_primed(letter), key))
            rec(idx + 1)
            del grid[(r, c)]
            for primed, key in added:
                (row_primed if primed else col_unprimed).discard(key)

    rec(0)
    return out


def enumerate_tableaux_by_search(family: Family, shape: Shape, max_letter: int) -> list[Tableau]:
    """All valid tableaux of the family on the shape with letters <= max_letter.

    Cells are filled in row-major order with candidates tried in ascending
    fill order, so the output is duplicate-free and lexicographically sorted
    by row-major fill sequence.  The fills a cell may take are the sorted
    candidates from the first whose minimum meets ``fill_floor`` on, and
    the walk is iterative, so a long shape needs no deep recursion.  More
    than ``tableaux.MAX_LISTED`` tableaux raise ValueError, once one more is
    found, and so does a shape of more than MAX_CELLS cells, at once.
    """
    shape = check_partition(shape)
    check_cells(shape)
    if family.shifted and not is_staircase_admissible(shape):
        raise ValueError(f"shape {shape} is not admissible for shifted tableaux")
    candidates = _candidate_fills(family, max_letter)
    mins = [fill[0] for fill in candidates]
    grid = [[X_FILL] * length for length in shape]
    letter_cells = [
        (r - 1, c - 1) for r, c in cells(shape) if not (family.shifted and c < r)
    ]
    out: list[Tableau] = []
    # tries[k] runs over the fills left to try at letter cell k.
    tries: list[Iterator[Fill]] = []
    while True:
        k = len(tries)
        if k == len(letter_cells):
            if len(out) == tableaux.MAX_LISTED:
                raise ValueError(f"shape {shape} has more than {tableaux.MAX_LISTED} tableaux")
            out.append(Tableau(family, shape, tuple(map(tuple, grid))))
        else:
            r, c = letter_cells[k]
            left = grid[r][c - 1] if c else X_FILL
            above = grid[r - 1][c] if r else X_FILL
            floor = fill_floor(left[-1] if left else 0, above[-1] if above else 0)
            tries.append(iter(candidates[bisect_left(mins, floor) :]))
        # Move the deepest cell with a fill left to its next fill.
        while tries and (fill := next(tries[-1], None)) is None:
            tries.pop()
        if not tries:
            return out
        r, c = letter_cells[len(tries) - 1]
        grid[r][c] = fill


def rank(index: int, primed: bool = False) -> int:
    if index < 1:
        raise ValueError("letter index must be positive")
    return 2 * index - 1 if primed else 2 * index


def format_letter(r: int) -> str:
    return f"{letter_index(r)}'" if is_primed(r) else str(letter_index(r))


def parse_letter(text: str) -> int:
    text = text.strip()
    primed = text.endswith("'")
    body = text[:-1] if primed else text
    if not body.isdigit() or int(body) < 1:
        raise ValueError(f"bad letter: {text!r}")
    return rank(int(body), primed)


def format_fill(fill: Fill) -> str:
    if fill == X_FILL:
        return "X"
    if len(fill) == 1:
        return format_letter(fill[0])
    return "{" + ",".join(format_letter(r) for r in fill) + "}"


def check_fill(fill: Fill) -> Fill:
    if fill != tuple(sorted(set(fill))) or any(r < 1 for r in fill):
        raise ValueError(f"fill must be strictly increasing positive ranks: {fill!r}")
    return fill
