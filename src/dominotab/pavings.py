"""Dominoes and domino pavings of Young diagrams.

A domino covers two cells of consecutive contents, exactly one of which is
even; that even content is the domino's crossing diagonal.  A domino is type 1
when the larger covered content is even (the crossing diagonal enters through
the cell nearer the northeast) and type 2 when the smaller one is.
"""

from __future__ import annotations

from dataclasses import dataclass

from .partitions import Shape, Cell, cells, check_partition, two_quotient


@dataclass(frozen=True, order=True)
class Domino:
    """A 2x1 piece: top-left cell plus orientation."""

    row: int
    col: int
    horiz: bool

    def __post_init__(self) -> None:
        # Geometry is queried in hot loops; precompute it once.
        if self.horiz:
            cs = ((self.row, self.col), (self.row, self.col + 1))
        else:
            cs = ((self.row, self.col), (self.row + 1, self.col))
        contents = tuple(c - r for r, c in cs)
        object.__setattr__(self, "_cells", cs)
        object.__setattr__(self, "_contents", contents)
        even = 0 if contents[0] % 2 == 0 else 1
        object.__setattr__(self, "_crossing", contents[even])
        object.__setattr__(self, "_crossing_cell", cs[even])
        object.__setattr__(self, "_dtype", 1 if max(contents) % 2 == 0 else 2)

    def cells(self) -> tuple[Cell, Cell]:
        return self._cells

    def contents(self) -> tuple[int, int]:
        return self._contents

    def crossing(self) -> int:
        """The unique even covered content."""
        return self._crossing

    def crossing_cell(self) -> Cell:
        return self._crossing_cell

    def dtype(self) -> int:
        return self._dtype


@dataclass(frozen=True)
class Paving:
    """A tiling of a Young diagram by disjoint dominoes."""

    shape: Shape
    dominoes: tuple[Domino, ...]

    def __post_init__(self) -> None:
        covered: list[Cell] = []
        for d in self.dominoes:
            covered.extend(d.cells())
        if len(covered) != len(set(covered)) or set(covered) != set(cells(self.shape)):
            raise ValueError("dominoes do not tile the shape")
        object.__setattr__(self, "dominoes", tuple(sorted(self.dominoes)))


@dataclass(frozen=True)
class RegionSplit:
    up: tuple[Domino, ...]
    down: tuple[Domino, ...]


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


def region_split(paving: Paving) -> RegionSplit:
    """Split dominoes by the sign of the crossing diagonal (>= 0 means up)."""
    up = tuple(d for d in paving.dominoes if d.crossing() >= 0)
    down = tuple(d for d in paving.dominoes if d.crossing() < 0)
    return RegionSplit(up=up, down=down)


def is_shifted_paving(paving: Paving) -> bool:
    """Check the two shifted-paving conditions.

    The 2-quotient components of the shape must both have last part >= number
    of parts, and no vertical domino on D_0 may have all of its left-adjacent
    dominoes strictly below D_0.  A vertical on D_0 in column 1 has no left
    neighbours and is never forbidden.
    """
    q1, q2 = two_quotient(paving.shape)
    for q in (q1, q2):
        if q and q[-1] < len(q):
            return False
    owner: dict[Cell, Domino] = {}
    for d in paving.dominoes:
        for cell in d.cells():
            owner[cell] = d
    for d in paving.dominoes:
        if d.horiz or d.crossing() != 0:
            continue
        if d.col == 1:
            continue
        left = {owner[(d.row, d.col - 1)], owner[(d.row + 1, d.col - 1)]}
        if all(nb.crossing() < 0 for nb in left):
            return False
    return True


def is_shifted_pavable(shape: Shape) -> bool:
    return any(is_shifted_paving(p) for p in enumerate_pavings(shape))
