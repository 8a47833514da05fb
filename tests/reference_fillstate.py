"""The rule-by-rule ``FillState`` that the indexed checker replaced.

Each rule is a separate scan over the placed pieces, with minima and maxima
taken by ``min()`` and ``max()``, and the southeast rule tests the relation
``weakly_southeast`` that ``FillState.bounds`` restates as index bounds.  It
is kept here only as the oracle of the differential tests in
``test_differential.py``.
"""

from __future__ import annotations

from dominotab.domino_tableaux import Piece
from dominotab.partitions import Cell
from dominotab.pavings import Domino, Paving, is_shifted_paving
from dominotab.tableaux import Family, Fill, X_FILL, is_primed


def weakly_southeast(f1: Domino, f2: Domino) -> bool:
    """True iff some cell of f2 lies weakly southeast of f1's top-left cell."""
    return any(r >= f1.row and c >= f1.col for r, c in f2.cells())


class ReferenceFillState:
    """Incremental validity checker, one scan of the placed pieces per rule.

    Pieces are added one at a time; ``try_add`` accepts a piece only if every
    family rule involving it and the pieces already present holds.  Adding
    pieces in any order and succeeding every time is equivalent to full
    validity of the final tableau (all rules are pairwise or per-piece).
    """

    def __init__(self, family: Family):
        self.family = family
        self.pieces: list[Piece] = []
        self.owner: dict[Cell, int] = {}
        self.col_unprimed: set[tuple[int, int]] = set()
        self.row_primed: set[tuple[int, int]] = set()

    def _fill_shape_ok(self, dom: Domino, fill: Fill) -> bool:
        if self.family.shifted:
            if (fill == X_FILL) != (dom.crossing() < 0):
                return False
        elif fill == X_FILL:
            return False
        if fill == X_FILL:
            return True
        if not self.family.set_valued and len(fill) != 1:
            return False
        if not self.family.shifted and any(is_primed(r) for r in fill):
            return False
        return True

    def _ordering_ok(self, dom: Domino, fill: Fill) -> bool:
        if fill == X_FILL:
            return True
        lo = min(fill)
        for r, c in dom.cells():
            for dr, dc, before in ((0, -1, True), (0, 1, False)):
                idx = self.owner.get((r + dr, c + dc))
                if idx is None:
                    continue
                other_fill = self.pieces[idx][1]
                if other_fill == X_FILL:
                    continue
                if before:  # neighbour to the left: its min at most ours
                    if min(other_fill) > lo:
                        return False
                elif lo > min(other_fill):
                    return False
            for dr, above in ((-1, True), (1, False)):
                idx = self.owner.get((r + dr, c))
                if idx is None:
                    continue
                other_fill = self.pieces[idx][1]
                if other_fill == X_FILL:
                    continue
                top, bottom = (min(other_fill), lo) if above else (lo, min(other_fill))
                if self.family.shifted:
                    if top > bottom:
                        return False
                elif top >= bottom:
                    return False
        return True

    def _multiplicity_ok(self, dom: Domino, fill: Fill) -> bool:
        if not self.family.shifted or fill == X_FILL:
            return True
        m = min(fill)
        if is_primed(m):
            rows = {r for r, _ in dom.cells()}
            return all((r, m) not in self.row_primed for r in rows)
        cols = {c for _, c in dom.cells()}
        return all((c, m) not in self.col_unprimed for c in cols)

    def _southeast_ok(self, dom: Domino, fill: Fill) -> bool:
        if not self.family.set_valued or fill == X_FILL:
            return True
        for other_dom, other_fill in self.pieces:
            if other_fill == X_FILL or other_dom.dtype() != dom.dtype():
                continue
            if abs(other_dom.crossing() - dom.crossing()) != 2:
                continue
            for f1, fill1, f2, fill2 in (
                (other_dom, other_fill, dom, fill),
                (dom, fill, other_dom, other_fill),
            ):
                if not weakly_southeast(f1, f2):
                    continue
                forward = f2.crossing() == f1.crossing() + 2
                if self.family.shifted:
                    strict = is_primed(max(fill1)) == forward
                else:
                    strict = not forward
                if max(fill1) > min(fill2) or (strict and max(fill1) >= min(fill2)):
                    return False
        return True

    def check(self, dom: Domino, fill: Fill) -> bool:
        return (
            self._fill_shape_ok(dom, fill)
            and all(cell not in self.owner for cell in dom.cells())
            and self._ordering_ok(dom, fill)
            and self._multiplicity_ok(dom, fill)
            and self._southeast_ok(dom, fill)
        )

    def add(self, dom: Domino, fill: Fill) -> None:
        idx = len(self.pieces)
        self.pieces.append((dom, fill))
        for cell in dom.cells():
            self.owner[cell] = idx
        if self.family.shifted and fill != X_FILL:
            m = min(fill)
            if is_primed(m):
                for r, _ in dom.cells():
                    self.row_primed.add((r, m))
            else:
                for _, c in dom.cells():
                    self.col_unprimed.add((c, m))

    def try_add(self, dom: Domino, fill: Fill) -> bool:
        if not self.check(dom, fill):
            return False
        self.add(dom, fill)
        return True

    def pop(self) -> None:
        dom, fill = self.pieces.pop()
        for cell in dom.cells():
            del self.owner[cell]
        if self.family.shifted and fill != X_FILL:
            m = min(fill)
            if is_primed(m):
                for r, _ in dom.cells():
                    self.row_primed.discard((r, m))
            else:
                for _, c in dom.cells():
                    self.col_unprimed.discard((c, m))


def reference_validate(t) -> bool:
    """The validator as it was built on ``ReferenceFillState``."""
    Paving(t.shape, tuple(d for d, _ in t.pieces))  # structural: must tile
    if t.family.shifted and not is_shifted_paving(t.paving()):
        return False
    state = ReferenceFillState(t.family)
    order = sorted(t.pieces, key=lambda p: (p[0].crossing(), p[0].crossing_cell()))
    for dom, fill in order:
        if not state.try_add(dom, fill):
            return False
    return True
