"""Two checkers that ``FillState`` replaced, kept as oracles.

``ReferenceFillState`` is the rule-by-rule checker: each rule is a separate
scan over the placed pieces, with minima and maxima taken by ``min()`` and
``max()``, and the southeast rule tests the relation ``weakly_southeast``.
``IndexedFillState`` is the checker that restated those rules as bounds
over a cell index and a per-diagonal index, with its own neighbour cells
and southeast comparisons, before ``FillState`` came to fold
``piece_relation`` over the placed pieces.  Both are kept here only as the
oracles of the differential tests in ``test_differential.py``.
"""

from __future__ import annotations

from dominotab.domino_tableaux import Piece
from dominotab.partitions import Cell
from dominotab.pavings import Domino, Paving, is_shifted_paving
from dominotab.tableaux import Family, Fill, X_FILL, fill_floor, is_primed

Bounds = tuple[int, float, float, float]
INF = float("inf")


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


class IndexedFillState:
    """Incremental validity checker over a cell index and a diagonal index.

    Pieces are added one at a time; ``try_add`` accepts a piece only if every
    family rule involving it and the pieces already present holds.  Adding
    pieces in any order and succeeding every time is equivalent to full
    validity of the final tableau (all rules are pairwise or per-piece).

    Fills must be strictly increasing, as ``check_fill`` ensures: the rules
    read a fill's minimum as ``fill[0]`` and its maximum as ``fill[-1]``.
    ``add`` and ``pop`` keep these indexes in step with ``pieces``:

    * ``mins`` maps each covered cell to its piece's minimum, ``None`` for X;
    * ``by_diagonal`` lists the placed non-X pieces of each (type, crossing)
      as (row, col, last row, last col, min, up_even(max), up_odd(max)),
      where up_even rounds a rank up to even (a primed letter up to its
      unprimed one) and up_odd up to odd: the southeast rule reads only the
      lists two diagonals below and above the new piece.

    Against the placed pieces, the ordering, multiplicity and southeast
    rules bound only the minimum and the maximum of a new fill.  ``bounds``
    computes those bounds once per domino until the next ``add`` or ``pop``,
    and ``check`` compares each fill against them.
    """

    def __init__(self, family: Family):
        self.family = family
        self.shifted = family.shifted
        self.set_valued = family.set_valued
        self.pieces: list[Piece] = []
        self.mins: dict[Cell, int | None] = {}
        self.by_diagonal: dict[tuple[int, int], list[tuple[int, ...]]] = {}
        self._last_bounds: tuple[Domino, Bounds | None] | None = None

    def bounds(self, dom: Domino) -> Bounds | None:
        """What the placed pieces require of a fill on ``dom``, or None if
        ``dom`` overlaps one of them.

        The bounds are (lowest min, highest min, highest up_odd(max),
        highest up_even(max)); ``inf`` stands for no bound.
        """
        last_bounds = self._last_bounds
        if last_bounds is not None and last_bounds[0] is dom:
            return last_bounds[1]
        first, last = dom.cells()
        mins = self.mins
        if first in mins or last in mins:
            self._last_bounds = (dom, None)
            return None
        odd_cap = even_cap = INF

        # Ordering and multiplicity: the minima obey ``fill_floor`` cell by
        # cell, read on the neighbours' minima, so a placed left or upper
        # neighbour bounds ours from below and a right or lower one, by the
        # mirror rule, from above: to m - (m & 1) and (m - 1) | 1 for its
        # minimum m.  The cells of ``dom`` itself are not in ``mins``, which
        # holds None for X.
        r, c = first
        if dom.horiz:
            left, right = ((r, c - 1),), ((r, c + 2),)
            above, below = ((r - 1, c), (r - 1, c + 1)), ((r + 1, c), (r + 1, c + 1))
        else:
            left, right = ((r, c - 1), (r + 1, c - 1)), ((r, c + 1), (r + 1, c + 1))
            above, below = ((r - 1, c),), ((r + 2, c),)
        left_max = above_max = 0
        for cell in left:
            m = mins.get(cell)
            if m is not None and m > left_max:
                left_max = m
        for cell in above:
            m = mins.get(cell)
            if m is not None and m > above_max:
                above_max = m
        lo_min = fill_floor(left_max, above_max)
        lo_max = INF
        for cell in right:
            m = mins.get(cell)
            if m is not None and m - (m & 1) < lo_max:
                lo_max = m - (m & 1)
        for cell in below:
            m = mins.get(cell)
            if m is not None and (m - 1) | 1 < lo_max:
                lo_max = (m - 1) | 1

        # Southeast: for same-type F1, F2 on diagonals two apart with F2
        # weakly southeast of F1 (F2's last cell weakly southeast of F1's
        # first), max(F1) <= min(F2), strictly when F2 lies on the higher
        # diagonal and max(F1) is primed, or on the lower one and max(F1) is
        # unprimed.  So up_even(max(F1)) <= min(F2) when F2 is higher and
        # up_odd(max(F1)) <= min(F2) when it is lower.
        if self.set_valued:
            last_r, last_c = last
            dtype, d = dom.dtype(), dom.crossing()
            for o_r, o_c, o_last_r, o_last_c, o_lo, o_hi_even, _ in self.by_diagonal.get(
                (dtype, d - 2), ()
            ):
                if last_r >= o_r and last_c >= o_c and o_hi_even > lo_min:
                    lo_min = o_hi_even
                if o_last_r >= r and o_last_c >= c and o_lo < odd_cap:
                    odd_cap = o_lo
            for o_r, o_c, o_last_r, o_last_c, o_lo, _, o_hi_odd in self.by_diagonal.get(
                (dtype, d + 2), ()
            ):
                if last_r >= o_r and last_c >= o_c and o_hi_odd > lo_min:
                    lo_min = o_hi_odd
                if o_last_r >= r and o_last_c >= c and o_lo < even_cap:
                    even_cap = o_lo
        result = (lo_min, lo_max, odd_cap, even_cap)
        self._last_bounds = (dom, result)
        return result

    def check(self, dom: Domino, fill: Fill) -> bool:
        if fill == X_FILL:  # X exactly on the dominoes below D_0 of shifted shapes
            return self.shifted and dom.crossing() < 0 and self.bounds(dom) is not None
        if not self.set_valued and len(fill) != 1:
            return False
        if self.shifted:
            if dom.crossing() < 0:
                return False
        else:
            for r in fill:
                if is_primed(r):
                    return False
        bounds = self.bounds(dom)
        if bounds is None:
            return False
        lo_min, lo_max, odd_cap, even_cap = bounds
        lo, hi = fill[0], fill[-1]
        return lo_min <= lo <= lo_max and hi | 1 <= odd_cap and hi + (hi & 1) <= even_cap

    def add(self, dom: Domino, fill: Fill) -> None:
        self._last_bounds = None
        first, last = dom.cells()
        self.pieces.append((dom, fill))
        if fill == X_FILL:
            self.mins[first] = self.mins[last] = None
            return
        lo, hi = fill[0], fill[-1]
        self.mins[first] = self.mins[last] = lo
        if self.set_valued:
            self.by_diagonal.setdefault((dom.dtype(), dom.crossing()), []).append(
                (*first, *last, lo, hi + (hi & 1), hi | 1)
            )

    def try_add(self, dom: Domino, fill: Fill) -> bool:
        if not self.check(dom, fill):
            return False
        self.add(dom, fill)
        return True

    def pop(self) -> None:
        self._last_bounds = None
        dom, fill = self.pieces.pop()
        first, last = dom.cells()
        del self.mins[first], self.mins[last]
        if fill != X_FILL and self.set_valued:
            self.by_diagonal[(dom.dtype(), dom.crossing())].pop()


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
