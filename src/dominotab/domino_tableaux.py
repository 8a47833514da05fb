"""Domino tableaux in the four families.

Validity follows the flat families, read on domino fills:

* plain: minimum entries weakly increase cell-wise along rows and strictly
  down columns (the two cells of one vertical domino are exempt from column
  strictness);
* set-valued: the minimum entries form a plain domino tableau, and same-type
  dominoes on even diagonals two apart with a weakly-southeast relation obey
  max/min bounds (weak when the earlier diagonal is lower, strict otherwise);
* shifted: below-D_0 dominoes hold X, rows and columns weakly increase, an
  unprimed letter appears at most once among the dominoes meeting any column
  and a primed letter at most once among those meeting any row, and the
  paving must be a shifted paving;
* shifted set-valued: the minima form a shifted domino tableau and the
  southeast conditions hold, strict or weak according to the direction and
  whether max(F1) is primed.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterable, Iterator

from .partitions import Shape, Cell, check_partition
from .pavings import Domino, Paving, enumerate_pavings, is_shifted_paving, region_split
from .tableaux import (
    Family,
    Fill,
    ReadingWord,
    X_FILL,
    _candidate_fills,
    check_fill,
    format_fill,
    is_primed,
    letter_index,
)

Piece = tuple[Domino, Fill]
Bounds = tuple[int, float, float, float]
INF = float("inf")


@dataclass(frozen=True)
class DominoTableau:
    family: Family
    shape: Shape
    pieces: tuple[Piece, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "pieces", tuple(sorted(self.pieces, key=lambda p: p[0]))
        )

    def paving(self) -> Paving:
        return Paving(self.shape, tuple(d for d, _ in self.pieces))

    def up_pieces(self) -> tuple[Piece, ...]:
        return tuple((d, f) for d, f in self.pieces if d.crossing() >= 0)


def make_domino_tableau(family: Family, shape: Shape, pieces: Iterable[Piece]) -> DominoTableau:
    """Build a DominoTableau, raising ValueError on structural problems."""
    shape = check_partition(shape)
    pieces = tuple((d, check_fill(tuple(f))) for d, f in pieces)
    Paving(shape, tuple(d for d, _ in pieces))  # raises unless a tiling
    return DominoTableau(family, shape, pieces)


def weakly_southeast(f1: Domino, f2: Domino) -> bool:
    """True iff some cell of f2 lies weakly southeast of f1's top-left cell."""
    return any(r >= f1.row and c >= f1.col for r, c in f2.cells())


class FillState:
    """Incremental validity checker shared by enumeration and validation.

    Pieces are added one at a time; ``try_add`` accepts a piece only if every
    family rule involving it and the pieces already present holds.  Adding
    pieces in any order and succeeding every time is equivalent to full
    validity of the final tableau (all rules are pairwise or per-piece).

    Fills must be strictly increasing, as ``check_fill`` ensures: the rules
    read a fill's minimum as ``fill[0]`` and its maximum as ``fill[-1]``.
    ``add`` and ``pop`` keep these indexes in step with ``pieces``:

    * ``owner`` maps each covered cell to the index of its piece, and
      ``mins`` maps it to that piece's minimum, ``None`` for X;
    * ``by_diagonal`` lists the placed non-X pieces of each (type, crossing)
      as (row, col, last row, last col, min, up_even(max), up_odd(max)),
      where up_even rounds a rank up to even (a primed letter up to its
      unprimed one) and up_odd up to odd: the southeast rule reads only the
      lists two diagonals below and above the new piece;
    * ``row_primed`` and ``col_unprimed`` hold the (row, letter) and
      (column, letter) pairs taken by the minima of shifted pieces.

    Against the placed pieces, the ordering and southeast rules bound only
    the minimum and the maximum of a new fill.  ``bounds`` computes those
    bounds once per domino until the next ``add`` or ``pop``, and ``check``
    compares each fill against them.
    """

    def __init__(self, family: Family):
        self.family = family
        self.shifted = family.shifted
        self.set_valued = family.set_valued
        # Minima strictly increase down columns unless the family is shifted.
        self.column_gap = 0 if family.shifted else 1
        self.pieces: list[Piece] = []
        self.owner: dict[Cell, int] = {}
        self.mins: dict[Cell, int | None] = {}
        self.by_diagonal: dict[tuple[int, int], list[tuple[int, ...]]] = {}
        self.row_primed: set[tuple[int, int]] = set()
        self.col_unprimed: set[tuple[int, int]] = set()
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
        lo_min, lo_max, odd_cap, even_cap = 1, INF, INF, INF

        # Ordering: a left neighbour's minimum is at most ours and a right
        # one's at least ours; the same above and below, strictly unless the
        # family is shifted.  The cells of ``dom`` itself are not in ``mins``.
        gap = self.column_gap
        r, c = first
        if dom.horiz:
            left, right = ((r, c - 1),), ((r, c + 2),)
            above, below = ((r - 1, c), (r - 1, c + 1)), ((r + 1, c), (r + 1, c + 1))
        else:
            left, right = ((r, c - 1), (r + 1, c - 1)), ((r, c + 1), (r + 1, c + 1))
            above, below = ((r - 1, c),), ((r + 2, c),)
        for cell in left:
            m = mins.get(cell)
            if m is not None and m > lo_min:
                lo_min = m
        for cell in above:
            m = mins.get(cell)
            if m is not None and m + gap > lo_min:
                lo_min = m + gap
        for cell in right:
            m = mins.get(cell)
            if m is not None and m < lo_max:
                lo_max = m
        for cell in below:
            m = mins.get(cell)
            if m is not None and m - gap < lo_max:
                lo_max = m - gap

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
        if lo < lo_min or lo > lo_max or hi | 1 > odd_cap or hi + (hi & 1) > even_cap:
            return False
        if self.shifted:
            taken, keys = self._letter_keys(dom, lo)
            return taken.isdisjoint(keys)
        return True

    def _letter_keys(self, dom: Domino, lo: int) -> tuple[set[tuple[int, int]], tuple]:
        """Multiplicity: a primed minimum appears once per row, an unprimed
        one once per column.  Returns the set of taken (line, letter) pairs
        and the pairs a minimum ``lo`` on ``dom`` takes."""
        first, last = dom.cells()
        if is_primed(lo):
            return self.row_primed, ((first[0], lo), (last[0], lo))
        return self.col_unprimed, ((first[1], lo), (last[1], lo))

    def add(self, dom: Domino, fill: Fill) -> None:
        self._last_bounds = None
        first, last = dom.cells()
        self.owner[first] = self.owner[last] = len(self.pieces)
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
        if self.shifted:
            taken, keys = self._letter_keys(dom, lo)
            taken.update(keys)

    def try_add(self, dom: Domino, fill: Fill) -> bool:
        if not self.check(dom, fill):
            return False
        self.add(dom, fill)
        return True

    def pop(self) -> None:
        self._last_bounds = None
        dom, fill = self.pieces.pop()
        first, last = dom.cells()
        del self.owner[first], self.owner[last], self.mins[first], self.mins[last]
        if fill == X_FILL:
            return
        if self.set_valued:
            self.by_diagonal[(dom.dtype(), dom.crossing())].pop()
        if self.shifted:
            taken, keys = self._letter_keys(dom, fill[0])
            taken.difference_update(keys)


def validate_domino_tableau(t: DominoTableau) -> bool:
    """True iff every family rule holds; raises on malformed structure,
    including a fill that is not strictly increasing."""
    for _, fill in t.pieces:
        check_fill(fill)
    Paving(t.shape, tuple(d for d, _ in t.pieces))  # structural: must tile
    if t.family.shifted and not is_shifted_paving(t.paving()):
        return False
    state = FillState(t.family)
    for dom, fill in _diag_order(t.pieces):
        if not state.try_add(dom, fill):
            return False
    return True


def _diag_key(dom: Domino) -> tuple[int, Cell]:
    """Diagonal reading order: by crossing diagonal, then northwest first."""
    return (dom.crossing(), dom.crossing_cell())


def _diag_order(pieces: Iterable[Piece]) -> list[Piece]:
    return sorted(pieces, key=lambda p: _diag_key(p[0]))


def diagonal_reading(t: DominoTableau) -> ReadingWord:
    """Segments per even diagonal ascending, each read northwest to southeast.

    Shifted families start at D_0; the X-filled down region never appears.
    """
    by_diag: dict[int, list[Piece]] = {}
    for dom, fill in t.pieces:
        by_diag.setdefault(dom.crossing(), []).append((dom, fill))
    if t.family.shifted:
        diags = sorted(d for d in by_diag if d >= 0)
    else:
        diags = sorted(by_diag)
    if not diags:
        return ReadingWord(start=0, step=2, segments=())
    segments = []
    for d in range(diags[0], diags[-1] + 2, 2):
        entry = sorted(by_diag.get(d, ()), key=lambda p: p[0].crossing_cell())
        segments.append(tuple(fill for _, fill in entry))
    return ReadingWord(start=diags[0], step=2, segments=tuple(segments))


def up_fingerprint(t: DominoTableau) -> str:
    """Canonical serialisation of the filled up-region dominoes."""
    if not t.family.shifted:
        raise ValueError("up_fingerprint applies to shifted families only")
    parts = []
    for dom, fill in t.up_pieces():
        orient = "H" if dom.horiz else "V"
        parts.append(f"{orient}{dom.row},{dom.col}:{format_fill(fill)}")
    return "|".join(parts)


def dt_weight(t: DominoTableau | Iterable[Piece], n: int) -> tuple[int, ...]:
    """Exponent vector of a domino tableau or of its pieces; each domino
    contributes its fill once."""
    exps = [0] * n
    for _, fill in t.pieces if isinstance(t, DominoTableau) else t:
        for letter in fill:
            idx = letter_index(letter)
            if idx > n:
                raise ValueError(f"letter index {idx} exceeds variable count {n}")
            exps[idx - 1] += 1
    return tuple(exps)


def dt_cardinality(t: DominoTableau) -> int:
    """Total letters over all dominoes (X contributes nothing)."""
    return sum(len(fill) for _, fill in t.pieces)


def up_domino_count(t: DominoTableau) -> int:
    return len(t.up_pieces())


def enumerate_domino_tableaux(
    family: Family, shape: Shape, max_letter: int
) -> list[DominoTableau]:
    """All valid domino tableaux with letters <= max_letter, sorted by pieces.

    The tableaux are those ``domino_fills`` yields: for shifted families one
    representative per equivalence class.
    """
    shape = check_partition(shape)
    out = [DominoTableau(family, shape, p) for p in domino_fills(family, shape, max_letter)]
    out.sort(key=lambda t: t.pieces)
    return out


def domino_fills(
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
            key = region_split(p).up
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
    minimum that ``FillState.bounds`` allows, and in unshifted families to
    the column cap at most; ``FillState.check`` still judges every fill of
    the slice.
    """
    order = sorted(paving.dominoes, key=_diag_key)
    cand_mins = [fill[0] for fill in candidates]
    max_rank = cand_mins[-1] if candidates else 0
    caps = [max_rank] * len(order) if family.shifted else _column_caps(order, max_rank)
    state = FillState(family)

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
