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

``domino_fills`` enumerates them without listing pavings: a memoised
automaton of the shape's tilings (one step per even-content cell, in
diagonal reading order) guides a single depth-first search that chooses
each domino and its fill together.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterable, Iterator

from .partitions import (
    Shape,
    Cell,
    cells,
    check_partition,
    is_pavable,
    is_staircase_admissible,
    two_quotient,
)
from .pavings import Domino, Paving, is_shifted_paving
# Unused here; the benchmark tracer patches the paving enumerator under this name.
from .pavings import enumerate_pavings  # noqa: F401
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
    paving = Paving(t.shape, tuple(d for d, _ in t.pieces))  # structural: must tile
    if t.family.shifted and not is_shifted_paving(paving):
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
    """The pieces of every valid domino tableau, tiling and fills in one search.

    The search walks the paths of ``_tiling_automaton`` depth first, so
    dominoes arrive in diagonal reading order, a prefix shared by many
    pavings is filled once, and no path ends in a dead-end tiling.  The
    candidate fills are sorted, so the fills whose minimum lies in a range
    are one slice of them.  A domino's range runs from the lowest to the
    highest minimum that ``FillState.bounds`` allows, and to the domino's
    column cap at most; ``FillState.check`` still judges every fill of the
    slice.

    Shifted families fill the up region only (fills constrain nothing else)
    and complete each up region with its least down region in X, so they
    yield one representative per equivalence class.
    """
    shape = check_partition(shape)
    if not shape:
        yield ()
        return
    candidates = _candidate_fills(family, max_letter)
    cand_mins = [fill[0] for fill in candidates]
    root = _tiling_automaton(shape, family.shifted, cand_mins[-1] if candidates else 0)
    if root is None:
        if family.shifted and is_pavable(shape):
            raise ValueError(f"shape {shape} is not shifted pavable")
        raise ValueError(f"shape {shape} is not pavable")
    state = FillState(family)
    bounds, try_add, pop = state.bounds, state.try_add, state.pop

    def options(edges: tuple[Edge, ...]) -> Iterator[Node]:
        """The child of each edge, once per valid fill of its domino; the
        piece stays in ``state`` until the next child is asked for."""
        for dom, cap, child in edges:
            lo_min, lo_max, _, _ = bounds(dom)
            top = bisect_right(cand_mins, min(lo_max, cap))
            for fill in candidates[bisect_left(cand_mins, lo_min) : top]:
                if try_add(dom, fill):
                    yield child
                    pop()

    stack = [options(root[0])]
    while stack:
        child = next(stack[-1], None)
        if child is None:  # this node's options are spent: back up one domino
            stack.pop()
        elif child[0] is None:  # a complete tiling, with its X pieces
            yield tuple(state.pieces) + child[1]
        else:
            stack.append(options(child[0]))


# A node of the tiling automaton is (edges, X pieces).  Its edges, each
# (domino, column cap, child node), are None once the tiling is complete;
# only a complete node of a shifted family has X pieces.
Node = tuple
Edge = tuple[Domino, int, Node]


def _tiling_automaton(shape: Shape, shifted: bool, max_rank: int) -> Node | None:
    """The tilings of ``shape`` as the paths of a memoised automaton, or None
    if there is none.

    Every domino covers one even-content cell, its crossing cell, so a
    tiling picks for each even cell, in ``_diag_key`` order, the odd
    neighbour that shares its domino.  A node is (even-cell index, the
    covered odd cells that a later even cell can still reach); only the
    edges that lead to a complete tiling are kept.

    Shifted families pick partners for the even cells of content >= 0 only,
    which gives the up region of a shifted paving: the 2-quotient must pass
    the shape test, and a vertical domino whose top cell is on D_0, past
    column 1, needs its left cell covered by an up domino.  The cells of
    content -1 that the up region covers stay in the node to the end, where
    the rest of the shape gets its least tiling (``_least_tiling``).

    An unshifted domino with k cells below it in a column needs at least
    ceil(k/2) distinct dominoes there, each with a larger minimum, and the
    unshifted ranks are even, so its cap is max_rank - 2 ceil(k/2).
    """
    if shifted and not all(is_staircase_admissible(q) for q in two_quotient(shape)):
        return None
    cell_set = set(cells(shape))
    least = 0 if shifted else 1 - len(shape)  # the least even content searched
    evens = sorted((c - r, r, c) for r, c in cell_set if c - r >= least and (c - r) % 2 == 0)
    odds = sorted((r, c) for r, c in cell_set if c - r >= least - 1 and (c - r) % 2)
    bits = {cell: 1 << k for k, cell in enumerate(odds)}
    heights = [sum(1 for part in shape if part >= c) for c in range(1, shape[0] + 1)]
    n = len(evens)
    # The index of the last even cell that can cover each odd cell; shifted
    # cells of content -1 may stay in the down region and are kept to the end.
    last = dict.fromkeys(odds, n)
    choices = []  # per even cell: (domino, odd cell bit, bit it needs, cap)
    for i, (d, r, c) in enumerate(evens):
        options = []
        for odd, top_left, horiz in (
            ((r, c - 1), (r, c - 1), True),
            ((r - 1, c), (r - 1, c), False),
            ((r, c + 1), (r, c), True),
            ((r + 1, c), (r, c), False),
        ):
            if odd not in cell_set:
                continue
            dom = Domino(*top_left, horiz)
            if not shifted or odd[1] > odd[0]:
                last[odd] = i
            # A vertical domino with its top cell on D_0 needs an up domino
            # on its left cell, unless it is in column 1.
            top_on_d0 = shifted and d == 0 and odd == (r + 1, c) and c > 1
            need = bits[(r, c - 1)] if top_on_d0 else 0
            below = heights[dom.col - 1] - max(r, odd[0])
            cap = max_rank if shifted else max_rank - 2 * ((below + 1) // 2)
            options.append((dom, bits[odd], need, cap))
        choices.append(options)
    due = [0] * n  # the odd cells that must be covered after each step
    keep = [0] * (n + 1)  # the odd cells a node at each step remembers
    for cell, i in last.items():
        if i < n:
            due[i] |= bits[cell]
        for j in range(i + 1):
            keep[j] |= bits[cell]

    memo: dict[tuple[int, int], Node | None] = {}

    def node(i: int, mask: int) -> Node | None:
        key = (i, mask)
        if key in memo:
            return memo[key]
        if i == n:
            result: Node | None = (None, ())
            if shifted:
                down = _least_tiling(
                    cell
                    for cell in cell_set
                    if cell[1] < cell[0] and not mask & bits.get(cell, 0)
                )
                result = None if down is None else (None, tuple((dom, X_FILL) for dom in down))
        else:
            edges = []
            for dom, bit, need, cap in choices[i]:
                if mask & bit or mask & need != need:
                    continue
                covered = mask | bit
                if covered & due[i] != due[i]:
                    continue
                child = node(i + 1, covered & keep[i + 1])
                if child is not None:
                    edges.append((dom, cap, child))
            result = (tuple(edges), ()) if edges else None
        memo[key] = result
        return result

    return node(0, 0)


def _least_tiling(region: Iterable[Cell]) -> tuple[Domino, ...] | None:
    """The lexicographically least domino tiling of ``region``, or None.

    The first free cell in row-major order is the top-left cell of the least
    domino left, and a vertical domino sorts before a horizontal one on the
    same cell, so the first tiling this search finds is the least.
    """
    order = sorted(region)
    free = set(order)
    placed: list[Domino] = []

    def fill_from(k: int) -> bool:
        while k < len(order) and order[k] not in free:
            k += 1
        if k == len(order):
            return True
        r, c = order[k]
        for dom in (Domino(r, c, False), Domino(r, c, True)):
            other = dom.cells()[1]
            if other in free:
                free.difference_update(dom.cells())
                placed.append(dom)
                if fill_from(k + 1):
                    return True
                placed.pop()
                free.update(dom.cells())
        return False

    return tuple(placed) if fill_from(0) else None
