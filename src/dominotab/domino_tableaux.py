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

``domino_fills`` enumerates them without listing pavings: it walks the
paths of the shape's tiling automaton (``pavings._tiling_automaton``, one
step per even-content cell, in diagonal reading order) in a single
depth-first search that chooses each domino and its fill together.

Every rule between two pieces is stated once, in ``piece_relation``: which
bounds a placed piece puts on a fill of another domino.  ``fold_bounds``
folds them over a set of placed pieces into a floor on a fill's minimum and
three caps, and every judge of fills reads them through it: ``FillState``,
the incremental checker of that search; ``validate_domino_tableau``, which
folds a tableau's own pieces once; and ``polyring.domino_genfun``, which
folds a transfer state's frontier.  All three judge pieces in diagonal
reading order, as the tiling automaton places them, so no two pieces
overlap and each pairwise rule is read by the later piece of its pair: a
piece of crossing d is judged against the pieces of crossings d - 2 and d
alone.  The per-piece rules are stated once too, in ``fill_fits``, which the
first two call with the folded bounds, and which reads the letter rule of
the flat cells, ``tableaux._letter_ok``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator

from .partitions import MAX_LISTED, Shape, Cell, check_partition, is_pavable
from .pavings import Domino, Edge, Node, Paving, _tiling_automaton
from .pavings import is_shifted_pavable, is_shifted_paving
# Unused here; the benchmark tracer patches the paving enumerator under this name.
from .pavings import enumerate_pavings  # noqa: F401
from .tableaux import (
    Family,
    Fill,
    ReadingWord,
    X_FILL,
    _candidate_fills,
    _letter_ok,
    check_fill,
    fill_floor,
    format_fill,
    letter_index,
)

Piece = tuple[Domino, Fill]
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

    # The paving and the diagonal order are kept in the instance's __dict__
    # once computed: they depend on the fields alone, and equality and the
    # hash read only the fields.

    def paving(self) -> Paving:
        """The tiling by the pieces' dominoes; raises ValueError unless they
        tile the shape.  It is proved on the first call and kept."""
        paving = self.__dict__.get("_paving")
        if paving is None:
            dominoes = tuple(d for d, _ in self.pieces)
            paving = self.__dict__["_paving"] = Paving(self.shape, dominoes)
        return paving

    def diagonal_order(self) -> tuple[Piece, ...]:
        """The pieces in diagonal reading order, sorted on the first call
        and kept."""
        order = self.__dict__.get("_diagonal_order")
        if order is None:
            order = self.__dict__["_diagonal_order"] = tuple(_diag_order(self.pieces))
        return order

    def up_pieces(self) -> tuple[Piece, ...]:
        return tuple((d, f) for d, f in self.pieces if d.crossing() >= 0)


def make_domino_tableau(family: Family, shape: Shape, pieces: Iterable[Piece]) -> DominoTableau:
    """Build a DominoTableau, raising ValueError on structural problems."""
    shape = check_partition(shape)
    pieces = tuple((d, check_fill(tuple(f))) for d, f in pieces)
    t = DominoTableau(family, shape, pieces)
    t.paving()  # raises unless a tiling, and is kept for the validator
    return t


# The bounds a placed piece puts on a fill of another domino, as flags of
# ``piece_relation``; lo and hi are the placed fill's minimum and maximum.
LEFT = 1  # it covers a left cell: left >= lo, for fill_floor(left, above)
ABOVE = 2  # it covers an upper cell: above >= lo
RIGHT = 4  # it covers a right cell: min <= lo - (lo & 1)
BELOW = 8  # it covers a lower cell: min <= (lo - 1) | 1
# Set-valued families only: a piece of the same type two diagonals down ...
SE_DOWN_FLOOR = 16  # ... with the domino's last cell weakly SE of its first: min >= hi + (hi & 1)
SE_DOWN_CAP = 32  # ... with its last cell weakly SE of the domino's first: max | 1 <= lo
# ... or two diagonals up.
SE_UP_FLOOR = 64  # the domino's last cell weakly SE of its first: min >= hi | 1
SE_UP_CAP = 128  # its last cell weakly SE of the domino's first: max + (max & 1) <= lo


def piece_relation(dom: Domino, other: Domino, set_valued: bool) -> int:
    """Which bounds a placed piece on ``other`` puts on a fill of ``dom``,
    as the sum of the flags above; 0 for none.  The dominoes must not
    overlap.

    Ordering and multiplicity: the minima obey ``fill_floor`` cell by cell,
    so a left or upper neighbour bounds the minimum from below and a right
    or lower one, by the mirror rule, from above.  Southeast: for same-type
    F1, F2 on diagonals two apart with F2's last cell weakly southeast of
    F1's first, max(F1) <= min(F2), strictly when F2 lies on the higher
    diagonal and max(F1) is primed, or on the lower one and max(F1) is
    unprimed; up_even(max(F1)) <= min(F2) and up_odd(max(F1)) <= min(F2)
    state the two cases, where up_even rounds a rank up to even (a primed
    letter up to its unprimed one) and up_odd up to odd.
    """
    (r, c), (last_r, last_c) = dom.cells()
    (o_r, o_c), (o_last_r, o_last_c) = other.cells()
    # A domino covers its first row in every column it spans and its first
    # column in every row, so a piece whose rows meet the domino's can only
    # be a left or right neighbour, and one whose columns meet an upper or
    # lower one; no piece meets both without overlapping the domino.
    if o_r <= last_r and o_last_r >= r:
        rel = LEFT if o_last_c == c - 1 else RIGHT if o_c == last_c + 1 else 0
    elif o_c <= last_c and o_last_c >= c:
        rel = ABOVE if o_last_r == r - 1 else BELOW if o_r == last_r + 1 else 0
    else:
        rel = 0
    if set_valued and other.dtype() == dom.dtype():
        after = last_r >= o_r and last_c >= o_c  # dom's last cell weakly SE of other's first
        before = o_last_r >= r and o_last_c >= c  # and other's last cell of dom's first
        gap = other.crossing() - dom.crossing()
        if gap == -2:
            rel |= SE_DOWN_FLOOR * after | SE_DOWN_CAP * before
        elif gap == 2:
            rel |= SE_UP_FLOOR * after | SE_UP_CAP * before
    return rel


def fold_bounds(
    dom: Domino, pieces: Iterable[Piece], rels: dict[int, int], set_valued: bool
) -> tuple[int, float, float, float]:
    """What the placed non-X ``pieces`` require of a fill on ``dom``:
    (floor, cap, odd_cap, even_cap), with ``inf`` for no bound.  A fill is
    accepted iff floor <= min <= cap, max | 1 <= odd_cap and
    max + (max & 1) <= even_cap.

    Each piece is read through ``piece_relation``: left and above are the
    largest minimum of their pieces, floor the largest of
    ``fill_floor(left, above)`` and the southeast floors, cap the least of
    the right and lower caps, and odd_cap and even_cap the least minimum of
    their pieces.  ``rels`` memoises the relations of ``dom`` by the id of
    the other domino; the caller keeps every domino it keys alive.
    """
    left = above = 0
    floor, cap, odd_cap, even_cap = 0, INF, INF, INF
    for other, fill in pieces:
        rel = rels.get(id(other))
        if rel is None:
            rel = rels[id(other)] = piece_relation(dom, other, set_valued)
        if not rel:
            continue
        lo = fill[0]
        if rel & LEFT and lo > left:
            left = lo
        if rel & ABOVE and lo > above:
            above = lo
        if rel & RIGHT and lo - (lo & 1) < cap:
            cap = lo - (lo & 1)
        if rel & BELOW and (lo - 1) | 1 < cap:
            cap = (lo - 1) | 1
        if rel >= SE_DOWN_FLOOR:  # a southeast flag, the high ones
            hi = fill[-1]
            if rel & SE_DOWN_FLOOR and hi + (hi & 1) > floor:
                floor = hi + (hi & 1)
            if rel & SE_DOWN_CAP and lo < odd_cap:
                odd_cap = lo
            if rel & SE_UP_FLOOR and hi | 1 > floor:
                floor = hi | 1
            if rel & SE_UP_CAP and lo < even_cap:
                even_cap = lo
    low = fill_floor(left, above)
    return (low if low > floor else floor, cap, odd_cap, even_cap)


def fill_fits(
    family: Family, dom: Domino, fill: Fill, bounds: tuple[int, float, float, float] | None
) -> bool:
    """Whether ``fill`` may stand on ``dom``: the per-piece family rules,
    then the ``bounds`` that ``fold_bounds`` gave over the placed pieces.

    X stands exactly on the dominoes below D_0 of shifted shapes, and no
    bounds are read for it; a letter fill obeys ``tableaux._letter_ok``, the
    rule of the flat cells.
    """
    if fill == X_FILL:
        return family.shifted and dom.crossing() < 0
    if family.shifted and dom.crossing() < 0 or not _letter_ok(family, fill):
        return False
    floor, cap, odd_cap, even_cap = bounds
    lo, hi = fill[0], fill[-1]
    return floor <= lo <= cap and hi | 1 <= odd_cap and hi + (hi & 1) <= even_cap


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
    ``check`` judges each fill against the result by ``fill_fits``.  The
    relation memo keeps every domino it keys, so a state that outlives the
    dominoes of one shape never reads a relation under a recycled id.
    """

    def __init__(self, family: Family):
        self.family = family
        self.set_valued = family.set_valued
        self.pieces: list[Piece] = []
        self.by_crossing: dict[int, list[Piece]] = {}
        self.relations: dict[int, tuple[Domino, dict[int, int]]] = {}
        self._last_bounds: tuple[Domino, tuple] | None = None
        self._saved_bounds: list[tuple[Domino, tuple] | None] = []  # one per piece

    def bounds(self, dom: Domino) -> tuple[int, float, float, float]:
        """``fold_bounds`` over the placed pieces of crossings d - 2 and d."""
        last_bounds = self._last_bounds
        if last_bounds is not None and last_bounds[0] is dom:
            return last_bounds[1]
        entry = self.relations.get(id(dom))
        if entry is None:  # the entry holds dom, so no other domino takes its id
            entry = self.relations[id(dom)] = (dom, {})
        d, placed = dom.crossing(), self.by_crossing
        near = (*placed.get(d - 2, ()), *placed.get(d, ()))
        result = fold_bounds(dom, near, entry[1], self.set_valued)
        self._last_bounds = (dom, result)
        return result

    def check(self, dom: Domino, fill: Fill) -> bool:
        return fill_fits(self.family, dom, fill, self.bounds(dom))

    def add(self, dom: Domino, fill: Fill) -> None:
        self._saved_bounds.append(self._last_bounds)
        self._last_bounds = None
        if id(dom) not in self.relations:  # hold dom: later relations key its id
            self.relations[id(dom)] = (dom, {})
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


def validate_domino_tableau(t: DominoTableau) -> bool:
    """True iff every family rule holds; raises on malformed structure,
    including a fill that is not strictly increasing.

    After the structural checks (the fills, the tiling, and for shifted
    families the shifted paving), each piece is judged once, in diagonal
    reading order, by ``fill_fits`` against ``fold_bounds`` over the non-X
    pieces already judged on crossings d - 2 and d; no piece of crossing
    d + 2 comes earlier.  So every pairwise rule is read by the later piece
    of its pair.  The tiling check has proved that no pieces overlap, so no
    covered cells are kept, and each fold's relation memo is thrown away.
    The tiling and the diagonal order are the tableau's own, kept by
    ``paving`` and ``diagonal_order``: a parsed tableau was tiled when it
    was built, and the split reads the same order after this check.
    """
    for _, fill in t.pieces:
        check_fill(fill)
    paving = t.paving()  # structural: must tile
    family = t.family
    if family.shifted and not is_shifted_paving(paving):
        return False
    set_valued = family.set_valued
    judged: dict[int, list[Piece]] = {}  # the non-X pieces judged, by crossing
    for dom, fill in t.diagonal_order():
        if fill == X_FILL:
            if not fill_fits(family, dom, fill, None):
                return False
            continue
        d = dom.crossing()
        near = (*judged.get(d - 2, ()), *judged.get(d, ()))
        if not fill_fits(family, dom, fill, fold_bounds(dom, near, {}, set_valued)):
            return False
        judged.setdefault(d, []).append((dom, fill))
    return True


def _diag_key(dom: Domino) -> tuple[int, Cell]:
    """Diagonal reading order: by crossing diagonal, then northwest first."""
    return (dom.crossing(), dom.crossing_cell())


def _diag_order(pieces: Iterable[Piece]) -> list[Piece]:
    return sorted(pieces, key=lambda p: _diag_key(p[0]))


def diagonal_reading(t: DominoTableau) -> ReadingWord:
    """Segments per even diagonal ascending, each read northwest to southeast,
    from the tableau's diagonal order; a diagonal between the first and the
    last that crosses no piece reads as an empty segment.

    Shifted families start at D_0; the X-filled down region never appears.
    """
    order = t.diagonal_order()
    if t.family.shifted:
        order = [p for p in order if p[0].crossing() >= 0]
    if not order:
        return ReadingWord(start=0, step=2, segments=())
    start = order[0][0].crossing()
    segments: list[list[Fill]] = [[] for _ in range(start, order[-1][0].crossing() + 2, 2)]
    for dom, fill in order:
        segments[(dom.crossing() - start) // 2].append(fill)
    return ReadingWord(start=start, step=2, segments=tuple(map(tuple, segments)))


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


def enumerate_domino_tableaux(
    family: Family, shape: Shape, max_letter: int
) -> list[DominoTableau]:
    """All valid domino tableaux with letters <= max_letter, sorted by pieces.

    The tableaux are those ``domino_fills`` yields: for shifted families one
    representative per equivalence class.  More than MAX_LISTED of them
    raise ValueError, once one more than that is found.
    """
    shape = check_partition(shape)
    fills = islice(domino_fills(family, shape, max_letter), MAX_LISTED + 1)
    out = [DominoTableau(family, shape, p) for p in fills]
    if len(out) > MAX_LISTED:
        raise ValueError(f"shape {shape} has more than {MAX_LISTED} domino tableaux")
    out.sort(key=lambda t: t.pieces)
    return out


def tiling_root(family: Family, shape: Shape) -> Node:
    """The root of the tiling automaton whose paths are the family's
    tilings of ``shape``: all pavings, or the up regions of the shifted
    pavings.  Shapes that are not pavable, or not shifted pavable, raise
    ValueError."""
    shape = check_partition(shape)
    if not is_pavable(shape):
        raise ValueError(f"shape {shape} is not pavable")
    if family.shifted and not is_shifted_pavable(shape):
        raise ValueError(f"shape {shape} is not shifted pavable")
    return _tiling_automaton(shape, family.shifted)  # not None: the checks above passed


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
            lo_min, lo_max, _, _ = bounds(dom)
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
