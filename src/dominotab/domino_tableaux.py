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

Every rule between two pieces is stated once, in ``piece_relation``: which
bounds a placed piece puts on a fill of a later domino.  ``fold_bounds``
folds them over a set of placed pieces into a floor on a fill's minimum and
two caps, and both judges of fills read them through it.

``tiling_walk`` walks the paths of the shape's tiling automaton
(``pavings._tiling_automaton``, one step per even-content cell, in diagonal
reading order) layer by layer, judging each domino's fills by (min, max)
class against the frontier of placed pieces, and sums the paths' weights in
a ring its caller picks: ``polyring.domino_genfun`` sums signed monomials,
and ``enumerate_domino_tableaux`` counts the tableaux and lists them depth
first over the links the same walk recorded.  ``FillState`` is the judge of
``validate_domino_tableau``, which folds a tableau's own pieces.  It stays
a class, not a loop in the validator, because the benchmark tracer
(``benchmarks/tracing.py``) patches ``FillState.check`` to count the
validator's checks.  Both judge pieces in diagonal reading order, as the
tiling automaton places them, so no two pieces overlap and each pairwise
rule is read by the later piece of its pair: a piece of crossing d is
judged against the pieces of crossings d - 2 and d alone.  The per-piece
rules are stated once too, in ``fill_fits``, which ``FillState`` calls with
the folded bounds, and which reads the letter rule of the flat cells,
``tableaux._letter_ok``; the walk's candidate fills obey them already.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import lru_cache
from operator import attrgetter, itemgetter
from typing import Iterable

from .partitions import MAX_LISTED, Shape, Cell, check_partition, is_pavable
from .pavings import Domino, Node, Paving, _tiling_automaton
from .pavings import is_shifted_pavable, is_shifted_paving
# Unused here; the benchmark tracer patches the paving enumerator under this name.
from .pavings import enumerate_pavings  # noqa: F401
from .tableaux import MAX_TRANSFER_TERMS, Family, Fill, X_FILL, _letter_ok
from .tableaux import check_fill, fill_classes, fill_floor, format_fill, walk_paths

Piece = tuple[Domino, Fill]
INF = float("inf")
_set = object.__setattr__  # DominoTableau's own fields, past its raising __setattr__


class DominoTableau:
    """Pieces, each a domino and its fill, sorted by domino, on a shape.

    An immutable value with no ``__dict__``: it equals another
    DominoTableau of equal fields and hashes as the tuple of its fields.
    Besides the fields it keeps, once computed, the paving and the
    diagonal order: they depend on the fields alone, and equality, the
    hash and the repr read only the fields.
    """

    __slots__ = ("family", "shape", "pieces", "_paving", "_diagonal_order")

    def __init__(self, family: Family, shape: Shape, pieces: tuple[Piece, ...]) -> None:
        _set(self, "family", family)
        _set(self, "shape", shape)
        # The pieces sort by domino alone, a tuple compared in C.
        _set(self, "pieces", tuple(sorted(pieces, key=itemgetter(0))))
        _set(self, "_paving", None)
        _set(self, "_diagonal_order", None)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.family, self.shape, self.pieces) == (other.family, other.shape, other.pieces)

    def __hash__(self) -> int:
        return hash((self.family, self.shape, self.pieces))

    def __repr__(self) -> str:
        fields = f"family={self.family!r}, shape={self.shape!r}, pieces={self.pieces!r}"
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        # Rebuilt through __init__: a copy would otherwise restore the slots
        # through the raising __setattr__.
        return (type(self), (self.family, self.shape, self.pieces))

    def paving(self) -> Paving:
        """The tiling by the pieces' dominoes; raises ValueError unless they
        tile the shape.  It is proved on the first call and kept."""
        if self._paving is None:
            _set(self, "_paving", Paving(self.shape, tuple(d for d, _ in self.pieces)))
        return self._paving

    def diagonal_order(self) -> tuple[Piece, ...]:
        """The pieces in diagonal reading order, sorted on the first call
        and kept."""
        if self._diagonal_order is None:
            _set(self, "_diagonal_order", tuple(_diag_order(self.pieces)))
        return self._diagonal_order

    def up_pieces(self) -> tuple[Piece, ...]:
        return tuple((d, f) for d, f in self.pieces if d.crossing() >= 0)


def make_domino_tableau(family: Family, shape: Shape, pieces: Iterable[Piece]) -> DominoTableau:
    """Build a DominoTableau, raising ValueError on structural problems."""
    shape = check_partition(shape)
    pieces = tuple((d, check_fill(tuple(f))) for d, f in pieces)
    t = DominoTableau(family, shape, pieces)
    t.paving()  # raises unless a tiling, and is kept for the validator
    return t


# The bounds a placed piece puts on a fill of a later domino, as flags of
# ``piece_relation``; lo and hi are the placed fill's minimum and maximum.
LEFT = 1  # it covers a left cell: left >= lo, for fill_floor(left, above)
ABOVE = 2  # it covers an upper cell: above >= lo
BELOW = 8  # it covers a lower cell: min <= (lo - 1) | 1
# Set-valued families only: a piece of the same type two diagonals down ...
SE_DOWN_FLOOR = 16  # ... with the domino's last cell weakly SE of its first: min >= hi + (hi & 1)
SE_DOWN_CAP = 32  # ... with its last cell weakly SE of the domino's first: max | 1 <= lo


# A pure function of its arguments, cached by value: a verify-unshifted pass
# asks 91,933 times for 686 distinct triples, and the domino sum of GQ
# (6,5,5,4) with n=3 2.17 million times for 138.  An entry takes about 160
# bytes, so a full cache about 0.7 MB, besides the dominoes its keys keep
# alive, which are mostly the interned ones of ``pavings.domino``.
@lru_cache(maxsize=4096)
def piece_relation(dom: Domino, other: Domino, set_valued: bool) -> int:
    """Which bounds a placed piece on ``other`` puts on a fill of ``dom``,
    as the sum of the flags above; 0 for none.  The dominoes must not
    overlap, and ``other`` must come before ``dom`` in diagonal reading
    order, as both judges place them.  So ``other`` crosses diagonal d - 2
    or d, where ``dom`` crosses d, and on d it lies northwest of ``dom``.
    It is never two diagonals up, nor a right neighbour: a cell right of
    ``dom`` has content one higher than its neighbour in ``dom``, so its
    piece crosses d southeast of ``dom``, or d + 2.

    Ordering and multiplicity: the minima obey ``fill_floor`` cell by cell,
    so a left or upper neighbour bounds the minimum from below and a lower
    one, by the mirror rule, from above.  Southeast: for same-type F1, F2
    on diagonals two apart with F2's last cell weakly southeast of F1's
    first, max(F1) <= min(F2), strictly when F2 lies on the higher diagonal
    and max(F1) is primed, or on the lower one and max(F1) is unprimed;
    up_even(max(F1)) <= min(F2) and up_odd(max(F1)) <= min(F2) state the
    two cases, where up_even rounds a rank up to even (a primed letter up
    to its unprimed one) and up_odd up to odd.  ``dom`` lies on the higher
    diagonal, as F2 in the first case and F1 in the second.
    """
    (r, c), (last_r, last_c) = dom.cells()
    (o_r, o_c), (o_last_r, o_last_c) = other.cells()
    # A domino covers its first row in every column it spans and its first
    # column in every row, so a piece whose rows meet the domino's can only
    # be a left neighbour, and one whose columns meet an upper or lower one;
    # no piece meets both without overlapping the domino.
    if o_r <= last_r and o_last_r >= r:
        rel = LEFT if o_last_c == c - 1 else 0
    elif o_c <= last_c and o_last_c >= c:
        rel = ABOVE if o_last_r == r - 1 else BELOW if o_r == last_r + 1 else 0
    else:
        rel = 0
    if set_valued and other.dtype() == dom.dtype() and other.crossing() == dom.crossing() - 2:
        after = last_r >= o_r and last_c >= o_c  # dom's last cell weakly SE of other's first
        before = o_last_r >= r and o_last_c >= c  # and other's last cell of dom's first
        rel |= SE_DOWN_FLOOR * after | SE_DOWN_CAP * before
    return rel


def fold_bounds(dom: Domino, pieces: Iterable[Piece], set_valued: bool) -> tuple[int, float, float]:
    """What the placed non-X ``pieces``, each before ``dom`` in diagonal
    reading order, require of a fill on ``dom``: (floor, cap, odd_cap),
    with ``inf`` for no bound.  A fill is accepted iff
    floor <= min <= cap and max | 1 <= odd_cap.

    Each piece is read through ``piece_relation``: left and above are the
    largest minimum of their pieces, floor the largest of
    ``fill_floor(left, above)`` and the southeast floors, cap the least of
    the lower caps, and odd_cap the least minimum of its pieces.
    """
    left = above = 0
    floor, cap, odd_cap = 0, INF, INF
    for other, fill in pieces:
        rel = piece_relation(dom, other, set_valued)
        if not rel:
            continue
        lo = fill[0]
        if rel & LEFT and lo > left:
            left = lo
        if rel & ABOVE and lo > above:
            above = lo
        if rel & BELOW and (lo - 1) | 1 < cap:
            cap = (lo - 1) | 1
        if rel >= SE_DOWN_FLOOR:  # a southeast flag, the high ones
            hi = fill[-1]
            if rel & SE_DOWN_FLOOR and hi + (hi & 1) > floor:
                floor = hi + (hi & 1)
            if rel & SE_DOWN_CAP and lo < odd_cap:
                odd_cap = lo
    low = fill_floor(left, above)
    return (low if low > floor else floor, cap, odd_cap)


def fill_fits(
    family: Family, dom: Domino, fill: Fill, bounds: tuple[int, float, float] | None
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
    floor, cap, odd_cap = bounds
    lo, hi = fill[0], fill[-1]
    return floor <= lo <= cap and hi | 1 <= odd_cap


class FillState:
    """The validator's judge of pieces added in diagonal reading order.

    ``check`` judges a piece against the pieces added before it, and
    ``add`` places it.  The pieces must come in diagonal reading order, no
    two overlapping, so no piece of crossing d + 2 comes before one of
    crossing d: then every rule, pairwise or per piece, is read by the
    later piece of its pair, and a check that succeeds on every piece is
    full validity of the tableau.  Pieces added in any other order may be
    judged wrongly.

    A piece of crossing d is bounded only by the placed non-X pieces of
    crossings d - 2 and d: they alone cover its neighbour cells or lie two
    diagonals below it.  ``check`` folds those through ``fold_bounds`` into
    a floor and two caps, and judges the fill by ``fill_fits``; X reads no
    bounds.  Fills must be strictly increasing, as ``check_fill`` ensures:
    the rules read a fill's minimum as ``fill[0]`` and its maximum as
    ``fill[-1]``.  It is a class, not a loop in the validator, so that the
    benchmark tracer can count the validator's checks by patching ``check``.
    """

    def __init__(self, family: Family):
        self.family = family
        self.by_crossing: dict[int, list[Piece]] = {}  # the placed non-X pieces

    def check(self, dom: Domino, fill: Fill) -> bool:
        bounds = None
        if fill != X_FILL:
            d, placed = dom.crossing(), self.by_crossing
            near = (*placed.get(d - 2, ()), *placed.get(d, ()))
            bounds = fold_bounds(dom, near, self.family.set_valued)
        return fill_fits(self.family, dom, fill, bounds)

    def add(self, dom: Domino, fill: Fill) -> None:
        if fill != X_FILL:
            self.by_crossing.setdefault(dom.crossing(), []).append((dom, fill))


def validate_domino_tableau(t: DominoTableau) -> bool:
    """True iff every family rule holds; raises on malformed structure,
    including a fill that is not strictly increasing.

    After the structural checks (the fills, the tiling, and for shifted
    families the shifted paving), a ``FillState`` judges each piece once,
    in the tableau's diagonal order, against the pieces judged before it.
    The tiling check has proved that no pieces overlap.  The tiling and the
    diagonal order are the tableau's own, kept by ``paving`` and
    ``diagonal_order``: a parsed tableau was tiled when it was built, and
    the split reads the same order after this check.
    """
    for _, fill in t.pieces:
        check_fill(fill)
    paving = t.paving()  # structural: must tile
    if t.family.shifted and not is_shifted_paving(paving):
        return False
    state = FillState(t.family)
    for dom, fill in t.diagonal_order():
        if not state.check(dom, fill):
            return False
        state.add(dom, fill)
    return True


def _diag_key(dom: Domino) -> tuple[int, Cell]:
    """Diagonal reading order: by crossing diagonal, then northwest first."""
    return (dom.crossing(), dom.crossing_cell())


def _diag_order(pieces: Iterable[Piece]) -> list[Piece]:
    return sorted(pieces, key=lambda p: _diag_key(p[0]))


def up_fingerprint(t: DominoTableau) -> str:
    """Canonical serialisation of the filled up-region dominoes."""
    if not t.family.shifted:
        raise ValueError("up_fingerprint applies to shifted families only")
    parts = []
    for dom, fill in t.up_pieces():
        orient = "H" if dom.horiz else "V"
        parts.append(f"{orient}{dom.row},{dom.col}:{format_fill(fill)}")
    return "|".join(parts)


def enumerate_domino_tableaux(
    family: Family, shape: Shape, max_letter: int
) -> list[DominoTableau]:
    """All valid domino tableaux with letters <= max_letter, sorted by pieces.

    One walk of ``tiling_walk`` over the shape's tiling automaton counts
    them, with each (min, max) class of fills weighing its number of fills,
    and records its links, so more than MAX_LISTED tableaux raise
    ValueError before any is built; the listing then follows only the links
    that lead to a complete node, through ``tableaux.walk_paths``, as
    ``tableaux.enumerate_tableaux`` lists flat tableaux.  Each complete
    node's down dominoes are added in X.  Shifted families fill the up
    region only (fills constrain nothing else) and complete each up region
    with its least down region, so they list one representative per
    equivalence class.  Shapes that are not pavable, or not shifted
    pavable, raise ValueError before any walk.
    """
    shape = check_partition(shape)
    root = tiling_root(family, shape)
    classes = fill_classes(family, max_letter)
    links: list[tuple] = []
    total = tiling_walk(family, shape, root, [(f[0], ((0, len(f)),)) for f in classes], links)
    if total.get(0, 0) > MAX_LISTED:
        raise ValueError(f"shape {shape} has more than {MAX_LISTED} domino tableaux")
    out = []
    # Each complete node's X pieces, built once and shared by its tableaux.
    downs: dict[int, list[Piece]] = {}
    for pieces, node in walk_paths(links, total, classes):
        node = node or root  # None for the empty path, of a complete root
        down = downs.get(id(node))
        if down is None:
            down = downs[id(node)] = [(dom, X_FILL) for dom in node[1]]
        out.append(DominoTableau(family, shape, tuple(pieces + down)))
    out.sort(key=attrgetter("pieces"))
    return out


def tiling_root(family: Family, shape: Shape) -> Node:
    """The root of the tiling automaton whose paths are the family's
    tilings of ``shape``: all pavings, or the up regions of the shifted
    pavings.  Shapes that are not partitions, not pavable, or not shifted
    pavable, raise ValueError."""
    if not is_pavable(shape):
        raise ValueError(f"shape {shape} is not pavable")
    if family.shifted and not is_shifted_pavable(shape):
        raise ValueError(f"shape {shape} is not shifted pavable")
    return _tiling_automaton(shape, family.shifted)  # not None: the checks above passed


# The most states one layer of ``tiling_walk`` may hold.  GQ (6,5,5,4)
# peaks at 167,412 states with n=3, in about 330 MB; with n=4 its
# polynomials are larger, and 200,000 states take about 950 MB.
MAX_TRANSFER_STATES = 250_000


def tiling_walk(
    family: Family, shape: Shape, root: Node, classes: list, links: list | None = None
) -> dict[int, int]:
    """The valid fills of the paths of the tiling automaton under ``root``,
    walked layer by layer, one even cell per layer, with the paths' weights
    summed.

    A weight is a dict of terms, packed monomial to coefficient, where
    monomials multiply by ``+`` and 0 is the unit.  ``classes`` holds each
    (min, max) class of candidate fills, sorted by minimum, as its first
    fill and the terms its fills weigh: every rule reads a fill only
    through its minimum and maximum, so the fills are judged by class.  A
    path weighs the product of its pieces' weights, and the walk returns
    the terms summed over the paths that reach a complete node.  Its
    callers weigh a fill by its signed packed monomial
    (``polyring.domino_genfun``) or by 1 (the count of
    ``enumerate_domino_tableaux``).

    Given ``links``, a list, the walk appends to it one link per accepted
    fill class, in walk order: the weight dict of the state it leaves, the
    domino, the class's first fill, the child node, and the weight dict of
    the state it enters (the returned dict for a complete child).  So a
    state's links out come after its links in, and every state's weight
    dict stays alive while the list holds it.  ``tableaux.walk_paths``
    lists the complete paths over them.

    A state is an automaton node and the frontier: the (domino, fill class)
    of every placed piece whose crossing is at least c - 2, where c is the
    crossing of the next even cell.  Each state holds the summed weights of
    the prefixes that reach it, and prefixes with equal states are summed
    once.  The frontier is enough to judge every later piece, whose
    crossing d is at least c:

    * the ordering rules read the neighbour cells of a piece, whose content
      is at least d - 2, and only pieces of crossing at least d - 2 cover
      such cells;
    * the southeast rule joins pieces two crossings apart, and the later
      one reads it from the pieces of crossing d - 2;
    * the multiplicity rule of the shifted families is part of the ordering
      rules: ``piece_relation`` reads it, as ``fill_floor`` and its mirror,
      on the same neighbour cells.

    So each edge's fills are judged from the frontier alone: every rule is
    pairwise, and ``fold_bounds`` folds the frontier into a floor and two
    caps, as ``FillState`` folds the placed pieces for the validator.  The
    fills whose minimum lies between the floor and the cap, or the top rank
    less the edge's column depth, are one slice of the classes.  The
    per-piece family rules, which ``fill_fits`` adds for the validator,
    never fire here, because the candidate fills are admissible already:
    plain fills are single letters, unshifted fills hold no primed letter,
    and shifted edges cross at 0 or above.

    Layer i holds the states at even cell i, and every frontier in it holds
    the pieces of the same earlier even cells, so the pieces that fall out
    of the frontier are the same leading ones in each, counted once per
    layer.  A layer of more than MAX_TRANSFER_STATES states, or of more than
    MAX_TRANSFER_TERMS terms, raises ValueError.  The root of the empty
    shape is complete, and its one path weighs 1 and has no link.
    """
    if root[0] is None:  # the empty shape
        return {0: 1}
    mins = [fill[0] for fill, _ in classes]
    max_rank = mins[-1] if mins else 0
    set_valued = family.set_valued
    total: dict[int, int] = {}
    # A state's key is its node's id and the ids of its frontier's dominoes
    # and fill classes (one interned object per domino, one first fill per
    # class, each alive until the call ends), so no key hashes a Domino.
    layer = {(id(root),): (root, (), {0: 1})}
    while layer:
        nxt: dict[tuple[int, ...], tuple[Node, tuple[Piece, ...], dict[int, int]]] = {}
        stored = 0
        # Every frontier of a layer drops the same leading pieces.
        some_node, some_frontier, _ = next(iter(layer.values()))
        ahead = some_node[0][0][2][0]  # the edges of the next even cell, None at the end
        if ahead is not None:
            keep_from = ahead[0][0].crossing() - 2
            drop = sum(1 for dom, _ in some_frontier if dom.crossing() < keep_from)
        for key, (node, frontier, terms) in layer.items():
            if ahead is not None:
                kept, kept_key = frontier[drop:], key[1 + 2 * drop :]
            for dom, depth, child in node[0]:
                floor, cap, odd_cap = fold_bounds(dom, frontier, set_valued)
                top = bisect_right(mins, min(cap, max_rank - depth))
                for fill, fill_terms in classes[bisect_left(mins, floor) : top]:
                    if fill[-1] | 1 > odd_cap:
                        continue
                    if ahead is None:  # a complete tiling
                        acc = total
                    else:
                        child_key = (id(child), *kept_key, id(dom), id(fill))
                        state = nxt.get(child_key)
                        if state is None:
                            if len(nxt) >= MAX_TRANSFER_STATES:
                                raise ValueError(
                                    f"walking the tilings of {shape} needs more than "
                                    f"{MAX_TRANSFER_STATES} states in one layer"
                                )
                            state = nxt[child_key] = (child, kept + ((dom, fill),), {})
                        acc = state[2]
                    if links is not None:
                        links.append((terms, dom, fill, child, acc))
                    before = len(acc)
                    for m, c in terms.items():
                        for e, s in fill_terms:
                            acc[m + e] = acc.get(m + e, 0) + c * s
                    stored += len(acc) - before
                    if stored > MAX_TRANSFER_TERMS:
                        raise ValueError(
                            f"walking the tilings of {shape} needs more than "
                            f"{MAX_TRANSFER_TERMS} terms in one layer"
                        )
        layer = nxt
    return total
