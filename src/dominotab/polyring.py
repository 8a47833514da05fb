"""Exact sparse polynomials over the integers and the generating functions.

A polynomial in n variables maps exponent tuples of length n to nonzero
integer coefficients.  With a fixed variable count every tableau generating
function is a finite exact polynomial: set fills draw from an n-letter
alphabet, so degrees are bounded.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from operator import lshift

from .partitions import Shape, check_partition, is_staircase_admissible
from .tableaux import Family, Fill, _candidate_fills, letter_index
from .domino_tableaux import FillState, Piece, tiling_root
from .pavings import Node
# Unused here; the benchmark tracer finds the flat enumerator under this name.
from .tableaux import enumerate_tableaux  # noqa: F401
# Unused here; the benchmark tracer finds the domino enumerator under this name.
from .domino_tableaux import enumerate_domino_tableaux  # noqa: F401

Monomial = tuple[int, ...]


def grlex_key(exps: Monomial) -> tuple:
    return (sum(exps), exps)


@dataclass(frozen=True)
class Polynomial:
    n: int
    terms: dict[Monomial, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        clean = {m: c for m, c in self.terms.items() if c != 0}
        for m in clean:
            if len(m) != self.n or any(e < 0 for e in m):
                raise ValueError(f"bad monomial {m} for {self.n} variables")
        object.__setattr__(self, "terms", clean)

    @staticmethod
    def zero(n: int) -> "Polynomial":
        return Polynomial(n, {})

    @staticmethod
    def one(n: int) -> "Polynomial":
        return Polynomial(n, {(0,) * n: 1})

    def coeff(self, exps: Monomial) -> int:
        return self.terms.get(tuple(exps), 0)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._match(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, 0) + c
        return Polynomial(self.n, terms)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._match(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, 0) - c
        return Polynomial(self.n, terms)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        """The product, over monomials packed into integers whose fields are
        wide enough for every exponent of the product, so that multiplying
        two monomials is one integer addition."""
        self._match(other)
        # No exponent of the product exceeds the sum of the factors' degrees.
        top = max(map(sum, self.terms), default=0) + max(map(sum, other.terms), default=0)
        bits = top.bit_length()
        shifts = [bits * j for j in range(self.n)]
        left = [(sum(map(lshift, m, shifts)), c) for m, c in self.terms.items()]
        right = [(sum(map(lshift, m, shifts)), c) for m, c in other.terms.items()]
        terms: dict[int, int] = {}
        for m1, c1 in left:
            for m2, c2 in right:
                terms[m1 + m2] = terms.get(m1 + m2, 0) + c1 * c2
        return _unpack(self.n, bits, terms)

    def _match(self, other: "Polynomial") -> None:
        if self.n != other.n:
            raise ValueError("variable counts differ")

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.n == other.n
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self.terms.items())))

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        """Terms in graded lexicographic order (degree, then exponents)."""
        return sorted(self.terms.items(), key=lambda mc: grlex_key(mc[0]))

    def is_symmetric(self) -> bool:
        """Invariance under every adjacent variable swap."""
        for i in range(self.n - 1):
            for m, c in self.terms.items():
                swapped = list(m)
                swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
                if self.terms.get(tuple(swapped), 0) != c:
                    return False
        return True

    def homogeneous_component(self, degree: int) -> "Polynomial":
        return Polynomial(
            self.n, {m: c for m, c in self.terms.items() if sum(m) == degree}
        )

    def min_degree(self) -> int:
        if not self.terms:
            return 0
        return min(sum(m) for m in self.terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        lines = []
        for m, c in self.sorted_terms():
            factors = " ".join(
                f"x{i + 1}^{e}" for i, e in enumerate(m) if e
            )
            lines.append(f"{c} * {factors}" if factors else f"{c}")
        return "\n".join(lines)


def genfun(family: Family, shape: Shape, n: int) -> Polynomial:
    """Signed weight generating function over the flat tableaux of a shape.

    Schur and Q-Schur sum plain weights; the stable Grothendieck function
    signs each tableau by (-1) to the excess of letters over cells, and its
    shifted analogue by the excess of letters over up-region cells.  So each
    letter cell contributes its own factor (-1)^(|fill| - 1) x^weight(fill).

    The sum is a transfer over the letter cells in row-major order (in the
    shifted families, the cells with c >= r), and lists no tableau.  A state
    is the frontier of fill maxima that later cells still read: the left
    cell's, the row above's at the columns this row has not filled yet, and
    this row's at the columns the next row reads.  Every other entry is 0,
    which is below every rank, so equal frontiers are one state, and each
    state holds the signed weight polynomial of the prefixes that reach it.
    A cell reads only its left and upper neighbours:

    * rows weakly increase, min >= max(left), and columns strictly increase
      in the unshifted families, min > max(above), and weakly in the shifted
      ones, min >= max(above);
    * in the shifted families a letter occurs at most once as unprimed in a
      column and as primed in a row.  If a letter a occurs in two cells of
      a line, the weak increase gives a <= max <= min <= ... <= a over the
      cells from the first to the second, so every cell between them is
      {a} alone, and a occurs in two neighbouring cells, as the max of the
      first and the min of the second.  So the rule reduces to rejecting
      min == max(above) when min is unprimed, and min == max(left) when it
      is primed.

    These rules read a fill only through its minimum and maximum, so the
    fills are judged and stored by (min, max) class.  An unshifted cell with
    k cells below it needs k larger letters there, so its maximum is at most
    the top rank less 2k.  Shifted shapes that are not admissible raise
    ValueError, and a layer of more than MAX_TRANSFER_TERMS terms raises it.
    """
    shape = check_partition(shape)
    if family.shifted and not is_staircase_admissible(shape):
        raise ValueError(f"shape {shape} is not admissible for shifted tableaux")
    bits = (2 * sum(shape)).bit_length()  # a shifted set-valued cell may hold i' and i
    classes = _fill_classes(family, n, bits)
    class_mins = [fill[0] for fill, _ in classes]
    shifted = family.shifted
    strict = 0 if shifted else 1
    heights = [sum(1 for part in shape if part >= c) for c in range(1, max(shape, default=0) + 1)]
    layer: dict[tuple[int, ...], dict[int, int]] = {(0,) * len(heights): {0: 1}}
    for r, length in enumerate(shape, start=1):
        below = shape[r] if r < len(shape) else 0
        next_first = r + 1 if shifted else 1  # the next row's first letter column
        for c in range(r if shifted else 1, length + 1):
            j = c - 1  # the cell's index in a frontier
            top = 2 * n if shifted else 2 * (n - heights[j] + r)
            # After this cell, the left cell's entry is read again only by
            # the next row, and this cell's by the next cell or the next row.
            keep_left = next_first <= c - 1 <= below
            keep_here = c < length or next_first <= c <= below
            nxt: dict[tuple[int, ...], dict[int, int]] = {}
            hi = bisect_right(class_mins, top)
            stored = 0
            for front, terms in layer.items():
                left = front[j - 1] if j else 0
                above = front[j]
                head = front[: j - 1] + (front[j - 1] if keep_left else 0,) if j else ()
                tail = front[j + 1 :]
                lo = bisect_left(class_mins, max(left, above + strict))
                for fill, fill_terms in classes[lo:hi]:
                    low, high = fill[0], fill[-1]
                    if high > top or shifted and (
                        low == above and not low % 2 or low == left and low % 2
                    ):
                        continue
                    key = head + (high if keep_here else 0,) + tail
                    acc = nxt.get(key)
                    if acc is None:
                        acc = nxt[key] = {}
                    before = len(acc)
                    for m, coef in terms.items():
                        for e, sign in fill_terms:
                            acc[m + e] = acc.get(m + e, 0) + coef * sign
                    stored += len(acc) - before
                    if stored > MAX_TRANSFER_TERMS:
                        raise ValueError(
                            f"the flat sum over {shape} needs more than "
                            f"{MAX_TRANSFER_TERMS} terms in one layer"
                        )
            layer = nxt
    total = next(iter(layer.values()), {})  # the one state left has an empty frontier
    return _unpack(n, bits, total)


# The most states one layer of the domino transfer may hold.  GQ (6,5,5,4)
# peaks at 167,412 states with n=3, in about 330 MB; with n=4 its
# polynomials are larger, and 200,000 states take about 950 MB.
MAX_TRANSFER_STATES = 250_000
# The most terms the polynomials of one layer of either transfer may hold
# together, which bounds its memory.  GQ (6,5,5,4) peaks at 2,123,158 terms
# with n=3.
MAX_TRANSFER_TERMS = 3_000_000


def _unpack(n: int, bits: int, packed: dict[int, int]) -> Polynomial:
    """The polynomial of packed terms: a monomial's exponent j is its field
    j of ``bits`` bits, counting from 0 at the low end."""
    field = (1 << bits) - 1
    shifts = [bits * j for j in range(n)]
    return Polynomial(n, {tuple([m >> s & field for s in shifts]): c for m, c in packed.items()})


def _fill_classes(family: Family, n: int, bits: int) -> list[tuple[Fill, list[tuple[int, int]]]]:
    """The candidate fills over n letters grouped by (min, max), sorted by
    min.  A class is its first fill and the sum of sign * x^weight over its
    fills, as (packed exponents, coefficient) terms: a fill's sign is
    (-1)^(|fill| - 1), and its letters of index j add 1 to field j - 1 of
    ``bits`` bits."""
    classes: dict[tuple[int, int], tuple[Fill, dict[int, int]]] = {}
    for fill in _candidate_fills(family, n):
        first, terms = classes.setdefault((fill[0], fill[-1]), (fill, {}))
        exps = sum(1 << bits * (letter_index(r) - 1) for r in fill)
        terms[exps] = terms.get(exps, 0) + (-1 if len(fill) % 2 == 0 else 1)
    return sorted((first, list(terms.items())) for first, terms in classes.values())


def domino_genfun(family: Family, shape: Shape, n: int) -> Polynomial:
    """Signed weight generating function over domino tableaux of a shape.

    Signs mirror the flat case with cells replaced by dominoes: the set-valued
    sum signs by letters minus domino count, the shifted set-valued sum by
    up-region letters minus up-region domino count.  So each non-X domino
    contributes its own factor (-1)^(|fill| - 1) x^weight(fill), and the X
    dominoes below D_0 contribute nothing.

    The sum is a transfer over the shape's tiling automaton, one even cell
    per layer, and lists no tableau.  A state is an automaton node and the
    frontier: the (domino, fill) of every placed piece whose crossing is at
    least c - 2, where c is the crossing of the next even cell.  Each state
    holds the signed weight polynomial of the prefixes that reach it, and
    prefixes with equal states are summed once.  The frontier is enough to
    judge every later piece, whose crossing d is at least c:

    * the ordering rules read the neighbour cells of a piece, whose content
      is at least d - 2, and only pieces of crossing at least d - 2 cover
      such cells;
    * the southeast rule reads only the pieces of crossing d - 2 and d + 2;
    * in shifted families minima weakly increase along rows and down
      columns, so equal minima in a row or a column are adjacent, and the
      multiplicity rule reduces to the left and upper neighbours.

    So a state's ``FillState`` is rebuilt from its frontier alone, and its
    ``bounds`` and ``check`` judge the fills of each edge as in
    ``domino_fills``.  Those rules read a candidate fill only through its
    minimum and maximum, so the fills are judged and stored by (min, max)
    class, and each class carries the summed terms of its fills.  The
    2-quotient enters only the shifted shape test, never the sum, and the
    bijection not at all, so the identity check stays independent of them.

    A layer of more than MAX_TRANSFER_STATES states, or of more than
    MAX_TRANSFER_TERMS terms in its polynomials, raises ValueError.
    """
    shape = check_partition(shape)
    root = tiling_root(family, shape)
    if root[0] is None:  # the empty shape
        return Polynomial.one(n)
    bits = sum(shape).bit_length()  # no letter index occurs more than |shape| times
    classes = _fill_classes(family, n, bits)
    class_mins = [fill[0] for fill, _ in classes]
    max_rank = class_mins[-1]
    total: dict[int, int] = {}
    # A state's key is its node's id and the ids of its frontier's dominoes
    # and fills (one object each per shape and call), so no key hashes a
    # Domino.
    layer = {(id(root),): (root, (), {0: 1})}
    while layer:
        nxt: dict[tuple[int, ...], tuple[Node, tuple[Piece, ...], dict[int, int]]] = {}
        stored = 0
        for key, (node, frontier, terms) in layer.items():
            state = FillState(family)
            for dom, fill in frontier:
                state.add(dom, fill)
            edges = node[0]
            ahead = edges[0][2][0]  # the edges of the next even cell, None at the end
            if ahead is not None:
                keep_from = ahead[0][0].crossing() - 2
                drop = sum(1 for dom, _ in frontier if dom.crossing() < keep_from)
                kept, kept_key = frontier[drop:], key[1 + 2 * drop :]
            for dom, depth, child in edges:
                lo_min, lo_max, _, _ = state.bounds(dom)
                top = bisect_right(class_mins, min(lo_max, max_rank - depth))
                for fill, fill_terms in classes[bisect_left(class_mins, lo_min) : top]:
                    if not state.check(dom, fill):
                        continue
                    if ahead is None:  # a complete tiling
                        acc = total
                    else:
                        child_key = (id(child), *kept_key, id(dom), id(fill))
                        entry = nxt.get(child_key)
                        if entry is None:
                            if len(nxt) >= MAX_TRANSFER_STATES:
                                raise ValueError(
                                    f"the domino sum over {shape} needs more than "
                                    f"{MAX_TRANSFER_STATES} states in one layer"
                                )
                            entry = nxt[child_key] = (child, kept + ((dom, fill),), {})
                        acc = entry[2]
                    before = len(acc)
                    for m, c in terms.items():
                        for e, s in fill_terms:
                            acc[m + e] = acc.get(m + e, 0) + c * s
                    stored += len(acc) - before
                    if stored > MAX_TRANSFER_TERMS:
                        raise ValueError(
                            f"the domino sum over {shape} needs more than "
                            f"{MAX_TRANSFER_TERMS} terms in one layer"
                        )
        layer = nxt
    return _unpack(n, bits, total)
