"""Exact sparse polynomials over the integers and the generating functions.

A polynomial in n variables maps exponent tuples of length n to nonzero
integer coefficients.  With a fixed variable count every tableau generating
function is a finite exact polynomial: set fills draw from an n-letter
alphabet, so degrees are bounded.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

from .partitions import Shape, check_partition, up_cell_count
from .tableaux import Family, Fill, Tableau, _candidate_fills, cardinality, enumerate_tableaux
from .tableaux import letter_index, weight
from .domino_tableaux import FillState, Piece, tiling_root
from .pavings import Node
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
        self._match(other)
        terms: dict[Monomial, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                terms[m] = terms.get(m, 0) + c1 * c2
        return Polynomial(self.n, terms)

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


def _flat_sign(family: Family, t: Tableau, shape: Shape) -> int:
    if not family.set_valued:
        return 1
    base = up_cell_count(shape) if family.shifted else sum(shape)
    return -1 if (cardinality(t) - base) % 2 else 1


def genfun(family: Family, shape: Shape, n: int) -> Polynomial:
    """Signed weight generating function over the flat tableaux of a shape.

    Schur and Q-Schur sum plain weights; the stable Grothendieck function
    signs each tableau by (-1) to the excess of letters over cells, and its
    shifted analogue by the excess of letters over up-region cells.
    """
    shape = check_partition(shape)
    terms: dict[Monomial, int] = {}
    for t in enumerate_tableaux(family, shape, n):
        m = weight(t, n)
        terms[m] = terms.get(m, 0) + _flat_sign(family, t, shape)
    return Polynomial(n, terms)


# The most states one layer of the domino transfer may hold.  GQ (6,5,5,4)
# peaks at 167,412 states with n=3, in about 330 MB; with n=4 its
# polynomials are larger, and 200,000 states take about 950 MB.
MAX_TRANSFER_STATES = 250_000


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

    A layer of more than MAX_TRANSFER_STATES states raises ValueError.
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
                    for m, c in terms.items():
                        for e, s in fill_terms:
                            acc[m + e] = acc.get(m + e, 0) + c * s
        layer = nxt
    field = (1 << bits) - 1
    return Polynomial(
        n, {tuple(m >> bits * j & field for j in range(n)): c for m, c in total.items()}
    )
