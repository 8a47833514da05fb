"""Exact sparse polynomials over the integers and the generating functions.

A polynomial in n variables maps exponent tuples of length n to nonzero
integer coefficients.  With a fixed variable count every tableau generating
function is a finite exact polynomial: set fills draw from an n-letter
alphabet, so degrees are bounded.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from operator import lshift
from threading import Lock

from .partitions import Shape, check_cells, check_partition, is_staircase_admissible
from .tableaux import Family, Fill, _candidate_fills, fill_floor, letter_index
from .domino_tableaux import Piece, fold_bounds, tiling_root
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
    is the frontier of fill maxima that later cells still read, and nothing
    else: the row above's from the next cell's column on, this row's at the
    columns the next row reads, and the left cell's.  So a long row keeps a
    short key, equal frontiers are one state, and each state holds the
    signed weight polynomial of the prefixes that reach it.
    A cell reads only its left and upper neighbours, through one lower
    bound on its minimum, ``fill_floor(max(left), max(above))``, which
    states the ordering and multiplicity rules of every family.

    The bound reads a fill only through its minimum and maximum, so the
    fills are judged and stored by (min, max) class.  An unshifted cell with
    k cells below it needs k larger letters there, so its maximum is at most
    the top rank less 2k.  Shifted shapes that are not admissible raise
    ValueError, and so do shapes of more than MAX_CELLS cells, more than
    MAX_VARIABLES variables and a layer of more than MAX_TRANSFER_TERMS
    terms.

    The sums are memoised after those checks, by (family, shape, n): the
    quotient components of a sweep's shapes repeat, so one verify pass asks
    for a few sums many times.  The memo keeps results only, under
    MAX_MEMO_TERMS, and a lock guards it, so concurrent calls are safe; a
    sum that raised is computed, and raises, again.  The returned
    polynomial may be shared with other callers, so, like every Polynomial,
    it must not be changed.  The domino side never reads the memo.
    """
    shape = check_partition(shape)
    check_variables(n)
    check_cells(shape)
    if family.shifted and not is_staircase_admissible(shape):
        raise ValueError(f"shape {shape} is not admissible for shifted tableaux")
    key = (family, shape, n)
    poly = _flat_memo.get(key)
    if poly is None:
        poly = _flat_transfer(family, shape, n)
        _flat_memo.put(key, poly)
    return poly


def _flat_transfer(family: Family, shape: Shape, n: int) -> Polynomial:
    """The transfer of ``genfun`` over a shape its checks have passed."""
    bits = (2 * sum(shape)).bit_length()  # a shifted set-valued cell may hold i' and i
    classes = _fill_classes(family, n, bits)
    class_mins = [fill[0] for fill, _ in classes]
    shifted = family.shifted
    heights = [sum(1 for part in shape if part >= c) for c in range(1, max(shape, default=0) + 1)]
    # A key holds the row above's maxima from the cell's column on (none in
    # the first row), then this row's at the columns the next row reads, and
    # the left cell's maximum last.
    layer: dict[tuple[int, ...], dict[int, int]] = {(): {0: 1}}
    for r, length in enumerate(shape, start=1):
        below = shape[r] if r < len(shape) else 0
        first = r if shifted else 1  # this row's first letter column
        next_first = r + 1 if shifted else 1  # and the next row's
        start = 1 if r > 1 else 0  # a key opens with the upper cell's entry, but in row 1
        for c in range(first, length + 1):
            top = 2 * n if shifted else 2 * (n - heights[c - 1] + r)
            end = -1 if c > first else None  # and ends with the left cell's, but at a row start
            # This cell's maximum is kept once per reader: the cell below, the next cell.
            copies = (next_first <= c <= below) + (c < length)
            nxt: dict[tuple[int, ...], dict[int, int]] = {}
            hi = bisect_right(class_mins, top)
            stored = 0
            for front, terms in layer.items():
                above = front[0] if start else 0
                left = front[-1] if end else 0
                body = front[start:end]
                lo = bisect_left(class_mins, fill_floor(left, above))
                for fill, fill_terms in classes[lo:hi]:
                    high = fill[-1]
                    if high > top:
                        continue
                    key = body + (high,) * copies
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


# The most variables a generating function may have.  A packed monomial is n
# fields wide, so the transfers' work and memory grow with n: the plain sum
# over (2,1) takes 1 s and 54 MB with 64 variables, 13 s and 489 MB with
# 128, and with 32 the one over (4,4) already stops at MAX_TRANSFER_TERMS,
# after 3.6 s and 445 MB.
MAX_VARIABLES = 32


def check_variables(n: int) -> None:
    """Raise ValueError for more than MAX_VARIABLES variables."""
    if n > MAX_VARIABLES:
        raise ValueError(f"at most {MAX_VARIABLES} variables are allowed, got {n}")


# The most states one layer of the domino transfer may hold.  GQ (6,5,5,4)
# peaks at 167,412 states with n=3, in about 330 MB; with n=4 its
# polynomials are larger, and 200,000 states take about 950 MB.
MAX_TRANSFER_STATES = 250_000
# The most terms the polynomials of one layer of either transfer may hold
# together, which bounds its memory.  GQ (6,5,5,4) peaks at 2,123,158 terms
# with n=3.
MAX_TRANSFER_TERMS = 3_000_000


# The most that the sums kept by ``genfun`` may cost together, where a sum
# costs its terms, its shape's parts and one.  A verify-unshifted pass keeps
# 116 sums of 1,252 terms, and a plain size-24 sweep with n=3 keeps 272
# sums of 2,730 terms.  A kept term takes about 110 bytes with n=3 and 350
# with n=32 (MAX_VARIABLES), so the memo holds at most about 6 and 18 MB.
MAX_MEMO_TERMS = 50_000


class _SumMemo:
    """Polynomials by key, least recently used first, whose costs add up to
    at most MAX_MEMO_TERMS: a new entry evicts the least recently used ones
    until they fit, and one that costs more on its own is not kept.  ``get``,
    ``put`` and ``clear`` hold the lock."""

    def __init__(self) -> None:
        self.lock = Lock()
        self.sums: dict[tuple, Polynomial] = {}
        self.cost = 0

    @staticmethod
    def cost_of(key: tuple, poly: Polynomial) -> int:
        return len(poly.terms) + len(key[1]) + 1

    def get(self, key: tuple) -> Polynomial | None:
        with self.lock:
            poly = self.sums.pop(key, None)
            if poly is not None:
                self.sums[key] = poly  # now the most recently used
            return poly

    def put(self, key: tuple, poly: Polynomial) -> None:
        cost = self.cost_of(key, poly)
        with self.lock:
            if cost > MAX_MEMO_TERMS or key in self.sums:
                return
            self.sums[key] = poly
            self.cost += cost
            while self.cost > MAX_MEMO_TERMS:
                old_key = next(iter(self.sums))
                self.cost -= self.cost_of(old_key, self.sums.pop(old_key))

    def clear(self) -> None:
        with self.lock:
            self.sums.clear()
            self.cost = 0


_flat_memo = _SumMemo()


def _unpack(n: int, bits: int, packed: dict[int, int]) -> Polynomial:
    """The polynomial of packed terms: a monomial's exponent j is its field
    j of ``bits`` bits, counting from 0 at the low end.

    The terms come from the transfers and products, which build only
    monomials of n nonnegative fields, so the result skips the per-monomial
    check of ``Polynomial.__post_init__``; zero coefficients are dropped
    here instead.  ``Polynomial(n, terms)`` stays the checked boundary."""
    field = (1 << bits) - 1
    shifts = [bits * j for j in range(n)]
    poly = object.__new__(Polynomial)
    object.__setattr__(poly, "n", n)
    object.__setattr__(
        poly, "terms", {tuple([m >> s & field for s in shifts]): c for m, c in packed.items() if c}
    )
    return poly


@lru_cache(maxsize=32)
def _fill_classes(
    family: Family, n: int, bits: int
) -> tuple[tuple[Fill, tuple[tuple[int, int], ...]], ...]:
    """The candidate fills over n letters grouped by (min, max), sorted by
    min.  A class is its first fill and the sum of sign * x^weight over its
    fills, as (packed exponents, coefficient) terms: a fill's sign is
    (-1)^(|fill| - 1), and its letters of index j add 1 to field j - 1 of
    ``bits`` bits.

    The classes depend on the arguments alone, so they are cached, and
    returned as tuples that no caller can change.  MAX_VARIABLES bounds n;
    the largest entries, set-valued over 16 letters, hold about 9 MB."""
    classes: dict[tuple[int, int], tuple[Fill, dict[int, int]]] = {}
    for fill in _candidate_fills(family, n):
        first, terms = classes.setdefault((fill[0], fill[-1]), (fill, {}))
        exps = sum(1 << bits * (letter_index(r) - 1) for r in fill)
        terms[exps] = terms.get(exps, 0) + (-1 if len(fill) % 2 == 0 else 1)
    return tuple(sorted((first, tuple(terms.items())) for first, terms in classes.values()))


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
    * the multiplicity rule of the shifted families is part of the ordering
      rules: ``piece_relation`` reads it, as ``fill_floor`` and its mirror,
      on the same neighbour cells.

    So each edge's fills are judged from the frontier alone: every rule is
    pairwise, and ``fold_bounds`` folds the frontier into a floor and three
    caps, as it folds the placed pieces for the fill search and the
    validator.  Its relation memo is per call and keyed by id, which is
    safe because the automaton keeps every domino alive until the call
    ends.  The per-piece family rules, which ``fill_fits`` adds for those
    two, never fire here, because the fill classes are admissible
    already: plain fills are single letters, unshifted fills hold no primed
    letter, and shifted edges cross at 0 or above.  The rules read a
    candidate fill only through its minimum and maximum, so the fills are
    judged and stored by (min, max) class, and each class carries the
    summed terms of its fills.

    Layer i holds the states at even cell i, and every frontier in it holds
    the pieces of the same earlier even cells, so the pieces that fall out
    of the frontier are the same leading ones in each, counted once per
    layer.  The 2-quotient enters only the shifted shape test, never the
    sum, and the bijection not at all, so the identity check stays
    independent of them.

    A layer of more than MAX_TRANSFER_STATES states, or of more than
    MAX_TRANSFER_TERMS terms in its polynomials, raises ValueError, and so
    do more than MAX_VARIABLES variables and, through the tiling automaton,
    a shape of more than MAX_CELLS cells.
    """
    shape = check_partition(shape)
    check_variables(n)
    root = tiling_root(family, shape)
    if root[0] is None:  # the empty shape
        return Polynomial.one(n)
    bits = sum(shape).bit_length()  # no letter index occurs more than |shape| times
    classes = _fill_classes(family, n, bits)
    class_mins = [fill[0] for fill, _ in classes]
    max_rank = class_mins[-1]
    set_valued = family.set_valued
    relations: dict[int, dict[int, int]] = {}  # piece_relation by id(dom), id(other)
    total: dict[int, int] = {}
    # A state's key is its node's id and the ids of its frontier's dominoes
    # and fills (one interned object per domino, one per fill class, each
    # alive until the call ends), so no key hashes a Domino.
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
                rels = relations.get(id(dom))
                if rels is None:
                    rels = relations[id(dom)] = {}
                floor, cap, odd_cap, even_cap = fold_bounds(dom, frontier, rels, set_valued)
                top = bisect_right(class_mins, min(cap, max_rank - depth))
                for fill, fill_terms in classes[bisect_left(class_mins, floor) : top]:
                    hi = fill[-1]
                    if hi | 1 > odd_cap or hi + (hi & 1) > even_cap:
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
