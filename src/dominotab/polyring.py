"""Exact sparse polynomials over the integers and the generating functions.

A polynomial in n variables maps exponent tuples of length n to nonzero
integer coefficients.  With a fixed variable count every tableau generating
function is a finite exact polynomial: set fills draw from an n-letter
alphabet, so degrees are bounded.

The sums and products work on monomials packed into integers, one field of
bits per variable.  What depends on a monomial alone is worked out once per
process and kept in ``_codes``: its code in each field width, and back, and
its orbit under the permutations of the variables, which
``Polynomial.is_symmetric`` reads.  Those tables and the memo of ``genfun``
are each bounded by MAX_MEMO_TERMS.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import factorial
from operator import lshift
from threading import Lock

from .partitions import Shape, check_cells, check_partition, is_staircase_admissible
from .tableaux import Family, Fill, check_count, fill_classes, flat_walk, letter_index
from .domino_tableaux import tiling_root, tiling_walk
# Unused here; the benchmark tracer finds the flat enumerator under this name.
from .tableaux import enumerate_tableaux  # noqa: F401
# Unused here; the benchmark tracer finds the domino enumerator under this name.
from .domino_tableaux import enumerate_domino_tableaux  # noqa: F401

Monomial = tuple[int, ...]


def grlex_key(exps: Monomial) -> tuple:
    return (sum(exps), exps)


class Polynomial(namedtuple("Polynomial", "n terms")):
    """``terms`` maps each monomial, a tuple of n nonnegative exponents, to
    its nonzero coefficient.  Every way of building one from its fields,
    ``_make`` and ``_replace`` included, drops zero coefficients and checks
    the monomials; a pickle or a copy of one is rebuilt without the check.
    A tuple-backed value, but it equals only a Polynomial and hashes by its
    terms as a set."""

    __slots__ = ()

    def __new__(cls, n: int, terms: dict[Monomial, int] | None = None) -> Polynomial:
        clean = {m: c for m, c in (terms or {}).items() if c != 0}
        for m in clean:
            if not (
                isinstance(m, tuple)
                and len(m) == n
                and all(isinstance(e, int) and not isinstance(e, bool) and e >= 0 for e in m)
            ):
                raise ValueError(f"bad monomial {m} for {n} variables")
        return super().__new__(cls, n, clean)

    @classmethod
    def _make(cls, iterable) -> Polynomial:
        # namedtuple's _make, and so _replace, would skip the check.
        return cls(*iterable)

    def __reduce__(self) -> tuple:
        # A pickle or a copy is rebuilt unchecked, as ``_unpack`` builds:
        # the terms were checked when this polynomial was made.
        return (tuple.__new__, (type(self), (self.n, self.terms)))

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
        two monomials is one integer addition.  The factors are packed, and
        the product unpacked, through the code tables of ``_codes``."""
        self._match(other)
        # No exponent of the product exceeds the sum of the factors' degrees.
        top = max(map(sum, self.terms), default=0) + max(map(sum, other.terms), default=0)
        bits = top.bit_length()
        left = _codes.encode(self.n, bits, self.terms)
        right = _codes.encode(self.n, bits, other.terms)
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

    def __ne__(self, other: object) -> bool:
        return not self == other  # tuple's own != would compare the fields

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self.terms.items())))

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        """Terms in graded lexicographic order (degree, then exponents)."""
        return sorted(self.terms.items(), key=lambda mc: grlex_key(mc[0]))

    def is_symmetric(self) -> bool:
        """Invariance under every permutation of the variables: every
        monomial has the coefficient of its sorted monomial.  So each term's
        sorted monomial holds the term's coefficient, and the terms fill
        whole orbits: they number the summed sizes of the orbits whose
        sorted monomials they hold.  ``_codes`` keeps each monomial's sorted
        monomial and orbit size."""
        terms, orbits, whole = self.terms, _codes.orbits, 0
        for m, c in terms.items():
            rep, size = orbits.get(m) or _codes.orbit(m)
            if terms.get(rep) != c:
                return False
            if rep == m:
                whole += size
        return whole == len(terms)

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

    The sum is ``tableaux.flat_walk`` over the letter cells (in the shifted
    families, the cells with c >= r), swept along the shape's shorter side,
    with each (min, max) class of fills weighing the summed terms of its
    fills, and lists no tableau.  Shifted shapes that are not admissible
    raise ValueError, and so do shapes of more than MAX_CELLS cells, a
    negative variable count or more than MAX_VARIABLES variables, and a
    layer of more than MAX_TRANSFER_TERMS terms.

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
    return _unpack(n, bits, flat_walk(family, shape, _fill_classes(family, n, bits)))


# The most variables a generating function may have.  A packed monomial is n
# fields wide, so the transfers' work and memory grow with n: the plain sum
# over (2,1) takes 1 s and 54 MB with 64 variables, 13 s and 489 MB with
# 128, and with 32 the one over (4,4) already stops at MAX_TRANSFER_TERMS,
# after 3.6 s and 445 MB.
MAX_VARIABLES = 32


def check_variables(n: int) -> None:
    """Raise ValueError for a variable count that ``tableaux.check_count``
    rejects, or for more than MAX_VARIABLES variables."""
    check_count(n, "variable")
    if n > MAX_VARIABLES:
        raise ValueError(f"at most {MAX_VARIABLES} variables are allowed, got {n}")


# The most that the sums kept by ``genfun`` may cost together, where a sum
# costs its terms, its shape's parts and one.  A verify-unshifted pass keeps
# 116 sums of 1,252 terms, and a plain size-24 sweep with n=3 keeps 272
# sums of 2,730 terms.  A kept term takes about 110 bytes with n=3 and 350
# with n=32 (MAX_VARIABLES), so the memo holds at most about 6 and 18 MB.
# The same number bounds the entries of the code tables (``_codes``): a
# verify-unshifted pass fills 1,382 of them, and full tables hold at most
# about 6 MB with n=3 and 18 MB with n=32 (measured by tracemalloc).
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


class _MonomialCodes:
    """What depends on a monomial alone, worked out once per process: one
    pair of tables per (variable count n, field width) that packs each
    monomial into its code, its exponent j in field j, and unpacks each
    code back, and each monomial's orbit under the permutations of the
    variables, as its sorted monomial and the orbit's size.

    An entry never changes and is never removed, so readers take no lock:
    a read of a dict is atomic, and an entry is the same whichever thread
    adds it.  Adding holds the lock, which keeps the tables' count in step.
    The tables hold at most MAX_MEMO_TERMS entries together, a monomial
    with its code, or with its orbit, counting two; once they are full,
    what they lack is worked out on each call instead.  ``clear`` empties
    them."""

    def __init__(self) -> None:
        self.lock = Lock()
        self.tables: dict[tuple[int, int], tuple[dict[Monomial, int], dict[int, Monomial]]] = {}
        self.orbits: dict[Monomial, tuple[Monomial, int]] = {}
        self.size = 0

    def encode(self, n: int, bits: int, terms: dict[Monomial, int]) -> list[tuple[int, int]]:
        """The terms as (code, coefficient) pairs, in fields of ``bits`` bits."""
        codes = self.tables.get((n, bits), ({}, {}))[0]
        try:
            return [(codes[m], c) for m, c in terms.items()]
        except KeyError:
            shifts = [bits * j for j in range(n)]
            out = [(sum(map(lshift, m, shifts)), c) for m, c in terms.items()]
            self._add(n, bits, {code: m for (code, _), m in zip(out, terms)})
            return out

    def decode(self, n: int, bits: int, packed: dict[int, int]) -> dict[Monomial, int]:
        """The terms of nonzero coefficient, their codes unpacked into
        monomials."""
        monomials = self.tables.get((n, bits), ({}, {}))[1]
        try:
            return {monomials[m]: c for m, c in packed.items() if c}
        except KeyError:
            field = (1 << bits) - 1
            shifts = [bits * j for j in range(n)]
            fresh = {m: tuple([m >> s & field for s in shifts]) for m, c in packed.items() if c}
            monomials = self._add(n, bits, fresh)
            return {monomials[m]: c for m, c in packed.items() if c}

    def _add(self, n: int, bits: int, fresh: dict[int, Monomial]) -> dict[int, Monomial]:
        """``fresh``, codes to their monomials, with each monomial that the
        tables of (n, bits) hold put in its place, after adding the pairs
        they lack while there is room."""
        with self.lock:
            codes, monomials = pair = self.tables.get((n, bits)) or ({}, {})
            for code, m in fresh.items():
                if code in monomials:
                    fresh[code] = monomials[code]
                elif self.size + 2 <= MAX_MEMO_TERMS:
                    codes[m], monomials[code] = code, m
                    self.size += 2
            if codes:
                self.tables[n, bits] = pair
        return fresh

    def orbit(self, m: Monomial) -> tuple[Monomial, int]:
        """The sorted monomial of m's orbit and the orbit's size."""
        orbit = self.orbits.get(m)
        if orbit is None:
            size = factorial(len(m))
            for k in map(m.count, set(m)):
                size //= factorial(k)
            orbit = (tuple(sorted(m)), size)
            with self.lock:
                if self.size + 2 <= MAX_MEMO_TERMS and m not in self.orbits:
                    self.orbits[m] = orbit
                    self.size += 2
        return orbit

    def clear(self) -> None:
        with self.lock:
            self.tables.clear()
            self.orbits.clear()
            self.size = 0


_codes = _MonomialCodes()


def _unpack(n: int, bits: int, packed: dict[int, int]) -> Polynomial:
    """The polynomial of packed terms: a monomial's exponent j is its field
    j of ``bits`` bits, counting from 0 at the low end.  The monomials are
    decoded through the code tables of ``_codes``, so equal monomials that
    the tables hold are one tuple.

    The terms come from the transfers and products, which build only
    monomials of n nonnegative fields, so the result skips the per-monomial
    check of ``Polynomial.__new__``; zero coefficients are dropped here
    instead.  ``Polynomial(n, terms)`` stays the checked boundary."""
    return tuple.__new__(Polynomial, (n, _codes.decode(n, bits, packed)))


@lru_cache(maxsize=32)
def _fill_classes(
    family: Family, n: int, bits: int
) -> tuple[tuple[Fill, tuple[tuple[int, int], ...]], ...]:
    """The classes of ``fill_classes`` over n letters, sorted by min.  A
    class is its first fill and the sum of sign * x^weight over its fills,
    as (packed exponents, coefficient) terms: a fill's sign is
    (-1)^(|fill| - 1), and its letters of index j add 1 to field j - 1 of
    ``bits`` bits.

    The classes depend on the arguments alone, so they are cached, and
    returned as tuples that no caller can change.  MAX_VARIABLES bounds n;
    the largest entries, set-valued over 16 letters, hold about 9 MB."""
    out = []
    for fills in fill_classes(family, n):
        terms: dict[int, int] = {}
        for fill in fills:
            exps = sum(1 << bits * (letter_index(r) - 1) for r in fill)
            terms[exps] = terms.get(exps, 0) + (-1 if len(fill) % 2 == 0 else 1)
        out.append((fills[0], tuple(terms.items())))
    return tuple(out)


def domino_genfun(family: Family, shape: Shape, n: int) -> Polynomial:
    """Signed weight generating function over domino tableaux of a shape.

    Signs mirror the flat case with cells replaced by dominoes: the set-valued
    sum signs by letters minus domino count, the shifted set-valued sum by
    up-region letters minus up-region domino count.  So each non-X domino
    contributes its own factor (-1)^(|fill| - 1) x^weight(fill), and the X
    dominoes below D_0 contribute nothing.

    The sum is ``domino_tableaux.tiling_walk`` over the shape's tiling
    automaton, with each (min, max) class of fills weighing the summed
    terms of its fills, and lists no tableau.  ``tiling_root`` decides
    pavability by counting beads, and gives each unshifted domino its rank
    window under rank 2n, the largest class minimum: a shape none of whose
    tilings has a non-empty window on every domino has no root, and sums
    to 0 with no walk.  The 2-quotient enters only the shifted shape test,
    never the sum, and the bijection not at all, so the identity check
    stays independent of them.

    A layer of more than MAX_TRANSFER_STATES states, or of more than
    MAX_TRANSFER_TERMS terms in its polynomials, raises ValueError, and so
    do more than MAX_VARIABLES variables and, through the tiling automaton,
    a shape of more than MAX_CELLS cells.
    """
    shape = check_partition(shape)
    check_variables(n)
    root = tiling_root(family, shape, 2 * n)  # the largest class minimum
    bits = sum(shape).bit_length()  # no letter index occurs more than |shape| times
    classes = _fill_classes(family, n, bits)
    return _unpack(n, bits, tiling_walk(family, shape, root, classes))
