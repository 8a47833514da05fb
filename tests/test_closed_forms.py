"""Closed forms for the flat generating functions.

With n variables and a partition lambda of at most n parts (lambda_j = 0
past its length),

    genfun(lambda) * prod_{i<j} (x_i - x_j) = det(x_i^(lambda_j + n - j) (1 - x_i)^(j - 1))

where the factor (1 - x_i)^(j - 1) belongs to the stable Grothendieck
polynomial G only: with it the determinant is G's alternant, without it the
Schur alternant.  A partition of more than n parts has no tableau over n
letters, so its generating function is 0.  The determinant is expanded by
Leibniz's formula from ``Polynomial`` products alone, so the check shares no
fill, rank or letter code with either sum it judges.

The shifted family sums Schur's Q function of the strict partition
mu_i = lambda_i - i + 1 that the letter cells of lambda form (primes are
allowed on the main diagonal, so it is Q, not P).  With
Q_k = sum_j e_j h_(k-j), the coefficient of t^k in prod (1 + x_i t)/(1 - x_i t),

    Q_(a,b) = Q_a Q_b + 2 sum_{k=1..b} (-1)^k Q_(a+k) Q_(b-k),

and Q_mu is the Pfaffian of the matrix Q_(mu_i, mu_j), with mu padded by a
0 to even length.  It too is built from ``Polynomial`` arithmetic alone.

The domino sums are checked against the same closed forms, through the
2-quotient (mu, nu) of lambda: domino_genfun(lambda) * V^2 = A_mu * A_nu for
s and G, where V is the Vandermonde product and A the alternant, and
domino_genfun(SHIFTED, lambda) = Q_mu' * Q_nu' for the strict partitions mu'
and nu' of the quotient's letter cells.  These checks share neither the fill
classes nor the monomial packing of the transfers they judge.
"""

from functools import lru_cache
from itertools import combinations, combinations_with_replacement, permutations

import pytest

from dominotab.partitions import (
    is_pavable,
    is_staircase_admissible,
    partitions_up_to,
    two_quotient,
)
from dominotab.pavings import is_shifted_pavable
from dominotab.polyring import Polynomial, domino_genfun, genfun
from dominotab.tableaux import PLAIN, SET_VALUED, SHIFTED


def variable(n, i, power=1):
    return Polynomial(n, {tuple(power if k == i else 0 for k in range(n)): 1})


def product(factors, n):
    out = Polynomial.one(n)
    for f in factors:
        out = out * f
    return out


def permutation_sign(perm):
    inversions = sum(a > b for k, a in enumerate(perm) for b in perm[k + 1 :])
    return -1 if inversions % 2 else 1


def alternant(lam, n, grothendieck):
    parts = list(lam) + [0] * (n - len(lam))
    one = Polynomial.one(n)

    def entry(i, j):  # 0-based row i, column j
        out = variable(n, i, parts[j] + n - 1 - j)
        if grothendieck:
            out = out * product([one - variable(n, i)] * j, n)
        return out

    det = Polynomial.zero(n)
    for perm in permutations(range(n)):
        term = product([entry(i, perm[i]) for i in range(n)], n)
        det = det + term if permutation_sign(perm) > 0 else det - term
    return det


def vandermonde(n):
    return product(
        [variable(n, i) - variable(n, j) for i in range(n) for j in range(i + 1, n)], n
    )


@pytest.mark.parametrize("family", (PLAIN, SET_VALUED), ids=lambda f: f.name)
@pytest.mark.parametrize("n", (2, 3))
def test_genfun_matches_alternant(family, n):
    checked = 0
    for lam in partitions_up_to(7):
        g = genfun(family, lam, n)
        if len(lam) > n:
            assert g == Polynomial.zero(n), lam
            continue
        assert g * vandermonde(n) == alternant(lam, n, family.set_valued), lam
        checked += 1
    assert checked >= 20


# Long one- and two-row shapes, with the variable counts: the flat sum sweeps
# a shape wider than tall by columns and keys only the maxima that later
# cells read, at most one per row and one more, so a long row costs time
# linear in its length.
LONG_ROWS = [((3000,), 1), ((400,), 2), ((120, 90), 2), ((40, 40), 3), ((30, 12), 3)]


@pytest.mark.parametrize("family", (PLAIN, SET_VALUED), ids=lambda f: f.name)
@pytest.mark.parametrize("lam,n", LONG_ROWS, ids=[f"{c[0]}-n{c[1]}" for c in LONG_ROWS])
def test_genfun_over_long_rows_matches_alternant(family, lam, n):
    g = genfun(family, lam, n)
    if len(lam) > n:
        assert g == Polynomial.zero(n)
    else:
        assert g * vandermonde(n) == alternant(lam, n, family.set_valued)


def monomial_sum(n, index_tuples):
    """The sum of x_(i_1) ... x_(i_k) over the given index tuples."""
    out = Polynomial.zero(n)
    for idx in index_tuples:
        out = out + product([variable(n, i) for i in idx], n)
    return out


@lru_cache(maxsize=None)
def schur_q_row(k, n):
    """Q_k = sum_j e_j h_(k-j)."""
    out = Polynomial.zero(n)
    for j in range(k + 1):
        e = monomial_sum(n, combinations(range(n), j))
        h = monomial_sum(n, combinations_with_replacement(range(n), k - j))
        out = out + e * h
    return out


def schur_q_pair(a, b, n):
    """Q_(a,b) = Q_a Q_b + 2 sum_{k=1..b} (-1)^k Q_(a+k) Q_(b-k)."""
    out = schur_q_row(a, n) * schur_q_row(b, n)
    for k in range(1, b + 1):
        term = schur_q_row(a + k, n) * schur_q_row(b - k, n)
        out = out + term + term if k % 2 == 0 else out - term - term
    return out


def pfaffian(matrix, n):
    """The Pfaffian of an antisymmetric matrix of even size, given by its
    entries above the diagonal, expanded along the first row."""
    size = len(matrix)
    if size == 0:
        return Polynomial.one(n)
    out = Polynomial.zero(n)
    for j in range(1, size):
        rest = [k for k in range(1, size) if k != j]
        minor = pfaffian([[matrix[a][b] for b in rest] for a in rest], n)
        term = matrix[0][j] * minor
        out = out + term if j % 2 == 1 else out - term
    return out


def schur_q(mu, n):
    parts = list(mu) + [0] * (len(mu) % 2)
    matrix = [
        [schur_q_pair(parts[i], parts[j], n) if i < j else None for j in range(len(parts))]
        for i in range(len(parts))
    ]
    return pfaffian(matrix, n)


def strict_letter_parts(lam):
    """The strict partition that the letter cells of an admissible lambda
    form."""
    return tuple(part - i for i, part in enumerate(lam))


# The admissible shapes of size <= 10 with at most n parts: 27 for n = 2
# and 29 for n = 3 (the empty shape included).
@pytest.mark.parametrize("n,expected", ((2, 27), (3, 29)))
def test_shifted_genfun_matches_pfaffian(n, expected):
    checked = 0
    for lam in partitions_up_to(10):
        if not is_staircase_admissible(lam):
            continue
        g = genfun(SHIFTED, lam, n)
        mu = strict_letter_parts(lam)
        if len(mu) > n:
            assert g == Polynomial.zero(n), lam
            continue
        assert g == schur_q(mu, n), lam
        checked += 1
    assert checked == expected


def full_length_schur_q_times_vandermonde(mu, n):
    """Q_mu * V for a strict mu of exactly n parts, from Q_mu =
    2^n prod_{i<j} (x_i + x_j) s_(mu - delta) with delta = (n-1, ..., 0):
    the Schur factor times V is the alternant of mu - delta."""
    two_n = Polynomial(n, {(0,) * n: 2**n})
    plus = product(
        [variable(n, i) + variable(n, j) for i in range(n) for j in range(i + 1, n)], n
    )
    return two_n * plus * alternant([part - (n - 1 - i) for i, part in enumerate(mu)], n, False)


# Wide shifted shapes, with the variable counts: each has n letter rows, and
# the sum sweeps their letter cells by columns, so its key holds at most n
# entries and one more, however long the rows.
WIDE_SHIFTED = [((400, 399), 2), ((800, 799), 2), ((100, 99, 98), 3), ((60, 59, 58, 57), 4)]


def test_shifted_genfun_of_n_rows_matches_schur_factorisation():
    """genfun(SHIFTED, lambda, n) * V = 2^n prod (x_i + x_j) A_(mu - delta)
    on every admissible lambda up to size 14 of n <= 3 parts, 66 of them,
    and on the wide shapes."""
    small = [
        (lam, len(lam))
        for lam in partitions_up_to(14)
        if 1 <= len(lam) <= 3 and is_staircase_admissible(lam)
    ]
    assert len(small) == 66
    for lam, n in small + WIDE_SHIFTED:
        g = genfun(SHIFTED, lam, n) * vandermonde(n)
        assert g == full_length_schur_q_times_vandermonde(strict_letter_parts(lam), n), lam


# (family, max size, n, nonzero cases): every pavable lambda up to the size,
# 139 of them up to 12 and 74 up to 10.
DOMINO_ALTERNANT_CASES = [
    (PLAIN, 12, 2, 80),
    (PLAIN, 12, 3, 115),
    (SET_VALUED, 10, 2, 50),
    (SET_VALUED, 10, 3, 66),
]


@pytest.mark.parametrize(
    "family,max_size,n,expected",
    DOMINO_ALTERNANT_CASES,
    ids=[f"{c[0].name}-n{c[2]}" for c in DOMINO_ALTERNANT_CASES],
)
def test_domino_genfun_matches_alternant_products(family, max_size, n, expected):
    """domino_genfun(lambda) * V^2 = A_mu * A_nu on every pavable lambda up
    to ``max_size``; the sum is 0 when a quotient component has more than n
    parts."""
    v2 = vandermonde(n) * vandermonde(n)
    checked = 0
    for lam in partitions_up_to(max_size):
        if not is_pavable(lam):
            continue
        mu, nu = two_quotient(lam)
        d = domino_genfun(family, lam, n)
        if len(mu) > n or len(nu) > n:
            assert d == Polynomial.zero(n), lam
            continue
        grothendieck = family.set_valued
        assert d * v2 == alternant(mu, n, grothendieck) * alternant(nu, n, grothendieck), lam
        checked += 1
    assert checked == expected


# The columns (1^k), k even, and (2^k), k up to 16: the shapes on which the
# walk's column floor prunes most.
TALL_COLUMNS = [(1,) * k for k in range(2, 17, 2)] + [(2,) * k for k in range(1, 17)]


@pytest.mark.parametrize("family", (PLAIN, SET_VALUED), ids=lambda f: f.name)
@pytest.mark.parametrize("n", (3, 4))
def test_domino_genfun_of_tall_columns_matches_alternant_products(family, n):
    """domino_genfun(lambda) * V^2 = A_mu * A_nu on the tall columns, or 0
    when a quotient component has more than n parts: 9 of the 24 columns
    have a sum with n=3, and 12 with n=4."""
    v2 = vandermonde(n) * vandermonde(n)
    nonzero = 0
    for lam in TALL_COLUMNS:
        mu, nu = two_quotient(lam)
        d = domino_genfun(family, lam, n)
        if len(mu) > n or len(nu) > n:
            assert d == Polynomial.zero(n), lam
            continue
        grothendieck = family.set_valued
        assert d * v2 == alternant(mu, n, grothendieck) * alternant(nu, n, grothendieck), lam
        nonzero += 1
    assert nonzero == 3 * n


@pytest.mark.parametrize("n", (2, 3))
def test_shifted_domino_genfun_matches_pfaffian_products(n):
    """domino_genfun(SHIFTED, lambda) = Q_mu' * Q_nu' on every shifted
    pavable lambda up to size 16, 90 of them."""
    checked = 0
    for lam in partitions_up_to(16):
        if not is_shifted_pavable(lam):
            continue
        mu, nu = (strict_letter_parts(q) for q in two_quotient(lam))
        d = domino_genfun(SHIFTED, lam, n)
        if len(mu) > n or len(nu) > n:
            assert d == Polynomial.zero(n), lam
            continue
        assert d == schur_q(mu, n) * schur_q(nu, n), lam
        checked += 1
    assert checked == 90
