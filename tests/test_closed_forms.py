"""Closed forms for the unshifted flat generating functions.

With n variables and a partition lambda of at most n parts (lambda_j = 0
past its length),

    genfun(lambda) * prod_{i<j} (x_i - x_j) = det(x_i^(lambda_j + n - j) (1 - x_i)^(j - 1))

where the factor (1 - x_i)^(j - 1) belongs to the stable Grothendieck
polynomial G only: with it the determinant is G's alternant, without it the
Schur alternant.  A partition of more than n parts has no tableau over n
letters, so its generating function is 0.  The determinant is expanded by
Leibniz's formula from ``Polynomial`` products alone, so the check shares no
fill, rank or letter code with either sum it judges.
"""

from itertools import permutations

import pytest

from dominotab.partitions import partitions_up_to
from dominotab.polyring import Polynomial, genfun
from dominotab.tableaux import PLAIN, SET_VALUED


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
