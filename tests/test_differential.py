"""Differential tests: the fill search and the streamed generating function
against the definitions they replaced.

``ReferenceFillState`` (in ``reference_fillstate.py``) is the rule-by-rule
checker; ``reference_domino_fills`` (in ``reference_fill_search.py``) is the
per-paving fill search, run on the row-major paving backtracker kept beside
it; ``materialised_genfun`` is the generating function as
a sum over the enumerated list, and ``streamed_genfun`` (in
``reference_genfun.py``) the sum over the fills ``domino_fills`` yields,
and ``enumerated_genfun`` (beside it) the flat sum over the list
``enumerate_tableaux`` returns.  The criterion-3 pools are pinned by count
and by a digest of their canonical serialisation, in enumeration order.
"""

import hashlib
import random

import pytest

from dominotab import canonical, domino_tableaux
from dominotab.domino_tableaux import (
    DominoTableau,
    domino_fills,
    dt_cardinality,
    dt_weight,
    enumerate_domino_tableaux,
    up_domino_count,
    validate_domino_tableau,
)
from dominotab.partitions import is_pavable, partitions_up_to
from dominotab.pavings import enumerate_pavings, is_shifted_pavable, is_shifted_paving
from dominotab.polyring import Polynomial, domino_genfun, genfun
from dominotab.tableaux import (
    PLAIN,
    SET_VALUED,
    SHIFTED,
    SHIFTED_SET_VALUED,
    X_FILL,
    _candidate_fills,
)
from reference_fill_search import enumerate_pavings as reference_pavings
from reference_fill_search import reference_domino_fills
from reference_fillstate import ReferenceFillState, reference_validate
from reference_genfun import enumerated_genfun, streamed_genfun

FAMILIES = (PLAIN, SET_VALUED, SHIFTED, SHIFTED_SET_VALUED)

# Acceptance criterion 3: (family, max size, letters, tableaux, sha256 of the
# canonical lines in shape order, then enumeration order).
POOLS = [
    (PLAIN, 12, 3, 2827, "43c39d069da88454d11c453b44797962ab7494263521cdd8de73ba8b1fa4e3d4"),
    (SET_VALUED, 8, 3, 2103, "8fb35192bf96369acdbd5c1aa9375cb053a26dd372184757126bcedce305fbff"),
    (SHIFTED, 12, 2, 1720, "be363c2df16481e3eead5c1f517cf3b390bc064255b503470b207cb554b1f2cb"),
    (SHIFTED_SET_VALUED, 12, 2, 25317, "767419ae1d17fb8710eb23b70d5d3921515c063e0997af8e415d1790a7169f57"),
]


def shapes(family, max_size):
    for lam in partitions_up_to(max_size):
        if lam and is_pavable(lam) and (not family.shifted or is_shifted_pavable(lam)):
            yield lam


@pytest.fixture(scope="module")
def pools():
    return {
        family.name: [
            t
            for lam in shapes(family, max_size)
            for t in enumerate_domino_tableaux(family, lam, letters)
        ]
        for family, max_size, letters, _, _ in POOLS
    }


class PairedState(domino_tableaux.FillState):
    """The enumerator's state with a reference state replaying every call."""

    checks = 0
    mismatches: list = []

    def __init__(self, family):
        super().__init__(family)
        self.ref = ReferenceFillState(family)

    def check(self, dom, fill):
        ok = super().check(dom, fill)
        PairedState.checks += 1
        if ok != self.ref.check(dom, fill):
            PairedState.mismatches.append((tuple(self.pieces), dom, fill, ok))
        return ok

    def add(self, dom, fill):
        super().add(dom, fill)
        self.ref.add(dom, fill)

    def pop(self):
        super().pop()
        self.ref.pop()


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
def test_check_matches_reference_on_every_enumerator_try(family, monkeypatch):
    monkeypatch.setattr(domino_tableaux, "FillState", PairedState)
    monkeypatch.setattr(PairedState, "checks", 0)
    monkeypatch.setattr(PairedState, "mismatches", [])
    for letters in (2, 3):
        for lam in shapes(family, 8):
            enumerate_domino_tableaux(family, lam, letters)
    assert PairedState.mismatches == []
    assert PairedState.checks > 1000


def _fills_or_error(family, shape, letters):
    """The sorted multiset of yielded pieces (each sorted), or ValueError."""
    try:
        return sorted(tuple(sorted(p)) for p in domino_fills(family, shape, letters))
    except ValueError:
        return ValueError


def _reference_fills_or_error(family, shape, letters):
    try:
        return sorted(
            tuple(sorted(p)) for p in reference_domino_fills(family, shape, letters)
        )
    except ValueError:
        return ValueError


# (family, letter counts, spot shapes) for the fill-search comparison.
FILL_SEARCH_CASES = [
    (PLAIN, (2, 3), ()),
    (SET_VALUED, (2, 3), ()),
    (SHIFTED, (2, 3), ()),
    (SHIFTED_SET_VALUED, (2,), ((6, 5, 5, 4),)),
]


@pytest.mark.parametrize(
    "family,letter_counts,spots", FILL_SEARCH_CASES, ids=[c[0].name for c in FILL_SEARCH_CASES]
)
def test_fill_search_matches_reference(family, letter_counts, spots):
    """Same fills, shape by shape, on every shape up to size 10; shapes that
    are not pavable (or not shifted pavable) raise ValueError in both."""
    outputs = 0
    for letters in letter_counts:
        for lam in list(partitions_up_to(10)) + list(spots):
            new = _fills_or_error(family, lam, letters)
            assert new == _reference_fills_or_error(family, lam, letters), (lam, letters)
            outputs += 0 if new is ValueError else len(new)
    assert outputs > 1000


def test_pavings_match_reference_in_order():
    """The same pavings in the same order on every shape up to size 16."""
    total = 0
    for lam in partitions_up_to(16):
        ps = enumerate_pavings(lam)
        assert ps == reference_pavings(lam), lam
        total += len(ps)
    assert total == 2671


def test_shifted_pavable_matches_reference():
    """Shifted pavability is the existence of a shifted paving, on every
    shape up to size 18."""
    accepted = 0
    for lam in partitions_up_to(18):
        expected = any(is_shifted_paving(p) for p in reference_pavings(lam))
        assert is_shifted_pavable(lam) == expected, lam
        accepted += expected
    assert accepted == 128


def _mutations(family, pool, letters):
    """Two single-piece fill changes per tableau, drawn from every admissible
    fill over the pool's letters plus X."""
    rng = random.Random(family.name)
    fills = _candidate_fills(family, letters) + [X_FILL]
    for t in pool:
        for _ in range(2):
            j = rng.randrange(len(t.pieces))
            dom, old = t.pieces[j]
            fill = rng.choice([f for f in fills if f != old])
            pieces = t.pieces[:j] + ((dom, fill),) + t.pieces[j + 1 :]
            yield DominoTableau(t.family, t.shape, pieces)


def test_validate_matches_reference_on_pools_and_mutations(pools):
    for family, _, letters, _, _ in POOLS:
        pool = pools[family.name]
        for t in pool:
            assert validate_domino_tableau(t) and reference_validate(t)
        accepted = 0
        for t in _mutations(family, pool, letters):
            ok = validate_domino_tableau(t)
            assert ok == reference_validate(t), t
            accepted += ok
        # Some mutations stay valid, most do not: both outcomes are compared.
        assert 0 < accepted < len(pool), family.name


def test_pools_unchanged_in_order(pools):
    for family, _, _, count, digest in POOLS:
        pool = pools[family.name]
        h = hashlib.sha256()
        for t in pool:
            h.update(canonical.serialize(t).encode() + b"\n")
        assert (len(pool), h.hexdigest()) == (count, digest), family.name


def _materialised_sign(family, t, shape):
    if not family.set_valued:
        return 1
    if family.shifted:
        up_letters = sum(len(f) for _, f in t.up_pieces())
        excess = up_letters - up_domino_count(t)
    else:
        excess = dt_cardinality(t) - sum(shape) // 2
    return -1 if excess % 2 else 1


def materialised_genfun(family, shape, n):
    """The sum over the enumerated list of sign * x^weight."""
    terms = {}
    for t in enumerate_domino_tableaux(family, shape, n):
        m = dt_weight(t, n)
        terms[m] = terms.get(m, 0) + _materialised_sign(family, t, shape)
    return Polynomial(n, terms)


# Acceptance criteria 4-7: (family, max size, variables, spot shapes).
ACCEPTANCE_SWEEPS = [
    (PLAIN, 10, 3, ()),
    (SET_VALUED, 8, 2, ((3, 3, 1, 1),)),
    (SHIFTED, 12, 2, ((6, 5, 5, 4),)),
    (SHIFTED_SET_VALUED, 10, 2, ((6, 5, 5, 4),)),
]


@pytest.mark.parametrize(
    "family,max_size,n,spots", ACCEPTANCE_SWEEPS, ids=[s[0].name for s in ACCEPTANCE_SWEEPS]
)
def test_streamed_genfun_matches_materialised(family, max_size, n, spots):
    cases = [()] + list(shapes(family, max_size)) + list(spots)
    for lam in cases:
        assert domino_genfun(family, lam, n) == materialised_genfun(family, lam, n), lam


def _genfun_or_error(fn, family, shape, n):
    try:
        return fn(family, shape, n)
    except ValueError:
        return ValueError


# (family, variables, max size) for the comparison with the streamed sum.
# The streamed sum takes over a minute for shifted set-valued shapes up to
# size 12 with n=3, so that case stops at size 8.
GENFUN_CASES = [
    (family, n, 8 if family is SHIFTED_SET_VALUED and n == 3 else 12)
    for family in FAMILIES
    for n in (2, 3)
]


@pytest.mark.parametrize(
    "family,n,max_size", GENFUN_CASES, ids=[f"{c[0].name}-n{c[1]}" for c in GENFUN_CASES]
)
def test_genfun_matches_streamed(family, n, max_size):
    """The same polynomial as the streamed sum, shape by shape, on every
    shape up to ``max_size``; shapes that are not pavable (or not shifted
    pavable) raise ValueError in both."""
    nonzero = 0
    for lam in partitions_up_to(max_size):
        new = _genfun_or_error(domino_genfun, family, lam, n)
        assert new == _genfun_or_error(streamed_genfun, family, lam, n), lam
        nonzero += new is not ValueError and bool(new.terms)
    assert nonzero > 15


# (family, variables, max size) for the comparison with the enumerated flat
# sum.  The set-valued families over three letters stop at size 7, where
# listing the tableaux already takes about a second.
FLAT_CASES = [
    (family, n, 7 if family.set_valued and n == 3 else 10)
    for family in FAMILIES
    for n in (1, 2, 3)
]


@pytest.mark.parametrize(
    "family,n,max_size", FLAT_CASES, ids=[f"{c[0].name}-n{c[1]}" for c in FLAT_CASES]
)
def test_flat_genfun_matches_enumerated(family, n, max_size):
    """The same polynomial as the sum over the listed flat tableaux, shape
    by shape, on every shape up to ``max_size``; shifted shapes that are not
    admissible raise ValueError in both."""
    nonzero = 0
    for lam in partitions_up_to(max_size):
        new = _genfun_or_error(genfun, family, lam, n)
        assert new == _genfun_or_error(enumerated_genfun, family, lam, n), lam
        nonzero += new is not ValueError and bool(new.terms)
    assert nonzero > 10
