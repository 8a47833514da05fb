"""Differential tests: the domino listing and the generating functions
against the definitions they replaced.

``ReferenceFillState`` (in ``reference_fillstate.py``) is the rule-by-rule
checker, and ``IndexedFillState`` (beside it) the checker that stated the
rules over its own cell and diagonal indexes, apart from ``piece_relation``.
``reference_domino_fills`` (in ``reference_fill_search.py``) is the
per-paving fill search, run on the row-major paving backtracker kept beside
it, and ``domino_fills`` (beside it) the depth-first fill search on the
tiling automaton, whose listing the walk's must repeat in order.
``materialised_genfun`` is the generating function as a sum over the
enumerated list, and ``streamed_genfun`` (in ``reference_genfun.py``) the
sum over the fills ``reference_domino_fills`` yields,
``fillstate_domino_genfun`` (beside it) the domino transfer that rebuilt an
``IndexedFillState`` per state, ``unfloored_tiling_walk`` (beside it) the
domino walk before its column floor, whose totals and links a census
compares, and ``enumerated_genfun`` (beside it) the flat sum over the list
the reference enumerator returns.
``reference_tableaux.py`` keeps the flat enumerator and validator that
count every letter per line, against which the single neighbour bound is
checked, and the row-major search that listed flat tableaux before the
listing over the flat walk.  ``reference_bijections.py`` keeps the split that rebuilt each half
from its reading word and the merge that recomputed the inverse 2-quotient
per cell, and ``reference_render.py`` the ASCII renderer that asked four
wall predicates per junction and the LaTeX renderer that read cell owners
from a dict.  The criterion-3 pools are pinned by count and by a digest of
their canonical serialisation, in enumeration order.
"""

import hashlib
import random

import pytest

from conftest import dt_cardinality, dt_weight, up_domino_count
import reference_bijections
from dominotab import bijections, canonical, domino_tableaux, polyring, tableaux
from dominotab.bijections import gamma_merge, gamma_split
from dominotab.domino_tableaux import (
    ABOVE,
    BELOW,
    LEFT,
    SE_DOWN_CAP,
    SE_DOWN_FLOOR,
    DominoTableau,
    _diag_key,
    enumerate_domino_tableaux,
    fill_fits,
    piece_relation,
    tiling_root,
    tiling_walk,
    validate_domino_tableau,
)
from dominotab.partitions import (
    is_pavable,
    is_staircase_admissible,
    partitions_up_to,
    two_quotient,
)
from dominotab.pavings import enumerate_pavings, is_shifted_pavable, is_shifted_paving
from dominotab.polyring import Polynomial, domino_genfun, genfun
from dominotab.render import render_ascii, render_latex
from dominotab.tableaux import (
    PLAIN,
    SET_VALUED,
    SHIFTED,
    SHIFTED_SET_VALUED,
    X_FILL,
    Tableau,
    _candidate_fills,
    enumerate_tableaux,
    fill_classes,
    fill_floor,
    make_tableau,
    validate_tableau,
)
from reference_bijections import gamma_merge as reference_gamma_merge
from reference_bijections import reading_word_split
from reference_fill_search import enumerate_domino_tableaux as search_enumerate_domino_tableaux
from reference_fill_search import enumerate_pavings as reference_pavings
from reference_fill_search import reference_domino_fills, unpruned_root
from reference_fillstate import IndexedFillState, ReferenceFillState, reference_validate
from reference_genfun import (
    enumerated_genfun,
    fillstate_domino_genfun,
    row_major_genfun,
    streamed_genfun,
    unfloored_tiling_walk,
)
from reference_render import render_ascii as reference_render_ascii
from reference_render import render_latex as reference_render_latex
from reference_tableaux import enumerate_tableaux as reference_enumerate_tableaux
from reference_tableaux import enumerate_tableaux_by_search
from reference_tableaux import validate_tableau as reference_validate_tableau

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


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
def test_check_matches_reference_on_every_enumerator_try(family, monkeypatch):
    """Each time the listing's walk folds a frontier for a domino, the
    verdict of ``fill_fits`` on the folded bounds is, for every candidate
    fill, that of a ``ReferenceFillState`` holding the frontier's pieces."""
    fold_bounds = domino_tableaux.fold_bounds
    checks, mismatches = 0, []

    def paired_fold(dom, frontier, set_valued):
        nonlocal checks
        bounds = fold_bounds(dom, frontier, set_valued)
        ref = ReferenceFillState(family)
        for other, fill in frontier:
            ref.add(other, fill)
        for fill in candidates:
            ok = fill_fits(family, dom, fill, bounds)
            checks += 1
            if ok != ref.check(dom, fill):
                mismatches.append((frontier, dom, fill, ok))
        return bounds

    monkeypatch.setattr(domino_tableaux, "fold_bounds", paired_fold)
    for letters in (2, 3):
        candidates = _candidate_fills(family, letters)
        for lam in shapes(family, 8):
            enumerate_domino_tableaux(family, lam, letters)
    assert mismatches == []
    assert checks > 1000


def _fills_or_error(family, shape, letters):
    """The sorted multiset of listed pieces (each sorted), or ValueError."""
    try:
        listed = enumerate_domino_tableaux(family, shape, letters)
        return sorted(tuple(sorted(t.pieces)) for t in listed)
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
    """The listing gives the fills of the per-paving search, shape by shape,
    on every shape up to size 10; shapes that are not pavable (or not
    shifted pavable) raise ValueError in both."""
    outputs = 0
    for letters in letter_counts:
        for lam in list(partitions_up_to(10)) + list(spots):
            new = _fills_or_error(family, lam, letters)
            assert new == _reference_fills_or_error(family, lam, letters), (lam, letters)
            outputs += 0 if new is ValueError else len(new)
    assert outputs > 1000


def _listing_or_error(enumerate_, family, shape, letters):
    """The listed tableaux, or (ValueError, its message)."""
    try:
        return enumerate_(family, shape, letters)
    except ValueError as exc:
        return (ValueError, str(exc))


# (letters, max size) for the comparison of the listing with the fill search.
LISTING_CASES = [(1, 10), (2, 10), (3, 8)]


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
def test_listing_matches_fill_search_in_order(family, monkeypatch):
    """The same tableaux in the same order as the listing over the
    automaton's depth-first fill search, or the same ValueError, on every
    shape up to size 10 with 1 or 2 letters and up to size 8 with 3; and,
    with MAX_LISTED lowered to a shape's count and to one less, the same
    list and the same ValueError."""
    listed = limited = 0
    for letters, max_size in LISTING_CASES:
        for lam in partitions_up_to(max_size):
            new = _listing_or_error(enumerate_domino_tableaux, family, lam, letters)
            old = _listing_or_error(search_enumerate_domino_tableaux, family, lam, letters)
            assert new == old, (lam, letters)
            if not isinstance(new, list) or not new:
                continue
            listed += len(new)
            for limit in (len(new), len(new) - 1):
                with monkeypatch.context() as m:
                    m.setattr(domino_tableaux, "MAX_LISTED", limit)
                    new = _listing_or_error(enumerate_domino_tableaux, family, lam, letters)
                    old = _listing_or_error(
                        search_enumerate_domino_tableaux, family, lam, letters
                    )
                assert new == old, (lam, letters, limit)
                limited += new[0] is ValueError
    assert listed > 500
    assert limited > 50


def test_listing_holds_no_dead_paths(monkeypatch):
    """Shifted set-valued (4,3,3) over 3 letters has 22,113 tableaux, but
    160,821 partial paths reach one layer of its walk, most of which never
    complete; the walk's largest layer holds 5,061 states.  With the terms
    of a layer capped at the number of tableaux, a listing that kept every
    partial path would raise, and the listing must still give the fill
    search's tableaux in order."""
    family, lam = SHIFTED_SET_VALUED, (4, 3, 3)
    old = search_enumerate_domino_tableaux(family, lam, 3)
    assert len(old) == 22_113
    monkeypatch.setattr(domino_tableaux, "MAX_TRANSFER_TERMS", len(old))
    assert enumerate_domino_tableaux(family, lam, 3) == old


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


def test_validate_folds_only_pieces_before_the_domino(pools, monkeypatch):
    """The validator judges each piece against the pieces added before it,
    as the listing's walk does, so on every fold over a pool tableau the
    domino overlaps no folded piece and comes after each of them in
    diagonal reading order: ``piece_relation`` is read on no other pairs."""
    fold_bounds = domino_tableaux.fold_bounds
    folds = 0

    def checked_fold(dom, pieces, set_valued):
        nonlocal folds
        cells = set(dom.cells())
        for placed, _ in pieces:
            assert not cells & set(placed.cells()), (placed, dom)
            assert _diag_key(placed) < _diag_key(dom), (placed, dom)
        folds += 1
        return fold_bounds(dom, pieces, set_valued)

    monkeypatch.setattr(domino_tableaux, "fold_bounds", checked_fold)
    for family, _, _, count, _ in POOLS:
        for t in pools[family.name]:
            assert validate_domino_tableau(t)
    assert folds > sum(count for _, _, _, count, _ in POOLS)


def _split_or_error(split, t):
    """The two halves, or (ValueError, its message)."""
    try:
        return split(t)
    except ValueError as exc:
        return (ValueError, str(exc))


def test_split_matches_reading_word_split_on_pools_and_mutations(pools):
    """The same halves on every pool tableau, shaped as the 2-quotient, and
    the same halves or the same ValueError on every mutation."""
    for family, _, letters, _, _ in POOLS:
        pool = pools[family.name]
        for t in pool:
            halves = gamma_split(t)
            assert halves == reading_word_split(t), t
            assert (halves[0].shape, halves[1].shape) == two_quotient(t.shape), t
        split = 0
        for t in _mutations(family, pool, letters):
            new = _split_or_error(gamma_split, t)
            assert new == _split_or_error(reading_word_split, t), t
            split += new[0] is not ValueError
        assert 0 < split < len(pool), family.name


def _layout_mutations(t, rng):
    """Two letter pieces' fills swapped, and one letter piece dropped."""
    letters = [j for j, (_, fill) in enumerate(t.pieces) if fill != X_FILL]
    pieces = list(t.pieces)
    if len(letters) > 1:
        i, j = rng.sample(letters, 2)
        (a, fa), (b, fb) = pieces[i], pieces[j]
        pieces[i], pieces[j] = (a, fb), (b, fa)
        yield DominoTableau(t.family, t.shape, pieces)
    j = rng.choice(letters)
    yield DominoTableau(t.family, t.shape, t.pieces[:j] + t.pieces[j + 1 :])


def test_split_layout_matches_reading_word_split_unvalidated(pools, monkeypatch):
    """With the domino validation of both splits switched off, and the flat
    validation that the reading-word rebuild runs on each half, the layouts
    meet tableaux that break the rules: swapped fills, which both lay out
    as they stand, and a dropped piece, after which a half's cells may form
    no partition profile.  Both give the same halves or the same ValueError
    message, and both outcomes occur."""
    monkeypatch.setattr(bijections, "validate_domino_tableau", lambda t: True)
    monkeypatch.setattr(reference_bijections, "validate_domino_tableau", lambda t: True)
    monkeypatch.setattr(tableaux, "validate_tableau", lambda t: True)
    rng = random.Random("layout")
    outcomes = set()
    for family, _, _, _, _ in POOLS:
        for t in rng.sample(pools[family.name], 1500):
            for m in _layout_mutations(t, rng):
                new = _split_or_error(gamma_split, m)
                assert new == _split_or_error(reading_word_split, m), m
                outcomes.add(new[1] if new[0] is ValueError else "split")
    assert outcomes == {"split", "segment lengths do not form a partition profile"}


def test_pools_unchanged_in_order(pools):
    for family, _, _, count, digest in POOLS:
        pool = pools[family.name]
        h = hashlib.sha256()
        for t in pool:
            h.update(canonical.serialize(t).encode() + b"\n")
        assert (len(pool), h.hexdigest()) == (count, digest), family.name


@pytest.fixture(scope="module")
def split_sample(pools):
    """(tableau, type-1 half, type-2 half) for every plain, set-valued and
    shifted pool tableau and a seeded sample of 3,000 shifted set-valued ones."""
    rng = random.Random("split")
    sample = [
        t for family in (PLAIN, SET_VALUED, SHIFTED) for t in pools[family.name]
    ] + rng.sample(pools[SHIFTED_SET_VALUED.name], 3000)
    return [(t, *gamma_split(t)) for t in sample]


def test_merge_matches_reference(split_sample):
    for t, t1, t2 in split_sample:
        merged = gamma_merge(t.family, t1, t2)
        assert merged == reference_gamma_merge(t.family, t1, t2), t


def test_render_ascii_matches_reference(split_sample):
    for t, t1, t2 in split_sample:
        for obj in (t, t1, t2):
            assert render_ascii(obj) == reference_render_ascii(obj), obj


def test_render_latex_matches_reference(split_sample):
    empty = [make_tableau(PLAIN, (), []), DominoTableau(PLAIN, (), ())]
    objs = empty + [obj for triple in split_sample for obj in triple]
    for obj in objs:
        assert render_latex(obj) == reference_render_latex(obj), obj


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


# (family, variables, max size) for the comparison with the transfer that
# rebuilt an IndexedFillState per state.  The set-valued families with n=3
# stop at size 12.
FILLSTATE_CASES = [
    (family, n, 12 if family.set_valued and n == 3 else 14)
    for family in FAMILIES
    for n in (2, 3)
]


@pytest.mark.parametrize(
    "family,n,max_size", FILLSTATE_CASES, ids=[f"{c[0].name}-n{c[1]}" for c in FILLSTATE_CASES]
)
def test_domino_genfun_matches_fillstate_transfer(family, n, max_size):
    """The same polynomial as the transfer that judged each edge through an
    ``IndexedFillState`` rebuilt from the state's frontier, shape by shape,
    on every shape up to ``max_size`` (and GQ (6,5,5,4) with n=2); shapes
    that raise ValueError raise it in both."""
    cases = list(partitions_up_to(max_size))
    if family is SHIFTED_SET_VALUED and n == 2:
        cases.append((6, 5, 5, 4))
    nonzero = 0
    for lam in cases:
        new = _genfun_or_error(domino_genfun, family, lam, n)
        assert new == _genfun_or_error(fillstate_domino_genfun, family, lam, n), lam
        nonzero += new is not ValueError and bool(new.terms)
    assert nonzero > 15


def walk_census(walk, family, shape, root, classes):
    """The total ``walk`` returns, its links without the node each enters
    (two automata of one shape hold equal nodes as distinct objects), and
    how many of them are live: marked from the last link back, as
    ``walk_paths`` marks them, a link is live when it enters the total or a
    state with a live link out."""
    links = []
    total = walk(family, shape, root, classes, links)
    live_states, live = set(), 0
    for terms, _, _, _, acc in reversed(links):
        if acc is total or id(acc) in live_states:
            live_states.add(id(terms))
            live += 1
    return total, [(terms, dom, fill, acc) for terms, dom, fill, _, acc in links], live


# A tall shape, in every census case, on which the unshifted column floor
# prunes links: plain with n=3, 6 links against 57, all of them live.
TALL = (2, 2, 2, 2, 2, 2)


@pytest.mark.parametrize(
    "family,n,max_size", FILLSTATE_CASES, ids=[f"{c[0].name}-n{c[1]}" for c in FILLSTATE_CASES]
)
def test_tiling_walk_matches_unfloored_walk(family, n, max_size):
    """On every shape up to ``max_size``, with each fill class weighing its
    number of fills (the listing's count) and its signed terms
    (``domino_genfun``'s), the walk returns the total of the walk without a
    column floor, on the automaton with every edge kept, and records as
    many live links, and never more links, strictly fewer on ``TALL`` in
    the unshifted families; in the shifted families, which have no column
    floor, the very same links."""
    for lam in shapes(family, max_size):
        root = tiling_root(family, lam, 2 * n)
        unpruned = unpruned_root(family, lam)
        counts = [(f[0], ((0, len(f)),)) for f in fill_classes(family, n)]
        signed = polyring._fill_classes(family, n, sum(lam).bit_length())
        for classes in (counts, signed):
            total, links, live = walk_census(tiling_walk, family, lam, root, classes)
            old_total, old_links, old_live = walk_census(
                unfloored_tiling_walk, family, lam, unpruned, classes
            )
            assert total == old_total, lam
            assert live == old_live, lam
            assert len(links) <= len(old_links), lam
            if family.shifted:
                assert links == old_links, lam
            elif lam == TALL:
                assert len(links) < len(old_links)


# (family, max size, zero-count shapes for n = 1 to 4), as observed.
ZERO_SUM_CASES = [(PLAIN, 14, (213, 129, 60, 24)), (SET_VALUED, 12, (111, 59, 24, 8))]


@pytest.mark.parametrize("family,max_size,zeros", ZERO_SUM_CASES, ids=["plain", "set-valued"])
def test_pruned_root_is_none_exactly_on_zero_sums(family, max_size, zeros):
    """On every shape up to ``max_size``, with n = 1 to 4 letters, the root
    whose edges' empty rank windows are pruned is None exactly when the
    unfloored walk on the automaton with every edge kept counts no domino
    tableau.  A None root implies no tableau, since every window holds the
    minimum of any fill its domino can take; the converse, that the
    windows alone find every shape without a tableau, is observed on these
    shapes, not proved."""
    for n, expected in zip((1, 2, 3, 4), zeros):
        counts = [(f[0], ((0, len(f)),)) for f in fill_classes(family, n)]
        found = 0
        for lam in shapes(family, max_size):
            total = unfloored_tiling_walk(family, lam, unpruned_root(family, lam), counts)
            assert (tiling_root(family, lam, 2 * n) is None) == (not total.get(0)), (lam, n)
            found += not total.get(0)
        assert found == expected, n


@pytest.mark.parametrize("family", (PLAIN, SET_VALUED), ids=lambda f: f.name)
@pytest.mark.parametrize("n", (3, 4))
def test_column_floor_is_sound_and_tight(family, n):
    """Over the domino tableaux the per-paving search lists on every shape
    up to size 12, a piece whose top-left cell is in row r has a minimum of
    at least rank 2 + 2 (r // 2), letter 1 + ceil((r - 1) / 2): the r - 1
    cells above it in its column rise strictly, but within a vertical
    domino, and so hold at least ceil((r - 1) / 2) smaller letters.  Every
    row that occurs reaches that bound on some shape, though not on every
    one: the pavings of (4,3,2,2,1) never pair the two cells above row 3."""
    least: dict[int, int] = {}
    for lam in shapes(family, 12):
        for pieces in reference_domino_fills(family, lam, n):
            for dom, fill in pieces:
                least[dom.row] = min(least.get(dom.row, fill[0]), fill[0])
    # Row 2n would need letter n + 1, so the rows are 1 to 2n - 1.
    assert least == {r: 2 + 2 * (r // 2) for r in range(1, 2 * n)}


def _automaton_dominoes(family, shape):
    """The distinct dominoes on the edges of the shape's tiling automaton,
    with every edge kept."""
    root = unpruned_root(family, shape)
    seen, stack, dominoes = {id(root)}, [root], set()
    while stack:
        for dom, _, child in stack.pop()[0] or ():
            dominoes.add(dom)
            if id(child) not in seen:
                seen.add(id(child))
                stack.append(child)
    return dominoes


def _fold(rel, fill):
    """The bounds (floor, cap, odd_cap) that one placed piece of ``fill`` in
    relation ``rel`` puts on a fill, as ``piece_relation`` names them."""
    lo, hi = fill[0], fill[-1]
    floor = fill_floor(lo if rel & LEFT else 0, lo if rel & ABOVE else 0)
    cap = odd_cap = float("inf")
    if rel & BELOW:
        cap = (lo - 1) | 1
    if rel & SE_DOWN_FLOOR:
        floor = max(floor, hi + (hi & 1))
    if rel & SE_DOWN_CAP:
        odd_cap = lo
    return (floor, cap, odd_cap)


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
def test_piece_relation_matches_fillstate_bounds(family):
    """For every pair of distinct, non-overlapping dominoes on the edges of
    the tiling automaton of every shape up to size 12, with the other
    domino before the domino in diagonal reading order (the only pairs
    either judge reads), and every (min, max) class of fills over three
    letters on the other one, the bounds that ``piece_relation`` names are
    those of ``IndexedFillState.bounds``, which states the rules with its
    own neighbour cells and southeast comparisons.  Its fourth bound, the
    cap that a same-type piece two diagonals up puts on the maximum, never
    arises on these pairs, and nor does a right neighbour."""
    fills = {}
    for fill in _candidate_fills(family, 3):
        fills.setdefault((fill[0], fill[-1]), fill)
    state = IndexedFillState(family)
    pairs, flags = 0, 0
    for lam in shapes(family, 12):
        dominoes = _automaton_dominoes(family, lam)
        for dom in dominoes:
            for other in dominoes:
                if _diag_key(other) >= _diag_key(dom) or set(dom.cells()) & set(other.cells()):
                    continue
                rel = piece_relation(dom, other, family.set_valued)
                pairs += 1
                flags |= rel
                for fill in fills.values():
                    state.add(other, fill)
                    bounds = (*_fold(rel, fill), float("inf"))
                    assert state.bounds(dom) == bounds, (lam, dom, other, fill)
                    state.pop()
    assert pairs > 600
    southeast = SE_DOWN_FLOOR | SE_DOWN_CAP if family.set_valued else 0
    assert flags == LEFT | ABOVE | BELOW | southeast


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


# Tall and wide shapes, with the variable counts, that the row-major
# transfer also sums in under a second.  The letter cells of the shifted
# (6^6) form the staircase (6,5,4,3,2,1).
ROW_MAJOR_SPOTS = [
    (PLAIN, (3,) * 10, 10),
    (PLAIN, (4,) * 8, 8),
    (SET_VALUED, (2,) * 8, 8),
    (SET_VALUED, (100, 100), 3),
    (SHIFTED, (6,) * 6, 6),
    (SHIFTED, (60, 59), 2),
    (SHIFTED, (30, 29, 28), 3),
    (SHIFTED_SET_VALUED, (40, 39), 2),
]


def test_flat_genfun_matches_row_major_transfer():
    """The same polynomial as the transfer that swept every shape row by
    row: on every shape up to size 10 (the admissible ones in the shifted
    families), in all four families with n = 1-3, and on tall and wide
    shapes."""
    cases = [
        (family, lam, n)
        for family in FAMILIES
        for lam in partitions_up_to(10)
        if not family.shifted or is_staircase_admissible(lam)
        for n in (1, 2, 3)
    ]
    assert len(cases) == 1008
    for family, lam, n in cases + ROW_MAJOR_SPOTS:
        assert genfun(family, lam, n) == row_major_genfun(family, lam, n), (family.name, lam, n)


# (family, letters, max size) for the flat enumerator and validator.  Three
# letters stop at size 7, and at size 5 in the set-valued families.
FLAT_LIST_CASES = [
    (family, n, (5 if family.set_valued else 7) if n == 3 else 9)
    for family in FAMILIES
    for n in (1, 2, 3)
]


@pytest.fixture(scope="module")
def flat_lists():
    """The reference enumerator's list (or ValueError) per case and shape."""
    return {
        (family.name, n): [
            (lam, _genfun_or_error(reference_enumerate_tableaux, family, lam, n))
            for lam in partitions_up_to(max_size)
        ]
        for family, n, max_size in FLAT_LIST_CASES
    }


def test_flat_enumerator_matches_reference_in_order(flat_lists):
    """The same tableaux in the same order, shape by shape, in every case;
    shifted shapes that are not admissible raise ValueError in both."""
    total = 0
    for family, n, _ in FLAT_LIST_CASES:
        for lam, expected in flat_lists[family.name, n]:
            new = _genfun_or_error(enumerate_tableaux, family, lam, n)
            assert new == expected, (family.name, n, lam)
            total += 0 if expected is ValueError else len(expected)
    assert total > 10000


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
def test_flat_listing_matches_row_major_search_in_order(family, monkeypatch):
    """The same tableaux in the same order as the row-major search, or the
    same ValueError, on every shape up to size 8 with 1 to 3 letters; and,
    with MAX_LISTED lowered to a shape's count and to one less, the same
    list and the same ValueError."""
    listed = limited = 0
    for letters in (1, 2, 3):
        for lam in partitions_up_to(8):
            new = _listing_or_error(enumerate_tableaux, family, lam, letters)
            old = _listing_or_error(enumerate_tableaux_by_search, family, lam, letters)
            assert new == old, (lam, letters)
            if not isinstance(new, list) or not new:
                continue
            listed += len(new)
            for limit in (len(new), len(new) - 1):
                with monkeypatch.context() as m:
                    m.setattr(tableaux, "MAX_LISTED", limit)
                    new = _listing_or_error(enumerate_tableaux, family, lam, letters)
                    old = _listing_or_error(enumerate_tableaux_by_search, family, lam, letters)
                assert new == old, (lam, letters, limit)
                limited += new[0] is ValueError
    assert listed > 500
    assert limited > 40


def _flat_mutations(family, pool, letters, rng):
    """Two single-cell fill changes per tableau, drawn from every admissible
    fill over the letters plus X."""
    fills = _candidate_fills(family, letters) + [X_FILL]
    for t in pool:
        if not t.shape:
            continue
        for _ in range(2):
            r = rng.randrange(len(t.rows))
            c = rng.randrange(len(t.rows[r]))
            fill = rng.choice([f for f in fills if f != t.rows[r][c]])
            row = t.rows[r][:c] + (fill,) + t.rows[r][c + 1 :]
            yield Tableau(t.family, t.shape, t.rows[:r] + (row,) + t.rows[r + 1 :])


def test_flat_validate_matches_reference_on_lists_and_mutations(flat_lists):
    rng = random.Random("flat")
    accepted = {family.name: 0 for family in FAMILIES}
    tried = dict(accepted)
    for family, n, _ in FLAT_LIST_CASES:
        pool = [
            t for _, ts in flat_lists[family.name, n] if ts is not ValueError for t in ts
        ]
        for t in pool:
            assert validate_tableau(t) and reference_validate_tableau(t)
        for t in _flat_mutations(family, pool, n, rng):
            ok = validate_tableau(t)
            assert ok == reference_validate_tableau(t), t
            accepted[family.name] += ok
            tried[family.name] += 1
    # Some mutations stay valid, not all: both outcomes are compared in every
    # family.  (Over one letter a plain mutation can only write X.)
    for name in accepted:
        assert 0 < accepted[name] < tried[name], name
