"""The interned dominoes: ``pavings.domino`` gives one object per domino.

Interned and fresh dominoes must be interchangeable, the shapes' automata
must share them, and the walk's id-keyed relation memo and the
validator must stay right when the cache is cleared between shapes, so
that freed dominoes' ids come round again under other dominoes.
"""

import random

import pytest

from dominotab import canonical
from dominotab.bijections import gamma_merge, gamma_split
from dominotab.domino_tableaux import (
    DominoTableau,
    enumerate_domino_tableaux,
    validate_domino_tableau,
)
from dominotab.partitions import is_pavable, partitions_up_to
from dominotab.pavings import Domino, _least_tiling, domino, is_shifted_pavable
from dominotab.polyring import domino_genfun
from dominotab.tableaux import PLAIN, SET_VALUED, SHIFTED, SHIFTED_SET_VALUED, _candidate_fills
from reference_fill_search import unpruned_root
from reference_fillstate import reference_validate
from reference_genfun import fillstate_domino_genfun

FAMILIES = (PLAIN, SET_VALUED, SHIFTED, SHIFTED_SET_VALUED)


def shapes(family, max_size):
    for lam in partitions_up_to(max_size):
        if lam and is_pavable(lam) and (not family.shifted or is_shifted_pavable(lam)):
            yield lam


def automaton_dominoes(family, shape):
    """Every domino on the edges of the shape's tiling automaton, and the
    down dominoes of its complete nodes."""
    root = unpruned_root(family, shape)
    seen, stack, out = {id(root)}, [root], []
    while stack:
        edges, down = stack.pop()
        out.extend(down)
        for dom, _, child in edges or ():
            out.append(dom)
            if id(child) not in seen:
                seen.add(id(child))
                stack.append(child)
    return out


def test_interned_domino_is_interchangeable_with_a_fresh_one():
    args = [(r, c, h) for r in range(1, 5) for c in range(1, 5) for h in (False, True)]
    interned = [domino(*a) for a in args]
    fresh = [Domino(*a) for a in args]
    for a, d, f in zip(args, interned, fresh):
        assert d == f and hash(d) == hash(f), a
        assert domino(*a) is d
        assert (d.cells(), d.contents(), d.crossing(), d.dtype()) == (
            f.cells(),
            f.contents(),
            f.crossing(),
            f.dtype(),
        )
    rng = random.Random("interning")
    order = list(range(len(args)))
    rng.shuffle(order)
    assert sorted(interned[k] for k in order) == sorted(fresh[k] for k in order)
    assert {*interned} == {*fresh}


def test_two_shapes_automata_share_their_dominoes():
    first = {(d.row, d.col, d.horiz): d for d in automaton_dominoes(PLAIN, (4, 4))}
    shared = 0
    for d in automaton_dominoes(PLAIN, (4, 4, 2, 2)):
        if (d.row, d.col, d.horiz) in first:
            assert first[(d.row, d.col, d.horiz)] is d
            shared += 1
    assert shared >= 8
    shifted = automaton_dominoes(SHIFTED, (3, 2, 2, 1))  # down dominoes included
    assert any(d.crossing() < 0 for d in shifted)
    assert all(d is domino(d.row, d.col, d.horiz) for d in shifted)


def test_the_cache_key_keeps_ints_and_bools_apart():
    assert domino(1, 2, 1) is not domino(1, 2, True)
    assert domino(1, 2, True).horiz is True
    assert domino(1, 2, 1).horiz == 1


def _exact(d):
    return type(d.row) is int and type(d.col) is int and type(d.horiz) is bool


def test_every_call_site_passes_ints_and_a_real_bool():
    """The automata and least tilings, the merge and the parser build their
    dominoes from ints and a bool, so no call shares a key with one that
    passes 1 for True."""
    for family in FAMILIES:
        for lam in shapes(family, 8):
            assert all(_exact(d) for d in automaton_dominoes(family, lam)), (family, lam)
    assert all(_exact(d) for d in _least_tiling([(1, 1), (1, 2), (2, 1), (3, 1)]))
    for family in FAMILIES:
        for t in enumerate_domino_tableaux(family, (3, 2, 2, 1) if family.shifted else (3, 3), 2):
            merged = gamma_merge(family, *gamma_split(t))
            parsed = canonical.parse(canonical.serialize(t))
            assert all(_exact(d) for t2 in (merged, parsed) for d, _ in t2.pieces)


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
def test_domino_genfun_after_cache_clear_matches_fillstate_transfer(family):
    """The cache is cleared before each shape, so each shape builds fresh
    dominoes, often at the addresses of the last shape's: the transfer's
    per-call relation memo must still match the transfer that judged every
    edge through an ``IndexedFillState``."""
    last_ids, recycled, checked = {}, 0, 0
    for lam in shapes(family, 10):
        domino.cache_clear()
        ids = {id(d): (d.row, d.col, d.horiz) for d in automaton_dominoes(family, lam)}
        recycled += sum(1 for k, v in ids.items() if last_ids.get(k, v) != v)
        last_ids.update(ids)
        assert domino_genfun(family, lam, 2) == fillstate_domino_genfun(family, lam, 2), lam
        checked += 1
    assert checked >= 8
    assert recycled > 0


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
def test_validation_after_cache_clear_matches_reference(family):
    """Each shape's tableaux, and a mutation of each, are parsed from their
    canonical text after the cache is cleared, so their dominoes are fresh
    objects whose ids may be those of freed ones.  The validator must give
    every one the verdict of ``reference_validate``.  (Each validation
    builds its own ``FillState``, which keeps no relation memo.)"""
    rng = random.Random(family.name)
    fills = _candidate_fills(family, 2)
    accepted = rejected = 0
    for lam in shapes(family, 10 if family is PLAIN else 8):
        texts = []
        for t in enumerate_domino_tableaux(family, lam, 2):
            texts.append(canonical.serialize(t))
            j = rng.randrange(len(t.pieces))
            dom, old = t.pieces[j]
            fill = rng.choice([f for f in fills if f != old]) if old in fills else old
            pieces = t.pieces[:j] + ((dom, fill),) + t.pieces[j + 1 :]
            texts.append(canonical.serialize(DominoTableau(family, lam, pieces)))
        domino.cache_clear()
        for text in texts:
            t = canonical.parse(text)
            ok = validate_domino_tableau(t)
            assert ok == reference_validate(t), text
            accepted += ok
            rejected += not ok
    assert accepted > 100 and rejected > 50
