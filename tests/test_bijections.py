import pytest

from conftest import cardinality, dt_cardinality, dt_weight, tb
from dominotab import bijections, tableaux
from dominotab.bijections import gamma_merge, gamma_split
from dominotab.domino_tableaux import enumerate_domino_tableaux, up_fingerprint
from dominotab.partitions import is_pavable, partitions_up_to, two_quotient
from dominotab.pavings import is_shifted_pavable
from dominotab.tableaux import (
    PLAIN,
    SET_VALUED,
    SHIFTED,
    SHIFTED_SET_VALUED,
    Tableau,
    enumerate_tableaux,
    weight,
)


def staircase_ok(lam):
    return not lam or lam[-1] >= len(lam)


def flat_pairs(family, lam, max_letter):
    q1, q2 = two_quotient(lam)
    for t1 in enumerate_tableaux(family, q1, max_letter):
        for t2 in enumerate_tableaux(family, q2, max_letter):
            yield t1, t2


def test_split_fixture_plain(plain_bijection_case):
    T, t1, t2 = plain_bijection_case
    assert gamma_split(T) == (t1, t2)
    assert gamma_merge(PLAIN, t1, t2) == T


def test_split_fixture_set_valued(set_valued_bijection_case):
    T, t1, t2 = set_valued_bijection_case
    assert gamma_split(T) == (t1, t2)
    assert gamma_merge(SET_VALUED, t1, t2) == T


def test_split_fixture_shifted(shifted_bijection_case):
    T, t1, t2 = shifted_bijection_case
    assert gamma_split(T) == (t1, t2)
    merged = gamma_merge(SHIFTED, t1, t2)
    assert up_fingerprint(merged) == up_fingerprint(T)


def test_split_fixture_shifted_set_valued(shifted_set_valued_bijection_case):
    T, t1, t2 = shifted_set_valued_bijection_case
    assert gamma_split(T) == (t1, t2)
    merged = gamma_merge(SHIFTED_SET_VALUED, t1, t2)
    assert up_fingerprint(merged) == up_fingerprint(T)


def test_split_validates_no_half(
    monkeypatch,
    plain_bijection_case,
    set_valued_bijection_case,
    shifted_bijection_case,
    shifted_set_valued_bijection_case,
):
    """The split validates the domino tableau it is given, and not the
    halves it lays out: the bijection makes them valid."""
    calls = []
    real = tableaux.validate_tableau

    def counted(t):
        calls.append(t)
        return real(t)

    monkeypatch.setattr(tableaux, "validate_tableau", counted)
    monkeypatch.setattr(bijections, "validate_tableau", counted)
    for T, t1, t2 in (
        plain_bijection_case,
        set_valued_bijection_case,
        shifted_bijection_case,
        shifted_set_valued_bijection_case,
    ):
        assert gamma_split(T) == (t1, t2)
    assert calls == []


def test_split_shape_is_quotient(plain_bijection_case):
    T, t1, t2 = plain_bijection_case
    assert (t1.shape, t2.shape) == two_quotient(T.shape)


def test_merge_rejects_invalid_inputs():
    bad = tb(PLAIN, (2,), [["2", "1"]])
    good = tb(PLAIN, (1,), [["1"]])
    with pytest.raises(ValueError):
        gamma_merge(PLAIN, bad, good)
    with pytest.raises(ValueError):
        gamma_merge(SET_VALUED, good, good)  # family mismatch


def test_merge_rejects_a_chain_that_leaves_no_partition(monkeypatch):
    # A row-2 cell into an empty component: its bead would land on the bead
    # of row 1, so the component would stop being a partition.
    two_rows = tb(PLAIN, (1, 1), [["1"], ["2"]])
    empty = Tableau(PLAIN, (), ())
    monkeypatch.setattr(bijections, "_chain", lambda family, t1, t2: [(2, 2, (1,))])
    with pytest.raises(ValueError):
        gamma_merge(PLAIN, two_rows, empty)


def test_merge_empty_pair():
    empty = Tableau(PLAIN, (), ())
    merged = gamma_merge(PLAIN, empty, empty)
    assert merged.shape == () and merged.pieces == ()


def test_same_letter_same_diagonal_all_cases():
    # Unprimed equal entries merge to side-by-side verticals, primed equal
    # entries to stacked horizontals; both split back to the input pair.
    one = tb(SHIFTED, (1,), [["1"]])
    onep = tb(SHIFTED, (1,), [["1'"]])
    m = gamma_merge(SHIFTED, one, one)
    assert all(not d.horiz for d, _ in m.pieces)
    m2 = gamma_merge(SHIFTED, onep, onep)
    assert all(d.horiz for d, _ in m2.pieces)
    assert gamma_split(m) == (one, one)
    assert gamma_split(m2) == (onep, onep)


@pytest.mark.parametrize(
    "family,max_size,max_letter",
    [(PLAIN, 10, 2), (SET_VALUED, 6, 2)],
)
def test_roundtrip_a_unshifted(family, max_size, max_letter):
    for lam in partitions_up_to(max_size):
        if not lam or not is_pavable(lam):
            continue
        for T in enumerate_domino_tableaux(family, lam, max_letter):
            t1, t2 = gamma_split(T)
            assert (t1.shape, t2.shape) == two_quotient(lam)
            assert gamma_merge(family, t1, t2) == T


@pytest.mark.parametrize("family", [SHIFTED, SHIFTED_SET_VALUED])
def test_roundtrip_a_shifted(family):
    for lam in partitions_up_to(10):
        if not lam or not is_pavable(lam) or not is_shifted_pavable(lam):
            continue
        for T in enumerate_domino_tableaux(family, lam, 2):
            t1, t2 = gamma_split(T)
            assert gamma_merge(family, t1, t2) == T


@pytest.mark.parametrize(
    "family,max_letter",
    [(PLAIN, 3), (SET_VALUED, 3), (SHIFTED, 3), (SHIFTED_SET_VALUED, 2)],
)
def test_roundtrip_b(family, max_letter):
    # All quotient pairs with |mu| + |nu| <= 5, i.e. pavable shapes of size
    # up to 10.
    for lam in partitions_up_to(10):
        if not lam or not is_pavable(lam):
            continue
        q1, q2 = two_quotient(lam)
        if family.shifted:
            if not (staircase_ok(q1) and staircase_ok(q2) and is_shifted_pavable(lam)):
                continue
        for t1, t2 in flat_pairs(family, lam, max_letter):
            T = gamma_merge(family, t1, t2)
            assert T.shape == lam
            assert gamma_split(T) == (t1, t2)


def test_weight_and_cardinality_preserved():
    for family, max_letter in ((SET_VALUED, 2), (SHIFTED_SET_VALUED, 2)):
        for lam in ((2, 2), (4,), (3, 1)):
            if family.shifted and not is_shifted_pavable(lam):
                continue
            for t1, t2 in flat_pairs(family, lam, max_letter):
                T = gamma_merge(family, t1, t2)
                w1, w2 = weight(t1, max_letter), weight(t2, max_letter)
                assert dt_weight(T, max_letter) == tuple(a + b for a, b in zip(w1, w2))
                assert dt_cardinality(T) == cardinality(t1) + cardinality(t2)


def test_set_valued_engine_restricts_to_plain():
    # Singleton-filled set-valued inputs must merge to the same dominoes as
    # their plain counterparts.
    for lam in ((2, 2), (4,), (2, 1, 1)):
        for t1, t2 in flat_pairs(PLAIN, lam, 2):
            sv1 = Tableau(SET_VALUED, t1.shape, t1.rows)
            sv2 = Tableau(SET_VALUED, t2.shape, t2.rows)
            plain = gamma_merge(PLAIN, t1, t2)
            setv = gamma_merge(SET_VALUED, sv1, sv2)
            assert [(d, f) for d, f in plain.pieces] == [(d, f) for d, f in setv.pieces]


def test_merge_channel_matches_enumeration():
    # The bijection and the direct enumerator generate the same multiset.
    for family, max_letter in ((PLAIN, 2), (SET_VALUED, 2)):
        for lam in ((2, 2), (4,), (3, 1), (2, 1, 1)):
            merged = sorted(
                gamma_merge(family, t1, t2).pieces
                for t1, t2 in flat_pairs(family, lam, max_letter)
            )
            direct = sorted(t.pieces for t in enumerate_domino_tableaux(family, lam, max_letter))
            assert merged == direct
    for family in (SHIFTED, SHIFTED_SET_VALUED):
        for lam in ((2, 2), (4,), (3, 1)):
            if not is_shifted_pavable(lam):
                continue
            merged = sorted(
                up_fingerprint(gamma_merge(family, t1, t2))
                for t1, t2 in flat_pairs(family, lam, 2)
            )
            direct = sorted(
                up_fingerprint(t) for t in enumerate_domino_tableaux(family, lam, 2)
            )
            assert merged == direct
