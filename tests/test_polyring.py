import sys

import pytest
from hypothesis import given, settings, strategies as st

from conftest import homogeneous_component, min_degree, up_cell_count
from dominotab import domino_tableaux, polyring, tableaux
from dominotab.cli import main
from dominotab.partitions import is_staircase_admissible, partitions_up_to, two_quotient
from dominotab.polyring import Polynomial, domino_genfun, genfun
from dominotab.tableaux import PLAIN, SET_VALUED, SHIFTED, SHIFTED_SET_VALUED
from dominotab.verify import verify_identity


def P(n, *terms):
    return Polynomial(n, {tuple(m): c for m, c in terms})


def test_mul_basic():
    x1 = P(2, ((1, 0), 1))
    x2 = P(2, ((0, 1), 1))
    assert x1 * x2 == P(2, ((1, 1), 1))
    s = x1 + x2
    assert s * s == P(2, ((2, 0), 1), ((1, 1), 2), ((0, 2), 1))


def test_mul_requires_matching_vars():
    with pytest.raises(ValueError):
        P(2, ((1, 0), 1)) * P(3, ((1, 0, 0), 1))


def test_zero_coefficients_dropped():
    p = P(1, ((1,), 1)) - P(1, ((1,), 1))
    assert p == Polynomial.zero(1)
    assert p.terms == {}


def test_pieri_rule_instance():
    # s_(1) * s_(1) = s_(2) + s_(1,1) in two variables.
    s1 = genfun(PLAIN, (1,), 2)
    assert s1 * s1 == genfun(PLAIN, (2,), 2) + genfun(PLAIN, (1, 1), 2)


def test_schur_2_1_coefficients():
    s = genfun(PLAIN, (2, 1), 3)
    assert s.coeff((2, 1, 0)) == 1
    assert s.coeff((1, 1, 1)) == 2
    assert sum(abs(c) for c in s.terms.values()) == 8


def test_grothendieck_2_1_coefficients():
    g = genfun(SET_VALUED, (2, 1), 3)
    assert g.coeff((2, 1, 0)) == 1
    assert g.coeff((1, 1, 1)) == 2
    assert g.coeff((2, 2, 0)) == -1
    assert g.coeff((2, 1, 1)) == -3


def test_qschur_3_3_3_coefficient():
    q = genfun(SHIFTED, (3, 3, 3), 3)
    assert q.coeff((3, 2, 1)) == 8


def test_gq_2_2_coefficients():
    gq = genfun(SHIFTED_SET_VALUED, (2, 2), 2)
    assert gq.coeff((2, 1)) == 4
    assert gq.coeff((3, 1)) == -2


def test_genfun_empty_shape():
    for family in (PLAIN, SET_VALUED, SHIFTED, SHIFTED_SET_VALUED):
        assert genfun(family, (), 2) == Polynomial.one(2)


def test_genfun_symmetric():
    for family in (PLAIN, SET_VALUED):
        for lam in ((1,), (2,), (2, 1), (2, 2)):
            assert genfun(family, lam, 3).is_symmetric()
    for family in (SHIFTED, SHIFTED_SET_VALUED):
        for lam in ((1,), (2,), (2, 2), (3, 2)):
            assert genfun(family, lam, 2).is_symmetric()


def test_lowest_degree_truncation_g_to_s():
    for lam in partitions_up_to(6):
        g = genfun(SET_VALUED, lam, 3)
        assert homogeneous_component(g, sum(lam)) == genfun(PLAIN, lam, 3)
        if g.terms:  # shapes taller than the variable count give zero
            assert min_degree(g) == sum(lam)


def test_lowest_degree_truncation_gq_to_q():
    for lam in partitions_up_to(8):
        if not lam or lam[-1] < len(lam) or up_cell_count(lam) > 6:
            continue
        gq = genfun(SHIFTED_SET_VALUED, lam, 3)
        assert homogeneous_component(gq, up_cell_count(lam)) == genfun(SHIFTED, lam, 3)


def test_grothendieck_sign_grading():
    for lam in ((1,), (2,), (2, 1)):
        g = genfun(SET_VALUED, lam, 3)
        for m, c in g.terms.items():
            expected = -1 if (sum(m) - sum(lam)) % 2 else 1
            assert c * expected > 0


def test_domino_genfun_plain_instances():
    assert domino_genfun(PLAIN, (2,), 1) == P(1, ((1,), 1))
    lhs = genfun(PLAIN, (1,), 2) * genfun(PLAIN, (1,), 2)
    assert domino_genfun(PLAIN, (2, 2), 2) == lhs


def test_domino_genfun_rejects_unpavable():
    with pytest.raises(ValueError):
        domino_genfun(PLAIN, (5, 3, 3, 2, 1), 2)


def test_domino_genfun_rejects_too_many_states(monkeypatch, capsys):
    # GQ (6,5,5,4) with n=3 peaks at 167,412 states and must stay in range;
    # with n=2 it peaks at 8,990.
    assert domino_tableaux.MAX_TRANSFER_STATES > 167_412
    monkeypatch.setattr(domino_tableaux, "MAX_TRANSFER_STATES", 1000)
    with pytest.raises(ValueError, match="more than 1000 states in one layer"):
        domino_genfun(SHIFTED_SET_VALUED, (6, 5, 5, 4), 2)
    argv = ["genfun", "--family", "shifted-set-valued", "--shape", "[6,5,5,4]", "--vars", "2"]
    assert main(argv + ["--domino"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    # The listing counts on the same walk, under the same cap.
    with pytest.raises(ValueError, match="more than 1000 states in one layer"):
        domino_tableaux.enumerate_domino_tableaux(SHIFTED_SET_VALUED, (6, 5, 5, 4), 2)
    argv = ["enumerate", "--kind", "domino", "--family", "shifted-set-valued"]
    assert main(argv + ["--shape", "[6,5,5,4]", "--max-letter", "2"]) == 2
    assert "walking the tilings of" in capsys.readouterr().err


def test_domino_genfun_never_builds_a_layer_over_the_limit(monkeypatch):
    """The limit holds as states are added, not once a layer is complete:
    the walk calls ``fold_bounds`` once for each edge of each state it
    expands, and this test fails if at any of those moments the layer being
    expanded or the one being built holds more states than the limit."""
    limit = 1000
    monkeypatch.setattr(domino_tableaux, "MAX_TRANSFER_STATES", limit)
    largest = []
    fold_bounds = domino_tableaux.fold_bounds

    def watched_fold(dom, pieces, set_valued):
        local = sys._getframe(1).f_locals
        size = max(len(local["layer"]), len(local["nxt"]))
        if size > limit:
            pytest.fail(f"a layer of {size} states was built")
        largest.append(size)
        return fold_bounds(dom, pieces, set_valued)

    monkeypatch.setattr(domino_tableaux, "fold_bounds", watched_fold)
    with pytest.raises(ValueError):
        domino_genfun(SHIFTED_SET_VALUED, (6, 5, 5, 4), 2)
    assert max(largest) > limit // 2


def test_domino_genfun_builds_no_fill_state(monkeypatch):
    """Edges are judged from the frontier by ``piece_relation``, so the
    transfer neither imports nor builds a ``FillState``."""

    def no_state(self, family):
        pytest.fail("a FillState was built")

    assert not hasattr(polyring, "FillState")
    monkeypatch.setattr(domino_tableaux.FillState, "__init__", no_state)
    for family in (PLAIN, SET_VALUED, SHIFTED, SHIFTED_SET_VALUED):
        assert domino_genfun(family, (4, 3, 1), 2).terms


def test_transfers_reject_too_many_terms(monkeypatch, capsys):
    # GQ (6,5,5,4) with n=3 peaks at 2,123,158 terms in one layer and must
    # stay in range.
    assert domino_tableaux.MAX_TRANSFER_TERMS > 2_123_158
    assert tableaux.MAX_TRANSFER_TERMS == domino_tableaux.MAX_TRANSFER_TERMS
    # A sum kept from earlier calls would answer without the transfer.
    polyring._flat_memo.clear()
    monkeypatch.setattr(tableaux, "MAX_TRANSFER_TERMS", 100)
    monkeypatch.setattr(domino_tableaux, "MAX_TRANSFER_TERMS", 100)
    for _ in range(2):  # a sum that raised is not kept, so it raises again
        with pytest.raises(ValueError, match="more than 100 terms in one layer"):
            genfun(SHIFTED_SET_VALUED, (3, 3), 3)
    with pytest.raises(ValueError, match="more than 100 terms in one layer"):
        domino_genfun(SHIFTED_SET_VALUED, (6, 5, 5, 4), 2)
    argv = ["genfun", "--family", "shifted-set-valued", "--vars", "3", "--shape"]
    assert main(argv + ["[3,3]"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert main(argv + ["[6,5,5,4]", "--domino"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    with pytest.raises(ValueError, match="more than 100 terms in one layer"):
        domino_tableaux.enumerate_domino_tableaux(SHIFTED_SET_VALUED, (6, 5, 5, 4), 2)
    argv = ["enumerate", "--kind", "domino", "--family", "shifted-set-valued"]
    assert main(argv + ["--shape", "[6,5,5,4]", "--max-letter", "2"]) == 2
    assert "walking the tilings of" in capsys.readouterr().err
    # The flat listing counts on the same walk as the flat sum.
    with pytest.raises(ValueError, match="more than 100 terms in one layer"):
        tableaux.enumerate_tableaux(PLAIN, (4, 4, 4), 8)
    argv = ["enumerate", "--family", "plain", "--shape", "[4,4,4]", "--max-letter", "8"]
    assert main(argv) == 2
    assert "the flat sum over" in capsys.readouterr().err
    monkeypatch.setattr(tableaux, "MAX_TRANSFER_TERMS", 10_000)
    assert genfun(SHIFTED_SET_VALUED, (3, 3), 3).terms


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("family", [PLAIN, SET_VALUED, SHIFTED, SHIFTED_SET_VALUED])
def test_genfun_matches_the_uncached_transfer(family, n):
    """``genfun`` answers, on a first call and on a repeat, exactly what the
    flat transfer computes afresh, on every shape up to size 10 that the
    family admits."""
    shapes = [
        lam for lam in partitions_up_to(10) if not family.shifted or is_staircase_admissible(lam)
    ]
    for lam in shapes:
        fresh = polyring._flat_transfer(family, lam, n)
        assert genfun(family, lam, n) == fresh, lam
        assert genfun(family, lam, n) == fresh, lam


def test_flat_memo_stays_within_its_bound(monkeypatch):
    """After more distinct sums than it holds, the memo costs no more than
    its bound, keeps the most recently used sums, and answers right; a sum
    that costs more than the bound on its own is computed but not kept."""
    memo = polyring._flat_memo
    memo.clear()
    monkeypatch.setattr(polyring, "MAX_MEMO_TERMS", 60)
    shapes = list(partitions_up_to(6))
    for lam in shapes:
        assert genfun(SET_VALUED, lam, 2) == polyring._flat_transfer(SET_VALUED, lam, 2)
        assert memo.cost == sum(memo.cost_of(k, p) for k, p in memo.sums.items()) <= 60
    assert 1 < len(memo.sums) < len(shapes)
    assert list(memo.sums)[-1] == (SET_VALUED, shapes[-1], 2)
    oldest = next(iter(memo.sums))
    genfun(*oldest)
    assert list(memo.sums)[-1] == oldest  # a hit makes a sum the most recently used
    kept = dict(memo.sums)
    big = genfun(PLAIN, (6,), 4)
    assert len(big.terms) > 60
    assert memo.sums == kept


def test_flat_memo_under_threads(monkeypatch):
    """Concurrent calls, evicting one another's sums with threads switched
    often, all answer right and leave the memo's cost in step with what it
    holds, which a lost update would break."""
    from concurrent.futures import ThreadPoolExecutor

    memo = polyring._flat_memo
    memo.clear()
    monkeypatch.setattr(polyring, "MAX_MEMO_TERMS", 80)
    tasks = [(family, lam, 2) for family in (PLAIN, SET_VALUED) for lam in partitions_up_to(7)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(lambda task: genfun(*task), tasks * 3, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert got == [polyring._flat_transfer(*task) for task in tasks * 3]
    assert memo.cost == sum(memo.cost_of(k, p) for k, p in memo.sums.items()) <= 80


def test_domino_genfun_never_reads_or_writes_the_flat_memo():
    """The domino side stays independent of the flat sums: it stores
    nothing in their memo, and wrong sums planted there for the quotient
    of its shape change nothing."""
    memo = polyring._flat_memo
    cases = [(family, (4, 3, 1), 2) for family in (PLAIN, SET_VALUED, SHIFTED, SHIFTED_SET_VALUED)]
    memo.clear()
    try:
        sums = [domino_genfun(*case) for case in cases]
        assert memo.sums == {}
        wrong = P(2, ((5, 5), 7))
        for family, lam, n in cases:
            for part in two_quotient(lam):
                memo.put((family, part, n), wrong)
        planted = dict(memo.sums)
        assert [domino_genfun(*case) for case in cases] == sums
        assert memo.sums == planted
    finally:
        memo.clear()


def test_a_negative_variable_count_is_rejected():
    """Both sums and the identity check raise ValueError for n < 0, where
    they returned polynomials in -1 variables whose reports did not parse
    back; n = 0 stays valid."""
    for call in (
        lambda: genfun(PLAIN, (1,), -1),
        lambda: genfun(PLAIN, (), -2),
        lambda: domino_genfun(PLAIN, (2,), -1),
        lambda: verify_identity(PLAIN, (2, 2), -2),
        lambda: verify_identity(PLAIN, (3,), -1),  # not pavable: no SKIP either
    ):
        with pytest.raises(ValueError, match="must not be negative, got -"):
            call()
    assert genfun(PLAIN, (), 0) == Polynomial.one(0)
    assert genfun(PLAIN, (1,), 0) == Polynomial.zero(0)
    assert verify_identity(PLAIN, (2, 2), 0).passed


def test_variable_count_is_limited(capsys):
    """More than MAX_VARIABLES variables raise ValueError in both sums and
    in the identity check, and the CLI exits 2; at the limit the plain sum
    over (2,1) is quick."""
    top = polyring.MAX_VARIABLES
    assert top == 32
    assert genfun(PLAIN, (2, 1), top).coeff((1, 1, 1) + (0,) * (top - 3)) == 2
    assert domino_genfun(PLAIN, (2, 2), top).terms
    for call in (
        lambda: genfun(PLAIN, (2, 1), top + 1),
        lambda: genfun(PLAIN, (), top + 1),
        lambda: domino_genfun(PLAIN, (2, 1, 1), top + 1),
        lambda: domino_genfun(PLAIN, (), top + 1),
        lambda: verify_identity(PLAIN, (2, 2), top + 1),
        lambda: verify_identity(PLAIN, (3,), 3000),  # not pavable: no SKIP either
    ):
        with pytest.raises(ValueError, match=f"at most {top} variables"):
            call()
    for argv in (
        ["genfun", "--family", "plain", "--shape", "[2,1]", "--vars", "3000", "--domino"],
        ["verify", "--family", "plain", "--shape", "[2,2]", "--vars", "33"],
        ["verify", "--family", "plain", "--max-size", "4", "--vars", "300"],
    ):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: at most {top} variables")


def test_fill_classes_are_cached_and_immutable():
    polyring._fill_classes.cache_clear()
    classes = polyring._fill_classes(SET_VALUED, 3, 4)
    assert polyring._fill_classes(SET_VALUED, 3, 4) is classes
    assert polyring._fill_classes.cache_info().hits == 1
    assert isinstance(classes, tuple)
    assert all(isinstance(c, tuple) and isinstance(c[1], tuple) for c in classes)
    assert [fill[0] for fill, _ in classes] == sorted(fill[0] for fill, _ in classes)
    # (2, 4) is its own class; (2, 4, 6) and (2, 6) share one, named by the first.
    terms = dict(classes)
    assert terms[(2, 4)] == ((1 | 1 << 4, -1),)
    assert sorted(terms[(2, 4, 6)]) == [(1 | 1 << 8, -1), (1 | 1 << 4 | 1 << 8, 1)]


def test_unpack_drops_zero_coefficients_without_checking():
    p = polyring._unpack(2, 3, {0: 0, 1: 5, 2 << 3: -1})
    assert p == P(2, ((1, 0), 5), ((0, 2), -1))
    assert p.terms == {(1, 0): 5, (0, 2): -1}
    assert polyring._unpack(2, 3, {}) == Polynomial.zero(2)
    with pytest.raises(ValueError):  # the public constructor still checks
        Polynomial(2, {(1,): 1})


def test_grlex_term_order():
    p = P(2, ((0, 2), 1), ((1, 0), 3), ((2, 0), 2), ((1, 1), 5))
    ms = [m for m, _ in p.sorted_terms()]
    assert ms == [(1, 0), (0, 2), (1, 1), (2, 0)]


def test_str_format():
    p = P(2, ((1, 2), 3), ((0, 0), -1))
    assert str(p) == "-1\n3 * x1^1 x2^2"


def homogeneous_monomials(n, degree):
    def rec(prefix, remaining, slots):
        if slots == 1:
            yield prefix + (remaining,)
            return
        for e in range(remaining + 1):
            yield from rec(prefix + (e,), remaining - e, slots - 1)

    yield from rec((), degree, n)


def complete_homogeneous(n, degree):
    return Polynomial(n, {m: 1 for m in homogeneous_monomials(n, degree)})


def elementary(n, degree):
    return Polynomial(
        n,
        {m: 1 for m in homogeneous_monomials(n, degree) if all(e <= 1 for e in m)},
    )


def q_series_coefficient(n, degree):
    """Coefficient of t^degree in prod_i (1+x_i t)/(1-x_i t), truncated.

    Independent of tableau enumeration: each factor expands to
    1 + 2*x_i*t + 2*x_i^2*t^2 + ..., and the factors are convolved.
    """
    series = [Polynomial.one(n)] + [Polynomial.zero(n)] * degree
    for i in range(n):
        factor = [Polynomial.one(n)] + [
            Polynomial(n, {tuple(k if j == i else 0 for j in range(n)): 2})
            for k in range(1, degree + 1)
        ]
        series = [
            sum(
                (series[a] * factor[d - a] for a in range(d + 1)),
                Polynomial.zero(n),
            )
            for d in range(degree + 1)
        ]
    return series[degree]


def test_one_row_schur_is_complete_homogeneous():
    for n in (2, 3):
        for m in range(1, 5):
            assert genfun(PLAIN, (m,), n) == complete_homogeneous(n, m)


def test_one_column_schur_is_elementary():
    for n in (2, 3, 4):
        for m in range(1, n + 1):
            assert genfun(PLAIN, (1,) * m, n) == elementary(n, m)


def test_one_row_qschur_matches_series_expansion():
    for n in (2, 3):
        for m in range(1, 5):
            assert genfun(SHIFTED, (m,), n) == q_series_coefficient(n, m), (n, m)


monomials = st.tuples(
    st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3)
)
polys = st.dictionaries(monomials, st.integers(min_value=-5, max_value=5), max_size=4).map(
    lambda terms: Polynomial(2, terms)
)


@given(polys, polys, polys)
@settings(max_examples=80, deadline=None)
def test_ring_axioms(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a


def test_pickles_and_copies_are_rebuilt_unchecked(monkeypatch):
    """A pickled or copied polynomial, alone or inside a sweep's reports, is
    rebuilt equal without ``Polynomial.__new__``: its terms were checked
    when it was made."""
    import copy
    import pickle

    from dominotab.verify import verify_sweep

    values = [genfun(SET_VALUED, (2, 1), 3), Polynomial.zero(2), verify_sweep(PLAIN, 6, 3)]
    pickled = pickle.dumps(values)
    calls = []
    real = Polynomial.__new__

    def counted(cls, *args):
        calls.append(args)
        return real(cls, *args)

    monkeypatch.setattr(Polynomial, "__new__", staticmethod(counted))
    for copied in (pickle.loads(pickled), copy.deepcopy(values), list(map(copy.copy, values))):
        assert copied == values
    assert calls == []
