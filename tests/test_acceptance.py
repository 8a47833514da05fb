"""Acceptance suite: every criterion runs at its stated size and time budget
and prints one PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s``
to watch them)."""

import time

import pytest

from conftest import homogeneous_component, tb, up_cell_count
from dominotab.bijections import gamma_merge, gamma_split
from dominotab.domino_tableaux import (
    enumerate_domino_tableaux,
    up_fingerprint,
)
from dominotab.partitions import (
    is_pavable,
    partitions_up_to,
    two_quotient,
)
from dominotab.pavings import is_shifted_pavable
from dominotab.polyring import genfun
from dominotab.tableaux import (
    PLAIN,
    SET_VALUED,
    SHIFTED,
    SHIFTED_SET_VALUED,
    enumerate_tableaux,
    reading_word,
    tableau_from_reading_word,
    weight,
)
from dominotab.verify import verify_identity, verify_sweep


class Criterion:
    def __init__(self, label, budget_s):
        self.label = label
        self.budget_s = budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb_):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None and elapsed <= self.budget_s else "FAIL"
        print(f"{status} {self.label} ({elapsed:.3f}s of {self.budget_s:g}s budget)")
        if exc_type is None:
            assert elapsed <= self.budget_s, f"{self.label}: {elapsed:.3f}s over budget"
        return False


def fastest_of(runs, label, budget_s, body):
    """Run ``body`` ``runs`` times, each run asserting its results, and hold
    the fastest run to the budget.  The work these criteria time takes a
    millisecond or less, so one stall of the host must not fail them."""
    elapsed = []
    for k in range(runs):
        t0 = time.perf_counter()
        try:
            body()
        except BaseException:
            print(f"FAIL {label} (run {k + 1} of {runs} raised)")
            raise
        elapsed.append(time.perf_counter() - t0)
    best = min(elapsed)
    status = "PASS" if best <= budget_s else "FAIL"
    print(f"{status} {label} (fastest of {runs}: {best:.4f}s of {budget_s:g}s budget)")
    assert best <= budget_s, f"{label}: {best:.4f}s over budget"


def test_criterion_1_quotient_regressions():
    two_quotient((2,))  # warm the code path before timing

    def regressions():
        assert two_quotient((4, 2, 2, 1, 1, 1)) == ((2, 1), (1,))
        assert two_quotient((6, 4, 4, 2, 1, 1)) == ((2, 1, 1), (3, 2))
        assert two_quotient((6, 5, 5, 4)) == ((2, 2), (3, 3))

    fastest_of(5, "criterion 1: 2-quotient regressions", 0.001, regressions)


def test_criterion_2_bijection_fixtures(
    plain_bijection_case,
    set_valued_bijection_case,
    shifted_bijection_case,
    shifted_set_valued_bijection_case,
):
    cases = [
        (PLAIN, plain_bijection_case, False),
        (SET_VALUED, set_valued_bijection_case, False),
        (SHIFTED, shifted_bijection_case, True),
        (SHIFTED_SET_VALUED, shifted_set_valued_bijection_case, True),
    ]
    for family, (T, t1, t2), up_to_equiv in cases:
        gamma_split(T)  # warm up before the timed runs

        def fixture(family=family, T=T, t1=t1, t2=t2, up_to_equiv=up_to_equiv):
            assert gamma_split(T) == (t1, t2)
            merged = gamma_merge(family, t1, t2)
            if up_to_equiv:
                assert up_fingerprint(merged) == up_fingerprint(T)
            else:
                assert merged == T

        fastest_of(5, f"criterion 2: bijection fixture ({family.name})", 0.010, fixture)


def _roundtrip_sweep(family, max_size, max_letter):
    count = 0
    for lam in partitions_up_to(max_size):
        if not lam or not is_pavable(lam):
            continue
        if family.shifted and not is_shifted_pavable(lam):
            continue
        for T in enumerate_domino_tableaux(family, lam, max_letter):
            t1, t2 = gamma_split(T)
            assert gamma_merge(family, t1, t2) == T, lam
            count += 1
    return count


def test_criterion_3_roundtrip_sweeps():
    with Criterion("criterion 3: bijection roundtrip sweeps", 300):
        n = _roundtrip_sweep(PLAIN, 12, 3)
        n += _roundtrip_sweep(SET_VALUED, 8, 3)
        n += _roundtrip_sweep(SHIFTED, 12, 2)
        n += _roundtrip_sweep(SHIFTED_SET_VALUED, 12, 2)
        assert n > 30000


def test_criterion_4_schur_products():
    with Criterion("criterion 4: Schur product sweep (size 10, n=3)", 120):
        reports = verify_sweep(PLAIN, 10, 3)
        assert all(r.status != "FAIL" for r in reports)
        assert sum(r.passed for r in reports) == 74


def test_criterion_5_grothendieck_products():
    with Criterion("criterion 5: Grothendieck product sweep (size 8, n=2)", 300):
        reports = verify_sweep(SET_VALUED, 8, 2)
        assert all(r.status != "FAIL" for r in reports)
        assert sum(r.passed for r in reports) == 38
        # The named spot shape (4,2,2,1,1,1) has odd size, hence no pavings;
        # precondition failures report as SKIP.  The pavable partition with
        # the same 2-quotient ((2,1),(1)) is (3,3,1,1), which must pass.
        spot = verify_identity(SET_VALUED, (4, 2, 2, 1, 1, 1), 2)
        assert spot.status == "SKIP"
        fixed = verify_identity(SET_VALUED, (3, 3, 1, 1), 2)
        assert fixed.passed and (fixed.mu, fixed.nu) == ((2, 1), (1,))


def test_criterion_6_qschur_products():
    with Criterion("criterion 6: Q-Schur product sweep (size 12, n=2)", 120):
        reports = verify_sweep(SHIFTED, 12, 2)
        assert all(r.status != "FAIL" for r in reports)
        assert sum(r.passed for r in reports) == 42
        big = verify_identity(SHIFTED, (6, 5, 5, 4), 2)
        assert big.passed and (big.mu, big.nu) == ((2, 2), (3, 3))


def test_criterion_7_gq_products():
    with Criterion("criterion 7: GQ product sweep (size 10, n=2)", 600):
        spot = verify_identity(SHIFTED_SET_VALUED, (6, 5, 5, 4), 2)
        assert spot.passed
        reports = verify_sweep(SHIFTED_SET_VALUED, 10, 2)
        assert all(r.status != "FAIL" for r in reports)
        assert sum(r.passed for r in reports) == 27


def test_criterion_8_coefficient_regressions(ssyt_t1):
    with Criterion("criterion 8: coefficient regressions", 60):
        g = genfun(SET_VALUED, (2, 1), 3)
        assert (
            g.coeff((2, 1, 0)),
            g.coeff((1, 1, 1)),
            g.coeff((2, 2, 0)),
            g.coeff((2, 1, 1)),
        ) == (1, 2, -1, -3)
        q = genfun(SHIFTED, (3, 3, 3), 3)
        assert q.coeff((3, 2, 1)) == 8
        gq = genfun(SHIFTED_SET_VALUED, (2, 2), 2)
        assert gq.coeff((2, 1)) == 4 and gq.coeff((3, 1)) == -2
        assert weight(ssyt_t1, 7) == (3, 0, 3, 2, 2, 0, 1)
        shifted = tb(
            SHIFTED,
            (4, 3, 3),
            [["2", "3'", "3", "3"], ["X", "3'", "4"], ["X", "X", "6"]],
        )
        assert weight(shifted, 6) == (0, 1, 4, 1, 0, 1)


def test_criterion_9_property_suites():
    with Criterion("criterion 9: property suites", 300):
        # Symmetry of every computed generating function.
        for family in (PLAIN, SET_VALUED):
            for lam in partitions_up_to(5):
                assert genfun(family, lam, 3).is_symmetric()
        for family in (SHIFTED, SHIFTED_SET_VALUED):
            for lam in partitions_up_to(6):
                if lam and lam[-1] < len(lam):
                    continue
                assert genfun(family, lam, 2).is_symmetric()

        # Lowest-degree truncations.
        for lam in partitions_up_to(6):
            g = genfun(SET_VALUED, lam, 3)
            assert homogeneous_component(g, sum(lam)) == genfun(PLAIN, lam, 3)
        for lam in partitions_up_to(9):
            if lam and lam[-1] < len(lam):
                continue
            if up_cell_count(lam) > 6:
                continue
            gq = genfun(SHIFTED_SET_VALUED, lam, 3)
            assert homogeneous_component(gq, up_cell_count(lam)) == genfun(
                SHIFTED, lam, 3
            )

        # Reading-word roundtrips, exhaustive on small shapes.
        for family in (PLAIN, SET_VALUED, SHIFTED, SHIFTED_SET_VALUED):
            letters = 3 if not family.set_valued else 2
            for lam in partitions_up_to(6):
                if family.shifted and lam and lam[-1] < len(lam):
                    continue
                for t in enumerate_tableaux(family, lam, letters):
                    assert tableau_from_reading_word(family, reading_word(t)) == t

        # Pavability: arithmetic rule versus exhaustive tiling search.
        from test_partitions import exhaustive_pavable

        for lam in partitions_up_to(14):
            assert is_pavable(lam) == exhaustive_pavable(lam)
