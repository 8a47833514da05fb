import pytest

from dominotab import verify
from dominotab.polyring import Polynomial
from dominotab.tableaux import PLAIN, SET_VALUED, SHIFTED, SHIFTED_SET_VALUED
from dominotab.verify import verify_identity, verify_sweep


def test_identity_plain_instance():
    report = verify_identity(PLAIN, (2, 2), 3)
    assert report.status == "PASS"
    assert report.mu == (1,) and report.nu == (1,)
    assert report.lhs == report.rhs
    assert report.first_diff is None
    assert report.lhs.is_symmetric()


def test_identity_empty_shape():
    report = verify_identity(PLAIN, (), 3)
    assert report.status == "PASS"
    assert report.lhs.coeff((0, 0, 0)) == 1 and len(report.lhs.terms) == 1


def test_identity_skips_unpavable():
    report = verify_identity(SET_VALUED, (4, 2, 2, 1, 1, 1), 2)
    assert report.status == "SKIP"
    assert report.lhs is None and report.rhs is None
    report = verify_identity(SHIFTED, (5, 5, 4, 3, 3, 2), 2)
    assert report.status == "SKIP"


def test_identity_set_valued_quotient_pair():
    # The pavable partition whose 2-quotient is ((2,1),(1)).
    report = verify_identity(SET_VALUED, (3, 3, 1, 1), 2)
    assert report.status == "PASS"
    assert (report.mu, report.nu) == ((2, 1), (1,))


def test_sweep_orders_and_skips():
    reports = verify_sweep(PLAIN, 4, 2)
    shapes = [r.lam for r in reports]
    assert shapes[0] == ()
    assert shapes == sorted(shapes, key=lambda s: (sum(s), [-p for p in s]))
    by_shape = {r.lam: r.status for r in reports}
    assert by_shape[(3,)] == "SKIP"
    assert by_shape[(2,)] == "PASS"
    assert by_shape[(2, 2)] == "PASS"
    assert all(r.status != "FAIL" for r in reports)


def test_sweep_zero_size():
    reports = verify_sweep(SHIFTED, 0, 2)
    assert len(reports) == 1 and reports[0].lam == () and reports[0].passed


def test_sweep_rejects_a_size_above_the_limit(monkeypatch):
    def no_listing(max_size):
        pytest.fail("the shapes were listed")

    monkeypatch.setattr(verify, "partitions_up_to", no_listing)
    for max_size in (verify.MAX_SWEEP_SIZE + 1, 100_000):
        with pytest.raises(ValueError, match=f"at most {verify.MAX_SWEEP_SIZE}"):
            verify_sweep(PLAIN, max_size, 2)


def test_sweep_parallel_matches_serial():
    serial = verify_sweep(PLAIN, 6, 2)
    parallel = verify_sweep(PLAIN, 6, 2, jobs=2)
    assert [(r.lam, r.status) for r in serial] == [(r.lam, r.status) for r in parallel]


def test_report_line_format():
    report = verify_identity(PLAIN, (2, 2), 2)
    line = report.line()
    assert line.startswith("PASS plain [2,2] n=2")
    assert "ms" in line


def test_shifted_families_small_sweeps():
    for family in (SHIFTED, SHIFTED_SET_VALUED):
        for r in verify_sweep(family, 6, 2):
            assert r.status != "FAIL"


def test_asymmetric_side_fails_without_raising(monkeypatch):
    x1 = Polynomial(2, {(1, 0): 1})
    monkeypatch.setattr(verify, "domino_genfun", lambda family, lam, n: x1)
    report = verify_identity(PLAIN, (2, 2), 2)
    assert report.status == "FAIL" and report.first_diff is not None
    # Both sides equal, but neither symmetric.
    monkeypatch.setattr(verify, "genfun", lambda family, shape, n: x1)
    monkeypatch.setattr(verify, "domino_genfun", lambda family, lam, n: x1 * x1)
    report = verify_identity(PLAIN, (2, 2), 2)
    assert report.status == "FAIL" and report.first_diff is None
    assert report.line().endswith("not symmetric")
