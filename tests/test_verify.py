import hashlib
import re

import pytest

from dominotab import verify
from dominotab.canonical import to_jsonable
from dominotab.cli import main
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


def test_identity_computes_the_quotient_once(monkeypatch):
    """Shifted pavability and the flat sides come from one 2-quotient a
    pavable shape, and a shape that is not pavable, which ``is_pavable``
    tells by counting beads, has no quotient computed.  The domino side,
    which tiles the shape on its own, is stubbed so that only the calls of
    the check itself are counted."""
    from dominotab import partitions, pavings

    cases = [  # (family, shape, status, quotients computed)
        (PLAIN, (2, 2), "PASS", 1),
        (SET_VALUED, (3, 3, 1, 1), "PASS", 1),
        (SHIFTED, (4, 3, 1), "PASS", 1),
        (SHIFTED_SET_VALUED, (4, 3, 1), "PASS", 1),
        (SET_VALUED, (4, 2, 2, 1, 1, 1), "SKIP", 0),  # not pavable
        (SHIFTED, (5, 5, 4, 3, 3, 2), "SKIP", 1),  # pavable, not shifted pavable
    ]
    sides = {(family, lam): verify_identity(family, lam, 2).rhs for family, lam, _, _ in cases}
    calls = []
    real = partitions.two_quotient

    def counted(shape):
        calls.append(shape)
        return real(shape)

    for module in (partitions, pavings, verify):
        monkeypatch.setattr(module, "two_quotient", counted)
    monkeypatch.setattr(verify, "domino_genfun", lambda family, lam, n: sides[family, lam])
    for family, lam, status, quotients in cases:
        calls.clear()
        report = verify_identity(family, lam, 2)
        assert calls == [lam] * quotients and report.status == status, (family, lam)
        if status == "SKIP":
            assert report.mu is None and report.nu is None


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


def test_sweep_rejects_a_negative_size_and_a_bad_variable_count(monkeypatch):
    from dominotab.polyring import MAX_VARIABLES

    def no_listing(max_size):
        pytest.fail("the shapes were listed")

    monkeypatch.setattr(verify, "partitions_up_to", no_listing)
    for max_size, n, message in [
        (-5, 2, "max size must be at least 0, got -5"),
        (-1, 99, "max size must be at least 0, got -1"),
        (4, MAX_VARIABLES + 1, f"at most {MAX_VARIABLES} variables are allowed"),
        (4, -1, "must not be negative, got -1"),
    ]:
        with pytest.raises(ValueError, match=message):
            verify_sweep(PLAIN, max_size, n)


def test_sweep_rejects_fewer_than_one_job(monkeypatch):
    def no_listing(max_size):
        pytest.fail("the shapes were listed")

    monkeypatch.setattr(verify, "partitions_up_to", no_listing)
    for jobs in (0, -1):
        with pytest.raises(ValueError, match=f"at least 1, got {jobs}"):
            verify_sweep(PLAIN, 4, 2, jobs=jobs)


def _records(reports):
    return [
        {k: v for k, v in to_jsonable(r).items() if k != "elapsed_us"} for r in reports
    ]


def test_sweep_parallel_matches_serial():
    # Plain up to size 10 is 139 shapes: several batches per worker.
    for family, max_size in ((PLAIN, 10), (SHIFTED_SET_VALUED, 8)):
        serial = _records(verify_sweep(family, max_size, 2))
        for jobs in (2, 3):
            assert _records(verify_sweep(family, max_size, 2, jobs=jobs)) == serial


def test_sweep_starts_no_more_workers_than_shapes(monkeypatch):
    import concurrent.futures

    real = concurrent.futures.ProcessPoolExecutor
    started = []

    def counting_pool(max_workers):
        started.append(max_workers)
        return real(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", counting_pool)
    reports = verify_sweep(PLAIN, 1, 2, jobs=8)
    assert [r.lam for r in reports] == [(), (1,)]
    assert len(started) == 1 and started[0] <= 2


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


# sha256 of ``verify --max-size 12 --format canonical`` with every
# ``elapsed_us`` field removed, SKIP lines included, as the code computed it
# before the flat sums were memoised and the quotient computed once a shape.
CANONICAL_SWEEP_SHA256 = {
    ("plain", 2): "c5e086dea73c65b4c7d92a3462ee28b162b84ed122de4a95263fcbd4e130dd62",
    ("plain", 3): "7ba3e2a92f63522f548053332ee25d2434f81122c6d7dacbc7658d827d9ce41b",
    ("set-valued", 2): "f2f723574dcdde1a581d700675affafcf4be6a35bedd1bf6efbedfef7393f046",
    ("set-valued", 3): "7a0f7a13562fcbb00c0d2f1e82b84cc39d5be985512623996f0425a0b876eb65",
    ("shifted", 2): "6fb7fa971a9fa53d56534ad209b3d37d37dff95b6e8465ca8ae0a534d1b7c38c",
    ("shifted", 3): "da4779e7ca251eefa22ac5c2cf7e250fab689e3eedc4774ef49ae1c2aa317ded",
    ("shifted-set-valued", 2): "d3a887502ed41803b3ebdd32f1652e007d40548ebc2bfc6e801e2d3ec63a362c",
    ("shifted-set-valued", 3): "e5a3d17c521081d28c0aac11f44a7e9f88b808770779fd383d1ad367c843e761",
}


@pytest.mark.parametrize("family,n", sorted(CANONICAL_SWEEP_SHA256))
def test_canonical_sweep_output_is_unchanged(capsys, family, n):
    argv = ["verify", "--family", family, "--max-size", "12", "--vars", str(n)]
    assert main(argv + ["--format", "canonical"]) == 0
    text = re.sub(r',"elapsed_us":\d+', "", capsys.readouterr().out)
    assert len(text.splitlines()) == 272 and '"SKIP"' in text
    assert hashlib.sha256(text.encode()).hexdigest() == CANONICAL_SWEEP_SHA256[family, n]
