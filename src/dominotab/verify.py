"""Identity verification: products of flat generating functions against
signed sums over domino tableaux, shape by shape."""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

from .partitions import Shape, check_partition, is_pavable, partitions_up_to, two_quotient
from .pavings import is_shifted_pavable
from .polyring import Monomial, Polynomial, domino_genfun, genfun, grlex_key
from .tableaux import Family

MAX_JOBS = 64  # the process pool forks all its workers at the first submit


@dataclass(frozen=True)
class VerificationReport:
    family: Family
    lam: Shape
    mu: Optional[Shape]
    nu: Optional[Shape]
    n: int
    lhs: Optional[Polynomial]
    rhs: Optional[Polynomial]
    status: str  # PASS | FAIL | SKIP
    first_diff: Optional[tuple[Monomial, int, int]]
    elapsed_us: int

    @property
    def passed(self) -> bool:
        return self.status == "PASS"

    def line(self) -> str:
        shape = "[" + ",".join(map(str, self.lam)) + "]"
        base = f"{self.status} {self.family.name} {shape} n={self.n} ({self.elapsed_us / 1000:.1f} ms)"
        if self.status == "FAIL" and self.first_diff:
            m, lc, rc = self.first_diff
            base += f" first_diff exps={list(m)} lhs={lc} rhs={rc}"
        elif self.status == "FAIL":
            base += " not symmetric"
        return base


def _first_diff(lhs: Polynomial, rhs: Polynomial) -> Optional[tuple[Monomial, int, int]]:
    if lhs.terms == rhs.terms:
        return None
    monomials = set(lhs.terms) | set(rhs.terms)
    for m in sorted(monomials, key=grlex_key):
        if lhs.coeff(m) != rhs.coeff(m):
            return (m, lhs.coeff(m), rhs.coeff(m))
    return None


def verify_identity(family: Family, lam: Shape, n: int) -> VerificationReport:
    """Compare genfun(mu) * genfun(nu) against the domino sum over lam.

    The status is FAIL when the two sides differ or are equal but not
    symmetric.
    Shapes the identity does not cover (not pavable, or not shifted pavable
    for the shifted families) yield a SKIP report rather than an error.
    """
    lam = check_partition(lam)
    start = time.perf_counter()
    ok = is_pavable(lam) and (not family.shifted or is_shifted_pavable(lam))
    if not ok:
        elapsed = int((time.perf_counter() - start) * 1e6)
        return VerificationReport(
            family, lam, None, None, n, None, None, "SKIP", None, elapsed
        )
    mu, nu = two_quotient(lam)
    lhs = genfun(family, mu, n) * genfun(family, nu, n)
    rhs = domino_genfun(family, lam, n)
    diff = _first_diff(lhs, rhs)
    status = "PASS" if diff is None and lhs.is_symmetric() else "FAIL"
    elapsed = int((time.perf_counter() - start) * 1e6)
    return VerificationReport(family, lam, mu, nu, n, lhs, rhs, status, diff, elapsed)


def _verify_task(args: tuple[str, Shape, int]) -> VerificationReport:
    from .tableaux import FAMILIES

    name, lam, n = args
    return verify_identity(FAMILIES[name], lam, n)


def verify_sweep(
    family: Family, max_size: int, n: int, jobs: int = 1
) -> list[VerificationReport]:
    """Verify every shape of size up to max_size, in a fixed shape order.

    Non-pavable shapes are reported as SKIP so that ranges stay simple to
    specify.  With jobs > 1 the shapes are checked in parallel processes;
    the report order is identical either way.  More than MAX_JOBS jobs
    raise ValueError.
    """
    if jobs > MAX_JOBS:
        raise ValueError(f"jobs must be at most {MAX_JOBS}, got {jobs}")
    shapes = list(partitions_up_to(max_size))
    if jobs > 1:
        tasks = [(family.name, lam, n) for lam in shapes]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_verify_task, tasks))
    return [verify_identity(family, lam, n) for lam in shapes]
