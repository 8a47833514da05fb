"""Identity verification: products of flat generating functions against
signed sums over domino tableaux, shape by shape."""

from __future__ import annotations

import time
from collections import namedtuple
from typing import Optional

from .partitions import (
    Shape,
    check_cells,
    check_partition,
    is_pavable,
    is_staircase_admissible,
    partitions_up_to,
    two_quotient,
)
from .polyring import Monomial, Polynomial, check_variables, domino_genfun, genfun, grlex_key
from .tableaux import Family

# The most worker processes a sweep may start.  The pool forks all its
# workers at the first submit, so a sweep starts no more than it has batches.
MAX_JOBS = 64
# The largest size a sweep may reach: it lists every partition up to that
# size, 7,338 of them up to size 24.
MAX_SWEEP_SIZE = 24


class VerificationReport(
    namedtuple("VerificationReport", "family lam mu nu n lhs rhs status first_diff elapsed_us")
):
    """One shape's verdict, a tuple-backed value.  ``status`` is PASS, FAIL
    or SKIP; a SKIP has no quotient (``mu``, ``nu``), no sides (``lhs``,
    ``rhs``) and no ``first_diff``, the first differing monomial with its
    two coefficients."""

    __slots__ = ()

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
    Pavability is read by ``is_pavable``, which counts beads, and only a
    pavable lam has its 2-quotient (mu, nu) computed, once: lam is shifted
    pavable iff moreover mu and nu are staircase admissible, as in
    ``is_shifted_pavable``.  The flat sums come from the memo of ``genfun``;
    the domino sum is computed afresh, and its sum reads neither the
    quotient nor that memo.
    More than MAX_VARIABLES variables, or a shape of more than MAX_CELLS
    cells, raise ValueError before either side is computed.
    """
    lam = check_partition(lam)
    check_variables(n)
    check_cells(lam)
    start = time.perf_counter()
    ok = is_pavable(lam)
    if ok:
        mu, nu = two_quotient(lam)
        ok = not family.shifted or all(map(is_staircase_admissible, (mu, nu)))
    if not ok:
        elapsed = int((time.perf_counter() - start) * 1e6)
        return VerificationReport(
            family, lam, None, None, n, None, None, "SKIP", None, elapsed
        )
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
    specify.  With jobs > 1 the shapes go to a process pool, imported only
    then, in batches of about len(shapes) / (4 * jobs), so about four per
    worker.  The pool starts min(jobs, len(shapes)) workers, which never
    outnumber the batches.  The report order is identical either way.  Fewer
    than 1 or more than MAX_JOBS jobs, a negative max_size or one above
    MAX_SWEEP_SIZE, and a negative variable count or more than MAX_VARIABLES
    variables raise ValueError before any shape is listed.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if jobs > MAX_JOBS:
        raise ValueError(f"jobs must be at most {MAX_JOBS}, got {jobs}")
    if max_size < 0:
        raise ValueError(f"max size must be at least 0, got {max_size}")
    if max_size > MAX_SWEEP_SIZE:
        raise ValueError(f"max size must be at most {MAX_SWEEP_SIZE}, got {max_size}")
    check_variables(n)
    shapes = list(partitions_up_to(max_size))
    jobs = min(jobs, len(shapes))
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        tasks = [(family.name, lam, n) for lam in shapes]
        batch = -(-len(shapes) // (4 * jobs))
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_verify_task, tasks, chunksize=batch))
    return [verify_identity(family, lam, n) for lam in shapes]
