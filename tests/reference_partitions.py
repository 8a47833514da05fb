"""Oracles of ``partitions``: the partition test that copied its input and
made two passes over it, kept for the one-pass ``is_partition``; the
recursive ``partitions_of``, for the iterative one; and the 2-quotient that
read k beta numbers and swapped its components when k was odd, with the
bead count and the inverse beside it, for the forms on the even 2-abacus."""

from __future__ import annotations

from typing import Iterator, Sequence

from dominotab.partitions import Shape, beta_vector, check_partition


def is_partition(parts: Sequence[int]) -> bool:
    """True iff the sequence is nonincreasing with all entries integers >= 1
    (booleans are not integers here)."""
    parts = list(parts)
    if any(not isinstance(p, int) or isinstance(p, bool) or p < 1 for p in parts):
        return False
    return all(parts[i] >= parts[i + 1] for i in range(len(parts) - 1))


def partitions_of(n: int) -> Iterator[tuple[int, ...]]:
    """All partitions of n in descending lexicographic order."""

    def rec(remaining: int, limit: int, prefix: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield prefix
            return
        for part in range(min(limit, remaining), 0, -1):
            yield from rec(remaining - part, part, prefix + (part,))

    yield from rec(n, n, ())


def two_quotient(shape: Shape) -> tuple[Shape, Shape]:
    """The 2-quotient (q1, q2) of a partition, ordered by domino type.

    Computed from the beta vector L with k = number of nonzero parts: the even
    entries of L, after subtracting the largest possible distinct even values
    0, 2, 4, ... assigned right to left and halving, give one component; the
    odd entries give the other the same way with 1, 3, 5, ...  The pair is
    returned so that in any domino paving of the shape the first component
    counts type-1 dominoes and the second type-2; concretely the evens-derived
    component comes first when k is even and second when k is odd (padding
    lambda with a zero part flips the parity of every beta number and hence
    swaps the two components, so a fixed intrinsic order needs this
    correction).
    """
    shape = check_partition(shape)
    k = len(shape)
    if k == 0:
        return ((), ())
    beta = beta_vector(shape)
    evens = [b for b in beta if b % 2 == 0]
    odds = [b for b in beta if b % 2 == 1]
    ne, no = len(evens), len(odds)
    from_evens = [(evens[j] - 2 * (ne - 1 - j)) // 2 for j in range(ne)]
    from_odds = [(odds[j] - 2 * (no - 1 - j) - 1) // 2 for j in range(no)]
    q_even = tuple(p for p in from_evens if p > 0)
    q_odd = tuple(p for p in from_odds if p > 0)
    if k % 2 == 1:
        return (q_odd, q_even)
    return (q_even, q_odd)


def is_pavable(shape: Shape) -> bool:
    """True iff the diagram can be tiled by dominoes, that is, iff its
    2-core is empty.

    Decided by counting beads on the 2-abacus (James-Kerber), without the
    2-quotient: padded with a zero part to an even number m of parts, the
    shape is pavable iff exactly m/2 of its beta numbers lambda_j + m-1-j
    (j from 0) are odd.  The padding part's beta number is 0, which is even.
    """
    shape = check_partition(shape)
    m = len(shape) + len(shape) % 2
    return 2 * sum((p + m - 1 - j) & 1 for j, p in enumerate(shape)) == m


def inverse_two_quotient(q1: Shape, q2: Shape) -> Shape:
    """The unique pavable partition whose 2-quotient is (q1, q2).

    With both components padded by zeros to m = max(len(q1), len(q2)) parts,
    q1 gives the even beta numbers 2(q1_j + m-1-j) and q2 the odd ones
    2(q2_j + m-1-j) + 1; sorting these 2m numbers in decreasing order and
    subtracting the staircase 2m-1, ..., 1, 0 gives the parts.  An even count
    of beta numbers keeps q1 first, matching the order of two_quotient.
    """
    q1, q2 = check_partition(q1), check_partition(q2)
    m = max(len(q1), len(q2))
    beta = sorted(
        [2 * (p + m - 1 - j) for j, p in enumerate(q1 + (0,) * (m - len(q1)))]
        + [2 * (p + m - 1 - j) + 1 for j, p in enumerate(q2 + (0,) * (m - len(q2)))],
        reverse=True,
    )
    return tuple(p for p in (b - (2 * m - 1 - i) for i, b in enumerate(beta)) if p)
