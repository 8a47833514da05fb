"""Partitions, Young-diagram geometry, and the 2-quotient.

Conventions used throughout the package:

* A partition is a tuple of positive integers in nonincreasing order; the
  empty tuple is the empty partition.
* Cells are 1-based pairs (row, col), row counted from the top.  The content
  of a cell is col - row; the diagonal D_k is the set of cells of content k.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence


Shape = tuple[int, ...]
Cell = tuple[int, int]

# The most pavings or tableaux that ``enumerate_pavings``,
# ``enumerate_tableaux`` or ``enumerate_domino_tableaux`` returns; a longer
# list raises ValueError.  The longest lists the tests and the README ask
# for hold about 50,000 tableaux.  Pavings, flat tableaux and domino
# tableaux are all counted before any is built: the 578,097 shifted
# set-valued domino tableaux of (6,5,5,4) over 3 letters raise after about
# 4 s, at 223 MB, and the 457,380 plain tableaux of (4,4,4) over 9
# letters at once.
MAX_LISTED = 200_000

# The most cells a shape may have where it is tiled, summed, listed or
# verified.  The tiling automaton's masks over a long row grow with the
# square of its length.  At the limit every command on the one-row shape
# with one letter or variable takes at most about 0.7 s and 41 MB, and the
# domino sum over (5000,5000) with n=2 takes 11 s and 47 MB; without it,
# listing the pavings of (200000) took 56 s and 4.1 GB, and the domino sum
# over (2000000) passed 7.7 GB.
MAX_CELLS = 10_000


def is_partition(parts: Sequence[int]) -> bool:
    """True iff the sequence is nonincreasing with all entries integers >= 1
    (booleans are not integers here), in one pass over it."""
    last = float("inf")
    for p in parts:
        if not isinstance(p, int) or isinstance(p, bool) or not 1 <= p <= last:
            return False
        last = p
    return True


def check_partition(parts: Iterable[int]) -> Shape:
    """Normalise to a tuple, raising ValueError if not a valid partition."""
    shape = tuple(parts)
    if not is_partition(shape):
        raise ValueError(f"not a partition: {shape!r}")
    return shape


def check_cells(shape: Shape) -> None:
    """Raise ValueError for a shape of more than MAX_CELLS cells."""
    total = sum(shape)
    if total > MAX_CELLS:
        raise ValueError(f"a shape may have at most {MAX_CELLS} cells, got {total}")


def size(shape: Shape) -> int:
    return sum(shape)


def cells(shape: Shape) -> Iterator[Cell]:
    """All cells of the diagram in row-major order."""
    for r, length in enumerate(shape, start=1):
        for c in range(1, length + 1):
            yield (r, c)


def contains_cell(shape: Shape, row: int, col: int) -> bool:
    return 1 <= row <= len(shape) and 1 <= col <= shape[row - 1]


def diagonal_range(shape: Shape) -> tuple[int, int]:
    """Inclusive (min, max) content over the diagram; (0, -1) when empty."""
    if not shape:
        return (0, -1)
    return (1 - len(shape), shape[0] - 1)


def diagonal_cells(shape: Shape, d: int) -> list[Cell]:
    """Cells on diagonal D_d, northwest to southeast.

    In a Young diagram these always form a contiguous run starting at row
    max(1, 1 - d).
    """
    out = []
    r = max(1, 1 - d)
    while contains_cell(shape, r, r + d):
        out.append((r, r + d))
        r += 1
    return out


def is_staircase_admissible(shape: Shape) -> bool:
    """True iff the last part is at least the number of parts (lambda_k >= k).

    This is the shape condition for the shifted tableau families; the empty
    shape qualifies.
    """
    return not shape or shape[-1] >= len(shape)


def beta_vector(shape: Shape) -> tuple[int, ...]:
    """First-column hook lengths l_i = lambda_i + k - i (strictly decreasing)."""
    k = len(shape)
    return tuple(shape[i] + k - (i + 1) for i in range(k))


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
    """True iff the diagram can be tiled by dominoes.

    Decided arithmetically: a partition is pavable iff its size equals twice
    the total size of its 2-quotient (equivalently, its 2-core is empty).
    """
    q1, q2 = two_quotient(shape)
    return size(shape) == 2 * (size(q1) + size(q2))


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


def partitions_of(n: int) -> Iterator[Shape]:
    """All partitions of n in descending lexicographic order."""
    parts = [n] if n else []
    while True:
        yield tuple(parts)
        # The next partition lowers the last part above 1 by one and lays
        # what it and the 1s after it held out again in parts of that size.
        ones = 0
        while parts and parts[-1] == 1:
            parts.pop()
            ones += 1
        if not parts:
            return
        part = parts.pop() - 1
        copies, rest = divmod(part + 1 + ones, part)
        parts += [part] * copies
        if rest:
            parts.append(rest)


def partitions_up_to(max_size: int) -> Iterator[Shape]:
    """All partitions of sizes 0..max_size, sizes ascending."""
    for n in range(max_size + 1):
        yield from partitions_of(n)
