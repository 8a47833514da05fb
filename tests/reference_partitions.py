"""The partition test that copied its input and made two passes over it,
kept as the oracle of the one-pass ``partitions.is_partition``, and the
recursive ``partitions_of``, the oracle of the iterative one."""

from __future__ import annotations

from typing import Iterator, Sequence


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
