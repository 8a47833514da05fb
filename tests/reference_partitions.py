"""The partition test that copied its input and made two passes over it,
kept as the oracle of the one-pass ``partitions.is_partition``."""

from __future__ import annotations

from typing import Sequence


def is_partition(parts: Sequence[int]) -> bool:
    """True iff the sequence is nonincreasing with all entries integers >= 1
    (booleans are not integers here)."""
    parts = list(parts)
    if any(not isinstance(p, int) or isinstance(p, bool) or p < 1 for p in parts):
        return False
    return all(parts[i] >= parts[i + 1] for i in range(len(parts) - 1))
