import random

import pytest
from hypothesis import given, strategies as st

from conftest import up_cell_count
from dominotab.partitions import (
    beta_vector,
    check_partition,
    diagonal_cells,
    inverse_two_quotient,
    is_partition,
    is_pavable,
    partitions_of,
    partitions_up_to,
    two_quotient,
)
from dominotab.verify import MAX_SWEEP_SIZE
from reference_partitions import is_partition as reference_is_partition
from reference_partitions import partitions_of as reference_partitions_of


def exhaustive_pavable(shape):
    """Independent oracle: does any domino tiling exist?  Pure backtracking."""
    cells = [(r, c) for r, length in enumerate(shape, 1) for c in range(1, length + 1)]
    cellset = set(cells)
    used = set()

    def rec(i):
        while i < len(cells) and cells[i] in used:
            i += 1
        if i == len(cells):
            return True
        r, c = cells[i]
        for other in ((r, c + 1), (r + 1, c)):
            if other in cellset and other not in used:
                used.update({(r, c), other})
                if rec(i + 1):
                    return True
                used.difference_update({(r, c), other})
        return False

    return rec(0)


def test_is_partition():
    assert is_partition((2, 1, 1))
    assert is_partition(())
    assert not is_partition((1, 2))
    assert not is_partition((2, 0))
    assert not is_partition((2, -1))


class Part(int):
    """An int subclass: a partition may hold one."""


def _partition_pool():
    """Sequences for the partition test: valid partitions, and each kind
    of entry or order it must reject, alone and mixed with valid runs."""
    rng = random.Random("is_partition")
    odd = [0, -1, -7, True, False, 1.0, 2.5, float("inf"), "1", "a", None, (1,), Part(3), Part(0)]
    yield ()
    for lam in partitions_up_to(8):
        yield lam
    yield tuple(range(400, 0, -1))  # a long strict run
    yield (5,) * 300 + (1,) * 300  # long runs of equal parts
    yield tuple(range(1, 40))  # an increasing run
    yield (1, 2)
    yield (3, 3, 4)
    yield (2**70, 2**70, 1)
    for _ in range(3000):
        length = rng.randrange(0, 8)
        parts = sorted((rng.randrange(1, 6) for _ in range(length)), reverse=True)
        for _ in range(rng.randrange(0, 3)):
            spot = rng.randrange(0, len(parts) + 1)
            parts.insert(spot, rng.choice(odd + [rng.randrange(1, 6)]))
        if parts and rng.random() < 0.2:
            rng.shuffle(parts)
        yield tuple(parts)


def test_is_partition_matches_reference_on_pool():
    """The one-pass test accepts and rejects exactly what the two-pass
    copy did, on tuples, lists and one-shot iterators alike."""
    accepted = rejected = 0
    for parts in _partition_pool():
        expected = reference_is_partition(parts)
        assert is_partition(parts) == expected, parts
        assert is_partition(list(parts)) == expected, parts
        assert is_partition(iter(parts)) == expected, parts
        accepted += expected
        rejected += not expected
    assert accepted > 300 and rejected > 1000


@pytest.mark.parametrize(
    "lam,expected",
    [
        ((4, 2, 2, 1, 1, 1), ((2, 1), (1,))),
        ((6, 4, 4, 2, 1, 1), ((2, 1, 1), (3, 2))),
        ((6, 5, 5, 4), ((2, 2), (3, 3))),
        ((5, 5, 4, 3, 3, 2), ((3, 1, 1), (2, 2, 2))),
        ((), ((), ())),
    ],
)
def test_two_quotient_fixtures(lam, expected):
    assert two_quotient(lam) == expected


def test_two_quotient_odd_part_count():
    # With an odd number of parts the evens-derived component counts type-2
    # dominoes, so it lands in the second slot.
    assert two_quotient((2,)) == ((), (1,))
    assert two_quotient((1, 1)) == ((1,), ())
    assert two_quotient((2, 2, 2)) == ((1,), (1, 1))


@pytest.mark.parametrize(
    "lam,expected",
    [((2, 2, 2), True), ((5, 3, 3, 2, 1), False), ((), True), ((5, 5, 5), False)],
)
def test_is_pavable_fixtures(lam, expected):
    assert is_pavable(lam) is expected


def test_pavable_matches_exhaustive_oracle():
    for lam in partitions_up_to(14):
        assert is_pavable(lam) == exhaustive_pavable(lam), lam


def test_pavable_matches_the_quotient_rule_up_to_size_26():
    """``is_pavable`` against the quotient's statement of the 2-core: a
    shape is pavable iff its 2-quotient holds all of its cells, on every
    partition up to size 26."""
    count = 0
    for lam in partitions_up_to(26):
        q1, q2 = two_quotient(lam)
        assert is_pavable(lam) == (sum(lam) == 2 * (sum(q1) + sum(q2))), lam
        count += 1
    assert count == 11_732


def test_is_pavable_rejects_a_non_partition():
    with pytest.raises(ValueError, match="not a partition"):
        is_pavable((1, 2))


def test_quotient_size_identity():
    for lam in partitions_up_to(14):
        q1, q2 = two_quotient(lam)
        if is_pavable(lam):
            assert sum(lam) == 2 * (sum(q1) + sum(q2))


def test_beta_vector_strictly_decreasing():
    for lam in partitions_up_to(10):
        beta = beta_vector(lam)
        assert all(beta[i] > beta[i + 1] for i in range(len(beta) - 1))


def test_inverse_quotient_fixtures():
    # The procedure's own example partition (4,2,2,1,1,1) has odd size and is
    # not pavable; the pavable partition with 2-quotient ((2,1),(1)) is
    # (3,3,1,1).
    assert inverse_two_quotient((2, 1), (1,)) == (3, 3, 1, 1)
    assert two_quotient((3, 3, 1, 1)) == ((2, 1), (1,))
    assert inverse_two_quotient((), ()) == ()
    assert inverse_two_quotient((2, 1, 1), (3, 2)) == (6, 4, 4, 2, 1, 1)


def test_quotient_roundtrip_up_to_16():
    for lam in partitions_up_to(16):
        if is_pavable(lam):
            assert inverse_two_quotient(*two_quotient(lam)) == lam


def test_quotient_surjects_on_pairs():
    small = list(partitions_up_to(4))
    for q1 in small:
        for q2 in small:
            if sum(q1) + sum(q2) > 6:
                continue
            lam = inverse_two_quotient(q1, q2)
            assert is_pavable(lam)
            assert two_quotient(lam) == (q1, q2)


def test_diagonal_cells():
    assert diagonal_cells((5, 3, 3), 0) == [(1, 1), (2, 2), (3, 3)]
    assert diagonal_cells((5, 3, 3), -2) == [(3, 1)]
    assert diagonal_cells((5, 3, 3), 4) == [(1, 5)]
    assert diagonal_cells((), 0) == []


def test_up_cell_count():
    assert up_cell_count((2, 2)) == 3
    assert up_cell_count(()) == 0
    assert up_cell_count((3, 3, 3)) == 6


def test_partitions_of_order_and_count():
    four = list(partitions_of(4))
    assert four == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert len(list(partitions_of(10))) == 42


def test_partitions_of_matches_recursive_reference():
    for n in range(MAX_SWEEP_SIZE + 1):
        assert list(partitions_of(n)) == list(reference_partitions_of(n)), n


def test_check_partition_rejects():
    with pytest.raises(ValueError):
        check_partition((1, 2))


@given(st.lists(st.integers(min_value=1, max_value=9), max_size=6))
def test_sorted_lists_are_partitions(parts):
    lam = tuple(sorted(parts, reverse=True))
    assert is_partition(lam)
    beta = beta_vector(lam)
    assert all(beta[i] > beta[i + 1] for i in range(len(beta) - 1))


@given(st.lists(st.integers(min_value=1, max_value=9), max_size=6))
def test_pavable_iff_quotient_accounts_for_size(parts):
    lam = tuple(sorted(parts, reverse=True))
    q1, q2 = two_quotient(lam)
    assert is_pavable(lam) == (sum(lam) == 2 * (sum(q1) + sum(q2)))
