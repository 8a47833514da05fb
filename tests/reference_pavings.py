"""The owner-grid shifted-paving test, kept as the oracle of
``pavings.is_shifted_paving``, which reads the same condition as a chain
of vertical dominoes on D_0."""

from __future__ import annotations

from dominotab.partitions import Cell, is_staircase_admissible
from dominotab.pavings import Domino, Paving
from reference_partitions import two_quotient


def is_shifted_paving(paving: Paving) -> bool:
    """Check the two shifted-paving conditions.

    The shape must be shifted pavable, and no vertical domino on D_0 may
    have all of its left-adjacent dominoes strictly below D_0.  A vertical
    on D_0 in column 1 has no left neighbours and is never forbidden.  A
    paving proves its shape pavable, so of ``is_shifted_pavable`` only the
    test of the 2-quotient's components is left.
    """
    if not all(map(is_staircase_admissible, two_quotient(paving.shape))):
        return False
    owner: dict[Cell, Domino] = {}
    for d in paving.dominoes:
        for cell in d.cells():
            owner[cell] = d
    for d in paving.dominoes:
        if d.horiz or d.crossing() != 0:
            continue
        if d.col == 1:
            continue
        left = {owner[(d.row, d.col - 1)], owner[(d.row + 1, d.col - 1)]}
        if all(nb.crossing() < 0 for nb in left):
            return False
    return True
