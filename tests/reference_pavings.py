"""Oracles for ``pavings``: the owner-grid shifted-paving test, kept as the
oracle of ``pavings.is_shifted_paving``, which reads the same condition as a
chain of vertical dominoes on D_0, and the tiling automaton as it was built
over a cell set, kept as the oracle of ``pavings._tiling_automaton``."""

from __future__ import annotations

from dominotab.partitions import Cell, Shape, cells, check_cells, is_staircase_admissible
from dominotab.pavings import MAX_AUTOMATON_STATES, Domino, Node, Paving, _least_tiling, domino
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


def _tiling_automaton(shape: Shape, shifted: bool, top_rank: float) -> Node | None:
    """The tilings of ``shape`` whose every domino has a non-empty rank
    window under the top rank ``top_rank``, as the paths of a memoised
    automaton, or None if there is none.

    Every domino covers one even-content cell, its crossing cell, so a
    tiling picks for each even cell, in diagonal reading order (by content,
    then northwest first), the odd neighbour that shares its domino.  A node
    is (even-cell index, the covered odd cells that a later even cell can
    still reach); only the edges that lead to a complete tiling are kept.

    Shifted tilings pick partners for the even cells of content >= 0 only,
    which gives the up region of a shifted paving: a vertical domino whose
    top cell is on D_0, past column 1, needs its left cell covered by an up
    domino.  The cells of content -1 that the up region covers stay in the
    node to the end, where the rest of the shape gets its least tiling
    (``_least_tiling``), the down dominoes of the complete node.  The shape
    test of ``is_shifted_paving`` is left to the caller.

    An edge's rank window bounds the minimum of a fill on its domino, when
    the fills' minima are at most ``top_rank``.  In the unshifted families
    the minima rise strictly down a column, but within one vertical domino
    (in the set-valued family the minima form a plain domino tableau), so
    k cells of a column hold at least ceil(k/2) distinct minima, paired at
    best by vertical dominoes.  So a domino whose top-left cell is in row r,
    with k cells below it in its column, has the window (2 + 2 (r // 2),
    top_rank - 2 ceil(k/2)): the r - 1 cells above it hold ceil((r - 1)/2)
    smaller minima, so its own is at least letter 1 + ceil((r - 1)/2), and
    the cells below it ceil(k/2) larger ones, two ranks apart.  A shifted
    edge has the window (0, top_rank), since a primed letter may repeat
    down a column.  A domino with an empty window covers its odd cell on no
    path: an odd cell left with no domino makes every path through it
    dead, and ``enumerate_pavings`` passes ``top_rank`` INF, which empties
    no window.

    A shape of more than MAX_CELLS cells, or an automaton of more than
    MAX_AUTOMATON_STATES states, raises ValueError.
    """
    check_cells(shape)
    cell_set = set(cells(shape))
    least = 0 if shifted else 1 - len(shape)  # the least even content searched
    evens = sorted((c - r, r, c) for r, c in cell_set if c - r >= least and (c - r) % 2 == 0)
    odds = sorted((r, c) for r, c in cell_set if c - r >= least - 1 and (c - r) % 2)
    bits = {cell: 1 << k for k, cell in enumerate(odds)}
    heights = [sum(1 for part in shape if part >= c) for c in range(1, max(shape, default=0) + 1)]
    n = len(evens)
    # The index of the last even cell that can cover each odd cell; shifted
    # cells of content -1 may stay in the down region and are kept to the end.
    last = dict.fromkeys(odds, n)
    choices = []  # per even cell: (domino, odd cell bit, bit it needs, rank window)
    for i, (d, r, c) in enumerate(evens):
        options = []
        for odd, top_left, horiz in (
            ((r, c - 1), (r, c - 1), True),
            ((r - 1, c), (r - 1, c), False),
            ((r, c + 1), (r, c), True),
            ((r + 1, c), (r, c), False),
        ):
            if odd not in cell_set:
                continue
            if not shifted or odd[1] > odd[0]:
                last[odd] = i
            below = heights[top_left[1] - 1] - max(r, odd[0])
            floor = 2 + 2 * (top_left[0] // 2)
            window = (0, top_rank) if shifted else (floor, top_rank - 2 * ((below + 1) // 2))
            if window[0] > window[1]:
                continue
            # A vertical domino with its top cell on D_0 needs an up domino
            # on its left cell, unless it is in column 1: the chain rule of
            # ``is_shifted_paving``.
            top_on_d0 = shifted and d == 0 and odd == (r + 1, c) and c > 1
            need = bits[(r, c - 1)] if top_on_d0 else 0
            options.append((domino(*top_left, horiz), bits[odd], need, window))
        choices.append(options)
    by_last = [0] * (n + 1)  # the odd cells whose last chance is each step, due after it
    for cell, i in last.items():
        by_last[i] |= bits[cell]
    keep = by_last[:]  # the odd cells a node at each step remembers
    for j in range(n - 1, -1, -1):
        keep[j] |= keep[j + 1]

    # A depth-first build with an explicit stack: a state is popped once to
    # list its moves, below the unbuilt children it pushes, and once more to
    # build its node from theirs.  memo[i] maps the masks at step i to nodes.
    memo: list[dict[int, Node | None]] = [{} for _ in range(n + 1)]
    stack: list[tuple[int, int, list | None]] = [(0, 0, None)]
    states = 0
    while stack:
        i, mask, out = stack.pop()
        built = memo[i]
        if out is not None:
            below = memo[i + 1]
            edges = tuple(
                [(dom, window, node) for dom, window, child in out if (node := below[child])]
            )
            built[mask] = (edges, ()) if edges else None
            continue
        if mask in built:
            continue
        states += 1  # a state is listed once: a second copy finds it built
        if states > MAX_AUTOMATON_STATES:
            raise ValueError(
                f"the tilings of {shape} need more than {MAX_AUTOMATON_STATES} automaton states"
            )
        if i == n:
            built[mask] = (None, ())
            if shifted:
                down = _least_tiling(
                    cell for cell in cell_set if cell[1] < cell[0] and not mask & bits.get(cell, 0)
                )
                built[mask] = None if down is None else (None, down)
        else:
            out = []
            stack.append((i, mask, out))
            below, due_i, keep_next = memo[i + 1], by_last[i], keep[i + 1]
            for dom, bit, need, window in choices[i]:
                if mask & bit or mask & need != need:
                    continue
                covered = mask | bit
                if covered & due_i == due_i:
                    child = covered & keep_next
                    out.append((dom, window, child))
                    if child not in below:
                        stack.append((i + 1, child, None))
    return memo[0][0]
