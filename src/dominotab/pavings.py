"""Dominoes and domino pavings of Young diagrams.

A domino covers two cells of consecutive contents, exactly one of which is
even; that even content is the domino's crossing diagonal.  A domino is type 1
when the larger covered content is even (the crossing diagonal enters through
the cell nearer the northeast) and type 2 when the smaller one is.

Tilings are searched here only: ``_tiling_automaton`` holds a shape's tilings
as the paths of a memoised automaton, which ``enumerate_pavings`` counts
and lists layer by layer and ``domino_tableaux.tiling_walk`` walks.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from typing import Iterable

from .partitions import MAX_LISTED, Shape, Cell, cells, check_cells, check_partition
from .partitions import is_pavable, is_staircase_admissible, two_quotient


class Domino(namedtuple("Domino", "row col horiz")):
    """A 2x1 piece: top-left cell plus orientation.

    A tuple-backed value: it equals, hashes and sorts as the tuple
    (row, col, horiz), so by row, then column, then vertical before
    horizontal, all in C.  The package builds each one through ``domino``,
    which interns it, so a domino that many shapes hold is one object,
    built once.  A Domino built directly is equal, hashes and sorts equal
    to the interned one.  Fields and geometry cannot be assigned or deleted.
    """

    def __new__(cls, row: int, col: int, horiz: bool) -> Domino:
        self = super().__new__(cls, row, col, horiz)
        # Geometry is queried in hot loops; precompute it once.
        if horiz:
            cs = ((row, col), (row, col + 1))
        else:
            cs = ((row, col), (row + 1, col))
        contents = tuple(c - r for r, c in cs)
        object.__setattr__(self, "_cells", cs)
        object.__setattr__(self, "_contents", contents)
        even = 0 if contents[0] % 2 == 0 else 1
        object.__setattr__(self, "_crossing", contents[even])
        object.__setattr__(self, "_crossing_cell", cs[even])
        object.__setattr__(self, "_dtype", 1 if max(contents) % 2 == 0 else 2)
        return self

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    @classmethod
    def _make(cls, iterable: Iterable) -> Domino:
        # namedtuple's _make, and so _replace, would build the tuple alone,
        # without the geometry.
        return cls(*iterable)

    def cells(self) -> tuple[Cell, Cell]:
        return self._cells

    def contents(self) -> tuple[int, int]:
        return self._contents

    def crossing(self) -> int:
        """The unique even covered content."""
        return self._crossing

    def crossing_cell(self) -> Cell:
        return self._crossing_cell

    def dtype(self) -> int:
        return self._dtype


# The interning constructor of Domino: domino(row, col, horiz).  The cache is
# bounded; an evicted domino stays valid, and the next call builds it anew.
# Typed keys keep 1 and True apart: the tuples (1, 2, 1) and (1, 2, True) are
# equal, but each call gets back a domino holding the types it passed.
domino = lru_cache(maxsize=4096, typed=True)(Domino)


class Paving(namedtuple("Paving", "shape dominoes")):
    """A tiling of a Young diagram by disjoint dominoes, sorted.

    A tuple-backed value, as Domino is.  Every way of building one, ``_make``
    and ``_replace`` included, proves the tiling and sorts the dominoes.
    """

    __slots__ = ()

    def __new__(cls, shape: Shape, dominoes: tuple[Domino, ...]) -> Paving:
        # Sizes first, so that a huge shape never builds its cell set.
        covered = {cell for d in dominoes for cell in d.cells()}
        if 2 * len(dominoes) != sum(shape) or covered != set(cells(shape)):
            raise ValueError("dominoes do not tile the shape")
        return super().__new__(cls, shape, tuple(sorted(dominoes)))

    @classmethod
    def _make(cls, iterable: Iterable) -> Paving:
        # namedtuple's _make, and so _replace, would skip the check.
        return cls(*iterable)


def enumerate_pavings(shape: Shape) -> list[Paving]:
    """All domino pavings: the paths of the shape's tiling automaton.

    Every path takes one edge per even cell, so the nodes of a layer are
    all complete or none is.  The paths are counted layer by layer, each
    node with the number of paths that reach it, and then listed layer by
    layer.  They are sorted as a row-major backtracker finds them, covering
    the first free cell by a horizontal domino before a vertical one.  The
    list is empty iff the shape is not pavable.  A shape with more than
    MAX_LISTED pavings raises ValueError before any is listed.
    """
    shape = check_partition(shape)
    root = _tiling_automaton(shape, False)
    if root is None:
        return []
    layer = [[root, 1]]  # a layer's nodes, each with the number of paths to it
    while layer[0][0][0] is not None:
        nxt: dict[int, list] = {}  # by the child's id: [child, paths to it]
        for node, count in layer:
            for _, _, child in node[0]:
                nxt.setdefault(id(child), [child, 0])[1] += count
        layer = list(nxt.values())
    if sum(count for _, count in layer) > MAX_LISTED:
        raise ValueError(f"shape {shape} has more than {MAX_LISTED} pavings")
    paths = [(root, ())]
    while paths[0][0][0] is not None:
        paths = [(child, placed + (dom,)) for node, placed in paths for dom, _, child in node[0]]
    out = [Paving(shape, placed) for _, placed in paths]
    out.sort(key=lambda p: [(d.row, d.col, not d.horiz) for d in p.dominoes])
    return out


def is_shifted_paving(paving: Paving) -> bool:
    """Check the two shifted-paving conditions.

    The shape must be shifted pavable, and no vertical domino on D_0 may
    have all of its left-adjacent dominoes strictly below D_0.  A paving
    proves its shape pavable, so of ``is_shifted_pavable`` only the test of
    the 2-quotient's components is left.

    The second condition is a chain rule on the vertical dominoes whose top
    cell (r, r) lies on D_0: each one past row 1 needs the one whose top is
    (r-1, r-1).  Its left cells are (r, r-1), of content -1, and (r+1, r-1),
    of content -2.  The domino on (r+1, r-1) crosses D_-2, and the one on
    (r, r-1) crosses D_0 only if it covers a cell of content 0 too, which
    with (r, r) taken can only be (r-1, r-1), on a vertical domino.  A
    vertical domino whose bottom cell (r, r) lies on D_0 has its left cell
    (r-1, r-1) on D_0 too, so it is never forbidden.  ``_tiling_automaton``
    reads the same rule as its ``need`` bit.
    """
    if not all(map(is_staircase_admissible, two_quotient(paving.shape))):
        return False
    tops = {d.row for d in paving.dominoes if not d.horiz and d.row == d.col}
    return all(r - 1 in tops for r in tops if r > 1)


def is_shifted_pavable(shape: Shape) -> bool:
    """True iff the shape has a shifted paving: by the shifted bijection,
    iff it is pavable and both 2-quotient components are staircase
    admissible.  The quotient is computed only for a pavable shape."""
    return is_pavable(shape) and all(map(is_staircase_admissible, two_quotient(shape)))


# A node of the tiling automaton is (edges, down dominoes).  Its edges, each
# (domino, column depth, child node), are None once the tiling is complete;
# only a complete node of a shifted tiling has down dominoes.
Node = tuple
Edge = tuple[Domino, int, Node]

# The most states a tiling automaton may have.  The states grow
# exponentially with the length of a diagonal: the shifted 12 x 12 square
# needs about 1.5 million, while the one-row shape (3000) needs 1,501.
MAX_AUTOMATON_STATES = 500_000


def _tiling_automaton(shape: Shape, shifted: bool) -> Node | None:
    """The tilings of ``shape`` as the paths of a memoised automaton, or None
    if there is none.

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

    An edge's column depth is 2 ceil(k/2) for an unshifted domino with k
    cells below it in a column (it needs ceil(k/2) distinct dominoes there,
    each with a larger minimum two ranks up), and 0 for a shifted one.  Its
    mirror, the column floor from the cells above the domino, is no field
    of the edge: ``domino_tableaux.tiling_walk`` reads it off the domino's
    row.

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
    choices = []  # per even cell: (domino, odd cell bit, bit it needs, depth)
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
            dom = domino(*top_left, horiz)
            if not shifted or odd[1] > odd[0]:
                last[odd] = i
            # A vertical domino with its top cell on D_0 needs an up domino
            # on its left cell, unless it is in column 1: the chain rule of
            # ``is_shifted_paving``.
            top_on_d0 = shifted and d == 0 and odd == (r + 1, c) and c > 1
            need = bits[(r, c - 1)] if top_on_d0 else 0
            below = heights[top_left[1] - 1] - max(r, odd[0])
            depth = 0 if shifted else 2 * ((below + 1) // 2)
            options.append((dom, bits[odd], need, depth))
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
                [(dom, depth, node) for dom, depth, child in out if (node := below[child])]
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
            for dom, bit, need, depth in choices[i]:
                if mask & bit or mask & need != need:
                    continue
                covered = mask | bit
                if covered & due_i == due_i:
                    child = covered & keep_next
                    out.append((dom, depth, child))
                    if child not in below:
                        stack.append((i + 1, child, None))
    return memo[0][0]


def _least_tiling(region: Iterable[Cell]) -> tuple[Domino, ...] | None:
    """The lexicographically least domino tiling of ``region``, or None.

    The first free cell in row-major order is the top-left cell of the least
    domino left, and a vertical domino sorts before a horizontal one on the
    same cell, so the first tiling this search finds is the least.
    """
    order = sorted(region)
    free = set(order)
    placed: list[tuple[Domino, int, int]] = []  # (domino, its first cell's index, option)
    k, option = 0, 0  # at order[k], try option 0 (vertical) and then 1 (horizontal)
    while True:
        while k < len(order) and order[k] not in free:
            k += 1
        if k == len(order):
            return tuple(dom for dom, _, _ in placed)
        r, c = order[k]
        for option in range(option, 2):
            dom = domino(r, c, option == 1)
            if dom.cells()[1] in free:
                free.difference_update(dom.cells())
                placed.append((dom, k, option))
                k, option = k + 1, 0
                break
        else:  # no domino fits at order[k]: move the last one placed
            if not placed:
                return None
            dom, k, option = placed.pop()
            free.update(dom.cells())
            option += 1
