"""The four flat tableau families and their letters.

Letters come from the ordered alphabet 1' < 1 < 2' < 2 < ... and are encoded
as integer ranks: primed i is 2i-1, unprimed i is 2i, so rank order is letter
order.  The unshifted families use only unprimed letters.

A cell fill is a strictly increasing tuple of ranks; the empty tuple stands
for the X marker that pads the below-diagonal region of shifted shapes.
Nonempty fills compare by A <= B iff max(A) <= min(B).

The ordering and multiplicity rules of all four families are one lower
bound on a fill's minimum, ``fill_floor``, read on the maxima of its left
and upper neighbours; validation and ``flat_walk``, which counts, sums and
lists the flat tableaux, judge fills by it.  ``walk_paths`` lists the
complete paths of a walk, of ``flat_walk`` here and of
``domino_tableaux.tiling_walk`` for the domino tableaux, from the links the
walk recorded.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import namedtuple
from typing import Iterator

from .partitions import (
    MAX_LISTED,
    Cell,
    Shape,
    cells,
    check_cells,
    check_partition,
    diagonal_cells,
    diagonal_range,
    is_partition,
    is_staircase_admissible,
)

Fill = tuple[int, ...]

X_FILL: Fill = ()


def is_primed(r: int) -> bool:
    return r % 2 == 1


def letter_index(r: int) -> int:
    return (r + 1) // 2


def format_letter(r: int) -> str:
    return f"{(r + 1) >> 1}'" if r & 1 else str(r >> 1)


def parse_letter(text: str) -> int:
    """The rank of a letter: ASCII digits of value at least 1, with an
    optional trailing prime, surrounding blanks ignored."""
    text = text.strip()
    primed = text.endswith("'")
    body = text[:-1] if primed else text
    index = int(body) if body.isascii() and body.isdigit() else 0
    if index < 1:
        raise ValueError(f"bad letter: {text!r}")
    return 2 * index - primed


def format_fill(fill: Fill) -> str:
    if len(fill) == 1:
        return format_letter(fill[0])
    if not fill:
        return "X"
    return "{" + ",".join(map(format_letter, fill)) + "}"


def check_fill(fill: Fill) -> Fill:
    if len(fill) == 1 and type(fill[0]) is int and fill[0] > 0:
        return fill  # the common one-letter fill, valid without sorting
    if fill != tuple(sorted(set(fill))) or any(r < 1 for r in fill):
        raise ValueError(f"fill must be strictly increasing positive ranks: {fill!r}")
    return fill


# Families, tableaux and reading words are tuple-backed values, as
# ``pavings.Domino`` is: each equals and hashes as the tuple of its fields,
# and holds no field that can be assigned.
class Family(namedtuple("Family", "name set_valued shifted")):
    __slots__ = ()


PLAIN = Family("plain", set_valued=False, shifted=False)
SET_VALUED = Family("set-valued", set_valued=True, shifted=False)
SHIFTED = Family("shifted", set_valued=False, shifted=True)
SHIFTED_SET_VALUED = Family("shifted-set-valued", set_valued=True, shifted=True)

FAMILIES = {f.name: f for f in (PLAIN, SET_VALUED, SHIFTED, SHIFTED_SET_VALUED)}


class Tableau(namedtuple("Tableau", "family shape rows")):
    __slots__ = ()

    def fill_at(self, row: int, col: int) -> Fill:
        return self.rows[row - 1][col - 1]

    def cells_with_fills(self) -> Iterator[tuple[int, int, Fill]]:
        for r, row in enumerate(self.rows, start=1):
            for c, fill in enumerate(row, start=1):
                yield (r, c, fill)


class ReadingWord(namedtuple("ReadingWord", "start step segments")):
    """Per-diagonal segments, lowest diagonal first.

    ``start`` is the diagonal of the first segment and ``step`` the spacing
    between consecutive segment diagonals (1 for flat tableaux, 2 for domino
    tableaux).
    """

    __slots__ = ()

    def __str__(self) -> str:
        return " / ".join(
            ",".join(format_fill(f) for f in seg) for seg in self.segments
        )


def make_tableau(family: Family, shape: Shape, rows) -> Tableau:
    """Build a Tableau, raising ValueError on structural mismatch."""
    shape = check_partition(shape)
    rows = tuple(tuple(check_fill(tuple(f)) for f in row) for row in rows)
    if len(rows) != len(shape) or any(
        len(row) != part for row, part in zip(rows, shape)
    ):
        raise ValueError("grid does not match shape")
    return Tableau(family, shape, rows)


def _letter_ok(family: Family, fill: Fill) -> bool:
    """The per-fill family rule of a letter cell or domino: not X, one
    letter unless the family is set-valued, and no primed letter unless it
    is shifted."""
    if fill == X_FILL:
        return False
    if not family.set_valued and len(fill) != 1:
        return False
    if not family.shifted:
        for r in fill:
            if r & 1:  # primed
                return False
    return True


def fill_floor(left: int, above: int) -> int:
    """The least minimum a fill may have beside a left neighbour of maximum
    ``left`` and below an upper one of maximum ``above`` (0 for none or X).

    Rows weakly increase and columns increase, strictly unless the family
    is shifted.  A shifted family also takes a primed letter at most once
    per row and an unprimed one at most once per column; since rows and
    columns weakly increase, a letter that occurs twice in a line occurs in
    two neighbouring cells, as the maximum of the first and the minimum of
    the second.  So the whole rule is min >= up_even(left) and
    min >= up_odd(above), where up_even rounds a rank up to even (a primed
    letter up to its unprimed one) and up_odd up to odd.  Unshifted ranks
    are even, so there the bound reads min >= left and min > above.
    """
    return max(left + (left & 1), above | 1)


def validate_tableau(t: Tableau) -> bool:
    """True iff the fill satisfies every rule of the tableau's family.

    Each letter cell holds a fill of the family's letters whose minimum
    meets ``fill_floor`` of its left and upper neighbours' maxima.
    Unshifted families have no X cells; shifted families require the shape
    to satisfy lambda_k >= k and X exactly on the negative-content cells.
    """
    # Structure (shape/grid mismatch, unsorted fills) raises via make_tableau;
    # here the grid is assumed coherent and only family rules are judged.
    if len(t.rows) != len(t.shape) or any(
        len(row) != part for row, part in zip(t.rows, t.shape)
    ):
        raise ValueError("grid does not match shape")
    shifted = t.family.shifted
    if shifted and not is_staircase_admissible(t.shape):
        return False
    for r, row in enumerate(t.rows):
        for c, fill in enumerate(row):
            if shifted and c < r:
                if fill != X_FILL:
                    return False
                continue
            if not _letter_ok(t.family, fill):
                return False
            # Both neighbours come earlier in row-major order: already judged.
            left = row[c - 1] if c else X_FILL
            above = t.rows[r - 1][c] if r else X_FILL
            if fill[0] < fill_floor(left[-1] if left else 0, above[-1] if above else 0):
                return False
    return True


def weight(t: Tableau, n: int) -> tuple[int, ...]:
    """Exponent vector: e_i counts occurrences of i and i' together."""
    exps = [0] * n
    for _, _, fill in t.cells_with_fills():
        for letter in fill:
            idx = letter_index(letter)
            if idx > n:
                raise ValueError(f"letter index {idx} exceeds variable count {n}")
            exps[idx - 1] += 1
    return tuple(exps)


def reading_word(t: Tableau) -> ReadingWord:
    """Diagonal reading: lowest diagonal first, each read NW to SE.

    Shifted families start at D_0 (the X prefix of each row is skipped);
    unshifted families start at the lowest occupied diagonal.
    """
    lo, hi = diagonal_range(t.shape)
    if hi < lo:
        return ReadingWord(start=0, step=1, segments=())
    start = 0 if t.family.shifted else lo
    segments = []
    for d in range(start, hi + 1):
        segments.append(tuple(t.fill_at(r, c) for r, c in diagonal_cells(t.shape, d)))
    return ReadingWord(start=start, step=1, segments=tuple(segments))


def _tableau_from_cells(family: Family, fills: dict[Cell, Fill]) -> Tableau:
    """The tableau with the given fill on each cell.  ValueError unless the
    cells form a partition shape, as segments of a reading word laid on
    their diagonals must.  The fills are not judged: ``gamma_split`` lays
    the halves of a valid domino tableau, which are valid by the theorem it
    states, and ``tableau_from_reading_word`` validates its own."""
    widths: dict[int, int] = {}  # cells per row
    for r, _ in fills:
        widths[r] = widths.get(r, 0) + 1
    shape = tuple(widths.get(r, 0) for r in range(1, max(widths, default=0) + 1))
    try:
        rows = tuple(
            tuple(fills[r, c] for c in range(1, part + 1))
            for r, part in enumerate(shape, start=1)
        )
    except KeyError:  # a row's cells leave a gap
        rows = None
    if rows is None or not is_partition(shape):
        raise ValueError("segment lengths do not form a partition profile")
    return Tableau(family, shape, rows)


def tableau_from_reading_word(family: Family, word: ReadingWord) -> Tableau:
    """Reconstruct the unique tableau with the given diagonal reading word.

    For shifted families a word starting at D_0 with no X entries is completed
    with the X cells implied by the shape; a word that carries X entries on
    negative diagonals is laid out verbatim.  The word comes from outside, so
    the tableau is validated: ValueError unless its segments lay out a
    partition shape and the tableau obeys its family's rules.
    """
    if word.step != 1:
        raise ValueError("flat tableaux read with step-1 diagonals")
    fills: dict[Cell, Fill] = {}
    for i, seg in enumerate(word.segments):
        d = word.start + i
        r0 = max(1, 1 - d)
        for j, fill in enumerate(seg):
            fills[(r0 + j, r0 + j + d)] = check_fill(tuple(fill))
    if family.shifted and word.start >= 0 and X_FILL not in fills.values():
        # X-complete: row r needs r-1 X cells before its letters.
        nrows = len(word.segments[0]) if word.start == 0 and word.segments else 0
        for r in range(2, nrows + 1):
            for c in range(1, r):
                fills[(r, c)] = X_FILL
    t = _tableau_from_cells(family, fills)
    if not validate_tableau(t):
        raise ValueError("reading word does not define a valid tableau")
    return t


# The most candidate fills a cell may have, in every family: 65,535 letters
# plain, 32,767 shifted, 16 set-valued and 8 shifted set-valued (set fills
# over m ranks number 2^m - 1, and shifted letters come primed and unprimed).
MAX_CANDIDATE_FILLS = 2**16 - 1


def _candidate_fills(family: Family, max_letter: int) -> list[Fill]:
    """Every admissible cell fill over the first max_letter letters, sorted.

    Raises ValueError for a negative letter count, and when there would be
    more than MAX_CANDIDATE_FILLS, counted before any fill is built.
    """
    if max_letter < 0:
        raise ValueError(f"the letter count must not be negative, got {max_letter}")
    m = 2 * max_letter if family.shifted else max_letter  # the ranks in use
    # 2^m - 1 set fills exceed 2^b - 1 exactly when m > b.
    if m > (MAX_CANDIDATE_FILLS.bit_length() if family.set_valued else MAX_CANDIDATE_FILLS):
        raise ValueError(
            f"{family.name} fills over {max_letter} letters number more than "
            f"the limit {MAX_CANDIDATE_FILLS}"
        )
    ranks = range(1, m + 1) if family.shifted else range(2, 2 * m + 1, 2)
    if not family.set_valued:
        return [(r,) for r in ranks]
    out: list[Fill] = []
    for mask in range(1, 1 << m):
        out.append(tuple(r for i, r in enumerate(ranks) if mask >> i & 1))
    out.sort()
    return out


def fill_classes(family: Family, max_letter: int) -> list[list[Fill]]:
    """The candidate fills over the first max_letter letters, grouped by
    (min, max): every rule between two cells or two pieces reads a fill
    through its minimum and maximum alone.  A class keeps its fills sorted,
    and the classes are sorted by their first fill, so by minimum."""
    classes: dict[tuple[int, int], list[Fill]] = {}
    for fill in _candidate_fills(family, max_letter):
        classes.setdefault((fill[0], fill[-1]), []).append(fill)
    return sorted(classes.values())


def enumerate_tableaux(family: Family, shape: Shape, max_letter: int) -> list[Tableau]:
    """All valid tableaux of the family on the shape with letters <= max_letter,
    sorted by rows, which is the lexicographic order of their row-major fill
    sequences.

    One walk of ``flat_walk`` counts them, with each (min, max) class of
    fills weighing its number of fills, and records its links, so more than
    MAX_LISTED tableaux raise ValueError before any is built, and as soon as
    the partial fillings up to one cell outnumber MAX_LISTED; the listing
    then follows the links through ``walk_paths``, every one of which
    completes.
    Shifted shapes that are not admissible raise ValueError, and so does a
    shape of more than MAX_CELLS cells, at once.
    """
    shape = check_partition(shape)
    check_cells(shape)
    if family.shifted and not is_staircase_admissible(shape):
        raise ValueError(f"shape {shape} is not admissible for shifted tableaux")
    classes = fill_classes(family, max_letter)
    links: list[tuple] = []
    total = flat_walk(family, shape, [(f[0], ((0, len(f)),)) for f in classes], links)
    if total.get(0, 0) > MAX_LISTED:
        raise ValueError(f"shape {shape} has more than {MAX_LISTED} tableaux")
    out = []
    # Every path fills every letter cell, so one grid serves them all.
    grid = [[X_FILL] * length for length in shape]
    for pieces, _ in walk_paths(links, total, classes):
        for (r, c), fill in pieces:
            grid[r - 1][c - 1] = fill
        out.append(tuple(map(tuple, grid)))
    return [Tableau(family, shape, rows) for rows in sorted(out)]


def walk_paths(links: list, total: dict, classes: list) -> Iterator[tuple[list, object]]:
    """The complete paths of a walk, from the ``links`` it recorded: yields
    each path's pieces, in the order they were placed, as a new list, and
    the node its last link enters (None for the empty path).

    A link is (the weight dict of the state it leaves, the piece's place,
    the first fill of its class, the node it enters, the weight dict of the
    state it enters), in walk order, so a state's links out come after its
    links in; ``total`` is the walk's returned dict, which the links into a
    complete state enter.  ``classes`` holds each class's fills, keyed by
    its first.  Marked from the last link back, a link is live when it
    enters ``total`` or a state with a live link out, and the paths follow
    live links only, depth first, over one stack of partial paths' pieces:
    so no path that never completes is visited, a path grows by one piece
    in constant time, and each complete path costs one copy of the stack.
    A walk without links has the empty path, which completes when
    ``total`` is not empty.  ``links`` is emptied.
    """
    members = {fills[0]: fills for fills in classes}
    start = links[0][0] if links else total  # the root's weight dict
    # By the id of each weight dict of a live state, its live steps:
    # (piece, the node entered, the entered state's weight dict).  ``links``
    # held every weight dict when the walk ended, so no two share an id.
    live: dict[int, list[tuple]] = {}
    while links:
        terms, place, first, child, acc = links.pop()
        if acc is total or id(acc) in live:
            live.setdefault(id(terms), []).extend(((place, f), child, acc) for f in members[first])
    # The pieces of the path so far, after None for the step into the root,
    # and per piece the live steps left to try after it; one step more
    # completes a path or extends it.
    path: list = []
    tries = [iter([(None, None, start)])] if total else []
    while tries:
        for piece, child, acc in tries[-1]:
            path.append(piece)
            if acc is total:
                yield path[1:], child
                path.pop()
            else:
                tries.append(iter(live[id(acc)]))
                break
        else:
            tries.pop()
            del path[-1:]


# The most terms the weights of one layer of ``flat_walk``, or of
# ``domino_tableaux.tiling_walk``, may hold together.  The domino sum over
# GQ (6,5,5,4) peaks at 2,123,158 terms with n=3.  The cap counts terms, not
# bytes, and a layer's terms are held while the next layer fills, so the
# memory spent before it stops grows with the variable count: the flat sum
# over plain (3^20) with n=24 stops at about 600 MB RSS (483 MB under
# tracemalloc), and shifted (20,19,18,17,16,15) with n=6 reached 1.59 GB
# before the flat sum swept wide shapes along their shorter side.
MAX_TRANSFER_TERMS = 3_000_000


def flat_walk(family: Family, shape: Shape, classes, links: list | None = None) -> dict[int, int]:
    """The valid fills of the letter cells of ``shape`` (in the shifted
    families, the cells with c >= r), walked cell by cell, with the fills'
    weights summed, as ``domino_tableaux.tiling_walk`` walks the dominoes
    (Stanley, *EC I*, §4.7).

    A weight is a dict of terms, packed monomial to coefficient, where
    monomials multiply by ``+`` and 0 is the unit.  ``classes`` holds each
    (min, max) class of candidate fills, sorted by minimum, as its first
    fill and the terms its fills weigh, and the walk returns the terms
    summed over the complete fillings.  Its callers weigh a fill by its
    signed packed monomial (``polyring.genfun``) or by 1 (the count of
    ``enumerate_tableaux``).  Given ``links``, a list, the walk appends to
    it one link per accepted class, in walk order: the weight dict of the
    state it leaves, the cell (r, c), the class's first fill, None (a cell
    enters no automaton node), and the weight dict of the state it enters,
    which for the last cell is the returned dict; ``walk_paths`` lists the
    complete paths over them.

    A cell reads only its left and upper neighbours, through one lower
    bound on its minimum, ``fill_floor(max(left), max(above))``, which
    states the ordering and multiplicity rules of every family; so the
    cells may be swept line by line along either side.  The sweep runs
    along the shorter side: by columns in the shifted families, whose
    letter cells span no more rows than columns, and in shapes of fewer
    rows than columns; else by rows.  A state is the frontier of fill
    maxima that later cells still read, and nothing else: the previous
    line's from the next cell's place on, this line's at the places the
    next line reads, and the previous cell's, last.  One rule lays it out:
    a cell reads and drops the key's first entry if its neighbour in the
    previous line is a letter cell, and the last one if the previous cell
    of its line is, and it appends its maximum once for each of its two
    readers, the next line's neighbour and the next cell, that is a letter
    cell.  So the key holds at most one entry per place along the shorter
    side, and one more; equal frontiers are one state, and each state holds
    the summed weights of the prefixes that reach it.

    The bound reads a fill only through its minimum and maximum, so the
    fills are judged by class.  The top rank is the last class's minimum,
    and each cell's fill has a maximum of at most the cell's top: the
    largest rank whose up_even stays within the top of the right neighbour
    and whose up_odd stays within the lower one's, for the letter cells
    among them, where the last cells' tops are the top rank.  Filling each
    later cell with the one letter at its floor then completes any state,
    since that floor stays within the cell's top, so every state of the
    walk completes.  (Unshifted, the top of a cell with k cells below it
    is the top rank less 2k.)  Hence the partial fillings up to a cell are
    no more than the fillings, and with ``links`` the walk counts them: its
    classes must then weigh their numbers of fills, (0, count), and a cell
    whose partial fillings number more than MAX_LISTED raises the listing's
    ValueError at once.  A layer of more than MAX_TRANSFER_TERMS terms
    raises ValueError.
    """
    mins = [fill[0] for fill, _ in classes]
    max_rank = mins[-1] if mins else 0
    shifted = family.shifted
    on = {(r, c) for r, c in cells(shape) if not (shifted and c < r)}  # the letter cells
    # Sweep along the shorter side: by columns (a, b = 0, 1) in the shifted
    # families, whose letter cells span no more rows than columns, and in
    # shapes of fewer rows than columns; else by rows.
    a, b = (0, 1) if shifted or len(shape) < max(shape, default=0) else (1, 0)
    # Each cell's top: its right neighbour reads up_even of its maximum and
    # its lower one up_odd, and neither may exceed their own top.
    tops: dict[Cell, int] = {}
    for r, c in sorted(on, reverse=True):  # the right and lower neighbours first
        right, below = tops.get((r, c + 1), max_rank), tops.get((r + 1, c), max_rank + 1)
        top = min(max_rank, right - (right & 1), (below - 1) | 1)
        tops[r, c] = top if shifted else top - (top & 1)  # unshifted ranks are even
    layer: dict[tuple[int, ...], dict[int, int]] = {(): {0: 1}}
    for r, c in sorted(on, key=lambda cell: (cell[1 - a], cell[a])):
        top = tops[r, c]
        reached = 0  # the partial fillings up to this cell, when listing
        # A key opens with the previous line's neighbour's maximum and ends
        # with the previous cell's of this line, when they are letter cells.
        start = (r - a, c - b) in on
        end = -1 if (r - b, c - a) in on else None
        # This cell's maximum is kept once per reader: the next line's
        # neighbour, the next cell of this line.
        copies = ((r + a, c + b) in on) + ((r + b, c + a) in on)
        nxt: dict[tuple[int, ...], dict[int, int]] = {}
        hi = bisect_right(mins, top)
        stored = 0
        for front, terms in layer.items():
            ends = (front[0] if start else 0, front[-1] if end else 0)
            body = front[start:end]
            lo = bisect_left(mins, fill_floor(ends[a], ends[b]))  # the left, the upper
            for fill, fill_terms in classes[lo:hi]:
                high = fill[-1]
                if high > top:
                    continue
                key = body + (high,) * copies
                acc = nxt.get(key)
                if acc is None:
                    acc = nxt[key] = {}
                if links is not None:
                    links.append((terms, (r, c), fill, None, acc))
                    reached += terms[0] * fill_terms[0][1]
                    if reached > MAX_LISTED:
                        raise ValueError(f"shape {shape} has more than {MAX_LISTED} tableaux")
                before = len(acc)
                for m, coef in terms.items():
                    for e, sign in fill_terms:
                        acc[m + e] = acc.get(m + e, 0) + coef * sign
                stored += len(acc) - before
                if stored > MAX_TRANSFER_TERMS:
                    raise ValueError(
                        f"the flat sum over {shape} needs more than "
                        f"{MAX_TRANSFER_TERMS} terms in one layer"
                    )
        layer = nxt
    return next(iter(layer.values()), {})  # the one state left has an empty frontier
