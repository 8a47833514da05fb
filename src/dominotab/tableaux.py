"""The four flat tableau families and their letters.

Letters come from the ordered alphabet 1' < 1 < 2' < 2 < ... and are encoded
as integer ranks: primed i is 2i-1, unprimed i is 2i, so rank order is letter
order.  The unshifted families use only unprimed letters.

A cell fill is a strictly increasing tuple of ranks; the empty tuple stands
for the X marker that pads the below-diagonal region of shifted shapes.
Nonempty fills compare by A <= B iff max(A) <= min(B).

The ordering and multiplicity rules of all four families are one lower
bound on a fill's minimum, ``fill_floor``, read on the maxima of its left
and upper neighbours; validation, enumeration and the generating functions
all judge fills by it.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
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


def rank(index: int, primed: bool = False) -> int:
    if index < 1:
        raise ValueError("letter index must be positive")
    return 2 * index - 1 if primed else 2 * index


def is_primed(r: int) -> bool:
    return r % 2 == 1


def letter_index(r: int) -> int:
    return (r + 1) // 2


def format_letter(r: int) -> str:
    return f"{letter_index(r)}'" if is_primed(r) else str(letter_index(r))


def parse_letter(text: str) -> int:
    text = text.strip()
    primed = text.endswith("'")
    body = text[:-1] if primed else text
    if not body.isdigit() or int(body) < 1:
        raise ValueError(f"bad letter: {text!r}")
    return rank(int(body), primed)


def format_fill(fill: Fill) -> str:
    if fill == X_FILL:
        return "X"
    if len(fill) == 1:
        return format_letter(fill[0])
    return "{" + ",".join(format_letter(r) for r in fill) + "}"


def check_fill(fill: Fill) -> Fill:
    if fill != tuple(sorted(set(fill))) or any(r < 1 for r in fill):
        raise ValueError(f"fill must be strictly increasing positive ranks: {fill!r}")
    return fill


@dataclass(frozen=True)
class Family:
    name: str
    set_valued: bool
    shifted: bool


PLAIN = Family("plain", set_valued=False, shifted=False)
SET_VALUED = Family("set-valued", set_valued=True, shifted=False)
SHIFTED = Family("shifted", set_valued=False, shifted=True)
SHIFTED_SET_VALUED = Family("shifted-set-valued", set_valued=True, shifted=True)

FAMILIES = {f.name: f for f in (PLAIN, SET_VALUED, SHIFTED, SHIFTED_SET_VALUED)}


@dataclass(frozen=True)
class Tableau:
    family: Family
    shape: Shape
    rows: tuple[tuple[Fill, ...], ...]

    def fill_at(self, row: int, col: int) -> Fill:
        return self.rows[row - 1][col - 1]

    def cells_with_fills(self) -> Iterator[tuple[int, int, Fill]]:
        for r, row in enumerate(self.rows, start=1):
            for c, fill in enumerate(row, start=1):
                yield (r, c, fill)


@dataclass(frozen=True)
class ReadingWord:
    """Per-diagonal segments, lowest diagonal first.

    ``start`` is the diagonal of the first segment and ``step`` the spacing
    between consecutive segment diagonals (1 for flat tableaux, 2 for domino
    tableaux).
    """

    start: int
    step: int
    segments: tuple[tuple[Fill, ...], ...]

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
    their diagonals must, and unless the tableau is valid."""
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
    t = Tableau(family, shape, rows)
    if not validate_tableau(t):
        raise ValueError("reading word does not define a valid tableau")
    return t


def tableau_from_reading_word(family: Family, word: ReadingWord) -> Tableau:
    """Reconstruct the unique tableau with the given diagonal reading word.

    For shifted families a word starting at D_0 with no X entries is completed
    with the X cells implied by the shape; a word that carries X entries on
    negative diagonals is laid out verbatim.
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
    return _tableau_from_cells(family, fills)


# The most candidate fills a cell may have, in every family: 65,535 letters
# plain, 32,767 shifted, 16 set-valued and 8 shifted set-valued (set fills
# over m ranks number 2^m - 1, and shifted letters come primed and unprimed).
MAX_CANDIDATE_FILLS = 2**16 - 1


def _candidate_fills(family: Family, max_letter: int) -> list[Fill]:
    """Every admissible cell fill over the first max_letter letters, sorted.

    Raises ValueError when there would be more than MAX_CANDIDATE_FILLS,
    counted before any fill is built.
    """
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
    """All valid tableaux of the family on the shape with letters <= max_letter.

    Cells are filled in row-major order with candidates tried in ascending
    fill order, so the output is duplicate-free and lexicographically sorted
    by row-major fill sequence.  The fills a cell may take are the sorted
    candidates from the first whose minimum meets ``fill_floor`` on, and
    the walk is iterative, so a long shape needs no deep recursion.  More
    than MAX_LISTED tableaux raise ValueError, once one more is found, and
    so does a shape of more than MAX_CELLS cells, at once.
    """
    shape = check_partition(shape)
    check_cells(shape)
    if family.shifted and not is_staircase_admissible(shape):
        raise ValueError(f"shape {shape} is not admissible for shifted tableaux")
    candidates = _candidate_fills(family, max_letter)
    mins = [fill[0] for fill in candidates]
    grid = [[X_FILL] * length for length in shape]
    letter_cells = [
        (r - 1, c - 1) for r, c in cells(shape) if not (family.shifted and c < r)
    ]
    out: list[Tableau] = []
    # tries[k] runs over the fills left to try at letter cell k.
    tries: list[Iterator[Fill]] = []
    while True:
        k = len(tries)
        if k == len(letter_cells):
            if len(out) == MAX_LISTED:
                raise ValueError(f"shape {shape} has more than {MAX_LISTED} tableaux")
            out.append(Tableau(family, shape, tuple(map(tuple, grid))))
        else:
            r, c = letter_cells[k]
            left = grid[r][c - 1] if c else X_FILL
            above = grid[r - 1][c] if r else X_FILL
            floor = fill_floor(left[-1] if left else 0, above[-1] if above else 0)
            tries.append(iter(candidates[bisect_left(mins, floor) :]))
        # Move the deepest cell with a fill left to its next fill.
        while tries and (fill := next(tries[-1], None)) is None:
            tries.pop()
        if not tries:
            return out
        r, c = letter_cells[len(tries) - 1]
        grid[r][c] = fill
