"""The four flat tableau families and their letters.

Letters come from the ordered alphabet 1' < 1 < 2' < 2 < ... and are encoded
as integer ranks: primed i is 2i-1, unprimed i is 2i, so rank order is letter
order.  The unshifted families use only unprimed letters.

A cell fill is a strictly increasing tuple of ranks; the empty tuple stands
for the X marker that pads the below-diagonal region of shifted shapes.
Nonempty fills compare by A <= B iff max(A) <= min(B).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .partitions import (
    Shape,
    cells,
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


def parse_fill(text: str) -> Fill:
    text = text.strip()
    if text == "X":
        return X_FILL
    if text.startswith("{") and text.endswith("}"):
        text = text[1:-1]
    return check_fill(tuple(parse_letter(part) for part in text.split(",")))


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
    if fill == X_FILL:
        return False
    if not family.set_valued and len(fill) != 1:
        return False
    if not family.shifted and any(is_primed(r) for r in fill):
        return False
    return True


def validate_tableau(t: Tableau) -> bool:
    """True iff the fill satisfies every rule of the tableau's family.

    Unshifted families: no X cells, rows weakly increase (max of the left fill
    at most min of the right), columns strictly increase.  Shifted families
    additionally require the shape to satisfy lambda_k >= k, X exactly on the
    negative-content cells, weak increase along both rows and columns, at most
    one unprimed i in any column and at most one primed i' in any row,
    counting occurrences across set fills.
    """
    # Structure (shape/grid mismatch, unsorted fills) raises via make_tableau;
    # here the grid is assumed coherent and only family rules are judged.
    if len(t.rows) != len(t.shape) or any(
        len(row) != part for row, part in zip(t.rows, t.shape)
    ):
        raise ValueError("grid does not match shape")
    if t.family.shifted:
        if not is_staircase_admissible(t.shape):
            return False
        for r, c, fill in t.cells_with_fills():
            if (fill == X_FILL) != (c - r < 0):
                return False
            if c - r >= 0 and not _letter_ok(t.family, fill):
                return False
    else:
        for _, _, fill in t.cells_with_fills():
            if not _letter_ok(t.family, fill):
                return False

    for r, c, fill in t.cells_with_fills():
        if fill == X_FILL:
            continue
        if c > 1:
            left = t.fill_at(r, c - 1)
            if left != X_FILL and max(left) > min(fill):
                return False
        if r > 1 and c <= t.shape[r - 2]:
            above = t.fill_at(r - 1, c)
            if above != X_FILL:
                if t.family.shifted:
                    if max(above) > min(fill):
                        return False
                elif max(above) >= min(fill):
                    return False

    if t.family.shifted:
        col_unprimed: dict[tuple[int, int], int] = {}
        row_primed: dict[tuple[int, int], int] = {}
        for r, c, fill in t.cells_with_fills():
            for letter in fill:
                if is_primed(letter):
                    key = (r, letter)
                    row_primed[key] = row_primed.get(key, 0) + 1
                    if row_primed[key] > 1:
                        return False
                else:
                    key = (c, letter)
                    col_unprimed[key] = col_unprimed.get(key, 0) + 1
                    if col_unprimed[key] > 1:
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


def cardinality(t: Tableau) -> int:
    """Total number of letters across non-X cells."""
    return sum(len(fill) for _, _, fill in t.cells_with_fills())


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


def _shape_from_diagonal_counts(counts: dict[int, int]) -> Shape:
    """Shape whose diagonal d holds counts[d] cells; ValueError if none exists."""
    cellset = set()
    for d, cnt in counts.items():
        r0 = max(1, 1 - d)
        for r in range(r0, r0 + cnt):
            cellset.add((r, r + d))
    if not cellset:
        return ()
    nrows = max(r for r, _ in cellset)
    shape = []
    for r in range(1, nrows + 1):
        row_cols = {c for rr, c in cellset if rr == r}
        width = len(row_cols)
        if row_cols != set(range(1, width + 1)):
            raise ValueError("segment lengths do not form a partition profile")
        shape.append(width)
    result = tuple(shape)
    if not is_partition(result):
        raise ValueError("segment lengths do not form a partition profile")
    return result


def tableau_from_reading_word(family: Family, word: ReadingWord) -> Tableau:
    """Reconstruct the unique tableau with the given diagonal reading word.

    For shifted families a word starting at D_0 with no X entries is completed
    with the X cells implied by the shape; a word that carries X entries on
    negative diagonals is laid out verbatim.
    """
    if word.step != 1:
        raise ValueError("flat tableaux read with step-1 diagonals")
    fills: dict[tuple[int, int], Fill] = {}
    counts: dict[int, int] = {}
    for i, seg in enumerate(word.segments):
        d = word.start + i
        counts[d] = len(seg)
        r0 = max(1, 1 - d)
        for j, fill in enumerate(seg):
            fills[(r0 + j, r0 + j + d)] = fill

    if family.shifted and word.start >= 0 and all(
        f != X_FILL for seg in word.segments for f in seg
    ):
        # X-complete: row r needs r-1 X cells before its letters.
        nrows = counts.get(0, 0)
        for r in range(1, nrows + 1):
            for c in range(1, r):
                fills[(r, c)] = X_FILL
                counts[c - r] = counts.get(c - r, 0) + 1

    shape = _shape_from_diagonal_counts(counts)
    rows = tuple(
        tuple(fills[(r, c)] for c in range(1, length + 1))
        for r, length in enumerate(shape, start=1)
    )
    t = make_tableau(family, shape, rows)
    if not validate_tableau(t):
        raise ValueError("reading word does not define a valid tableau")
    return t


# Set fills over m ranks number 2^m - 1; this allows 16 letters set-valued
# and 8 shifted set-valued (whose letters come primed and unprimed).
MAX_CANDIDATE_FILLS = 2**16 - 1


def _candidate_fills(family: Family, max_letter: int) -> list[Fill]:
    """Every admissible cell fill over the first max_letter letters, sorted.

    Raises ValueError when there would be more than MAX_CANDIDATE_FILLS.
    """
    ranks = (
        list(range(1, 2 * max_letter + 1))
        if family.shifted
        else list(range(2, 2 * max_letter + 1, 2))
    )
    if not family.set_valued:
        return [(r,) for r in ranks]
    if (1 << len(ranks)) - 1 > MAX_CANDIDATE_FILLS:
        raise ValueError(
            f"{family.name} fills over {max_letter} letters number "
            f"{(1 << len(ranks)) - 1}, more than the limit {MAX_CANDIDATE_FILLS}"
        )
    out: list[Fill] = []
    for mask in range(1, 1 << len(ranks)):
        out.append(tuple(r for i, r in enumerate(ranks) if mask >> i & 1))
    out.sort()
    return out


def enumerate_tableaux(family: Family, shape: Shape, max_letter: int) -> list[Tableau]:
    """All valid tableaux of the family on the shape with letters <= max_letter.

    Cells are filled in row-major order with candidates tried in ascending
    fill order, so the output is duplicate-free and lexicographically sorted
    by row-major fill sequence.
    """
    shape = check_partition(shape)
    if family.shifted and not is_staircase_admissible(shape):
        raise ValueError(f"shape {shape} is not admissible for shifted tableaux")
    if not shape:
        return [Tableau(family, (), ())]

    letter_cells = [
        (r, c) for r, c in cells(shape) if not (family.shifted and c - r < 0)
    ]
    candidates = _candidate_fills(family, max_letter)
    grid: dict[tuple[int, int], Fill] = {
        (r, c): X_FILL for r, c in cells(shape) if family.shifted and c - r < 0
    }
    col_unprimed: set[tuple[int, int]] = set()
    row_primed: set[tuple[int, int]] = set()
    out: list[Tableau] = []

    def ok(r: int, c: int, fill: Fill) -> bool:
        if c > 1:
            left = grid[(r, c - 1)]
            if left != X_FILL and max(left) > min(fill):
                return False
        if r > 1 and c <= shape[r - 2]:
            above = grid[(r - 1, c)]
            if above != X_FILL:
                if family.shifted:
                    if max(above) > min(fill):
                        return False
                elif max(above) >= min(fill):
                    return False
        if family.shifted:
            for letter in fill:
                key = (r, letter) if is_primed(letter) else (c, letter)
                if key in (row_primed if is_primed(letter) else col_unprimed):
                    return False
        return True

    def rec(idx: int) -> None:
        if idx == len(letter_cells):
            rows = tuple(
                tuple(grid[(r, c)] for c in range(1, length + 1))
                for r, length in enumerate(shape, start=1)
            )
            out.append(Tableau(family, shape, rows))
            return
        r, c = letter_cells[idx]
        for fill in candidates:
            if not ok(r, c, fill):
                continue
            grid[(r, c)] = fill
            added = []
            if family.shifted:
                for letter in fill:
                    key = (r, letter) if is_primed(letter) else (c, letter)
                    (row_primed if is_primed(letter) else col_unprimed).add(key)
                    added.append((is_primed(letter), key))
            rec(idx + 1)
            del grid[(r, c)]
            for primed, key in added:
                (row_primed if primed else col_unprimed).discard(key)

    rec(0)
    return out

