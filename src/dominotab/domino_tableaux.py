"""Domino tableaux in the four families.

Validity follows the flat families, read on domino fills:

* plain: minimum entries weakly increase cell-wise along rows and strictly
  down columns (the two cells of one vertical domino are exempt from column
  strictness);
* set-valued: the minimum entries form a plain domino tableau, and same-type
  dominoes on even diagonals two apart with a weakly-southeast relation obey
  max/min bounds (weak when the earlier diagonal is lower, strict otherwise);
* shifted: below-D_0 dominoes hold X, rows and columns weakly increase, an
  unprimed letter appears at most once among the dominoes meeting any column
  and a primed letter at most once among those meeting any row, and the
  paving must be a shifted paving;
* shifted set-valued: the minima form a shifted domino tableau and the
  southeast conditions hold, strict or weak according to the direction and
  whether max(F1) is primed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .partitions import Shape, Cell, check_partition
from .pavings import Domino, Paving, enumerate_pavings, is_shifted_paving, region_split
from .tableaux import (
    Family,
    Fill,
    ReadingWord,
    X_FILL,
    _candidate_fills,
    check_fill,
    format_fill,
    is_primed,
    letter_index,
)

Piece = tuple[Domino, Fill]


@dataclass(frozen=True)
class DominoTableau:
    family: Family
    shape: Shape
    pieces: tuple[Piece, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "pieces", tuple(sorted(self.pieces, key=lambda p: p[0]))
        )

    def paving(self) -> Paving:
        return Paving(self.shape, tuple(d for d, _ in self.pieces))

    def up_pieces(self) -> tuple[Piece, ...]:
        return tuple((d, f) for d, f in self.pieces if d.crossing() >= 0)


def make_domino_tableau(family: Family, shape: Shape, pieces: Iterable[Piece]) -> DominoTableau:
    """Build a DominoTableau, raising ValueError on structural problems."""
    shape = check_partition(shape)
    pieces = tuple((d, check_fill(tuple(f))) for d, f in pieces)
    Paving(shape, tuple(d for d, _ in pieces))  # raises unless a tiling
    return DominoTableau(family, shape, pieces)


def weakly_southeast(f1: Domino, f2: Domino) -> bool:
    """True iff some cell of f2 lies weakly southeast of f1's top-left cell."""
    return any(r >= f1.row and c >= f1.col for r, c in f2.cells())


class FillState:
    """Incremental validity checker shared by enumeration and validation.

    Pieces are added one at a time; ``try_add`` accepts a piece only if every
    family rule involving it and the pieces already present holds.  Adding
    pieces in any order and succeeding every time is equivalent to full
    validity of the final tableau (all rules are pairwise or per-piece).
    """

    def __init__(self, family: Family):
        self.family = family
        self.pieces: list[Piece] = []
        self.owner: dict[Cell, int] = {}
        self.col_unprimed: set[tuple[int, int]] = set()
        self.row_primed: set[tuple[int, int]] = set()

    def _fill_shape_ok(self, dom: Domino, fill: Fill) -> bool:
        if self.family.shifted:
            if (fill == X_FILL) != (dom.crossing() < 0):
                return False
        elif fill == X_FILL:
            return False
        if fill == X_FILL:
            return True
        if not self.family.set_valued and len(fill) != 1:
            return False
        if not self.family.shifted and any(is_primed(r) for r in fill):
            return False
        return True

    def _ordering_ok(self, dom: Domino, fill: Fill) -> bool:
        if fill == X_FILL:
            return True
        lo = min(fill)
        for r, c in dom.cells():
            for dr, dc, before in ((0, -1, True), (0, 1, False)):
                idx = self.owner.get((r + dr, c + dc))
                if idx is None:
                    continue
                other_fill = self.pieces[idx][1]
                if other_fill == X_FILL:
                    continue
                if before:  # neighbour to the left: its min at most ours
                    if min(other_fill) > lo:
                        return False
                elif lo > min(other_fill):
                    return False
            for dr, above in ((-1, True), (1, False)):
                idx = self.owner.get((r + dr, c))
                if idx is None:
                    continue
                other_fill = self.pieces[idx][1]
                if other_fill == X_FILL:
                    continue
                top, bottom = (min(other_fill), lo) if above else (lo, min(other_fill))
                if self.family.shifted:
                    if top > bottom:
                        return False
                elif top >= bottom:
                    return False
        return True

    def _multiplicity_ok(self, dom: Domino, fill: Fill) -> bool:
        if not self.family.shifted or fill == X_FILL:
            return True
        m = min(fill)
        if is_primed(m):
            rows = {r for r, _ in dom.cells()}
            return all((r, m) not in self.row_primed for r in rows)
        cols = {c for _, c in dom.cells()}
        return all((c, m) not in self.col_unprimed for c in cols)

    def _southeast_ok(self, dom: Domino, fill: Fill) -> bool:
        if not self.family.set_valued or fill == X_FILL:
            return True
        for other_dom, other_fill in self.pieces:
            if other_fill == X_FILL or other_dom.dtype() != dom.dtype():
                continue
            if abs(other_dom.crossing() - dom.crossing()) != 2:
                continue
            for f1, fill1, f2, fill2 in (
                (other_dom, other_fill, dom, fill),
                (dom, fill, other_dom, other_fill),
            ):
                if not weakly_southeast(f1, f2):
                    continue
                forward = f2.crossing() == f1.crossing() + 2
                if self.family.shifted:
                    strict = is_primed(max(fill1)) == forward
                else:
                    strict = not forward
                if max(fill1) > min(fill2) or (strict and max(fill1) >= min(fill2)):
                    return False
        return True

    def check(self, dom: Domino, fill: Fill) -> bool:
        return (
            self._fill_shape_ok(dom, fill)
            and all(cell not in self.owner for cell in dom.cells())
            and self._ordering_ok(dom, fill)
            and self._multiplicity_ok(dom, fill)
            and self._southeast_ok(dom, fill)
        )

    def add(self, dom: Domino, fill: Fill) -> None:
        idx = len(self.pieces)
        self.pieces.append((dom, fill))
        for cell in dom.cells():
            self.owner[cell] = idx
        if self.family.shifted and fill != X_FILL:
            m = min(fill)
            if is_primed(m):
                for r, _ in dom.cells():
                    self.row_primed.add((r, m))
            else:
                for _, c in dom.cells():
                    self.col_unprimed.add((c, m))

    def try_add(self, dom: Domino, fill: Fill) -> bool:
        if not self.check(dom, fill):
            return False
        self.add(dom, fill)
        return True

    def pop(self) -> None:
        dom, fill = self.pieces.pop()
        for cell in dom.cells():
            del self.owner[cell]
        if self.family.shifted and fill != X_FILL:
            m = min(fill)
            if is_primed(m):
                for r, _ in dom.cells():
                    self.row_primed.discard((r, m))
            else:
                for _, c in dom.cells():
                    self.col_unprimed.discard((c, m))


def validate_domino_tableau(t: DominoTableau) -> bool:
    """True iff every family rule holds; raises on malformed structure."""
    Paving(t.shape, tuple(d for d, _ in t.pieces))  # structural: must tile
    if t.family.shifted and not is_shifted_paving(t.paving()):
        return False
    state = FillState(t.family)
    for dom, fill in _diag_order(t.pieces):
        if not state.try_add(dom, fill):
            return False
    return True


def _diag_order(pieces: Iterable[Piece]) -> list[Piece]:
    return sorted(pieces, key=lambda p: (p[0].crossing(), p[0].crossing_cell()))


def diagonal_reading(t: DominoTableau) -> ReadingWord:
    """Segments per even diagonal ascending, each read northwest to southeast.

    Shifted families start at D_0; the X-filled down region never appears.
    """
    by_diag: dict[int, list[Piece]] = {}
    for dom, fill in t.pieces:
        by_diag.setdefault(dom.crossing(), []).append((dom, fill))
    if t.family.shifted:
        diags = sorted(d for d in by_diag if d >= 0)
    else:
        diags = sorted(by_diag)
    if not diags:
        return ReadingWord(start=0, step=2, segments=())
    segments = []
    for d in range(diags[0], diags[-1] + 2, 2):
        entry = sorted(by_diag.get(d, ()), key=lambda p: p[0].crossing_cell())
        segments.append(tuple(fill for _, fill in entry))
    return ReadingWord(start=diags[0], step=2, segments=tuple(segments))


def up_fingerprint(t: DominoTableau) -> str:
    """Canonical serialisation of the filled up-region dominoes."""
    if not t.family.shifted:
        raise ValueError("up_fingerprint applies to shifted families only")
    parts = []
    for dom, fill in t.up_pieces():
        orient = "H" if dom.horiz else "V"
        parts.append(f"{orient}{dom.row},{dom.col}:{format_fill(fill)}")
    return "|".join(parts)


def dt_weight(t: DominoTableau, n: int) -> tuple[int, ...]:
    """Exponent vector; each domino contributes its fill once."""
    exps = [0] * n
    for _, fill in t.pieces:
        for letter in fill:
            idx = letter_index(letter)
            if idx > n:
                raise ValueError(f"letter index {idx} exceeds variable count {n}")
            exps[idx - 1] += 1
    return tuple(exps)


def dt_cardinality(t: DominoTableau) -> int:
    """Total letters over all dominoes (X contributes nothing)."""
    return sum(len(fill) for _, fill in t.pieces)


def up_domino_count(t: DominoTableau) -> int:
    return len(t.up_pieces())


def enumerate_domino_tableaux(
    family: Family, shape: Shape, max_letter: int
) -> list[DominoTableau]:
    """All valid domino tableaux with letters <= max_letter, deterministically.

    Unshifted families run over every paving.  Shifted families run over
    shifted pavings grouped by their up region (fills only constrain the up
    region), keeping one representative per equivalence class: the down
    region whose domino list is lexicographically least.
    """
    shape = check_partition(shape)
    if not shape:
        return [DominoTableau(family, (), ())]
    pavings = enumerate_pavings(shape)
    if not pavings:
        raise ValueError(f"shape {shape} is not pavable")
    candidates = _candidate_fills(family, max_letter)

    if family.shifted:
        shifted = [p for p in pavings if is_shifted_paving(p)]
        if not shifted:
            raise ValueError(f"shape {shape} is not shifted pavable")
        groups: dict[tuple[Domino, ...], Paving] = {}
        for p in shifted:
            key = region_split(p).up
            if key not in groups or p.dominoes < groups[key].dominoes:
                groups[key] = p
        out: list[DominoTableau] = []
        for key in sorted(groups):
            out.extend(_fill_paving(family, groups[key], candidates))
        out.sort(key=lambda t: t.pieces)
        return out

    out = []
    for p in pavings:
        out.extend(_fill_paving(family, p, candidates))
    out.sort(key=lambda t: t.pieces)
    return out


def _fill_paving(
    family: Family, paving: Paving, candidates: list[Fill]
) -> list[DominoTableau]:
    """Backtracking fill of one paving in diagonal reading order."""
    order = sorted(paving.dominoes, key=lambda d: (d.crossing(), d.crossing_cell()))
    state = FillState(family)
    out: list[DominoTableau] = []
    by_min: dict[int, list[Fill]] = {}
    for fill in candidates:
        by_min.setdefault(fill[0], []).append(fill)
    max_rank = max(by_min) if by_min else 0

    def min_bound(dom: Domino) -> int:
        # Tightest lower bound on the new fill's minimum from placed
        # neighbours; cheap pruning, the full check still runs on survivors.
        lb = 1
        for r, c in dom.cells():
            for cell, gap in (((r, c - 1), 0), ((r - 1, c), 0 if family.shifted else 1)):
                idx = state.owner.get(cell)
                if idx is None:
                    continue
                other = state.pieces[idx][1]
                if other != X_FILL:
                    lb = max(lb, min(other) + gap)
        return lb

    def rec(idx: int) -> None:
        if idx == len(order):
            out.append(DominoTableau(family, paving.shape, tuple(state.pieces)))
            return
        dom = order[idx]
        if family.shifted and dom.crossing() < 0:
            if state.try_add(dom, X_FILL):
                rec(idx + 1)
                state.pop()
            return
        for m in range(min_bound(dom), max_rank + 1):
            for fill in by_min.get(m, ()):
                if state.try_add(dom, fill):
                    rec(idx + 1)
                    state.pop()

    rec(0)
    return out
