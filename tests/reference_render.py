"""The renderers that looked cell owners up in dicts, kept as the oracles
for the one-grid renderers.

``_layout`` maps each cell to its piece and each piece to its cells and
fill.  ``render_ascii`` below asks four wall predicates of it at every
junction, and ``render_latex`` places walls, labels and diagonal runs from
it; ``tests/test_differential.py`` checks the library's renderers against
both byte for byte.
"""

from __future__ import annotations

from dominotab.canonical import serialize
from dominotab.domino_tableaux import DominoTableau
from dominotab.partitions import Shape
from dominotab.render import HEADER_PREFIXES, Renderable
from dominotab.tableaux import Fill, Tableau, format_fill


def _layout(obj: Renderable) -> tuple[Shape, dict, dict]:
    """(shape, cell -> piece id, piece id -> (cells, fill))."""
    owner: dict[tuple[int, int], int] = {}
    pieces: dict[int, tuple[tuple[tuple[int, int], ...], Fill]] = {}
    if isinstance(obj, Tableau):
        i = 0
        for r, c, fill in obj.cells_with_fills():
            owner[(r, c)] = i
            pieces[i] = (((r, c),), fill)
            i += 1
    else:
        for i, (dom, fill) in enumerate(obj.pieces):
            for cell in dom.cells():
                owner[cell] = i
            pieces[i] = (dom.cells(), fill)
    return obj.shape, owner, pieces


def render_ascii(obj: Renderable) -> str:
    shape, owner, pieces = _layout(obj)
    header = "# canonical: " + serialize(obj)
    if not shape:
        return header + "\n(empty)"
    width = max(len(format_fill(f)) for _, f in pieces.values()) + 2
    ncols = shape[0]
    nrows = len(shape)

    def wall_right(r: int, c: int) -> bool:
        a, b = owner.get((r, c)), owner.get((r, c + 1))
        if a is None and b is None:
            return False
        return a != b

    def wall_below(r: int, c: int) -> bool:
        a, b = owner.get((r, c)), owner.get((r + 1, c))
        if a is None and b is None:
            return False
        return a != b

    def junction(r: int, c: int) -> str:
        horiz = wall_below(r, c) or wall_below(r, c + 1)
        vert = wall_right(r, c) or wall_right(r + 1, c)
        if horiz and vert:
            return "+"
        if vert:
            return "|"
        if horiz:
            return "-"
        return " "

    lines = []
    for r in range(0, nrows + 1):
        border = ""
        for c in range(1, ncols + 1):
            border += junction(r, c - 1) + ("-" if wall_below(r, c) else " ") * width
        lines.append((border + junction(r, ncols)).rstrip())
        if r == nrows:
            break
        row_cells = shape[r] if r < nrows else 0
        body = ""
        c = 1
        while c <= ncols:
            body += "|" if wall_right(r + 1, c - 1) else " "
            if c > row_cells:
                body += " " * width
                c += 1
                continue
            idx = owner[(r + 1, c)]
            cells, fill = pieces[idx]
            text = format_fill(fill)
            if len(cells) == 2 and cells[0][0] == cells[1][0] and cells[0] == (r + 1, c):
                # horizontal domino: centre the label across both cells
                body += text.center(2 * width + 1)
                c += 2
                continue
            if len(cells) == 2 and cells[0][1] == cells[1][1] and cells[1] == (r + 1, c):
                body += " " * width  # vertical domino: label lives in the top cell
            else:
                body += text.center(width)
            c += 1
        body += "|" if wall_right(r + 1, ncols) else " "
        lines.append(body.rstrip())
    return header + "\n" + "\n".join(lines)


def _tex_math(fill: Fill) -> str:
    text = format_fill(fill)
    return "$" + text.replace("{", r"\{").replace("}", r"\}") + "$"


def _fmt(x: float) -> str:
    return f"{x:.2f}".rstrip("0").rstrip(".")


def render_latex(obj: Renderable) -> str:
    """Standalone picture-environment source with dashed even diagonals."""
    shape, owner, pieces = _layout(obj)
    out = [HEADER_PREFIXES[1] + serialize(obj)]
    if not shape:
        out.append("% (empty)")
        return "\n".join(out)
    nrows, ncols = len(shape), shape[0]
    out.append(r"\setlength{\unitlength}{22pt}")
    out.append(rf"\begin{{picture}}({ncols + 3},{nrows + 2})(0,-1)")

    def pt(r: int, c: int) -> tuple[float, float]:
        # NW corner of cell (r, c).
        return (float(c - 1), float(nrows - r + 1))

    walls: list[str] = []
    for (r, c), idx in sorted(owner.items()):
        x, y = pt(r, c)
        if owner.get((r - 1, c)) != idx:
            walls.append(rf"\put({_fmt(x)},{_fmt(y)}){{\line(1,0){{1}}}}")
        if owner.get((r + 1, c)) != idx:
            walls.append(rf"\put({_fmt(x)},{_fmt(y - 1)}){{\line(1,0){{1}}}}")
        if owner.get((r, c - 1)) != idx:
            walls.append(rf"\put({_fmt(x)},{_fmt(y - 1)}){{\line(0,1){{1}}}}")
        if owner.get((r, c + 1)) != idx:
            walls.append(rf"\put({_fmt(x + 1)},{_fmt(y - 1)}){{\line(0,1){{1}}}}")
    out.extend(dict.fromkeys(walls))

    for cells, fill in pieces.values():
        rows = [r for r, _ in cells]
        cols = [c for _, c in cells]
        x = (min(cols) - 1 + max(cols)) / 2
        y = nrows - (min(rows) - 1 + max(rows)) / 2
        out.append(rf"\put({_fmt(x)},{_fmt(y)}){{\makebox(0,0){{{_tex_math(fill)}}}}}")

    if isinstance(obj, DominoTableau):
        diags = sorted({d.crossing() for d, _ in obj.pieces})
        for d in diags:
            r0 = max(1, 1 - d)
            run = 0
            while (r0 + run, r0 + run + d) in owner:
                run += 1
            x0, y0 = pt(r0, r0 + d)
            steps = 4 * run + 4
            out.append(
                rf"\multiput({_fmt(x0)},{_fmt(y0)})(0.25,-0.25){{{steps}}}{{\line(1,-1){{0.12}}}}"
            )
            xl = x0 + 0.25 * steps + 0.15
            yl = y0 - 0.25 * steps - 0.15
            out.append(
                rf"\put({_fmt(xl)},{_fmt(yl)}){{\makebox(0,0)[l]{{$D_{{{d}}}$}}}}"
            )
    out.append(r"\end{picture}")
    return "\n".join(out)
