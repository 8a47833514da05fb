"""The ASCII renderer that asked four wall predicates at every junction,
kept as the oracle for the one-grid renderer.

``render_ascii`` below looks up the owner of both cells beside a wall on
every call; ``tests/test_differential.py`` checks the library's renderer
against it byte for byte.
"""

from __future__ import annotations

from dominotab.canonical import serialize
from dominotab.render import Renderable, _layout
from dominotab.tableaux import format_fill


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
