"""ASCII and LaTeX renderers for tableaux and domino tableaux.

Both modes begin with a comment line holding the canonical serialisation, so
rendered output is self-describing and machine-recoverable:
``parse_canonical_header`` reads it back, and the ``split`` and ``render``
commands take a drawing as input through it.

``render_ascii`` draws in one pass over one owner grid, with each piece's
label formatted once; ``render_latex`` places walls and labels from
``_layout``.
"""

from __future__ import annotations

from .canonical import serialize
from .domino_tableaux import DominoTableau
from .partitions import Shape
from .tableaux import Fill, Tableau, format_fill

Renderable = Tableau | DominoTableau

# The comment prefixes of the canonical header line, ASCII and LaTeX.
HEADER_PREFIXES = ("# canonical: ", "% canonical: ")


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
    header = HEADER_PREFIXES[0] + serialize(obj)
    shape = obj.shape
    if not shape:
        return header + "\n(empty)"
    ncols = shape[0]
    # ids[r][c]: the piece owning cell (r, c), -1 outside the shape, so on
    # the frame of rows 0, nrows+1 and columns 0, ncols+1, ncols+2 too.
    ids = [[-1] * (ncols + 3) for _ in range(len(shape) + 2)]
    labels: list[str] = []  # piece id -> its fill's text
    if isinstance(obj, Tableau):
        for r, c, fill in obj.cells_with_fills():
            ids[r][c] = len(labels)
            labels.append(format_fill(fill))
    else:
        for i, (dom, fill) in enumerate(obj.pieces):
            for r, c in dom.cells():
                ids[r][c] = i
            labels.append(format_fill(fill))
    width = max(map(len, labels)) + 2
    dash, blank = "-" * width, " " * width

    lines = [header]
    for up, down in zip(ids, ids[1:]):
        # The border above row `down`: at each junction a wall runs across
        # (-) where a cell differs from the one below it, and down (|) where
        # a cell differs from its right neighbour.
        line = []
        for nw, ne, sw, se in zip(up, up[1:], down, down[1:]):
            line.append(" |-+"[2 * (nw != sw or ne != se) + (nw != ne or sw != se)])
            line.append(dash if ne != se else blank)
        lines.append("".join(line).rstrip())
        if down is ids[-1]:
            break
        # The cells of row `down`.  A horizontal domino centres its label
        # across both cells, a vertical one puts it in its top cell.
        line = []
        for left, i, right, over in zip(down, down[1:], down[2:], up[1:]):
            if i == left != -1:
                continue  # the second cell of a horizontal domino
            line.append(" " if i == left else "|")
            if i == -1 or i == over:
                line.append(blank)
            elif i == right:
                line.append(labels[i].center(2 * width + 1))
            else:
                line.append(labels[i].center(width))
        lines.append("".join(line).rstrip())
    return "\n".join(lines)


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


def parse_canonical_header(text: str) -> Renderable:
    """Recover the rendered object from the embedded canonical comment."""
    from .canonical import parse

    for line in text.splitlines():
        for prefix in HEADER_PREFIXES:
            if line.startswith(prefix):
                return parse(line[len(prefix):])
    raise ValueError("no canonical header found")
