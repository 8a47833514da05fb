"""Command-line surface.

Thin dispatch only: every subcommand parses arguments, calls one library
operation, and prints either canonical or human-readable text.  Exit status
is 0 on success, 1 when a verification fails, 2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from . import canonical
from .bijections import gamma_merge, gamma_split
from .domino_tableaux import DominoTableau, enumerate_domino_tableaux
from .partitions import inverse_two_quotient, is_pavable, two_quotient
from .pavings import enumerate_pavings, is_shifted_pavable
from .polyring import domino_genfun, genfun
from .render import HEADER_PREFIXES, parse_canonical_header, render_ascii, render_latex
from .tableaux import FAMILIES, Tableau, enumerate_tableaux
from .verify import verify_identity, verify_sweep


def _family(name: str):
    if name not in FAMILIES:
        raise ValueError(
            f"unknown family {name!r}; choose from {', '.join(sorted(FAMILIES))}"
        )
    return FAMILIES[name]


def _at_least(value: int, low: int, flag: str) -> int:
    if value < low:
        raise ValueError(f"{flag} must be at least {low}, got {value}")
    return value


def _read_input(path: Optional[str]) -> str:
    if path is None or path == "-":
        return sys.stdin.read()
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc


def _read_value(path: Optional[str]):
    """The value read from canonical JSON, or from a drawing when the first
    non-blank line is its canonical header."""
    text = _read_input(path)
    first = next((line for line in text.splitlines() if line.strip()), "")
    if first.startswith(HEADER_PREFIXES):
        return parse_canonical_header(text)
    return canonical.parse(text)


def _emit(text: str, out: Optional[str]) -> None:
    """Write ``text`` and a newline; a listing of no items writes nothing."""
    text = text + "\n" if text else ""
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {out}: {exc}") from exc


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dominotab",
        description="Domino tableau bijections and generating-function identities",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name: str, **kwargs) -> argparse.ArgumentParser:
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--out", help="write output to FILE instead of stdout")
        return p

    p = add("quotient", help="2-quotient of a partition")
    p.add_argument("--shape", required=True)

    p = add("inverse-quotient", help="pavable preimage of a quotient pair")
    p.add_argument("--shape", required=True)
    p.add_argument("--shape2", required=True)

    p = add("pavable", help="test pavability")
    p.add_argument("--shape", required=True)
    p.add_argument("--family", default="plain")

    p = add("pavings", help="list all domino pavings")
    p.add_argument("--shape", required=True)

    p = add("enumerate", help="list tableaux or domino tableaux")
    p.add_argument("--family", required=True)
    p.add_argument("--shape", required=True)
    p.add_argument("--max-letter", type=int, required=True)
    p.add_argument("--kind", choices=("tableau", "domino"), default="tableau")

    p = add("split", help="split a domino tableau (canonical or rendered input on stdin)")
    p.add_argument("--in", dest="infile", help="input file (default stdin)")

    p = add("merge", help="merge a pair [t1,t2] (canonical input on stdin)")
    p.add_argument("--in", dest="infile", help="input file (default stdin)")

    p = add("genfun", help="generating function of a shape")
    p.add_argument("--family", required=True)
    p.add_argument("--shape", required=True)
    p.add_argument("--vars", type=int, required=True)
    p.add_argument("--domino", action="store_true", help="sum over domino tableaux")
    p.add_argument("--format", choices=("human", "canonical"), default="human")

    p = add("verify", help="verify a product identity (one shape or a sweep)")
    p.add_argument("--family", required=True)
    p.add_argument("--shape")
    p.add_argument("--max-size", type=int)
    p.add_argument("--vars", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--format", choices=("human", "canonical"), default="human")

    p = add("render", help="draw a tableau or domino tableau (canonical or rendered input)")
    p.add_argument("--in", dest="infile", help="input file (default stdin)")
    p.add_argument("--format", choices=("ascii", "latex"), default="ascii")
    return ap


def run(argv: list[str]) -> int:
    args = _build_parser().parse_args(argv)
    cmd = args.command

    if cmd == "quotient":
        q1, q2 = two_quotient(canonical.parse_shape(args.shape))
        _emit(f"({canonical.format_shape(q1)},{canonical.format_shape(q2)})", args.out)
        return 0

    if cmd == "inverse-quotient":
        lam = inverse_two_quotient(
            canonical.parse_shape(args.shape), canonical.parse_shape(args.shape2)
        )
        _emit(canonical.format_shape(lam), args.out)
        return 0

    if cmd == "pavable":
        shape = canonical.parse_shape(args.shape)
        family = _family(args.family)
        result = is_shifted_pavable(shape) if family.shifted else is_pavable(shape)
        _emit("true" if result else "false", args.out)
        return 0

    if cmd == "pavings":
        ps = enumerate_pavings(canonical.parse_shape(args.shape))
        _emit("\n".join(canonical.serialize(p) for p in ps), args.out)
        return 0

    if cmd == "enumerate":
        family = _family(args.family)
        shape = canonical.parse_shape(args.shape)
        max_letter = _at_least(args.max_letter, 1, "--max-letter")
        if args.kind == "domino":
            items = enumerate_domino_tableaux(family, shape, max_letter)
        else:
            items = enumerate_tableaux(family, shape, max_letter)
        _emit("\n".join(canonical.serialize(t) for t in items), args.out)
        return 0

    if cmd == "split":
        obj = _read_value(args.infile)
        if not isinstance(obj, DominoTableau):
            raise ValueError("split expects a domino tableau")
        t1, t2 = gamma_split(obj)
        payload = [canonical.to_jsonable(t1), canonical.to_jsonable(t2)]
        _emit(json.dumps(payload, separators=(",", ":")), args.out)
        return 0

    if cmd == "merge":
        data = canonical.loads(_read_input(args.infile))
        if not isinstance(data, list) or len(data) != 2:
            raise ValueError("merge expects a two-element array [t1,t2]")
        t1 = canonical.from_jsonable(data[0])
        t2 = canonical.from_jsonable(data[1])
        if not isinstance(t1, Tableau) or not isinstance(t2, Tableau):
            raise ValueError("merge expects flat tableaux")
        merged = gamma_merge(t1.family, t1, t2)
        _emit(canonical.serialize(merged), args.out)
        return 0

    if cmd == "genfun":
        family = _family(args.family)
        shape = canonical.parse_shape(args.shape)
        fn = domino_genfun if args.domino else genfun
        poly = fn(family, shape, _at_least(args.vars, 1, "--vars"))
        text = canonical.serialize(poly) if args.format == "canonical" else str(poly)
        _emit(text, args.out)
        return 0

    if cmd == "verify":
        family = _family(args.family)
        if (args.shape is None) == (args.max_size is None):
            raise ValueError("verify needs exactly one of --shape or --max-size")
        n = _at_least(args.vars, 1, "--vars")
        jobs = _at_least(args.jobs, 1, "--jobs")
        if args.shape is not None:
            reports = [verify_identity(family, canonical.parse_shape(args.shape), n)]
        else:
            max_size = _at_least(args.max_size, 0, "--max-size")
            reports = verify_sweep(family, max_size, n, jobs=jobs)
        if args.format == "canonical":
            text = "\n".join(canonical.serialize(r) for r in reports)
        else:
            text = "\n".join(r.line() for r in reports)
        _emit(text, args.out)
        return 0 if all(r.status != "FAIL" for r in reports) else 1

    if cmd == "render":
        obj = _read_value(args.infile)
        if not isinstance(obj, (Tableau, DominoTableau)):
            raise ValueError("render expects a tableau or domino tableau")
        text = render_latex(obj) if args.format == "latex" else render_ascii(obj)
        _emit(text, args.out)
        return 0

    raise ValueError(f"unknown command {cmd!r}")


def main(argv: Optional[list[str]] = None) -> int:
    try:
        code = run(sys.argv[1:] if argv is None else argv)
        sys.stdout.flush()
        return code
    except (ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed the pipe early, as `| head -1` does: stop quietly,
        # with stdout on devnull so the interpreter's final flush cannot raise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
