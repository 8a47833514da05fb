"""Canonical text format: order-normalised JSON for every domain value.

Keys appear in a fixed order and semantically unordered arrays are sorted, so
equal values always serialise to identical bytes.  Partitions render as bare
integer arrays like [4,2,2,1,1,1]; a fill as "X" or as an array of letters
such as ["3"] or ["1'","3"].  A letter is read as ASCII digits of value at
least 1 with an optional trailing prime, blanks around it ignored, and is
always written back without blanks or leading zeros, so the text of a value
does not depend on how its input spelled it.
"""

from __future__ import annotations

import json
from typing import Any

from .partitions import Shape, check_partition
from .pavings import Domino, Paving, domino
from .domino_tableaux import DominoTableau, make_domino_tableau
from .polyring import Polynomial
from .tableaux import (
    FAMILIES,
    Family,
    Fill,
    Tableau,
    X_FILL,
    format_letter,
    make_tableau,
    parse_letter,
)
from .verify import VerificationReport


def _fill_out(fill: Fill) -> Any:
    return list(map(format_letter, fill)) if fill else "X"


def _fill_in(data: Any) -> Fill:
    if data == "X":
        return X_FILL
    if not isinstance(data, list) or not data or not all(isinstance(x, str) for x in data):
        raise ValueError(f"bad fill: {data!r}")
    return tuple(sorted(map(parse_letter, data)))


def _field(data: Any, key: str, kind: type = object) -> Any:
    """data[key], raising ValueError unless it is present and of the kind."""
    if not isinstance(data, dict) or key not in data:
        raise ValueError(f"missing key {key!r} in {data!r}")
    value = data[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"bad {key!r}: {value!r}")
    return value


def _domino_in(data: Any) -> Domino:
    if _field(data, "orient", str) not in ("H", "V"):
        raise ValueError(f"bad 'orient': {data['orient']!r}")
    return domino(_field(data, "row", int), _field(data, "col", int), data["orient"] == "H")


def to_jsonable(obj: Any) -> Any:
    if isinstance(obj, Tableau):
        return {
            "family": obj.family.name,
            "shape": list(obj.shape),
            "rows": [[_fill_out(f) for f in row] for row in obj.rows],
        }
    if isinstance(obj, DominoTableau):
        return {
            "family": obj.family.name,
            "shape": list(obj.shape),
            "dominoes": [
                {
                    "row": d.row,
                    "col": d.col,
                    "orient": "H" if d.horiz else "V",
                    "fill": _fill_out(f),
                }
                for d, f in obj.pieces
            ],
        }
    if isinstance(obj, Paving):
        return {
            "shape": list(obj.shape),
            "dominoes": [
                {"row": d.row, "col": d.col, "orient": "H" if d.horiz else "V"}
                for d in obj.dominoes
            ],
        }
    if isinstance(obj, Polynomial):
        return {
            "n": obj.n,
            "terms": [
                {"exps": list(m), "coeff": c} for m, c in obj.sorted_terms()
            ],
        }
    if isinstance(obj, VerificationReport):
        return {
            "family": obj.family.name,
            "lambda": list(obj.lam),
            "mu": None if obj.mu is None else list(obj.mu),
            "nu": None if obj.nu is None else list(obj.nu),
            "n": obj.n,
            "status": obj.status,
            "first_diff": None
            if obj.first_diff is None
            else {
                "exps": list(obj.first_diff[0]),
                "lhs": obj.first_diff[1],
                "rhs": obj.first_diff[2],
            },
            "lhs": None if obj.lhs is None else to_jsonable(obj.lhs),
            "rhs": None if obj.rhs is None else to_jsonable(obj.rhs),
            "elapsed_us": obj.elapsed_us,
        }
    raise TypeError(f"cannot serialise {type(obj).__name__}")


def serialize(obj: Any) -> str:
    return json.dumps(to_jsonable(obj), separators=(",", ":"))


def _family(data: dict) -> Family:
    name = data.get("family")
    if not isinstance(name, str) or name not in FAMILIES:
        raise ValueError(f"unknown family: {name!r}")
    return FAMILIES[name]


def from_jsonable(data: Any) -> Any:
    """Rebuild a domain value, raising ValueError on any malformed structure."""
    if not isinstance(data, dict):
        raise ValueError("expected a JSON object")
    if "rows" in data:
        rows = _field(data, "rows", list)
        if not all(isinstance(row, list) for row in rows):
            raise ValueError(f"bad 'rows': {rows!r}")
        return make_tableau(
            _family(data),
            _field(data, "shape", list),
            [[_fill_in(f) for f in row] for row in rows],
        )
    if "dominoes" in data and "family" in data:
        pieces = [
            (_domino_in(d), _fill_in(_field(d, "fill")))
            for d in _field(data, "dominoes", list)
        ]
        return make_domino_tableau(_family(data), _field(data, "shape", list), pieces)
    if "dominoes" in data:
        return Paving(
            check_partition(_field(data, "shape", list)),
            tuple(_domino_in(d) for d in _field(data, "dominoes", list)),
        )
    if "terms" in data:
        terms = {}
        for t in _field(data, "terms", list):
            m = tuple(_field(t, "exps", list))
            if not all(isinstance(e, int) and not isinstance(e, bool) for e in m):
                raise ValueError(f"bad 'exps': {list(m)!r}")
            if m in terms:
                raise ValueError("duplicate monomial")
            terms[m] = _field(t, "coeff", int)
        n = _field(data, "n", int)
        if n < 0:
            raise ValueError(f"bad 'n': {n!r}")
        return Polynomial(n, terms)
    raise ValueError("unrecognised object")


def loads(text: str) -> Any:
    """``json.loads``, with nesting too deep to parse as a ValueError."""
    try:
        return json.loads(text)
    except RecursionError as exc:
        raise ValueError("JSON nested too deeply") from exc


def parse(text: str) -> Any:
    return from_jsonable(loads(text))


def format_shape(shape: Shape) -> str:
    return "[" + ",".join(map(str, shape)) + "]"


def parse_shape(text: str) -> Shape:
    """The shape ``[a,b,c]``, each part ASCII digits with optional spaces
    around them, or ``[]``."""
    text = text.strip()
    inner = text[1:-1].strip()
    parts = [p.strip() for p in inner.split(",")] if inner else []
    if not (text.startswith("[") and text.endswith("]")) or not all(
        p.isascii() and p.isdigit() for p in parts
    ):
        raise ValueError(f"shape must look like [4,2,1]: {text!r}")
    return check_partition(int(p) for p in parts)
