"""Span tracing for the traced benchmark pass.

The tracer wraps each layer function at the module attribute its caller looks
it up through (``dominotab.polyring.enumerate_domino_tableaux``, say), so
nothing under ``src/`` changes.  Each wrapped call made during an op records
a span: name, start, end, parent span and op id.  Spans stay in memory until
the pass ends; a layer's self time is its span durations minus the time its
child spans cover.  ``FillState.check`` runs millions of times per pass, so
it is counted (calls and accepts, keyed by the enclosing span) without spans.
Untraced passes never import this module.
"""

from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from time import perf_counter

# (module the caller looks the name up in, attribute, span name).  One span
# name may be patched in several modules because each caller module holds its
# own reference after ``from .x import f``.
PATCHES = [
    ("dominotab.verify", "verify_identity", "verify.verify_identity"),
    ("dominotab.verify", "genfun", "polyring.genfun"),
    ("dominotab.verify", "domino_genfun", "polyring.domino_genfun"),
    ("dominotab.verify", "two_quotient", "partitions.two_quotient"),
    ("dominotab.partitions", "two_quotient", "partitions.two_quotient"),
    ("dominotab.pavings", "two_quotient", "partitions.two_quotient"),
    ("dominotab.pavings", "enumerate_pavings", "pavings.enumerate_pavings"),
    ("dominotab.domino_tableaux", "enumerate_pavings", "pavings.enumerate_pavings"),
    ("dominotab.pavings", "is_shifted_paving", "pavings.is_shifted_paving"),
    ("dominotab.domino_tableaux", "is_shifted_paving", "pavings.is_shifted_paving"),
    ("dominotab.polyring", "enumerate_tableaux", "tableaux.enumerate_tableaux"),
    (
        "dominotab.polyring",
        "enumerate_domino_tableaux",
        "domino_tableaux.enumerate_domino_tableaux",
    ),
    ("dominotab.bijections", "validate_domino_tableau", "domino_tableaux.validate"),
    (
        "dominotab.bijections",
        "tableau_from_reading_word",
        "tableaux.tableau_from_reading_word",
    ),
    ("dominotab.bijections", "validate_tableau", "tableaux.validate_tableau"),
    ("dominotab.tableaux", "validate_tableau", "tableaux.validate_tableau"),
    ("dominotab.bijections", "gamma_split", "bijections.gamma_split"),
    ("dominotab.bijections", "gamma_merge", "bijections.gamma_merge"),
    ("dominotab.canonical", "parse", "canonical.parse"),
    ("dominotab.canonical", "from_jsonable", "canonical.from_jsonable"),
    ("dominotab.canonical", "to_jsonable", "canonical.to_jsonable"),
    ("dominotab.canonical", "serialize", "canonical.serialize"),
    ("dominotab.render", "serialize", "canonical.serialize"),
    ("dominotab.render", "render_ascii", "render.render_ascii"),
]

# Spans whose FillState.check calls are tallied separately.
CHECK_OWNERS = {
    "domino_tableaux.enumerate_domino_tableaux": "enumerate",
    "bijections.gamma_merge": "merge",
    "domino_tableaux.validate": "validate",
}


def _count_output(counts: Counter, name: str, args: tuple, result) -> None:
    """Work counters taken from a layer call's arguments and result."""
    if name == "pavings.enumerate_pavings":
        counts["pavings_out"] += len(result)
    elif name == "pavings.is_shifted_paving":
        counts["shifted_checked"] += 1
        counts["shifted_accepted"] += bool(result)
    elif name == "tableaux.enumerate_tableaux":
        counts["tableaux_out"] += len(result)
    elif name == "domino_tableaux.enumerate_domino_tableaux":
        counts["dt_out"] += len(result)
    elif name in ("polyring.genfun", "polyring.domino_genfun"):
        counts["terms_out"] += len(result.terms)
    elif name == "polyring.mul":
        counts["term_pairs"] += len(args[0].terms) * len(args[1].terms)
        counts["terms_out"] += len(result.terms)
    elif name == "canonical.parse":
        counts["bytes"] += len(args[0])
    elif name == "canonical.serialize":
        counts["bytes"] += len(result)
    elif name == "render.render_ascii":
        counts["chars_out"] += len(result)


class Tracer:
    """Span recorder for one pass; ``op`` is the id of the op in flight."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.stack: list[int] = []
        self.op = None
        self.counts: Counter = Counter()
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self.stack, self.counts

        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            # The span brackets the wrapper's own work too, so tracing cost
            # lands in the layer that caused it rather than between spans.
            span = [name, perf_counter(), 0.0, stack[-1] if stack else None, self.op]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                _count_output(counts, name, args, result)
                return result
            finally:
                stack.pop()
                span[2] = perf_counter()

        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, extra=()) -> None:
        """Patch every layer; ``extra`` adds (owner, attribute, span name)
        triples for harness steps that belong to no module of the program."""
        from dominotab.domino_tableaux import FillState
        from dominotab.polyring import Polynomial

        wrapped: dict[int, object] = {}
        for module_name, attr, name in PATCHES:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            if id(fn) not in wrapped:
                wrapped[id(fn)] = self._wrap(name, fn)
            self._patch(module, attr, wrapped[id(fn)])
        self._patch(Polynomial, "__mul__", self._wrap("polyring.mul", Polynomial.__mul__))
        for owner, attr, name in extra:
            self._patch(owner, attr, self._wrap(name, getattr(owner, attr)))

        check = FillState.check
        spans, stack, counts = self.spans, self.stack, self.counts

        def counted_check(state, dom, fill):
            ok = check(state, dom, fill)
            owner = CHECK_OWNERS.get(spans[stack[-1]][0]) if stack else None
            if owner:
                counts[owner + "_checks"] += 1
                counts[owner + "_accepts"] += ok
            return ok

        self._patch(FillState, "check", counted_check)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def summary(self, op_seconds: list[float]) -> dict:
        """Per-layer totals for the pass, plus the share of each op's time
        that layer spans cover (the rest is harness glue)."""
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        covered = [0.0] * len(op_seconds)
        for name, start, end, parent, op in self.spans:
            dur = end - start
            self_s[name] += dur
            calls[name] += 1
            if parent is None:
                covered[op] += dur
            else:
                self_s[self.spans[parent][0]] -= dur
        coverage = sorted(c / t for c, t in zip(covered, op_seconds) if t > 0)
        return {
            "self_s": dict(self_s),
            "calls": dict(calls),
            "counts": dict(self.counts),
            "spans": len(self.spans),
            "min_coverage": coverage[0] if coverage else 0.0,
            "median_coverage": coverage[len(coverage) // 2] if coverage else 0.0,
        }
