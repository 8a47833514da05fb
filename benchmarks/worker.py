"""One benchmark pass in a fresh process.

    python3 benchmarks/worker.py --workload NAME --seed N [--traced]
    python3 benchmarks/worker.py --probe NAME

A pass builds the workload's inputs from the seed, runs every op once on one
thread with one op in flight, checks every output, and prints one JSON line.
No op repeats inside a process, so a cache inside the program cannot score on
repeated inputs.  ``setup_s`` runs from just after the first reference
timing, before the imports, so it covers the imports and the input
generation.
"""

import gc
import time


def reference_work():
    """Fixed pure-Python work that touches nothing of dominotab.  Its time,
    taken before set-up and at fixed points of the op loop, records how fast
    the machine ran; bench.py scales the pass's times by it."""
    seen, totals, acc = set(), {}, 0
    for i in range(2000):
        key = (i % 97, i % 89)
        totals[key] = totals.get(key, 0) + i
        if key in seen:
            acc += 1
        else:
            seen.add(key)
        acc += sorted((i % 7, i % 5, i % 3))[0]
    return acc


# The reference loop is timed REFERENCE_REPS runs a time before every
# stride-th op (about REFERENCE_POINTS points) and once after the last op, so
# each block of ``stride`` ops has a reference time on either side.  The
# points are fixed by op index, not by the clock, so every pass of a workload
# runs the same sequence of allocations.
REFERENCE_POINTS = 32
REFERENCE_REPS = 2


def reference_s():
    """Mean time of one reference_work over REFERENCE_REPS runs, in seconds.
    The collector is off meanwhile, so the program's heap does not change it."""
    gc.disable()
    start = time.perf_counter()
    for _ in range(REFERENCE_REPS):
        reference_work()
    elapsed = time.perf_counter() - start
    gc.enable()
    return elapsed / REFERENCE_REPS


SETUP_REFERENCE_S = reference_s()
T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from dominotab import bijections, canonical, render, verify  # noqa: E402
from dominotab.domino_tableaux import (  # noqa: E402
    enumerate_domino_tableaux,
    up_fingerprint,
)
from dominotab.pavings import is_shifted_pavable  # noqa: E402
from dominotab.tableaux import FAMILIES  # noqa: E402

# verify workloads: (family, max size, variables, pavable shapes expected).
# The expected counts include the empty shape and are the reference the
# checks use; they do not come from the code under test.
VERIFY_GROUPS = {
    "verify-unshifted": [
        ("plain", 18, 3, 734),
        ("set-valued", 10, 3, 74),
    ],
    "verify-shifted": [
        ("shifted", 14, 3, 62),
        ("shifted-set-valued", 12, 2, 42),
    ],
}
# Spot shapes run as extra ops: (family, shape, variables).
VERIFY_SPOTS = {"verify-shifted": [("shifted-set-valued", (6, 5, 5, 4), 2)]}

# roundtrip pools, as in acceptance criterion 3: (family, max size, letters,
# domino tableaux expected in the pool).
ROUNDTRIP_POOLS = [
    ("plain", 12, 3, 2827),
    ("set-valued", 8, 3, 2103),
    ("shifted", 12, 2, 1720),
    ("shifted-set-valued", 12, 2, 25317),
]
ROUNDTRIP_PER_FAMILY = 1000

# Scale probes: (family, shape, variables).  Off the gated path.
PROBES = {
    "gq-6554-n3": ("shifted-set-valued", (6, 5, 5, 4), 3),
    "q-8776-n3": ("shifted", (8, 7, 7, 6), 3),
}


def partitions(max_size):
    """Every partition of size 0..max_size, sizes ascending."""

    def rec(remaining, limit, prefix):
        if remaining == 0:
            yield prefix
            return
        for part in range(min(limit, remaining), 0, -1):
            yield from rec(remaining - part, part, prefix + (part,))

    for n in range(max_size + 1):
        yield from rec(n, n, ())


def pavable(shape):
    """A Young diagram tiles by dominoes iff its checkerboard colouring is
    balanced (its 2-core is empty); computed here so the op list does not
    depend on the code under test."""
    return sum(
        1 if (r + c) % 2 == 0 else -1 for r, length in enumerate(shape) for c in range(length)
    ) == 0


def pavable_shapes(family, max_size):
    shapes = [lam for lam in partitions(max_size) if pavable(lam)]
    if family.shifted:
        shapes = [lam for lam in shapes if not lam or is_shifted_pavable(lam)]
    return shapes


# ---- verify workloads ---------------------------------------------------


def verify_setup(workload, rng):
    ops, groups = [], []
    for name, max_size, n, expected in VERIFY_GROUPS[workload]:
        shapes = pavable_shapes(FAMILIES[name], max_size)
        label = f"{name} size<={max_size} n={n}"
        groups.append([label, expected])
        ops += [(label, FAMILIES[name], lam, n) for lam in shapes]
    for name, lam, n in VERIFY_SPOTS.get(workload, []):
        label = f"{name} {list(lam)} n={n}"
        groups.append([label, 1])
        ops.append((label, FAMILIES[name], lam, n))
    rng.shuffle(ops)
    return ops, groups


def verify_op(op):
    _, family, lam, n = op
    return verify.verify_identity(family, lam, n)


def verify_ok(op, report):
    return report.status == "PASS" and report.lam == op[2]


# ---- roundtrip workload -------------------------------------------------


def roundtrip_setup(rng):
    ops, groups = [], []
    for name, max_size, letters, expected in ROUNDTRIP_POOLS:
        family = FAMILIES[name]
        pool = []
        for lam in pavable_shapes(family, max_size):
            if lam:
                pool += enumerate_domino_tableaux(family, lam, letters)
        # Order the pool by value so the seed picks the same tableaux even
        # if enumeration order changes.
        pool.sort(key=lambda t: (t.shape, t.pieces))
        label = f"{name} size<={max_size} letters={letters}"
        groups.append([label, ROUNDTRIP_PER_FAMILY])
        if len(pool) != expected:
            raise RuntimeError(f"{label}: pool has {len(pool)} tableaux, expected {expected}")
        for t in rng.sample(pool, ROUNDTRIP_PER_FAMILY):
            ops.append((label, t, canonical.serialize(t)))
    rng.shuffle(ops)
    return ops, groups


def pair_json(t1, t2):
    """The pair as ``dominotab split`` writes it and ``merge`` reads it."""
    text = json.dumps(
        [canonical.to_jsonable(t1), canonical.to_jsonable(t2)], separators=(",", ":")
    )
    return json.loads(text)


def roundtrip_op(op):
    """enumerate | split | merge | render, as the CLI runs it, in-process."""
    t = canonical.parse(op[2])
    pair = pair_json(*bijections.gamma_split(t))
    merged = bijections.gamma_merge(
        t.family, canonical.from_jsonable(pair[0]), canonical.from_jsonable(pair[1])
    )
    return merged, canonical.serialize(merged), render.render_ascii(merged)


def roundtrip_ok(op, out):
    _, original, text = op
    merged, merged_text, picture = out
    if original.family.shifted:
        same = up_fingerprint(merged) == up_fingerprint(original)
    else:
        same = merged == original and merged_text == text
    return same and render.parse_canonical_header(picture) == merged


# ---- pass ---------------------------------------------------------------


def run_pass(workload, seed, traced):
    rng = random.Random(seed)
    if workload == "roundtrip":
        ops, groups = roundtrip_setup(rng)
        run_op, op_ok = roundtrip_op, roundtrip_ok
    else:
        ops, groups = verify_setup(workload, rng)
        run_op, op_ok = verify_op, verify_ok
    setup_s = time.perf_counter() - T0

    tracer = None
    if traced:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(extra=[(sys.modules[__name__], "pair_json", "cli.pair_json")])
    lat, failures = [], []
    passed = {label: 0 for label, _ in groups}
    refs = []
    stride = max(1, len(ops) // REFERENCE_POINTS)
    for i, op in enumerate(ops):
        if i % stride == 0:
            refs.append(reference_s())
        if tracer:
            tracer.op = i
        start = time.perf_counter()
        try:
            out = run_op(op)
            error = None
        except Exception as exc:  # an op that raises counts as failed
            error = f"{type(exc).__name__}: {exc}"
        lat.append(time.perf_counter() - start)
        if tracer:
            tracer.op = None
        if error is None and not op_ok(op, out):
            error = "output check failed"
        if error is None:
            passed[op[0]] += 1
        elif len(failures) < 10:
            failures.append(f"op {i} ({op[0]}): {error}")
    refs.append(reference_s())
    if tracer:
        tracer.uninstall()

    group_report = [[label, passed[label], expected] for label, expected in groups]
    result = {
        "setup_s": setup_s,
        "lat_ms": [x * 1e3 for x in lat],
        "attempted": len(ops),
        "failed": len(ops) - sum(passed.values()),
        "groups": group_report,
        "failures": failures,
        "setup_reference_s": SETUP_REFERENCE_S,
        "reference_s": refs,
        "reference_stride": stride,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        result["trace"] = tracer.summary(lat)
    return result


def run_probe(name):
    family, lam, n = PROBES[name]
    start = time.perf_counter()
    report = verify.verify_identity(FAMILIES[family], lam, n)
    return {"status": report.status, "elapsed_s": time.perf_counter() - start}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=["roundtrip", *VERIFY_GROUPS])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--probe", choices=sorted(PROBES))
    args = ap.parse_args()
    if args.probe:
        out = run_probe(args.probe)
    else:
        out = run_pass(args.workload, args.seed, args.traced)
    print(json.dumps(out, separators=(",", ":")))


if __name__ == "__main__":
    main()
