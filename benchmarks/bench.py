"""dominotab benchmark: verify sweeps and the split|merge|render pipeline.

    python3 benchmarks/bench.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/bench.py --workload all --seed N --seconds S --trace 0|1
    python3 benchmarks/bench.py --compare A.json B.json
    python3 benchmarks/bench.py --probes

Run from the repository root; stdlib only.  A run repeats passes of the
workload for about ``--seconds`` seconds.  Each pass is a fresh process
(``worker.py``) that sets up its inputs from the seed and runs every op once,
closed loop, one op in flight, so no op repeats inside a process.  Each pass
also times a fixed pure-Python reference loop at fixed points through its op
loop (``reference_ms``).  The end-to-end times are scaled to a host on which that
loop takes REFERENCE_MS, pass by pass, so a slow phase of a shared machine
does not read as a slow program; every end-to-end metric is the median of its
per-pass values, and the unscaled median is printed and stored beside it
(see ``end_to_end``).

Workloads (all single-threaded; the sweep's ``jobs>1`` mode is left out
because on a two-core machine it would measure the scheduler):

* ``verify-unshifted``: ``verify_identity`` on every pavable shape up to size
  18 (plain, n=3) and 10 (set-valued, n=3), 808 ops in seeded order.  Many
  small shapes, so per-shape overheads (pavings, flat genfun, product) show.
* ``verify-shifted``: every shifted-pavable shape up to size 14 (shifted,
  n=3) and 12 (shifted set-valued, n=2), plus GQ (6,5,5,4) with n=2, 105
  ops.  Dominated by the ``FillState`` search in domino enumeration.  Not
  in BENCHMARK.json's gated list: a pass takes 10-20 s, half of it one op,
  so a run gets only a few passes, and a third gated workload would not fit
  the gated runs' time budget; run it by name or through ``--workload all``.
* ``roundtrip``: parse, split, pair JSON, merge, serialize and render, one
  tableau per op, 1000 per family drawn by the seed from the criterion-3
  pools (about 32 k domino tableaux, enumerated in set-up).  Bypasses
  ``domino_genfun``; stresses validation and merge.

With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics (see tracing.py) and the tracing overhead.  The last line
of standard output is the JSON result; the full record, with run metadata and
per-pass samples, goes to ``--out`` (default ``.bench_results/``).
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("verify-unshifted", "verify-shifted", "roundtrip")
RUN_LIMIT_S = 170  # a run must end well inside three minutes
MIN_PASSES = 3
COLD_START_RUNS = 5
PROBE_MEMORY_BYTES = 2 << 30
PROBE_TIMEOUT_S = 120
REFERENCE_MS = 1.0  # host speed the end-to-end times are scaled to


def fail(message: str, code: int = 2) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        fail(f"cannot read {path}: {exc}")


def percentile(values: list[float], pct: int) -> float:
    """The pct-th percentile (statistics.quantiles, exclusive method)."""
    return statistics.quantiles(values, n=100)[pct - 1]


def relative_spread(samples: list[float]) -> float:
    """Interquartile range over median; the full range for under 4 samples."""
    med = statistics.median(samples)
    if not med:
        return 0.0
    if len(samples) < 4:
        return (max(samples) - min(samples)) / abs(med)
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / abs(med)


# ---- metadata -----------------------------------------------------------


def src_digest() -> str:
    """SHA-256 over the package sources, for checkouts that are not git."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "dominotab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def metadata(args) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "started_unix": time.time(),
        "seed": args.seed,
        "seconds": args.seconds,
    }


# ---- passes -------------------------------------------------------------


def run_worker(argv: list[str], timeout: float, memory_limit: int | None = None):
    """Run worker.py to completion; (parsed last line or None, elapsed, stderr)."""

    def limit_memory():
        import resource

        resource.setrlimit(resource.RLIMIT_AS, (memory_limit, memory_limit))

    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), *argv],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=timeout,
            preexec_fn=limit_memory if memory_limit else None,
        )
    except subprocess.TimeoutExpired:
        return None, time.perf_counter() - start, "timeout"
    elapsed = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, elapsed, proc.stderr.strip()[-2000:]
    return json.loads(lines[-1]), elapsed, proc.stderr


def cold_start_ms() -> tuple[list[float], bool]:
    """Times of ``python -m dominotab.cli quotient --shape [2]``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    times, ok = [], True
    for _ in range(COLD_START_RUNS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "dominotab.cli", "quotient", "--shape", "[2]"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        times.append((time.perf_counter() - start) * 1e3)
        # (2) is one horizontal domino whose even content is the smaller one:
        # a type-2 domino, so the 2-quotient is ((), (1)).
        ok = ok and proc.returncode == 0 and proc.stdout.strip() == "([],[1])"
    return times, ok


def run_passes(workload: str, seed: int, seconds: float, trace: bool, run_start: float):
    """Passes for about ``seconds``, at least MIN_PASSES: untraced, or with
    trace untraced and traced in turn.  Another pass starts while it is
    expected to end within ``seconds``."""
    passes, elapsed = [], []
    while True:
        traced = trace and len(passes) % 2 == 1
        argv = ["--workload", workload, "--seed", str(seed)] + (["--traced"] if traced else [])
        budget = RUN_LIMIT_S - (time.perf_counter() - run_start)
        out, took, err = run_worker(argv, timeout=max(budget, 1.0))
        if out is None:
            fail(f"{workload} pass {len(passes)} failed: {err}", code=1)
        out["traced"] = traced
        passes.append(out)
        elapsed.append(took)
        next_end = time.perf_counter() - run_start + sum(elapsed) / len(elapsed)
        if len(passes) >= MIN_PASSES and next_end > seconds:
            return passes


# ---- metrics ------------------------------------------------------------


def setup_scale(p: dict) -> float:
    """REFERENCE_MS over the pass's mean reference time, the one taken before
    set-up included: the factor that brings the pass's set-up time to a host
    on which reference_work takes REFERENCE_MS.  The two reference times
    around set-up alone are too few to follow a host that changes speed
    within a second."""
    refs = [p["setup_reference_s"], *p["reference_s"]]
    return REFERENCE_MS / (statistics.fmean(refs) * 1e3)


def scaled_latencies(p: dict) -> list[float]:
    """The pass's op latencies (ms), each scaled to reference speed by the
    mean of the two reference times around its block of ops."""
    refs, stride = p["reference_s"], p["reference_stride"]
    around_ms = [(a + b) / 2 * 1e3 for a, b in zip(refs, refs[1:])]
    return [x * REFERENCE_MS / around_ms[i // stride] for i, x in enumerate(p["lat_ms"])]


def end_to_end(passes: list[dict]) -> dict:
    """(value, per-pass samples, how, raw value) of each end-to-end metric,
    from the untraced passes.

    Every pass runs the same ops on the same inputs.  Per pass, ``wall_s`` is
    the time to finish the op list (the sum of the op latencies), the
    percentiles are over the op latencies and ``setup_s`` is imports plus
    input generation.  A shared host's speed can swing by 2x, in phases of
    a fraction of a second to minutes, and the reference loop's time moves
    with it.  So each op latency is scaled to reference speed by the
    reference times around it (scaled_latencies), and set-up time by the
    pass's mean reference time (setup_scale).  A metric's value is the median
    of its scaled per-pass values; the raw value is the median of the
    unscaled ones.
    """
    how = f"median of {len(passes)} passes"
    ops = f"{how}, each over {len(passes[0]['lat_ms'])} ops"
    out = {}
    for name, per_pass, detail in (
        ("wall_s", lambda lat: sum(lat) / 1e3, how),
        ("op_p50_ms", statistics.median, ops),
        ("op_p90_ms", lambda lat: percentile(lat, 90), ops),
    ):
        scaled = [per_pass(scaled_latencies(p)) for p in passes]
        raw = statistics.median(per_pass(p["lat_ms"]) for p in passes)
        out[name] = (statistics.median(scaled), scaled, detail + ", at reference speed", raw)
    setup = [p["setup_s"] * setup_scale(p) for p in passes]
    raw = statistics.median(p["setup_s"] for p in passes)
    out["setup_s"] = (statistics.median(setup), setup, how + ", at reference speed", raw)
    rss = [p["rss_mb"] for p in passes]
    out["peak_rss_mb"] = (statistics.median(rss), rss, how, None)
    return out


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(trace: dict) -> dict:
    """Per-layer values of one traced pass, keyed as in BENCHMARK.json."""
    self_s, calls, k = trace["self_s"], trace["calls"], trace["counts"]
    out = {f"{name}.self_s": t for name, t in self_s.items()}
    out.update({f"{name}.calls": n for name, n in calls.items()})
    out.update(
        {
            "pavings.pavings_out": k.get("pavings_out", 0),
            "pavings.shifted_accept_ratio": _ratio(
                k.get("shifted_accepted", 0), k.get("shifted_checked", 0)
            ),
            "tableaux.tableaux_out": k.get("tableaux_out", 0),
            "domino_tableaux.dt_out": k.get("dt_out", 0),
            "domino_tableaux.fill_checks": k.get("enumerate_checks", 0),
            "domino_tableaux.fill_accept_ratio": _ratio(
                k.get("enumerate_accepts", 0), k.get("enumerate_checks", 0)
            ),
            "domino_tableaux.checks_per_dt": _ratio(
                k.get("enumerate_checks", 0), k.get("dt_out", 0)
            ),
            "domino_tableaux.validate_checks": k.get("validate_checks", 0),
            "bijections.merge_checks_per_call": _ratio(
                k.get("merge_checks", 0), calls.get("bijections.gamma_merge", 0)
            ),
            "bijections.merge_accept_ratio": _ratio(
                k.get("merge_accepts", 0), k.get("merge_checks", 0)
            ),
            "polyring.mul.term_pairs": k.get("term_pairs", 0),
            "polyring.terms_out": k.get("terms_out", 0),
            "canonical.bytes": k.get("bytes", 0),
            "render.chars_out": k.get("chars_out", 0),
            "trace.layer_coverage": trace["median_coverage"],
            "trace.layer_coverage_min": trace["min_coverage"],
        }
    )
    return out


def summarize(workload: str, passes: list[dict], trace: bool, spec: dict, cold=None) -> dict:
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    if trace:
        samples: dict[str, list[float]] = {}
        for p in traced:
            for name, value in per_layer(p["trace"]).items():
                samples.setdefault(name, []).append(value)
        wall_u = statistics.median(sum(scaled_latencies(p)) for p in untraced)
        samples["trace.overhead_ratio"] = [sum(scaled_latencies(p)) / wall_u for p in traced]
        samples["cli.cold_start_ms"] = cold[0]
        values = {
            name: (statistics.median(v), v, f"median of {len(v)}", None)
            for name, v in samples.items()
        }
        wanted = spec["per_layer"]
    else:
        values = end_to_end(untraced)
        wanted = spec["end_to_end"]
    metrics = {}
    for m in wanted:
        value, per_pass, how, raw = values.get(
            m["name"], (0, [0] * len(traced), "not exercised", None)
        )
        metrics[m["name"]] = {"value": value, "unit": m["unit"], "samples": per_pass, "how": how}
        if raw is not None:
            metrics[m["name"]]["raw"] = raw
    refs = [statistics.fmean(p["reference_s"]) * 1e3 for p in untraced]
    ops_per_pass = untraced[0]["attempted"]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    failures = [f for p in passes for f in p["failures"]][:10]
    groups_ok = all(got == want for p in passes for _, got, want in p["groups"])
    if cold is not None and not cold[1]:
        failures.append("cli quotient --shape [2] did not print ([],[1])")
    return {
        "workload": workload,
        "trace": trace,
        "reference_ms": statistics.median(refs),
        "reference_ms_per_pass": refs,
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "ops_per_pass": ops_per_pass,
        "groups": passes[0]["groups"],
        "attempted": attempted,
        "failed": failed,
        "failed_ops_ratio": failed / attempted,
        "correct": failed == 0 and groups_ok and (cold is None or cold[1]),
        "failures": failures,
        "metrics": metrics,
    }


def run_workload(workload: str, args, spec: dict) -> dict:
    start = time.perf_counter()
    meta = metadata(args)
    cold = cold_start_ms() if args.trace else None
    passes = run_passes(workload, args.seed, args.seconds, bool(args.trace), start)
    result = summarize(workload, passes, bool(args.trace), spec, cold)
    meta["elapsed_s"] = time.perf_counter() - start
    result["meta"] = meta
    return result


def print_table(result: dict) -> None:
    p = result["passes"]
    print(
        f"{result['workload']}  seed={result['meta']['seed']}  "
        f"passes={p['untraced']} untraced + {p['traced']} traced  "
        f"ops/pass={result['ops_per_pass']}  reference={result['reference_ms']:.3f} ms  "
        f"correct={result['correct']}"
    )
    for name, m in result["metrics"].items():
        raw = f"(raw {m['raw']:.6g})" if "raw" in m else ""
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']:<11} {raw:<17} {m['how']}")
    print(
        f"  {'failed_ops_ratio':<48} {result['failed_ops_ratio']:>14.6g} ratio"
        f"      {result['failed']} of {result['attempted']} ops"
    )
    for line in result["failures"]:
        print(f"  FAILED {line}")


def write_json(path: str, data: dict) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")


# ---- compare ------------------------------------------------------------


def load_runs(path: str) -> dict:
    """Runs in a result file, a suite file or a directory of them, grouped by
    (workload, trace)."""
    files = [path]
    if os.path.isdir(path):
        files = sorted(glob.glob(os.path.join(path, "*.json")))
    grouped: dict = {}
    for name in files:
        try:
            with open(name) as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:
            fail(f"cannot read {name}: {exc}")
        if not isinstance(data, dict):
            continue
        for run in data.get("runs", [data]):
            if "workload" in run:
                grouped.setdefault((run["workload"], run["trace"]), []).append(run)
    return grouped


def metric_samples(runs: list[dict], name: str):
    """(value, samples) of a metric: over runs when there are several, else
    the one run's per-pass samples.  The value is the samples' median either
    way, so the verdict judges the statistic that is printed."""
    if len(runs) == 1:
        m = runs[0]["metrics"][name]
        return m["value"], m["samples"]
    values = [r["metrics"][name]["value"] for r in runs]
    return statistics.median(values), values


def verdict(a: list[float], b: list[float], better: str, bound: float | None) -> str:
    """Judge B against base A by the benchmark's bound for the metric."""
    if bound is None:
        return "no bound"
    # Signed so that lower is better in both lists.
    sign = 1 if better == "lower" else -1
    a, b = [sign * x for x in a], [sign * x for x in b]
    ma, mb = statistics.median(a), statistics.median(b)
    if not ma:
        return "unresolved"
    worse_by = (mb - ma) / abs(ma)
    spread = max(relative_spread(a), relative_spread(b))
    if max(b) < min(a):
        return "better"
    if spread > bound:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if -worse_by > spread:
        return "better"
    return "within bound"


def _commits(runs: list[dict]) -> list[str]:
    return sorted({str(r["meta"]["git_commit"])[:12] for r in runs})


def compare(path_a: str, path_b: str, spec: dict) -> None:
    runs_a, runs_b = load_runs(path_a), load_runs(path_b)
    rules = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"base A = {path_a}\nB      = {path_b}")
    for key in sorted(set(runs_a) & set(runs_b)):
        ra, rb = runs_a[key], runs_b[key]
        print(
            f"{key[0]} trace={int(key[1])}: A {len(ra)} run(s) at {_commits(ra)}, "
            f"B {len(rb)} run(s) at {_commits(rb)}"
        )
        for name in ra[0]["metrics"]:
            if not all(name in r["metrics"] for r in ra + rb):
                continue
            va, sa = metric_samples(ra, name)
            vb, sb = metric_samples(rb, name)
            rule = rules.get(name, {"better": "lower"})
            ratio = f"{vb / va:.4f}" if va else "n/a"
            v = verdict(sa, sb, rule["better"], rule.get("bound"))
            print(
                f"  {name:<48} A={va:<12.6g} B={vb:<12.6g} B/A={ratio:<8} "
                f"{ra[0]['metrics'][name]['unit']:<11} {v}"
            )


# ---- scale probes -------------------------------------------------------


def probes(args) -> None:
    meta = metadata(args)
    records = []
    for name in ("q-8776-n3", "gq-6554-n3"):
        out, elapsed, err = run_worker(
            ["--probe", name], timeout=PROBE_TIMEOUT_S, memory_limit=PROBE_MEMORY_BYTES
        )
        if out is not None:
            record = {
                "probe": name,
                "outcome": "finished",
                "status": out["status"],
                "verify_s": out["elapsed_s"],
            }
        else:
            record = {"probe": name, "outcome": "timeout" if err == "timeout" else "error"}
        record["elapsed_s"] = elapsed
        records.append(record)
        print(json.dumps(record))
    path = args.out or os.path.join(ROOT, ".bench_results", "probes.json")
    write_json(path, {"meta": meta, "timeout_s": PROBE_TIMEOUT_S, "probes": records})


# ---- main ---------------------------------------------------------------


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=55)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="result file (default .bench_results/...)")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    ap.add_argument("--probes", action="store_true", help="run the scale probes")
    args = ap.parse_args()
    # Turn SIGTERM into SystemExit so subprocess.run kills and reaps the
    # worker in flight instead of leaving it running.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not os.path.isfile(os.path.join(SRC, "dominotab", "__init__.py")):
        fail(f"no dominotab package under {SRC}; run from a full checkout")
    spec = load_spec()
    if args.compare:
        compare(*args.compare, spec)
        return
    if args.probes:
        probes(args)
        return
    if not args.workload:
        fail("one of --workload, --compare or --probes is required")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_workload(name, args, spec) for name in names]
    for result in results:
        print_table(result)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    path = args.out or os.path.join(ROOT, ".bench_results", tag + ".json")
    write_json(path, results[0] if len(results) == 1 else {"runs": results})
    if len(results) == 1:
        result = results[0]
        metrics = {n: {"value": m["value"], "unit": m["unit"]} for n, m in result["metrics"].items()}
        print(
            json.dumps(
                {
                    "correct": result["correct"],
                    "attempted": result["attempted"],
                    "failed": result["failed"],
                    "metrics": metrics,
                }
            )
        )


if __name__ == "__main__":
    main()
