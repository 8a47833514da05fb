"""Digest what the ``dominotab`` command line writes, to check that a change
keeps its output byte for byte.

    PYTHONPATH=src python3 tools/cli_digest.py [--size N] [--pool-size N]
        [--sweep FAMILY:MAX_SIZE:VARS ...]

Runs ``dominotab.cli.main`` in-process on a fixed list of invocations, with
the ``dominotab`` that PYTHONPATH gives, so one copy of this tool checks two
trees: run it once with each tree's ``src`` and compare the lines.  For each
command it prints the number of invocations and one sha256 over every
invocation's argv, stdin, stdout, stderr and exit status, in order.  The
timings a report carries, ``(… ms)`` in a line and ``"elapsed_us"`` in
canonical JSON, are masked.

The invocations:

* ``quotient`` and ``pavings`` on every shape of size up to ``--size``
  (default 8); ``pavable`` there for each family; ``enumerate`` for each
  family, of both kinds, with ``--max-letter 2``; ``genfun`` for each family
  with 2 variables, with and without ``--domino``, in both formats; and
  ``verify --shape`` for each family with 2 variables, in both formats;
* ``inverse-quotient`` on every pair of shapes of total size up to 4;
* ``verify --max-size`` for each ``--sweep`` in both formats, by default
  every family up to ``--size`` with 2 variables;
* ``split``, ``merge`` of what ``split`` wrote, and ``render`` in ASCII and
  LaTeX, on every domino tableau of the benchmark's roundtrip pools, each
  pool's shapes cut to size ``--pool-size`` (default 12, the whole pools);
* the error paths: input that must exit 2.

Stdlib only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import re
import sys
from collections import defaultdict

from dominotab import cli

FAMILIES = ("plain", "set-valued", "shifted", "shifted-set-valued")
# The roundtrip pools of the benchmark: (family, max size, letters).
POOLS = (("plain", 12, 3), ("set-valued", 8, 3), ("shifted", 12, 2), ("shifted-set-valued", 12, 2))
DOMINO = ("--kind", "domino")
TIMINGS = (
    (re.compile(r"\(\d+\.\d ms\)"), "(… ms)"),
    (re.compile(r'"elapsed_us":\d+'), '"elapsed_us":…'),
)
ERRORS = (
    (["quotient", "--shape", "[1,2]"], ""),
    (["quotient", "--shape", "4,2"], ""),
    (["quotient", "--shape", "[2.0]"], ""),
    (["inverse-quotient", "--shape", "[1]", "--shape2", "[0]"], ""),
    (["pavable", "--shape", "[2]", "--family", "nope"], ""),
    (["pavings", "--shape", "[100000]"], ""),
    (["enumerate", "--family", "plain", "--shape", "[3]", "--max-letter", "0"], ""),
    (["enumerate", "--family", "plain", "--shape", "[3]", "--max-letter", "2", "--kind", "x"], ""),
    (["enumerate", "--family", "plain", "--shape", "[3]", "--max-letter", "2", *DOMINO], ""),
    (["enumerate", "--family", "shifted", "--shape", "[5,5,4,3,3,2]", "--max-letter", "2",
      *DOMINO], ""),
    (["genfun", "--family", "plain", "--shape", "[2]", "--vars", "0"], ""),
    (["genfun", "--family", "plain", "--shape", "[3]", "--vars", "2", "--domino"], ""),
    (["verify", "--family", "plain", "--vars", "2"], ""),
    (["verify", "--family", "plain", "--shape", "[2]", "--max-size", "2", "--vars", "2"], ""),
    (["verify", "--family", "plain", "--max-size", "-1", "--vars", "2"], ""),
    (["verify", "--family", "plain", "--max-size", "2", "--vars", "2", "--jobs", "0"], ""),
    (["split"], ""),
    (["split"], "{"),
    (["split"], "[2,1]"),
    (["split"], '{"family":"plain","shape":[1],"rows":[[1]]}'),
    (["merge"], "[1]"),
    (["merge"], '[{"family":"plain","shape":[1],"rows":[[1]]}]'),
    (["render"], "[]"),
    (["render", "--in", "/nonexistent/input"], ""),
)


def shapes_up_to(max_size: int) -> list[tuple[int, ...]]:
    """Every partition of size 0..max_size, sizes ascending, each size in
    descending lexicographic order; built here, apart from the package."""

    def rec(remaining: int, limit: int, prefix: tuple[int, ...]):
        if remaining == 0:
            yield prefix
            return
        for part in range(min(limit, remaining), 0, -1):
            yield from rec(remaining - part, part, prefix + (part,))

    return [lam for n in range(max_size + 1) for lam in rec(n, n, ())]


def shape_arg(lam: tuple[int, ...]) -> str:
    return "[" + ",".join(map(str, lam)) + "]"


class Digest:
    """The sha256 and the count of the invocations of each command."""

    def __init__(self) -> None:
        self.hashes = defaultdict(hashlib.sha256)
        self.counts: dict[str, int] = defaultdict(int)

    def run(self, argv: list[str], stdin: str = "") -> tuple[int, str]:
        """Run one invocation, fold it into its command's digest, and return
        its exit status and stdout."""
        out, err = io.StringIO(), io.StringIO()
        saved_stdin = sys.stdin
        sys.stdin = io.StringIO(stdin)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:  # argparse's usage errors
                    code = exc.code
        finally:
            sys.stdin = saved_stdin
        stdout, stderr = out.getvalue(), err.getvalue()
        masked = stdout
        for pattern, mask in TIMINGS:
            masked = pattern.sub(mask, masked)
        record = repr((argv, stdin, masked, stderr, code)).encode()
        h = self.hashes[argv[0]]
        h.update(len(record).to_bytes(8, "big"))
        h.update(record)
        self.counts[argv[0]] += 1
        return code, stdout

    def lines(self) -> list[str]:
        return [f"{c} {self.counts[c]} {self.hashes[c].hexdigest()}" for c in sorted(self.hashes)]


def sweep_arg(text: str) -> tuple[str, int, int]:
    family, max_size, n = text.split(":")
    return family, int(max_size), int(n)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--size", type=int, default=8, help="the per-shape commands' largest shape")
    ap.add_argument("--pool-size", type=int, default=12, help="the roundtrip pools' largest shape")
    ap.add_argument("--sweep", type=sweep_arg, action="append", help="FAMILY:MAX_SIZE:VARS")
    args = ap.parse_args(argv)
    digest = Digest()
    run = digest.run
    shapes = [shape_arg(lam) for lam in shapes_up_to(args.size)]

    for shape in shapes:
        run(["quotient", "--shape", shape])
        run(["pavings", "--shape", shape])
        for family in FAMILIES:
            run(["pavable", "--shape", shape, "--family", family])
            for kind in ("tableau", "domino"):
                run(["enumerate", "--family", family, "--shape", shape, "--max-letter", "2",
                     "--kind", kind])
            for fmt in ("human", "canonical"):
                cmd = ["--family", family, "--shape", shape, "--vars", "2", "--format", fmt]
                run(["genfun", *cmd])
                run(["genfun", *cmd, "--domino"])
                run(["verify", *cmd])

    small = shapes_up_to(4)
    for q1 in small:
        for q2 in small:
            if sum(q1) + sum(q2) <= 4:
                run(["inverse-quotient", "--shape", shape_arg(q1), "--shape2", shape_arg(q2)])

    for family, max_size, n in args.sweep or [(f, args.size, 2) for f in FAMILIES]:
        for fmt in ("human", "canonical"):
            run(["verify", "--family", family, "--max-size", str(max_size), "--vars", str(n),
                 "--format", fmt])

    for family, max_size, letters in POOLS:
        for lam in shapes_up_to(min(max_size, args.pool_size)):
            code, listing = run(["enumerate", "--family", family, "--shape", shape_arg(lam),
                                 "--max-letter", str(letters), *DOMINO])
            for line in listing.splitlines() if code == 0 else ():
                code, pair = run(["split"], line)
                if code == 0:
                    run(["merge"], pair)
                run(["render"], line)
                run(["render", "--format", "latex"], line)

    for argv, stdin in ERRORS:
        run(argv, stdin)

    for line in digest.lines():
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
