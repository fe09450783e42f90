#!/usr/bin/env python3
"""Memory-order mutation driver for the model checker (DESIGN.md §14).

For every non-relaxed `std::memory_order_*` site in the model-checked
protocol sources, re-runs the relevant model-test binaries with
`FASTER_MODEL_MUTATE=<file>:<line>` — the model runtime demotes exactly
that source site to `memory_order_relaxed` at run time (no rebuild) — and
classifies the site from the stats CSV the runtime appends to
`FASTER_MODEL_STATS_FILE`:

  DETECTED     some exploration hit the site and found a violation: the
               order is load-bearing and the checker proves it.
  PASSED       explorations hit the site but every bounded exploration
               stayed clean: the order is a candidate relaxation. Gated —
               the site must appear in the allowlist with a justification,
               otherwise the driver exits 1 (either the order can be
               weakened in production or the model tests are missing the
               schedule that needs it; both deserve a human).
  UNEXERCISED  no exploration hit the site (protocol path not modeled,
               e.g. Grow/resize). Reported, not gated.
  TIMEOUT      the mutated run exceeded --timeout. Reported, not gated.

Sites are discovered by content scan (comment lines skipped), so line
drift never silently detaches the allowlist: entries are keyed by
`file|needle` and resolved to a line at run time.

Modes:
  --bounded    one site per atomic variable per file (the first
               non-relaxed site of each `obj.op(...)` receiver; when that
               site is UNEXERCISED the driver falls through to the
               receiver's next site, so dedup cannot hide an exercised
               site behind a dead one) — the CI budget: "one mutation per
               contracted atomic".
  (default)    every non-relaxed site.
  --sites F:L  explicit comma-separated file:line list (file is a suffix).

Exit status: 0 when every exercised mutation is DETECTED or allowlisted,
1 otherwise (2 on usage errors).
"""

import argparse
import csv
import os
import re
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Protocol sources compiled under FASTER_MODEL, and the model-test
# binaries whose CLEAN tests exercise them. Seeded-bug/mutation-demo
# gtests are filtered out: they set FASTER_MODEL_MUTATE themselves and
# would fight the driver's env.
PROTOCOLS = {
    "src/core/epoch.cc": ["model_epoch_test"],
    "src/core/epoch.h": ["model_epoch_test"],
    "src/core/hash_index.cc": ["model_hash_index_test",
                               "model_checkpoint_test"],
    "src/obs/seq_ring.h": ["model_seq_ring_test"],
    "src/core/sync.h": ["model_take_all_test"],
}
GTEST_FILTER = "-*SeededBug*:*Mutated*"

ORDER_RE = re.compile(r"std::memory_order_(\w+)")
# Receiver heuristic for --bounded: the identifier chain right before the
# atomic member call, e.g. `table_[i].local_epoch.load(` -> `local_epoch`,
# `tail_.fetch_add(` -> `tail_`.
RECV_RE = re.compile(
    r"([A-Za-z_]\w*)\s*(?:\[[^\]]*\]\s*)?(?:->|\.)\s*"
    r"(?:load|store|exchange|fetch_\w+|compare_exchange_\w+)\s*\(")


def find_sites(path):
    """Yields (line_no, line, orders, receiver) for non-relaxed sites.

    `line_no` is the line the runtime's std::source_location reports for
    the call — for a multi-line call (CAS with its orders on continuation
    lines) that is the line the receiver/member-call starts on, not the
    line holding the memory_order token, so the scan walks backwards to
    the call start. Sites resolving to the same call line are merged
    (one mutation demotes every order of that call)."""
    with open(path, encoding="utf-8") as f:
        lines = f.readlines()
    sites = []
    seen_lines = set()
    for n, line in enumerate(lines, 1):
        stripped = line.lstrip()
        if stripped.startswith("//") or stripped.startswith("*"):
            continue
        orders = [m for m in ORDER_RE.findall(line) if m != "relaxed"]
        if not orders:
            continue
        m = RECV_RE.search(line)
        call_line, text = n, line
        if not m:
            for back in range(n - 1, max(0, n - 4), -1):
                m = RECV_RE.search(lines[back - 1])
                if m:
                    call_line, text = back, lines[back - 1]
                    break
        recv = m.group(1) if m else None
        if call_line in seen_lines:
            continue
        seen_lines.add(call_line)
        sites.append((call_line, text.rstrip(), orders, recv))
    return sites


def load_allowlist(path):
    """Returns {(file, needle): justification}."""
    allow = {}
    if not os.path.exists(path):
        return allow
    with open(path, encoding="utf-8") as f:
        for raw in f:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("|", 2)
            if len(parts) != 3:
                sys.exit(f"malformed allowlist line: {raw.rstrip()}")
            allow[(parts[0], parts[1])] = parts[2]
    return allow


def resolve_allow(allow, rel, line_text):
    for (f, needle), why in allow.items():
        if f == rel and needle in line_text:
            return why
    return None


def run_mutated(bindir, rel, line_no, tests, timeout):
    """Runs each test binary with the mutation; returns (hits, violation,
    explored, timed_out)."""
    hits = violations = explored = 0
    timed_out = False
    for test in tests:
        exe = os.path.join(bindir, test)
        if not os.path.exists(exe):
            sys.exit(f"model test binary not found: {exe} (build first)")
        with tempfile.NamedTemporaryFile(mode="r", suffix=".csv") as stats:
            env = dict(os.environ)
            env["FASTER_MODEL_MUTATE"] = f"{rel}:{line_no}"
            env["FASTER_MODEL_STATS_FILE"] = stats.name
            try:
                # Exit code deliberately ignored: a clean test failing
                # under mutation IS detection; the stats file is ground
                # truth.
                subprocess.run(
                    [exe, f"--gtest_filter={GTEST_FILTER}"],
                    env=env, timeout=timeout,
                    stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                    check=False)
            except subprocess.TimeoutExpired:
                timed_out = True
            stats.seek(0)
            for row in csv.reader(stats):
                if len(row) != 8:
                    continue
                explored += int(row[1])
                violations += int(row[6])
                hits += int(row[7])
    return hits, violations, explored, timed_out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bindir", default=os.path.join(REPO, "build", "tests",
                                                     "model"),
                    help="directory holding the model test binaries")
    ap.add_argument("--bounded", action="store_true",
                    help="one mutation per atomic receiver per file")
    ap.add_argument("--sites",
                    help="comma-separated file:line list (suffix match)")
    ap.add_argument("--timeout", type=float, default=300.0,
                    help="per-binary timeout, seconds (default 300)")
    ap.add_argument("--allowlist",
                    default=os.path.join(REPO, "tools",
                                         "model_mutate_allow.txt"))
    args = ap.parse_args()

    allow = load_allowlist(args.allowlist)
    # Each job is a candidate list; the runner walks it until a candidate
    # is exercised. Full/--sites mode: singleton lists. --bounded: all of
    # a receiver's sites share one job, first-exercised wins.
    jobs = []  # [[(rel, line_no, line_text, tests), ...], ...]
    for rel, tests in sorted(PROTOCOLS.items()):
        path = os.path.join(REPO, rel)
        recv_job = {}
        for line_no, text, _orders, recv in find_sites(path):
            if args.sites:
                wanted = False
                for spec in args.sites.split(","):
                    f, _, l = spec.rpartition(":")
                    if rel.endswith(f) and int(l) == line_no:
                        wanted = True
                if not wanted:
                    continue
            elif args.bounded:
                key = recv or f"line{line_no}"
                if key in recv_job:
                    jobs[recv_job[key]].append((rel, line_no, text, tests))
                    continue
                recv_job[key] = len(jobs)
            jobs.append([(rel, line_no, text, tests)])

    if not jobs:
        sys.exit("no mutation sites selected")

    failures = []
    counts = {"DETECTED": 0, "PASSED-ALLOWED": 0, "PASSED": 0,
              "UNEXERCISED": 0, "TIMEOUT": 0}
    total_explored = 0
    for candidates in jobs:
        for rel, line_no, text, tests in candidates:
            hits, violations, explored, timed_out = run_mutated(
                args.bindir, rel, line_no, tests, args.timeout)
            total_explored += explored
            if timed_out:
                status = "TIMEOUT"
            elif hits == 0:
                status = "UNEXERCISED"
            elif violations > 0:
                status = "DETECTED"
            else:
                why = resolve_allow(allow, rel, text)
                if why is not None:
                    status = "PASSED-ALLOWED"
                else:
                    status = "PASSED"
                    failures.append((rel, line_no, text))
            counts[status] += 1
            detail = f" ({hits} hits)" if hits else ""
            print(f"[{status:14}] {rel}:{line_no}{detail}  {text.strip()[:80]}")
            if status == "PASSED-ALLOWED":
                print(f"                 allowed: {why}")
            if status != "UNEXERCISED":
                break  # next candidates are fallbacks for a dead first site

    print(f"\n{len(jobs)} mutations: " +
          ", ".join(f"{v} {k}" for k, v in counts.items() if v) +
          f"; {total_explored} interleavings explored")
    if failures:
        print("\nNon-allowlisted mutations PASSED — each is either a safe "
              "relaxation (weaken the production order and document it) or "
              "a missing model schedule:", file=sys.stderr)
        for rel, line_no, text in failures:
            print(f"  {rel}:{line_no}  {text.strip()}", file=sys.stderr)
        print(f"\nTo accept as a candidate relaxation, add to "
              f"{args.allowlist}:\n  <file>|<needle>|<justification>",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
