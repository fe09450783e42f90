#!/usr/bin/env python3
"""Summarize bench/ results into per-figure markdown tables, for building
EXPERIMENTS.md or eyeballing a run.

Accepts any mix of:
  - JSON sidecars (*.stats.json) that every bench binary emits (schema
    "faster-bench-v2", or the older "faster-bench-v1" without the
    build/config blocks; destination controlled by $FASTER_BENCH_JSON_DIR)
  - google-benchmark console logs (scraped with a regex, best-effort)

Usage:
  mkdir -p bench-json
  for b in build/bench/*; do FASTER_BENCH_JSON_DIR=bench-json $b; done
  tools/summarize_bench.py bench-json/*.stats.json

  # or the legacy console-log path:
  for b in build/bench/*; do $b; done 2>&1 | tee bench.log
  tools/summarize_bench.py bench.log

Exits non-zero (with a message on stderr) if any sidecar is missing,
unreadable, or does not match the expected schema.
"""

import json
import re
import sys
from collections import defaultdict


LINE = re.compile(r"^(\S+)/iterations:1\s+\d+ ms\s+[\d.]+ ms\s+1\s+(.*)$")
COUNTER = re.compile(r"(\w+)=([\d.]+[kMG]?(?:/s)?)")

# v1 sidecars predate the build/config blocks and hardware-counter
# metrics; both parse, so old baselines stay comparable.
SIDECAR_SCHEMAS = ("faster-bench-v1", "faster-bench-v2")

# Counters worth a table column, in display order.
INTERESTING = (
    "B", "P", "Mops", "miss_ratio", "log_growth_MBps", "fuzzy_pct",
    "log_bw_MBps", "cache_hit_pct", "storage_reads_pct", "p50_us", "p95_us",
    "p99_us", "p999_us",
    # Hardware-counter efficiency metrics (FASTER_BENCH_PERF=1 runs).
    "ipc", "cache_miss_pct", "cycles_per_op", "branch_miss_per_kop",
    "dtlb_miss_per_kop", "switches_per_kop",
)


class InputError(Exception):
    pass


def parse_log(path):
    """Scrapes google-benchmark console output. Best-effort: unmatched lines
    are skipped, but a log with no benchmark lines at all is an error."""
    rows = []
    with open(path) as f:
        for line in f:
            m = LINE.match(line.strip())
            if not m:
                continue
            name, counters_str = m.groups()
            counters = dict(COUNTER.findall(counters_str))
            rows.append((name, counters))
    if not rows:
        raise InputError(f"{path}: no benchmark result lines found")
    return rows


def fmt(value):
    if isinstance(value, float) and value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.4g}"


def parse_sidecar(path):
    """Loads and validates a faster-bench-v1/v2 JSON sidecar. Any
    structural problem raises InputError (the caller turns that into exit
    code 1)."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise InputError(f"{path}: {e}")
    if not isinstance(doc, dict):
        raise InputError(f"{path}: top-level JSON value is not an object")
    schema = doc.get("schema")
    if schema not in SIDECAR_SCHEMAS:
        raise InputError(
            f"{path}: schema {schema!r}, expected one of {SIDECAR_SCHEMAS}")
    if not isinstance(doc.get("bench"), str):
        raise InputError(f"{path}: missing/invalid 'bench' name")
    cases = doc.get("cases")
    if not isinstance(cases, list) or not cases:
        raise InputError(f"{path}: 'cases' must be a non-empty list")
    rows = []
    for i, case in enumerate(cases):
        if not isinstance(case, dict) or not isinstance(
                case.get("name"), str):
            raise InputError(f"{path}: cases[{i}] missing string 'name'")
        counters = case.get("counters")
        if not isinstance(counters, dict):
            raise InputError(f"{path}: cases[{i}] missing 'counters' object")
        for k, v in counters.items():
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                raise InputError(
                    f"{path}: cases[{i}].counters[{k!r}] is not a number")
        rows.append((case["name"], {k: fmt(v) for k, v in counters.items()}))
    return rows


def main():
    if len(sys.argv) < 2:
        print(__doc__)
        return 2
    rows = []
    for path in sys.argv[1:]:
        if path.endswith(".stats.json") or path.endswith(".json"):
            rows.extend(parse_sidecar(path))
        else:
            rows.extend(parse_log(path))

    groups = defaultdict(list)
    for name, counters in rows:
        # group by the leading figure tag (before the first '/')
        groups[name.split("/")[0]].append((name, counters))

    for fig in sorted(groups):
        print(f"\n## {fig}\n")
        # choose interesting counters present in this group
        keys = []
        for _, c in groups[fig]:
            for k in INTERESTING:
                if k in c and k not in keys:
                    keys.append(k)
        keys.sort(key=INTERESTING.index)
        header = "| case | " + " | ".join(keys) + " |"
        print(header)
        print("|" + "---|" * (len(keys) + 1))
        for name, c in groups[fig]:
            # strip the figure prefix and trailing arg echo google-benchmark
            # appends (the numeric /a/b/c tail duplicates the name)
            case = "/".join(name.split("/")[1:])
            case = re.sub(r"(/-?\d+)+(/iterations:\d+)?$", "", case)
            case = re.sub(r"(/-?\d+)+$", "", case)
            cells = [c.get(k, "") for k in keys]
            print("| " + case + " | " + " | ".join(cells) + " |")
        report_batch_speedup(groups[fig])
        report_depth_speedup(groups[fig])
        report_server_vs_baseline(groups[fig])
        report_io_path_speedup(groups[fig])
    return 0


def report_batch_speedup(group):
    """For batch-size sweeps (cases carrying a B counter), prints the
    best-B throughput speedup over the B=1 baseline per sweep case."""
    sweeps = defaultdict(dict)  # case-minus-B -> {B: Mops}
    for name, c in group:
        if "B" not in c or "Mops" not in c:
            continue
        case = "/".join(name.split("/")[1:])
        case = re.sub(r"(/-?\d+)+(/iterations:\d+)?$", "", case)
        case = re.sub(r"/B:\d+", "", case)
        try:
            sweeps[case][int(float(c["B"]))] = float(c["Mops"])
        except ValueError:
            continue
    for case, by_b in sorted(sweeps.items()):
        if 1 not in by_b or by_b[1] <= 0 or len(by_b) < 2:
            continue
        best_b = max(by_b, key=lambda b: by_b[b])
        speedup = by_b[best_b] / by_b[1]
        print(f"\nbatch speedup ({case}): B=1 {by_b[1]:.3g} Mops -> "
              f"B={best_b} {by_b[best_b]:.3g} Mops ({speedup:.2f}x)")


def _depth_sweeps(group):
    """case-minus-P -> {P: Mops} for cases carrying a P (pipeline depth)
    counter."""
    sweeps = defaultdict(dict)
    for name, c in group:
        if "P" not in c or "Mops" not in c:
            continue
        case = "/".join(name.split("/")[1:])
        case = re.sub(r"(/-?\d+)+(/iterations:\d+)?$", "", case)
        case = re.sub(r"/P:\d+", "", case)
        try:
            sweeps[case][int(float(c["P"]))] = float(c["Mops"])
        except ValueError:
            continue
    return sweeps


def report_depth_speedup(group):
    """For pipeline-depth sweeps (cases carrying a P counter), prints the
    best-P throughput speedup over the P=1 (unpipelined) baseline."""
    for case, by_p in sorted(_depth_sweeps(group).items()):
        if 1 not in by_p or by_p[1] <= 0 or len(by_p) < 2:
            continue
        best_p = max(by_p, key=lambda p: by_p[p])
        speedup = by_p[best_p] / by_p[1]
        print(f"\npipeline speedup ({case}): P=1 {by_p[1]:.3g} Mops -> "
              f"P={best_p} {by_p[best_p]:.3g} Mops ({speedup:.2f}x)")


def report_io_path_speedup(group):
    """For the io_path bench (cases named <fig>/<mode>/budgetMB:N), prints
    per-budget speedup of the io_uring backend ('uring') over synchronous
    I/O at submit ('polling')."""
    sweeps = defaultdict(dict)  # budget -> {mode: Mops}
    for name, c in group:
        parts = name.split("/")
        if len(parts) < 3 or not parts[0].startswith("io_path"):
            continue
        if "Mops" not in c:
            continue
        m = re.match(r"budgetMB:(\d+)", parts[2])
        if not m:
            continue
        try:
            sweeps[int(m.group(1))][parts[1]] = float(c["Mops"])
        except ValueError:
            continue
    for budget, by_mode in sorted(sweeps.items()):
        polling = by_mode.get("polling")
        uring = by_mode.get("uring")
        if not polling or polling <= 0 or uring is None:
            continue
        print(f"\nuring-vs-polling (budgetMB:{budget}): polling "
              f"{polling:.3g} Mops -> uring {uring:.3g} Mops "
              f"({uring / polling:.2f}x)")


def report_server_vs_baseline(group):
    """For the networked sweep, compares faster_server against the
    remote_baseline stand-in at each common pipeline depth."""
    sweeps = _depth_sweeps(group)
    server = sweeps.get("faster_server")
    baseline = sweeps.get("remote_baseline")
    if not server or not baseline:
        return
    for p in sorted(set(server) & set(baseline)):
        if baseline[p] <= 0:
            continue
        ratio = server[p] / baseline[p]
        print(f"\nserver-vs-remote-baseline (P={p}): server "
              f"{server[p]:.3g} Mops vs baseline {baseline[p]:.3g} Mops "
              f"({ratio:.2f}x)")


if __name__ == "__main__":
    try:
        sys.exit(main())
    except InputError as e:
        print(f"summarize_bench: error: {e}", file=sys.stderr)
        sys.exit(1)
    except BrokenPipeError:
        sys.exit(0)
