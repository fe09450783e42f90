#!/usr/bin/env python3
"""Summarize bench/ results into per-figure markdown tables, for building
EXPERIMENTS.md or eyeballing a run. Reads google-benchmark console logs
(scraped with a regex, best-effort).

Usage:
  for b in build/bench/*; do $b; done 2>&1 | tee bench.log
  tools/summarize_bench.py bench.log

Exits non-zero (with a message on stderr) if a log is unreadable or has
no benchmark result lines.
"""

import re
import sys
from collections import defaultdict


LINE = re.compile(r"^(\S+)/iterations:1\s+\d+ ms\s+[\d.]+ ms\s+1\s+(.*)$")
COUNTER = re.compile(r"(\w+)=([\d.]+[kMGmu]?(?:/s)?)")
# Terminal colour codes, which google-benchmark may write even to a file.
ANSI = re.compile(r"\x1b\[[0-9;]*m")

# Counters worth a table column, in display order. Mops is the median
# window rate; windows and iqr_pct say how many windows it is the median
# of and how far they spread.
INTERESTING = (
    "B", "P", "Mops", "windows", "iqr_pct", "miss_ratio", "log_growth_MBps",
    "fuzzy_pct", "log_bw_MBps", "cache_hit_pct", "storage_reads_pct",
    "p50_us", "p95_us", "p99_us", "p999_us",
)


class InputError(Exception):
    pass


SUFFIX = {"k": 1e3, "M": 1e6, "G": 1e9, "m": 1e-3, "u": 1e-6}


def num(cell):
    """A console counter cell ("1.5", "300m", "2.1M/s") as a float."""
    cell = cell.removesuffix("/s")
    if cell and cell[-1] in SUFFIX:
        return float(cell[:-1]) * SUFFIX[cell[-1]]
    return float(cell)


def parse_log(path):
    """Scrapes google-benchmark console output. Best-effort: unmatched lines
    are skipped, but a log with no benchmark lines at all is an error."""
    rows = []
    try:
        with open(path) as f:
            lines = f.readlines()
    except OSError as e:
        raise InputError(f"{path}: {e}")
    for line in lines:
        m = LINE.match(ANSI.sub("", line).strip())
        if not m:
            continue
        name, counters_str = m.groups()
        counters = dict(COUNTER.findall(counters_str))
        rows.append((name, counters))
    if not rows:
        raise InputError(f"{path}: no benchmark result lines found")
    return rows


def main():
    if len(sys.argv) < 2:
        print(__doc__)
        return 2
    rows = []
    for path in sys.argv[1:]:
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
            sweeps[case][int(num(c["B"]))] = num(c["Mops"])
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
            sweeps[case][int(num(c["P"]))] = num(c["Mops"])
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
            sweeps[int(m.group(1))][parts[1]] = num(c["Mops"])
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
