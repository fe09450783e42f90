#!/usr/bin/env python3
"""Gates what compiling the stats layer in costs a quiet op, in instructions.

Usage: tools/check_op_icount.py OFF.txt ON.txt [--max-ratio 1.10]

OFF.txt and ON.txt are tools/op_icount outputs of the same commit, built
without and with -DFASTER_STATS=ON. A quiet op (no sink armed) must cost
the stats-on build at most --max-ratio times what it costs the stats-off
build. The pending ops (a storage read, an RMW's storage read and an RMW's
fuzzy-region retry, each through CompletePending) are printed but not
gated: their clock and I/O stamp checks cost more than the limit. The
armed pass (spans sampled 1 in 1, slowlog threshold 0, perf on) is printed
with its ratio to the quiet pass, not gated: every armed op reads the
clock, perf counters and records into each sink. Exits 1 on a violation
or a missing op. A ptrace refusal in either file prints a skip line and
exits 0: nothing was measured.
"""

import argparse
import re
import sys

UNGATED = {"read_pending", "rmw_pending", "rmw_fuzzy_retry"}


def parse(path):
    """{op: count} of the quiet pass and of the armed pass."""
    quiet, armed = {}, {}
    with open(path) as f:
        for line in f:
            if line.startswith("op_icount: skipped"):
                return None, None
            m = re.match(r"op_icount: (armed )?(\w+) (\d+)", line)
            if m and m.group(2) != "marker":
                (armed if m.group(1) else quiet)[m.group(2)] = int(m.group(3))
    return quiet, armed


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("off")
    ap.add_argument("on")
    ap.add_argument("--max-ratio", type=float, default=1.10)
    args = ap.parse_args()
    (off, _), (on, on_armed) = parse(args.off), parse(args.on)
    if off is None or on is None:
        print("op_icount ratio: skipped: ptrace refused, nothing measured")
        return 0
    failed = False
    for op, n_off in off.items():
        n_on = on.get(op)
        if n_on is None:
            print(f"op_icount ratio: {op}: missing from {args.on}")
            failed = True
            continue
        ratio = n_on / n_off
        gated = op not in UNGATED
        verdict = "ok" if ratio <= args.max_ratio else "FAIL"
        if not gated:
            verdict = "logged"
        print(f"op_icount ratio: {op} {n_off} -> {n_on} "
              f"({ratio:.3f}x, limit {args.max_ratio}x) {verdict}")
        failed |= gated and ratio > args.max_ratio
    for op, n_armed in on_armed.items():
        n_quiet = on.get(op)
        if n_quiet:
            print(f"op_icount armed: {op} {n_quiet} -> {n_armed} "
                  f"({n_armed / n_quiet:.2f}x quiet) logged")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
