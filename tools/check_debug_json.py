#!/usr/bin/env python3
"""Validate the /debug/* inspector endpoints' JSON bodies.

Usage: check_debug_json.py ENDPOINT [FILE]     (stdin when no file)

ENDPOINT is one of: slowlog, index, log, epochs, connections, perf —
matching the exporter route the body was scraped from (/debug/<ENDPOINT>).

Beyond "is it JSON", this asserts the shape and the internal invariants
each inspector promises (DESIGN.md §12):

  slowlog      threshold_ns null-or-int; len == len(entries); every entry
               carries all five stages and stage sums equal total_ns
  index        when not resizing: histogram totals match sampled_buckets /
               sampled_entries; table_size is a power of two; tag_bits is
               in the configured 1..15 range
  log          begin <= head <= safe_read_only <= read_only <= tail plus
               the in-memory / mutable / flush-backlog byte arithmetic;
               same checks for the read_cache region if present
  epochs       every thread's local_epoch <= current_epoch, lag matches,
               wait is null or a wait-site name, safe_epoch <=
               current_epoch, protected_threads == len(threads)
  connections  open == len(connections); counters are non-negative
  perf         the stage keys are exactly the obs::Stage name table, in
               order; every stage's scopes and counters are unsigned
               integers; counters_available names known counters

Exit status 0 when the body validates, 1 otherwise (message on stderr).
Used by the CI networked lane on live scrapes; the stress exporter test
exercises the same endpoints in-process.
"""

import json
import sys

# obs::Stage's name table (src/obs/stage.h); the slowlog reports the
# first five.
STAGES = ("hash", "execute", "io_queue", "io_exec", "io_complete",
          "ckpt_index", "ckpt_flush", "io_poll", "net_parse", "net_flush")
SLOW_STAGES = STAGES[:5]
PERF_COUNTERS = ("task_clock_ns", "ctx_switches", "cycles", "instructions",
                 "cache_refs", "cache_misses", "branch_misses",
                 "dtlb_misses")


class CheckError(Exception):
    pass


def need(doc, key, types):
    if key not in doc:
        raise CheckError(f"missing key {key!r}")
    v = doc[key]
    if not isinstance(v, types) or isinstance(v, bool) and bool not in (
            types if isinstance(types, tuple) else (types,)):
        raise CheckError(f"{key!r} has type {type(v).__name__}")
    return v


def need_u64(doc, key):
    v = need(doc, key, int)
    if v < 0:
        raise CheckError(f"{key!r} is negative: {v}")
    return v


def check_slowlog(doc):
    t = doc.get("threshold_ns")
    if t is not None and (not isinstance(t, int) or t < 0):
        raise CheckError(f"threshold_ns must be null or uint: {t!r}")
    entries = need(doc, "entries", list)
    if need_u64(doc, "len") != len(entries):
        raise CheckError(f"len={doc['len']} but {len(entries)} entries")
    if need_u64(doc, "total_recorded") < len(entries):
        raise CheckError("total_recorded < len(entries)")
    for i, e in enumerate(entries):
        total = need_u64(e, "total_ns")
        need_u64(e, "id")
        need_u64(e, "wall_ns")
        need(e, "op", str)
        need(e, "key_hash", str)
        need(e, "pending", bool)
        stages = need(e, "stages_ns", dict)
        for s in SLOW_STAGES:
            need_u64(stages, s)
        if sum(stages[s] for s in SLOW_STAGES) != total:
            raise CheckError(f"entries[{i}]: stage sum != total_ns")
        if t is not None and total < t:
            raise CheckError(f"entries[{i}]: total_ns below threshold")


def check_index(doc):
    table_size = need_u64(doc, "table_size")
    if table_size == 0 or table_size & (table_size - 1):
        raise CheckError(f"table_size not a power of two: {table_size}")
    tag_bits = need_u64(doc, "tag_bits")
    if not 1 <= tag_bits <= 15:
        raise CheckError(f"tag_bits out of range 1..15: {tag_bits}")
    if need(doc, "resizing", bool):
        return  # histograms are not sampled mid-resize
    sampled_buckets = need_u64(doc, "sampled_buckets")
    sampled_entries = need_u64(doc, "sampled_entries")
    if sampled_buckets > table_size:
        raise CheckError("sampled_buckets > table_size")
    occupancy = need(doc, "bucket_occupancy", list)
    if sum(occupancy) != sampled_buckets:
        raise CheckError(f"bucket_occupancy sums to {sum(occupancy)}, "
                         f"expected sampled_buckets={sampled_buckets}")
    chains = need(doc, "chain_length", list)
    if sum(chains) != sampled_entries:
        raise CheckError(f"chain_length sums to {sum(chains)}, "
                         f"expected sampled_entries={sampled_entries}")
    need_u64(doc, "overflow_buckets")
    need_u64(doc, "chains_truncated")


def check_region(region, what):
    begin = need_u64(region, "begin")
    head = need_u64(region, "head")
    safe_ro = need_u64(region, "safe_read_only")
    flushed = need_u64(region, "flushed_until")
    ro = need_u64(region, "read_only")
    tail = need_u64(region, "tail")
    if not begin <= head <= safe_ro <= ro <= tail:
        raise CheckError(
            f"{what}: region markers out of order: "
            f"begin={begin} head={head} safe_read_only={safe_ro} "
            f"read_only={ro} tail={tail}")
    page_size = need_u64(region, "page_size")
    if need_u64(region, "tail_page") != tail // page_size:
        raise CheckError(f"{what}: tail_page does not match tail")
    if need_u64(region, "in_memory_bytes") != tail - head:
        raise CheckError(f"{what}: in_memory_bytes != tail - head")
    if need_u64(region, "mutable_bytes") != tail - ro:
        raise CheckError(f"{what}: mutable_bytes != tail - read_only")
    backlog = need_u64(region, "flush_backlog_bytes")
    if backlog != max(ro - flushed, 0):
        raise CheckError(f"{what}: flush_backlog_bytes={backlog}, expected "
                         f"max(read_only - flushed_until, 0)")
    need_u64(region, "buffer_pages")
    need(region, "io_error", bool)


def check_log(doc):
    check_region(need(doc, "log", dict), "log")
    if "read_cache" in doc:
        check_region(need(doc, "read_cache", dict), "read_cache")


def check_epochs(doc):
    current = need_u64(doc, "current_epoch")
    safe = need_u64(doc, "safe_epoch")
    if safe > current:
        raise CheckError(f"safe_epoch={safe} > current_epoch={current}")
    need_u64(doc, "outstanding_actions")
    threads = need(doc, "threads", list)
    if need_u64(doc, "protected_threads") != len(threads):
        raise CheckError("protected_threads != len(threads)")
    for i, t in enumerate(threads):
        need_u64(t, "tid")
        # The wait site (core/wait.h) the thread spins in, or null.
        if "wait" not in t:
            raise CheckError(f"threads[{i}]: missing key 'wait'")
        if t["wait"] is not None and (not isinstance(t["wait"], str)
                                      or not t["wait"]):
            raise CheckError(f"threads[{i}]: wait must be null or a site "
                             f"name: {t['wait']!r}")
        local = need_u64(t, "local_epoch")
        lag = need_u64(t, "lag")
        # A thread may Protect (bumping its local epoch to one the scan's
        # earlier current_epoch read predates) mid-scan; only flag lag
        # inconsistency when the snapshot was orderly.
        if local <= current and lag != current - local:
            raise CheckError(f"threads[{i}]: lag={lag}, expected "
                             f"{current - local}")


def check_connections(doc):
    conns = need(doc, "connections", list)
    if need_u64(doc, "open") != len(conns):
        raise CheckError("open != len(connections)")
    for i, c in enumerate(conns):
        need_u64(c, "fd")
        need_u64(c, "worker")
        need_u64(c, "age_ms")
        need_u64(c, "bytes_in")
        need_u64(c, "bytes_out")
        need_u64(c, "commands")


def check_perf(doc):
    need(doc, "armed", bool)
    need_u64(doc, "truncated_scopes")
    for name in need(doc, "counters_available", list):
        if name not in PERF_COUNTERS:
            raise CheckError(f"unknown counter {name!r}")
    stages = need(doc, "stages", dict)
    if tuple(stages) != STAGES:
        raise CheckError(f"stage keys {list(stages)} != {list(STAGES)}")
    for name, stage in stages.items():
        if not isinstance(stage, dict):
            raise CheckError(f"stages[{name!r}] is not an object")
        if tuple(stage) != ("scopes",) + PERF_COUNTERS:
            raise CheckError(f"stages[{name!r}] keys {list(stage)}")
        for key in stage:
            need_u64(stage, key)


CHECKERS = {
    "slowlog": check_slowlog,
    "index": check_index,
    "log": check_log,
    "epochs": check_epochs,
    "connections": check_connections,
    "perf": check_perf,
}


def main():
    if len(sys.argv) < 2 or sys.argv[1] not in CHECKERS:
        print(__doc__, file=sys.stderr)
        return 2
    endpoint = sys.argv[1]
    if len(sys.argv) > 2:
        with open(sys.argv[2]) as f:
            body = f.read()
    else:
        body = sys.stdin.read()
    try:
        doc = json.loads(body)
    except json.JSONDecodeError as e:
        print(f"check_debug_json: {endpoint}: not JSON: {e}", file=sys.stderr)
        return 1
    if not isinstance(doc, dict):
        print(f"check_debug_json: {endpoint}: body is not a JSON object",
              file=sys.stderr)
        return 1
    try:
        CHECKERS[endpoint](doc)
    except CheckError as e:
        print(f"check_debug_json: {endpoint}: {e}", file=sys.stderr)
        return 1
    print(f"check_debug_json: {endpoint}: ok "
          f"({len(body)} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
