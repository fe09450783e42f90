#!/usr/bin/env python3
"""Repository benchmark: builds the suite and runs it.

  run.py --workload NAME --seed N --seconds S --trace 0|1
  run.py --workload all --seed N [--seconds S]
  run.py --smoke [--binary PATH]

Builds benchsuite/ (which builds the store from the repository's own
CMake project) into .bench_build/suite, then runs each workload in its own
process. The last line of stdout is one JSON object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Before that line, every metric each workload process printed is echoed
as `workload/metric value unit`. --trace 0 reports the end-to-end metrics
BENCHMARK.json names. --trace 1 runs every workload traced plus the layer
microbenchmarks, and reports the per-layer metrics: each layer metric from
the workload whose end-to-end metric it explains, and the workload-wide
ones (throughput_mops, p50_us, p99_us, bench.*) from the requested
workload. --workload all reports the end-to-end metrics of all four
workloads. --smoke runs everything at tiny sizes and checks that every
metric BENCHMARK.json names is printed with its unit.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build"
WORKLOADS = [
    "hot-zipf-rw",
    "cold-uniform-batch",
    "spill-read-mostly",
    "resp-openloop",
]
# Measurement processes share this budget, so an invocation ends within
# 180 s of its build.
RUN_BUDGET_S = 170
RESP_BURST = 16


class SuiteError(Exception):
    pass


def build(build_dir):
    """Configures (once) and builds the suite binary; returns its path."""
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "build.log"
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "faster_bench_suite", "-j", str(min(4, os.cpu_count() or 1))])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    cwd=ROOT).returncode
            except FileNotFoundError as e:
                raise SuiteError(f"build: {e}")
            if rc != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                raise SuiteError("build failed:\n" + "\n".join(tail))
    return build_dir / "faster_bench_suite"


class Result:
    """Parsed output of one suite process."""

    def __init__(self, workload, returncode, stdout):
        self.workload = workload
        self.returncode = returncode
        self.metrics = {}  # name -> (value, unit)
        self.attempted = 0
        self.failed = 0
        reported = False
        for line in stdout.splitlines():
            head, _, rest = line.partition(" ")
            w, _, name = head.partition("/")
            parts = rest.split()
            if w != workload or not name or len(parts) != 2:
                continue
            print(line)
            value = float(parts[0])
            if name == "attempted":
                self.attempted = int(value)
            elif name == "failed":
                self.failed = int(value)
                reported = True
            else:
                self.metrics[name] = (value, parts[1])
        if returncode not in (0, 1) or not reported:
            raise SuiteError(f"{workload}: suite exited {returncode} "
                             "without a report")

    @property
    def ok(self):
        return self.returncode == 0 and self.failed == 0


def run_suite(binary, workload, deadline, seed, seconds=None, trace=None,
              smoke=False):
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--tmpdir", str(tmp)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    if trace is not None:
        cmd += ["--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    left = deadline - time.monotonic()
    if left <= 0:
        raise SuiteError(f"{workload}: no time left in the run budget")
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=left)
    except subprocess.TimeoutExpired:
        raise SuiteError(f"{workload}: timed out")
    return Result(workload, p.returncode, p.stdout)


def validate_trace(path):
    """Checks a trace with the repository's trace validator, if present."""
    tool = ROOT / "tools" / "trace2perfetto.py"
    if not tool.exists():
        return True
    p = subprocess.run([sys.executable, str(tool), "validate", str(path)],
                       stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                       text=True)
    if p.returncode != 0:
        print(p.stdout[-2000:], file=sys.stderr)
    return p.returncode == 0


def traced_run(binary, workload, deadline, seed, seconds, smoke=False):
    """Per-layer metrics: every workload traced, plus the layer cases."""
    traces = WORK / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    results = {}
    traces_ok = True
    for w in WORKLOADS:
        path = traces / f"{w}.json"
        results[w] = run_suite(binary, w, deadline, seed, seconds, path,
                               smoke)
        traces_ok = validate_trace(path) and traces_ok
    layers = run_suite(binary, "layers", deadline, seed, smoke=smoke)

    # Layer metrics are named after their layer and printed by one
    # workload only; the requested workload goes last, so the metrics every
    # workload prints (throughput_mops, bench.window_iqr_pct, ...) are its.
    metrics = {}
    for w in sorted(results, key=lambda w: w == workload):
        metrics.update(results[w].metrics)
    metrics.update(layers.metrics)
    resp = results["resp-openloop"].metrics
    # What the burst latency leaves after the server's own per-command
    # work: the kernel, loopback and wake-up share.
    server_ns = sum(layers.metrics[m][0] for m in (
        "net.resp.parse_ns_per_cmd", "net.store.batch_ns_per_cmd",
        "net.resp.render_ns_per_reply"))
    metrics["net.residue_us"] = (
        resp["net.openloop.p50_us"][0] - RESP_BURST * server_ns / 1000.0,
        "us")

    all_results = list(results.values()) + [layers]
    correct = traces_ok and all(r.ok for r in all_results)
    return metrics, all_results, correct


def summary(correct, results, metrics, names):
    """The result line: the metrics named in `names`, in that order."""
    missing_names = [n for n in names if n not in metrics]
    if missing_names:
        raise SuiteError("metrics missing: " + ", ".join(missing_names))
    return {
        "correct": bool(correct),
        "attempted": max(1, sum(r.attempted for r in results)),
        "failed": sum(r.failed for r in results),
        "metrics": {name: {"value": metrics[name][0],
                           "unit": metrics[name][1]} for name in names},
    }


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def missing(metrics, declared):
    return [f"{name} [{unit}]" for name, unit in declared.items()
            if name not in metrics or metrics[name][1] != unit]


def smoke(binary):
    end_to_end, per_layer = declared_metrics()
    deadline = time.monotonic() + 10 * RUN_BUDGET_S
    problems = []
    for w in WORKLOADS:
        r = run_suite(binary, w, deadline, seed=1, smoke=True)
        if not r.ok:
            problems.append(f"{w}: checks failed")
        problems += [f"{w}: missing {m}" for m in missing(r.metrics,
                                                          end_to_end)]
    metrics, results, correct = traced_run(binary, WORKLOADS[0], deadline,
                                           seed=1, seconds=2, smoke=True)
    if not correct:
        problems.append("traced run: checks failed")
    problems += [f"traced run: missing {m}" for m in missing(metrics,
                                                             per_layer)]
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--binary", type=Path,
                    help="use this suite binary instead of building one")
    args = ap.parse_args()
    if not args.smoke and args.workload is None:
        ap.error("--workload is required")

    try:
        end_to_end, per_layer = declared_metrics()
        binary = args.binary or build(WORK / "suite")
        if args.smoke:
            return smoke(binary)
        deadline = time.monotonic() + RUN_BUDGET_S
        if args.trace == 1 and args.workload != "all":
            metrics, results, correct = traced_run(
                binary, args.workload, deadline, args.seed, args.seconds)
            print(json.dumps(summary(correct, results, metrics, per_layer)))
            return 0
        if args.workload != "all":
            r = run_suite(binary, args.workload, deadline, args.seed,
                          args.seconds)
            print(json.dumps(summary(r.ok, [r], r.metrics, end_to_end)))
            return 0
        deadline += RUN_BUDGET_S * (len(WORKLOADS) - 1)
        results, metrics = [], {}
        for w in WORKLOADS:
            r = run_suite(binary, w, deadline, args.seed, args.seconds)
            results.append(r)
            metrics.update({f"{w}/{name}": vu
                            for name, vu in r.metrics.items()})
        names = [f"{w}/{name}" for w in WORKLOADS for name in end_to_end]
        correct = all(r.ok for r in results)
        print(json.dumps(summary(correct, results, metrics, names)))
        return 0
    except SuiteError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
