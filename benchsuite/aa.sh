#!/usr/bin/env bash
# A/A check of the benchmark's noise: runs one build RUNS times per
# workload as two alternating sets (odd runs A, even runs B), each run
# with its own seed, and prints per workload and metric of an untraced run:
#
#   bound    the metric's bound in BENCHMARK.json ("-": not gated)
#   median   over all runs
#   IQR%     (Q3 - Q1) / median, quartiles as statistics.quantiles(n=4)
#   A-B%     difference of the two sets' medians, as a share of the median
#   verdict  "ok" when IQR% <= 10 and |A-B%| <= 10, and for a gated metric
#            also IQR% <= bound/3 and |A-B%| <= bound; else "NOISY".
#            A metric must read "ok" to be gated (BENCHMARK.json end_to_end).
#
#   benchsuite/aa.sh [RUNS] [WORKLOAD...]   run (default 10 runs, all four)
#   benchsuite/aa.sh FILE.jsonl             re-print the table of a past run
#
# Run from anywhere; results are written to .bench_build/aa/<time>.jsonl.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -ge 1 && "$1" == *.jsonl ]]; then
  out=$1
else
  runs=${1:-10}
  shift || true
  workloads=("$@")
  if [[ ${#workloads[@]} -eq 0 ]]; then
    workloads=(hot-zipf-rw cold-uniform-batch spill-read-mostly resp-openloop)
  fi
  seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
  out=.bench_build/aa/$(date +%Y%m%d-%H%M%S).jsonl
  mkdir -p "$(dirname "$out")"
  for ((i = 1; i <= runs; i++)); do
    set=$([[ $((i % 2)) -eq 1 ]] && echo A || echo B)
    for w in "${workloads[@]}"; do
      python3 benchsuite/run.py --workload "$w" --seed "$i" \
          --seconds "$seconds" --trace 0 2>/dev/null |
        python3 -c '
import json, sys
set_, workload, seed = sys.argv[1:4]
lines = sys.stdin.read().splitlines()
result = json.loads(lines[-1])
metrics = {}
for line in lines[:-1]:
    head, value, _unit = line.split()
    w, _, name = head.partition("/")
    if (w == workload and not name.startswith("bench.")
            and name not in ("attempted", "failed")):
        metrics[name] = float(value)
print(json.dumps({"set": set_, "workload": workload, "seed": int(seed),
                  "correct": result["correct"], "failed": result["failed"],
                  "metrics": metrics}))
' "$set" "$w" "$i" >> "$out"
      echo "run $i/$runs $w done" >&2
    done
  done
fi

python3 - "$out" <<'EOF'
import collections
import json
import statistics
import sys

spec = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m["bound"] * 100 for m in spec["end_to_end"]}
values = collections.defaultdict(lambda: {"A": [], "B": []})
failed = 0
for line in open(sys.argv[1]):
    row = json.loads(line)
    failed += row["failed"] + (0 if row["correct"] else 1)
    for name, value in row["metrics"].items():
        values[(row["workload"], name)][row["set"]].append(value)

print(f"A/A table from {sys.argv[1]} (failed checks: {failed})\n")
print("| workload | metric | bound% | n | median | IQR% | A-B% | verdict |")
print("|---|---|---|---|---|---|---|---|")
for (workload, name), sets in sorted(values.items()):
    both = sets["A"] + sets["B"]
    med = statistics.median(both)
    q1, _, q3 = statistics.quantiles(both, n=4) if len(both) > 1 else (med, 0, med)
    iqr = (q3 - q1) / med * 100
    diff = ((statistics.median(sets["A"]) - statistics.median(sets["B"])) / med
            * 100 if sets["A"] and sets["B"] else float("nan"))
    bound = bounds.get(name)
    ok = iqr <= 10 and abs(diff) <= 10
    if bound is not None:
        ok = ok and iqr <= bound / 3 and abs(diff) <= bound
    shown = "-" if bound is None else f"{bound:.0f}"
    print(f"| {workload} | {name} | {shown} | {len(both)} | {med:.4g} | "
          f"{iqr:.1f} | {diff:+.1f} | {'ok' if ok else 'NOISY'} |")
EOF
