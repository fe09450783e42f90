#!/usr/bin/env bash
# Prints the code size in bytes (nm -S) of the op engine's entry points,
# Read, Upsert and ExecuteChunk, for the two stores the benchmark suite
# compiles: FasterKv<CountStoreFunctions> (8-byte values) and
# FasterKv<BlobStoreFunctions<100>> (100-byte values). An op the binary
# does not emit out of line prints "-". Compare two builds' output to see
# a hot-path change inline more or less code.
#
# Usage: tools/op_sizes.sh BIN
#   e.g. tools/op_sizes.sh .bench_build/suite/faster_bench_suite
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 BIN" >&2
  exit 2
fi
symbols=$(nm -S -C "$1")
for store in 'CountStoreFunctions' 'BlobStoreFunctions<100u>'; do
  for op in Read Upsert ExecuteChunk; do
    hex=$(grep -F "FasterKv<faster::${store}, " <<< "${symbols}" |
      grep -F ">::${op}(" | awk '{print $2}' | head -n 1 || true)
    size=-
    if [[ -n "${hex}" ]]; then size=$((16#${hex})); fi
    printf 'op_sizes: FasterKv<%s>::%s %s\n' "${store}" "${op}" "${size}"
  done
done
