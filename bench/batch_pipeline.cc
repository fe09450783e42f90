// Measures the software-pipelined batch API (ReadBatch / ExecuteBatch)
// against the single-op path by sweeping the batch size B over
// {1, 4, 8, 16, 32, 64}. B=1 uses the plain single-op loop; B>1 hashes
// all keys up front, prefetches their hash buckets, then runs each op
// through the single-op engine against warm buckets (group prefetching
// a la Lomet & Wang's pipelined BwTree work, cited in Sec. 7 discussion).
//
// The headline case is read-heavy uniform in-memory (YCSB-C style): with
// a working set far larger than L2, every op is a dependent cache-miss
// chain (bucket -> record) and batching overlaps those misses via
// memory-level parallelism on a single core. A mixed 50:50 sweep shows
// the benefit persists with in-place updates in the mutable region.
//
// Reported counters: B (batch size) and Mops; summarize_bench.py groups
// on B and prints best-B vs B=1 speedup per case.

#include "common.h"

namespace faster {
namespace bench {
namespace {

// Large enough that bucket+record lookups miss cache (the point of the
// pipeline), small enough to stay in-memory on the default config.
uint64_t PipelineKeys() { return BenchKeys(uint64_t{1} << 21); }

void BM_BatchSweep(benchmark::State& state, double reads) {
  uint64_t keys = PipelineKeys();
  auto spec = WorkloadSpec::Ycsb(reads, 0.0, Distribution::kUniform, keys);
  uint32_t batch = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    FasterStoreHolder<CountStoreFunctions> holder{
        FasterConfig<CountStoreFunctions>(keys, keys * 64)};
    holder.Load(keys);
    FasterAdapter<CountStoreFunctions> adapter{*holder.store};
    auto r = RunWorkload(adapter, spec, /*num_threads=*/1, BenchSeconds(),
                         /*seed=*/1, batch);
    Report(state, r);
    state.counters["B"] = static_cast<double>(batch);
  }
}

void BM_Read100(benchmark::State& state) { BM_BatchSweep(state, 1.0); }
void BM_Mixed5050(benchmark::State& state) { BM_BatchSweep(state, 0.5); }

void RegisterAll() {
  for (int64_t b : {1, 4, 8, 16, 32, 64}) {
    benchmark::RegisterBenchmark(
        ("fig_batch/read100/uniform/B:" + std::to_string(b)).c_str(),
        BM_Read100)
        ->Args({b})
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark(
        ("fig_batch/50:50/uniform/B:" + std::to_string(b)).c_str(),
        BM_Mixed5050)
        ->Args({b})
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
}

}  // namespace
}  // namespace bench
}  // namespace faster

int main(int argc, char** argv) {
  faster::bench::RegisterAll();
  return faster::bench::RunBenchmarks(argc, argv);
}
