// Ablation for the read cache (Appendix D): a read-mostly workload over a
// larger-than-memory dataset with a skewed (Zipf / hot-set) access pattern,
// with and without the read cache enabled. Expected shape: with the cache,
// most reads of read-hot records are served from memory (high
// read_cache_hit ratio, fewer storage reads, higher throughput); without
// it, every read below the head pays a storage I/O. Uniform access shows
// little benefit (nothing is read-hot) — the caveat Appendix D notes.
// Each case also runs through ExecuteBatch (B:32 in its name), the path
// the RESP server and the batch benchmarks serve reads through.

#include "common.h"

namespace faster {
namespace bench {
namespace {

void BM_ReadCache(benchmark::State& state) {
  bool enable_cache = state.range(0) == 1;
  Distribution dist =
      state.range(1) == 0 ? Distribution::kZipfian : Distribution::kUniform;
  uint32_t batch = static_cast<uint32_t>(state.range(2));
  // Need a dataset several times the 8 MB (2-page) budget so reads
  // actually hit storage, whatever FASTER_BENCH_KEYS says.
  uint64_t keys = std::max<uint64_t>(BenchKeys(), uint64_t{1} << 20);
  // 90% reads over a dataset ~3-6x the memory budget.
  auto spec = WorkloadSpec::Ycsb(0.9, 0.0, dist, keys);
  for (auto _ : state) {
    auto cfg = FasterConfig<CountStoreFunctions>(
        keys, 2ull << Address::kOffsetBits, 0.5);
    cfg.enable_read_cache = enable_cache;
    cfg.read_cache.memory_size_bytes = 2ull << Address::kOffsetBits;
    cfg.read_cache.mutable_fraction = 0.5;
    FasterStoreHolder<CountStoreFunctions> holder{cfg};
    holder.Load(keys);
    FasterAdapter<CountStoreFunctions> adapter{*holder.store};
    Report(state,
           RunWorkload(adapter, spec, 2, BenchSeconds(), /*seed=*/1, batch));
    state.counters["B"] = static_cast<double>(batch);
    auto stats = holder.store->GetStats();
    double reads = static_cast<double>(stats.reads);
    state.counters["storage_reads_pct"] = benchmark::Counter(
        reads > 0 ? 100.0 * static_cast<double>(stats.pending_ios) / reads
                  : 0.0);
    state.counters["cache_hit_pct"] = benchmark::Counter(
        reads > 0 ? 100.0 * static_cast<double>(stats.read_cache_hits) / reads
                  : 0.0);
  }
}

void RegisterAll() {
  for (int64_t b : {1, 32}) {
    for (int d = 0; d < 2; ++d) {
      for (int c = 0; c < 2; ++c) {
        std::string name = std::string("appendixD/") +
                           (d == 0 ? "zipf" : "uniform") + "/" +
                           (c == 1 ? "with_cache" : "no_cache");
        if (b > 1) name += "/B:" + std::to_string(b);
        benchmark::RegisterBenchmark(name.c_str(), BM_ReadCache)
            ->Args({c, d, b})
            ->Iterations(1)
            ->Unit(benchmark::kMillisecond);
      }
    }
  }
}

}  // namespace
}  // namespace bench
}  // namespace faster

int main(int argc, char** argv) {
  faster::bench::RegisterAll();
  return faster::bench::RunBenchmarks(argc, argv);
}
