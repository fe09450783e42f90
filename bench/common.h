#ifndef FASTER_BENCH_COMMON_H_
#define FASTER_BENCH_COMMON_H_

#include <benchmark/benchmark.h>
#include <errno.h>  // program_invocation_short_name (GNU)

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "baselines/minilsm/db.h"
#include "baselines/ordered_store.h"
#include "baselines/shard_hash_map.h"
#include "core/faster.h"
#include "core/functions.h"
#include "device/memory_device.h"
#include "obs/build_info.h"
#include "obs/flight_recorder.h"
#include "obs/perf.h"
#include "workload/ycsb.h"

namespace faster {
namespace bench {

/// Per-case measurement window. The paper runs 30 s per test; this
/// scaled-down harness defaults to a short window, overridable with
/// FASTER_BENCH_SECONDS. Malformed or non-positive values fall back to the
/// default with a warning rather than silently running a 0-second bench.
inline double BenchSeconds(double def = 0.6) {
  const char* env = std::getenv("FASTER_BENCH_SECONDS");
  if (env == nullptr) return def;
  char* end = nullptr;
  double v = std::strtod(env, &end);
  if (end == env || *end != '\0' || !(v > 0)) {
    std::fprintf(stderr,
                 "bench: invalid FASTER_BENCH_SECONDS='%s'; using %g\n", env,
                 def);
    return def;
  }
  return v;
}

/// Dataset size. The paper uses 250 M keys; the scaled-down default is
/// overridable with FASTER_BENCH_KEYS.
inline uint64_t BenchKeys(uint64_t def = uint64_t{1} << 20) {
  const char* env = std::getenv("FASTER_BENCH_KEYS");
  if (env == nullptr) return def;
  errno = 0;
  char* end = nullptr;
  uint64_t v = std::strtoull(env, &end, 10);
  if (end == env || *end != '\0' || errno == ERANGE || v == 0) {
    std::fprintf(stderr,
                 "bench: invalid FASTER_BENCH_KEYS='%s'; using %llu\n", env,
                 static_cast<unsigned long long>(def));
    return def;
  }
  return v;
}

/// Worker-thread counts for "all threads" style experiments (the paper's
/// machine has 56 hyperthreads; this container is single-core, so thread
/// sweeps measure contention behaviour rather than parallel speedup).
inline uint32_t BenchMaxThreads(uint32_t def = 4) {
  const char* env = std::getenv("FASTER_BENCH_THREADS");
  if (env == nullptr) return def;
  errno = 0;
  char* end = nullptr;
  unsigned long v = std::strtoul(env, &end, 10);
  if (end == env || *end != '\0' || errno == ERANGE || v == 0 ||
      v > Thread::kMaxThreads) {
    std::fprintf(stderr,
                 "bench: invalid FASTER_BENCH_THREADS='%s' (want 1..%u); "
                 "using %u\n",
                 env, Thread::kMaxThreads, def);
    return def;
  }
  return static_cast<uint32_t>(v);
}

template <class V>
V MakeValue(uint64_t seed) {
  if constexpr (std::is_same_v<V, uint64_t>) {
    return seed;
  } else {
    V v{};
    std::memcpy(&v, &seed, sizeof(uint64_t));
    return v;
  }
}

// ---------------------------------------------------------------------------
// FASTER
// ---------------------------------------------------------------------------

template <class F>
struct FasterStoreHolder {
  explicit FasterStoreHolder(const typename FasterKv<F>::Config& cfg)
      : device(std::make_unique<MemoryDevice>()),
        store(std::make_unique<FasterKv<F>>(cfg, device.get())) {}

  /// Preloads keys [0, n) (the paper preloads the dataset before runs).
  void Load(uint64_t n) {
    store->StartSession();
    for (uint64_t k = 0; k < n; ++k) {
      store->Upsert(k, MakeValue<typename F::Value>(k));
    }
    store->StopSession();
  }

  std::unique_ptr<MemoryDevice> device;
  std::unique_ptr<FasterKv<F>> store;
};

template <class F>
typename FasterKv<F>::Config FasterConfig(uint64_t keys, uint64_t mem_bytes,
                                          double mutable_frac = 0.9,
                                          bool force_rcu = false) {
  typename FasterKv<F>::Config cfg;
  cfg.table_size = std::max<uint64_t>(keys / 2, 1024);  // paper: #keys/2
  cfg.log.memory_size_bytes = mem_bytes;
  cfg.log.mutable_fraction = mutable_frac;
  cfg.force_rcu = force_rcu;
  return cfg;
}

template <class F>
struct FasterAdapter {
  explicit FasterAdapter(FasterKv<F>& s) : store{s} {}
  FasterKv<F>& store;

  void Begin() { store.StartSession(); }
  void End() { store.StopSession(); }
  void DoRead(uint64_t key) {
    // Pending reads land in this thread-local sink at CompletePending time.
    thread_local typename F::Output out;
    benchmark::DoNotOptimize(store.Read(key, 1, &out));
  }
  void DoUpsert(uint64_t key, uint64_t seq) {
    store.Upsert(key, MakeValue<typename F::Value>(seq));
  }
  void DoRmw(uint64_t key) { store.Rmw(key, 1); }
  void DoBatch(const OpGenerator::Op* ops, size_t n) {
    // Outputs are thread_local so a read that goes pending still has a
    // live destination at CompletePending time (same as DoRead's out).
    thread_local std::vector<typename F::Output> outs(256);
    thread_local uint64_t seq = 0;
    using Store = FasterKv<F>;
    typename Store::BatchOp b[256];
    if (outs.size() < n) outs.resize(n);
    for (size_t i = 0; i < n; ++i) {
      switch (ops[i].kind) {
        case OpKind::kRead:
          b[i].kind = Store::BatchOp::Kind::kRead;
          b[i].key = ops[i].key;
          b[i].input = 1;
          b[i].output = &outs[i];
          break;
        case OpKind::kUpsert:
          b[i].kind = Store::BatchOp::Kind::kUpsert;
          b[i].key = ops[i].key;
          b[i].value = MakeValue<typename F::Value>(seq++);
          break;
        case OpKind::kRmw:
          b[i].kind = Store::BatchOp::Kind::kRmw;
          b[i].key = ops[i].key;
          b[i].input = 1;
          break;
      }
    }
    store.ExecuteBatch(b, n);
  }
  void Idle() { store.CompletePending(false); }
};

// ---------------------------------------------------------------------------
// Baselines
// ---------------------------------------------------------------------------

template <class V>
struct ShardMapAdapter {
  explicit ShardMapAdapter(ShardHashMap<uint64_t, V>& m) : map{m} {}
  ShardHashMap<uint64_t, V>& map;

  void Begin() {}
  void End() {}
  void DoRead(uint64_t key) {
    V out;
    benchmark::DoNotOptimize(map.Get(key, &out));
  }
  void DoUpsert(uint64_t key, uint64_t seq) {
    map.Put(key, MakeValue<V>(seq));
  }
  void DoRmw(uint64_t key) {
    map.Rmw(key, [](V& v, bool fresh) {
      uint64_t c = 0;
      if (!fresh) std::memcpy(&c, &v, 8);
      ++c;
      std::memcpy(&v, &c, 8);
    });
  }
  void Idle() {}
};

template <class V>
struct OrderedAdapter {
  explicit OrderedAdapter(OrderedStore<uint64_t, V>& s) : store{s} {}
  OrderedStore<uint64_t, V>& store;

  void Begin() {}
  void End() {}
  void DoRead(uint64_t key) {
    V out;
    benchmark::DoNotOptimize(store.Get(key, &out));
  }
  void DoUpsert(uint64_t key, uint64_t seq) {
    store.Put(key, MakeValue<V>(seq));
  }
  void DoRmw(uint64_t key) {
    store.Rmw(key, [](V& v, bool fresh) {
      uint64_t c = 0;
      if (!fresh) std::memcpy(&c, &v, 8);
      ++c;
      std::memcpy(&v, &c, 8);
    });
  }
  void Idle() {}
};

struct LsmAdapter {
  explicit LsmAdapter(minilsm::MiniLsm& d, uint32_t value_size)
      : db{d}, value(value_size, 0) {}
  minilsm::MiniLsm& db;
  std::vector<uint8_t> value;

  void Begin() {}
  void End() {}
  void DoRead(uint64_t key) {
    thread_local std::vector<uint8_t> out(256);
    benchmark::DoNotOptimize(db.Get(key, out.data()));
  }
  void DoUpsert(uint64_t key, uint64_t seq) {
    std::memcpy(value.data(), &seq, 8);
    db.Put(key, value.data());
  }
  void DoRmw(uint64_t key) {
    db.Rmw(key, [](void* v, bool fresh) {
      uint64_t c = 0;
      if (!fresh) std::memcpy(&c, v, 8);
      ++c;
      std::memcpy(v, &c, 8);
    });
  }
  void Idle() {}
};

/// Accumulates one machine-readable result row per benchmark case and
/// writes them as a JSON "sidecar" file when the binary exits, so
/// tools/summarize_bench.py can merge results without scraping console
/// logs. Destination: $FASTER_BENCH_JSON_DIR/<binary>.stats.json
/// (default: current directory). Schema: faster-bench-v2 — adds a
/// "build" block (git sha, build type, feature flags) and a "config"
/// block (the env knobs that shaped the run) on top of v1's per-case
/// counters, so tools/bench_compare.py can refuse apples-to-oranges
/// comparisons. Consumers must keep accepting v1 (old baselines).
class BenchSidecar {
 public:
  static BenchSidecar& Instance() {
    static BenchSidecar s;
    return s;
  }

  void Add(const std::string& case_name,
           std::vector<std::pair<std::string, double>> counters) {
    std::lock_guard<std::mutex> lock{mutex_};
    cases_.emplace_back(case_name, std::move(counters));
  }

  ~BenchSidecar() { Write(); }

 private:
  BenchSidecar() = default;

  static std::string Escape(const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  }

  void Write() {
    if (cases_.empty()) return;
    const char* dir = std::getenv("FASTER_BENCH_JSON_DIR");
    std::string bench = program_invocation_short_name;
    std::string path =
        std::string(dir != nullptr ? dir : ".") + "/" + bench + ".stats.json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench: cannot write sidecar %s\n", path.c_str());
      return;
    }
    std::fprintf(f, "{\"schema\": \"faster-bench-v2\", \"bench\": \"%s\",",
                 Escape(bench).c_str());
    std::fprintf(f, "\n \"build\": %s,", obs::BuildInfoJson().c_str());
    const char* perf_env = std::getenv("FASTER_BENCH_PERF");
    std::fprintf(f,
                 "\n \"config\": {\"bench_seconds\": %.17g, "
                 "\"bench_keys\": %llu, \"bench_threads\": %u, "
                 "\"perf_counters\": %s},",
                 BenchSeconds(),
                 static_cast<unsigned long long>(BenchKeys()),
                 BenchMaxThreads(),
                 perf_env != nullptr && perf_env[0] == '1' ? "true" : "false");
    std::fprintf(f, " \"cases\": [");
    for (size_t i = 0; i < cases_.size(); ++i) {
      std::fprintf(f, "%s\n  {\"name\": \"%s\", \"counters\": {",
                   i == 0 ? "" : ",", Escape(cases_[i].first).c_str());
      const auto& counters = cases_[i].second;
      for (size_t j = 0; j < counters.size(); ++j) {
        std::fprintf(f, "%s\"%s\": %.17g", j == 0 ? "" : ", ",
                     Escape(counters[j].first).c_str(), counters[j].second);
      }
      std::fprintf(f, "}}");
    }
    std::fprintf(f, "\n]}\n");
    std::fclose(f);
  }

  std::mutex mutex_;
  std::vector<std::pair<std::string, std::vector<std::pair<std::string, double>>>>
      cases_;
};

/// Publishes a RunResult on the benchmark state. Latency percentiles
/// (sampled 1-in-256, FASTER_STATS builds only; see RunResult) are exposed
/// as counters so they reach both the console table and the JSON sidecar.
inline void Report(benchmark::State& state, const RunResult& r) {
  state.counters["Mops"] =
      benchmark::Counter(r.mops, benchmark::Counter::kAvgThreads);
  state.counters["total_ops"] = benchmark::Counter(
      static_cast<double>(r.total_ops), benchmark::Counter::kAvgThreads);
  state.SetItemsProcessed(static_cast<int64_t>(r.total_ops));
  if (r.latency_samples > 0) {
    state.counters["p50_us"] = benchmark::Counter(
        static_cast<double>(r.p50_ns) / 1e3, benchmark::Counter::kAvgThreads);
    state.counters["p99_us"] = benchmark::Counter(
        static_cast<double>(r.p99_ns) / 1e3, benchmark::Counter::kAvgThreads);
    state.counters["p999_us"] = benchmark::Counter(
        static_cast<double>(r.p999_ns) / 1e3, benchmark::Counter::kAvgThreads);
  }
  // Hardware-counter efficiency metrics (FASTER_BENCH_PERF=1 runs only).
  // Published per metric, gated on event availability, so a no-PMU VM run
  // (task-clock + switches only) still reports what it measured.
  if (r.perf_mask != 0) {
    auto put = [&state](const char* name, double v) {
      state.counters[name] = benchmark::Counter(v,
                                                benchmark::Counter::kAvgThreads);
    };
    obs::PerfDerived d =
        obs::DerivePerfMetrics(r.perf_counts, r.perf_mask, r.total_ops);
    if (d.has_ipc) put("ipc", d.ipc);
    if (d.has_cache_miss_pct) put("cache_miss_pct", d.cache_miss_pct);
    if (d.has_cycles_per_op) put("cycles_per_op", d.cycles_per_op);
    if (d.has_branch_miss_per_kop)
      put("branch_miss_per_kop", d.branch_miss_per_kop);
    if (d.has_dtlb_miss_per_kop) put("dtlb_miss_per_kop", d.dtlb_miss_per_kop);
    if (d.has_switches_per_kop) put("switches_per_kop", d.switches_per_kop);
  }
}

/// Console reporter that also copies each finished run (name + counters +
/// items/sec) into the BenchSidecar, so every bench binary emits a JSON
/// sidecar without per-case plumbing.
class SidecarReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    benchmark::ConsoleReporter::ReportRuns(reports);
    for (const Run& run : reports) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      std::vector<std::pair<std::string, double>> counters;
      counters.emplace_back("iterations",
                            static_cast<double>(run.iterations));
      counters.emplace_back("real_time_s", run.real_accumulated_time);
      for (const auto& kv : run.counters) {
        counters.emplace_back(kv.first, kv.second.value);
      }
      BenchSidecar::Instance().Add(run.benchmark_name(),
                                   std::move(counters));
    }
  }
};

/// Shared main body for all bench binaries: runs google-benchmark with the
/// sidecar-emitting reporter.
inline int RunBenchmarks(int argc, char** argv) {
  // CI runs benches with FASTER_FLIGHT_DIR set so a crash mid-bench (e.g.
  // an epoch-check abort under -DFASTER_EPOCH_CHECK) leaves a flight dump
  // next to the sidecar instead of just an exit code.
  if (std::getenv("FASTER_FLIGHT_DIR") != nullptr) {
    obs::FlightRecorder::Instance().Install();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  SidecarReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}

using Blob100 = BlobStoreFunctions<100>::Blob;

}  // namespace bench
}  // namespace faster

#endif  // FASTER_BENCH_COMMON_H_
