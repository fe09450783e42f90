#ifndef FASTER_BENCH_COMMON_H_
#define FASTER_BENCH_COMMON_H_

#include <benchmark/benchmark.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "baselines/minilsm/db.h"
#include "baselines/ordered_store.h"
#include "baselines/shard_hash_map.h"
#include "core/faster.h"
#include "core/functions.h"
#include "device/memory_device.h"
#include "obs/flight_recorder.h"
#include "runner.h"

namespace faster {
namespace bench {

/// Measured time per case, cut into 0.1 s windows (runner.h). The paper
/// runs 30 s per test; this scaled-down harness defaults to a short
/// phase, overridable with FASTER_BENCH_SECONDS. Malformed or
/// non-positive values fall back to the default with a warning rather
/// than silently running a 0-second bench.
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

/// Worker-thread counts for "all threads" style experiments. The paper's
/// machine has 56 hyperthreads; the default fits a 4-vCPU host, so only
/// sweeps past it (fig11 goes to twice this) measure contention rather
/// than parallel speedup.
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

/// Publishes a RunResult on the benchmark state: Mops (the median window
/// rate), the number of windows and their interquartile range (% of the
/// median), and the latency percentiles, so they reach the console table.
inline void Report(benchmark::State& state, const RunResult& r) {
  auto put = [&state](const char* name, double v) {
    state.counters[name] =
        benchmark::Counter(v, benchmark::Counter::kAvgThreads);
  };
  put("Mops", r.mops);
  put("windows", static_cast<double>(r.window_mops.size()));
  put("iqr_pct", r.iqr_pct);
  put("total_ops", static_cast<double>(r.total_ops));
  put("p50_us", r.p50_us);
  put("p99_us", r.p99_us);
  put("p999_us", r.p999_us);
  state.SetItemsProcessed(static_cast<int64_t>(r.total_ops));
}

/// Shared main body for all bench binaries: runs google-benchmark with
/// its console reporter.
inline int RunBenchmarks(int argc, char** argv) {
  // CI runs benches with FASTER_FLIGHT_DIR set so a crash mid-bench (e.g.
  // an epoch-check abort under -DFASTER_EPOCH_CHECK) leaves a flight dump
  // instead of just an exit code.
  if (std::getenv("FASTER_FLIGHT_DIR") != nullptr) {
    obs::FlightRecorder::Instance().Install();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

using Blob100 = BlobStoreFunctions<100>::Blob;

}  // namespace bench
}  // namespace faster

#endif  // FASTER_BENCH_COMMON_H_
