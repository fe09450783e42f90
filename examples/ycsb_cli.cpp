// A configurable YCSB driver over FASTER — the command-line analogue of
// the paper's evaluation harness (Sec. 7.1). Lets a user reproduce any
// point of the Fig. 8-13 parameter space by hand:
//
//   ycsb_cli [--keys N] [--threads T] [--seconds S] [--dist uniform|zipf|hotset]
//            [--reads F] [--rmws F] [--memory-mb M] [--mutable F]
//            [--batch N] [--append-only] [--read-cache]
//            [--stats [--stats-interval S]] [--stats-json]
//            [--export-port P] [--trace FILE] [--trace-sample N]
//            [--perf]
//
// Prints throughput (the median of 0.1 s windows after a warm-up, with
// their spread), op latency, log growth, fuzzy-op and storage-read
// percentages.
// With --stats, also dumps the store metric registry as Prometheus text
// periodically during the run and once at the end (a default build carries
// the always-on op counters; -DFASTER_STATS=ON adds the component counters
// and histograms); --stats-json switches the final dump to JSON.
//
// --export-port P serves live Prometheus text on http://127.0.0.1:P/metrics
// (plus /vars JSON and /healthz) for the duration of the process.
// --trace FILE writes operation lifecycle spans as Chrome trace-event JSON
// after the run (load it in Perfetto, or convert/inspect it with
// tools/trace2perfetto.py); --trace-sample N samples 1-in-N operations
// (default with --trace: 64; the library samples none).
// --perf (FASTER_STATS builds) arms per-stage hardware counters
// (perf_event_open) and prints the per-stage attribution table after the
// run.
// The crash flight recorder is always armed: a fatal signal or epoch-check
// abort dumps the black box to stderr (and $FASTER_FLIGHT_DIR if set).

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/faster.h"
#include "core/functions.h"
#include "device/memory_device.h"
#include "obs/exporter.h"
#include "obs/perf.h"
#include "obs/store_view.h"
#include "runner.h"

using namespace faster;

namespace {

struct Options {
  uint64_t keys = 1 << 20;
  uint32_t threads = 2;
  double seconds = 2.0;
  Distribution dist = Distribution::kZipfian;
  double reads = 0.5;
  double rmws = 0.0;
  uint64_t memory_mb = 64;
  double mutable_fraction = 0.9;
  uint32_t batch = 1;
  bool append_only = false;
  bool read_cache = false;
  bool stats = false;
  bool stats_json = false;
  double stats_interval = 1.0;
  bool export_enabled = false;
  uint16_t export_port = 0;
  std::string trace_file;
  uint32_t trace_sample = 0;  // 0: 64 with --trace, else none
  bool perf = false;
};

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--keys N] [--threads T] [--seconds S]\n"
      "          [--dist uniform|zipf|hotset] [--reads F] [--rmws F]\n"
      "          [--memory-mb M] [--mutable F] [--batch N] [--append-only] "
      "[--read-cache]\n"
      "          [--stats] [--stats-interval S] [--stats-json]\n"
      "          [--export-port P] [--trace FILE] [--trace-sample N]\n"
      "          [--perf]\n",
      argv0);
  std::exit(2);
}

Options Parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) Usage(argv[0]);
      return argv[++i];
    };
    if (a == "--keys") o.keys = std::strtoull(next(), nullptr, 10);
    else if (a == "--threads") o.threads = std::atoi(next());
    else if (a == "--seconds") o.seconds = std::atof(next());
    else if (a == "--reads") o.reads = std::atof(next());
    else if (a == "--rmws") o.rmws = std::atof(next());
    else if (a == "--memory-mb") o.memory_mb = std::strtoull(next(), nullptr, 10);
    else if (a == "--mutable") o.mutable_fraction = std::atof(next());
    else if (a == "--batch") {
      long b = std::atol(next());
      if (b < 1 || b > 256) Usage(argv[0]);
      o.batch = static_cast<uint32_t>(b);
    }
    else if (a == "--append-only") o.append_only = true;
    else if (a == "--read-cache") o.read_cache = true;
    else if (a == "--stats") o.stats = true;
    else if (a == "--stats-json") { o.stats = true; o.stats_json = true; }
    else if (a == "--stats-interval") {
      o.stats_interval = std::atof(next());
      if (!(o.stats_interval > 0)) Usage(argv[0]);
      o.stats = true;
    }
    else if (a == "--export-port") {
      long p = std::atol(next());
      if (p < 0 || p > 65535) Usage(argv[0]);
      o.export_enabled = true;
      o.export_port = static_cast<uint16_t>(p);
    }
    else if (a == "--perf") o.perf = true;
    else if (a == "--trace") o.trace_file = next();
    else if (a == "--trace-sample") {
      long s = std::atol(next());
      if (s < 1) Usage(argv[0]);
      o.trace_sample = static_cast<uint32_t>(s);
    }
    else if (a == "--dist") {
      std::string d = next();
      if (d == "uniform") o.dist = Distribution::kUniform;
      else if (d == "zipf") o.dist = Distribution::kZipfian;
      else if (d == "hotset") o.dist = Distribution::kHotSet;
      else Usage(argv[0]);
    } else {
      Usage(argv[0]);
    }
  }
  return o;
}

struct Adapter {
  using Store = FasterKv<CountStoreFunctions>;
  Store& store;
  void Begin() { store.StartSession(); }
  void End() { store.StopSession(); }
  void DoRead(uint64_t key) {
    thread_local uint64_t out;
    store.Read(key, 1, &out);
  }
  void DoUpsert(uint64_t key, uint64_t seq) { store.Upsert(key, seq); }
  void DoRmw(uint64_t key) { store.Rmw(key, 1); }
  void DoBatch(const OpGenerator::Op* ops, size_t n) {
    // Outputs live in a thread_local so pending reads still have a valid
    // destination when they complete in a later Idle() (bench semantics,
    // same as DoRead's thread_local out).
    thread_local std::vector<uint64_t> outs(256);
    thread_local uint64_t seq = 0;
    Store::BatchOp b[256];
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
          b[i].value = seq++;
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

/// Prints the per-stage hardware-counter attribution after a --perf run.
/// Hardware-derived columns appear only when the kernel granted the
/// events (a no-PMU VM still gets task-clock and context switches).
void PrintPerfTable() {
  obs::PerfAttribution::Snapshot s = obs::GlobalPerf().Take();
  if (s.mask == 0) {
    std::printf("perf:           no counters available "
                "(perf_event_open failed; check "
                "/proc/sys/kernel/perf_event_paranoid)\n");
    return;
  }
  bool have_ipc = (s.mask & (1u << obs::kPerfCycles)) != 0 &&
                  (s.mask & (1u << obs::kPerfInstructions)) != 0;
  bool have_cache = (s.mask & (1u << obs::kPerfCacheRefs)) != 0 &&
                    (s.mask & (1u << obs::kPerfCacheMisses)) != 0;
  std::printf("--- perf stage attribution ---\n");
  std::printf("%-12s %10s %10s %8s %8s %10s\n", "stage", "scopes", "cpu_ms",
              "ipc", "miss%", "ctx_sw");
  for (uint32_t st = 0; st < obs::kNumStages; ++st) {
    if (s.scopes[st] == 0) continue;
    const uint64_t* c = s.counts[st];
    std::printf("%-12s %10llu %10.1f ",
                obs::StageName(static_cast<obs::Stage>(st)),
                static_cast<unsigned long long>(s.scopes[st]),
                static_cast<double>(c[obs::kPerfTaskClockNs]) / 1e6);
    if (have_ipc && c[obs::kPerfCycles] > 0) {
      std::printf("%8.2f ", static_cast<double>(c[obs::kPerfInstructions]) /
                                static_cast<double>(c[obs::kPerfCycles]));
    } else {
      std::printf("%8s ", "-");
    }
    if (have_cache && c[obs::kPerfCacheRefs] > 0) {
      std::printf("%8.2f ", 100.0 *
                                static_cast<double>(c[obs::kPerfCacheMisses]) /
                                static_cast<double>(c[obs::kPerfCacheRefs]));
    } else {
      std::printf("%8s ", "-");
    }
    std::printf("%10llu\n",
                static_cast<unsigned long long>(c[obs::kPerfCtxSwitches]));
  }
  if (s.truncated > 0) {
    std::printf("perf:           %llu scope entries dropped at the nesting "
                "depth cap\n",
                static_cast<unsigned long long>(s.truncated));
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options o = Parse(argc, argv);

  MemoryDevice device;
  FasterKv<CountStoreFunctions>::Config cfg;
  cfg.table_size = std::max<uint64_t>(o.keys / 2, 1024);
  cfg.log.memory_size_bytes = o.memory_mb << 20;
  cfg.log.mutable_fraction = o.append_only ? 0.0 : o.mutable_fraction;
  cfg.force_rcu = o.append_only;
  cfg.enable_read_cache = o.read_cache;
  cfg.read_cache.memory_size_bytes = (o.memory_mb / 4 + 8) << 20;
  FasterKv<CountStoreFunctions> store{cfg, &device};
  // Arm the crash black box: any fatal signal or FASTER_EPOCH_CHECK abort
  // from here on dumps the epoch table, metrics, and recent spans.
  obs::FlightAttachment flight = obs::AttachFlightRecorder(store.view());

  if (obs::kStatsEnabled && o.trace_sample == 0 && !o.trace_file.empty()) {
    o.trace_sample = 64;
  }
  if (o.trace_sample > 0) {
    if (!obs::kStatsEnabled) {
      std::fprintf(stderr,
                   "warning: --trace-sample requested but this binary was "
                   "built without -DFASTER_STATS=ON\n");
    }
    obs::SetSpanSampleEvery(o.trace_sample);
  }

  if (o.perf) {
    if (!obs::kStatsEnabled) {
      std::fprintf(stderr,
                   "warning: --perf requested but this binary was built "
                   "without -DFASTER_STATS=ON; no stages are instrumented\n");
    }
    obs::GlobalPerf().Arm(true);
  }

  std::unique_ptr<obs::MetricsExporter> exporter;
  if (o.export_enabled) {
    obs::ExporterOptions eo;
    eo.port = o.export_port;
    exporter = std::make_unique<obs::MetricsExporter>(
        eo, obs::MetricsExporter::Handlers{
                [&store] { return obs::DumpPrometheus(store.view()); },
                [&store] { return obs::DumpStats(store.view()); }});
    if (!exporter->ok()) {
      std::fprintf(stderr, "error: could not bind exporter to port %u\n",
                   static_cast<unsigned>(o.export_port));
      return 1;
    }
    std::printf("exporter:       http://127.0.0.1:%u/metrics (also /vars, "
                "/healthz)\n",
                static_cast<unsigned>(exporter->port()));
  }

  std::printf("loading %llu keys...\n",
              static_cast<unsigned long long>(o.keys));
  store.StartSession();
  for (uint64_t k = 0; k < o.keys; ++k) store.Upsert(k, k);
  store.StopSession();

  auto spec = WorkloadSpec::Ycsb(o.reads, o.rmws, o.dist, o.keys);
  std::printf("running %s with %u threads (batch %u) for %.1fs...\n",
              spec.Name().c_str(), o.threads, o.batch, o.seconds);
  Address tail_before = store.hlog().tail_address();
  Adapter adapter{store};

  // Optional periodic stats dumps while the workload runs.
  std::atomic<bool> monitor_stop{false};
  std::thread monitor;
  if (o.stats) {
    monitor = std::thread([&] {
      auto interval = std::chrono::duration<double>(o.stats_interval);
      auto start = std::chrono::steady_clock::now();
      uint64_t tick = 1;
      while (!monitor_stop.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        auto now = std::chrono::steady_clock::now();
        if (now < start + tick * interval) continue;
        double elapsed = std::chrono::duration<double>(now - start).count();
        std::printf("--- stats @ %.1fs ---\n%s", elapsed,
                    obs::DumpPrometheus(store.view()).c_str());
        std::fflush(stdout);
        // Schedule every dump against the absolute start time so the time
        // spent formatting a dump never accumulates into drift; when a dump
        // overruns one or more intervals, skip the missed ticks instead of
        // bursting to catch up.
        tick = static_cast<uint64_t>(
                   std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count() /
                   o.stats_interval) +
               1;
      }
    });
  }

  auto r = RunWorkload(adapter, spec, o.threads, o.seconds, /*seed=*/1,
                       o.batch);
  if (monitor.joinable()) {
    monitor_stop.store(true, std::memory_order_relaxed);
    monitor.join();
  }

  auto stats = store.GetStats();
  uint64_t user_ops = stats.reads + stats.upserts + stats.rmws;
  double log_mb =
      static_cast<double>(store.hlog().tail_address() - tail_before) /
      (1 << 20);
  std::printf("throughput:     %.2f Mops/s (median of %zu windows, IQR "
              "%.1f%%; %llu ops in %.2fs)\n",
              r.mops, r.window_mops.size(), r.iqr_pct,
              static_cast<unsigned long long>(r.total_ops), r.seconds);
  std::printf("log growth:     %.1f MB (%.1f MB/s)\n", log_mb,
              log_mb / r.seconds);
  std::printf("storage reads:  %.3f%%\n",
              user_ops ? 100.0 * static_cast<double>(stats.pending_ios) /
                             static_cast<double>(user_ops)
                       : 0.0);
  std::printf("fuzzy RMWs:     %.3f%%\n",
              stats.rmws ? 100.0 * static_cast<double>(stats.fuzzy_rmws) /
                               static_cast<double>(stats.rmws)
                         : 0.0);
  if (o.read_cache) {
    std::printf("cache hits:     %.3f%% of reads\n",
                stats.reads ? 100.0 * static_cast<double>(stats.read_cache_hits) /
                                  static_cast<double>(stats.reads)
                            : 0.0);
  }
  std::printf("op latency:     p50=%.2fus p99=%.2fus p999=%.2fus "
              "(medians over windows)\n",
              r.p50_us, r.p99_us, r.p999_us);
  if (o.perf) PrintPerfTable();
  if (o.stats) {
    std::printf("--- final stats ---\n%s",
                (o.stats_json ? obs::DumpStats(store.view())
                              : obs::DumpPrometheus(store.view()))
                    .c_str());
  }
  if (!o.trace_file.empty()) {
    if (!obs::kStatsEnabled) {
      std::fprintf(stderr,
                   "warning: --trace requested but this binary was built "
                   "without -DFASTER_STATS=ON; the trace will be empty\n");
    }
    std::ofstream out{o.trace_file};
    if (!out) {
      std::fprintf(stderr, "error: cannot open %s\n", o.trace_file.c_str());
      return 1;
    }
    obs::DumpTrace(store.view(), out);
    std::printf("trace:          %s (Chrome trace-event JSON; open in "
                "Perfetto or run tools/trace2perfetto.py)\n",
                o.trace_file.c_str());
  }
  return 0;
}
