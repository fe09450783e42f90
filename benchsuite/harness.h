#ifndef FASTER_BENCHSUITE_HARNESS_H_
#define FASTER_BENCHSUITE_HARNESS_H_

// Shared machinery of the benchmark suite: the tick clock, windowed
// throughput and latency measurement, in-memory spans, and the metric
// report every workload prints.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "workload/ycsb.h"

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace suite {

/// Timestamp for per-operation timing: the TSC where there is one (a few
/// ns to read, invariant on current x86), steady-clock ns elsewhere.
/// Converted with the rate TickRate measures over the whole run.
inline uint64_t Ticks() {
#if defined(__x86_64__)
  return __rdtsc();
#else
  return static_cast<uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

/// Calibrates Ticks() against the steady clock between construction and
/// the first NsPerTick() call (make it after the measured phase, so the
/// calibration spans seconds).
class TickRate {
 public:
  TickRate();
  /// Nanoseconds per tick over [construction, first call).
  double NsPerTick();

 private:
  uint64_t t0_;
  std::chrono::steady_clock::time_point c0_;
  double ns_per_tick_ = 0;
};

/// How one workload run is sized; parsed from the command line.
struct RunConfig {
  uint64_t seed = 1;
  double seconds = 10;     // measured time of an end-to-end run
  bool smoke = false;      // tiny sizes, sub-second run
  std::string trace_path;  // non-empty: traced run, spans written here
  std::string tmpdir = ".";

  bool traced() const { return !trace_path.empty(); }
  /// Store set-ups per run; setup_s is their median.
  int setups() const { return smoke || traced() ? 1 : 3; }
  uint64_t Size(uint64_t full, uint64_t small) const {
    return smoke ? small : full;
  }
};

/// One measured phase: a discarded warm-up, then equal windows. Windows
/// are short so that the host's multi-ms vCPU stalls, a few per second,
/// leave most windows untouched and the medians over windows repeat.
struct Phase {
  double warmup_s = 2.0;
  int windows = 200;
  double window_s = 0.1;
  /// Traced runs alternate untraced (even) and traced (odd) windows, so
  /// the tracing overhead is measured under the same machine conditions.
  bool alternate_trace = false;

  /// The phase for `seconds` of measurement under `cfg`.
  static Phase For(const RunConfig& cfg, double seconds);
};

/// Runs a phase: the caller's worker threads poll current() and report
/// their running op counts and sampled latencies; Run() (on the calling
/// thread) sleeps through warm-up and windows and records window rates.
class Windows {
 public:
  static constexpr uint32_t kReservoir = 4096;  // latency samples/window

  Windows(int workers, const Phase& phase, uint64_t seed);

  /// -1 during warm-up, then the window index; >= windows() once done.
  int current() const { return current_.load(std::memory_order_relaxed); }
  bool done(int w) const { return w >= phase_.windows; }
  bool traced(int w) const {
    return phase_.alternate_trace && w >= 0 && (w & 1) != 0;
  }
  /// Share of the traced windows that have begun by window `w`; span
  /// buffers pace themselves with it so spans cover every traced window.
  double trace_progress(int w) const;

  /// Worker `worker` has completed `total_ops` operations so far.
  void Count(int worker, uint64_t total_ops) {
    slots_[worker].ops.store(total_ops, std::memory_order_relaxed);
  }
  /// Records one sampled latency (in ticks) for window `w` (ignored in
  /// warm-up). Reservoir-sampled, so every window keeps a uniform sample.
  void Sample(int worker, int w, uint64_t ticks);

  /// Controller: blocks for warm-up + windows. `at_start` runs as window 0
  /// opens, `at_end` as the last closes (e.g. to snapshot counters).
  void Run(const std::function<void()>& at_start = {},
           const std::function<void()>& at_end = {});

  /// Per-window op rates (ops/s), of untraced or of traced windows.
  std::vector<double> Rates(bool traced_windows) const;
  /// Per-window latency percentile (µs), untraced windows only.
  std::vector<double> LatencyPercentile(double q, double ns_per_tick) const;

 private:
  struct alignas(64) Slot {
    std::atomic<uint64_t> ops{0};
    uint64_t rng = 0;
    std::vector<std::vector<uint32_t>> samples;  // [window] reservoir
    std::vector<uint64_t> seen;                  // [window] samples offered
  };

  Phase phase_;
  std::vector<Slot> slots_;
  std::atomic<int> current_{-1};
  std::vector<double> rates_;
};

/// Median and quantile (linear interpolation) of `v`; 0 when empty.
double Median(std::vector<double> v);
double Quantile(std::vector<double> v, double q);

/// A span recorded by the benchmark around a call into one layer.
struct Span {
  const char* name;
  uint64_t start;  // ticks
  uint64_t end;
  uint64_t id;
  uint64_t parent;  // 0: root
  uint64_t trace;   // request id shared by a request's spans
  uint32_t tid;
};

/// Spans of one recording thread, kept in memory until the run ends.
class SpanBuffer {
 public:
  SpanBuffer(uint32_t tid, size_t capacity);
  /// True if a new sampled request fits the pacing quota at `progress`
  /// (Windows::trace_progress) with `spans` spans.
  bool Room(double progress, size_t spans = 2) const {
    return spans_.size() + spans <=
           static_cast<size_t>(progress * static_cast<double>(capacity_));
  }
  uint64_t NewTrace() { return (uint64_t{tid_} + 1) << 40 | ++traces_; }
  /// Span ids are taken before the span ends, so a child recorded first
  /// (or asynchronously, after the request returned) can name its parent.
  uint64_t NewId() { return (uint64_t{tid_} + 1) << 40 | ++ids_; }
  void Add(const char* name, uint64_t start, uint64_t end, uint64_t id,
           uint64_t parent, uint64_t trace) {
    spans_.push_back(Span{name, start, end, id, parent, trace, tid_});
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  uint32_t tid_;
  size_t capacity_;
  uint64_t ids_ = 0;
  uint64_t traces_ = 0;
  std::vector<Span> spans_;
};

/// All span buffers of a run. Each thread appends only to its own
/// buffer; WriteChrome/SelfTimes run after the threads are joined.
class SpanLog {
 public:
  SpanBuffer* NewBuffer(size_t capacity);

  /// Chrome trace-event JSON (tools/trace2perfetto.py validates it).
  bool WriteChrome(const std::string& path, double ns_per_tick) const;

  struct SelfTime {
    uint64_t count = 0;
    double mean_ns = 0;  // span duration minus time covered by children
  };
  std::map<std::string, SelfTime> SelfTimes(double ns_per_tick) const;

 private:
  std::vector<std::unique_ptr<SpanBuffer>> buffers_;
};

/// Ops one load thread ran and the checks it failed; merged into the
/// Report after the thread is joined.
struct WorkerOutcome {
  uint64_t ops = 0;
  uint64_t failed = 0;
  std::string first_error;

  void Fail(std::string what) {
    if (failed++ == 0) first_error = std::move(what);
  }
};

/// Metrics and outcome counts of one workload run, printed as
/// `workload/metric value unit` lines.
class Report {
 public:
  explicit Report(std::string workload) : workload_{std::move(workload)} {}

  void Add(const std::string& name, double value, const std::string& unit);
  /// Records a failed check; the first few are described on stderr.
  void Fail(const std::string& what);

  /// Adds a load thread's ops to `attempted` and its failures.
  void Merge(const WorkerOutcome& w);
  uint64_t failed() const { return failed_; }

  /// throughput_mops (median window rate) plus the run-validity metrics:
  /// window spread and, in traced runs, the tracing overhead.
  void AddThroughput(const Windows& win, bool traced);
  /// p50_us / p99_us: medians over windows of each window's percentile.
  void AddLatency(const Windows& win, double ns_per_tick);

  void Print() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::string workload_;
  std::vector<Metric> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Writes a traced run's spans to cfg.trace_path (a failed write fails
/// the run) and returns each span name's self time.
std::map<std::string, SpanLog::SelfTime> FinishTrace(const RunConfig& cfg,
                                                     const SpanLog& log,
                                                     double ns_per_tick,
                                                     Report* report);

/// Peak resident set of this process, in MB (VmHWM).
double PeakRssMb();

/// Builds a workload's store `setups` times (destroying the previous one
/// first) and returns the last; `setup_s` receives the median build time.
template <class T, class Make>
std::unique_ptr<T> TimedSetups(int setups, double* setup_s, Make&& make) {
  std::unique_ptr<T> env;
  std::vector<double> times;
  for (int i = 0; i < setups; ++i) {
    env.reset();
    auto t0 = std::chrono::steady_clock::now();
    env = make();
    times.push_back(std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count());
  }
  *setup_s = Median(times);
  return env;
}

/// Key-tagged values: the key in the high 32 bits, so a read can tell
/// that the value it got belongs to the key it asked for.
inline uint64_t Tagged(uint64_t key, uint64_t low) {
  return key << 32 | (low & 0xffffffffu);
}
inline bool TagOk(uint64_t key, uint64_t value) { return value >> 32 == key; }

/// `n` ops of `spec` from faster::OpGenerator, drawn before timing starts.
std::vector<faster::OpGenerator::Op> Pregenerate(
    const faster::WorkloadSpec& spec, uint64_t seed, size_t n);

/// One RESP command of the network workload.
struct Cmd {
  uint64_t key;
  bool incr;  // INCR, else GET
};

/// Pre-generated commands (50% GET, 50% INCR, uniform keys) and their
/// pre-rendered multibulk request bytes (resp_workload.cc).
struct CmdStream {
  std::vector<Cmd> cmds;
  std::string bytes;
  std::vector<size_t> offset;  // command i is bytes[offset[i], offset[i+1])
};
CmdStream MakeCmdStream(uint64_t seed, uint64_t keys, size_t n);

// Workload entry points (store_workloads.cc, resp_workload.cc, layers.cc).
void RunHotZipfRw(const RunConfig& cfg, Report* report);
void RunColdUniformBatch(const RunConfig& cfg, Report* report);
void RunSpillReadMostly(const RunConfig& cfg, Report* report);
void RunRespOpenLoop(const RunConfig& cfg, Report* report);
void RunLayers(const RunConfig& cfg, Report* report);

}  // namespace suite

#endif  // FASTER_BENCHSUITE_HARNESS_H_
