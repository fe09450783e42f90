#ifndef FASTER_OBS_PERF_H_
#define FASTER_OBS_PERF_H_

/// Hardware performance-counter attribution (DESIGN.md §15).
///
/// The slowlog (slowlog.h) answers *where time goes* per operation; this
/// layer answers *why a stage is slow* — cycles, instructions, cache and
/// TLB misses, branch mispredicts, and context switches, attributed to
/// every obs::Stage (stage.h): the five the slowlog partitions plus the
/// checkpoint phases, the completion-polling loop and the server's
/// parse/flush segments.
///
/// Mechanics: each thread lazily opens one `perf_event_open(2)` counter
/// group (task-clock leader + the hardware events the kernel grants;
/// PERF_FORMAT_GROUP makes reading the whole group one syscall). An RAII
/// `PerfScope` maintains a per-thread stage stack with pause/resume
/// semantics: entering a nested scope reads the counters once, attributes
/// the closing segment to the *parent's* stage, and starts the child's
/// segment; exiting attributes the child's segment and restarts the
/// parent's. Every counted event therefore lands in exactly one stage —
/// the per-stage sums partition the total attributed window exactly
/// regardless of nesting (the stage-sum invariant, tests/perf_test.cc).
///
/// Degradation is per event and per environment: hardware events that the
/// kernel refuses (no PMU, perf_event_paranoid, seccomp) are dropped from
/// the group individually; if nothing opens, scopes still count stage
/// entries but attribute zeros (tests force this fallback with
/// ForcePerfUnavailableForTest). `FASTER_PERF=1` arms attribution at
/// process start.
///
/// Everything is always compiled; hot-path sites open segments through
/// obs::StageScope (clock.h) or the `StatPerfScope` alias, which compile
/// to nothing without -DFASTER_STATS=ON, and the armed() gate keeps the
/// stats-on cost to one relaxed load per scope until attribution is
/// explicitly enabled (PERF ENABLE / --perf / FASTER_PERF=1).

#include <atomic>
#include <cstdint>
#include <string>

#include "core/thread.h"
#include "obs/stage.h"
#include "obs/stats.h"

namespace faster {
namespace obs {

/// Counter slots. Software events first: they open under any
/// perf_event_paranoid level that allows perf at all, so the group leader
/// (task-clock) survives environments without a PMU.
enum PerfCounterId : uint32_t {
  kPerfTaskClockNs = 0,   // software: CPU time, nanoseconds
  kPerfCtxSwitches = 1,   // software: context switches
  kPerfCycles = 2,
  kPerfInstructions = 3,
  kPerfCacheRefs = 4,
  kPerfCacheMisses = 5,
  kPerfBranchMisses = 6,
  kPerfDtlbMisses = 7,
  kNumPerfCounters = 8,
};

inline const char* PerfCounterName(uint32_t id) {
  switch (id) {
    case kPerfTaskClockNs: return "task_clock_ns";
    case kPerfCtxSwitches: return "ctx_switches";
    case kPerfCycles: return "cycles";
    case kPerfInstructions: return "instructions";
    case kPerfCacheRefs: return "cache_refs";
    case kPerfCacheMisses: return "cache_misses";
    case kPerfBranchMisses: return "branch_misses";
    case kPerfDtlbMisses: return "dtlb_misses";
  }
  return "?";
}

/// One reading of every counter slot (unavailable slots read 0).
struct PerfCounts {
  uint64_t v[kNumPerfCounters] = {};
};

/// Test hook: replaces the per-thread perf_event read with a deterministic
/// source. Fills `*out`, returns the availability bitmask (bit i =>
/// counter i valid). Install before any scopes run; not thread-safe
/// against concurrent scopes.
using PerfReadFn = uint32_t (*)(PerfCounts* out);

/// Process-wide per-stage counter accumulation. Writes land on the
/// calling thread's shard (relaxed fetch_add; shards are modulo-shared
/// across thread-id slots, unlike stats.h's one-per-slot layout, because
/// each shard here is ~800 bytes); snapshots sum shards with relaxed
/// loads — slightly stale, never torn.
class PerfAttribution {
 public:
  PerfAttribution();
  PerfAttribution(const PerfAttribution&) = delete;
  PerfAttribution& operator=(const PerfAttribution&) = delete;

  /// The per-scope hot-path gate (one relaxed load when disarmed): a bit
  /// of the sink word (stage.h), which an op's clock reads as it starts.
  static bool armed() {
    return (SinkWord().load(std::memory_order_relaxed) & kSinkPerf) != 0;
  }
  static void Arm(bool on) { SetSinks(kSinkPerf, on ? kSinkPerf : 0); }

  /// Forgets accumulated counts (PERF RESET). Concurrent scopes may leak
  /// an in-flight delta into the fresh totals; acceptable for telemetry.
  void Reset();

  struct Snapshot {
    bool armed = false;
    uint32_t mask = 0;  // union of every thread's available counters
    uint64_t scopes[kNumStages] = {};
    uint64_t truncated = 0;  // scope entries dropped at the depth cap
    uint64_t counts[kNumStages][kNumPerfCounters] = {};
  };
  Snapshot Take() const;

  /// /debug/perf body.
  std::string Json() const;

  /// Union of counter availability across threads that initialized so
  /// far; 0 until the first armed scope runs (or when perf_event_open is
  /// unavailable).
  uint32_t available_mask() const {
    return mask_.load(std::memory_order_relaxed);
  }

  // ---- Internal: called by the scope machinery (perf.cc). ----
  void Accumulate(Stage stage, const PerfCounts& delta, uint32_t mask);
  void CountScope(Stage stage);
  void CountTruncated();
  void PublishMask(uint32_t mask) {
    mask_.fetch_or(mask, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Shard {
    // order: relaxed fetch_add (threads may share a shard), relaxed loads
    // in Take — statistics; no data is published through the counts.
    std::atomic<uint64_t> counts[kNumStages][kNumPerfCounters] = {};
    // order: relaxed fetch_add, relaxed loads in Take.
    std::atomic<uint64_t> scopes[kNumStages] = {};
    // order: relaxed fetch_add, relaxed loads in Take.
    std::atomic<uint64_t> truncated{0};
  };

  // order: relaxed fetch_or/load — an availability bitmask, monotone under
  // `or`; no data is published through it.
  std::atomic<uint32_t> mask_{0};
  Shard shards_[Thread::kMaxThreads > 32 ? 32 : Thread::kMaxThreads];
};

/// Global instance used by the store, devices, server, and exporter.
PerfAttribution& GlobalPerf();

/// Installs (or clears, with nullptr) the deterministic read hook.
void SetPerfReadHookForTest(PerfReadFn fn);
/// Forces the "perf_event_open unavailable" fallback regardless of what
/// the kernel would grant.
void ForcePerfUnavailableForTest(bool on);
/// Per-thread availability mask after lazy init (opens the counters if
/// needed). 0 means this thread runs the no-counter fallback.
uint32_t PerfThreadMask();

// Scope machinery internals (perf.cc). Enter returns false when the frame
// was dropped (depth cap) and must not be matched by an Exit.
bool PerfScopeEnter(Stage stage);
void PerfScopeExit();

/// RAII stage scope. Cheap when disarmed (one relaxed load); when armed,
/// entry and exit each read the thread's counter group once and attribute
/// the closed segment to the stage that was running.
class PerfScope {
 public:
  explicit PerfScope(Stage stage) {
    if (!PerfAttribution::armed()) return;
    active_ = PerfScopeEnter(stage);
  }
  ~PerfScope() {
    if (active_) PerfScopeExit();
  }
  PerfScope(const PerfScope&) = delete;
  PerfScope& operator=(const PerfScope&) = delete;

 private:
  // Arm/disarm races resolve per-scope: the ctor's gate decision is
  // remembered here, so Exit always matches Enter even if armed() flips
  // mid-scope.
  bool active_ = false;
};

/// No-op twin for stats-off builds.
class NoopPerfScope {
 public:
  explicit NoopPerfScope(Stage) {}
};

// Model builds (FASTER_MODEL) compile the scope out even with stats on:
// the checker multiplexes model threads onto one OS thread as coroutines,
// switching at atomic operations — possibly mid-scope — which breaks the
// per-OS-thread LIFO assumption the pause/resume stack depends on. It
// also keeps perf.cc out of faster_model_core's link line.
#if FASTER_STATS_ENABLED && !defined(FASTER_MODEL)
using StatPerfScope = PerfScope;
#else
using StatPerfScope = NoopPerfScope;
#endif

}  // namespace obs
}  // namespace faster

#endif  // FASTER_OBS_PERF_H_
