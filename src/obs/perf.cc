#include "obs/perf.h"

#include <cstdlib>
#include <cstring>

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace faster {
namespace obs {

namespace {

// order: relaxed load/store — test-only hook, installed before scopes run.
std::atomic<PerfReadFn> g_read_hook{nullptr};
// order: relaxed load/store — test-only forced-fallback flag; threads that
// initialize after it is set take the no-counter path.
std::atomic<bool> g_force_unavailable{false};

#if defined(__linux__)
long PerfEventOpen(perf_event_attr* attr, pid_t pid, int cpu, int group_fd,
                   unsigned long flags) {
  return ::syscall(__NR_perf_event_open, attr, pid, cpu, group_fd, flags);
}

/// Event configuration for each PerfCounterId slot.
struct EventSpec {
  uint32_t type;
  uint64_t config;
};

EventSpec SpecFor(uint32_t slot) {
  switch (slot) {
    case kPerfTaskClockNs:
      return {PERF_TYPE_SOFTWARE, PERF_COUNT_SW_TASK_CLOCK};
    case kPerfCtxSwitches:
      return {PERF_TYPE_SOFTWARE, PERF_COUNT_SW_CONTEXT_SWITCHES};
    case kPerfCycles:
      return {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES};
    case kPerfInstructions:
      return {PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS};
    case kPerfCacheRefs:
      return {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_REFERENCES};
    case kPerfCacheMisses:
      return {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_MISSES};
    case kPerfBranchMisses:
      return {PERF_TYPE_HARDWARE, PERF_COUNT_HW_BRANCH_MISSES};
    case kPerfDtlbMisses:
      return {PERF_TYPE_HW_CACHE,
              PERF_COUNT_HW_CACHE_DTLB |
                  (PERF_COUNT_HW_CACHE_OP_READ << 8) |
                  (PERF_COUNT_HW_CACHE_RESULT_MISS << 16)};
  }
  return {PERF_TYPE_MAX, 0};
}

/// One event of a thread's counter group.
perf_event_attr GroupAttr(uint32_t slot) {
  perf_event_attr attr;
  std::memset(&attr, 0, sizeof(attr));
  EventSpec spec = SpecFor(slot);
  attr.type = spec.type;
  attr.size = sizeof(attr);
  attr.config = spec.config;
  // paranoid=2 (the common default) permits user-space-only counting.
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  attr.read_format = PERF_FORMAT_TOTAL_TIME_ENABLED |
                     PERF_FORMAT_TOTAL_TIME_RUNNING | PERF_FORMAT_GROUP |
                     PERF_FORMAT_ID;
  return attr;
}

/// Multiplex scaling: estimate the full-window count from the fraction of
/// the window the event was actually scheduled on the PMU.
uint64_t Scale(uint64_t value, uint64_t enabled, uint64_t running) {
  if (running == 0 || running >= enabled) return value;
  long double scaled = static_cast<long double>(value) *
                       static_cast<long double>(enabled) /
                       static_cast<long double>(running);
  return static_cast<uint64_t>(scaled);
}
#endif  // __linux__

/// Per-thread counter group + stage stack. Lazily initialized by the
/// first armed scope; fds closed when the thread exits.
struct PerfThread {
  static constexpr uint32_t kMaxDepth = 16;

  bool init_done = false;
  int group_fd = -1;
  int fds[kNumPerfCounters];
  uint64_t ids[kNumPerfCounters];
  uint32_t mask = 0;

  Stage stack[kMaxDepth];
  uint32_t depth = 0;
  PerfCounts seg_start;  // counter values when the open segment began

  PerfThread() {
    for (uint32_t i = 0; i < kNumPerfCounters; ++i) {
      fds[i] = -1;
      ids[i] = 0;
    }
  }
  ~PerfThread() {
#if defined(__linux__)
    for (uint32_t i = 0; i < kNumPerfCounters; ++i) {
      if (fds[i] >= 0) ::close(fds[i]);
    }
#endif
  }
};

PerfThread& Self() {
  thread_local PerfThread t;
  return t;
}

void EnsureInit(PerfThread& t) {
  if (t.init_done) return;
  t.init_done = true;
  if (g_force_unavailable.load(std::memory_order_relaxed)) {
    return;  // forced fallback: mask stays 0
  }
#if defined(__linux__)
  for (uint32_t slot = 0; slot < kNumPerfCounters; ++slot) {
    perf_event_attr attr = GroupAttr(slot);
    int group = slot == 0 ? -1 : t.group_fd;
    if (slot != 0 && t.group_fd < 0) break;  // no leader, no group
    int fd = static_cast<int>(
        PerfEventOpen(&attr, /*pid=*/0, /*cpu=*/-1, group, 0));
    if (fd < 0) {
      if (slot == 0) break;  // leader refused: whole-group fallback
      continue;  // this event unavailable (no PMU etc.); keep the rest
    }
    uint64_t id = 0;
    if (::ioctl(fd, PERF_EVENT_IOC_ID, &id) != 0) {
      ::close(fd);
      continue;
    }
    if (slot == 0) t.group_fd = fd;
    t.fds[slot] = fd;
    t.ids[slot] = id;
    t.mask |= 1u << slot;
  }
#endif
}

/// Reads the thread's counters; returns the availability mask. The test
/// hook, when installed, overrides the real group (so tests run the same
/// scope machinery over deterministic values).
uint32_t ReadNow(PerfThread& t, PerfCounts* out) {
  PerfReadFn hook = g_read_hook.load(std::memory_order_relaxed);
  if (hook != nullptr) return hook(out);
  *out = PerfCounts{};
  if (t.group_fd < 0) return 0;
#if defined(__linux__)
  // PERF_FORMAT_GROUP|ID layout: nr, time_enabled, time_running,
  // then {value, id} per event.
  uint64_t buf[3 + 2 * kNumPerfCounters];
  ssize_t n = ::read(t.group_fd, buf, sizeof(buf));
  if (n < static_cast<ssize_t>(3 * sizeof(uint64_t))) return 0;
  uint64_t nr = buf[0];
  uint64_t enabled = buf[1];
  uint64_t running = buf[2];
  if (nr > kNumPerfCounters) nr = kNumPerfCounters;
  for (uint64_t e = 0; e < nr; ++e) {
    uint64_t value = buf[3 + 2 * e];
    uint64_t id = buf[3 + 2 * e + 1];
    for (uint32_t slot = 0; slot < kNumPerfCounters; ++slot) {
      if ((t.mask & (1u << slot)) != 0 && t.ids[slot] == id) {
        out->v[slot] = Scale(value, enabled, running);
        break;
      }
    }
  }
  return t.mask;
#else
  return 0;
#endif
}

/// Segment delta, tolerant of multiplex-scaling regressions.
PerfCounts Delta(const PerfCounts& from, const PerfCounts& to) {
  PerfCounts d;
  for (uint32_t i = 0; i < kNumPerfCounters; ++i) {
    d.v[i] = to.v[i] >= from.v[i] ? to.v[i] - from.v[i] : 0;
  }
  return d;
}

}  // namespace

PerfAttribution::PerfAttribution() {
  const char* v = std::getenv("FASTER_PERF");
  if (v != nullptr && v[0] != '\0' && v[0] != '0') {
    Arm(true);
  }
}

void PerfAttribution::Reset() {
  for (Shard& shard : shards_) {
    for (uint32_t s = 0; s < kNumStages; ++s) {
      for (uint32_t c = 0; c < kNumPerfCounters; ++c) {
        shard.counts[s][c].store(0, std::memory_order_relaxed);
      }
      shard.scopes[s].store(0, std::memory_order_relaxed);
    }
    shard.truncated.store(0, std::memory_order_relaxed);
  }
}

PerfAttribution::Snapshot PerfAttribution::Take() const {
  Snapshot out;
  out.armed = armed();
  out.mask = available_mask();
  for (const Shard& shard : shards_) {
    for (uint32_t s = 0; s < kNumStages; ++s) {
      for (uint32_t c = 0; c < kNumPerfCounters; ++c) {
        out.counts[s][c] +=
            shard.counts[s][c].load(std::memory_order_relaxed);
      }
      out.scopes[s] += shard.scopes[s].load(std::memory_order_relaxed);
    }
    out.truncated += shard.truncated.load(std::memory_order_relaxed);
  }
  return out;
}

std::string PerfAttribution::Json() const {
  Snapshot s = Take();
  std::string out = "{";
  out += "\"armed\":";
  out += s.armed ? "true" : "false";
  out += ",\"counters_available\":[";
  bool first = true;
  for (uint32_t c = 0; c < kNumPerfCounters; ++c) {
    if ((s.mask & (1u << c)) == 0) continue;
    if (!first) out += ',';
    first = false;
    out += '"';
    out += PerfCounterName(c);
    out += '"';
  }
  out += "],\"truncated_scopes\":" + std::to_string(s.truncated);
  out += ",\"stages\":{";
  for (uint32_t st = 0; st < kNumStages; ++st) {
    if (st != 0) out += ',';
    out += '"';
    out += StageName(static_cast<Stage>(st));
    out += "\":{\"scopes\":" + std::to_string(s.scopes[st]);
    for (uint32_t c = 0; c < kNumPerfCounters; ++c) {
      out += ",\"";
      out += PerfCounterName(c);
      out += "\":" + std::to_string(s.counts[st][c]);
    }
    out += '}';
  }
  out += "}}";
  return out;
}

void PerfAttribution::Accumulate(Stage stage, const PerfCounts& delta,
                                 uint32_t mask) {
  constexpr uint32_t kNumShards =
      sizeof(shards_) / sizeof(shards_[0]);
  Shard& shard = shards_[Thread::Id() % kNumShards];
  uint32_t s = static_cast<uint32_t>(stage);
  for (uint32_t c = 0; c < kNumPerfCounters; ++c) {
    if ((mask & (1u << c)) == 0) continue;
    if (delta.v[c] == 0) continue;
    shard.counts[s][c].fetch_add(delta.v[c], std::memory_order_relaxed);
  }
}

void PerfAttribution::CountScope(Stage stage) {
  constexpr uint32_t kNumShards =
      sizeof(shards_) / sizeof(shards_[0]);
  Shard& shard = shards_[Thread::Id() % kNumShards];
  shard.scopes[static_cast<uint32_t>(stage)].fetch_add(
      1, std::memory_order_relaxed);
}

void PerfAttribution::CountTruncated() {
  constexpr uint32_t kNumShards =
      sizeof(shards_) / sizeof(shards_[0]);
  shards_[Thread::Id() % kNumShards].truncated.fetch_add(
      1, std::memory_order_relaxed);
}

PerfAttribution& GlobalPerf() {
  static PerfAttribution perf;
  return perf;
}

namespace {
// FASTER_PERF=1 arms attribution at process start, before any gate reads
// the sink word (a gate no longer constructs the instance).
[[maybe_unused]] const PerfAttribution& g_perf_at_start = GlobalPerf();
}  // namespace

void SetPerfReadHookForTest(PerfReadFn fn) {
  g_read_hook.store(fn, std::memory_order_relaxed);
}

void ForcePerfUnavailableForTest(bool on) {
  g_force_unavailable.store(on, std::memory_order_relaxed);
}

uint32_t PerfThreadMask() {
  PerfThread& t = Self();
  EnsureInit(t);
  PerfReadFn hook = g_read_hook.load(std::memory_order_relaxed);
  if (hook != nullptr) {
    PerfCounts scratch;
    return hook(&scratch);
  }
  return t.mask;
}

bool PerfScopeEnter(Stage stage) {
  PerfThread& t = Self();
  EnsureInit(t);
  PerfAttribution& perf = GlobalPerf();
  if (t.depth >= PerfThread::kMaxDepth) {
    perf.CountTruncated();
    return false;
  }
  PerfCounts now;
  uint32_t mask = ReadNow(t, &now);
  if ((mask & ~perf.available_mask()) != 0) perf.PublishMask(mask);
  if (t.depth > 0) {
    // Close the parent's running segment: everything since the last
    // boundary belongs to the stage that was executing.
    perf.Accumulate(t.stack[t.depth - 1], Delta(t.seg_start, now), mask);
  }
  t.stack[t.depth++] = stage;
  t.seg_start = now;
  perf.CountScope(stage);
  return true;
}

void PerfScopeExit() {
  PerfThread& t = Self();
  if (t.depth == 0) return;  // unmatched exit; defensive
  PerfCounts now;
  uint32_t mask = ReadNow(t, &now);
  PerfAttribution& perf = GlobalPerf();
  perf.Accumulate(t.stack[t.depth - 1], Delta(t.seg_start, now), mask);
  --t.depth;
  // Restart the parent's segment (or close out cleanly at depth 0).
  t.seg_start = now;
}

}  // namespace obs
}  // namespace faster
