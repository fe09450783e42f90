// Perf-counter stage attribution (src/obs/perf.h): the stage-sum
// invariant under nesting, the depth cap and the no-perf_event fallback.
// The deterministic-read-hook tests exercise the real scope machinery
// (enter/exit, pause/resume, shard accumulation) over synthetic counter
// values, so they hold on any machine; the real-counter tests GTEST_SKIP
// where the kernel grants nothing (containers with perf_event_paranoid >
// 2, seccomp).

#include "obs/perf.h"

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>

#include "gtest/gtest.h"

namespace faster {
namespace obs {
namespace {

// Deterministic counter source: every read advances a global tick; counter
// slot i advances by (i + 1) per tick. All eight slots report available.
std::atomic<uint64_t> g_tick{0};  // order: relaxed; test-only sequence

uint32_t FakeRead(PerfCounts* out) {
  uint64_t t = g_tick.fetch_add(1, std::memory_order_relaxed) + 1;
  for (uint32_t i = 0; i < kNumPerfCounters; ++i) {
    out->v[i] = t * (i + 1);
  }
  return (1u << kNumPerfCounters) - 1;
}

// Installs the fake read source for one test, restoring on destruction.
struct HookGuard {
  HookGuard() {
    SetPerfReadHookForTest(&FakeRead);
    GlobalPerf().Reset();
    GlobalPerf().Arm(true);
  }
  ~HookGuard() {
    GlobalPerf().Arm(false);
    SetPerfReadHookForTest(nullptr);
    GlobalPerf().Reset();
  }
};

TEST(PerfScopeTest, StageSumInvariantUnderNesting) {
  HookGuard hook;
  // Scope structure: hash { io_queue {} execute {} } — six reads total
  // (outer enter, two nested enter/exit pairs, outer exit), five
  // single-tick segments, three attributed to hash (the segments between
  // the children) and one to each child.
  uint64_t t0 = g_tick.load(std::memory_order_relaxed);
  {
    PerfScope outer(Stage::kHash);
    { PerfScope nested(Stage::kIoQueue); }
    { PerfScope nested(Stage::kExecute); }
  }
  uint64_t reads = g_tick.load(std::memory_order_relaxed) - t0;
  ASSERT_EQ(reads, 6u);

  PerfAttribution::Snapshot s = GlobalPerf().Take();
  EXPECT_EQ(s.scopes[static_cast<uint32_t>(Stage::kHash)], 1u);
  EXPECT_EQ(s.scopes[static_cast<uint32_t>(Stage::kIoQueue)], 1u);
  EXPECT_EQ(s.scopes[static_cast<uint32_t>(Stage::kExecute)], 1u);
  for (uint32_t c = 0; c < kNumPerfCounters; ++c) {
    uint64_t per_tick = c + 1;
    EXPECT_EQ(s.counts[static_cast<uint32_t>(Stage::kHash)][c],
              3 * per_tick)
        << PerfCounterName(c);
    EXPECT_EQ(s.counts[static_cast<uint32_t>(Stage::kIoQueue)][c],
              per_tick);
    EXPECT_EQ(s.counts[static_cast<uint32_t>(Stage::kExecute)][c],
              per_tick);
    // The invariant: the per-stage sums partition the attributed window
    // (first read to last read) exactly — nothing double-counted, nothing
    // dropped, regardless of nesting.
    uint64_t sum = 0;
    for (uint32_t st = 0; st < kNumStages; ++st) {
      sum += s.counts[st][c];
    }
    EXPECT_EQ(sum, (reads - 1) * per_tick) << PerfCounterName(c);
  }
}

TEST(PerfScopeTest, DeepNestingStillPartitionsExactly) {
  HookGuard hook;
  uint64_t t0 = g_tick.load(std::memory_order_relaxed);
  {
    PerfScope a(Stage::kExecute);
    {
      PerfScope b(Stage::kIoQueue);
      {
        PerfScope c(Stage::kIoExec);
        { PerfScope d(Stage::kIoComplete); }
      }
      { PerfScope e(Stage::kIoPoll); }
    }
  }
  uint64_t reads = g_tick.load(std::memory_order_relaxed) - t0;
  PerfAttribution::Snapshot s = GlobalPerf().Take();
  for (uint32_t c = 0; c < kNumPerfCounters; ++c) {
    uint64_t sum = 0;
    for (uint32_t st = 0; st < kNumStages; ++st) {
      sum += s.counts[st][c];
    }
    EXPECT_EQ(sum, (reads - 1) * (c + 1)) << PerfCounterName(c);
  }
  EXPECT_EQ(s.truncated, 0u);
}

TEST(PerfScopeTest, DepthCapTruncatesWithoutCorruption) {
  HookGuard hook;
  // The cap is an implementation constant (16); push past it via the raw
  // enter/exit the RAII scope wraps.
  constexpr uint32_t kMaxDepth = 16;
  uint32_t entered = 0;
  for (uint32_t i = 0; i < kMaxDepth + 3; ++i) {
    if (PerfScopeEnter(Stage::kExecute)) ++entered;
  }
  EXPECT_EQ(entered, kMaxDepth);
  PerfAttribution::Snapshot s = GlobalPerf().Take();
  EXPECT_EQ(s.truncated, 3u);
  for (uint32_t i = 0; i < entered; ++i) PerfScopeExit();
  // Balanced again: a fresh scope still attributes (the stack was not
  // corrupted by the dropped frames).
  GlobalPerf().Reset();
  { PerfScope scope(Stage::kHash); }
  s = GlobalPerf().Take();
  EXPECT_EQ(s.scopes[static_cast<uint32_t>(Stage::kHash)], 1u);
}

TEST(PerfScopeTest, DisarmedScopesCostNothingAndCountNothing) {
  SetPerfReadHookForTest(&FakeRead);
  GlobalPerf().Reset();
  GlobalPerf().Arm(false);
  uint64_t t0 = g_tick.load(std::memory_order_relaxed);
  { PerfScope scope(Stage::kExecute); }
  EXPECT_EQ(g_tick.load(std::memory_order_relaxed), t0);  // no reads
  PerfAttribution::Snapshot s = GlobalPerf().Take();
  EXPECT_EQ(s.scopes[static_cast<uint32_t>(Stage::kExecute)], 0u);
  SetPerfReadHookForTest(nullptr);
}

TEST(PerfScopeTest, UnavailableFallbackCountsScopesAttributesZeros) {
  // A thread whose perf_event_open is refused must still run scopes
  // (stage entry counts feed PERF GET) while attributing no counter
  // values. Force the fallback and use a fresh thread so its lazy init
  // takes the forced path.
  ForcePerfUnavailableForTest(true);
  GlobalPerf().Reset();
  GlobalPerf().Arm(true);
  uint32_t thread_mask = 0xFFFFFFFF;
  std::thread worker([&thread_mask] {
    thread_mask = PerfThreadMask();
    PerfScope outer(Stage::kHash);
    { PerfScope nested(Stage::kExecute); }
  });
  worker.join();
  GlobalPerf().Arm(false);
  ForcePerfUnavailableForTest(false);

  EXPECT_EQ(thread_mask, 0u);
  PerfAttribution::Snapshot s = GlobalPerf().Take();
  EXPECT_EQ(s.scopes[static_cast<uint32_t>(Stage::kHash)], 1u);
  EXPECT_EQ(s.scopes[static_cast<uint32_t>(Stage::kExecute)], 1u);
  for (uint32_t st = 0; st < kNumStages; ++st) {
    for (uint32_t c = 0; c < kNumPerfCounters; ++c) {
      EXPECT_EQ(s.counts[st][c], 0u);
    }
  }
  GlobalPerf().Reset();
}

TEST(PerfScopeTest, RealCountersAttributeCpuTime) {
  // End-to-end against the kernel. Fresh thread: earlier tests may have
  // latched this thread's lazy init under the forced-fallback flag.
  GlobalPerf().Reset();
  GlobalPerf().Arm(true);
  uint32_t mask = 0;
  std::thread worker([&mask] {
    mask = PerfThreadMask();
    if (mask == 0) return;
    PerfScope scope(Stage::kExecute);
    // Burn enough CPU that task-clock (granted whenever perf works at
    // all: it is a software event) must advance.
    volatile uint64_t sink = 0;
    for (uint64_t i = 0; i < 20 * 1000 * 1000; ++i) sink = sink + i;
  });
  worker.join();
  GlobalPerf().Arm(false);
  if (mask == 0) {
    GTEST_SKIP() << "perf_event_open unavailable (paranoid/seccomp)";
  }
  ASSERT_NE(mask & (1u << kPerfTaskClockNs), 0u);
  PerfAttribution::Snapshot s = GlobalPerf().Take();
  EXPECT_EQ(s.scopes[static_cast<uint32_t>(Stage::kExecute)], 1u);
  EXPECT_GT(s.counts[static_cast<uint32_t>(Stage::kExecute)]
                    [kPerfTaskClockNs],
            0u);
  GlobalPerf().Reset();
}

TEST(PerfJsonTest, SnapshotJsonCarriesStagesAndArmedState) {
  HookGuard hook;
  { PerfScope scope(Stage::kCkptFlush); }
  std::string json = GlobalPerf().Json();
  EXPECT_NE(json.find("\"armed\":true"), std::string::npos);
  EXPECT_NE(json.find("\"ckpt_flush\""), std::string::npos);
  EXPECT_NE(json.find("\"task_clock_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"truncated_scopes\":0"), std::string::npos);
  // Every stage name appears exactly once.
  for (uint32_t st = 0; st < kNumStages; ++st) {
    std::string name = "\"";
    name += StageName(static_cast<Stage>(st));
    name += "\"";
    EXPECT_NE(json.find(name), std::string::npos) << name;
  }
}

}  // namespace
}  // namespace obs
}  // namespace faster
