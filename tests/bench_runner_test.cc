#include "runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <vector>

#include "obs/stats.h"

namespace faster {
namespace {

TEST(RunWorkloadTest, DrivesAdapter) {
  struct CountingAdapter {
    std::atomic<uint64_t> reads{0}, upserts{0}, rmws{0}, idles{0};
    std::atomic<uint64_t> begins{0}, ends{0};
    void Begin() { begins.fetch_add(1, std::memory_order_relaxed); }
    void End() { ends.fetch_add(1, std::memory_order_relaxed); }
    void DoRead(uint64_t) { reads.fetch_add(1, std::memory_order_relaxed); }
    void DoUpsert(uint64_t, uint64_t) {
      upserts.fetch_add(1, std::memory_order_relaxed);
    }
    void DoRmw(uint64_t) { rmws.fetch_add(1, std::memory_order_relaxed); }
    void Idle() { idles.fetch_add(1, std::memory_order_relaxed); }
  };
  CountingAdapter adapter;
  auto spec = WorkloadSpec::Ycsb(0.5, 0.25, Distribution::kUniform, 1000);
  constexpr double kSeconds = 0.4;
  RunResult r = RunWorkload(adapter, spec, 2, kSeconds);

  EXPECT_EQ(adapter.begins.load(), 2u);
  EXPECT_EQ(adapter.ends.load(), 2u);
  EXPECT_GT(r.total_ops, 0u);
  EXPECT_EQ(r.total_ops, adapter.reads + adapter.upserts + adapter.rmws);
  EXPECT_GT(adapter.idles.load(), 0u);
  // One rate per window, and Mops is their median.
  ASSERT_EQ(r.window_mops.size(),
            static_cast<size_t>(BenchPhase(kSeconds).windows));
  for (double rate : r.window_mops) EXPECT_GT(rate, 0.0);
  EXPECT_DOUBLE_EQ(r.mops, suite::Median(r.window_mops));
  EXPECT_GE(r.iqr_pct, 0.0);
  // The windows' latency reservoirs fill in every build, stats on or off.
  SCOPED_TRACE(obs::kStatsEnabled ? "stats on" : "stats off");
  EXPECT_GT(r.p50_us, 0.0);
  EXPECT_GE(r.p99_us, r.p50_us);
}

TEST(RunStepsTest, AWorkerStopsWhenItsStepFails) {
  constexpr uint32_t kPerStep = 8;
  std::vector<uint64_t> steps(2, 0);
  RunResult r = RunSteps(2, 0.4, kPerStep, [&](uint32_t tid) {
    // Worker 0 stops after 10 steps; worker 1 runs every window.
    return tid != 0 || ++steps[0] <= 10;
  });
  EXPECT_EQ(steps[0], 11u);
  EXPECT_GT(r.total_ops, 10 * kPerStep);
  EXPECT_EQ(r.total_ops % kPerStep, 0u);
  EXPECT_GT(r.mops, 0.0);
}

}  // namespace
}  // namespace faster
