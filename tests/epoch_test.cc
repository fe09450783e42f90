#include "core/epoch.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/wait.h"
#include "obs/flight_recorder.h"

namespace faster {
namespace {

TEST(EpochTest, ProtectRefreshUnprotect) {
  LightEpoch epoch;
  EXPECT_FALSE(epoch.IsProtected());
  uint64_t e = epoch.Protect();
  EXPECT_TRUE(epoch.IsProtected());
  EXPECT_EQ(e, epoch.CurrentEpoch());
  epoch.Refresh();
  epoch.Unprotect();
  EXPECT_FALSE(epoch.IsProtected());
}

TEST(EpochTest, BumpAdvancesCurrentEpoch) {
  LightEpoch epoch;
  uint64_t before = epoch.CurrentEpoch();
  epoch.BumpCurrentEpoch();
  EXPECT_EQ(epoch.CurrentEpoch(), before + 1);
}

TEST(EpochTest, SafeEpochLagsProtectedThread) {
  LightEpoch epoch;
  epoch.Protect();  // local = E
  uint64_t e = epoch.CurrentEpoch();
  epoch.BumpCurrentEpoch();  // E+1; our local still E
  epoch.ComputeNewSafeToReclaimEpoch();
  EXPECT_LT(epoch.SafeToReclaimEpoch(), e);  // e not safe: we're still in it
  epoch.Refresh();  // local -> E+1; now e is safe
  EXPECT_GE(epoch.SafeToReclaimEpoch(), e);
  epoch.Unprotect();
}

TEST(EpochTest, TriggerActionRunsExactlyOnceAfterSafe) {
  LightEpoch epoch;
  epoch.Protect();
  std::atomic<int> runs{0};
  epoch.BumpCurrentEpoch([&] { runs.fetch_add(1); });
  // Not yet safe: we have not refreshed past the bumped epoch.
  EXPECT_EQ(epoch.NumOutstandingActions(), 1u);
  epoch.Refresh();
  EXPECT_EQ(runs.load(), 1);
  epoch.Refresh();
  epoch.Refresh();
  EXPECT_EQ(runs.load(), 1);
  epoch.Unprotect();
}

TEST(EpochTest, ActionWaitsForLaggingThread) {
  LightEpoch epoch;
  epoch.Protect();

  std::atomic<bool> other_protected{false};
  std::atomic<bool> release_other{false};
  std::thread other([&] {
    epoch.Protect();
    other_protected.store(true);
    while (!release_other.load()) std::this_thread::yield();
    epoch.Unprotect();
  });
  while (!other_protected.load()) std::this_thread::yield();

  std::atomic<int> runs{0};
  epoch.BumpCurrentEpoch([&] { runs.fetch_add(1); });
  // The other thread has not refreshed; the action must not fire.
  for (int i = 0; i < 10; ++i) epoch.Refresh();
  EXPECT_EQ(runs.load(), 0);

  release_other.store(true);  // other thread unprotects
  other.join();
  epoch.Refresh();
  EXPECT_EQ(runs.load(), 1);
  epoch.Unprotect();
}

TEST(EpochTest, ManyActionsAllRun) {
  LightEpoch epoch;
  epoch.Protect();
  std::atomic<int> runs{0};
  constexpr int kActions = 1000;  // exceeds the drain list size
  for (int i = 0; i < kActions; ++i) {
    epoch.BumpCurrentEpoch([&] { runs.fetch_add(1); });
    if (i % 7 == 0) epoch.Refresh();
  }
  epoch.SpinWaitForSafety(epoch.CurrentEpoch() - 1);
  EXPECT_EQ(runs.load(), kActions);
  epoch.Unprotect();
}

TEST(EpochTest, ConcurrentProtectRefresh) {
  LightEpoch epoch;
  constexpr int kThreads = 4;
  constexpr int kIters = 2000;
  std::atomic<int> action_runs{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      epoch.Protect();
      for (int i = 0; i < kIters; ++i) {
        if (i % 100 == 0) {
          epoch.BumpCurrentEpoch([&] { action_runs.fetch_add(1); });
        }
        epoch.Refresh();
      }
      epoch.Unprotect();
    });
  }
  for (auto& t : threads) t.join();
  // All actions must eventually run (drain by a fresh protected thread).
  epoch.Protect();
  epoch.SpinWaitForSafety(epoch.CurrentEpoch() - 1);
  epoch.Unprotect();
  EXPECT_EQ(action_runs.load(), kThreads * kIters / 100);
}

TEST(EpochTest, DrainListActionsUnderThreadChurn) {
  // Trigger actions must fire exactly once even while threads acquire and
  // release protection concurrently (epoch-table slots appearing and
  // vanishing mid-drain). A churner that only protects/unprotects can
  // neither suppress an action nor cause a double run.
  LightEpoch epoch;
  constexpr int kChurners = 2;
  constexpr int kRounds = 500;
  std::atomic<bool> stop{false};
  std::vector<std::thread> churners;
  for (int t = 0; t < kChurners; ++t) {
    churners.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        epoch.Protect();
        epoch.Refresh();
        epoch.Unprotect();
      }
    });
  }

  epoch.Protect();
  std::atomic<int> runs{0};
  for (int i = 0; i < kRounds; ++i) {
    epoch.BumpCurrentEpoch([&] { runs.fetch_add(1); });
    epoch.Refresh();
  }
  epoch.SpinWaitForSafety(epoch.CurrentEpoch() - 1);
  epoch.Unprotect();
  stop.store(true, std::memory_order_release);
  for (auto& t : churners) t.join();

  EXPECT_EQ(runs.load(), kRounds);
  EXPECT_EQ(epoch.NumOutstandingActions(), 0u);
}

TEST(EpochTest, DrainListFillsAndRecoversUnderChurn) {
  // Overflow the drain list (kDrainListSize actions) while churners hold
  // and release protection; BumpCurrentEpoch must drain in-line instead of
  // deadlocking, and every action still runs exactly once.
  LightEpoch epoch;
  std::atomic<bool> stop{false};
  std::thread churner([&] {
    while (!stop.load(std::memory_order_acquire)) {
      epoch.Protect();
      epoch.Unprotect();
    }
  });

  epoch.Protect();
  std::atomic<int> runs{0};
  const int kActions = static_cast<int>(LightEpoch::kDrainListSize) * 3;
  for (int i = 0; i < kActions; ++i) {
    epoch.BumpCurrentEpoch([&] { runs.fetch_add(1); });
    // No explicit Refresh: the list must fill and force in-line drains.
  }
  epoch.SpinWaitForSafety(epoch.CurrentEpoch() - 1);
  epoch.Unprotect();
  stop.store(true, std::memory_order_release);
  churner.join();

  EXPECT_EQ(runs.load(), kActions);
  EXPECT_EQ(epoch.NumOutstandingActions(), 0u);
}

TEST(EpochTest, MonotonicInvariant) {
  // Invariant from Sec. 2.3: E_s < E_T <= E for all protected T.
  LightEpoch epoch;
  epoch.Protect();
  for (int i = 0; i < 100; ++i) {
    epoch.BumpCurrentEpoch();
    uint64_t local = epoch.Refresh();
    EXPECT_LE(local, epoch.CurrentEpoch());
    EXPECT_LT(epoch.SafeToReclaimEpoch(), local);
  }
  epoch.Unprotect();
}

// Test sites: fresh counters. A wait needs static storage for its site.
constexpr WaitSite kSatisfiedSite{"test_satisfied", kWaitRefresh, 0};
constexpr WaitSite kSpinningSite{"test_spinning", kWaitRefresh, 0};

// A wait whose predicate already holds is one test: it counts nothing and
// names no site.
TEST(WaitTest, SatisfiedWaitCountsNothing) {
  LightEpoch epoch;
  epoch.Protect();
  int tests = 0;
  WaitUntil<kSatisfiedSite>([&] { return ++tests > 0; }, &epoch);
  EXPECT_EQ(tests, 1);
  EXPECT_EQ(kSatisfiedSite.waits.load(std::memory_order_relaxed), 0u);
  EXPECT_EQ(kSatisfiedSite.spins.load(std::memory_order_relaxed), 0u);
  epoch.Unprotect();
}

// A wait that spins counts one wait and its spins. Past its first 1,024
// spins it names its site in the thread's epoch entry, and it clears the
// name on exit.
TEST(WaitTest, SpinningWaitCountsOneWaitAndItsSpins) {
  LightEpoch epoch;
  epoch.Protect();
  const uint32_t tid = Thread::Id();
  int tests = 0;
  const char* early = nullptr;
  const char* late = nullptr;
  WaitUntil<kSpinningSite>([&] {
    if (tests == 1) early = epoch.WaitSiteOf(tid);
    if (tests == 1100) late = epoch.WaitSiteOf(tid);
    return ++tests == 1200;
  }, &epoch);
  EXPECT_EQ(kSpinningSite.waits.load(std::memory_order_relaxed), 1u);
  EXPECT_EQ(kSpinningSite.spins.load(std::memory_order_relaxed), 1199u);
  EXPECT_EQ(early, nullptr);
  EXPECT_STREQ(late, "test_spinning");
  EXPECT_EQ(epoch.WaitSiteOf(tid), nullptr);
  epoch.Unprotect();
}

// BumpAndWait returns only after its action has run, and runs it once,
// while a second protected thread refreshes (and may run it instead).
TEST(WaitTest, BumpAndWaitRunsItsActionOnceBeforeReturning) {
  LightEpoch epoch;
  std::atomic<bool> other_protected{false};
  std::atomic<bool> stop{false};
  std::thread other([&] {
    epoch.Protect();
    other_protected.store(true);
    while (!stop.load()) {
      epoch.Refresh();
      std::this_thread::yield();
    }
    epoch.Unprotect();
  });
  while (!other_protected.load()) std::this_thread::yield();
  epoch.Protect();
  std::atomic<int> runs{0};
  for (int i = 0; i < 100; ++i) {
    epoch.BumpAndWait([&] { runs.fetch_add(1); });
    ASSERT_EQ(runs.load(), i + 1);
  }
  stop.store(true);
  other.join();
  epoch.Refresh();
  EXPECT_EQ(runs.load(), 100);
  epoch.Unprotect();
}

// The waits for the device have no watchdog bound: a slow device may take
// longer than any bound and still be making progress
// (HybridLogTest.FlushOnASlowDeviceOutlastsAWatchdogBound runs one).
TEST(WaitTest, DeviceWaitsAreUnbounded) {
  for (WaitSiteId id : {kWaitCompletePending, kWaitReadSync, kWaitFlush,
                        kWaitUringSubmit, kWaitUringDrain, kWaitServerStop,
                        kWaitCompact}) {
    EXPECT_EQ(kWaitSites[id].bound_ns, 0u) << kWaitSites[id].name;
  }
}

// The watchdog: a wait past its site's bound dumps the flight recorder,
// whose epoch table names the site, and aborts.
constexpr WaitSite kNeverSite{"test_never", kWaitRefresh, 50'000'000};

void WaitForever() {
  static LightEpoch epoch;
  obs::FlightRecorder& recorder = obs::FlightRecorder::Instance();
  recorder.Install();
  recorder.AttachEpoch(&epoch, &epoch);
  epoch.Protect();
  WaitUntil<kNeverSite>([] { return false; }, &epoch);
}

TEST(WaitDeathTest, WatchdogDumpsTheSiteAndAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(WaitForever(),
               "FASTER wait watchdog: spun past bound: test_never.*"
               "reason: test_never.*local_epoch=[0-9]+ wait=test_never");
}

}  // namespace
}  // namespace faster
