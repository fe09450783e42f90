/// Model checking LightEpoch (DESIGN.md §5, §14): the publish-then-recheck
/// Protect protocol, deferred-action arming, and the drain-list CAS state
/// machine — against the real src/core/epoch.cc compiled under
/// FASTER_MODEL.
///
/// The key reduction: epoch-based reclamation is correct iff a deferred
/// "free" (a write to the protected resource) can never race a protected
/// reader's access. model::Data's vector-clock race detector checks
/// exactly that, so the whole protocol — Dekker-style publish/recheck vs
/// bump/scan, drain-list exactly-once — collapses into one observable.
///
/// Exploration is bounded CHESS-style (preemption_bound): every
/// interleaving with up to N forced context switches plus every legal
/// stale-value choice is visited; res.complete asserts the bound was
/// exhausted, not abandoned.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>

#include "core/epoch.h"
#include "model/atomic.h"
#include "model/runtime.h"
#include "model_test_util.h"

namespace model = faster::model;
using model_test::FindSourceLine;
using model_test::Opts;
using model_test::ScopedMutation;

namespace {

/// Reader/reclaimer body shared by the clean run and the mutation demos:
/// T1 reads a resource under epoch protection iff it still observes it
/// live; T2 unlinks the resource and defers the "free" write through
/// BumpCurrentEpoch. Any schedule in which the free reaches the resource
/// without happening-after the reader's access is a data race — the bug
/// every weakening of the Protect/bump/scan orders must produce.
void ReclamationBody() {
  faster::LightEpoch epoch;
  model::Atomic<int> live{1};
  model::Data<int> resource{42};
  model::Spawn([&] {  // reader
    epoch.Protect();
    if (live.load(std::memory_order_acquire) == 1) {
      MODEL_ASSERT(resource.Read() == 42, "reader saw the freed resource");
    }
    epoch.Unprotect();
  });
  model::Spawn([&] {  // reclaimer
    epoch.Protect();
    live.store(0, std::memory_order_release);
    epoch.BumpCurrentEpoch([&] { resource.Mut() = 0; });
    epoch.Refresh();  // may (legally) run the action if already safe
    epoch.Unprotect();
  });
  model::JoinAll();
  // LightEpoch's destructor drains the action if no refresh did; the
  // JoinAll above makes that ordered after both workers.
}

model::Options ReclaimOpts(const char* name) {
  model::Options o = Opts(name);
  o.preemption_bound = 2;
  o.max_steps = 2000;
  o.max_executions = 2000000;
  return o;
}

TEST(ModelEpoch, DeferredFreeNeverRacesProtectedReader) {
  model::Result res = model::Check(ReclaimOpts("epoch_reclaim"),
                                   ReclamationBody);
  EXPECT_FALSE(res.violation) << res.violation_message << "\n" << res.trace;
  EXPECT_TRUE(res.complete) << res.Summary();
  EXPECT_GT(res.explored, 10) << res.Summary();
}

// Two bumpers arm one action each and both try to drain; whoever claims a
// slot's CAS runs its action exactly once — double-run and lost-action
// schedules are both assertion failures.
TEST(ModelEpoch, DrainActionsRunExactlyOnce) {
  model::Options opts = ReclaimOpts("epoch_drain_once");
  model::Result res = model::Check(opts, [] {
    auto epoch = std::make_unique<faster::LightEpoch>();
    int runs[2] = {0, 0};
    model::Spawn([&] {
      epoch->Protect();
      epoch->BumpCurrentEpoch([&] { ++runs[0]; });
      epoch->Refresh();
      epoch->Unprotect();
    });
    model::Spawn([&] {
      epoch->Protect();
      epoch->BumpCurrentEpoch([&] { ++runs[1]; });
      epoch->Refresh();
      epoch->Unprotect();
    });
    model::JoinAll();
    epoch.reset();  // destructor drains whatever is still armed
    MODEL_ASSERT(runs[0] == 1, "action 0 ran " + std::to_string(runs[0]) +
                                   " times");
    MODEL_ASSERT(runs[1] == 1, "action 1 ran " + std::to_string(runs[1]) +
                                   " times");
  });
  EXPECT_FALSE(res.violation) << res.violation_message << "\n" << res.trace;
  EXPECT_TRUE(res.complete) << res.Summary();
}

// BumpAndWait against a thread that refreshes: either thread may run the
// action, exactly once, and the waiter returns only after it ran. The
// counter is model::Data, so a return that does not happen-after the
// action (a weakened completion flag) is a race the checker reports.
TEST(ModelEpoch, BumpAndWaitRunsItsActionOnceBeforeReturning) {
  // Every spin of the wait yields, a free switch: a smaller bound than
  // ReclaimOpts' keeps the exploration to seconds.
  model::Options opts = ReclaimOpts("epoch_bump_and_wait");
  opts.preemption_bound = 1;
  opts.max_steps = 150;
  model::Result res = model::Check(opts, [] {
    auto epoch = std::make_unique<faster::LightEpoch>();
    model::Data<int> runs{0};
    model::Spawn([&] {  // waiter
      epoch->Protect();
      epoch->BumpAndWait([&] { ++runs.Mut(); });
      MODEL_ASSERT(runs.Read() == 1, "BumpAndWait returned before its action");
      epoch->Unprotect();
    });
    model::Spawn([&] {  // refresher
      epoch->Protect();
      epoch->Refresh();
      epoch->Unprotect();
    });
    model::JoinAll();
    epoch.reset();
    MODEL_ASSERT(runs.Read() == 1,
                 "action ran " + std::to_string(runs.Read()) + " times");
  });
  EXPECT_FALSE(res.violation) << res.violation_message << "\n" << res.trace;
  EXPECT_TRUE(res.complete) << res.Summary();
}

// Seeded bug 1: demote the safety scan's seq_cst loads to relaxed. The
// scan may then miss a concurrently published local epoch (the Dekker
// hole Protect's publish-then-recheck exists to close) and declare a
// protected reader's epoch safe — the checker must produce the
// reclamation race with a trace.
TEST(ModelEpoch, SeededBugScanLoadRelaxedIsCaught) {
  int line = FindSourceLine(
      "core/epoch.cc",
      "table_[i].local_epoch.load(std::memory_order_seq_cst)");
  ASSERT_GT(line, 0) << "safety-scan load not found in core/epoch.cc";
  ScopedMutation mutate("core/epoch.cc", line);
  model::Result res = model::Check(ReclaimOpts("epoch_mut_scan"),
                                   ReclamationBody);
  EXPECT_GT(res.mutation_hits, 0);
  EXPECT_TRUE(res.violation) << "weakened safety scan went undetected: "
                             << res.Summary();
  EXPECT_NE(res.trace.find("interleaving trace"), std::string::npos);
}

// Seeded bug 2: demote Protect's seq_cst publish store to relaxed. The
// publish can then stay invisible to the scan even though the re-read saw
// the old epoch, so Protect returns while the scan misses the thread.
TEST(ModelEpoch, SeededBugProtectPublishRelaxedIsCaught) {
  int line = FindSourceLine(
      "core/epoch.cc",
      "table_[tid].local_epoch.store(current, std::memory_order_seq_cst)");
  ASSERT_GT(line, 0) << "Protect publish store not found in core/epoch.cc";
  ScopedMutation mutate("core/epoch.cc", line);
  model::Result res = model::Check(ReclaimOpts("epoch_mut_publish"),
                                   ReclamationBody);
  EXPECT_GT(res.mutation_hits, 0);
  EXPECT_TRUE(res.violation) << "weakened Protect publish went undetected: "
                             << res.Summary();
}

// Seeded bug 3: demote the bump's seq_cst fetch_add to relaxed. Protect's
// re-read can then confirm a stale epoch while the bump's safety scan
// misses the publish — same hole from the other side.
TEST(ModelEpoch, SeededBugBumpRelaxedIsCaught) {
  int line = FindSourceLine(
      "core/epoch.cc",
      "prior = current_epoch_.fetch_add(1, std::memory_order_seq_cst)");
  ASSERT_GT(line, 0) << "bump fetch_add not found in core/epoch.cc";
  ScopedMutation mutate("core/epoch.cc", line);
  model::Result res = model::Check(ReclaimOpts("epoch_mut_bump"),
                                   ReclamationBody);
  EXPECT_GT(res.mutation_hits, 0);
  EXPECT_TRUE(res.violation) << "weakened epoch bump went undetected: "
                             << res.Summary();
}

}  // namespace
