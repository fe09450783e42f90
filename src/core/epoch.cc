#include "core/epoch.h"

#include <cassert>

#include "core/epoch_check.h"
#include "core/wait.h"
#include "obs/stage.h"

namespace faster {

namespace {
// Epoch numbering starts at 1 so that kUnprotected (0) never aliases a real
// epoch and so "safe epoch" can start at 0 (nothing safe yet).
constexpr uint64_t kFirstEpoch = 1;
}  // namespace

LightEpoch::LightEpoch()
    : current_epoch_{kFirstEpoch}, safe_to_reclaim_epoch_{0} {}

LightEpoch::~LightEpoch() {
  QuiescentRegion quiesce;  // noexcept body: model ops must not schedule
  // Run any remaining actions; at destruction time no thread may be
  // protected, so every registered epoch is safe.
  Drain(UINT64_MAX - 2);
}

// The phantom epoch capability (core/annotations.h) is acquired here but
// no analyzable lock operation happens in the body, so the analysis is
// disabled for the definition; the contract lives on the declaration.
uint64_t LightEpoch::Protect() FASTER_NO_THREAD_SAFETY_ANALYSIS {
  uint32_t tid = Thread::Id();
  uint64_t current = current_epoch_.load(std::memory_order_acquire);
  // Publish-then-recheck: between reading E and publishing it, another
  // thread may bump E and compute a safe epoch that excludes this (still
  // invisible) thread, leaving E_s >= our local epoch. Republishing until
  // a seq_cst re-read confirms E did not move restores the invariant: any
  // bump ordered after the confirmed publication scans the table with our
  // entry visible, so E_s stays below our local epoch. (Refresh() does not
  // need this: an already-protected thread's old local epoch pins the
  // minimum during the store.)
  for (;;) {
    table_[tid].local_epoch.store(current, std::memory_order_seq_cst);
    uint64_t now = current_epoch_.load(std::memory_order_seq_cst);
    if (now == current) {
      return current;
    }
    current = now;
  }
}

bool LightEpoch::IsProtected() const {
  return table_[Thread::Id()].local_epoch.load(std::memory_order_relaxed) !=
         kUnprotected;
}

uint64_t LightEpoch::Refresh() {
  uint32_t tid = Thread::Id();
  uint64_t current = current_epoch_.load(std::memory_order_acquire);
  assert(table_[tid].local_epoch.load(std::memory_order_relaxed) !=
         kUnprotected);
  FASTER_EPOCH_VERIFY(table_[tid].held_op_scopes == 0,
                      "epoch refresh under an index OpScope: a trigger "
                      "action it runs may wait on the scope's chunk pin");
  table_[tid].local_epoch.store(current, std::memory_order_seq_cst);
  uint64_t safe = ComputeNewSafeToReclaimEpoch();
  if (drain_count_.load(std::memory_order_acquire) > 0) {
    Drain(safe);
  }
  return current;
}

void LightEpoch::Unprotect() FASTER_NO_THREAD_SAFETY_ANALYSIS {
  // Releasing protection a thread does not hold corrupts nothing directly
  // but means some caller's protected region ended earlier than it thinks.
  assert(IsProtected());
  table_[Thread::Id()].local_epoch.store(kUnprotected,
                                         std::memory_order_release);
}

uint64_t LightEpoch::ComputeNewSafeToReclaimEpoch() {
  uint64_t current = current_epoch_.load(std::memory_order_acquire);
  // An epoch c is safe iff every protected thread has local epoch > c, so
  // the maximal safe epoch is (min protected local epoch) - 1; if no thread
  // is protected it is E - 1 (E itself can still gain new entrants).
  uint64_t min_epoch = current;
  uint32_t live = Thread::HighWaterMark();
  for (uint32_t i = 0; i < live; ++i) {
    // seq_cst, not acquire: this scan is the other half of Protect's
    // publish-then-recheck Dekker pattern. Protect publishes local_epoch
    // (seq_cst) then re-reads E (seq_cst); the bump writes E (seq_cst)
    // before this scan reads local_epoch. All four accesses must be in
    // the single total order for "re-read saw old E" to imply "scan sees
    // the published entry" — with a weaker scan, both threads can read
    // stale values and a protected thread's epoch is declared safe. Found
    // by the model checker (tests/model/model_epoch_test.cc); x86 lowers
    // it identically to acquire.
    uint64_t e = table_[i].local_epoch.load(std::memory_order_seq_cst);
    if (e != kUnprotected && e < min_epoch) {
      min_epoch = e;
    }
  }
  uint64_t safe = min_epoch - 1;
  // Monotonic update: never move the safe epoch backwards.
  uint64_t prev = safe_to_reclaim_epoch_.load(std::memory_order_acquire);
  while (prev < safe && !safe_to_reclaim_epoch_.compare_exchange_weak(
                            prev, safe, std::memory_order_acq_rel)) {
  }
  return safe_to_reclaim_epoch_.load(std::memory_order_acquire);
}

uint64_t LightEpoch::BumpCurrentEpoch() {
  // seq_cst: see ComputeNewSafeToReclaimEpoch — the bump is the W(E) side
  // of the Dekker pattern against Protect's publish-then-recheck.
  return current_epoch_.fetch_add(1, std::memory_order_seq_cst);
}

uint64_t LightEpoch::BumpCurrentEpoch(std::function<void()> action) {
  // List full: refresh. A caller that has not refreshed since arming
  // earlier actions pins the safe epoch below all of them, and a bump is
  // an operation boundary for it, so it moves its own epoch as well.
  uint32_t slot;
  WaitUntil<kWaitEpochSlot>(
      [&] { return (slot = TryClaimSlot()) != kNoSlot; }, this);
  return BumpCurrentEpoch(slot, std::move(action));
}

void LightEpoch::BumpAndWait(std::function<void()> action) {
  // order: release store after the action, acquire load in the wait.
  Atomic<bool> ran{false};
  BumpCurrentEpoch([&ran, action = std::move(action)] {
    action();
    ran.store(true, std::memory_order_release);
  });
  WaitUntil<kWaitBumpAndWait>(
      [&] { return ran.load(std::memory_order_acquire); }, this);
}

uint32_t LightEpoch::TryClaimSlot() {
  for (uint32_t i = 0; i < kDrainListSize; ++i) {
    uint64_t expected = DrainEntry::kFree;
    if (drain_list_[i].epoch.compare_exchange_strong(
            expected, DrainEntry::kLocked, std::memory_order_acq_rel)) {
      return i;
    }
  }
  return kNoSlot;
}

void LightEpoch::ReleaseSlot(uint32_t slot) {
  drain_list_[slot].epoch.store(DrainEntry::kFree, std::memory_order_release);
}

uint64_t LightEpoch::BumpCurrentEpoch(uint32_t slot,
                                      std::function<void()> action) {
  assert(IsProtected());
  // The action becomes runnable once the *prior* epoch (the value before
  // the increment) is safe. seq_cst for the Dekker pattern against
  // Protect (see ComputeNewSafeToReclaimEpoch).
  uint64_t prior = current_epoch_.fetch_add(1, std::memory_order_seq_cst);
  DrainEntry& entry = drain_list_[slot];
  cell_mut(entry.action) = std::move(action);
  if constexpr (obs::kStatsEnabled) {
    entry.armed_ns = obs::SinksQuiet() ? 0 : obs::NowNs();
  }
  entry.epoch.store(prior, std::memory_order_release);
  uint32_t outstanding =
      drain_count_.fetch_add(1, std::memory_order_acq_rel) + 1;
  obs_stats_.bumps.Inc();
  if (obs::kStatsEnabled && entry.armed_ns != 0) {
    obs_stats_.drain_occupancy.Record(outstanding);
  }
  return prior + 1;
}

void LightEpoch::Drain(uint64_t safe_epoch) {
  uint32_t remaining = drain_count_.load(std::memory_order_acquire);
  for (uint32_t i = 0; i < kDrainListSize && remaining > 0; ++i) {
    uint64_t e = drain_list_[i].epoch.load(std::memory_order_acquire);
    if (e <= safe_epoch) {
      // Claim the slot; the CAS guarantees exactly-once execution even if
      // several threads drain concurrently.
      if (drain_list_[i].epoch.compare_exchange_strong(
              e, DrainEntry::kLocked, std::memory_order_acq_rel)) {
        std::function<void()> action = std::move(cell_mut(drain_list_[i].action));
        cell_mut(drain_list_[i].action) = nullptr;
        if (obs::kStatsEnabled && drain_list_[i].armed_ns != 0) {
          obs_stats_.bump_to_drain_ns.Record(obs::NowNs() -
                                             drain_list_[i].armed_ns);
        }
        drain_list_[i].epoch.store(DrainEntry::kFree,
                                   std::memory_order_release);
        remaining = drain_count_.fetch_sub(1, std::memory_order_acq_rel) - 1;
        obs_stats_.actions_run.Inc();
        action();
      }
    }
  }
}

void LightEpoch::SpinWaitForSafety(uint64_t target) {
  assert(IsProtected());
  WaitUntil<kWaitEpochSafety>([&] {
    return SafeToReclaimEpoch() >= target &&
           drain_count_.load(std::memory_order_acquire) == 0;
  }, this);
}

}  // namespace faster
