#ifndef FASTER_CORE_EPOCH_H_
#define FASTER_CORE_EPOCH_H_

#include <atomic>
#include <cassert>
#include <cstdint>
#include <functional>
#include <string>

#include "core/annotations.h"
#include "core/epoch_check.h"
#include "core/sync.h"
#include "core/thread.h"
#include "obs/stats.h"

namespace faster {

/// Epoch protection framework with trigger actions (Sec. 2.3-2.4).
///
/// The system maintains a shared atomic counter `E` (the current epoch).
/// Every participating thread `T` keeps a thread-local copy `E_T` in a
/// shared, cache-line-per-thread epoch table, refreshed at operation
/// boundaries. An epoch `c` is *safe* once every live thread has
/// `E_T > c`; the maximal safe epoch is tracked in `E_s` with the
/// invariant `E_s < E_T <= E` for all `T`.
///
/// Beyond the basic scheme, `BumpCurrentEpoch(action)` increments `E` from
/// `c` to `c+1` and registers `(c, action)` in a drain list; `action` runs
/// exactly once, on whichever thread first observes that `c` became safe.
/// FASTER uses this for page flushing, page eviction, safe-read-only-offset
/// propagation (Sec. 6.2), index-resize phase changes (Appendix B), and
/// memory reclamation.
///
/// Usage per thread (Sec. 2.5): `Protect()` once per session, `Refresh()`
/// periodically (e.g., every 256 operations), `Unprotect()` at session end.
class LightEpoch {
 public:
  /// Entries in the drain list of deferred (epoch, action) pairs. Model
  /// builds shrink the list (like Thread::kMaxThreads) so a full-list
  /// Drain scan is a handful of scheduling points, not 256 — the protocol
  /// is identical, only the capacity differs. Epoch-check builds shrink it
  /// so that the whole suite runs the full-list paths.
#ifdef FASTER_MODEL
  static constexpr uint32_t kDrainListSize = 4;
#elif FASTER_EPOCH_CHECK_ENABLED
  static constexpr uint32_t kDrainListSize = 8;
#else
  static constexpr uint32_t kDrainListSize = 256;
#endif
  /// Local epoch value meaning "thread not protected".
  static constexpr uint64_t kUnprotected = 0;

  LightEpoch();
  ~LightEpoch();

  LightEpoch(const LightEpoch&) = delete;
  LightEpoch& operator=(const LightEpoch&) = delete;

  /// Enter the epoch-protected region: reserve the calling thread's entry
  /// and set its local epoch to the current epoch (paper: `Acquire`).
  /// Returns the thread's current local epoch.
  uint64_t Protect() FASTER_ACQUIRES_EPOCH();

  /// Update the calling thread's local epoch to the current epoch, advance
  /// the safe epoch, and run any ready trigger actions (paper: `Refresh`).
  uint64_t Refresh() FASTER_REQUIRES_EPOCH();

  /// Leave the epoch-protected region (paper: `Release`).
  void Unprotect() FASTER_RELEASES_EPOCH();

  /// True if the calling thread currently holds epoch protection.
  bool IsProtected() const;

  /// Increment the current epoch (no action). Returns the new epoch.
  uint64_t BumpCurrentEpoch();

  /// Increment the current epoch from `c` to `c+1` and register `action`
  /// to run once epoch `c` is safe (paper: `BumpEpoch(Action)`). Requires
  /// protection: when the drain list is full the caller refreshes in-line
  /// until a slot frees, so, like Refresh(), never under an index OpScope.
  uint64_t BumpCurrentEpoch(std::function<void()> action)
      FASTER_REQUIRES_EPOCH();
  /// Claims a free drain-list slot for BumpCurrentEpoch(slot, action), or
  /// returns kNoSlot. Never drains, so a caller under an OpScope can claim
  /// before it commits to a bump, and hand its op back if the list is full.
  static constexpr uint32_t kNoSlot = UINT32_MAX;
  uint32_t TryClaimSlot();
  void ReleaseSlot(uint32_t slot);  // a claim that will not be armed
  uint64_t BumpCurrentEpoch(uint32_t slot, std::function<void()> action)
      FASTER_REQUIRES_EPOCH();

  /// Current epoch `E`.
  uint64_t CurrentEpoch() const {
    return current_epoch_.load(std::memory_order_acquire);
  }

  /// Last computed maximal safe epoch `E_s` (may be stale; recomputed on
  /// refresh and on drain).
  uint64_t SafeToReclaimEpoch() const {
    return safe_to_reclaim_epoch_.load(std::memory_order_acquire);
  }

  /// Recompute `E_s` by scanning the epoch table.
  uint64_t ComputeNewSafeToReclaimEpoch();

  /// Spin (refreshing) until epoch `target` is safe and all drain-list
  /// actions registered up to it have run. Must be called while protected.
  void SpinWaitForSafety(uint64_t target) FASTER_REQUIRES_EPOCH();

  /// Count of the calling thread's Protect()/Refresh() transitions. A
  /// refresh (or re-protect) is the only way this thread's view of the
  /// store can be invalidated: trigger actions that migrate the index or
  /// recycle log frames run only after an epoch bump becomes safe, which
  /// requires every protected thread — including this one — to move its
  /// local epoch forward. While the serial is unchanged, pointers and
  /// region markers this thread observed remain valid.
  uint64_t ProtectSerial() const {
    return table_[Thread::Id()].protect_serial;
  }

  /// The calling thread's count of held index OpScopes, kept by OpScope
  /// in epoch-check builds only. Refresh() verifies it is zero: a trigger
  /// action the refresh runs (a read-cache eviction's index updates) may
  /// wait for a chunk's pins to drain, this thread's pin among them.
  uint32_t& HeldOpScopes() { return table_[Thread::Id()].held_op_scopes; }

  /// Raw epoch-table read for diagnostics (the flight recorder dumps the
  /// whole table at crash time): thread `tid`'s published local epoch,
  /// kUnprotected (0) when the slot holds no protected thread. Relaxed —
  /// a crash-time snapshot needs no ordering, and the call is
  /// async-signal-safe (a single lock-free load).
  uint64_t LocalEpochOf(uint32_t tid) const {
    return table_[tid].local_epoch.load(std::memory_order_relaxed);
  }

  /// Snapshot of the calling thread's refresh serial, bracketing a batch
  /// of operations under one protection scope (the batched pipeline's
  /// amortized epoch bookkeeping). `interrupted()` turns true iff the
  /// thread refreshed since construction — e.g. a page rollover inside the
  /// batch — after which any state resolved before the snapshot is stale
  /// and per-op fallback paths must re-resolve from scratch.
  class BatchScope {
   public:
    explicit BatchScope(const LightEpoch& epoch)
        : epoch_{epoch}, serial_{epoch.ProtectSerial()} {}
    BatchScope(const BatchScope&) = delete;
    BatchScope& operator=(const BatchScope&) = delete;

    bool interrupted() const { return epoch_.ProtectSerial() != serial_; }

   private:
    const LightEpoch& epoch_;
    uint64_t serial_;
  };

  /// Number of drain-list actions currently outstanding (for tests).
  uint32_t NumOutstandingActions() const {
    return drain_count_.load(std::memory_order_acquire);
  }

  /// Observability (compiled out unless FASTER_STATS): drain-list pressure
  /// and the latency from arming a trigger action to running it.
  struct ObsStats {
    obs::StatCounter bumps;            // BumpCurrentEpoch(action) calls
    obs::StatCounter actions_run;      // trigger actions executed
    obs::StatHistogram drain_occupancy;    // outstanding actions at arm time
    obs::StatHistogram bump_to_drain_ns;   // arm -> execution latency
  };
  const ObsStats& obs_stats() const { return obs_stats_; }

  /// Registers this epoch's metrics under `prefix.` names.
  void RegisterStats(obs::Registry& registry,
                     const std::string& prefix) const {
    registry.Add(prefix + ".bumps", &obs_stats_.bumps);
    registry.Add(prefix + ".actions_run", &obs_stats_.actions_run);
    registry.Add(prefix + ".drain_occupancy", &obs_stats_.drain_occupancy);
    registry.Add(prefix + ".bump_to_drain_ns", &obs_stats_.bump_to_drain_ns);
  }

 private:
  /// One cache line per thread (avoids false sharing on refresh).
  struct alignas(64) Entry {
    // order: seq_cst store on Protect/Refresh and seq_cst loads in the
    // safety scan — publish-then-recheck is a Dekker pattern with the
    // epoch bump, so the publish, Protect's E re-read, the bump, and the
    // scan must share the single total order (model-checked:
    // tests/model/model_epoch_test.cc; DESIGN.md §5, §14); release store
    // on Unprotect; relaxed load in IsProtected (owner thread observing
    // its own store) and in the LocalEpochOf crash-time diagnostic
    // snapshot.
    Atomic<uint64_t> local_epoch{kUnprotected};
    /// Written and read only by the owning thread (see ProtectSerial), so
    /// a plain field suffices.
    uint64_t protect_serial{0};
    /// HeldOpScopes(); owning thread only.
    uint32_t held_op_scopes{0};
#ifndef FASTER_MODEL
    uint8_t padding[44];
#endif
  };
#ifndef FASTER_MODEL
  static_assert(sizeof(Entry) == 64);
#endif

  /// A deferred action. `epoch` doubles as the slot's state machine:
  /// kFree -> kLocked (claimed, being armed) -> <epoch value> -> kLocked
  /// (being drained) -> kFree, or a released claim back to kFree. CAS on
  /// `epoch` guarantees exactly-once execution.
  struct DrainEntry {
    static constexpr uint64_t kFree = UINT64_MAX;
    static constexpr uint64_t kLocked = UINT64_MAX - 1;
    // order: acq_rel CAS claims the slot for arming or draining
    // (exactly-once); release store publishes the armed action (or frees
    // the slot); acquire load pairs with it before the drainer reads it.
    Atomic<uint64_t> epoch{kFree};
    /// Non-atomic payload published through the `epoch` release store;
    /// Cell<> makes that publication edge race-checkable under the model.
    Cell<std::function<void()>> action;
    /// Stats only: NowNs() when the action was armed. Written while the
    /// slot is held kLocked by the arming thread and read while held
    /// kLocked by the draining thread, so a plain field is race-free.
    uint64_t armed_ns = 0;
  };

  /// Try to run every drain-list action whose epoch is now safe.
  void Drain(uint64_t safe_epoch);

  // order: seq_cst fetch_add on bump (the W(E) half of the Dekker pattern
  // with Protect's publish-then-recheck; its release half also publishes
  // the drain-list entry armed just before it); acquire loads on
  // refresh/scan; seq_cst re-read in Protect's publish-then-recheck loop
  // (see DESIGN.md §5, §14).
  alignas(64) Atomic<uint64_t> current_epoch_;
  // order: acquire loads; acq_rel CAS for the monotonic advance.
  alignas(64) Atomic<uint64_t> safe_to_reclaim_epoch_;
  Entry table_[Thread::kMaxThreads];
  DrainEntry drain_list_[kDrainListSize];
  // order: acq_rel fetch_add/fetch_sub bracketing arm/drain; acquire loads
  // deciding whether a drain pass is needed.
  Atomic<uint32_t> drain_count_{0};
  mutable ObsStats obs_stats_;
};

/// Re-establishes the epoch capability inside lambdas and callbacks that
/// the epoch protocol guarantees run on protected threads (trigger actions
/// drain only from Refresh/BumpCurrentEpoch/SpinWaitForSafety, all of
/// which require protection). The annotation informs the static analysis;
/// the assert keeps the claim honest at run time.
inline void AssertEpochProtected(const LightEpoch& epoch)
    FASTER_ASSERTS_EPOCH() {
  assert(epoch.IsProtected());
  (void)epoch;
}

}  // namespace faster

#endif  // FASTER_CORE_EPOCH_H_
