#ifndef FASTER_OBS_SLOWLOG_H_
#define FASTER_OBS_SLOWLOG_H_

/// Slow-operation log with per-stage attribution (DESIGN.md §12).
///
/// A fixed-capacity concurrent ring of the most recent operations whose
/// latency crossed a settable threshold (Redis SLOWLOG semantics: newest
/// N slow ops, evicting oldest). Each entry carries the op type, key
/// hash, total latency, and a per-stage breakdown:
///
///   hash / resolve / execute          — synchronous batch-pipeline stages
///                                       (amortized per-op for chunks)
///   io_queue / io_exec / io_complete  — the asynchronous pending-I/O hop:
///                                       submit→dequeue on the pool,
///                                       dequeue→completion callback, and
///                                       callback→CompletePending on the
///                                       owner (includes the cross-thread
///                                       hand-off wait — the residual cost
///                                       Lomet & Wang highlight)
///
/// The three I/O stages partition the pending window exactly, so stage
/// sums always reconstruct the reported total. Attribution is harvested
/// from the PR-5 span plumbing: an ambient per-thread SlowOpState set by
/// the op entry points / batch stage-3 loop, captured into the
/// PendingContext when an op goes asynchronous, plus the IoThreadPool's
/// job timestamps surfaced through CurrentIoStage().
///
/// Everything here is always compiled; hot-path call sites go through
/// the Stat* aliases and `kStatsEnabled` guards like the rest of
/// `src/obs`. The ring is a SeqRing (seq_ring.h): concurrent writers and
/// readers are TSan-clean and a snapshot never returns a torn entry.

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "core/thread.h"
#include "obs/seq_ring.h"
#include "obs/stats.h"

namespace faster {
namespace obs {

enum class SlowStage : uint8_t {
  kHash = 0,
  kResolve = 1,
  kExecute = 2,
  kIoQueue = 3,
  kIoExec = 4,
  kIoComplete = 5,
};
inline constexpr uint32_t kNumSlowStages = 6;

inline const char* SlowStageName(SlowStage stage) {
  switch (stage) {
    case SlowStage::kHash: return "hash";
    case SlowStage::kResolve: return "resolve";
    case SlowStage::kExecute: return "execute";
    case SlowStage::kIoQueue: return "io_queue";
    case SlowStage::kIoExec: return "io_exec";
    case SlowStage::kIoComplete: return "io_complete";
  }
  return "?";
}

enum class SlowOpKind : uint8_t {
  kRead = 0,
  kUpsert = 1,
  kRmw = 2,
  kDelete = 3,
};

inline const char* SlowOpKindName(SlowOpKind kind) {
  switch (kind) {
    case SlowOpKind::kRead: return "read";
    case SlowOpKind::kUpsert: return "upsert";
    case SlowOpKind::kRmw: return "rmw";
    case SlowOpKind::kDelete: return "delete";
  }
  return "?";
}

/// The concurrent slow-op ring.
class SlowLog {
 public:
  static constexpr uint32_t kCapacity = 128;
  /// Threshold value meaning "disabled" (the default: zero hot-path cost
  /// beyond one relaxed load per operation in stats builds).
  static constexpr uint64_t kDisabled = UINT64_MAX;

  struct Entry {
    uint64_t id;          // monotone, 0-based since process start
    uint64_t wall_ns;     // CLOCK_REALTIME at record time
    uint64_t key_hash;
    uint64_t total_ns;
    uint64_t stage_ns[kNumSlowStages];
    SlowOpKind kind;
    bool pending;         // crossed the async I/O boundary
    uint32_t tid;
  };
  /// An entry's id is its ring sequence number: stored entries leave
  /// `Entry::id` 0 and readers fill it in.
  using Ring = SeqRing<Entry, kCapacity>;

  void set_threshold_ns(uint64_t ns) {
    threshold_ns_.store(ns, std::memory_order_relaxed);
  }
  uint64_t threshold_ns() const {
    return threshold_ns_.load(std::memory_order_relaxed);
  }
  /// The per-operation hot-path gate.
  bool armed() const { return threshold_ns() != kDisabled; }

  /// Appends an entry if `total_ns` crosses the threshold. Concurrent and
  /// lock-free; an entry whose slot a lapping writer holds is dropped and
  /// counted in Dropped().
  void MaybeRecord(SlowOpKind kind, uint64_t key_hash, uint64_t total_ns,
                   const uint64_t stage_ns[kNumSlowStages], bool pending,
                   uint32_t tid);

  /// SLOWLOG RESET: forgets current entries (ids keep growing).
  void Reset() { ring_.Clear(); }
  /// SLOWLOG LEN: entries currently held.
  uint64_t Len() const { return ring_.End() - ring_.Begin(); }
  /// Entries ever recorded (monotone; next entry id).
  uint64_t TotalRecorded() const { return ring_.End(); }
  /// Entries that crossed the threshold but lost their slot to a
  /// concurrent writer (monotone).
  uint64_t Dropped() const { return ring_.Dropped(); }

  /// Copies current entries, newest first (Redis order). Entries being
  /// overwritten concurrently are skipped, never returned torn.
  std::vector<Entry> Snapshot(uint64_t max_entries = kCapacity) const;

  /// /debug/slowlog body.
  std::string Json() const;

  /// The ring, read raw by the flight recorder.
  const Ring& ring() const { return ring_; }

 private:
  // order: relaxed; the per-op armed()/threshold gate needs no ordering.
  std::atomic<uint64_t> threshold_ns_{kDisabled};
  Ring ring_;
};

/// Global instance used by the store, server, exporter, and flight
/// recorder.
SlowLog& GlobalSlowLog();

/// Ambient per-thread state for the operation currently executing
/// synchronously, written by SlowOpScope / the batch stage-3 loop and
/// captured into the PendingContext if the op goes asynchronous.
struct SlowOpState {
  uint64_t start_ns = 0;    // start of this op's execute segment
  uint64_t hash_ns = 0;     // amortized batch stage-1 share (0 single-op)
  uint64_t resolve_ns = 0;  // amortized batch stage-2 share (0 single-op)
  uint64_t key_hash = 0;
  SlowOpKind kind = SlowOpKind::kRead;
  bool transferred = false;  // a pending context took ownership
};

inline SlowOpState*& CurrentSlowOp() {
  thread_local SlowOpState* current = nullptr;
  return current;
}

/// Slow-op attribution carried by a PendingContext across the async I/O
/// hop. Plain fields: the context moves between threads under the
/// existing completion-queue mutex hand-off. `start_ns == 0` means the
/// op is not tracked (slowlog disarmed at issue time).
struct PendingSlowOp {
  uint64_t start_ns = 0;
  uint64_t key_hash = 0;
  SlowOpKind kind = SlowOpKind::kRead;
  uint64_t hash_ns = 0;
  uint64_t resolve_ns = 0;
  uint64_t execute_ns = 0;
  uint64_t io_queue_ns = 0;
  uint64_t io_exec_ns = 0;
  uint64_t io_complete_ns = 0;
  /// Start of the current wait window on the owner side: issue time, then
  /// overwritten by each I/O completion callback. FinishPending and
  /// re-issues fold `now - callback_ns` into io_complete_ns, so the three
  /// I/O stages partition the whole pending window.
  uint64_t callback_ns = 0;
};

/// Captures the ambient SlowOpState (if any, and if the slowlog is armed)
/// into `out` at the moment an op goes asynchronous; the synchronous
/// scope then skips its own exit-time record.
inline void CaptureSlowOp(PendingSlowOp* out) {
  SlowOpState* current = CurrentSlowOp();
  if (current == nullptr) return;
  uint64_t now = NowNs();
  out->start_ns = current->start_ns;
  out->key_hash = current->key_hash;
  out->kind = current->kind;
  out->hash_ns = current->hash_ns;
  out->resolve_ns = current->resolve_ns;
  out->execute_ns = now - current->start_ns;
  out->callback_ns = now;
  current->transferred = true;
}

/// Records a completed pending op (owner thread, at CompletePending /
/// retry completion). Folds the final wait window into io_complete.
inline void RecordSlowPending(PendingSlowOp* slow, uint64_t now) {
  if (slow->start_ns == 0) return;
  if (slow->callback_ns != 0 && now > slow->callback_ns) {
    slow->io_complete_ns += now - slow->callback_ns;
  }
  uint64_t stages[kNumSlowStages] = {slow->hash_ns,     slow->resolve_ns,
                                     slow->execute_ns,  slow->io_queue_ns,
                                     slow->io_exec_ns,  slow->io_complete_ns};
  uint64_t total = 0;
  for (uint64_t s : stages) total += s;
  GlobalSlowLog().MaybeRecord(slow->kind, slow->key_hash, total,
                              stages, /*pending=*/true, Thread::Id());
  slow->start_ns = 0;
}

/// I/O-stage attribution published by whichever component is about to run
/// a device completion callback on this thread — the IoThreadPool worker
/// loop, the IoQueuePair polling executor, or the io_uring reaper — and
/// read by the store's I/O completion callback running inside it. On the
/// polling paths both fields describe the op as seen by the *polling*
/// thread: queue_ns is submit -> execution pickup (0 under io_uring,
/// where the kernel window is all exec), exec_start_ns anchors the
/// io_exec stage ending when the callback runs.
struct IoStageInfo {
  uint64_t queue_ns = 0;       // submit -> execution pickup
  uint64_t exec_start_ns = 0;  // pickup time; 0 = no device op in flight
};

inline IoStageInfo& CurrentIoStage() {
  thread_local IoStageInfo info;
  return info;
}

/// RAII scope for a single (non-batched) store operation: arms the
/// ambient SlowOpState and records an entry at exit unless the op went
/// asynchronous (transferred) or the slowlog is disarmed.
class SlowOpScope {
 public:
  explicit SlowOpScope(SlowOpKind kind) {
    if (!GlobalSlowLog().armed()) return;
    active_ = true;
    state_.kind = kind;
    state_.start_ns = NowNs();
    saved_ = CurrentSlowOp();
    CurrentSlowOp() = &state_;
  }

  SlowOpScope(const SlowOpScope&) = delete;
  SlowOpScope& operator=(const SlowOpScope&) = delete;

  void set_key_hash(uint64_t key_hash) {
    if (active_) state_.key_hash = key_hash;
  }

  ~SlowOpScope() {
    if (!active_) return;
    CurrentSlowOp() = saved_;
    if (state_.transferred) return;
    uint64_t execute = NowNs() - state_.start_ns;
    uint64_t stages[kNumSlowStages] = {state_.hash_ns, state_.resolve_ns,
                                       execute,        0,
                                       0,              0};
    GlobalSlowLog().MaybeRecord(
        state_.kind, state_.key_hash,
        state_.hash_ns + state_.resolve_ns + execute, stages,
        /*pending=*/false, Thread::Id());
  }

 private:
  bool active_ = false;
  SlowOpState state_;
  SlowOpState* saved_ = nullptr;
};

/// No-op twin for stats-off builds.
class NoopSlowOpScope {
 public:
  explicit NoopSlowOpScope(SlowOpKind) {}
  void set_key_hash(uint64_t) {}
};

#if FASTER_STATS_ENABLED
using StatSlowOpScope = SlowOpScope;
#else
using StatSlowOpScope = NoopSlowOpScope;
#endif

}  // namespace obs
}  // namespace faster

#endif  // FASTER_OBS_SLOWLOG_H_
