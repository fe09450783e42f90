#ifndef FASTER_DEVICE_IO_QUEUE_PAIR_H_
#define FASTER_DEVICE_IO_QUEUE_PAIR_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "core/annotations.h"
#include "core/sync.h"
#include "core/thread.h"
#include "device/device.h"
#include "obs/clock.h"
#include "obs/stats.h"

/// Per-thread I/O submission/completion queues for the completion-polling
/// path (DESIGN.md §13).
///
/// A thread pool would hand every I/O to a pool thread and push its
/// completion back across threads — the stall-and-switch tax Lomet & Wang
/// identify as the dominant residual cost in FASTER-style stores. The
/// polling path has neither hop: each submitting thread owns an
/// `IoQueuePair` (a lock-free SPSC submission ring plus an MPSC completion
/// ring), submissions are a ring push with no wakeup, and the *submitting*
/// thread executes and reaps its own operations when it polls
/// (`IDevice::Poll()`, driven from `FasterKv::CompletePending` and the
/// HybridLog stall loops). Foreign threads may steal a pair's queued work
/// (`PollAll`/`Drain`) so progress never depends on the owner polling
/// again — consumers serialize through a per-pair flag; producers never
/// block.
///
/// The same descriptors feed the io_uring backend (uring_device.h), where
/// the kernel's own SQ/CQ replace the software rings.

namespace faster {

/// One queued device operation (submission-ring descriptor).
struct IoOp {
  enum class Kind : uint8_t { kRead, kWrite };
  Kind kind = Kind::kRead;
  uint64_t offset = 0;
  void* buf = nullptr;  // destination (read) or source (write)
  uint32_t len = 0;
  IoCallback callback = nullptr;
  void* context = nullptr;
  /// Stamped by Submit; the executor runs the op under it (obs::RunIo).
  [[no_unique_address]] obs::StatIoStamp stamp;
};

/// One completed operation (completion-ring record).
struct IoCompletion {
  IoCallback callback = nullptr;
  void* context = nullptr;
  Status status = Status::kOk;
  uint32_t bytes = 0;
  /// The op's stamp, with the executor's pickup time.
  [[no_unique_address]] obs::StatIoStamp stamp;
};

/// Bounded lock-free single-producer/single-consumer ring. The producer is
/// always the pair's owning thread; "single consumer" is enforced outside
/// (IoQueuePair::TryLockConsumer), which lets a foreign thread drain an
/// abandoned queue without the ring itself paying for multi-consumer CAS.
template <typename T, uint32_t kCapacity>
class SpscRing {
  static_assert((kCapacity & (kCapacity - 1)) == 0,
                "ring capacity must be a power of two");

 public:
  /// Producer side. Returns false when the ring is full (backpressure —
  /// the caller executes inline instead of blocking).
  bool TryPush(const T& v) {
    uint64_t t = tail_.load(std::memory_order_relaxed);
    if (t - head_.load(std::memory_order_acquire) >= kCapacity) {
      return false;
    }
    cell_mut(slots_[t & (kCapacity - 1)]) = v;
    tail_.store(t + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side (serialized externally). Returns false when empty.
  bool TryPop(T* out) {
    uint64_t h = head_.load(std::memory_order_relaxed);
    if (h == tail_.load(std::memory_order_acquire)) {
      return false;
    }
    *out = cell_read(slots_[h & (kCapacity - 1)]);
    head_.store(h + 1, std::memory_order_release);
    return true;
  }

  bool Empty() const {
    return head_.load(std::memory_order_acquire) ==
           tail_.load(std::memory_order_acquire);
  }

 private:
  // order: release store in TryPush publishes the slot write; acquire load
  // in TryPop pairs with it. Relaxed self-reads on the producer side.
  alignas(64) Atomic<uint64_t> tail_{0};
  // order: release store in TryPop returns the slot to the producer;
  // acquire load in TryPush pairs with it (slot reuse after consumption).
  alignas(64) Atomic<uint64_t> head_{0};
  /// Non-atomic slot bodies published through the tail_/seq release edges.
  Cell<T> slots_[kCapacity];
};

/// Bounded multi-producer/single-consumer ring (Vyukov-style sequence
/// tags). Producers claim slots with a CAS on the tail and publish each
/// slot independently, so a slow producer never blocks the consumer on
/// slots committed after its claim.
template <typename T, uint32_t kCapacity>
class MpscRing {
  static_assert((kCapacity & (kCapacity - 1)) == 0,
                "ring capacity must be a power of two");

 public:
  MpscRing() {
    for (uint32_t i = 0; i < kCapacity; ++i) {
      slots_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  /// Any thread. Returns false when the ring is full.
  bool TryPush(const T& v) {
    uint64_t pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      Slot& s = slots_[pos & (kCapacity - 1)];
      uint64_t seq = s.seq.load(std::memory_order_acquire);
      int64_t dif = static_cast<int64_t>(seq) - static_cast<int64_t>(pos);
      if (dif == 0) {
        if (tail_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          cell_mut(s.value) = v;
          s.seq.store(pos + 1, std::memory_order_release);
          return true;
        }
      } else if (dif < 0) {
        return false;  // full: an uncommitted wrap-around claim is ahead
      } else {
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
  }

  /// Consumer side (serialized externally). Returns false when empty.
  bool TryPop(T* out) {
    uint64_t pos = head_.load(std::memory_order_relaxed);
    Slot& s = slots_[pos & (kCapacity - 1)];
    uint64_t seq = s.seq.load(std::memory_order_acquire);
    if (static_cast<int64_t>(seq) - static_cast<int64_t>(pos + 1) < 0) {
      return false;  // slot not committed yet
    }
    *out = cell_read(s.value);
    s.seq.store(pos + kCapacity, std::memory_order_release);
    head_.store(pos + 1, std::memory_order_relaxed);
    return true;
  }

  bool Empty() const {
    uint64_t pos = head_.load(std::memory_order_relaxed);
    const Slot& s = slots_[pos & (kCapacity - 1)];
    return static_cast<int64_t>(s.seq.load(std::memory_order_acquire)) -
               static_cast<int64_t>(pos + 1) <
           0;
  }

 private:
  struct Slot {
    // order: release store of pos+1 publishes `value` to the consumer
    // (acquire load in TryPop); release store of pos+kCapacity returns the
    // slot to producers (acquire load in TryPush).
    Atomic<uint64_t> seq{0};
    Cell<T> value{};
  };

  // order: relaxed CAS claims a slot index; publication happens through
  // the claimed slot's `seq` tag, never through the tail itself.
  alignas(64) Atomic<uint64_t> tail_{0};
  // order: relaxed; single consumer at a time (external exclusion flag
  // provides the cross-consumer happens-before).
  alignas(64) Atomic<uint64_t> head_{0};
  Slot slots_[kCapacity];
};

/// One thread's submission/completion queue pair.
class IoQueuePair {
 public:
#ifdef FASTER_MODEL
  // Tiny rings under the model checker: every slot-sequence init is a
  // model step, and 4 entries already reach the full/wrap-around paths
  // within a handful of queued ops (tests/model/model_io_queue_test.cc).
  static constexpr uint32_t kSubmissionEntries = 4;
  static constexpr uint32_t kCompletionEntries = 4;
#else
  static constexpr uint32_t kSubmissionEntries = 256;
  static constexpr uint32_t kCompletionEntries = 512;
#endif

  SpscRing<IoOp, kSubmissionEntries> sq;
  MpscRing<IoCompletion, kCompletionEntries> cq;

  /// Consumer exclusion: the owner polling its own pair and a foreign
  /// drainer stealing abandoned work must not consume concurrently.
  bool TryLockConsumer() {
    bool expected = false;
    return consuming_.compare_exchange_strong(expected, true,
                                              std::memory_order_acq_rel,
                                              std::memory_order_acquire);
  }
  void UnlockConsumer() { consuming_.store(false, std::memory_order_release); }

 private:
  // order: acq_rel CAS takes the consumer role (observing the previous
  // consumer's ring positions; acquire on CAS failure is enough to see
  // who holds it); release store hands it back.
  Atomic<bool> consuming_{false};
};

/// How a polled device executes one operation synchronously. Implemented
/// privately by FileDevice (pread/pwrite loops) and MemoryDevice (segment
/// memcpy); also the inline-fallback executor for the io_uring backend.
class IoOpExecutor {
 public:
  virtual ~IoOpExecutor() = default;
  /// Executes `op` to completion on the calling thread; `*bytes` receives
  /// the bytes transferred.
  virtual Status ExecuteOp(const IoOp& op, uint32_t* bytes) = 0;
};

/// Polling-path metrics ("io.poll_*" family; compiled out unless
/// FASTER_STATS like every obs counter).
struct IoPollStats {
  obs::StatCounter submits;           // ops accepted into a submission ring
  obs::StatCounter poll_calls;        // Poll()/PollAll() invocations
  obs::StatCounter poll_empty;        // polls that found nothing
  obs::StatCounter poll_completions;  // callbacks delivered by polling
  obs::StatCounter sq_full_inline;    // backpressure: executed at submit
  obs::StatCounter cq_full_inline;    // completion delivered sans CQ hop
  obs::StatCounter foreign_execs;     // ops executed by a stealing thread

  void Register(obs::StatRegistry& registry, const std::string& prefix) const {
    registry.Add(prefix + ".poll_submits", &submits);
    registry.Add(prefix + ".poll_calls", &poll_calls);
    registry.Add(prefix + ".poll_empty", &poll_empty);
    registry.Add(prefix + ".poll_completions", &poll_completions);
    registry.Add(prefix + ".poll_sq_full_inline", &sq_full_inline);
    registry.Add(prefix + ".poll_cq_full_inline", &cq_full_inline);
    registry.Add(prefix + ".poll_foreign_execs", &foreign_execs);
  }
};

/// The set of per-thread queue pairs behind one device, plus the polling
/// protocol (see the file comment and DESIGN.md §13 for the memory-order
/// contract walk-through).
class IoQueuePairSet {
 public:
  IoQueuePairSet() = default;
  ~IoQueuePairSet();

  IoQueuePairSet(const IoQueuePairSet&) = delete;
  IoQueuePairSet& operator=(const IoQueuePairSet&) = delete;

  /// Queues `op` on the calling thread's submission ring; stamps the
  /// submit time / ambient trace (stats builds). If the ring is full the
  /// op is executed and completed inline — submission never blocks and
  /// the callback still fires exactly once.
  ///
  /// Submit/Poll/PollAll require an epoch-protected session: the rings
  /// are indexed by Thread::Id() (valid only inside a session), and the
  /// delivered callbacks touch epoch-protected store state
  /// (tools/check_thread_safety.sh enforces this under clang).
  void Submit(IoOp op, IoOpExecutor& exec) FASTER_REQUIRES_EPOCH();

  /// Runs queued submissions and delivers queued completions for the
  /// calling thread's pair. Returns callbacks delivered.
  uint32_t Poll(IoOpExecutor& exec) FASTER_REQUIRES_EPOCH();

  /// Poll(), then steals every other pair's queued work (abandoned
  /// sessions, cross-thread flush waits). Returns callbacks delivered.
  uint32_t PollAll(IoOpExecutor& exec) FASTER_REQUIRES_EPOCH();

  /// Blocks (polling) until every submitted op has completed.
  /// Deliberately NOT epoch-annotated: it runs from device teardown and
  /// checkpoint quiescence points where no session exists and no other
  /// thread can race the rings.
  void Drain(IoOpExecutor& exec);

  /// True when no submitted op is outstanding.
  bool AllIdle() const {
    return in_flight_.load(std::memory_order_acquire) == 0;
  }

  const IoPollStats& stats() const { return stats_; }
  void RegisterStats(obs::StatRegistry& registry,
                     const std::string& prefix) const {
    stats_.Register(registry, prefix);
  }

 private:
  IoQueuePair* PairFor(uint32_t tid, bool create);
  /// Executes a pair's submission ring and delivers its completion ring
  /// under the pair's consumer lock. Returns callbacks delivered.
  uint32_t RunPair(IoQueuePair& pair, IoOpExecutor& exec, bool foreign);
  /// Executes one op and enqueues its completion (or delivers it inline:
  /// submit-side backpressure, or a full completion ring).
  void ExecuteOne(IoQueuePair& pair, const IoOp& op, IoOpExecutor& exec,
                  bool foreign, bool deliver_inline);
  /// Invokes one completion callback under its stamp.
  void Deliver(IoCompletion& c);

  // order: release store publishes a lazily created pair (CAS, acq_rel);
  // acquire loads let pollers observe a fully constructed pair.
  Atomic<IoQueuePair*> pairs_[Thread::kMaxThreads] = {};
  // order: relaxed increment before the ring push (the push's release
  // publishes the op); release decrement after the callback returns pairs
  // with the acquire load in AllIdle — a zero count implies every
  // callback's effects are visible to the drainer.
  Atomic<uint64_t> in_flight_{0};
  mutable IoPollStats stats_;
};

}  // namespace faster

#endif  // FASTER_DEVICE_IO_QUEUE_PAIR_H_
