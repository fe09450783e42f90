#ifndef FASTER_CORE_THREAD_H_
#define FASTER_CORE_THREAD_H_

#include <atomic>
#include <cstdint>

namespace faster {

/// Process-wide registry of small, dense thread ids.
///
/// The epoch table (Sec. 2.3) and the per-thread pending queues need an
/// index in a fixed-size array, one cache line per thread. `Thread::Id()`
/// lazily assigns the calling thread the lowest free slot and releases it
/// when the thread exits, so ids stay dense even as worker threads come
/// and go.
class Thread {
 public:
  /// Maximum number of simultaneously live threads using FASTER. Model
  /// builds (FASTER_MODEL) substitute the checker's coroutine ids for real
  /// thread ids and shrink the table to the model's thread cap, so
  /// all-pairs scans (epoch table, PollAll) stay proportionate to the
  /// handful of model threads an exploration actually spawns.
#ifdef FASTER_MODEL
  static constexpr uint32_t kMaxThreads = 8;
#else
  static constexpr uint32_t kMaxThreads = 128;
#endif
  static constexpr uint32_t kInvalidId = UINT32_MAX;

  /// Dense id of the calling thread, assigned on first use. Inline: every
  /// op looks its thread slot up.
#ifdef FASTER_MODEL
  static uint32_t Id();
#else
  static uint32_t Id() {
    uint32_t id = id_;
    return id != kInvalidId ? id : Register();
  }
#endif

  /// Number of ids ever handed out (high-water mark); used by tests.
  static uint32_t HighWaterMark();

  /// Releases a slot (called automatically at thread exit).
  static void Release(uint32_t id);

 private:
  static uint32_t Acquire();
#ifndef FASTER_MODEL
  /// Assigns the calling thread its id on first use. Cold: op bodies keep
  /// only the branch to it.
  [[gnu::cold]] static uint32_t Register();
  // The calling thread's id: trivially destructible, so its reads need no
  // TLS wrapper call; Register arranges the release at thread exit.
  static inline thread_local uint32_t id_ = kInvalidId;
#endif

  // order: acq_rel CAS claims a slot in Acquire; release store frees it in
  // Release (orders the exiting thread's last epoch-table writes before
  // the slot can be reused).
  static std::atomic<bool> in_use_[kMaxThreads];
  // order: relaxed CAS/load on the monotone high-water advance (counts
  // only; no data published through it); acquire load in HighWaterMark
  // pairs with slot claims for epoch-table scans.
  static std::atomic<uint32_t> high_water_;
};

}  // namespace faster

#endif  // FASTER_CORE_THREAD_H_
