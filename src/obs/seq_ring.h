#ifndef FASTER_OBS_SEQ_RING_H_
#define FASTER_OBS_SEQ_RING_H_

/// The one ring primitive of `src/obs` (DESIGN.md §5, "SeqRing protocol").
///
/// `SeqRing<T, N>` keeps the newest N records of a trivially copyable `T`.
/// Every record gets a sequence number; record `seq` lives in slot
/// `seq % N` whose tag reads `seq + 1` once it is committed. Each slot is
/// a seqlock over `T`'s 8-byte words:
///
///   Push: relaxed fetch_add mints `seq`; an acquire CAS swings the slot's
///         tag to kBusy (a slot already busy, or holding a newer record,
///         drops this one and counts it); release stores write the words;
///         a release store of `seq + 1` commits them.
///   Read: acquire load of the tag (must be `seq + 1`), acquire loads of
///         the words, relaxed re-check of the tag. A word written by a
///         lapping writer carries that writer's kBusy claim with it (the
///         word store is release, the load acquire), so the re-check sees
///         the tag moved and the torn copy is rejected.
///
/// Read never blocks, allocates or locks, so the same call serves
/// snapshots and the async-signal-safe crash dump. The atomics are
/// `faster::Atomic` (core/sync.h): the header compiles under FASTER_MODEL
/// and tests/model/model_seq_ring_test.cc checks the protocol
/// bounded-exhaustively. The constructor is constexpr, so a static ring is
/// constant-initialized: zero BSS that nothing touches until first use.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

#include "core/sync.h"
#include "core/thread.h"

namespace faster {
namespace obs {

template <typename T, uint32_t N>
class alignas(64) SeqRing {
  static_assert(std::is_trivially_copyable_v<T>, "records are copied raw");
  static_assert(sizeof(T) % sizeof(uint64_t) == 0,
                "a slot is sizeof(T) plus one tag: no padding words");
  static_assert(N > 0);

 public:
  constexpr SeqRing() = default;
  SeqRing(const SeqRing&) = delete;
  SeqRing& operator=(const SeqRing&) = delete;

  /// Appends `rec` and returns the sequence number minted for it. Lock-free
  /// for any number of writers; a record whose slot a lapping writer holds
  /// is dropped and counted in Dropped().
  uint64_t Push(const T& rec) {
    uint64_t seq = next_.fetch_add(1, std::memory_order_relaxed);
    Slot& slot = slots_[seq % N];
    uint64_t tag = slot.tag.load(std::memory_order_relaxed);
    if (tag > seq ||
        !slot.tag.compare_exchange_strong(tag, kBusy,
                                          std::memory_order_acquire,
                                          std::memory_order_relaxed)) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return seq;
    }
    uint64_t words[kWords];
    std::memcpy(words, &rec, sizeof(T));
    for (uint32_t i = 0; i < kWords; ++i) {
      slot.words[i].store(words[i], std::memory_order_release);
    }
    slot.tag.store(seq + 1, std::memory_order_release);
    return seq;
  }

  /// Copies record `seq` into `*out` if it is committed and was not
  /// overwritten during the copy. Async-signal-safe.
  bool Read(uint64_t seq, T* out) const {
    const Slot& slot = slots_[seq % N];
    if (slot.tag.load(std::memory_order_acquire) != seq + 1) return false;
    uint64_t words[kWords];
    for (uint32_t i = 0; i < kWords; ++i) {
      words[i] = slot.words[i].load(std::memory_order_acquire);
    }
    if (slot.tag.load(std::memory_order_relaxed) != seq + 1) return false;
    std::memcpy(out, words, sizeof(T));
    return true;
  }

  /// Next sequence number (records ever pushed, dropped ones included).
  uint64_t End() const { return next_.load(std::memory_order_relaxed); }
  /// First sequence number still visible: the newest N, above the floor.
  uint64_t Begin() const {
    uint64_t end = End();
    uint64_t lo = end > N ? end - N : 0;
    return std::max(lo, floor_.load(std::memory_order_relaxed));
  }
  /// Hides every record pushed so far (sequence numbers keep growing).
  void Clear() { floor_.store(End(), std::memory_order_relaxed); }
  /// Records that lost their slot to a lapping writer.
  uint64_t Dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Calls `f(seq, rec)` oldest first for each readable record among the
  /// newest `max` visible ones. Async-signal-safe if `f` is.
  template <typename F>
  void ForEach(uint64_t max, F&& f) const {
    uint64_t end = End();
    uint64_t begin = Begin();
    if (end - begin > max) begin = end - max;
    T rec{};
    for (uint64_t seq = begin; seq < end; ++seq) {
      if (Read(seq, &rec)) f(seq, rec);
    }
  }

 private:
  static constexpr uint32_t kWords = sizeof(T) / sizeof(uint64_t);
  /// Tag of a slot a writer is filling.
  static constexpr uint64_t kBusy = UINT64_MAX;

  struct Slot {
    // 0 empty, seq+1 committed, kBusy while a writer fills the words.
    // order: acquire CAS claims the slot after its previous tenant's
    // stores; release store of seq+1 publishes the words; Read's acquire
    // load pairs with it. relaxed: the writer's pre-check, the CAS failure
    // path and Read's re-check (the words' acquire loads order it).
    Atomic<uint64_t> tag{0};
    // order: release stores, each ordering the slot's kBusy claim before
    // it; acquire loads, so a reader that sees a lapping writer's word
    // also sees the tag it moved. Published by `tag`.
    Atomic<uint64_t> words[kWords] = {};
  };

  // order: relaxed fetch_add mints sequence numbers; slot contents are
  // published by each slot's tag, not by this counter.
  Atomic<uint64_t> next_{0};
  // order: relaxed; Clear lazily hides records below the floor.
  Atomic<uint64_t> floor_{0};
  // order: relaxed; a monotone statistic.
  Atomic<uint64_t> dropped_{0};
  Slot slots_[N];
};

/// A per-thread array of SeqRings: each thread pushes into its own ring,
/// so writers never share a sequence counter or a cache line.
template <typename T, uint32_t N>
class ThreadRings {
 public:
  using Ring = SeqRing<T, N>;

  ThreadRings() : rings_{new Ring[Thread::kMaxThreads]} {}

  Ring& operator[](uint32_t tid) { return rings_[tid]; }
  const Ring& operator[](uint32_t tid) const { return rings_[tid]; }

  /// Every readable record of every thread, stably sorted by `key`.
  std::vector<T> Snapshot(uint64_t T::*key) const {
    std::vector<T> out;
    for (uint32_t t = 0; t < Thread::kMaxThreads; ++t) {
      rings_[t].ForEach(N, [&out](uint64_t, const T& r) { out.push_back(r); });
    }
    std::stable_sort(out.begin(), out.end(),
                     [key](const T& a, const T& b) { return a.*key < b.*key; });
    return out;
  }

 private:
  std::unique_ptr<Ring[]> rings_;
};

}  // namespace obs
}  // namespace faster

#endif  // FASTER_OBS_SEQ_RING_H_
