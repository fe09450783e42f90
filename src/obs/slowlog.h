#ifndef FASTER_OBS_SLOWLOG_H_
#define FASTER_OBS_SLOWLOG_H_

/// Slow-operation log with per-stage attribution (DESIGN.md §12).
///
/// A fixed-capacity concurrent ring of the most recent operations whose
/// latency crossed a settable threshold (Redis SLOWLOG semantics: newest
/// N slow ops, evicting oldest). Each entry carries the op type, key
/// hash, total latency, and its breakdown over the first kNumOpStages
/// stages (stage.h): hash / execute, then the pending-I/O hop
/// io_queue / io_exec / io_complete. Entries come from obs::OpClock
/// (clock.h), whose stages partition the op's latency exactly, so stage
/// sums always reconstruct the reported total.
///
/// Everything here is always compiled; the store reaches it only through
/// the clock, which compiles out without FASTER_STATS. The ring is a
/// SeqRing (seq_ring.h): concurrent writers and readers are TSan-clean
/// and a snapshot never returns a torn entry.

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/seq_ring.h"
#include "obs/stage.h"

namespace faster {
namespace obs {

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
    uint64_t stage_ns[kNumOpStages];
    SlowOpKind kind;
    bool pending;         // crossed the async I/O boundary
    uint32_t tid;
  };
  /// An entry's id is its ring sequence number: stored entries leave
  /// `Entry::id` 0 and readers fill it in.
  using Ring = SeqRing<Entry, kCapacity>;

  /// Setting the global slowlog's threshold arms or disarms it for ops
  /// (SinkWord).
  void set_threshold_ns(uint64_t ns);
  uint64_t threshold_ns() const {
    return threshold_ns_.load(std::memory_order_relaxed);
  }
  /// The per-operation hot-path gate.
  bool armed() const { return threshold_ns() != kDisabled; }

  /// Appends an entry if `total_ns` crosses the threshold. Concurrent and
  /// lock-free; an entry whose slot a lapping writer holds is dropped and
  /// counted in Dropped().
  void MaybeRecord(SlowOpKind kind, uint64_t key_hash, uint64_t total_ns,
                   const uint64_t stage_ns[kNumOpStages], bool pending,
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

}  // namespace obs
}  // namespace faster

#endif  // FASTER_OBS_SLOWLOG_H_
