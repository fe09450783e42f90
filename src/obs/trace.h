#ifndef FASTER_OBS_TRACE_H_
#define FASTER_OBS_TRACE_H_

#include <cstdint>
#include <vector>

#include "obs/seq_ring.h"
#include "obs/stats.h"

namespace faster {
namespace obs {

/// Event kinds emitted by the store (kept small: one record is 16 bytes).
enum class Ev : uint16_t {
  kNone = 0,
  kCheckpointBegin,    // arg = 0
  kCheckpointEnd,      // arg = 0 ok / 1 error
  kGrowBegin,          // arg = old table size (log2)
  kGrowEnd,            // arg = new table size (log2)
};

inline const char* EvName(Ev e) {
  switch (e) {
    case Ev::kNone: return "none";
    case Ev::kCheckpointBegin: return "checkpoint_begin";
    case Ev::kCheckpointEnd: return "checkpoint_end";
    case Ev::kGrowBegin: return "grow_begin";
    case Ev::kGrowEnd: return "grow_end";
  }
  return "unknown";
}

struct TraceEvent {
  uint64_t ns;
  uint32_t arg;
  uint16_t id;
  uint16_t tid;
};

/// Per-thread event-trace ring: one SeqRing per thread (seq_ring.h), so a
/// snapshot never returns a torn event.
class EventRing {
 public:
  /// Events retained per thread.
  static constexpr uint32_t kEventsPerThread = 256;
  using Rings = ThreadRings<TraceEvent, kEventsPerThread>;

  void Emit(Ev id, uint32_t arg = 0) {
    uint32_t tid = Thread::Id();
    rings_[tid].Push(TraceEvent{NowNs(), arg, static_cast<uint16_t>(id),
                                static_cast<uint16_t>(tid)});
  }

  /// The per-thread rings, read raw by the flight recorder.
  const Rings& rings() const { return rings_; }

  /// Copies out every recorded event (all threads), sorted by timestamp.
  std::vector<TraceEvent> Snapshot() const {
    return rings_.Snapshot(&TraceEvent::ns);
  }

 private:
  Rings rings_;
};

class NoopEventRing {
 public:
  void Emit(Ev, uint32_t = 0) {}
  std::vector<TraceEvent> Snapshot() const { return {}; }
};

#if FASTER_STATS_ENABLED
using StatEventRing = EventRing;
#else
using StatEventRing = NoopEventRing;
#endif

}  // namespace obs
}  // namespace faster

#endif  // FASTER_OBS_TRACE_H_
