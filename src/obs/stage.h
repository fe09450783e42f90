#ifndef FASTER_OBS_STAGE_H_
#define FASTER_OBS_STAGE_H_

#include <atomic>
#include <cstdint>

/// The one stage vocabulary (DESIGN.md §12.2 "Stage clock"). The slowlog
/// partitions an op's latency over the first kNumOpStages stages, PERF
/// attributes counters to every stage, and a span record names either a
/// stage or a root kind (span.h).

namespace faster {
namespace obs {

enum class Stage : uint8_t {
  kHash = 0,        // batch stage 1: hash + bucket prefetch
  kResolve = 1,     // batch stage 2: stable resolve + record prefetch
  kExecute = 2,     // the op body (batch stage 3, or a whole single op)
  kIoQueue = 3,     // went pending -> an executor picked the I/O up
  kIoExec = 4,      // pickup -> the completion callback
  kIoComplete = 5,  // callback -> the owner finished (or re-issued) it
  kCkptIndex = 6,   // checkpoint: index write
  kCkptFlush = 7,   // checkpoint: log flush
  kIoPoll = 8,      // one completion-polling sweep
  kNetParse = 9,    // RESP frame parsing within a server turn
  kNetFlush = 10,   // reply rendering + socket writes within a turn
};
inline constexpr uint32_t kNumStages = 11;
/// The stages an op's clock partitions its latency into (the slowlog's).
inline constexpr uint32_t kNumOpStages = 6;

inline const char* StageName(Stage stage) {
  static constexpr const char* kNames[kNumStages] = {
      "hash",       "resolve",    "execute",    "io_queue",
      "io_exec",    "io_complete", "ckpt_index", "ckpt_flush",
      "io_poll",    "net_parse",  "net_flush"};
  auto i = static_cast<uint32_t>(stage);
  return i < kNumStages ? kNames[i] : "?";
}

/// The store's op kinds (what a slowlog entry and an op's root span name).
enum class SlowOpKind : uint8_t {
  kRead = 0,
  kUpsert = 1,
  kRmw = 2,
  kDelete = 3,
};

inline const char* SlowOpKindName(SlowOpKind kind) {
  static constexpr const char* kNames[] = {"read", "upsert", "rmw", "delete"};
  auto i = static_cast<uint32_t>(kind);
  return i < 4 ? kNames[i] : "?";
}

/// The sinks' settings in the one word an op's clock loads as it starts
/// (clock.h): the span sampling period N in the low 32 bits (1-in-N roots
/// start a trace; 0: none), whether the global slowlog and perf are armed,
/// and above those a change count, so a thread that cached the word
/// (ThreadTrace, span.h) sees any change.
inline constexpr uint64_t kSinkSlowLog = uint64_t{1} << 32;
inline constexpr uint64_t kSinkPerf = uint64_t{1} << 33;
inline constexpr uint64_t kSinkChange = uint64_t{1} << 34;

inline std::atomic<uint64_t>& SinkWord() {
  // order: relaxed load/CAS — settings; what a sink records is published
  // by its own ring, not through this word.
  static std::atomic<uint64_t> word{kSinkChange | 64};
  return word;
}

/// Sets the sink word's `mask` bits to `bits`, counting a change.
inline void SetSinks(uint64_t mask, uint64_t bits) {
  std::atomic<uint64_t>& word = SinkWord();
  uint64_t old = word.load(std::memory_order_relaxed);
  while (!word.compare_exchange_weak(old, ((old + kSinkChange) & ~mask) | bits,
                                     std::memory_order_relaxed)) {
  }
}

}  // namespace obs
}  // namespace faster

#endif  // FASTER_OBS_STAGE_H_
