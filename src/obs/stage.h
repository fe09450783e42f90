#ifndef FASTER_OBS_STAGE_H_
#define FASTER_OBS_STAGE_H_

#include <atomic>
#include <cstdint>

#include "obs/stats.h"

/// The one stage vocabulary (DESIGN.md §12.2 "Stage clock"). The slowlog
/// partitions an op's latency over the first kNumOpStages stages, PERF
/// attributes counters to every stage, and a span record names either a
/// stage or a root kind (span.h).

namespace faster {
namespace obs {

enum class Stage : uint8_t {
  kHash = 0,        // batch stage 1: hash + bucket prefetch
  kExecute = 1,     // the op body (batch stage 2, or a whole single op)
  kIoQueue = 2,     // went pending -> an executor picked the I/O up
  kIoExec = 3,      // pickup -> the completion callback
  kIoComplete = 4,  // callback -> the owner finished (or re-issued) it
  kCkptIndex = 5,   // checkpoint: index write
  kCkptFlush = 6,   // checkpoint: log flush
  kIoPoll = 7,      // one completion-polling sweep
  kNetParse = 8,    // RESP frame parsing within a server turn
  kNetFlush = 9,    // reply rendering + socket writes within a turn
};
inline constexpr uint32_t kNumStages = 10;
/// The stages an op's clock partitions its latency into (the slowlog's).
inline constexpr uint32_t kNumOpStages = 5;

inline const char* StageName(Stage stage) {
  static constexpr const char* kNames[kNumStages] = {
      "hash",       "execute",    "io_queue",   "io_exec",
      "io_complete", "ckpt_index", "ckpt_flush", "io_poll",
      "net_parse",  "net_flush"};
  auto i = static_cast<uint32_t>(stage);
  return i < kNumStages ? kNames[i] : "?";
}

/// The store's op kinds (what a slowlog entry and an op's root span name).
/// kCompact, compaction's conditional copy, runs on an untimed clock, so
/// no slowlog entry or span names it.
enum class SlowOpKind : uint8_t {
  kRead = 0,
  kUpsert = 1,
  kRmw = 2,
  kDelete = 3,
  kCompact = 4,
};

inline const char* SlowOpKindName(SlowOpKind kind) {
  static constexpr const char* kNames[] = {"read", "upsert", "rmw", "delete"};
  auto i = static_cast<uint32_t>(kind);
  return i < 4 ? kNames[i] : "?";
}

/// The sinks' settings in the one word an op's clock loads as it starts
/// (clock.h): a change count in the low 30 bits, so a thread that cached
/// the word (ThreadTrace, span.h) sees any change; whether the global
/// slowlog and perf are armed; and the span sampling period N in the high
/// 32 bits (1-in-N roots start a trace; 0, the default: none). A word
/// below kSinkSlowLog arms nothing: SinksQuiet.
inline constexpr uint64_t kSinkChangeMask = (uint64_t{1} << 30) - 1;
inline constexpr uint64_t kSinkSlowLog = uint64_t{1} << 30;
inline constexpr uint64_t kSinkPerf = uint64_t{1} << 31;
inline constexpr uint32_t kSinkSampleShift = 32;

inline std::atomic<uint64_t>& SinkWord() {
  // order: relaxed load/CAS — settings; what a sink records is published
  // by its own ring, not through this word.
  static std::atomic<uint64_t> word{0};
  return word;
}

/// True when no sink is armed and no span is sampled: an op started now
/// records nothing beyond its exact counts. One compare of the word; a
/// constant without stats (kStatsEnabled), whose build records nothing.
[[gnu::always_inline]] inline bool SinksQuiet() {
  return !kStatsEnabled ||
         SinkWord().load(std::memory_order_relaxed) < kSinkSlowLog;
}

/// Sets the sink word's `mask` bits to `bits`, counting a change.
inline void SetSinks(uint64_t mask, uint64_t bits) {
  std::atomic<uint64_t>& word = SinkWord();
  uint64_t old = word.load(std::memory_order_relaxed);
  uint64_t next;
  do {
    next = (old & ~(mask | kSinkChangeMask)) | bits |
           ((old + 1) & kSinkChangeMask);
  } while (!word.compare_exchange_weak(old, next, std::memory_order_relaxed));
}

}  // namespace obs
}  // namespace faster

#endif  // FASTER_OBS_STAGE_H_
