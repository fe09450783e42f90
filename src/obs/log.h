#ifndef FASTER_OBS_LOG_H_
#define FASTER_OBS_LOG_H_

/// Structured, leveled, asynchronous logging (DESIGN.md §12).
///
/// Producer side: each thread appends fully formatted records to its own
/// SeqRing (seq_ring.h).
/// A background drainer thread collects committed entries every few
/// milliseconds, sorts them by timestamp, and writes them to the
/// configured sinks (stderr and/or a file) as `key=value` text or JSON
/// lines. Producers never block and never take a lock: when a ring is
/// full (the drainer has not caught up) the newest record is dropped and
/// counted.
///
/// Like the rest of `src/obs`, the real types are always compiled; call
/// sites use the `StatLog*` aliases/helpers which collapse to no-ops
/// unless the build defines `FASTER_STATS` (see stats.h).

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/thread.h"
#include "obs/seq_ring.h"
#include "obs/stats.h"

namespace faster {
namespace obs {

enum class LogLevel : uint8_t {
  kDebug = 0,
  kInfo = 1,
  kWarn = 2,
  kError = 3,
  kOff = 4,
};

inline const char* LogLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "debug";
    case LogLevel::kInfo: return "info";
    case LogLevel::kWarn: return "warn";
    case LogLevel::kError: return "error";
    case LogLevel::kOff: return "off";
  }
  return "?";
}

/// Parses "debug"/"info"/"warn"/"error"/"off". Returns false on garbage.
bool ParseLogLevel(const char* s, LogLevel* out);

/// One typed field of a structured record. Constructed (cheaply) at the
/// call site; only rendered when the record's level is enabled.
class LogField {
 public:
  LogField(const char* key, uint64_t v) : key_{key}, type_{kU64} { u64_ = v; }
  LogField(const char* key, int64_t v) : key_{key}, type_{kI64} { i64_ = v; }
  LogField(const char* key, int v)
      : key_{key}, type_{kI64} { i64_ = v; }
  LogField(const char* key, unsigned v)
      : key_{key}, type_{kU64} { u64_ = v; }
  LogField(const char* key, double v) : key_{key}, type_{kF64} { f64_ = v; }
  LogField(const char* key, bool v) : key_{key}, type_{kBool} { u64_ = v; }
  LogField(const char* key, const char* v)
      : key_{key}, type_{kStr} { str_ = (v != nullptr) ? v : "(null)"; }

  /// Appends " key=value" to buf; returns bytes appended (clamped).
  size_t Render(char* buf, size_t cap) const;

 private:
  enum Type : uint8_t { kU64, kI64, kF64, kBool, kStr };
  const char* key_;
  Type type_;
  union {
    uint64_t u64_;
    int64_t i64_;
    double f64_;
    const char* str_;
  };
};

/// The per-thread ring store behind the logger: one SeqRing of formatted
/// records per thread plus the drainer's cursor. Also read raw by the
/// flight recorder at crash time (tail of recent records).
class LogRing {
 public:
  static constexpr uint32_t kEntriesPerThread = 64;
  static constexpr uint32_t kTextSize = 152;

  /// One formatted record.
  struct Record {
    uint64_t wall_ns;   // CLOCK_REALTIME at the call site
    uint32_t tid;
    uint8_t level;      // LogLevel
    uint16_t len;       // bytes of text[] used
    char text[kTextSize];  // "component: message k=v k=v", not terminated
  };
  using Ring = SeqRing<Record, kEntriesPerThread>;

  struct Shard {
    Ring ring;
    // order: relaxed; the drainer's cursor, read by the producer only for
    // the drop-newest-when-full policy. A record is copied out by a
    // successful Ring::Read before the cursor passes it, and the ring's
    // tags reject any copy a reusing producer could tear.
    std::atomic<uint64_t> drained{0};
    // order: relaxed; drop statistic only.
    std::atomic<uint64_t> dropped{0};
  };

  LogRing() : shards_{new Shard[Thread::kMaxThreads]} {}

  Shard& shard(uint32_t tid) { return shards_[tid]; }
  const Shard& shard(uint32_t tid) const { return shards_[tid]; }
  static constexpr uint32_t NumShards() { return Thread::kMaxThreads; }

 private:
  std::unique_ptr<Shard[]> shards_;
};

/// The process-wide asynchronous logger.
class Logger {
 public:
  /// Global instance. First use reads FASTER_LOG_LEVEL (debug/info/warn/
  /// error/off; default warn), FASTER_LOG_FILE, and FASTER_LOG_JSON=1
  /// from the environment.
  static Logger& Global();

  Logger();
  ~Logger();
  Logger(const Logger&) = delete;
  Logger& operator=(const Logger&) = delete;

  void set_level(LogLevel level) {
    level_.store(static_cast<uint8_t>(level), std::memory_order_relaxed);
  }
  LogLevel level() const {
    return static_cast<LogLevel>(level_.load(std::memory_order_relaxed));
  }
  /// The hot-path gate: one relaxed load + compare.
  bool Enabled(LogLevel level) const {
    return static_cast<uint8_t>(level) >=
           level_.load(std::memory_order_relaxed);
  }

  /// Opens (appends to) a log file sink. Returns false on failure.
  bool OpenFile(const std::string& path);
  /// Emit JSON lines instead of key=value text.
  void set_json(bool json) { json_.store(json, std::memory_order_relaxed); }
  /// Enable/disable the stderr sink (on by default).
  void set_stderr(bool enabled) {
    stderr_.store(enabled, std::memory_order_relaxed);
  }

  /// Core producer call: formats into the calling thread's ring slot.
  /// Never blocks; drops (and counts) when the ring is full.
  void Log(LogLevel level, const char* component, const char* message,
           const LogField* fields, size_t num_fields);

  template <typename... Fields>
  void Write(LogLevel level, const char* component, const char* message,
             const Fields&... fields) {
    if (!Enabled(level)) return;
    if constexpr (sizeof...(Fields) > 0) {
      const LogField arr[] = {fields...};
      Log(level, component, message, arr, sizeof...(Fields));
    } else {
      Log(level, component, message, nullptr, 0);
    }
  }

  /// Drains every committed record to the sinks, inline on the caller.
  void Flush();

  /// Records dropped to full rings (all shards).
  uint64_t Dropped() const;
  /// Records written to sinks so far.
  uint64_t Emitted() const {
    return emitted_.load(std::memory_order_relaxed);
  }

  const LogRing& ring() const { return ring_; }

 private:
  using Record = LogRing::Record;

  void DrainerLoop();
  /// Joins the drainer, drains what is left and closes the file sink.
  void Stop();
  void EmitEntry(const Record& e, std::string* out) const;

  LogRing ring_;
  // order: relaxed; a level/format toggle needs no ordering.
  std::atomic<uint8_t> level_{static_cast<uint8_t>(LogLevel::kWarn)};
  // order: relaxed (see level_).
  std::atomic<bool> json_{false};
  // order: relaxed (see level_).
  std::atomic<bool> stderr_{true};
  // order: relaxed flag checked by the drainer loop; the join in the
  // destructor provides the actual synchronization.
  std::atomic<bool> stop_{false};
  // order: relaxed; statistics only.
  std::atomic<uint64_t> emitted_{0};

  std::mutex drain_mutex_;   // serializes Flush (drainer vs callers)
  // Flush's buffers (drain_mutex_), reserved so it allocates nothing.
  std::vector<Record> batch_;
  std::string text_;
  std::mutex sink_mutex_;    // guards file_ open/close vs writes
  FILE* file_ = nullptr;
  std::thread drainer_;
};

/// Per-call-site rate limiter for hot-path warnings: at most one record
/// per `interval_ns`, with a suppressed-count carried into the next
/// emitted record. Safe for concurrent use; a rare double-permit under a
/// race is acceptable.
class LogRateLimit {
 public:
  explicit constexpr LogRateLimit(uint64_t interval_ns)
      : interval_ns_{interval_ns} {}

  /// True if the caller may log now. `*suppressed` returns how many calls
  /// were swallowed since the last permit.
  bool Allow(uint64_t* suppressed) {
    uint64_t now = NowNs();
    uint64_t next = next_ns_.load(std::memory_order_relaxed);
    if (now < next) {
      suppressed_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    if (!next_ns_.compare_exchange_strong(next, now + interval_ns_,
                                          std::memory_order_relaxed,
                                          std::memory_order_relaxed)) {
      suppressed_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    *suppressed = suppressed_.exchange(0, std::memory_order_relaxed);
    return true;
  }

 private:
  uint64_t interval_ns_;
  // order: relaxed CAS claims the next permit window; best-effort only.
  std::atomic<uint64_t> next_ns_{0};
  // order: relaxed; counter of swallowed calls.
  std::atomic<uint64_t> suppressed_{0};
};

/// No-op twin for stats-off builds.
class NoopLogRateLimit {
 public:
  explicit constexpr NoopLogRateLimit(uint64_t) {}
  bool Allow(uint64_t* suppressed) {
    *suppressed = 0;
    return false;
  }
};

#if FASTER_STATS_ENABLED

using StatLogRateLimit = LogRateLimit;

/// Leveled structured log; collapses to nothing without FASTER_STATS.
template <typename... Fields>
inline void StatLog(LogLevel level, const char* component,
                    const char* message, const Fields&... fields) {
  Logger::Global().Write(level, component, message, fields...);
}

/// Rate-limited variant for paths that can fire per-operation. Appends a
/// `suppressed=N` field when earlier calls were swallowed.
template <typename... Fields>
inline void StatLogLimited(LogRateLimit& limit, LogLevel level,
                           const char* component, const char* message,
                           const Fields&... fields) {
  Logger& logger = Logger::Global();
  if (!logger.Enabled(level)) return;
  uint64_t suppressed = 0;
  if (!limit.Allow(&suppressed)) return;
  logger.Write(level, component, message, fields...,
               LogField{"suppressed", suppressed});
}

#else  // !FASTER_STATS_ENABLED

using StatLogRateLimit = NoopLogRateLimit;

template <typename... Fields>
inline void StatLog(LogLevel, const char*, const char*, const Fields&...) {}

template <typename... Fields>
inline void StatLogLimited(NoopLogRateLimit&, LogLevel, const char*,
                           const char*, const Fields&...) {}

#endif  // FASTER_STATS_ENABLED

}  // namespace obs
}  // namespace faster

#endif  // FASTER_OBS_LOG_H_
