#ifndef FASTER_OBS_LOG_H_
#define FASTER_OBS_LOG_H_

/// Structured, leveled logging (DESIGN.md §12.1).
///
/// Logger::Log formats one text line,
/// `<UTC ts> <level> [t<tid>] component: message k=v ...`, into a stack
/// buffer and writes it with one write(2) per sink (stderr, and a file
/// opened O_APPEND) on the calling thread: a record is in its sinks when
/// Log returns, and lines of concurrent threads never interleave. No lock,
/// no allocation. The store's log sites are page-granular or rate-limited
/// (LogRateLimit); none is on the op path, so logging is live in every
/// build, whatever FASTER_STATS says.

#include <atomic>
#include <cstdint>
#include <string>

#include "obs/safe_writer.h"
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
  LogField(const char* key, const char* v)
      : key_{key}, type_{kStr} { str_ = (v != nullptr) ? v : "(null)"; }

  /// Appends " key=value".
  void Render(SafeWriter& w) const;

 private:
  enum Type : uint8_t { kU64, kI64, kStr };
  const char* key_;
  Type type_;
  union {
    uint64_t u64_;
    int64_t i64_;
    const char* str_;
  };
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

/// The process-wide logger (Global), or a private one (tests).
class Logger {
 public:
  /// Longest line written; a longer record is truncated.
  static constexpr size_t kLineSize = 512;

  /// Global instance, never destroyed. First use allocates nothing and
  /// reads FASTER_LOG_LEVEL (debug/info/warn/error/off; default warn) and
  /// FASTER_LOG_FILE from the environment.
  static Logger& Global();

  Logger() = default;
  ~Logger();
  Logger(const Logger&) = delete;
  Logger& operator=(const Logger&) = delete;

  void set_level(LogLevel level) {
    level_.store(static_cast<uint8_t>(level), std::memory_order_relaxed);
  }
  /// The hot-path gate: one relaxed load + compare.
  bool Enabled(LogLevel level) const {
    return static_cast<uint8_t>(level) >=
           level_.load(std::memory_order_relaxed);
  }

  /// Opens (appends to) the file sink, replacing any earlier one. A setup
  /// call: not safe against a concurrent Log. Returns false on failure.
  bool OpenFile(const char* path);
  bool OpenFile(const std::string& path) { return OpenFile(path.c_str()); }
  /// Enable/disable the stderr sink (on by default).
  void set_stderr(bool enabled) {
    stderr_.store(enabled, std::memory_order_relaxed);
  }

  /// Formats the record and writes it to each sink.
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

  /// Write for paths that can fire per operation: at most one record per
  /// `limit` interval, with a `suppressed=N` field counting the calls
  /// swallowed since the last.
  template <typename... Fields>
  void WriteLimited(LogRateLimit& limit, LogLevel level,
                    const char* component, const char* message,
                    const Fields&... fields) {
    if (!Enabled(level)) return;
    uint64_t suppressed = 0;
    if (!limit.Allow(&suppressed)) return;
    Write(level, component, message, fields...,
          LogField{"suppressed", suppressed});
  }

 private:
  // order: relaxed; a level/sink toggle needs no ordering.
  std::atomic<uint8_t> level_{static_cast<uint8_t>(LogLevel::kWarn)};
  // order: relaxed (see level_).
  std::atomic<bool> stderr_{true};
  // order: relaxed; the file sink's fd (-1: none). A write needs only the
  // number; the kernel orders the file itself.
  std::atomic<int> fd_{-1};
};

/// A record to the global logger, in every build: no log site is on the
/// op path.
template <typename... Fields>
inline void Log(LogLevel level, const char* component, const char* message,
                const Fields&... fields) {
  Logger::Global().Write(level, component, message, fields...);
}

/// Rate-limited variant (Logger::WriteLimited).
template <typename... Fields>
inline void LogLimited(LogRateLimit& limit, LogLevel level,
                       const char* component, const char* message,
                       const Fields&... fields) {
  Logger::Global().WriteLimited(limit, level, component, message, fields...);
}

}  // namespace obs
}  // namespace faster

#endif  // FASTER_OBS_LOG_H_
