#include "obs/log.h"

#include <time.h>

#include <algorithm>
#include <cstdlib>

namespace faster {
namespace obs {

namespace {

uint64_t WallNs() {
  timespec ts;
  clock_gettime(CLOCK_REALTIME, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

size_t AppendStr(char* buf, size_t cap, size_t at, const char* s) {
  while (*s != '\0' && at < cap) buf[at++] = *s++;
  return at;
}

/// Appends `s` with JSON string escaping (quotes not included).
void AppendJsonEscaped(std::string* out, const char* s, size_t len) {
  for (size_t i = 0; i < len; ++i) {
    char c = s[i];
    switch (c) {
      case '"': out->append("\\\""); break;
      case '\\': out->append("\\\\"); break;
      case '\n': out->append("\\n"); break;
      case '\r': out->append("\\r"); break;
      case '\t': out->append("\\t"); break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char esc[8];
          std::snprintf(esc, sizeof(esc), "\\u%04x", c);
          out->append(esc);
        } else {
          out->push_back(c);
        }
    }
  }
}

}  // namespace

bool ParseLogLevel(const char* s, LogLevel* out) {
  if (s == nullptr) return false;
  if (std::strcmp(s, "debug") == 0) *out = LogLevel::kDebug;
  else if (std::strcmp(s, "info") == 0) *out = LogLevel::kInfo;
  else if (std::strcmp(s, "warn") == 0) *out = LogLevel::kWarn;
  else if (std::strcmp(s, "error") == 0) *out = LogLevel::kError;
  else if (std::strcmp(s, "off") == 0) *out = LogLevel::kOff;
  else return false;
  return true;
}

size_t LogField::Render(char* buf, size_t cap) const {
  size_t at = 0;
  if (at < cap) buf[at++] = ' ';
  at = AppendStr(buf, cap, at, key_);
  if (at < cap) buf[at++] = '=';
  char val[64];
  switch (type_) {
    case kU64:
      std::snprintf(val, sizeof(val), "%llu",
                    static_cast<unsigned long long>(u64_));
      at = AppendStr(buf, cap, at, val);
      break;
    case kI64:
      std::snprintf(val, sizeof(val), "%lld", static_cast<long long>(i64_));
      at = AppendStr(buf, cap, at, val);
      break;
    case kF64:
      std::snprintf(val, sizeof(val), "%.3f", f64_);
      at = AppendStr(buf, cap, at, val);
      break;
    case kBool:
      at = AppendStr(buf, cap, at, u64_ != 0 ? "true" : "false");
      break;
    case kStr:
      at = AppendStr(buf, cap, at, str_);
      break;
  }
  return at;
}

Logger& Logger::Global() {
  // Never destroyed, so the flight recorder can read its ring until the
  // process is gone; exit still stops the drainer and flushes the sinks.
  static Logger& logger = *new Logger;
  static struct StopAtExit {
    ~StopAtExit() { logger.Stop(); }
  } stop_at_exit;
  static std::once_flag env_once;
  std::call_once(env_once, [] {
    LogLevel level;
    if (ParseLogLevel(std::getenv("FASTER_LOG_LEVEL"), &level)) {
      logger.set_level(level);
    }
    const char* file = std::getenv("FASTER_LOG_FILE");
    if (file != nullptr && file[0] != '\0') logger.OpenFile(file);
    const char* json = std::getenv("FASTER_LOG_JSON");
    if (json != nullptr && json[0] == '1') logger.set_json(true);
  });
  return logger;
}

Logger::Logger() {
  batch_.reserve(256);  // records per drain
  text_.reserve(256 * 256);
  drainer_ = std::thread([this] { DrainerLoop(); });
}

Logger::~Logger() { Stop(); }

void Logger::Stop() {
  stop_.store(true, std::memory_order_relaxed);
  if (drainer_.joinable()) drainer_.join();
  Flush();
  std::lock_guard<std::mutex> lock{sink_mutex_};
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

bool Logger::OpenFile(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock{sink_mutex_};
  if (file_ != nullptr) std::fclose(file_);
  file_ = f;
  return true;
}

void Logger::Log(LogLevel level, const char* component, const char* message,
                 const LogField* fields, size_t num_fields) {
  uint32_t tid = Thread::Id();
  LogRing::Shard& shard = ring_.shard(tid);
  // Drop-newest when full: a producer never laps the drainer.
  if (shard.ring.End() - shard.drained.load(std::memory_order_relaxed) >=
      LogRing::kEntriesPerThread) {
    shard.dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Record rec{};
  rec.wall_ns = WallNs();
  rec.tid = tid;
  rec.level = static_cast<uint8_t>(level);
  size_t at = 0;
  at = AppendStr(rec.text, LogRing::kTextSize, at, component);
  at = AppendStr(rec.text, LogRing::kTextSize, at, ": ");
  at = AppendStr(rec.text, LogRing::kTextSize, at, message);
  for (size_t i = 0; i < num_fields; ++i) {
    at += fields[i].Render(rec.text + at, LogRing::kTextSize - at);
    if (at >= LogRing::kTextSize) {
      at = LogRing::kTextSize;
      break;
    }
  }
  rec.len = static_cast<uint16_t>(at);
  shard.ring.Push(rec);
}

void Logger::EmitEntry(const Record& e, std::string* out) const {
  char head[96];
  time_t secs = static_cast<time_t>(e.wall_ns / 1000000000ull);
  unsigned millis =
      static_cast<unsigned>((e.wall_ns % 1000000000ull) / 1000000ull);
  tm utc;
  gmtime_r(&secs, &utc);
  if (json_.load(std::memory_order_relaxed)) {
    std::snprintf(head, sizeof(head),
                  "{\"ts\":\"%04d-%02d-%02dT%02d:%02d:%02d.%03uZ\","
                  "\"level\":\"%s\",\"tid\":%u,\"msg\":\"",
                  utc.tm_year + 1900, utc.tm_mon + 1, utc.tm_mday,
                  utc.tm_hour, utc.tm_min, utc.tm_sec, millis,
                  LogLevelName(static_cast<LogLevel>(e.level)), e.tid);
    out->append(head);
    AppendJsonEscaped(out, e.text, e.len);
    out->append("\"}\n");
  } else {
    std::snprintf(head, sizeof(head),
                  "%04d-%02d-%02dT%02d:%02d:%02d.%03uZ %-5s [t%u] ",
                  utc.tm_year + 1900, utc.tm_mon + 1, utc.tm_mday,
                  utc.tm_hour, utc.tm_min, utc.tm_sec, millis,
                  LogLevelName(static_cast<LogLevel>(e.level)), e.tid);
    out->append(head);
    out->append(e.text, e.len);
    out->push_back('\n');
  }
}

void Logger::Flush() {
  std::lock_guard<std::mutex> drain_lock{drain_mutex_};
  // Collect committed entries from every shard, then sort by wall time so
  // interleaved threads read chronologically in the sinks.
  batch_.clear();
  for (uint32_t tid = 0; tid < LogRing::NumShards(); ++tid) {
    LogRing::Shard& shard = ring_.shard(tid);
    uint64_t begin = shard.drained.load(std::memory_order_relaxed);
    uint64_t pos = begin;
    Record rec{};
    while (pos < shard.ring.End() && shard.ring.Read(pos, &rec)) {
      batch_.push_back(rec);
      ++pos;
    }
    if (pos != begin) shard.drained.store(pos, std::memory_order_relaxed);
  }
  if (batch_.empty()) return;
  std::sort(batch_.begin(), batch_.end(),
            [](const Record& a, const Record& b) {
              return a.wall_ns < b.wall_ns;
            });
  text_.clear();
  for (const Record& e : batch_) EmitEntry(e, &text_);
  {
    std::lock_guard<std::mutex> sink_lock{sink_mutex_};
    if (stderr_.load(std::memory_order_relaxed)) {
      std::fwrite(text_.data(), 1, text_.size(), stderr);
    }
    if (file_ != nullptr) {
      std::fwrite(text_.data(), 1, text_.size(), file_);
      std::fflush(file_);
    }
  }
  emitted_.fetch_add(batch_.size(), std::memory_order_relaxed);
}

uint64_t Logger::Dropped() const {
  uint64_t total = 0;
  for (uint32_t tid = 0; tid < LogRing::NumShards(); ++tid) {
    total += ring_.shard(tid).dropped.load(std::memory_order_relaxed);
  }
  return total;
}

void Logger::DrainerLoop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    Flush();
    // Poll cadence: 20ms keeps the rings far from full at any plausible
    // log rate (64 slots/thread) without waking the CPU noticeably.
    timespec wait{0, 20 * 1000 * 1000};
    nanosleep(&wait, nullptr);
  }
}

}  // namespace obs
}  // namespace faster
