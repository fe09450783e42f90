#include "obs/log.h"

#include <fcntl.h>
#include <time.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <new>

#include "core/thread.h"

namespace faster {
namespace obs {

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

void LogField::Render(SafeWriter& w) const {
  w.Put(" ", key_, "=");
  switch (type_) {
    case kU64: w.U64(u64_); break;
    case kI64: w.I64(i64_); break;
    case kStr: w.Str(str_); break;
  }
}

Logger& Logger::Global() {
  // Built in static storage and never destroyed: no allocation, and
  // records written while the process exits still find it.
  alignas(Logger) static unsigned char storage[sizeof(Logger)];
  static Logger* logger = [] {
    auto* l = new (storage) Logger;
    LogLevel level;
    if (ParseLogLevel(std::getenv("FASTER_LOG_LEVEL"), &level)) {
      l->set_level(level);
    }
    const char* file = std::getenv("FASTER_LOG_FILE");
    if (file != nullptr && file[0] != '\0') l->OpenFile(file);
    return l;
  }();
  return *logger;
}

Logger::~Logger() {
  int fd = fd_.load(std::memory_order_relaxed);
  if (fd >= 0) ::close(fd);
}

bool Logger::OpenFile(const char* path) {
  int fd = ::open(path, O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
                  0644);
  if (fd < 0) return false;
  int old = fd_.exchange(fd, std::memory_order_relaxed);
  if (old >= 0) ::close(old);
  return true;
}

void Logger::Log(LogLevel level, const char* component, const char* message,
                 const LogField* fields, size_t num_fields) {
  timespec now;
  clock_gettime(CLOCK_REALTIME, &now);
  tm utc;
  gmtime_r(&now.tv_sec, &utc);
  using D = SafeWriter::Digits;
  char line[kLineSize];
  SafeWriter w{line, sizeof line - 1};  // room for the newline
  const char* name = LogLevelName(level);  // padded to 5 columns below
  w.Put(D{static_cast<uint64_t>(utc.tm_year) + 1900, 4}, "-",
        D{static_cast<uint64_t>(utc.tm_mon) + 1, 2}, "-",
        D{static_cast<uint64_t>(utc.tm_mday), 2}, "T",
        D{static_cast<uint64_t>(utc.tm_hour), 2}, ":",
        D{static_cast<uint64_t>(utc.tm_min), 2}, ":",
        D{static_cast<uint64_t>(utc.tm_sec), 2}, ".",
        D{static_cast<uint64_t>(now.tv_nsec) / 1000000, 3}, "Z ", name,
        "     " + std::strlen(name), " [t", Thread::Id(), "] ", component,
        ": ", message);
  for (size_t i = 0; i < num_fields; ++i) fields[i].Render(w);
  size_t len = w.size();
  line[len++] = '\n';
  if (stderr_.load(std::memory_order_relaxed)) {
    SafeWriter::WriteFull(STDERR_FILENO, line, len);
  }
  SafeWriter::WriteFull(fd_.load(std::memory_order_relaxed), line, len);
}

}  // namespace obs
}  // namespace faster
