#include "obs/build_info.h"

#include <iterator>

#include "core/epoch_check.h"
#include "obs/stats.h"

// FASTER_GIT_SHA / FASTER_BUILD_TYPE are injected on this one TU by
// src/CMakeLists.txt (set_source_files_properties) so a new commit only
// recompiles this file.
#ifndef FASTER_GIT_SHA
#define FASTER_GIT_SHA "unknown"
#endif
#ifndef FASTER_BUILD_TYPE
#define FASTER_BUILD_TYPE "unknown"
#endif

namespace faster {
namespace obs {

namespace {

constexpr bool kHaveIoUring =
#if defined(FASTER_HAVE_IO_URING) && FASTER_HAVE_IO_URING
    true;
#else
    false;
#endif

const char* OnOff(bool on) { return on ? "on" : "off"; }

/// Renders the build fields from `first` on as `pre key mid value post`,
/// comma-separated: one field list behind INFO's build_flags,
/// /debug/build and the faster_build_info line.
std::string JoinFields(size_t first, const char* pre, const char* mid,
                       const char* post) {
  const char* const fields[][2] = {
      {"git_sha", GitSha()},
      {"build_type", BuildType()},
      {"stats", OnOff(kStatsEnabled)},
      {"epoch_check", OnOff(kEpochCheckEnabled)},
      {"io_uring", OnOff(kHaveIoUring)},
      {"sanitizer", BuildSanitizer()}};
  std::string out;
  for (size_t i = first; i < std::size(fields); ++i) {
    if (i > first) out += ',';
    out.append(pre).append(fields[i][0]).append(mid).append(fields[i][1]);
    out += post;
  }
  return out;
}

}  // namespace

const char* GitSha() { return FASTER_GIT_SHA; }

const char* BuildType() { return FASTER_BUILD_TYPE; }

const char* BuildSanitizer() {
#if defined(__SANITIZE_THREAD__)
  return "thread";
#elif defined(__SANITIZE_ADDRESS__)
  return "address,undefined";
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
  return "thread";
#elif __has_feature(address_sanitizer)
  return "address,undefined";
#else
  return "none";
#endif
#else
  return "none";
#endif
}

std::string BuildFlagsSummary() { return JoinFields(2, "", "=", ""); }

std::string BuildInfoJson() {
  return "{" + JoinFields(0, "\"", "\":\"", "\"") + "}";
}

std::string BuildInfoPromLine() {
  return "# TYPE faster_build_info gauge\nfaster_build_info{" +
         JoinFields(0, "", "=\"", "\"") + "} 1\n";
}

}  // namespace obs
}  // namespace faster
