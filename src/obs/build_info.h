#ifndef FASTER_OBS_BUILD_INFO_H_
#define FASTER_OBS_BUILD_INFO_H_

/// Build attribution: which commit and which compile-time configuration
/// produced this binary. Surfaces as the `faster_build_info` gauge on
/// /metrics, the `# Build` fields of INFO and `/debug/build`.

#include <string>

namespace faster {
namespace obs {

/// Short commit sha captured at configure time ("unknown" outside git).
const char* GitSha();
/// CMAKE_BUILD_TYPE of this binary ("unknown" if not passed through).
const char* BuildType();
/// "on"/"off" feature summary, e.g. "stats=on,io_uring=off,...".
std::string BuildFlagsSummary();
/// Sanitizer baked into this binary: "none", "thread", or
/// "address,undefined".
const char* BuildSanitizer();

/// {"git_sha":...,"build_type":...,"sanitizer":...,"stats":...,...}
std::string BuildInfoJson();
/// One Prometheus line (with trailing newline):
/// faster_build_info{git_sha="...",...} 1
/// Appended verbatim by the metrics handlers — the stats Registry has no
/// label support, and this gauge is all labels.
std::string BuildInfoPromLine();

}  // namespace obs
}  // namespace faster

#endif  // FASTER_OBS_BUILD_INFO_H_
