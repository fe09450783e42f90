#ifndef FASTER_TESTS_STRESS_STRESS_COMMON_H_
#define FASTER_TESTS_STRESS_STRESS_COMMON_H_

#include <cstdint>
#include <cstdlib>
#include <random>

#include "core/key_hash.h"

namespace faster {
namespace stress {

/// Deterministic base seed for every stress test; override with
/// FASTER_STRESS_SEED (any strtoull-parseable value) to explore other
/// schedules, e.g. FASTER_STRESS_SEED=$RANDOM ctest -L stress.
inline uint64_t BaseSeed() {
  if (const char* env = std::getenv("FASTER_STRESS_SEED")) {
    return std::strtoull(env, nullptr, 0);
  }
  return 0xFA57EEDull;
}

/// Per-thread RNG stream: decorrelated from the base seed via Mix64 so
/// thread t's schedule changes completely when the seed changes.
inline std::mt19937_64 ThreadRng(uint64_t thread_ordinal) {
  return std::mt19937_64{Mix64(BaseSeed() ^ (thread_ordinal + 1))};
}

/// True in TSan/ASan builds.
inline constexpr bool kSanitized =
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
    true;
#else
    false;
#endif

/// Sanitized builds run 5-15x slower; scale iteration counts so every
/// stress test stays well under its ctest timeout (<60 s under TSan).
inline uint64_t ScaleOps(uint64_t n) { return kSanitized ? n / 4 + 1 : n; }

}  // namespace stress
}  // namespace faster

#endif  // FASTER_TESTS_STRESS_STRESS_COMMON_H_
