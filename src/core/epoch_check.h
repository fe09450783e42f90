#ifndef FASTER_CORE_EPOCH_CHECK_H_
#define FASTER_CORE_EPOCH_CHECK_H_

#include <atomic>
#include <cstdio>
#include <cstdlib>

/// FASTER_EPOCH_CHECK: the runtime epoch/region verifier (DESIGN.md §9).
///
/// The static annotations (annotations.h) prove session *bracketing*; the
/// verifier checks the dynamic invariants the analysis cannot see: that
/// the bracketing thread is the one touching the structure, that log
/// dereferences stay at or above the head address (the frame below may be
/// recycled), and that in-place mutations stay at or above the safe
/// read-only offset (bytes below it may be mid-flush, Sec. 6.1).
///
/// Sites use `FASTER_EPOCH_VERIFY(cond, msg)`. In default builds the
/// macro discards both arguments *unevaluated* — no branch, no atomic
/// load, no text — so hot paths carry zero cost. Built with
/// -DFASTER_EPOCH_CHECK=ON, a failing condition prints
/// `FASTER_EPOCH_CHECK violation: <msg>`, fires the registered fatal hook
/// (the crash flight recorder dumps epoch tables, metrics, and recent
/// events/spans — obs/flight_recorder.h), and aborts.
/// tests/epoch_check_test.cc holds one death test per violation class.

#if defined(FASTER_EPOCH_CHECK) && FASTER_EPOCH_CHECK
#define FASTER_EPOCH_CHECK_ENABLED 1
#else
#define FASTER_EPOCH_CHECK_ENABLED 0
#endif

namespace faster {

inline constexpr bool kEpochCheckEnabled = (FASTER_EPOCH_CHECK_ENABLED != 0);

/// Invoked (with the violation message) before abort; the flight recorder
/// installs FlightRecorder::FatalHook here. Kept compiled in every build
/// so the recorder's Install() need not be conditional.
using EpochCheckFatalHook = void (*)(const char* what);

inline std::atomic<EpochCheckFatalHook>& EpochCheckHookSlot() {
  // order: release store in SetEpochCheckFatalHook publishes the hook;
  // acquire load on the (already-fatal) violation path pairs with it.
  static std::atomic<EpochCheckFatalHook> hook{nullptr};
  return hook;
}

inline void SetEpochCheckFatalHook(EpochCheckFatalHook hook) {
  EpochCheckHookSlot().store(hook, std::memory_order_release);
}

/// Prints `kind` and `msg`, fires the hook with `msg` and aborts: the
/// verifier's violations, and the wait watchdog's (core/wait.h).
[[noreturn]] inline void EpochCheckFail(
    const char* msg, const char* kind = "FASTER_EPOCH_CHECK violation: ") {
  std::fprintf(stderr, "%s%s\n", kind, msg);
  std::fflush(stderr);
  EpochCheckFatalHook hook =
      EpochCheckHookSlot().load(std::memory_order_acquire);
  if (hook != nullptr) hook(msg);
  std::abort();
}

}  // namespace faster

#if FASTER_EPOCH_CHECK_ENABLED
#define FASTER_EPOCH_VERIFY(cond, msg) \
  do {                                 \
    if (!(cond)) {                     \
      ::faster::EpochCheckFail(msg);   \
    }                                  \
  } while (0)
#else
// Arguments are discarded unevaluated: a verify site costs nothing unless
// the verifier is compiled in.
#define FASTER_EPOCH_VERIFY(cond, msg) \
  do {                                 \
  } while (0)
#endif

#endif  // FASTER_CORE_EPOCH_CHECK_H_
