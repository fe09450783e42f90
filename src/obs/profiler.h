#ifndef FASTER_OBS_PROFILER_H_
#define FASTER_OBS_PROFILER_H_

/// SIGPROF sampling profiler (DESIGN.md §15).
///
/// A process-wide, on-demand CPU profiler: `setitimer(ITIMER_PROF)`
/// delivers SIGPROF on a currently-running thread every 1/hz seconds of
/// consumed CPU time; the handler unwinds the frame-pointer chain from
/// the interrupted context and appends the program-counter stack to a
/// lock-free sample ring. Draining converts samples to collapsed-stack
/// text ("root;caller;leaf count" per line), the input format of
/// flamegraph.pl and tools/collapse2svg.py.
///
/// Signal-safety rules (the handler may fire on *any* thread, inside
/// malloc, inside the store's lock-free protocol):
///   - no allocation, no locks, no syscalls in the handler;
///   - samples go into a SeqRing (seq_ring.h), whose writer claims the
///     slot before storing, so the drain side never reads torn frames;
///   - the unwind only dereferences frame pointers between the
///     interrupted stack pointer and the top of the thread's own stack
///     (RegisterThread; an unregistered thread is sampled by its PC
///     alone), with alignment / monotonicity / span checks, and stops at
///     the first frame that fails them. Frames are only as good as the
///     build: compile with -fno-omit-frame-pointer (the default here) or
///     stacks truncate at the first FP-less frame.
///
/// Symbolization happens at drain time (dladdr + __cxa_demangle), not in
/// the handler; link executables with ENABLE_EXPORTS (-rdynamic) or
/// samples show raw addresses.
///
/// Always compiled (no Stat* gating: nothing runs until Start()).

#include <atomic>
#include <cstdint>
#include <string>

#include "obs/seq_ring.h"

namespace faster {
namespace obs {

class Profiler {
 public:
  static constexpr uint32_t kMaxFrames = 32;
  static constexpr uint32_t kCapacity = 4096;  // newest-N sample window
  static constexpr uint32_t kDefaultHz = 497;  // prime: avoids lockstep

  static Profiler& Instance();

  /// Records the calling thread's stack bounds for the handler's walk.
  /// faster::Thread::Id() calls it when a thread registers.
  static void RegisterThread();

  /// Installs the SIGPROF handler and starts the profiling timer.
  /// Returns false if already running or the timer cannot be installed.
  bool Start(uint32_t hz = kDefaultHz);
  /// Stops the timer, restores the previous handler.
  void Stop();
  bool running() const {
    return running_.load(std::memory_order_acquire);
  }

  /// Samples taken since Start (monotone across Clear).
  uint64_t SamplesTaken() const { return ring_.End(); }
  /// Handler invocations that captured no frames (unwind rejected).
  uint64_t SamplesTruncated() const {
    return truncated_.load(std::memory_order_relaxed);
  }

  /// Forgets buffered samples.
  void Clear() { ring_.Clear(); }

  /// Drains the buffered samples into collapsed-stack text, aggregating
  /// identical stacks. Safe to call while running (sees a torn-free
  /// snapshot; concurrent samples may be skipped).
  std::string Collapse() const;

  /// Blocking convenience for CLI/HTTP surfaces: profile the process for
  /// `seconds` (capped to [0.1, 60]) and return the collapsed stacks.
  /// Returns an error line starting with '#' if the profiler is busy.
  std::string ProfileForSeconds(double seconds, uint32_t hz = kDefaultHz);

  // Signal handler body; public for the extern "C" trampoline only.
  void OnSignal(void* ucontext);

 private:
  Profiler() = default;

  struct Sample {
    uint64_t depth;
    uintptr_t pc[kMaxFrames];  // leaf first
  };

  // order: acq_rel CAS in Start (single-winner claim whose release half
  // publishes handler state before the timer can fire), release store in
  // Stop; the handler's acquire load pairs with both.
  std::atomic<bool> running_{false};
  // order: relaxed — diagnostic tally only.
  std::atomic<uint64_t> truncated_{0};
  SeqRing<Sample, kCapacity> ring_;
};

}  // namespace obs
}  // namespace faster

#endif  // FASTER_OBS_PROFILER_H_
