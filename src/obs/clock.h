#ifndef FASTER_OBS_CLOCK_H_
#define FASTER_OBS_CLOCK_H_

/// The stage clock (DESIGN.md §12.2): one way to time a stage on a thread
/// (StageScope), one per-op clock that crosses the asynchronous I/O hop
/// by value (OpClock), and one stamp a device op carries to its executor
/// (IoStamp, run under RunIo). All of them speak the one Stage vocabulary
/// (stage.h) and feed whichever sinks are armed: spans (span.h), perf
/// segments (perf.h) and the slowlog (slowlog.h).
///
/// Compile-out: the store and devices embed the Stat* aliases, which are
/// empty no-op twins unless built with -DFASTER_STATS=ON.

#include <cstdint>

#include "core/thread.h"
#include "obs/perf.h"
#include "obs/slowlog.h"
#include "obs/span.h"
#include "obs/stage.h"
#include "obs/stats.h"

namespace faster {
namespace obs {

/// One stage segment on the calling thread: a child span while a trace is
/// active and a perf segment while perf is armed (a no-op under
/// FASTER_MODEL, like StatPerfScope).
class StageScope {
 public:
  explicit StageScope(Stage stage, uint32_t arg = 0)
      : span_{stage, arg}, perf_{stage} {}
  /// An op's entry: its root span (span.h) and the perf segment `stage`.
  StageScope(Stage stage, SpanKind root) : span_{root}, perf_{stage} {}

 private:
  [[no_unique_address]] StatSpan span_;
  [[no_unique_address]] StatPerfScope perf_;
};

/// The pickup time of the device op whose completion callback runs on
/// this thread, published by RunIo (0 when no device op is in flight).
inline uint64_t& CurrentIoPickupNs() {
  thread_local uint64_t pickup_ns = 0;
  return pickup_ns;
}

/// One op's clock: its kind, key hash and trace context, and the stage
/// boundaries of its latency. A plain value: going pending moves it into
/// the op's PendingContext, and whichever thread holds the context marks
/// it. Mark(stage, at) closes the running stage at `at` and opens `stage`
/// at the same instant, and Finish(now) closes the last, so the stages
/// partition the op's latency exactly (a mark earlier than the previous
/// one, read on another thread, closes a zero-length stage). Stages are
/// timed only if the slowlog was armed as the op started; the first I/O
/// issue and the trace are kept whenever stats are compiled in.
class OpClock {
 public:
  OpClock() = default;
  /// Starts a batch chunk's clock in `first` at `start_ns` (0: untimed);
  /// each op's clock splits off it with ForOp.
  OpClock(Stage first, uint64_t start_ns)
      : trace_{CurrentTrace()}, mark_ns_{start_ns}, running_{first} {}
  /// Starts a chunk's clock now, timed if the slowlog is armed.
  explicit OpClock(Stage first)
      : OpClock{first, GlobalSlowLog().armed() ? NowNs() : 0} {}
  /// Starts a single op's clock, running `execute`.
  OpClock(SlowOpKind kind, uint64_t key_hash) : OpClock{Stage::kExecute} {
    kind_ = kind;
    key_hash_ = key_hash;
  }

  /// A batch op's clock: this chunk clock's hash and resolve stages shared
  /// evenly over `ops` ops, then `execute` from now under the ambient
  /// trace.
  OpClock ForOp(SlowOpKind kind, uint64_t key_hash, uint32_t ops) const {
    OpClock op;
    op.kind_ = kind;
    op.key_hash_ = key_hash;
    op.trace_ = CurrentTrace();
    if (mark_ns_ != 0) {
      for (uint32_t s = 0; s < kNumOpStages; ++s) {
        op.stage_ns_[s] = stage_ns_[s] / ops;
      }
      op.mark_ns_ = NowNs();
    }
    return op;
  }

  void Mark(Stage next, uint64_t at_ns) {
    if (next == Stage::kIoQueue && issue_ns_ == 0) issue_ns_ = at_ns;
    if (mark_ns_ == 0) return;
    if (at_ns > mark_ns_) {
      stage_ns_[static_cast<uint32_t>(running_)] += at_ns - mark_ns_;
      mark_ns_ = at_ns;
    }
    running_ = next;
  }
  /// Mark at now, reading the clock only when something needs the time.
  void Mark(Stage next) {
    if (mark_ns_ != 0 || (next == Stage::kIoQueue && issue_ns_ == 0)) {
      Mark(next, NowNs());
    }
  }
  /// The completion callback's marks: io_exec from the executor's pickup
  /// (RunIo), io_complete from now.
  void MarkIoDone() {
    if (mark_ns_ == 0) return;
    uint64_t now = NowNs();
    uint64_t pickup = CurrentIoPickupNs();
    Mark(Stage::kIoExec, pickup != 0 ? pickup : now);
    Mark(Stage::kIoComplete, now);
  }

  /// Closes the running stage at `now` and feeds every armed sink: the
  /// pending_io span and `pending_io_ns` (when the op issued I/O) and the
  /// slowlog entry (when timed).
  void Finish(uint64_t now, Histogram* pending_io_ns = nullptr) {
    if (issue_ns_ != 0) {
      RecordSpan(trace_, SpanKind::kPendingIo, issue_ns_, now);
      if (pending_io_ns != nullptr) pending_io_ns->Record(now - issue_ns_);
    }
    if (mark_ns_ == 0) return;
    Mark(running_, now);
    uint64_t total = 0;
    for (uint64_t ns : stage_ns_) total += ns;
    GlobalSlowLog().MaybeRecord(kind_, key_hash_, total, stage_ns_,
                                /*pending=*/running_ != Stage::kExecute,
                                Thread::Id());
  }
  /// Finish at now, reading the clock only when a sink needs the time.
  void Finish(Histogram* pending_io_ns = nullptr) {
    if (mark_ns_ != 0 || issue_ns_ != 0) Finish(NowNs(), pending_io_ns);
  }

  TraceContext trace() const { return trace_; }

 private:
  uint64_t key_hash_ = 0;
  TraceContext trace_;
  uint64_t mark_ns_ = 0;   // start of the running stage; 0 = untimed
  uint64_t issue_ns_ = 0;  // first io_queue mark; 0 = no I/O issued
  uint64_t stage_ns_[kNumOpStages] = {};
  SlowOpKind kind_ = SlowOpKind::kRead;
  Stage running_ = Stage::kExecute;
};

/// No-op twin for stats-off builds (empty, so it costs its embedder no
/// bytes under [[no_unique_address]]).
class NoopOpClock {
 public:
  NoopOpClock() = default;
  explicit NoopOpClock(Stage, uint64_t = 0) {}
  NoopOpClock(SlowOpKind, uint64_t) {}
  NoopOpClock ForOp(SlowOpKind, uint64_t, uint32_t) const { return {}; }
  void Mark(Stage, uint64_t = 0) {}
  void MarkIoDone() {}
  template <class... Args>
  void Finish(Args&&...) {}
  TraceContext trace() const { return {}; }
};

/// What a device op carries from its submitter to its executor: the
/// submit time and the submitting span, plus the pickup time its executor
/// stamps (RunIo).
struct IoStamp {
  uint64_t submit_ns = 0;
  uint64_t pickup_ns = 0;
  TraceContext trace;

  static IoStamp Now() { return IoStamp{NowNs(), 0, CurrentTrace()}; }
};

/// No-op twin for stats-off builds.
struct NoopIoStamp {
  static constexpr uint64_t submit_ns = 0;
  static NoopIoStamp Now() { return {}; }
};

#if FASTER_STATS_ENABLED
using StatOpClock = OpClock;
using StatIoStamp = IoStamp;
#else
using StatOpClock = NoopOpClock;
using StatIoStamp = NoopIoStamp;
#endif

/// What RunIo's `fn` does with a device op.
enum class IoHop : uint8_t {
  kExecute,  // executes it (and may deliver it)
  kKernel,   // delivers it; the kernel executed it (io_uring)
  kDeliver,  // delivers it; an earlier kExecute hop executed it
};

/// Runs `fn` — a device op's execution, its completion callback, or both
/// — under the op's stamp; the one place the I/O stages are stamped.
/// kExecute stamps the pickup, records the io_queue span (submit ->
/// pickup) and wraps `fn` in the io_exec span and perf segment; kKernel
/// records the io_exec span (submit -> now) post hoc. Every hop publishes
/// the pickup to the callbacks `fn` runs (OpClock::MarkIoDone).
template <class Fn>
void RunIo(IoStamp& stamp, IoHop hop, Fn&& fn) {
  uint64_t& published = CurrentIoPickupNs();
  uint64_t saved = published;
  if (hop == IoHop::kExecute) {
    stamp.pickup_ns = NowNs();
    RecordSpan(stamp.trace, Stage::kIoQueue, stamp.submit_ns,
               stamp.pickup_ns);
  } else if (hop == IoHop::kKernel) {
    stamp.pickup_ns = stamp.submit_ns;
    RecordSpan(stamp.trace, Stage::kIoExec, stamp.submit_ns, NowNs());
  }
  published = stamp.pickup_ns;
  if (hop == IoHop::kExecute) {
    Span exec{Stage::kIoExec, stamp.trace};
    StatPerfScope perf{Stage::kIoExec};
    fn();
  } else {
    fn();
  }
  published = saved;
}

template <class Fn>
void RunIo(NoopIoStamp&, IoHop, Fn&& fn) {
  fn();
}

/// One completion-polling sweep: the io_poll perf segment, plus one
/// io_poll span (arg = completions delivered) under the first delivered
/// op's trace, so traces show the reap batching rather than a per-op
/// forest.
class PollSweep {
 public:
  PollSweep() : perf_{Stage::kIoPoll} {
    if constexpr (kStatsEnabled) start_ns_ = NowNs();
  }
  ~PollSweep() {
    if constexpr (kStatsEnabled) {
      if (delivered_ > 0 && first_.trace_id != 0) {
        RecordSpan(first_, Stage::kIoPoll, start_ns_, NowNs(), delivered_);
      }
    }
  }

  template <class Stamp>
  void Delivered(const Stamp& stamp) {
    if constexpr (kStatsEnabled) {
      if (delivered_++ == 0) first_ = stamp.trace;
    }
  }

 private:
  [[no_unique_address]] StatPerfScope perf_;
  uint64_t start_ns_ = 0;
  TraceContext first_;
  uint32_t delivered_ = 0;
};

}  // namespace obs
}  // namespace faster

#endif  // FASTER_OBS_CLOCK_H_
