#ifndef FASTER_OBS_CLOCK_H_
#define FASTER_OBS_CLOCK_H_

/// The stage clock (DESIGN.md §12.2): one way to time a stage on a thread
/// (StageScope), one per-op clock that crosses the asynchronous I/O hop
/// by value (OpClock), and one stamp a device op carries to its executor
/// (IoStamp, run under RunIo). All of them speak the one Stage vocabulary
/// (stage.h). An op's clock is its one record path: it alone reads the
/// time for the op and feeds every sink, spans (span.h), perf segments
/// (perf.h) and the slowlog (slowlog.h).
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

/// One op's clock: its kind, key hash and trace position, and the stage
/// boundaries of its latency. A value: going pending copies it into the
/// op's PendingContext, and whichever thread holds the context marks it.
/// Mark(stage, at) closes the running stage at `at` and opens `stage` at
/// the same instant, and Finish closes the last, so the stages partition
/// the op's latency exactly (a mark earlier than the previous one, read on
/// another thread, closes a zero-length stage).
///
/// The sinks are decided once, as the clock starts. An op no sink wants —
/// slowlog and perf disarmed, no trace active, not the thread's N-th root
/// (SampleRoot) — reads no time: two stores and one branch. Otherwise its
/// marks read the time, and the same marks feed every sink: the slowlog
/// entry (if the slowlog was armed at the start) and a traced op's spans,
/// one per I/O stage it closes, its pending_io span and, for a single op,
/// its own span. Every op keeps its first I/O issue, for the store's
/// pending_io_ns histogram. `slot` arguments are the calling thread's.
class OpClock {
 public:
  /// Starts a single op's clock, running `execute`. A traced op takes its
  /// span id now, so its continuations parent under it (trace()). Its perf
  /// segment, if perf is armed, runs until Leave.
  [[gnu::always_inline]] OpClock(SlowOpKind kind, uint64_t key_hash) {
    ThreadTrace& t = ThisThreadTrace();
    // Counts a root as SampleRoot would; the N-th takes Start.
    if (t.quiet != SinkWord().load(std::memory_order_relaxed) ||
        --t.left == 0) [[unlikely]] {
      Start(kind, key_hash);
    }
  }
  /// Starts a batch chunk's clock in `first` at `start_ns` (0: untimed),
  /// under the ambient trace; each op's clock splits off it with ForOp.
  OpClock(Stage first, uint64_t start_ns) {
    if (start_ns == 0) return;
    flags_ = kSlowLog | (CurrentTrace().trace_id != 0 ? kTraced : 0);
    Begin(SlowOpKind::kRead, 0, first, start_ns);
  }
  /// A chunk's clock started now: timed if the slowlog is armed or a trace
  /// is active.
  static OpClock ForChunk(Stage first) {
    OpClock chunk;
    if ((SinkWord().load(std::memory_order_relaxed) & kSinkSlowLog) != 0) {
      chunk.flags_ = kSlowLog;
    }
    if (CurrentTrace().trace_id != 0) chunk.flags_ |= kTraced;
    if (chunk.timed()) chunk.Begin(SlowOpKind::kRead, 0, first, NowNs());
    return chunk;
  }
  /// Copies the first issue, and the rest only if the clock is timed.
  OpClock(const OpClock& o) : flags_{o.flags_}, issue_ns_{o.issue_ns_} {
    if (o.timed()) t_ = o.t_;
  }

  /// A batch op's clock: this chunk clock's hash stage shared evenly over
  /// `ops` ops, then `execute` from now under the ambient trace.
  OpClock ForOp(SlowOpKind kind, uint64_t key_hash, uint32_t ops) const {
    OpClock op;
    if (timed()) op.Split(*this, kind, key_hash, ops);
    return op;
  }

  void Mark(Stage next, uint64_t at_ns, uint32_t slot = Thread::Id()) {
    if (next == Stage::kIoQueue && issue_ns_ == 0) issue_ns_ = at_ns;
    if (!timed()) return;
    if (at_ns > t_.mark_ns) {
      t_.stage_ns[static_cast<uint32_t>(t_.running)] += at_ns - t_.mark_ns;
      if (t_.running >= Stage::kIoQueue) {
        RecordSpan(trace(), t_.running, t_.mark_ns, at_ns, 0, slot);
      }
      t_.mark_ns = at_ns;
    }
    t_.running = next;
  }
  /// Mark at now, reading the clock only when something needs the time.
  void Mark(Stage next) {
    if (timed() || (next == Stage::kIoQueue && issue_ns_ == 0)) {
      Mark(next, NowNs());
    }
  }
  /// The completion callback's marks: io_exec from the executor's pickup
  /// (RunIo), io_complete from now.
  void MarkIoDone() {
    if (!timed()) return;
    uint64_t now = NowNs();
    uint64_t pickup = CurrentIoPickupNs();
    Mark(Stage::kIoExec, pickup != 0 ? pickup : now);
    Mark(Stage::kIoComplete, now);
  }

  /// Closes the running stage at `now` and feeds the sinks: `pending_io_ns`
  /// (when the op issued I/O), the slowlog entry, and the op's spans.
  void Finish(uint64_t now, Histogram* pending_io_ns = nullptr,
              uint32_t slot = Thread::Id()) {
    if (issue_ns_ != 0 && pending_io_ns != nullptr) {
      pending_io_ns->Record(now - issue_ns_, slot);
    }
    if (!timed()) return;
    Mark(t_.running, now, slot);
    uint64_t total = 0;
    for (uint64_t ns : t_.stage_ns) total += ns;
    if ((flags_ & kSlowLog) != 0) {
      GlobalSlowLog().MaybeRecord(t_.kind, t_.key_hash, total, t_.stage_ns,
                                  /*pending=*/t_.running != Stage::kExecute,
                                  slot);
    }
    if ((flags_ & kTraced) == 0) return;
    uint64_t end = t_.mark_ns;
    if (issue_ns_ != 0) {
      RecordSpan(trace(), SpanKind::kPendingIo, issue_ns_, end, 0, slot);
    }
    if ((flags_ & kOwnSpan) != 0) {
      GlobalSpanRing().Record(t_.trace_id, t_.span_id, t_.parent_id,
                              end - total, end, 0, SpanKindOf(t_.kind), slot);
    }
  }
  /// Finish at now, reading the clock only when a sink needs the time.
  void Finish(Histogram* pending_io_ns = nullptr,
              uint32_t slot = Thread::Id()) {
    if (timed() || issue_ns_ != 0) Finish(NowNs(), pending_io_ns, slot);
  }

  /// A single op's entry returns: ends its perf segment, and finishes the
  /// op unless it went pending (its PendingContext's copy finishes it).
  [[gnu::always_inline]] void Leave(bool done, uint32_t slot) {
    if (flags_ != 0) [[unlikely]] LeaveSlow(done, slot);
  }

  /// The op's trace position: where the spans of its stages attach.
  TraceContext trace() const {
    if ((flags_ & kTraced) == 0) return {};
    return {t_.trace_id, t_.span_id};
  }

 private:
  enum : uint8_t {
    kSlowLog = 1,  // the slowlog was armed as the op started
    kTraced = 2,   // the op is in a trace
    kOwnSpan = 4,  // a single op: t_.span_id is its own span's
    kPerf = 8,     // a single op's entry holds a perf segment
  };
  /// What a timed clock holds beyond its first issue.
  struct Timed {
    uint64_t key_hash;
    uint64_t trace_id, span_id;  // kTraced: the op's trace position
    uint64_t parent_id;          // kOwnSpan: its span's parent
    uint64_t mark_ns;            // start of the running stage
    uint64_t stage_ns[kNumOpStages];
    SlowOpKind kind;
    Stage running;
  };

  OpClock() = default;

  bool timed() const { return (flags_ & (kSlowLog | kTraced)) != 0; }

  void Begin(SlowOpKind kind, uint64_t key_hash, Stage first,
             uint64_t start_ns) {
    t_.kind = kind;
    t_.key_hash = key_hash;
    t_.running = first;
    t_.mark_ns = start_ns;
    for (uint64_t& ns : t_.stage_ns) ns = 0;
  }

  /// A single op's start when some sink may want it. Leaves the thread
  /// quiet (ThreadTrace) when no sink is armed and no trace is active.
  [[gnu::noinline]] void Start(SlowOpKind kind, uint64_t key_hash) {
    ThreadTrace& t = ThisThreadTrace();
    uint64_t sinks = SinkWord().load(std::memory_order_relaxed);
    uint8_t flags = (sinks & kSinkSlowLog) != 0 ? kSlowLog : 0;
    if (t.ambient.trace_id != 0) {
      t_.trace_id = t.ambient.trace_id;
      t_.span_id = NewSpanId();
      t_.parent_id = t.ambient.span_id;
      flags |= kTraced | kOwnSpan;
    } else if (SampleRoot(t)) {
      t_.trace_id = t_.span_id = NewSpanId();  // a root's span is its trace
      t_.parent_id = 0;
      flags |= kTraced | kOwnSpan;
    }
    bool quiet = (sinks & (kSinkSlowLog | kSinkPerf)) == 0 &&
                 t.ambient.trace_id == 0 && t.sinks == sinks;
    t.quiet = quiet ? sinks : 0;
#ifndef FASTER_MODEL
    if ((sinks & kSinkPerf) != 0 && PerfScopeEnter(Stage::kExecute)) {
      flags |= kPerf;
    }
#endif
    flags_ = flags;
    if (timed()) Begin(kind, key_hash, Stage::kExecute, NowNs());
  }

  [[gnu::noinline]] void Split(const OpClock& chunk, SlowOpKind kind,
                               uint64_t key_hash, uint32_t ops) {
    flags_ = chunk.flags_;
    t_.trace_id = CurrentTrace().trace_id;
    t_.span_id = CurrentTrace().span_id;
    Begin(kind, key_hash, Stage::kExecute, NowNs());
    for (uint32_t s = 0; s < kNumOpStages; ++s) {
      t_.stage_ns[s] = chunk.t_.stage_ns[s] / ops;
    }
  }

  [[gnu::noinline]] void LeaveSlow(bool done, uint32_t slot) {
    if (done) Finish(nullptr, slot);
#ifndef FASTER_MODEL
    if ((flags_ & kPerf) != 0) PerfScopeExit();
#endif
  }

  uint8_t flags_ = 0;
  uint64_t issue_ns_ = 0;  // first io_queue mark; 0 = no I/O issued
  Timed t_;                // valid when timed()
};

/// No-op twin for stats-off builds (empty, so it costs its embedder no
/// bytes under [[no_unique_address]]).
class NoopOpClock {
 public:
  NoopOpClock() = default;
  NoopOpClock(SlowOpKind, uint64_t) {}
  NoopOpClock(Stage, uint64_t) {}
  static NoopOpClock ForChunk(Stage) { return {}; }
  NoopOpClock ForOp(SlowOpKind, uint64_t, uint32_t) const { return {}; }
  void Mark(Stage, uint64_t = 0) {}
  void MarkIoDone() {}
  template <class... Args>
  void Finish(Args&&...) {}
  void Leave(bool, uint32_t) {}
};

/// What a device op carries from its submitter to its executor: the
/// submit time, plus the pickup time its executor stamps (RunIo).
struct IoStamp {
  uint64_t submit_ns = 0;
  uint64_t pickup_ns = 0;

  static IoStamp Now() { return IoStamp{NowNs(), 0}; }
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
/// — under the op's stamp. kExecute stamps the pickup and wraps `fn` in
/// the io_exec perf segment; kKernel takes the submit as the pickup (the
/// kernel executed the op). Every hop publishes the pickup to the
/// callbacks `fn` runs, whose op clocks mark their I/O stages from it
/// (OpClock::MarkIoDone).
template <class Fn>
void RunIo(IoStamp& stamp, IoHop hop, Fn&& fn) {
  uint64_t& published = CurrentIoPickupNs();
  uint64_t saved = published;
  if (hop == IoHop::kExecute) stamp.pickup_ns = NowNs();
  if (hop == IoHop::kKernel) stamp.pickup_ns = stamp.submit_ns;
  published = stamp.pickup_ns;
  if (hop == IoHop::kExecute) {
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

}  // namespace obs
}  // namespace faster

#endif  // FASTER_OBS_CLOCK_H_
