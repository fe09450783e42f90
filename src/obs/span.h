#ifndef FASTER_OBS_SPAN_H_
#define FASTER_OBS_SPAN_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <ostream>
#include <vector>

#include "obs/seq_ring.h"
#include "obs/stage.h"
#include "obs/stats.h"

/// Per-operation lifecycle spans (Dapper-style causal tracing).
///
/// A *trace* is one user-visible operation (Read/Upsert/Rmw/Delete or one
/// batch chunk) identified by a 64-bit trace id; a *span* is one timed
/// segment of it (an op, its pending-I/O window, one of its I/O stages, a
/// pipeline stage), identified by a span id and linked to its parent span.
/// An op's clock (clock.h) carries its trace position across the
/// asynchronous boundary by value and records the spans of its I/O stages
/// from its own marks, on whichever thread makes them, so a storage read's
/// spans land under the same trace id as the Read() that issued it.
///
/// Recording follows the obs:: sharding discipline (stats.h): every thread
/// owns a SeqRing of span records (seq_ring.h), so `Snapshot()` never
/// returns a torn record and allocation lives only on the snapshot side.
/// Sampling is 1-in-N per root (SetSpanSampleEvery); child spans inherit
/// the decision through the ambient context, so a trace is always
/// recorded whole or not at all.
///
/// Compile-out: instrumentation sites use the `StatSpan` alias, which
/// resolves to a no-op twin unless built with -DFASTER_STATS=ON — no clock
/// reads, no ring writes, no thread-local traffic in default builds. The
/// real types stay compiled everywhere so tests can drive them directly.
/// With stats, sampling is off by default, and an op joins a trace only
/// while some sink is armed (clock.h): a quiet op pays no tracing.

namespace faster {
namespace obs {

/// Root span kinds: the segments that are not a Stage. A span record's
/// kind is either a Stage (0 .. kNumStages-1) or one of these.
enum class SpanKind : uint16_t {
  kRead = kNumStages,  // Read() entry (kRead + SlowOpKind for each op)
  kUpsert,             // Upsert() entry
  kRmw,                // Rmw() entry
  kDelete,             // Delete() entry
  kBatchChunk,         // one ExecuteChunk pass (arg = ops in the chunk)
  kNetRequest,         // one server event-loop turn: socket read -> flush
  kPendingIo,          // first I/O issue -> completion processed
  kCheckpoint,         // Checkpoint() (arg = 0 ok / 1 error)
  kGrow,               // GrowIndex() (arg = new log2 size / 0 on failure)
};

/// An op's entry span kind.
inline SpanKind SpanKindOf(SlowOpKind op) {
  return static_cast<SpanKind>(static_cast<uint16_t>(SpanKind::kRead) +
                               static_cast<uint16_t>(op));
}

/// What a span record covers: a Stage or a root SpanKind.
struct SpanLabel {
  constexpr SpanLabel(Stage stage) : id{static_cast<uint16_t>(stage)} {}
  constexpr SpanLabel(SpanKind kind) : id{static_cast<uint16_t>(kind)} {}
  uint16_t id;
};

inline const char* SpanName(uint16_t kind) {
  static constexpr const char* kRoots[] = {
      "read",        "upsert",      "rmw",        "delete",
      "batch_chunk", "net_request", "pending_io", "checkpoint",
      "grow"};
  if (kind < kNumStages) return StageName(static_cast<Stage>(kind));
  uint32_t root = kind - kNumStages;
  return root < std::size(kRoots) ? kRoots[root] : "unknown";
}

/// One completed span, as copied out of the ring.
struct SpanRecord {
  uint64_t trace_id;
  uint64_t span_id;
  uint64_t parent_id;  // 0 for a root span
  uint64_t start_ns;
  uint64_t end_ns;
  uint32_t arg;
  uint16_t kind;  // SpanLabel::id
  uint16_t tid;
};

/// Process-wide span/trace id allocator. A single relaxed fetch_add is
/// paid only per *sampled* span, so contention is negligible at any
/// realistic sampling rate, and ids never collide across thread-slot
/// reuse (unlike a thread-local sequence).
inline uint64_t NewSpanId() {
  // order: relaxed fetch_add — a unique-id counter; no data is published
  // through it.
  static std::atomic<uint64_t> seq{0};
  return seq.fetch_add(1, std::memory_order_relaxed) + 1;
}

/// Root-span sampling: 1-in-N roots start a trace (0, the default,
/// disables span recording; tests set 1 for determinism). N lives in the
/// sink word (stage.h), so a change restarts each thread's countdown.
inline void SetSpanSampleEvery(uint32_t n) {
  SetSinks(~uint64_t{0} << kSinkSampleShift,
           uint64_t{n} << kSinkSampleShift);
}
inline uint32_t SpanSampleEvery() {
  return static_cast<uint32_t>(SinkWord().load(std::memory_order_relaxed) >>
                               kSinkSampleShift);
}

/// A trace position: the trace and the span new child work attaches to.
/// {0, 0} means "no active trace".
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
};

/// The calling thread's tracing state: its ambient context and its root
/// sampling countdown.
struct ThreadTrace {
  TraceContext ambient;
  uint64_t sinks = 0;  // the SinkWord() `left` counts under
  uint32_t left = 0;   // roots until the next sampled one
};

inline ThreadTrace& ThisThreadTrace() {
  thread_local ThreadTrace t;
  return t;
}

/// The ambient trace context of the calling thread: which span any new
/// child work should attach to. Only a Span sets it.
inline TraceContext& CurrentTrace() { return ThisThreadTrace().ambient; }

/// SampleRoot past its countdown, or after the sink word changed.
[[gnu::noinline]] inline bool SampleRootSlow(ThreadTrace& t) {
  uint64_t sinks = SinkWord().load(std::memory_order_relaxed);
  auto every = static_cast<uint32_t>(sinks >> kSinkSampleShift);
  if (t.sinks != sinks) {
    t.sinks = sinks;
    t.left = every;  // the every-th root from here is sampled
  }
  if (every == 0 || t.left > 1) {
    t.left = every == 0 ? UINT32_MAX : t.left - 1;
    return false;
  }
  t.left = every;
  return true;
}

/// Counts one candidate root on the calling thread: true for each N-th,
/// which starts a trace. Other roots pay two compares and a decrement.
inline bool SampleRoot(ThreadTrace& t = ThisThreadTrace()) {
  uint64_t sinks = SinkWord().load(std::memory_order_relaxed);
  if (t.sinks == sinks && t.left > 1) [[likely]] {
    --t.left;
    return false;
  }
  return SampleRootSlow(t);
}

/// Per-thread ring of completed spans: one SeqRing per thread
/// (seq_ring.h), so a snapshot never returns a torn record.
class SpanRing {
 public:
  /// Spans retained per thread.
  static constexpr uint32_t kSpansPerThread = 256;
  using Rings = ThreadRings<SpanRecord, kSpansPerThread>;

  void Record(uint64_t trace_id, uint64_t span_id, uint64_t parent_id,
              uint64_t start_ns, uint64_t end_ns, uint32_t arg,
              SpanLabel kind, uint32_t slot = Thread::Id()) {
    rings_[slot].Push(SpanRecord{trace_id, span_id, parent_id, start_ns,
                                 end_ns, arg, kind.id,
                                 static_cast<uint16_t>(slot)});
  }

  /// The per-thread rings, read raw by the flight recorder.
  const Rings& rings() const { return rings_; }

  /// Copies out every recorded span, sorted by start time across threads.
  std::vector<SpanRecord> Snapshot() const {
    return rings_.Snapshot(&SpanRecord::start_ns);
  }

 private:
  Rings rings_;
};

/// The process-wide span ring every real span scope records into. Lazily
/// constructed, so stats-off builds that never touch spans allocate
/// nothing; never destroyed, so the flight recorder can read it until the
/// process is gone.
inline SpanRing& GlobalSpanRing() {
  static SpanRing* ring = new SpanRing;
  return *ring;
}

/// Snapshot of the global ring; empty when stats are compiled out (the
/// ring is never constructed).
inline std::vector<SpanRecord> SnapshotSpans() {
  if constexpr (kStatsEnabled) {
    return GlobalSpanRing().Snapshot();
  } else {
    return {};
  }
}

/// Records a finished segment of the trace `parent` belongs to, as a child
/// of `parent` (a no-op when `parent` is untraced).
inline void RecordSpan(TraceContext parent, SpanLabel kind, uint64_t start_ns,
                       uint64_t end_ns, uint32_t arg = 0,
                       uint32_t slot = Thread::Id()) {
  if (parent.trace_id == 0) return;
  GlobalSpanRing().Record(parent.trace_id, NewSpanId(), parent.span_id,
                          start_ns, end_ns, arg, kind, slot);
}

/// Tag for a root span recorded on every call, whatever the sampling
/// period: rare store-wide work (a checkpoint, a grow).
struct EveryCall {};

/// RAII span scope (real type; see the StatSpan alias at the bottom). It
/// opens one of three ways, and while active the ambient context points at
/// it, so nested work parents under it:
///  - `Span{SpanKind}` a sampled *root* (a batch chunk, a server turn) when
///    no trace is active on this thread, a *child* of the ambient span
///    otherwise;
///  - `Span{SpanKind, EveryCall{}}` a root, always;
///  - `Span{Stage}` a child of the ambient span, inert without one: a
///    stage never starts a trace itself.
/// An op's own spans come from its clock (clock.h), which carries the op's
/// trace position across threads.
class Span {
 public:
  explicit Span(SpanKind root, uint32_t arg = 0) : kind_{root}, arg_{arg} {
    TraceContext cur = CurrentTrace();
    if (cur.trace_id != 0) {
      Open(cur, NewSpanId());
    } else if (SampleRoot()) {
      uint64_t id = NewSpanId();
      Open(TraceContext{id, 0}, id);  // a root's span id == its trace id
    }
  }
  Span(SpanKind root, EveryCall) : kind_{root}, arg_{0} {
    uint64_t id = NewSpanId();
    Open(TraceContext{id, 0}, id);
  }
  explicit Span(Stage stage, uint32_t arg = 0) : kind_{stage}, arg_{arg} {
    TraceContext cur = CurrentTrace();
    if (cur.trace_id != 0) Open(cur, NewSpanId());
  }

  ~Span() {
    if (trace_id_ != 0) {
      GlobalSpanRing().Record(trace_id_, span_id_, parent_id_, start_ns_,
                              NowNs(), arg_, kind_);
      CurrentTrace() = saved_;
    }
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// The span's result, recorded when it closes.
  void set_arg(uint32_t arg) { arg_ = arg; }
  bool active() const { return trace_id_ != 0; }
  uint64_t trace_id() const { return trace_id_; }
  uint64_t span_id() const { return span_id_; }

 private:
  void Open(TraceContext parent, uint64_t span_id) {
    TraceContext& cur = CurrentTrace();
    saved_ = cur;
    trace_id_ = parent.trace_id;
    parent_id_ = parent.span_id;
    span_id_ = span_id;
    cur = TraceContext{trace_id_, span_id_};
    start_ns_ = NowNs();
  }

  SpanLabel kind_;
  uint32_t arg_;
  uint64_t trace_id_ = 0;
  uint64_t span_id_ = 0;
  uint64_t parent_id_ = 0;
  uint64_t start_ns_ = 0;
  TraceContext saved_;
};

// ---------------------------------------------------------------------------
// Chrome trace-event JSON (Perfetto-loadable).
// ---------------------------------------------------------------------------

/// Writes spans as "X" (complete) events in the Chrome trace-event JSON
/// format, which Perfetto and chrome://tracing load directly. Timestamps
/// are microseconds with nanosecond precision; span ids are carried in
/// args so tools/trace2perfetto.py can re-link parents.
inline void WriteChromeTrace(std::ostream& os,
                             const std::vector<SpanRecord>& spans) {
  os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
        "\"args\":{\"name\":\"faster\"}}";
  char buf[64];
  auto us = [&buf](uint64_t ns) -> const char* {
    std::snprintf(buf, sizeof buf, "%llu.%03u",
                  static_cast<unsigned long long>(ns / 1000),
                  static_cast<unsigned>(ns % 1000));
    return buf;
  };
  for (const SpanRecord& s : spans) {
    uint64_t dur = s.end_ns >= s.start_ns ? s.end_ns - s.start_ns : 0;
    os << ",\n{\"name\":\"" << SpanName(s.kind)
       << "\",\"cat\":\"span\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
       << ",\"ts\":" << us(s.start_ns);
    os << ",\"dur\":" << us(dur);
    os << ",\"args\":{\"trace_id\":" << s.trace_id
       << ",\"span_id\":" << s.span_id << ",\"parent_span_id\":" << s.parent_id
       << ",\"arg\":" << s.arg << "}}";
  }
  os << "\n]}\n";
}

/// No-op twin for stats-off builds.
class NoopSpan {
 public:
  template <class... Args>
  explicit NoopSpan(Args&&...) {}
  void set_arg(uint32_t) {}
};

#if FASTER_STATS_ENABLED
using StatSpan = Span;
#else
using StatSpan = NoopSpan;
#endif

}  // namespace obs
}  // namespace faster

#endif  // FASTER_OBS_SPAN_H_
