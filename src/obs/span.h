#ifndef FASTER_OBS_SPAN_H_
#define FASTER_OBS_SPAN_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <vector>

#include "obs/seq_ring.h"
#include "obs/stats.h"
#include "obs/trace.h"

/// Per-operation lifecycle spans (Dapper-style causal tracing).
///
/// A *trace* is one user-visible operation (Read/Upsert/Rmw/Delete or one
/// batch chunk) identified by a 64-bit trace id; a *span* is one timed
/// segment of it (the synchronous entry, the pending-I/O window, the pool
/// execution, a retry, a pipeline stage), identified by a span id and
/// linked to its parent span. Spans cross threads by value: the store
/// copies the ambient `TraceContext` into each `PendingContext`/`IoJob`
/// when an operation goes asynchronous and re-establishes it (ResumedSpan)
/// wherever the operation continues, so a storage read's spans land under
/// the same trace id as the Read() that issued it.
///
/// Recording follows the obs:: sharding discipline (stats.h): every thread
/// owns a SeqRing of span records (seq_ring.h), so `Snapshot()` never
/// returns a torn record and allocation lives only on the snapshot side.
/// Sampling is 1-in-N per root (SetSpanSampleEvery); child spans inherit
/// the decision through the ambient context, so a trace is always
/// recorded whole or not at all.
///
/// Compile-out: instrumentation sites use the `Stat*Span` aliases, which
/// resolve to no-op twins unless built with -DFASTER_STATS=ON — no clock
/// reads, no ring writes, no thread-local traffic in default builds. The
/// real types stay compiled everywhere so tests can drive them directly.

namespace faster {
namespace obs {

/// Span kinds (what segment of an operation's life a span covers).
enum class SpanKind : uint16_t {
  kNone = 0,
  kRead,          // Read() synchronous entry
  kUpsert,        // Upsert() entry
  kRmw,           // Rmw() entry
  kDelete,        // Delete() entry
  kPendingIo,     // first I/O issue -> completion processed (whole chain)
  kIoQueue,       // pool submit -> worker dequeue (queueing delay)
  kIoExec,        // device job body on the pool worker
  kIoComplete,    // owner thread processing one completed context
  kRetryFuzzy,    // one fuzzy-RMW retry attempt at CompletePending
  kBatchChunk,    // one ExecuteChunk pass (arg = ops in the chunk)
  kBatchHash,     // pipeline stage 1: hash + bucket prefetch
  kBatchResolve,  // pipeline stage 2: stable resolve + record prefetch
  kBatchExecute,  // pipeline stage 3: execute + coalesced I/O submit
  kNetRequest,    // one server event-loop turn: socket read -> reply flush
  kNetParse,      // RESP frame parsing within a turn
  kNetFlush,      // reply rendering + socket writes within a turn
  kIoPoll,        // one non-empty Poll() sweep (arg = completions reaped)
};

inline const char* SpanKindName(SpanKind k) {
  switch (k) {
    case SpanKind::kNone: return "none";
    case SpanKind::kRead: return "read";
    case SpanKind::kUpsert: return "upsert";
    case SpanKind::kRmw: return "rmw";
    case SpanKind::kDelete: return "delete";
    case SpanKind::kPendingIo: return "pending_io";
    case SpanKind::kIoQueue: return "io_queue";
    case SpanKind::kIoExec: return "io_exec";
    case SpanKind::kIoComplete: return "io_complete";
    case SpanKind::kRetryFuzzy: return "retry_fuzzy";
    case SpanKind::kBatchChunk: return "batch_chunk";
    case SpanKind::kBatchHash: return "batch_hash";
    case SpanKind::kBatchResolve: return "batch_resolve";
    case SpanKind::kBatchExecute: return "batch_execute";
    case SpanKind::kNetRequest: return "net_request";
    case SpanKind::kNetParse: return "net_parse";
    case SpanKind::kNetFlush: return "net_flush";
    case SpanKind::kIoPoll: return "io_poll";
  }
  return "unknown";
}

/// One completed span, as copied out of the ring.
struct SpanRecord {
  uint64_t trace_id;
  uint64_t span_id;
  uint64_t parent_id;  // 0 for a root span
  uint64_t start_ns;
  uint64_t end_ns;
  uint32_t arg;
  uint16_t kind;  // SpanKind
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

/// Root-span sampling period: 1-in-N operations start a trace (0 disables
/// span recording entirely). Tests set 1 for determinism.
inline std::atomic<uint32_t>& SpanSamplePeriod() {
  // order: relaxed load/store — a tuning knob read per candidate root; no
  // data is published through it.
  static std::atomic<uint32_t> every{64};
  return every;
}

inline void SetSpanSampleEvery(uint32_t n) {
  SpanSamplePeriod().store(n, std::memory_order_relaxed);
}
inline uint32_t SpanSampleEvery() {
  return SpanSamplePeriod().load(std::memory_order_relaxed);
}

/// The ambient trace context of the calling thread: which span any new
/// child work should attach to. {0, 0} means "no active trace".
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
};

inline TraceContext& CurrentTrace() {
  thread_local TraceContext ctx;
  return ctx;
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
              SpanKind kind) {
    uint32_t tid = Thread::Id();
    rings_[tid].Push(SpanRecord{trace_id, span_id, parent_id, start_ns, end_ns,
                                arg, static_cast<uint16_t>(kind),
                                static_cast<uint16_t>(tid)});
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

// ---------------------------------------------------------------------------
// RAII span scopes (real types; see the Stat* aliases at the bottom).
// ---------------------------------------------------------------------------

/// An operation entry span: a sampled *root* when no trace is active on
/// this thread, a *child* of the ambient span otherwise (so single ops
/// executed inside a batch fallback attach to the chunk's trace). While
/// alive, the ambient context points at this span.
class OpSpan {
 public:
  explicit OpSpan(SpanKind kind, uint32_t arg = 0) : kind_{kind}, arg_{arg} {
    TraceContext& cur = CurrentTrace();
    saved_ = cur;
    if (cur.trace_id != 0) {
      trace_id_ = cur.trace_id;
      parent_id_ = cur.span_id;
      span_id_ = NewSpanId();
    } else if (SampleRoot()) {
      trace_id_ = NewSpanId();
      parent_id_ = 0;
      span_id_ = trace_id_;  // convention: a root's span id == trace id
    } else {
      return;  // unsampled: no clock read, no ring write
    }
    cur.trace_id = trace_id_;
    cur.span_id = span_id_;
    start_ns_ = NowNs();
  }

  ~OpSpan() {
    if (trace_id_ != 0) {
      GlobalSpanRing().Record(trace_id_, span_id_, parent_id_, start_ns_,
                              NowNs(), arg_, kind_);
      CurrentTrace() = saved_;
    }
  }

  OpSpan(const OpSpan&) = delete;
  OpSpan& operator=(const OpSpan&) = delete;

  bool active() const { return trace_id_ != 0; }
  uint64_t trace_id() const { return trace_id_; }
  uint64_t span_id() const { return span_id_; }

 private:
  static bool SampleRoot() {
    uint32_t every = SpanSampleEvery();
    if (every == 0) return false;
    if (every == 1) return true;
    thread_local uint32_t tick = 0;
    return ++tick % every == 0;
  }

  SpanKind kind_;
  uint32_t arg_;
  uint64_t trace_id_ = 0;
  uint64_t span_id_ = 0;
  uint64_t parent_id_ = 0;
  uint64_t start_ns_ = 0;
  TraceContext saved_;
};

/// A child span: active only when the calling thread already has an
/// ambient trace (i.e. the root was sampled). Used for pipeline stages
/// and other sub-segments that never start a trace themselves.
class ChildSpan {
 public:
  explicit ChildSpan(SpanKind kind, uint32_t arg = 0)
      : kind_{kind}, arg_{arg} {
    TraceContext& cur = CurrentTrace();
    if (cur.trace_id == 0) return;
    saved_ = cur;
    trace_id_ = cur.trace_id;
    parent_id_ = cur.span_id;
    span_id_ = NewSpanId();
    cur.span_id = span_id_;
    start_ns_ = NowNs();
  }

  ~ChildSpan() {
    if (trace_id_ != 0) {
      GlobalSpanRing().Record(trace_id_, span_id_, parent_id_, start_ns_,
                              NowNs(), arg_, kind_);
      CurrentTrace() = saved_;
    }
  }

  ChildSpan(const ChildSpan&) = delete;
  ChildSpan& operator=(const ChildSpan&) = delete;

  bool active() const { return trace_id_ != 0; }
  uint64_t trace_id() const { return trace_id_; }
  uint64_t span_id() const { return span_id_; }

 private:
  SpanKind kind_;
  uint32_t arg_;
  uint64_t trace_id_ = 0;
  uint64_t span_id_ = 0;
  uint64_t parent_id_ = 0;
  uint64_t start_ns_ = 0;
  TraceContext saved_;
};

/// Re-establishes a trace context captured on another thread (or at an
/// earlier time) around a continuation: I/O pool execution, completion
/// processing, fuzzy retries. Inactive when the captured trace id is 0
/// (the originating operation was not sampled).
class ResumedSpan {
 public:
  ResumedSpan(SpanKind kind, uint64_t trace_id, uint64_t parent_id,
              uint32_t arg = 0)
      : kind_{kind}, arg_{arg}, trace_id_{trace_id}, parent_id_{parent_id} {
    if (trace_id_ == 0) return;
    TraceContext& cur = CurrentTrace();
    saved_ = cur;
    span_id_ = NewSpanId();
    cur.trace_id = trace_id_;
    cur.span_id = span_id_;
    start_ns_ = NowNs();
  }

  ~ResumedSpan() {
    if (trace_id_ != 0) {
      GlobalSpanRing().Record(trace_id_, span_id_, parent_id_, start_ns_,
                              NowNs(), arg_, kind_);
      CurrentTrace() = saved_;
    }
  }

  ResumedSpan(const ResumedSpan&) = delete;
  ResumedSpan& operator=(const ResumedSpan&) = delete;

  bool active() const { return trace_id_ != 0; }
  uint64_t trace_id() const { return trace_id_; }
  uint64_t span_id() const { return span_id_; }

 private:
  SpanKind kind_;
  uint32_t arg_;
  uint64_t trace_id_;
  uint64_t span_id_ = 0;
  uint64_t parent_id_;
  uint64_t start_ns_ = 0;
  TraceContext saved_;
};

// ---------------------------------------------------------------------------
// Chrome trace-event JSON (Perfetto-loadable).
// ---------------------------------------------------------------------------

/// Writes spans as "X" (complete) events and ring events as "i" (instant)
/// events in the Chrome trace-event JSON format, which Perfetto and
/// chrome://tracing load directly. Timestamps are microseconds with
/// nanosecond precision; span ids are carried in args so
/// tools/trace2perfetto.py can re-link parents.
inline void WriteChromeTrace(std::ostream& os,
                             const std::vector<SpanRecord>& spans,
                             const std::vector<TraceEvent>& events) {
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
    os << ",\n{\"name\":\"" << SpanKindName(static_cast<SpanKind>(s.kind))
       << "\",\"cat\":\"span\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
       << ",\"ts\":" << us(s.start_ns);
    os << ",\"dur\":" << us(dur);
    os << ",\"args\":{\"trace_id\":" << s.trace_id
       << ",\"span_id\":" << s.span_id << ",\"parent_span_id\":" << s.parent_id
       << ",\"arg\":" << s.arg << "}}";
  }
  for (const TraceEvent& e : events) {
    os << ",\n{\"name\":\"" << EvName(static_cast<Ev>(e.id))
       << "\",\"cat\":\"event\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":"
       << e.tid << ",\"ts\":" << us(e.ns) << ",\"args\":{\"arg\":" << e.arg
       << "}}";
  }
  os << "\n]}\n";
}

// ---------------------------------------------------------------------------
// No-op twins and the selected aliases.
// ---------------------------------------------------------------------------

class NoopOpSpan {
 public:
  explicit NoopOpSpan(SpanKind, uint32_t = 0) {}
  bool active() const { return false; }
  uint64_t trace_id() const { return 0; }
  uint64_t span_id() const { return 0; }
};

class NoopChildSpan {
 public:
  explicit NoopChildSpan(SpanKind, uint32_t = 0) {}
  bool active() const { return false; }
  uint64_t trace_id() const { return 0; }
  uint64_t span_id() const { return 0; }
};

class NoopResumedSpan {
 public:
  NoopResumedSpan(SpanKind, uint64_t, uint64_t, uint32_t = 0) {}
  bool active() const { return false; }
  uint64_t trace_id() const { return 0; }
  uint64_t span_id() const { return 0; }
};

#if FASTER_STATS_ENABLED
using StatOpSpan = OpSpan;
using StatChildSpan = ChildSpan;
using StatResumedSpan = ResumedSpan;
#else
using StatOpSpan = NoopOpSpan;
using StatChildSpan = NoopChildSpan;
using StatResumedSpan = NoopResumedSpan;
#endif

}  // namespace obs
}  // namespace faster

#endif  // FASTER_OBS_SPAN_H_
