#include "obs/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/faster.h"
#include "core/functions.h"
#include "device/memory_device.h"
#include "mini_json.h"
#include "obs/clock.h"
#include "obs/span.h"
#include "obs/store_view.h"
#include "parking_device.h"

namespace faster {
namespace {

using obs::Counter;
using obs::Gauge;
using obs::Histogram;
using obs::Registry;

// ---------------------------------------------------------------------------
// Counter
// ---------------------------------------------------------------------------

TEST(StatsCounterTest, AddAndSum) {
  Counter c;
  EXPECT_EQ(c.Sum(), 0u);
  c.Inc();
  c.Add(41);
  EXPECT_EQ(c.Sum(), 42u);
}

// Threads that exit release their Thread::Id() slot; later threads reuse
// it. The shard must keep the dead thread's contribution and the new
// tenant's increments must land on top of it (release/acquire slot
// hand-off in Thread makes this exact, not approximate).
TEST(StatsCounterTest, ExactAcrossThreadExitAndSlotReuse) {
  Counter c;
  constexpr uint32_t kBatches = 4;
  constexpr uint32_t kThreads = 8;
  constexpr uint64_t kPerThread = 10000;
  for (uint32_t batch = 0; batch < kBatches; ++batch) {
    std::vector<std::thread> threads;
    for (uint32_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&c] {
        for (uint64_t i = 0; i < kPerThread; ++i) c.Inc();
      });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(c.Sum(), kPerThread * kThreads * (batch + 1));
  }
}

// ---------------------------------------------------------------------------
// Gauge
// ---------------------------------------------------------------------------

// An increment on one thread may be balanced by a decrement on a different
// thread (worker submits I/O, another thread polls it to completion).
// Individual shards go negative/positive but the cross-shard sum must stay
// exact.
TEST(StatsGaugeTest, CrossThreadIncDecSumsToZero) {
  Gauge g;
  constexpr uint64_t kOps = 5000;
  for (uint64_t i = 0; i < kOps; ++i) g.Inc();
  std::thread dec([&g] {
    for (uint64_t i = 0; i < kOps; ++i) g.Dec();
  });
  dec.join();
  EXPECT_EQ(g.Value(), 0);
  g.Add(7);
  EXPECT_EQ(g.Value(), 7);
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

TEST(StatsHistogramTest, BucketBoundaries) {
  // Bucket 0 holds only the value 0; bucket b holds [2^(b-1), 2^b).
  EXPECT_EQ(Histogram::BucketFor(0), 0u);
  EXPECT_EQ(Histogram::BucketFor(1), 1u);
  EXPECT_EQ(Histogram::BucketFor(2), 2u);
  EXPECT_EQ(Histogram::BucketFor(3), 2u);
  EXPECT_EQ(Histogram::BucketFor(4), 3u);
  EXPECT_EQ(Histogram::BucketFor(7), 3u);
  EXPECT_EQ(Histogram::BucketFor(8), 4u);
  EXPECT_EQ(Histogram::BucketFor((uint64_t{1} << 61) - 1), 61u);
  EXPECT_EQ(Histogram::BucketFor(uint64_t{1} << 61), 62u);
  // Everything with bit_width > 62 lands in the overflow bucket.
  EXPECT_EQ(Histogram::BucketFor(uint64_t{1} << 62), 63u);
  EXPECT_EQ(Histogram::BucketFor(UINT64_MAX), 63u);

  EXPECT_EQ(Histogram::BucketUpperBound(0), 0u);
  EXPECT_EQ(Histogram::BucketUpperBound(1), 1u);
  EXPECT_EQ(Histogram::BucketUpperBound(2), 3u);
  EXPECT_EQ(Histogram::BucketUpperBound(3), 7u);
  EXPECT_EQ(Histogram::BucketUpperBound(62), (uint64_t{1} << 62) - 1);
  EXPECT_EQ(Histogram::BucketUpperBound(63), UINT64_MAX);

  // Round-trip: every value's bucket upper bound is >= the value.
  for (uint64_t v : {uint64_t{0}, uint64_t{1}, uint64_t{2}, uint64_t{3},
                     uint64_t{1000}, uint64_t{1} << 40, UINT64_MAX}) {
    EXPECT_GE(Histogram::BucketUpperBound(Histogram::BucketFor(v)), v);
  }
}

TEST(StatsHistogramTest, CountAndSnapshot) {
  Histogram h;
  EXPECT_EQ(h.Count(), 0u);
  h.Record(0);
  h.Record(5);   // bucket 3 ([4,8))
  h.Record(5);
  h.Record(100);  // bucket 7 ([64,128))
  EXPECT_EQ(h.Count(), 4u);
  uint64_t buckets[Histogram::kNumBuckets];
  h.SnapshotBuckets(buckets);
  EXPECT_EQ(buckets[0], 1u);
  EXPECT_EQ(buckets[3], 2u);
  EXPECT_EQ(buckets[7], 1u);
}

// A record names its row: a small value lands in the row's exact table,
// and rows above 0 also count larger values, so each row counts its
// records while the buckets and the sum still cover every record.
TEST(StatsHistogramTest, RowsCountRecordsAndFoldIntoBuckets) {
  Histogram h;
  uint32_t slot = Thread::Id();
  h.Record(3, slot, 1);
  h.Record(7, slot, 1);
  h.Record(20, slot, 1);  // not exact: bucket 5, and row 1's count
  h.Record(1, slot, 2);
  h.Record(6);    // row 0
  h.Record(100);  // row 0, not exact: no row counts it
  EXPECT_EQ(h.row_slots(1, 1).Sum(), 3u);
  EXPECT_EQ(h.row_slots(2, 1).Sum(), 1u);
  EXPECT_EQ(h.row_slots(1, 2).Sum(), 4u);
  EXPECT_EQ(h.Count(), 6u);
  EXPECT_EQ(h.ValueSum(), 3u + 7 + 20 + 1 + 6 + 100);
  uint64_t buckets[Histogram::kNumBuckets];
  h.SnapshotBuckets(buckets);
  EXPECT_EQ(buckets[1], 1u);  // 1
  EXPECT_EQ(buckets[2], 1u);  // 3
  EXPECT_EQ(buckets[3], 2u);  // 6, 7
  EXPECT_EQ(buckets[5], 1u);  // 20
  EXPECT_EQ(buckets[7], 1u);  // 100
}

TEST(StatsHistogramTest, PercentileReturnsBucketUpperBound) {
  Histogram h;
  EXPECT_EQ(h.Percentile(0.5), 0u);  // empty
  // 99 fast ops at 10 (bucket 4, upper bound 15), one slow op at 1000
  // (bucket 10, upper bound 1023).
  for (int i = 0; i < 99; ++i) h.Record(10);
  h.Record(1000);
  EXPECT_EQ(h.Percentile(0.50), 15u);
  EXPECT_EQ(h.Percentile(0.98), 15u);
  EXPECT_EQ(h.Percentile(1.0), 1023u);
  // The p50 bound is within 2x of the true value.
  EXPECT_GE(h.Percentile(0.50), 10u);
  EXPECT_LT(h.Percentile(0.50), 20u);
}

TEST(StatsHistogramTest, AggregatesAcrossThreads) {
  Histogram h;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < 1000; ++i) h.Record(100);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.Count(), 4000u);
  EXPECT_EQ(h.Percentile(0.999), 127u);
}

// ---------------------------------------------------------------------------
// Registry exposition
// ---------------------------------------------------------------------------

TEST(StatsRegistryTest, JsonRoundTrip) {
  Counter c;
  c.Add(17);
  Gauge g;
  g.Add(-4);
  Histogram h;
  h.Record(0);
  h.Record(300);
  Registry reg;
  reg.Add("ops", &c);
  reg.Add("depth", &g);
  reg.Add("lat", &h);
  reg.AddValue("extra", 5);
  std::string json = reg.Json();
  EXPECT_TRUE(MiniJson::Valid(json)) << json;
  EXPECT_NE(json.find("\"ops\":17"), std::string::npos) << json;
  EXPECT_NE(json.find("\"extra\":5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"depth\":-4"), std::string::npos) << json;
  EXPECT_NE(json.find("\"count\":2"), std::string::npos) << json;
  // Non-empty buckets as [upper_bound, count] pairs: 0 once, 300 -> bucket
  // [256,512) upper bound 511.
  EXPECT_NE(json.find("[0,1]"), std::string::npos) << json;
  EXPECT_NE(json.find("[511,1]"), std::string::npos) << json;
}

TEST(StatsRegistryTest, EmptyRegistryJsonIsValid) {
  Registry reg;
  EXPECT_TRUE(MiniJson::Valid(reg.Json()));
}

// ---------------------------------------------------------------------------
// ScopedTimer, noop twins
// ---------------------------------------------------------------------------

TEST(StatsTimerTest, ScopedTimerRecordsOnce) {
  Histogram h;
  {
    obs::ScopedTimerT<Histogram> timer{h};
  }
  EXPECT_EQ(h.Count(), 1u);
}

TEST(StatsNoopTest, NoopTypesAreInert) {
  obs::NoopCounter c;
  c.Inc();
  c.Add(5);
  EXPECT_EQ(c.Sum(), 0u);
  obs::NoopGauge g;
  g.Inc();
  EXPECT_EQ(g.Value(), 0);
  obs::NoopHistogram h;
  h.Record(123);
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.Percentile(0.99), 0u);
  // The registry skips a compiled-out metric rather than export a zero.
  obs::Registry reg;
  reg.Add("x", &c);
  reg.Add("g", &g);
  reg.Add("h", &h);
  reg.Add("s", obs::Registry::Kind::kCounter, obs::SlotSum{});
  EXPECT_EQ(reg.size(), 0u);
  // The clock a PendingContext embeds and the stamp every IoOp embeds
  // cost no bytes without stats.
  if (!obs::kStatsEnabled) {
    EXPECT_TRUE(std::is_empty_v<obs::StatOpClock>);
    EXPECT_TRUE(std::is_empty_v<obs::StatIoStamp>);
  }
}

// ---------------------------------------------------------------------------
// Spans: ring, RAII scopes, sampling, Chrome trace JSON
// ---------------------------------------------------------------------------

// Restores the span sampling period on scope exit so tests can't leak a
// 1-in-1 (or disabled) setting into later tests.
class SpanSampleGuard {
 public:
  explicit SpanSampleGuard(uint32_t every) : saved_{obs::SpanSampleEvery()} {
    obs::SetSpanSampleEvery(every);
  }
  ~SpanSampleGuard() { obs::SetSpanSampleEvery(saved_); }
  SpanSampleGuard(const SpanSampleGuard&) = delete;
  SpanSampleGuard& operator=(const SpanSampleGuard&) = delete;

 private:
  uint32_t saved_;
};

// The global ring accumulates across tests; filter by trace id to isolate.
std::vector<obs::SpanRecord> SpansOfTrace(uint64_t trace_id) {
  std::vector<obs::SpanRecord> out;
  for (const obs::SpanRecord& s : obs::GlobalSpanRing().Snapshot()) {
    if (s.trace_id == trace_id) out.push_back(s);
  }
  return out;
}

uint16_t K(obs::SpanLabel k) { return k.id; }

TEST(SpanRingTest, RecordSnapshotSortedByStart) {
  obs::SpanRing ring;
  ring.Record(7, 2, 1, 300, 400, 9, obs::Stage::kIoExec);
  ring.Record(7, 1, 0, 100, 500, 0, obs::SpanKind::kRead);
  ring.Record(8, 3, 0, 200, 250, 0, obs::SpanKind::kUpsert);
  auto spans = ring.Snapshot();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].start_ns, 100u);
  EXPECT_EQ(spans[0].kind, K(obs::SpanKind::kRead));
  EXPECT_EQ(spans[1].trace_id, 8u);
  EXPECT_EQ(spans[2].span_id, 2u);
  EXPECT_EQ(spans[2].parent_id, 1u);
  EXPECT_EQ(spans[2].arg, 9u);
  EXPECT_EQ(spans[2].end_ns, 400u);
}

TEST(SpanRingTest, WrapsKeepingNewest) {
  obs::SpanRing ring;
  constexpr uint32_t kTotal = obs::SpanRing::kSpansPerThread + 50;
  for (uint32_t i = 0; i < kTotal; ++i) {
    ring.Record(1, i + 1, 0, i + 1, i + 2, i, obs::SpanKind::kRmw);
  }
  auto spans = ring.Snapshot();
  ASSERT_EQ(spans.size(), size_t{obs::SpanRing::kSpansPerThread});
  // The oldest 50 spans were overwritten.
  uint32_t min_arg = UINT32_MAX;
  for (const auto& s : spans) min_arg = std::min(min_arg, s.arg);
  EXPECT_EQ(min_arg, 50u);
}

// Snapshot() racing writers that lap their rings never returns a torn
// record. Every span written satisfies end_ns == start_ns + span_id,
// parent_id == trace_id and arg == low32(trace_id), and consecutive writes
// differ in all of those fields, so a copy mixing two writes breaks one.
TEST(SpanRingTest, SnapshotNeverReturnsTornRecords) {
  obs::SpanRing ring;
  constexpr uint64_t kWriters = 3;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> lapping{0};  // writers past their first lap
  std::vector<std::thread> writers;
  for (uint64_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&ring, &stop, &lapping, w] {
      for (uint64_t i = 1; !stop.load(std::memory_order_relaxed); ++i) {
        uint64_t trace = w << 40 | i;
        uint64_t start = i * 1000;
        ring.Record(trace, i * 7 + w, trace, start, start + i * 7 + w,
                    static_cast<uint32_t>(trace), obs::SpanKind::kRead);
        if (i == obs::SpanRing::kSpansPerThread) {
          lapping.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  while (lapping.load(std::memory_order_relaxed) < kWriters) {
    std::this_thread::yield();
  }
  uint64_t checked = 0;
  uint64_t torn = 0;
  for (int round = 0; round < 1000; ++round) {
    for (const obs::SpanRecord& s : ring.Snapshot()) {
      ++checked;
      if (s.end_ns != s.start_ns + s.span_id || s.parent_id != s.trace_id ||
          s.arg != static_cast<uint32_t>(s.trace_id)) {
        ++torn;
      }
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : writers) t.join();
  EXPECT_GT(checked, 0u);
  EXPECT_EQ(torn, 0u) << "of " << checked << " records";
}

TEST(SpanScopeTest, SampledRootEstablishesAmbientContext) {
  SpanSampleGuard guard{1};
  uint64_t trace_id = 0;
  {
    obs::Span span{obs::SpanKind::kRead};
    ASSERT_TRUE(span.active());
    trace_id = span.trace_id();
    // Convention: a root's span id == its trace id, parent 0.
    EXPECT_EQ(span.span_id(), trace_id);
    EXPECT_EQ(obs::CurrentTrace().trace_id, trace_id);
    EXPECT_EQ(obs::CurrentTrace().span_id, span.span_id());
  }
  EXPECT_EQ(obs::CurrentTrace().trace_id, 0u);  // context restored
  auto spans = SpansOfTrace(trace_id);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].parent_id, 0u);
  EXPECT_EQ(spans[0].kind, K(obs::SpanKind::kRead));
  EXPECT_GE(spans[0].end_ns, spans[0].start_ns);
}

TEST(SpanScopeTest, NestedOpSpanAttachesAsChild) {
  SpanSampleGuard guard{1};
  uint64_t trace_id = 0, root_id = 0, child_id = 0;
  {
    obs::Span root{obs::SpanKind::kBatchChunk, 3};
    trace_id = root.trace_id();
    root_id = root.span_id();
    obs::Span child{obs::SpanKind::kUpsert};
    ASSERT_TRUE(child.active());
    EXPECT_EQ(child.trace_id(), trace_id);  // no new trace started
    child_id = child.span_id();
    EXPECT_NE(child_id, root_id);
  }
  auto spans = SpansOfTrace(trace_id);
  ASSERT_EQ(spans.size(), 2u);
  for (const auto& s : spans) {
    if (s.span_id == child_id) {
      EXPECT_EQ(s.parent_id, root_id);
    }
    if (s.span_id == root_id) {
      EXPECT_EQ(s.parent_id, 0u);
    }
  }
}

TEST(SpanScopeTest, ChildSpanInactiveWithoutAmbientTrace) {
  ASSERT_EQ(obs::CurrentTrace().trace_id, 0u);
  obs::Span stage{obs::Stage::kHash};
  EXPECT_FALSE(stage.active());  // never starts a trace on its own
}

TEST(SpanScopeTest, ChildSpanParentedUnderAmbient) {
  SpanSampleGuard guard{1};
  uint64_t trace_id = 0, root_id = 0, stage_id = 0;
  {
    obs::Span root{obs::SpanKind::kBatchChunk};
    trace_id = root.trace_id();
    root_id = root.span_id();
    {
      obs::Span stage{obs::Stage::kHash};
      ASSERT_TRUE(stage.active());
      stage_id = stage.span_id();
      // Work nested inside the stage parents under the stage.
      EXPECT_EQ(obs::CurrentTrace().span_id, stage_id);
    }
    EXPECT_EQ(obs::CurrentTrace().span_id, root_id);  // restored to root
  }
  auto spans = SpansOfTrace(trace_id);
  ASSERT_EQ(spans.size(), 2u);
  for (const auto& s : spans) {
    if (s.span_id == stage_id) {
      EXPECT_EQ(s.parent_id, root_id);
    }
  }
}

// An op's clock carries its trace position by value: the stages another
// thread marks record their spans there, on that thread's shard, under the
// op's own span.
TEST(SpanScopeTest, ClockTraceContinuesOnAnotherThread) {
  SpanSampleGuard guard{1};
  obs::OpClock clock{obs::SlowOpKind::kRead, 1};
  obs::TraceContext op = clock.trace();
  ASSERT_NE(op.trace_id, 0u);
  EXPECT_EQ(obs::CurrentTrace().trace_id, 0u);  // the clock sets no ambient
  uint64_t issue = obs::NowNs();
  clock.Mark(obs::Stage::kIoQueue, issue);
  std::thread worker([&clock, issue] {
    clock.Mark(obs::Stage::kIoExec, issue + 100);
    clock.Mark(obs::Stage::kIoComplete, issue + 300);
  });
  worker.join();
  uint16_t owner_tid = static_cast<uint16_t>(Thread::Id());
  clock.Finish(issue + 1000);
  auto spans = SpansOfTrace(op.trace_id);
  std::map<uint16_t, obs::SpanRecord> by_kind;
  for (const auto& s : spans) by_kind[s.kind] = s;
  ASSERT_EQ(spans.size(), 5u);  // the op, its 3 I/O stages, pending_io
  const obs::SpanRecord& own = by_kind[K(obs::SpanKind::kRead)];
  EXPECT_EQ(own.span_id, op.trace_id);  // a root: span id == trace id
  EXPECT_EQ(own.end_ns, issue + 1000);
  for (obs::Stage stage : {obs::Stage::kIoQueue, obs::Stage::kIoExec}) {
    EXPECT_EQ(by_kind[K(stage)].parent_id, own.span_id);
    EXPECT_NE(by_kind[K(stage)].tid, owner_tid);  // the worker's shard
  }
  EXPECT_EQ(by_kind[K(obs::Stage::kIoComplete)].start_ns, issue + 300);
  EXPECT_EQ(by_kind[K(obs::SpanKind::kPendingIo)].start_ns, issue);
}

TEST(SpanScopeTest, UntracedClockRecordsNoSpans) {
  SpanSampleGuard guard{0};
  size_t before = obs::GlobalSpanRing().Snapshot().size();
  obs::OpClock clock{obs::SlowOpKind::kRead, 1};
  EXPECT_EQ(clock.trace().trace_id, 0u);
  uint64_t issue = obs::NowNs();
  clock.Mark(obs::Stage::kIoQueue, issue);
  clock.Mark(obs::Stage::kIoComplete, issue + 10);
  clock.Finish(issue + 20);
  EXPECT_EQ(obs::GlobalSpanRing().Snapshot().size(), before);
}

TEST(SpanScopeTest, SamplingZeroDisablesRecording) {
  SpanSampleGuard guard{0};
  obs::Span span{obs::SpanKind::kRead};
  EXPECT_FALSE(span.active());
  EXPECT_EQ(obs::CurrentTrace().trace_id, 0u);
}

TEST(SpanScopeTest, OneInNSampling) {
  SpanSampleGuard guard{4};
  uint32_t sampled = 0;
  // Fresh thread => fresh thread-local sampling tick, so the count is
  // deterministic: ops 4 and 8 out of 8 start traces.
  std::thread t([&sampled] {
    for (int i = 0; i < 8; ++i) {
      obs::Span span{obs::SpanKind::kRead};
      if (span.active()) ++sampled;
    }
  });
  t.join();
  EXPECT_EQ(sampled, 2u);
}

TEST(SpanTraceJsonTest, ChromeTraceIsValidJson) {
  std::vector<obs::SpanRecord> spans;
  obs::SpanRecord s{};
  s.trace_id = 42;
  s.span_id = 42;
  s.parent_id = 0;
  s.start_ns = 1500;
  s.end_ns = 3750;
  s.arg = 7;
  s.kind = K(obs::SpanKind::kRead);
  s.tid = 3;
  spans.push_back(s);
  std::ostringstream os;
  obs::WriteChromeTrace(os, spans);
  std::string json = os.str();
  EXPECT_TRUE(MiniJson::Valid(json)) << json;
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos) << json;
  // Timestamps are microseconds with nanosecond precision.
  EXPECT_NE(json.find("\"ts\":1.500"), std::string::npos) << json;
  EXPECT_NE(json.find("\"dur\":2.250"), std::string::npos) << json;
  EXPECT_NE(json.find("\"trace_id\":42"), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"read\""), std::string::npos) << json;
}

TEST(SpanTraceJsonTest, EmptyTraceIsValidJson) {
  std::ostringstream os;
  obs::WriteChromeTrace(os, {});
  EXPECT_TRUE(MiniJson::Valid(os.str())) << os.str();
}

// ---------------------------------------------------------------------------
// Store end-to-end: DumpStats after real operations
// ---------------------------------------------------------------------------

TEST(StatsStoreTest, DumpStatsAfterOps) {
  MemoryDevice device;
  FasterKv<CountStoreFunctions>::Config cfg;
  cfg.table_size = 2048;
  cfg.log.memory_size_bytes = 16 << 20;
  FasterKv<CountStoreFunctions> store{cfg, &device};

  store.StartSession();
  for (uint64_t k = 0; k < 1000; ++k) store.Upsert(k, k);
  uint64_t out = 0;
  for (uint64_t k = 0; k < 1000; ++k) store.Read(k, 1, &out);
  for (uint64_t k = 0; k < 100; ++k) store.Rmw(k, 1);
  store.CompletePending(true);
  store.StopSession();

  std::string json = obs::DumpStats(store.view());
  if constexpr (obs::kStatsEnabled) {
    EXPECT_NE(json.find("\"index.probe_len\""), std::string::npos) << json;
  }
  EXPECT_NE(json.find("\"store.read_mutable\""), std::string::npos);
  // Counts must reflect the ops we ran.
  EXPECT_NE(json.find("\"store.upsert_append\""), std::string::npos);
  EXPECT_TRUE(MiniJson::Valid(json)) << json;
  EXPECT_NE(json.find("\"store.reads\":1000"), std::string::npos) << json;
}

// Every build exports the always-on op counters and their totals; a
// default build exports no compiled-out metric, not even as a zero.
TEST(StatsStoreTest, PrometheusExportsAlwaysOnCounters) {
  MemoryDevice device;
  FasterKv<CountStoreFunctions>::Config cfg;
  cfg.table_size = 2048;
  FasterKv<CountStoreFunctions> store{cfg, &device};
  store.StartSession();
  for (uint64_t k = 0; k < 1000; ++k) store.Upsert(k, k);
  uint64_t out = 0;
  for (uint64_t k = 0; k < 1000; ++k) store.Read(k, 0, &out);
  store.StopSession();

  std::string text = obs::DumpPrometheus(store.view());
  EXPECT_NE(text.find("\nfaster_store_reads_total 1000\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("\nfaster_store_upsert_append_total "),
            std::string::npos)
      << text;
  if constexpr (!obs::kStatsEnabled) {
    for (const char* stats_only :
         {"read_fuzzy", "index_", "hlog_", "device_read_ns"}) {
      EXPECT_EQ(text.find(stats_only), std::string::npos)
          << stats_only << " in\n" << text;
    }
  }
}

// index.finds counts FindEntry calls and index.find_hits their tag
// matches; index.probe_len covers every chain scan, writes' too.
TEST(StatsStoreTest, IndexFindsHitsAndProbeLen) {
  if (!obs::kStatsEnabled) GTEST_SKIP() << "index stats compiled out";
  MemoryDevice device;
  FasterKv<CountStoreFunctions>::Config cfg;
  cfg.table_size = 2048;
  FasterKv<CountStoreFunctions> store{cfg, &device};
  store.StartSession();
  for (uint64_t k = 0; k < 100; ++k) store.Upsert(k, k);
  uint64_t out = 0;
  for (uint64_t k = 0; k < 100; ++k) store.Read(k, 0, &out);
  for (uint64_t k = 1000; k < 1050; ++k) store.Read(k, 0, &out);
  store.StopSession();
  obs::Registry reg;
  obs::CollectStats(store.view(), reg);
  std::map<std::string, uint64_t> counters;
  uint64_t probe_scans = 0;
  reg.ForEach([&](const std::string& name, obs::Registry::Kind kind,
                  obs::SlotSum slots, const obs::Histogram* h, uint64_t) {
    if (kind == obs::Registry::Kind::kCounter) counters[name] = slots.Sum();
    if (name == "index.probe_len") probe_scans = h->Count();
  });
  EXPECT_EQ(counters["index.finds"], 150u);
  EXPECT_GE(counters["index.find_hits"], 100u);
  EXPECT_LE(counters["index.find_hits"], 150u);
  EXPECT_EQ(probe_scans, 250u);  // 100 upserts' slot scans, 150 finds
}

// ---------------------------------------------------------------------------
// Store counters: each op is counted once, by its outcome
// ---------------------------------------------------------------------------

// Drives every op outcome through single ops and ExecuteBatch, then checks
// that the counter block partitions each op kind: a kind's outcome
// counters sum to its GetStats() total, which equals the ops issued. The
// counters deliberately outside the partition:
//  - tag_false_positives refines read_miss (a miss whose tag matched);
//  - rmw_pending_append counts records a pending RMW appends as it
//    resumes, after the RMW was counted by its first outcome (rmw_stable
//    or rmw_fuzzy_deferred);
//  - ios_issued counts device reads, chain hops included, and
//    completed_pending counts pending ops as they finish;
//  - pending_ios and pending_retries are levels, not event counts;
//  - rc_*, batch_* and checkpoints count work done beside the ops.
TEST(StoreCountersTest, EachOpCountedOnceByOutcome) {
  using Store = FasterKv<CountStoreFunctions>;
  using C = obs::StoreCounter;
  MemoryDevice device;
  Store::Config cfg;
  cfg.table_size = 1 << 14;
  cfg.log.memory_size_bytes = 2ull << Address::kOffsetBits;  // spills
  cfg.log.mutable_fraction = 0.5;
  cfg.enable_read_cache = true;
  cfg.read_cache.memory_size_bytes = 2ull << Address::kOffsetBits;
  Store store{cfg, &device};
  auto count = [&store](C c) { return store.counters().Sum(c); };
  uint64_t reads = 0, upserts = 0, rmws = 0, deletes = 0;
  auto read = [&](uint64_t key, uint64_t* out) {
    ++reads;
    return store.Read(key, 0, out);
  };
  auto upsert = [&](uint64_t key, uint64_t value) {
    ++upserts;
    return store.Upsert(key, value);
  };
  auto rmw = [&](uint64_t key, uint64_t delta) {
    ++rmws;
    return store.Rmw(key, delta);
  };
  auto del = [&](uint64_t key) {
    ++deletes;
    return store.Delete(key);
  };
  uint64_t out = 0;
  store.StartSession();

  // Mutable region.
  for (uint64_t k = 1; k <= 8; ++k) ASSERT_EQ(upsert(k, k), Status::kOk);
  ASSERT_EQ(upsert(1, 10), Status::kOk);
  ASSERT_EQ(read(1, &out), Status::kOk);
  ASSERT_EQ(read(999, &out), Status::kNotFound);
  ASSERT_EQ(rmw(1, 1), Status::kOk);
  ASSERT_EQ(rmw(9, 1), Status::kOk);
  ASSERT_EQ(del(2), Status::kOk);
  ASSERT_EQ(del(2), Status::kNotFound);
  ASSERT_EQ(del(998), Status::kNotFound);
  ASSERT_EQ(read(2, &out), Status::kNotFound);
  EXPECT_EQ(count(C::kUpsertAppend), 8u);
  EXPECT_EQ(count(C::kUpsertInPlace), 1u);
  EXPECT_EQ(count(C::kReadMutable), 1u);
  EXPECT_EQ(count(C::kReadMiss), 2u);
  EXPECT_EQ(count(C::kRmwInPlace), 1u);
  EXPECT_EQ(count(C::kRmwInitial), 1u);
  EXPECT_EQ(count(C::kDeleteInPlace), 1u);
  EXPECT_EQ(count(C::kDeleteMiss), 2u);

  // Safe read-only region: reads copy out, updates append (Table 2).
  store.hlog().ShiftReadOnlyToTail(false);
  store.Refresh();
  store.Refresh();
  ASSERT_EQ(store.hlog().safe_read_only_address(),
            store.hlog().read_only_address());
  ASSERT_EQ(read(3, &out), Status::kOk);
  ASSERT_EQ(upsert(3, 30), Status::kOk);
  ASSERT_EQ(rmw(4, 1), Status::kOk);
  ASSERT_EQ(del(5), Status::kOk);
  EXPECT_EQ(count(C::kReadReadOnly), 1u);
  EXPECT_EQ(count(C::kUpsertAppend), 9u);
  EXPECT_EQ(count(C::kRmwCopy), 1u);
  EXPECT_EQ(count(C::kDeleteAppend), 1u);

  // Fuzzy region: the RMW is deferred, then appends as it resumes.
  ASSERT_EQ(upsert(6, 60), Status::kOk);
  store.hlog().ShiftReadOnlyToTail(false);
  ASSERT_LT(store.hlog().safe_read_only_address(),
            store.hlog().read_only_address());
  ASSERT_EQ(rmw(6, 1), Status::kPending);
  ASSERT_EQ(read(6, &out), Status::kOk);
  EXPECT_EQ(count(C::kRmwFuzzyDeferred), 1u);
  // The mutable/fuzzy split is stats-only; default builds count both as
  // read_mutable.
  EXPECT_EQ(count(C::kReadFuzzy), obs::kStatsEnabled ? 1u : 0u);
  EXPECT_EQ(count(C::kReadMutable) + count(C::kReadFuzzy), 2u);
  ASSERT_TRUE(store.CompletePending(/*wait=*/true));
  EXPECT_EQ(count(C::kRmwPendingAppend), 1u);
  ASSERT_EQ(read(6, &out), Status::kOk);
  EXPECT_EQ(out, 61u);

  // Storage: spill the keys above to disk, then read and update them.
  for (uint64_t k = 100; k < 400000; ++k) {
    ASSERT_EQ(upsert(k, k), Status::kOk);
  }
  ASSERT_EQ(read(1, &out), Status::kPending);
  ASSERT_EQ(rmw(7, 1), Status::kPending);
  ASSERT_EQ(del(8), Status::kOk);  // blind: a tombstone, no storage read
  ASSERT_TRUE(store.CompletePending(/*wait=*/true));
  EXPECT_EQ(out, 11u);
  ASSERT_EQ(read(1, &out), Status::kOk);  // now from the read cache
  EXPECT_EQ(out, 11u);
  EXPECT_EQ(count(C::kReadStable), 1u);
  EXPECT_EQ(count(C::kRmwStable), 1u);
  EXPECT_EQ(count(C::kRmwPendingAppend), 2u);
  EXPECT_EQ(count(C::kDeleteAppend), 2u);
  EXPECT_EQ(count(C::kReadRc), 1u);

  // The same outcomes through ExecuteBatch.
  constexpr uint64_t kFresh = 500000;
  constexpr size_t kN = 16;
  Store::BatchOp ops[4 * kN + 2];
  uint64_t outs[2 * kN + 1];
  for (size_t i = 0; i < kN; ++i) {
    ops[i] = {};
    ops[i].kind = Store::BatchOp::Kind::kUpsert;
    ops[i].key = kFresh + i;
    ops[i].value = i;
  }
  store.ExecuteBatch(ops, kN);
  upserts += kN;
  size_t n = 0;
  for (size_t i = 0; i < kN; ++i) {
    ops[n] = {};
    ops[n].kind = Store::BatchOp::Kind::kRead;
    ops[n].key = kFresh + i;
    ops[n].output = &outs[i];
    ++n;
    ops[n] = {};
    ops[n].kind = Store::BatchOp::Kind::kUpsert;
    ops[n].key = kFresh + i;
    ops[n].value = 100 + i;
    ++n;
    ops[n] = {};
    ops[n].kind = Store::BatchOp::Kind::kRmw;
    ops[n].key = kFresh + i;
    ops[n].input = 1;
    ++n;
  }
  ops[n] = {};
  ops[n].kind = Store::BatchOp::Kind::kRead;  // on disk since the spill
  ops[n].key = 3;
  ops[n].output = &outs[kN];
  ++n;
  ops[n] = {};
  ops[n].kind = Store::BatchOp::Kind::kRmw;  // absent
  ops[n].key = kFresh + kN;
  ops[n].input = 5;
  ++n;
  store.ExecuteBatch(ops, n);
  reads += kN + 1;
  upserts += kN;
  rmws += kN + 1;
  ASSERT_TRUE(store.CompletePending(/*wait=*/true));
  EXPECT_EQ(outs[kN], 30u);
  EXPECT_EQ(count(C::kUpsertAppend), upserts - 1 - kN);
  EXPECT_EQ(count(C::kUpsertInPlace), 1 + kN);
  EXPECT_EQ(count(C::kReadMutable) + count(C::kReadFuzzy), 3 + kN);
  EXPECT_EQ(count(C::kRmwInPlace), 1 + kN);
  EXPECT_EQ(count(C::kRmwInitial), 2u);
  EXPECT_EQ(count(C::kReadStable), 2u);
  if constexpr (obs::kStatsEnabled) {
    EXPECT_EQ(count(C::kBatchFast) + count(C::kBatchFallback), n + kN);
  }

  // Each op kind's outcome counters sum to its total, which counts every
  // op issued exactly once.
  Store::Stats s = store.GetStats();
  EXPECT_EQ(s.reads, reads);
  EXPECT_EQ(s.upserts, upserts);
  EXPECT_EQ(s.rmws, rmws);
  EXPECT_EQ(s.deletes, deletes);
  EXPECT_EQ(count(C::kReadMutable) + count(C::kReadFuzzy) +
                count(C::kReadReadOnly) + count(C::kReadStable) +
                count(C::kReadRc) + count(C::kReadMiss) +
                count(C::kReadMerged),
            reads);
  EXPECT_EQ(count(C::kUpsertInPlace) + count(C::kUpsertAppend), upserts);
  EXPECT_EQ(count(C::kRmwInPlace) + count(C::kRmwCopy) +
                count(C::kRmwInitial) + count(C::kRmwDelta) +
                count(C::kRmwFuzzyDeferred) + count(C::kRmwStable),
            rmws);
  EXPECT_EQ(count(C::kDeleteInPlace) + count(C::kDeleteAppend) +
                count(C::kDeleteMiss),
            deletes);
  EXPECT_EQ(s.fuzzy_rmws, count(C::kRmwFuzzyDeferred));
  EXPECT_EQ(s.read_cache_hits, count(C::kReadRc));
  EXPECT_EQ(s.appended_records,
            count(C::kUpsertAppend) + count(C::kRmwCopy) +
                count(C::kRmwInitial) + count(C::kRmwDelta) +
                count(C::kDeleteAppend) + count(C::kRmwPendingAppend));
  // Four ops went pending (the fuzzy RMW, the storage read and RMW, and
  // the batch's storage read): each finished once, and nothing is left in
  // flight.
  EXPECT_EQ(s.completed_pending, 4u);
  EXPECT_GE(s.pending_ios, 3u);
  EXPECT_EQ(count(C::kPendingIos), 0u);
  EXPECT_EQ(count(C::kPendingRetries), 0u);
  store.StopSession();

  // GetStats() and the registry's store.* scalars agree; a compiled-out
  // counter is not registered.
  std::vector<std::pair<std::string, uint64_t>> metrics;
  obs::Registry reg;
  obs::CollectStats(store.view(), reg);
  reg.ForEach([&metrics](const std::string& name, obs::Registry::Kind kind,
                         obs::SlotSum slots, const obs::Histogram*,
                         uint64_t value) {
    if (kind != obs::Registry::Kind::kHistogram) {
      metrics.emplace_back(
          name, kind == obs::Registry::Kind::kValue ? value : slots.Sum());
    }
  });
  auto metric = [&metrics](const std::string& name) -> uint64_t {
    for (const auto& [n, v] : metrics) {
      if (n == name) return v;
    }
    ADD_FAILURE() << "no metric " << name;
    return 0;
  };
  EXPECT_EQ(metric("store.reads"), s.reads);
  EXPECT_EQ(metric("store.upserts"), s.upserts);
  EXPECT_EQ(metric("store.rmws"), s.rmws);
  EXPECT_EQ(metric("store.deletes"), s.deletes);
  EXPECT_EQ(metric("store.fuzzy_rmws"), s.fuzzy_rmws);
  EXPECT_EQ(metric("store.ios_issued"), s.pending_ios);
  EXPECT_EQ(metric("store.completed_pending"), s.completed_pending);
  EXPECT_EQ(metric("store.appended_records"), s.appended_records);
  EXPECT_EQ(metric("store.read_cache_hits"), s.read_cache_hits);
  for (size_t i = 0; i < std::size(obs::kStoreCounterNames); ++i) {
    const std::string name = obs::kStoreCounterNames[i];
    if (i < obs::CounterBlock::kSlots) {
      EXPECT_EQ(metric(name), count(static_cast<C>(i))) << name;
    } else {
      EXPECT_TRUE(std::none_of(metrics.begin(), metrics.end(),
                               [&name](const auto& m) {
                                 return m.first == name;
                               }))
          << name;
    }
  }
}

// ---------------------------------------------------------------------------
// Store end-to-end: span lifecycle across the async boundary
// ---------------------------------------------------------------------------

// A storage read's spans must land under the same trace id as the Read()
// that issued it: the root read span, the pending-I/O window, the device
// exec span (on the thread that ran the read, here another one), and
// the completion processing.
TEST(SpanStoreTest, TraceCrossesPendingIoBoundary) {
  if (!obs::kStatsEnabled) GTEST_SKIP() << "span instrumentation compiled out";
  SpanSampleGuard guard{0};  // don't trace the fill phase
  ParkingDevice device;  // parks the read until the poller's PollAll
  FasterKv<CountStoreFunctions>::Config cfg;
  cfg.table_size = 2048;
  cfg.log.memory_size_bytes = 2ull << Address::kOffsetBits;
  cfg.log.mutable_fraction = 0.5;
  cfg.refresh_interval = 256;
  FasterKv<CountStoreFunctions> store{cfg, &device};
  store.StartSession();
  for (uint64_t k = 0; k < 400000; ++k) {
    ASSERT_EQ(store.Upsert(k, k), Status::kOk);
  }
  // Key 0 is now below the head address: reading it goes to storage.
  ASSERT_GT(store.hlog().head_address().control(), 64u);
  obs::SetSpanSampleEvery(1);
  uint64_t out = UINT64_MAX;
  ASSERT_EQ(store.Read(0, 0, &out), Status::kPending);
  // A foreign poller runs the parked read and its callback.
  std::thread poller([&] {
    store.StartSession();
    device.PollAll();
    store.StopSession();
  });
  poller.join();
  ASSERT_TRUE(store.CompletePending(true));
  EXPECT_EQ(out, 0u);
  store.StopSession();

  auto all = obs::SnapshotSpans();
  // Our operation's root: the read span with span id == trace id that
  // started last (the global ring accumulates across tests).
  const obs::SpanRecord* root = nullptr;
  for (const auto& s : all) {
    if (s.kind == K(obs::SpanKind::kRead) && s.span_id == s.trace_id &&
        (root == nullptr || s.start_ns > root->start_ns)) {
      root = &s;
    }
  }
  ASSERT_NE(root, nullptr);
  bool saw_pending = false, saw_complete = false, crossed_thread = false;
  for (const auto& s : all) {
    if (s.trace_id != root->trace_id) continue;
    if (s.kind == K(obs::SpanKind::kPendingIo)) {
      saw_pending = true;
      EXPECT_EQ(s.parent_id, root->span_id);
      EXPECT_GE(s.end_ns, s.start_ns);
    }
    if (s.kind == K(obs::Stage::kIoComplete)) {
      saw_complete = true;
      EXPECT_EQ(s.parent_id, root->span_id);
    }
    if (s.tid != root->tid) crossed_thread = true;  // the poller's spans
  }
  EXPECT_TRUE(saw_pending);
  EXPECT_TRUE(saw_complete);
  EXPECT_TRUE(crossed_thread);
}

// Each batch chunk opens a root span; the three pipeline stages are its
// direct children.
TEST(SpanStoreTest, BatchStagesParentUnderChunkSpan) {
  if (!obs::kStatsEnabled) GTEST_SKIP() << "span instrumentation compiled out";
  SpanSampleGuard guard{1};
  MemoryDevice device;
  using Store = FasterKv<CountStoreFunctions>;
  Store::Config cfg;
  cfg.table_size = 2048;
  cfg.log.memory_size_bytes = 16 << 20;
  Store store{cfg, &device};
  store.StartSession();
  constexpr size_t kOps = 8;
  Store::BatchOp ops[kOps];
  for (size_t i = 0; i < kOps; ++i) {
    ops[i].kind = Store::BatchOp::Kind::kUpsert;
    ops[i].key = i;
    ops[i].value = i * 10;
  }
  store.ExecuteBatch(ops, kOps);
  for (size_t i = 0; i < kOps; ++i) EXPECT_EQ(ops[i].status, Status::kOk);
  store.StopSession();

  auto all = obs::SnapshotSpans();
  const obs::SpanRecord* chunk = nullptr;
  for (const auto& s : all) {
    if (s.kind == K(obs::SpanKind::kBatchChunk) &&
        (chunk == nullptr || s.start_ns > chunk->start_ns)) {
      chunk = &s;
    }
  }
  ASSERT_NE(chunk, nullptr);
  EXPECT_EQ(chunk->span_id, chunk->trace_id);  // chunk is a root
  EXPECT_EQ(chunk->arg, kOps);                 // arg carries the chunk size
  uint32_t hash_stages = 0, resolve_stages = 0, execute_stages = 0;
  for (const auto& s : all) {
    if (s.trace_id != chunk->trace_id || s.span_id == chunk->span_id) continue;
    if (s.kind == K(obs::Stage::kHash)) {
      ++hash_stages;
      EXPECT_EQ(s.parent_id, chunk->span_id);
    }
    if (s.kind == K(obs::Stage::kResolve)) {
      ++resolve_stages;
      EXPECT_EQ(s.parent_id, chunk->span_id);
    }
    if (s.kind == K(obs::Stage::kExecute)) {
      ++execute_stages;
      EXPECT_EQ(s.parent_id, chunk->span_id);
    }
  }
  EXPECT_EQ(hash_stages, 1u);
  EXPECT_EQ(resolve_stages, 1u);
  EXPECT_EQ(execute_stages, 1u);
}

// Every Checkpoint() and GrowIndex() records one root span, whatever the
// sampling period: the checkpoint (arg 0: ok) with its index write and log
// flush nested under it, the grow with the new table's log2 size.
TEST(SpanStoreTest, CheckpointAndGrowAreRootSpansAtAnySampling) {
  if (!obs::kStatsEnabled) GTEST_SKIP() << "span instrumentation compiled out";
  const std::string dir = ::testing::TempDir() + "faster_span_ckpt";
  for (uint32_t every : {0u, 1000u}) {
    SpanSampleGuard guard{every};
    MemoryDevice device;
    using Store = FasterKv<CountStoreFunctions>;
    Store::Config cfg;
    cfg.table_size = 2048;
    cfg.log.memory_size_bytes = 16 << 20;
    Store store{cfg, &device};
    store.StartSession();
    for (uint64_t k = 0; k < 100; ++k) {
      ASSERT_EQ(store.Upsert(k, k), Status::kOk);
    }
    const uint64_t since = obs::NowNs();
    ASSERT_EQ(store.Checkpoint(dir), Status::kOk);
    ASSERT_EQ(store.GrowIndex(), Status::kOk);
    store.StopSession();

    std::vector<obs::SpanRecord> ckpts, grows;
    for (const obs::SpanRecord& s : obs::SnapshotSpans()) {
      if (s.start_ns < since || s.span_id != s.trace_id) continue;
      if (s.kind == K(obs::SpanKind::kCheckpoint)) ckpts.push_back(s);
      if (s.kind == K(obs::SpanKind::kGrow)) grows.push_back(s);
    }
    ASSERT_EQ(ckpts.size(), 1u) << "sampling 1 in " << every;
    ASSERT_EQ(grows.size(), 1u) << "sampling 1 in " << every;
    EXPECT_EQ(ckpts[0].arg, 0u);
    EXPECT_EQ(grows[0].arg, 12u);  // 2048 -> 4096 buckets
    uint32_t index_writes = 0, flushes = 0;
    for (const obs::SpanRecord& s : SpansOfTrace(ckpts[0].trace_id)) {
      if (s.parent_id != ckpts[0].span_id) continue;
      index_writes += s.kind == K(obs::Stage::kCkptIndex);
      flushes += s.kind == K(obs::Stage::kCkptFlush);
    }
    EXPECT_EQ(index_writes, 1u);
    EXPECT_EQ(flushes, 1u);
    std::ostringstream os;
    obs::DumpTrace(store.view(), os);
    EXPECT_TRUE(MiniJson::Valid(os.str()));
    EXPECT_NE(os.str().find("\"name\":\"checkpoint\""), std::string::npos);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace faster
