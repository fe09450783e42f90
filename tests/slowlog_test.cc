#include "obs/slowlog.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/faster.h"
#include "core/functions.h"
#include "device/file_device.h"
#include "device/memory_device.h"
#include "mini_json.h"
#include "obs/clock.h"
#include "obs/log.h"

namespace faster {
namespace {

using obs::kNumOpStages;
using obs::SlowLog;
using obs::SlowOpKind;

uint64_t StageSum(const SlowLog::Entry& e) {
  uint64_t sum = 0;
  for (uint32_t s = 0; s < kNumOpStages; ++s) sum += e.stage_ns[s];
  return sum;
}

/// Records one entry with total_ns spread across the execute stage.
void Record(SlowLog& log, uint64_t total_ns,
            SlowOpKind kind = SlowOpKind::kRead, uint64_t key_hash = 0) {
  uint64_t stages[kNumOpStages] = {0, total_ns, 0, 0, 0};
  log.MaybeRecord(kind, key_hash, total_ns, stages, /*pending=*/false,
                  /*tid=*/1);
}

// ---------------------------------------------------------------------------
// Threshold filtering
// ---------------------------------------------------------------------------

TEST(SlowLogTest, DisabledByDefaultRecordsNothing) {
  SlowLog log;
  EXPECT_FALSE(log.armed());
  Record(log, UINT64_MAX - 1);  // huge latency, still below kDisabled
  EXPECT_EQ(log.Len(), 0u);
  EXPECT_EQ(log.TotalRecorded(), 0u);
}

TEST(SlowLogTest, ThresholdFiltersExactly) {
  SlowLog log;
  log.set_threshold_ns(1000);
  EXPECT_TRUE(log.armed());
  Record(log, 999);   // below: dropped
  Record(log, 1000);  // at threshold: recorded (>=, Redis semantics)
  Record(log, 1001);  // above: recorded
  EXPECT_EQ(log.Len(), 2u);
  std::vector<SlowLog::Entry> entries = log.Snapshot();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].total_ns, 1001u);  // newest first
  EXPECT_EQ(entries[1].total_ns, 1000u);
}

TEST(SlowLogTest, ZeroThresholdRecordsEverything) {
  SlowLog log;
  log.set_threshold_ns(0);
  Record(log, 0);
  Record(log, 1);
  EXPECT_EQ(log.Len(), 2u);
}

// ---------------------------------------------------------------------------
// Ring eviction
// ---------------------------------------------------------------------------

TEST(SlowLogTest, RingEvictsOldestKeepsNewestFirstOrder) {
  SlowLog log;
  log.set_threshold_ns(0);
  constexpr uint64_t kOverfill = SlowLog::kCapacity + 37;
  for (uint64_t i = 0; i < kOverfill; ++i) {
    Record(log, /*total_ns=*/i + 1, SlowOpKind::kUpsert, /*key_hash=*/i);
  }
  EXPECT_EQ(log.Len(), SlowLog::kCapacity);
  EXPECT_EQ(log.TotalRecorded(), kOverfill);
  std::vector<SlowLog::Entry> entries = log.Snapshot();
  ASSERT_EQ(entries.size(), SlowLog::kCapacity);
  // Newest first; ids strictly descending; the oldest 37 are gone.
  for (size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i].id, kOverfill - 1 - i);
    EXPECT_EQ(entries[i].key_hash, kOverfill - 1 - i);
  }
}

TEST(SlowLogTest, SnapshotHonorsMaxEntries) {
  SlowLog log;
  log.set_threshold_ns(0);
  for (uint64_t i = 0; i < 20; ++i) Record(log, i + 1);
  std::vector<SlowLog::Entry> entries = log.Snapshot(/*max_entries=*/5);
  ASSERT_EQ(entries.size(), 5u);
  EXPECT_EQ(entries[0].id, 19u);
  EXPECT_EQ(entries[4].id, 15u);
}

TEST(SlowLogTest, ResetHidesEntriesButIdsKeepGrowing) {
  SlowLog log;
  log.set_threshold_ns(0);
  for (uint64_t i = 0; i < 10; ++i) Record(log, i + 1);
  EXPECT_EQ(log.Len(), 10u);
  log.Reset();
  EXPECT_EQ(log.Len(), 0u);
  EXPECT_TRUE(log.Snapshot().empty());
  EXPECT_EQ(log.TotalRecorded(), 10u);
  Record(log, 42);
  std::vector<SlowLog::Entry> entries = log.Snapshot();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].id, 10u);  // ids are monotone across Reset
}

// ---------------------------------------------------------------------------
// Stage attribution
// ---------------------------------------------------------------------------

TEST(SlowLogTest, SyncScopeStagesSumToTotal) {
  // An op's clock writes through the global slowlog; arm it for the test
  // and restore the disabled default after.
  obs::SlowLog& global = obs::GlobalSlowLog();
  global.Reset();
  global.set_threshold_ns(0);
  {
    obs::OpClock clock{SlowOpKind::kRmw, 0xabcdef};
    clock.Finish();
  }
  global.set_threshold_ns(SlowLog::kDisabled);
  std::vector<SlowLog::Entry> entries = global.Snapshot(1);
  ASSERT_EQ(entries.size(), 1u);
  const SlowLog::Entry& e = entries[0];
  EXPECT_EQ(e.kind, SlowOpKind::kRmw);
  EXPECT_EQ(e.key_hash, 0xabcdefu);
  EXPECT_FALSE(e.pending);
  EXPECT_EQ(StageSum(e), e.total_ns);
  // A sync op has no I/O stages.
  EXPECT_EQ(e.stage_ns[static_cast<uint32_t>(obs::Stage::kIoQueue)], 0u);
  EXPECT_EQ(e.stage_ns[static_cast<uint32_t>(obs::Stage::kIoExec)], 0u);
  EXPECT_EQ(
      e.stage_ns[static_cast<uint32_t>(obs::Stage::kIoComplete)], 0u);
}

TEST(SlowLogTest, PendingCaptureAndRecordPartitionTheWindow) {
  obs::SlowLog& global = obs::GlobalSlowLog();
  global.Reset();
  global.set_threshold_ns(0);

  // A batch op's clock splits off its chunk's (stage 1's share),
  // executes, goes pending, is picked up by an executor, calls back, and
  // finishes on the owner. The recorded stages must partition the window.
  uint64_t chunk_start = obs::NowNs() - 10000;
  obs::OpClock chunk{obs::Stage::kHash, chunk_start};
  chunk.Mark(obs::Stage::kExecute, chunk_start + 200);
  obs::OpClock clock = chunk.ForOp(SlowOpKind::kRead, 77, /*ops=*/1);

  // Marks on the far side of the hop, in the future of every clock read
  // above: the op went pending at `issue`.
  uint64_t issue = obs::NowNs() + 1000000;
  clock.Mark(obs::Stage::kIoQueue, issue);
  clock.Mark(obs::Stage::kIoExec, issue + 300);      // executor pickup
  clock.Mark(obs::Stage::kIoComplete, issue + 800);  // callback
  clock.Finish(issue + 1000);
  global.set_threshold_ns(SlowLog::kDisabled);

  std::vector<SlowLog::Entry> entries = global.Snapshot(1);
  ASSERT_EQ(entries.size(), 1u);
  const SlowLog::Entry& e = entries[0];
  EXPECT_TRUE(e.pending);
  EXPECT_EQ(e.kind, SlowOpKind::kRead);
  EXPECT_EQ(e.key_hash, 77u);
  EXPECT_EQ(StageSum(e), e.total_ns);
  EXPECT_EQ(e.stage_ns[static_cast<uint32_t>(obs::Stage::kHash)], 200u);
  EXPECT_EQ(
      e.stage_ns[static_cast<uint32_t>(obs::Stage::kIoQueue)], 300u);
  EXPECT_EQ(e.stage_ns[static_cast<uint32_t>(obs::Stage::kIoExec)], 500u);
}

TEST(SlowLogTest, UntimedClockRecordsNothing) {
  obs::SlowLog& global = obs::GlobalSlowLog();
  obs::OpClock clock{SlowOpKind::kRead, 1};  // slowlog disarmed at start
  global.Reset();
  global.set_threshold_ns(0);
  clock.Finish(obs::NowNs());
  global.set_threshold_ns(SlowLog::kDisabled);
  EXPECT_EQ(global.Len(), 0u);
}

/// Reads keys [first, first+count) through Read or ReadBatch, counts the
/// ops that went pending, and completes them.
template <class Store>
Status ReadKeys(Store& store, bool batch, uint64_t first, uint64_t count,
                std::vector<uint64_t>* outs, uint64_t* pending) {
  std::vector<uint64_t> keys(count), inputs(count, 0);
  std::vector<Status> statuses(count);
  outs->assign(count, 0);
  for (uint64_t k = 0; k < count; ++k) keys[k] = first + k;
  if (batch) {
    store.ReadBatch(keys.data(), inputs.data(), outs->data(),
                    statuses.data(), count);
  } else {
    for (uint64_t k = 0; k < count; ++k) {
      statuses[k] = store.Read(keys[k], 0, &(*outs)[k]);
    }
  }
  for (Status s : statuses) {
    if (s == Status::kPending) ++*pending;
  }
  return store.CompletePending(/*wait=*/true) ? Status::kOk
                                               : Status::kPending;
}

// Store-level: with a zero threshold every operation lands in the
// slowlog, including ops that cross the async I/O boundary, and stage
// sums reconstruct each reported total exactly. Instrumented call sites
// compile away without FASTER_STATS, so this only runs in stats builds.
// Shared by the polling and io_uring variants below, each
// through both entry points (single-op Read and ReadBatch): the
// partition invariant must hold regardless of which thread executes the
// I/O and delivers the callback (DESIGN.md §12.2). Then, with every op
// traced, a few more cold reads must each carry their I/O stages as spans
// (few, so every trace's spans fit the per-thread span rings).
void RunStoreStageSumCheck(IDevice& device, bool batch, bool uring) {
  obs::SlowLog& global = obs::GlobalSlowLog();
  global.Reset();
  global.set_threshold_ns(0);
  uint32_t saved_sampling = obs::SpanSampleEvery();
  obs::SetSpanSampleEvery(0);  // don't trace the fill phase

  using Store = FasterKv<CountStoreFunctions>;
  Store::Config cfg;
  cfg.table_size = 2048;
  cfg.log.memory_size_bytes = 2ull << Address::kOffsetBits;
  cfg.log.mutable_fraction = 0.5;
  uint64_t first_span_id = 0;
  {
    Store store{cfg, &device};
    store.StartSession();
    constexpr uint64_t kKeys = 400000;  // >> 2 pages: forces spill
    for (uint64_t k = 0; k < kKeys; ++k) {
      ASSERT_EQ(store.Upsert(k, k + 3), Status::kOk);
    }
    uint64_t pending = 0;
    std::vector<uint64_t> outs;
    ASSERT_EQ(ReadKeys(store, batch, 0, 64, &outs, &pending), Status::kOk);
    EXPECT_GT(pending, 0u) << "cold reads should cross the I/O boundary";
    first_span_id = obs::NewSpanId();
    obs::SetSpanSampleEvery(1);
    ASSERT_EQ(ReadKeys(store, batch, 64, 8, &outs, &pending), Status::kOk);
    obs::SetSpanSampleEvery(saved_sampling);
    store.StopSession();
  }
  global.set_threshold_ns(SlowLog::kDisabled);

  std::vector<SlowLog::Entry> entries = obs::GlobalSlowLog().Snapshot();
  ASSERT_FALSE(entries.empty());
  uint64_t pending_entries = 0;
  for (const SlowLog::Entry& e : entries) {
    EXPECT_EQ(StageSum(e), e.total_ns) << "entry " << e.id;
    if (e.pending) ++pending_entries;
  }
  EXPECT_GT(pending_entries, 0u);
  EXPECT_TRUE(MiniJson::Valid(obs::GlobalSlowLog().Json()));

  // Spans of the traced reads, by trace: the kinds seen (bit 63: the
  // root).
  auto bit = [](obs::SpanLabel kind) { return uint64_t{1} << kind.id; };
  std::map<uint64_t, uint64_t> kinds;
  for (const obs::SpanRecord& s : obs::SnapshotSpans()) {
    if (s.trace_id <= first_span_id) continue;
    kinds[s.trace_id] |= uint64_t{1} << s.kind;
    if (s.span_id == s.trace_id) kinds[s.trace_id] |= uint64_t{1} << 63;
  }
  uint64_t traced_pending = 0;
  for (const auto& [trace, seen] : kinds) {
    if ((seen >> 63) == 0 || (seen & bit(obs::SpanKind::kPendingIo)) == 0) {
      continue;
    }
    ++traced_pending;
    EXPECT_NE(seen & bit(obs::Stage::kIoExec), 0u) << "trace " << trace;
    EXPECT_NE(seen & bit(obs::Stage::kIoComplete), 0u) << "trace " << trace;
    if (!uring) {
      EXPECT_NE(seen & bit(obs::Stage::kIoQueue), 0u) << "trace " << trace;
    }
  }
  EXPECT_GT(traced_pending, 0u);
}

TEST(SlowLogTest, StoreOpsRecordWithExactStageSums) {
  if (!obs::kStatsEnabled) {
    GTEST_SKIP() << "store instrumentation requires FASTER_STATS";
  }
  // io_exec/io_complete are harvested on the polling thread.
  for (bool batch : {false, true}) {
    SCOPED_TRACE(batch ? "ReadBatch" : "Read");
    MemoryDevice device;
    RunStoreStageSumCheck(device, batch, /*uring=*/false);
  }
}

// And on io_uring, where the kernel executes the read between submit and
// reap (no io_queue wait of its own) and callbacks run on the reaper.
TEST(SlowLogTest, UringPathStageSumsStillPartitionTotal) {
  if (!obs::kStatsEnabled) {
    GTEST_SKIP() << "store instrumentation requires FASTER_STATS";
  }
  std::string path = ::testing::TempDir() + "/slowlog_test_uring.log";
  for (bool batch : {false, true}) {
    SCOPED_TRACE(batch ? "ReadBatch" : "Read");
    std::remove(path.c_str());
    FileDevice device{path, 0, IoPathMode::kUring};
    if (device.mode() != IoPathMode::kUring) {
      std::remove(path.c_str());
      GTEST_SKIP() << "io_uring unavailable (build stub or kernel probe "
                      "failed); kUring degraded to kPolling as designed";
    }
    RunStoreStageSumCheck(device, batch, /*uring=*/true);
  }
  std::remove(path.c_str());
}

// One clock per op feeds every sink, so the sinks agree exactly: a
// synchronous op's slowlog total and execute stage are its span's
// duration, and a pending read's pending_io span is the sum of its I/O
// stages (io_queue, io_exec, io_complete) in its slowlog entry.
TEST(SlowLogTest, OneClockFeedsSlowlogAndSpansTheSameNumbers) {
  if (!obs::kStatsEnabled) {
    GTEST_SKIP() << "store instrumentation requires FASTER_STATS";
  }
  using Store = FasterKv<CountStoreFunctions>;
  Store::Config cfg;
  cfg.table_size = 2048;
  cfg.log.memory_size_bytes = 2ull << Address::kOffsetBits;
  cfg.log.mutable_fraction = 0.5;
  MemoryDevice device;
  Store store{cfg, &device};
  uint32_t saved_sampling = obs::SpanSampleEvery();
  obs::SetSpanSampleEvery(0);  // don't trace the fill phase
  store.StartSession();
  constexpr uint64_t kKeys = 400000;  // >> 2 pages: key 0 spills
  for (uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_EQ(store.Upsert(k, k), Status::kOk);
  }
  obs::SlowLog& global = obs::GlobalSlowLog();
  global.Reset();
  global.set_threshold_ns(0);
  obs::SetSpanSampleEvery(1);
  uint64_t first_span_id = obs::NewSpanId();
  uint64_t out = 0;
  ASSERT_EQ(store.Read(kKeys - 1, 0, &out), Status::kOk);
  ASSERT_EQ(store.Read(0, 0, &out), Status::kPending);
  ASSERT_TRUE(store.CompletePending(/*wait=*/true));
  obs::SetSpanSampleEvery(saved_sampling);
  global.set_threshold_ns(SlowLog::kDisabled);
  store.StopSession();

  std::vector<SlowLog::Entry> entries = global.Snapshot();
  ASSERT_EQ(entries.size(), 2u);
  const SlowLog::Entry& pending = entries[0];  // newest first
  const SlowLog::Entry& sync = entries[1];
  ASSERT_TRUE(pending.pending);
  ASSERT_FALSE(sync.pending);
  // The two reads' own spans, in start order, and the pending one's
  // pending_io span.
  std::vector<obs::SpanRecord> roots;
  std::map<uint64_t, obs::SpanRecord> pending_io;  // by trace
  for (const obs::SpanRecord& s : obs::SnapshotSpans()) {
    if (s.trace_id <= first_span_id) continue;
    if (s.kind == obs::SpanLabel{obs::SpanKind::kRead}.id &&
        s.span_id == s.trace_id) {
      roots.push_back(s);
    }
    if (s.kind == obs::SpanLabel{obs::SpanKind::kPendingIo}.id) {
      pending_io[s.trace_id] = s;
    }
  }
  ASSERT_EQ(roots.size(), 2u);
  auto at = [](obs::Stage s) { return static_cast<uint32_t>(s); };
  EXPECT_EQ(sync.total_ns, roots[0].end_ns - roots[0].start_ns);
  EXPECT_EQ(sync.stage_ns[at(obs::Stage::kExecute)], sync.total_ns);
  EXPECT_EQ(pending.total_ns, roots[1].end_ns - roots[1].start_ns);
  ASSERT_EQ(pending_io.count(roots[1].trace_id), 1u);
  const obs::SpanRecord& io = pending_io[roots[1].trace_id];
  EXPECT_EQ(io.end_ns - io.start_ns,
            pending.stage_ns[at(obs::Stage::kIoQueue)] +
                pending.stage_ns[at(obs::Stage::kIoExec)] +
                pending.stage_ns[at(obs::Stage::kIoComplete)]);
}

/// Count-store functions whose in-place RMW spins for kSpinNs: a slow
/// op that keeps the rest of its batch chunk waiting.
struct SpinRmwFunctions : CountStoreFunctions {
  static constexpr uint64_t kSpinNs = 300000;
  static void InPlaceUpdater(const Key& key, const Input& input,
                             Value& value, Output& out) {
    uint64_t until = obs::NowNs() + kSpinNs;
    while (obs::NowNs() < until) {
    }
    CountStoreFunctions::InPlaceUpdater(key, input, value, out);
  }
};

// A batch op that goes pending issues its read at once; the completed
// read then waits on the owner's ready list while the rest of the chunk
// runs. That wait is its io_complete time, so its total must cover the
// slow ops that ran after it in the chunk.
TEST(SlowLogTest, BatchPendingTotalCoversChunkCompletionWait) {
  if (!obs::kStatsEnabled) {
    GTEST_SKIP() << "store instrumentation requires FASTER_STATS";
  }
  using Store = FasterKv<SpinRmwFunctions>;
  Store::Config cfg;
  cfg.table_size = 2048;
  cfg.log.memory_size_bytes = 2ull << Address::kOffsetBits;
  cfg.log.mutable_fraction = 0.5;
  MemoryDevice device;
  Store store{cfg, &device};
  store.StartSession();
  constexpr uint64_t kKeys = 400000;  // >> 2 pages: key 0 spills
  for (uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_EQ(store.Upsert(k, k), Status::kOk);
  }
  // Op 0 reads a cold key; ops 1..31 RMW the newest (mutable) keys in
  // place, spinning each.
  constexpr size_t kOps = 32;
  Store::BatchOp ops[kOps];
  uint64_t out = 0;
  ops[0].kind = Store::BatchOp::Kind::kRead;
  ops[0].key = 0;
  ops[0].output = &out;
  for (size_t i = 1; i < kOps; ++i) {
    ops[i].kind = Store::BatchOp::Kind::kRmw;
    ops[i].key = kKeys - i;
    ops[i].input = 1;
  }
  obs::SlowLog& global = obs::GlobalSlowLog();
  global.Reset();
  global.set_threshold_ns(0);
  store.ExecuteBatch(ops, kOps);
  ASSERT_EQ(ops[0].status, Status::kPending);
  for (size_t i = 1; i < kOps; ++i) EXPECT_EQ(ops[i].status, Status::kOk);
  ASSERT_TRUE(store.CompletePending(/*wait=*/true));
  global.set_threshold_ns(SlowLog::kDisabled);
  store.StopSession();
  EXPECT_EQ(out, 0u);

  uint64_t pending_reads = 0;
  for (const SlowLog::Entry& e : global.Snapshot()) {
    if (!e.pending) continue;
    ++pending_reads;
    EXPECT_EQ(e.kind, SlowOpKind::kRead);
    EXPECT_EQ(StageSum(e), e.total_ns);
    EXPECT_GE(e.total_ns, (kOps - 1) * SpinRmwFunctions::kSpinNs);
  }
  EXPECT_EQ(pending_reads, 1u);
}

// ---------------------------------------------------------------------------
// Concurrency (run under TSan in the sanitizer matrix)
// ---------------------------------------------------------------------------

TEST(SlowLogTest, ConcurrentWritersAndReadersAreClean) {
  SlowLog log;
  log.set_threshold_ns(0);
  constexpr uint32_t kWriters = 4;
  constexpr uint64_t kPerWriter = 20000;
  std::atomic<bool> stop{false};

  std::vector<std::thread> writers;
  for (uint32_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&log, w] {
      for (uint64_t i = 0; i < kPerWriter; ++i) {
        uint64_t stages[kNumOpStages] = {i, i, i, 0, 0};
        log.MaybeRecord(SlowOpKind::kUpsert, (uint64_t{w} << 32) | i,
                        3 * i, stages, /*pending=*/false, w);
      }
    });
  }
  std::thread reader{[&log, &stop] {
    while (!stop.load(std::memory_order_acquire)) {
      std::vector<SlowLog::Entry> entries = log.Snapshot();
      EXPECT_LE(entries.size(), SlowLog::kCapacity);
      for (const SlowLog::Entry& e : entries) {
        // Committed slots are internally consistent even mid-storm.
        EXPECT_EQ(StageSum(e), e.total_ns);
      }
      (void)log.Len();
      EXPECT_TRUE(MiniJson::Valid(log.Json()));
    }
  }};
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(log.TotalRecorded(), uint64_t{kWriters} * kPerWriter);
  EXPECT_EQ(log.Len(), SlowLog::kCapacity);
}

// ---------------------------------------------------------------------------
// Json exposition
// ---------------------------------------------------------------------------

TEST(SlowLogTest, JsonShape) {
  SlowLog log;
  EXPECT_TRUE(MiniJson::Valid(log.Json()));
  EXPECT_NE(log.Json().find("\"threshold_ns\":null"), std::string::npos);
  log.set_threshold_ns(5000);
  Record(log, 6000, SlowOpKind::kDelete, /*key_hash=*/0x1234);
  std::string json = log.Json();
  EXPECT_TRUE(MiniJson::Valid(json));
  EXPECT_NE(json.find("\"threshold_ns\":5000"), std::string::npos);
  EXPECT_NE(json.find("\"len\":1"), std::string::npos);
  EXPECT_NE(json.find("\"op\":\"delete\""), std::string::npos);
  EXPECT_NE(json.find("\"key_hash\":\"0000000000001234\""),
            std::string::npos);
  EXPECT_NE(json.find("\"io_complete\":0"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Logger unit coverage: a private logger writing to a temp file only
// ---------------------------------------------------------------------------

/// A logger whose one sink is a fresh temp file; Lines() reads it back.
class FileLogger {
 public:
  explicit FileLogger(const char* name)
      : path_{::testing::TempDir() + "/" + name} {
    std::remove(path_.c_str());
    logger.set_stderr(false);
    logger.set_level(obs::LogLevel::kDebug);
    EXPECT_TRUE(logger.OpenFile(path_));
  }
  ~FileLogger() { std::remove(path_.c_str()); }

  std::vector<std::string> Lines() const {
    std::ifstream in{path_};
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);) lines.push_back(line);
    return lines;
  }

  obs::Logger logger;

 private:
  std::string path_;
};

/// `line` starts with a `2024-01-31T09:05:07.123Z ` stamp; returns the
/// rest ("" if not).
std::string AfterUtcStamp(const std::string& line) {
  static constexpr char kShape[] = "dddd-dd-ddTdd:dd:dd.dddZ ";
  constexpr size_t kLen = sizeof kShape - 1;
  if (line.size() < kLen) return "";
  for (size_t i = 0; i < kLen; ++i) {
    bool digit = line[i] >= '0' && line[i] <= '9';
    if (kShape[i] == 'd' ? !digit : line[i] != kShape[i]) return "";
  }
  return line.substr(kLen);
}

TEST(LoggerTest, LevelGateFiltersBelow) {
  FileLogger f{"logger_gate.txt"};
  f.logger.set_level(obs::LogLevel::kWarn);
  EXPECT_FALSE(f.logger.Enabled(obs::LogLevel::kInfo));
  f.logger.Write(obs::LogLevel::kDebug, "test", "dropped");
  f.logger.Write(obs::LogLevel::kInfo, "test", "dropped");
  f.logger.Write(obs::LogLevel::kError, "test", "kept");
  std::vector<std::string> lines = f.Lines();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("test: kept"), std::string::npos) << lines[0];
}

// `<UTC ts> <level> [t<tid>] component: message k=v ...`, in the file
// before Write returns.
TEST(LoggerTest, FileSinkLineShape) {
  FileLogger f{"logger_shape.txt"};
  f.logger.Write(obs::LogLevel::kWarn, "unit", "file sink works",
                 obs::LogField{"answer", uint64_t{42}},
                 obs::LogField{"delta", -7}, obs::LogField{"name", "faster"});
  std::vector<std::string> lines = f.Lines();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(AfterUtcStamp(lines[0]),
            "warn  [t" + std::to_string(Thread::Id()) +
                "] unit: file sink works answer=42 delta=-7 name=faster")
      << lines[0];
}

// Each record is one write(2), so concurrent records never interleave.
TEST(LoggerTest, ConcurrentRecordsStayWholeLines) {
  FileLogger f{"logger_threads.txt"};
  constexpr int kThreads = 4;
  constexpr uint64_t kRecords = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&f, t] {
      for (uint64_t i = 0; i < kRecords; ++i) {
        f.logger.Write(obs::LogLevel::kInfo, "load", "record",
                       obs::LogField{"writer", t}, obs::LogField{"i", i});
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<std::string> lines = f.Lines();
  ASSERT_EQ(lines.size(), kThreads * kRecords);
  std::map<int, uint64_t> next;  // each writer's records stay in order
  for (const std::string& line : lines) {
    std::string rest = AfterUtcStamp(line);
    unsigned tid = 0;
    int writer = -1;
    unsigned long long i = 0;
    int end = 0;
    ASSERT_EQ(std::sscanf(rest.c_str(), "info  [t%u] load: record writer=%d "
                                        "i=%llu%n",
                          &tid, &writer, &i, &end),
              3)
        << line;
    ASSERT_EQ(static_cast<size_t>(end), rest.size()) << line;
    ASSERT_TRUE(writer >= 0 && writer < kThreads) << line;
    EXPECT_EQ(i, next[writer]++) << line;
  }
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(next[t], kRecords);
}

// A limited site writes one record per window; the next one carries the
// count of calls swallowed in between.
TEST(LoggerTest, RateLimitCarriesSuppressedCount) {
  FileLogger f{"logger_limit.txt"};
  obs::LogRateLimit limit{500'000'000};  // one record per 500 ms
  auto stall = [&](int call) {
    f.logger.WriteLimited(limit, obs::LogLevel::kWarn, "hlog", "stall",
                          obs::LogField{"call", call});
  };
  for (int call = 0; call < 4; ++call) stall(call);
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  stall(4);
  std::vector<std::string> lines = f.Lines();
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("hlog: stall call=0 suppressed=0"),
            std::string::npos)
      << lines[0];
  EXPECT_NE(lines[1].find("hlog: stall call=4 suppressed=3"),
            std::string::npos)
      << lines[1];
}

TEST(LogRateLimitTest, AllowsOncePerWindowAndCountsSuppressed) {
  obs::LogRateLimit limit{uint64_t{60} * 1000000000ull};  // one per minute
  uint64_t suppressed = 123;
  EXPECT_TRUE(limit.Allow(&suppressed));
  EXPECT_EQ(suppressed, 0u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(limit.Allow(&suppressed));
  }
}

}  // namespace
}  // namespace faster
