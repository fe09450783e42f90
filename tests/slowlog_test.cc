#include "obs/slowlog.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/faster.h"
#include "core/functions.h"
#include "device/memory_device.h"
#include "mini_json.h"
#include "obs/log.h"

namespace faster {
namespace {

using obs::kNumSlowStages;
using obs::SlowLog;
using obs::SlowOpKind;

uint64_t StageSum(const SlowLog::Entry& e) {
  uint64_t sum = 0;
  for (uint32_t s = 0; s < kNumSlowStages; ++s) sum += e.stage_ns[s];
  return sum;
}

/// Records one entry with total_ns spread across the execute stage.
void Record(SlowLog& log, uint64_t total_ns,
            SlowOpKind kind = SlowOpKind::kRead, uint64_t key_hash = 0) {
  uint64_t stages[kNumSlowStages] = {0, 0, total_ns, 0, 0, 0};
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
  // SlowOpScope writes through the global slowlog; arm it for the test
  // and restore the disabled default after.
  obs::SlowLog& global = obs::GlobalSlowLog();
  global.Reset();
  global.set_threshold_ns(0);
  {
    obs::SlowOpScope scope{SlowOpKind::kRmw};
    scope.set_key_hash(0xabcdef);
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
  EXPECT_EQ(e.stage_ns[static_cast<uint32_t>(obs::SlowStage::kIoQueue)], 0u);
  EXPECT_EQ(e.stage_ns[static_cast<uint32_t>(obs::SlowStage::kIoExec)], 0u);
  EXPECT_EQ(
      e.stage_ns[static_cast<uint32_t>(obs::SlowStage::kIoComplete)], 0u);
}

TEST(SlowLogTest, PendingCaptureAndRecordPartitionTheWindow) {
  obs::SlowLog& global = obs::GlobalSlowLog();
  global.Reset();
  global.set_threshold_ns(0);

  // An op starts synchronously (ambient state), goes pending
  // (CaptureSlowOp), sees one I/O completion, and finishes on the owner
  // (RecordSlowPending). The recorded stages must partition the window.
  obs::SlowOpState state;
  state.kind = SlowOpKind::kRead;
  state.key_hash = 77;
  state.start_ns = obs::NowNs();
  state.hash_ns = 120;     // amortized batch shares
  state.resolve_ns = 80;
  obs::CurrentSlowOp() = &state;

  obs::PendingSlowOp slow;
  obs::CaptureSlowOp(&slow);
  obs::CurrentSlowOp() = nullptr;
  EXPECT_TRUE(state.transferred);
  ASSERT_NE(slow.start_ns, 0u);
  EXPECT_EQ(slow.hash_ns, 120u);
  EXPECT_EQ(slow.resolve_ns, 80u);

  // I/O callback: harvest pool timing, restart the owner-wait window.
  slow.io_queue_ns = 300;
  slow.io_exec_ns = 500;
  uint64_t callback_at = obs::NowNs();
  slow.io_complete_ns += callback_at - slow.callback_ns;
  slow.callback_ns = callback_at;

  obs::RecordSlowPending(&slow, obs::NowNs());
  global.set_threshold_ns(SlowLog::kDisabled);
  EXPECT_EQ(slow.start_ns, 0u);  // consumed

  std::vector<SlowLog::Entry> entries = global.Snapshot(1);
  ASSERT_EQ(entries.size(), 1u);
  const SlowLog::Entry& e = entries[0];
  EXPECT_TRUE(e.pending);
  EXPECT_EQ(e.kind, SlowOpKind::kRead);
  EXPECT_EQ(e.key_hash, 77u);
  EXPECT_EQ(StageSum(e), e.total_ns);
  EXPECT_EQ(e.stage_ns[static_cast<uint32_t>(obs::SlowStage::kHash)], 120u);
  EXPECT_EQ(
      e.stage_ns[static_cast<uint32_t>(obs::SlowStage::kResolve)], 80u);
  EXPECT_EQ(
      e.stage_ns[static_cast<uint32_t>(obs::SlowStage::kIoQueue)], 300u);
  EXPECT_EQ(e.stage_ns[static_cast<uint32_t>(obs::SlowStage::kIoExec)], 500u);
}

TEST(SlowLogTest, RecordSlowPendingIgnoresUntrackedContexts) {
  obs::SlowLog& global = obs::GlobalSlowLog();
  global.Reset();
  global.set_threshold_ns(0);
  obs::PendingSlowOp slow;  // start_ns == 0: slowlog was disarmed at issue
  obs::RecordSlowPending(&slow, obs::NowNs());
  global.set_threshold_ns(SlowLog::kDisabled);
  EXPECT_EQ(global.Len(), 0u);
}

// Store-level: with a zero threshold every operation lands in the
// slowlog, including ops that cross the async I/O boundary, and stage
// sums reconstruct each reported total exactly. Instrumented call sites
// compile away without FASTER_STATS, so this only runs in stats builds.
// Shared by the thread-pool and polling I/O-path variants below: the
// partition invariant must hold regardless of which thread executes the
// I/O and delivers the callback (DESIGN.md §13).
void RunStoreStageSumCheck(MemoryDevice& device) {
  obs::SlowLog& global = obs::GlobalSlowLog();
  global.Reset();
  global.set_threshold_ns(0);

  using Store = FasterKv<CountStoreFunctions>;
  Store::Config cfg;
  cfg.table_size = 2048;
  cfg.log.memory_size_bytes = 2ull << Address::kOffsetBits;
  cfg.log.mutable_fraction = 0.5;
  {
    Store store{cfg, &device};
    store.StartSession();
    constexpr uint64_t kKeys = 400000;  // >> 2 pages: forces spill
    for (uint64_t k = 0; k < kKeys; ++k) {
      ASSERT_EQ(store.Upsert(k, k + 3), Status::kOk);
    }
    uint64_t pending = 0;
    std::vector<uint64_t> outs(64, 0);
    for (uint64_t k = 0; k < 64; ++k) {
      Status s = store.Read(k, 0, &outs[k]);
      if (s == Status::kPending) ++pending;
    }
    ASSERT_TRUE(store.CompletePending(/*wait=*/true));
    EXPECT_GT(pending, 0u) << "cold reads should cross the I/O boundary";
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
}

TEST(SlowLogTest, StoreOpsRecordWithExactStageSums) {
  if (!obs::kStatsEnabled) {
    GTEST_SKIP() << "store instrumentation requires FASTER_STATS";
  }
  MemoryDevice device;
  RunStoreStageSumCheck(device);
}

// Same invariant on the completion-polling path: io_exec/io_complete are
// harvested on the *polling* thread (no pool workers exist at all here),
// and the stage sums must still partition each total exactly.
TEST(SlowLogTest, PollingPathStageSumsStillPartitionTotal) {
  if (!obs::kStatsEnabled) {
    GTEST_SKIP() << "store instrumentation requires FASTER_STATS";
  }
  MemoryDevice device{0, 0, IoPathMode::kPolling};
  RunStoreStageSumCheck(device);
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
        uint64_t stages[kNumSlowStages] = {i, i, i, 0, 0, 0};
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
// Log ring / logger unit coverage
// ---------------------------------------------------------------------------

TEST(LogRingTest, CommitPublishesAndRawReadsSee) {
  obs::Logger logger;
  logger.set_stderr(false);
  logger.set_level(obs::LogLevel::kDebug);
  logger.Write(obs::LogLevel::kInfo, "test", "hello",
               obs::LogField{"k", uint64_t{42}});
  uint32_t tid = Thread::Id();
  const obs::LogRing& ring = logger.ring();
  ASSERT_GE(ring.shard(tid).ring.End(), 1u);
  obs::LogRing::Record rec;
  ASSERT_TRUE(
      ring.shard(tid).ring.Read(ring.shard(tid).ring.End() - 1, &rec));
  std::string text{rec.text, rec.len};
  EXPECT_NE(text.find("test: hello"), std::string::npos);
  EXPECT_NE(text.find("k=42"), std::string::npos);
  EXPECT_EQ(rec.tid, tid);
  EXPECT_EQ(rec.level, static_cast<uint8_t>(obs::LogLevel::kInfo));
}

TEST(LogRingTest, LevelGateFiltersBelow) {
  obs::Logger logger;
  logger.set_stderr(false);
  logger.set_level(obs::LogLevel::kWarn);
  uint32_t tid = Thread::Id();
  uint64_t before = logger.ring().shard(tid).ring.End();
  logger.Write(obs::LogLevel::kDebug, "test", "dropped");
  logger.Write(obs::LogLevel::kInfo, "test", "dropped");
  EXPECT_EQ(logger.ring().shard(tid).ring.End(), before);
  logger.Write(obs::LogLevel::kError, "test", "kept");
  EXPECT_EQ(logger.ring().shard(tid).ring.End(), before + 1);
}

TEST(LogRingTest, OverflowDropsAndAccountsForEveryWrite) {
  obs::Logger logger;
  logger.set_stderr(false);
  logger.set_level(obs::LogLevel::kDebug);
  // Far more writes than one ring can hold. The concurrent drainer may
  // free slots mid-loop, so assert the conservation law rather than an
  // exact split: every enabled write is either committed or counted as
  // dropped, and at least one full ring must have committed.
  constexpr uint64_t kWrites = 8 * obs::LogRing::kEntriesPerThread;
  for (uint64_t i = 0; i < kWrites; ++i) {
    logger.Write(obs::LogLevel::kInfo, "test", "spam",
                 obs::LogField{"i", i});
  }
  uint64_t committed = logger.ring().shard(Thread::Id()).ring.End();
  EXPECT_EQ(committed + logger.Dropped(), kWrites);
  EXPECT_GE(committed, uint64_t{obs::LogRing::kEntriesPerThread});
  // Flush drains everything committed to the sinks.
  logger.Flush();
  EXPECT_EQ(logger.Emitted(), committed);
  logger.Write(obs::LogLevel::kInfo, "test", "after-drain");
  logger.Flush();
  EXPECT_EQ(logger.Emitted(), committed + 1);
}

TEST(LogRingTest, FileSinkReceivesStructuredLines) {
  std::string path = ::testing::TempDir() + "/slowlog_test_log.txt";
  std::remove(path.c_str());
  {
    obs::Logger logger;
    logger.set_stderr(false);
    logger.set_level(obs::LogLevel::kDebug);
    ASSERT_TRUE(logger.OpenFile(path));
    logger.Write(obs::LogLevel::kWarn, "unit", "file sink works",
                 obs::LogField{"answer", uint64_t{42}},
                 obs::LogField{"name", "faster"});
    logger.Flush();
  }
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[4096];
  size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  std::remove(path.c_str());
  std::string content{buf, n};
  EXPECT_NE(content.find("unit: file sink works"), std::string::npos);
  EXPECT_NE(content.find("answer=42"), std::string::npos);
  EXPECT_NE(content.find("name=faster"), std::string::npos);
  EXPECT_NE(content.find("warn"), std::string::npos);
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
