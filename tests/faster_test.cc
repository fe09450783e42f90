#include "core/faster.h"

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <thread>
#include <vector>

#include "core/functions.h"
#include "device/memory_device.h"
#include "parking_device.h"

namespace faster {
namespace {

using Store = FasterKv<CountStoreFunctions>;

Store::Config SmallConfig(uint64_t mem_pages = 16, double mutable_frac = 0.9) {
  Store::Config cfg;
  cfg.table_size = 2048;
  cfg.log.memory_size_bytes = mem_pages << Address::kOffsetBits;
  cfg.log.mutable_fraction = mutable_frac;
  return cfg;
}

class FasterTest : public ::testing::Test {
 protected:
  MemoryDevice device_;
};

TEST_F(FasterTest, UpsertThenRead) {
  Store store{SmallConfig(), &device_};
  store.StartSession();
  EXPECT_EQ(store.Upsert(1, 100), Status::kOk);
  uint64_t out = 0;
  EXPECT_EQ(store.Read(1, 0, &out), Status::kOk);
  EXPECT_EQ(out, 100u);
  store.StopSession();
}

TEST_F(FasterTest, ReadMissingKey) {
  Store store{SmallConfig(), &device_};
  store.StartSession();
  uint64_t out = 0;
  EXPECT_EQ(store.Read(42, 0, &out), Status::kNotFound);
  store.StopSession();
}

TEST_F(FasterTest, UpsertOverwritesInPlace) {
  Store store{SmallConfig(), &device_};
  store.StartSession();
  ASSERT_EQ(store.Upsert(7, 1), Status::kOk);
  auto appended_before = store.GetStats().appended_records;
  ASSERT_EQ(store.Upsert(7, 2), Status::kOk);
  // Second upsert hits the mutable region: no new record.
  EXPECT_EQ(store.GetStats().appended_records, appended_before);
  uint64_t out = 0;
  ASSERT_EQ(store.Read(7, 0, &out), Status::kOk);
  EXPECT_EQ(out, 2u);
  store.StopSession();
}

TEST_F(FasterTest, RmwCreatesThenIncrements) {
  Store store{SmallConfig(), &device_};
  store.StartSession();
  EXPECT_EQ(store.Rmw(9, 5), Status::kOk);   // initial value = input
  EXPECT_EQ(store.Rmw(9, 3), Status::kOk);   // in-place add
  uint64_t out = 0;
  ASSERT_EQ(store.Read(9, 0, &out), Status::kOk);
  EXPECT_EQ(out, 8u);
  store.StopSession();
}

TEST_F(FasterTest, DeleteInMutableRegion) {
  Store store{SmallConfig(), &device_};
  store.StartSession();
  ASSERT_EQ(store.Upsert(5, 55), Status::kOk);
  EXPECT_EQ(store.Delete(5), Status::kOk);
  uint64_t out = 0;
  EXPECT_EQ(store.Read(5, 0, &out), Status::kNotFound);
  EXPECT_EQ(store.Delete(5), Status::kNotFound);  // already deleted
  store.StopSession();
}

TEST_F(FasterTest, DeleteMissingKey) {
  Store store{SmallConfig(), &device_};
  store.StartSession();
  EXPECT_EQ(store.Delete(12345), Status::kNotFound);
  store.StopSession();
}

TEST_F(FasterTest, UpsertAfterDeleteRevivesKey) {
  Store store{SmallConfig(), &device_};
  store.StartSession();
  ASSERT_EQ(store.Upsert(5, 1), Status::kOk);
  ASSERT_EQ(store.Delete(5), Status::kOk);
  ASSERT_EQ(store.Upsert(5, 2), Status::kOk);
  uint64_t out = 0;
  ASSERT_EQ(store.Read(5, 0, &out), Status::kOk);
  EXPECT_EQ(out, 2u);
  store.StopSession();
}

TEST_F(FasterTest, RmwAfterDeleteStartsFresh) {
  Store store{SmallConfig(), &device_};
  store.StartSession();
  ASSERT_EQ(store.Rmw(6, 10), Status::kOk);
  ASSERT_EQ(store.Delete(6), Status::kOk);
  ASSERT_EQ(store.Rmw(6, 7), Status::kOk);  // initial again, not 17
  uint64_t out = 0;
  ASSERT_EQ(store.Read(6, 0, &out), Status::kOk);
  EXPECT_EQ(out, 7u);
  store.StopSession();
}

TEST_F(FasterTest, ManyKeysAllReadable) {
  // Large memory: stays fully in memory.
  Store store{SmallConfig(64), &device_};
  store.StartSession();
  constexpr uint64_t kKeys = 50000;
  for (uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_EQ(store.Upsert(k, k * 2 + 1), Status::kOk);
  }
  for (uint64_t k = 0; k < kKeys; ++k) {
    uint64_t out = 0;
    ASSERT_EQ(store.Read(k, 0, &out), Status::kOk) << "key " << k;
    ASSERT_EQ(out, k * 2 + 1);
  }
  store.StopSession();
}

// Larger-than-memory: a small buffer forces eviction; reads of cold keys
// must go pending and complete through the async I/O path (Sec. 5.3).
TEST_F(FasterTest, LargerThanMemoryReads) {
  Store store{SmallConfig(2, 0.5), &device_};
  store.StartSession();
  constexpr uint64_t kKeys = 400000;  // ~9.6 MB of records >> 4 pages
  for (uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_EQ(store.Upsert(k, k + 7), Status::kOk);
  }
  ASSERT_GT(store.hlog().head_address().control(), 64u)
      << "dataset should have spilled";
  // Cold keys (early inserts) are on storage now.
  uint64_t pending = 0;
  std::vector<uint64_t> outs(100, 0);
  for (uint64_t k = 0; k < 100; ++k) {
    Status s = store.Read(k, 0, &outs[k]);
    if (s == Status::kPending) {
      ++pending;
    } else {
      ASSERT_EQ(s, Status::kOk);
      ASSERT_EQ(outs[k], k + 7);
    }
  }
  EXPECT_GT(pending, 0u);
  ASSERT_TRUE(store.CompletePending(/*wait=*/true));
  for (uint64_t k = 0; k < 100; ++k) {
    EXPECT_EQ(outs[k], k + 7) << "key " << k;
  }
  store.StopSession();
}

TEST_F(FasterTest, RmwOnSpilledRecordReadsThroughStorage) {
  Store store{SmallConfig(2, 0.5), &device_};
  store.StartSession();
  ASSERT_EQ(store.Rmw(0, 100), Status::kOk);
  // Push key 0 out of memory.
  for (uint64_t k = 1; k < 400000; ++k) {
    ASSERT_EQ(store.Upsert(k, k), Status::kOk);
  }
  ASSERT_GT(store.hlog().head_address().control(), 64u);
  Status s = store.Rmw(0, 11);
  if (s == Status::kPending) {
    ASSERT_TRUE(store.CompletePending(/*wait=*/true));
  } else {
    ASSERT_EQ(s, Status::kOk);
  }
  uint64_t out = 0;
  s = store.Read(0, 0, &out);
  if (s == Status::kPending) {
    ASSERT_TRUE(store.CompletePending(/*wait=*/true));
  } else {
    ASSERT_EQ(s, Status::kOk);
  }
  EXPECT_EQ(out, 111u);
  store.StopSession();
}

TEST_F(FasterTest, TombstoneSurvivesSpillToStorage) {
  Store store{SmallConfig(2, 0.5), &device_};
  store.StartSession();
  ASSERT_EQ(store.Upsert(0, 99), Status::kOk);
  ASSERT_EQ(store.Delete(0), Status::kOk);
  for (uint64_t k = 1; k < 400000; ++k) {
    ASSERT_EQ(store.Upsert(k, k), Status::kOk);
  }
  uint64_t out = 0;
  Status s = store.Read(0, 0, &out);
  if (s == Status::kPending) {
    store.CompletePending(/*wait=*/true);
    // The pending read must resolve to NotFound; the output is untouched.
    EXPECT_EQ(out, 0u);
  } else {
    EXPECT_EQ(s, Status::kNotFound);
  }
  store.StopSession();
}

// Concurrent RMW: the final value must equal the number of increments
// (linearizability of fetch-and-add style in-place updates + RCU).
TEST_F(FasterTest, ConcurrentRmwSumInvariant) {
  Store store{SmallConfig(16, 0.9), &device_};
  constexpr int kThreads = 4;
  constexpr uint64_t kIncrementsPerThread = 20000;
  constexpr uint64_t kKeys = 16;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      store.StartSession();
      std::mt19937_64 rng(t);
      for (uint64_t i = 0; i < kIncrementsPerThread; ++i) {
        uint64_t key = rng() % kKeys;
        Status s = store.Rmw(key, 1);
        ASSERT_TRUE(s == Status::kOk || s == Status::kPending);
        if (i % 4096 == 0) store.CompletePending(false);
      }
      store.StopSession();
    });
  }
  for (auto& t : threads) t.join();

  store.StartSession();
  uint64_t total = 0;
  for (uint64_t k = 0; k < kKeys; ++k) {
    uint64_t out = 0;
    Status s = store.Read(k, 0, &out);
    if (s == Status::kPending) {
      store.CompletePending(true);
      s = Status::kOk;
    }
    ASSERT_EQ(s, Status::kOk);
    total += out;
  }
  EXPECT_EQ(total, kThreads * kIncrementsPerThread);
  store.StopSession();
}

// Append-only mode (Sec. 5 strawman): correctness must be identical, but
// every update appends.
TEST_F(FasterTest, ForceRcuModeIsCorrect) {
  auto cfg = SmallConfig(16, 0.9);
  cfg.force_rcu = true;
  Store store{cfg, &device_};
  store.StartSession();
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(store.Rmw(3, 1), Status::kOk);
  }
  uint64_t out = 0;
  ASSERT_EQ(store.Read(3, 0, &out), Status::kOk);
  EXPECT_EQ(out, 100u);
  // every RMW appended a record
  EXPECT_GE(store.GetStats().appended_records, 100u);
  store.StopSession();
}

// Fuzzy region (Sec. 6.2): RMWs that land between the safe-read-only and
// read-only offsets go pending and complete after epoch propagation.
TEST_F(FasterTest, FuzzyRegionRmwGoesPendingAndCompletes) {
  Store store{SmallConfig(8, 0.5), &device_};
  store.StartSession();
  constexpr uint64_t kKeys = 200000;
  for (uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_EQ(store.Upsert(k, 1), Status::kOk);
  }
  // Some RMWs should have hit the fuzzy region across this many page
  // rollovers; regardless, issue RMWs against recently written keys which
  // sit near the read-only boundary.
  uint64_t fuzzy_before = store.GetStats().fuzzy_rmws;
  for (uint64_t k = 0; k < kKeys; ++k) {
    Status s = store.Rmw(k % kKeys, 1);
    ASSERT_TRUE(s == Status::kOk || s == Status::kPending);
  }
  ASSERT_TRUE(store.CompletePending(/*wait=*/true));
  (void)fuzzy_before;
  store.StopSession();
}

TEST_F(FasterTest, StatsAreCounted) {
  Store store{SmallConfig(), &device_};
  store.StartSession();
  store.Upsert(1, 1);
  store.Rmw(1, 1);
  uint64_t out;
  store.Read(1, 0, &out);
  store.Delete(1);
  auto stats = store.GetStats();
  EXPECT_EQ(stats.upserts, 1u);
  EXPECT_EQ(stats.rmws, 1u);
  EXPECT_EQ(stats.reads, 1u);
  EXPECT_EQ(stats.deletes, 1u);
  store.StopSession();
}

TEST_F(FasterTest, ScanLogSeesAllLiveRecords) {
  Store store{SmallConfig(16), &device_};
  store.StartSession();
  constexpr uint64_t kKeys = 1000;
  for (uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_EQ(store.Upsert(k, k + 1), Status::kOk);
  }
  std::map<uint64_t, uint64_t> seen;
  store.ScanLog(store.hlog().begin_address(), store.hlog().tail_address(),
                [&](Address, const Store::RecordT& rec) {
                  if (!rec.info().invalid() && !rec.info().tombstone()) {
                    seen[rec.key] = rec.value;
                  }
                });
  EXPECT_EQ(seen.size(), kKeys);
  for (uint64_t k = 0; k < kKeys; ++k) EXPECT_EQ(seen[k], k + 1);
  store.StopSession();
}

TEST_F(FasterTest, GrowIndexWhileReading) {
  Store store{SmallConfig(16), &device_};
  store.StartSession();
  constexpr uint64_t kKeys = 10000;
  for (uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_EQ(store.Upsert(k, k), Status::kOk);
  }
  uint64_t before = store.index().size();
  store.GrowIndex();
  EXPECT_EQ(store.index().size(), before * 2);
  for (uint64_t k = 0; k < kKeys; ++k) {
    uint64_t out = 0;
    ASSERT_EQ(store.Read(k, 0, &out), Status::kOk);
    ASSERT_EQ(out, k);
  }
  store.StopSession();
}

TEST_F(FasterTest, ShiftBeginAddressExpiresOldRecords) {
  Store store{SmallConfig(16), &device_};
  store.StartSession();
  ASSERT_EQ(store.Upsert(1, 10), Status::kOk);
  Address cut = store.hlog().tail_address();
  ASSERT_EQ(store.Upsert(2, 20), Status::kOk);
  ASSERT_TRUE(store.ShiftBeginAddress(cut));
  uint64_t out = 0;
  EXPECT_EQ(store.Read(1, 0, &out), Status::kNotFound);  // expired
  EXPECT_EQ(store.Read(2, 0, &out), Status::kOk);
  EXPECT_EQ(out, 20u);
  store.StopSession();
}

// Checkpoint/recovery (Sec. 6.5): a recovered store serves every key
// written before the checkpoint started.
TEST_F(FasterTest, CheckpointAndRecover) {
  std::string dir = "/tmp/faster_ckpt_test";
  std::filesystem::remove_all(dir);
  constexpr uint64_t kKeys = 20000;
  {
    Store store{SmallConfig(16), &device_};
    store.StartSession();
    for (uint64_t k = 0; k < kKeys; ++k) {
      ASSERT_EQ(store.Upsert(k, k * 3), Status::kOk);
    }
    ASSERT_EQ(store.Checkpoint(dir), Status::kOk);
    store.StopSession();
  }
  {
    Store store{SmallConfig(16), &device_};
    ASSERT_EQ(store.Recover(dir), Status::kOk);
    store.StartSession();
    uint64_t pending = 0;
    std::vector<uint64_t> outs(kKeys, UINT64_MAX);
    for (uint64_t k = 0; k < kKeys; ++k) {
      Status s = store.Read(k, 0, &outs[k]);
      if (s == Status::kPending) {
        ++pending;
      } else {
        ASSERT_EQ(s, Status::kOk) << "key " << k;
      }
      if (k % 1000 == 0) store.CompletePending(false);
    }
    ASSERT_TRUE(store.CompletePending(true));
    for (uint64_t k = 0; k < kKeys; ++k) {
      ASSERT_EQ(outs[k], k * 3) << "key " << k;
    }
    EXPECT_GT(pending, 0u);  // everything is on storage after recovery
    store.StopSession();
  }
  std::filesystem::remove_all(dir);
}

TEST_F(FasterTest, RecoveryAppliesPostSnapshotRecords) {
  std::string dir = "/tmp/faster_ckpt_test2";
  std::filesystem::remove_all(dir);
  {
    Store store{SmallConfig(16), &device_};
    store.StartSession();
    ASSERT_EQ(store.Upsert(1, 111), Status::kOk);
    ASSERT_EQ(store.Checkpoint(dir), Status::kOk);
    store.StopSession();
  }
  {
    Store store{SmallConfig(16), &device_};
    ASSERT_EQ(store.Recover(dir), Status::kOk);
    store.StartSession();
    uint64_t out = 0;
    Status s = store.Read(1, 0, &out);
    if (s == Status::kPending) {
      store.CompletePending(true);
    } else {
      ASSERT_EQ(s, Status::kOk);
    }
    EXPECT_EQ(out, 111u);
    // Recovery resumes writes at the recovered tail.
    ASSERT_EQ(store.Upsert(2, 222), Status::kOk);
    s = store.Read(2, 0, &out);
    ASSERT_EQ(s, Status::kOk);
    EXPECT_EQ(out, 222u);
    store.StopSession();
  }
  std::filesystem::remove_all(dir);
}

// CRDT / mergeable stores (Sec. 6.3): RMW appends deltas in the fuzzy
// region and on storage misses; reads reconcile.
TEST_F(FasterTest, MergeableStoreSumsDeltas) {
  using CrdtStore = FasterKv<MergeableCountFunctions>;
  CrdtStore::Config cfg;
  cfg.table_size = 2048;
  cfg.log.memory_size_bytes = 4ull << Address::kOffsetBits;
  cfg.log.mutable_fraction = 0.5;
  CrdtStore store{cfg, &device_};
  store.StartSession();
  constexpr uint64_t kIncrements = 300000;  // forces spills mid-stream
  for (uint64_t i = 0; i < kIncrements; ++i) {
    // Interleave a hot key with filler to push pages through regions.
    ASSERT_EQ(store.Rmw(7, 1), Status::kOk);
    ASSERT_EQ(store.Upsert(1000 + (i % 100000), i), Status::kOk);
  }
  uint64_t out = 0;
  Status s = store.Read(7, 0, &out);
  if (s == Status::kPending) {
    ASSERT_TRUE(store.CompletePending(true));
  } else {
    ASSERT_EQ(s, Status::kOk);
  }
  EXPECT_EQ(out, kIncrements);
  store.StopSession();
}


// Appendix E: pending operations report back through the completion
// callback with the user-provided per-operation context.
namespace completion_cb {
std::atomic<int> read_completions{0};
std::atomic<int> rmw_completions{0};
std::atomic<uint64_t> context_sum{0};
void Callback(Store::UserOp op, Status s, void* user_context) {
  if (op == Store::UserOp::kRead && s == Status::kOk) ++read_completions;
  if (op == Store::UserOp::kRmw && s == Status::kOk) ++rmw_completions;
  context_sum += reinterpret_cast<uintptr_t>(user_context);
}
}  // namespace completion_cb

// A device that rejects every read at submission while `reject` is set:
// the read is never issued, so its callback never fires.
class RejectingDevice : public MemoryDevice {
 public:
  Status ReadAsync(uint64_t offset, void* dst, uint32_t len,
                   IoCallback callback, void* context) override {
    if (reject) return Status::kIoError;
    return MemoryDevice::ReadAsync(offset, dst, len, callback, context);
  }
  bool reject = false;
};

// A rejected storage read, a single op's or a batch op's, fails the op
// through the completion callback (so CompletePending and StopSession
// return), and fails a compaction and a log scan instead of spinning in
// the synchronous read.
TEST(StorageFailureTest, RejectedReadFailsInsteadOfHanging) {
  RejectingDevice device;
  Store::Config cfg = SmallConfig(/*mem_pages=*/2);
  cfg.completion_callback = [](Store::UserOp, Status result, void* ctx) {
    *static_cast<Status*>(ctx) = result;
  };
  Store store{cfg, &device};
  store.StartSession();
  constexpr uint64_t kKeys = 500000;
  for (uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_EQ(store.Upsert(k, k + 1), Status::kOk);
  }
  ASSERT_GT(store.hlog().head_address().control(), 64u) << "must spill";

  device.reject = true;
  Status completed = Status::kPending;
  uint64_t out = 0;
  ASSERT_EQ(store.Read(0, 0, &out, &completed), Status::kPending);
  EXPECT_TRUE(store.CompletePending(/*wait=*/true));
  EXPECT_EQ(completed, Status::kIoError);
  completed = Status::kPending;
  Store::BatchOp op;
  op.kind = Store::BatchOp::Kind::kRead;
  op.key = 0;
  op.output = &out;
  op.user_context = &completed;
  store.ExecuteBatch(&op, 1);
  ASSERT_EQ(op.status, Status::kPending);
  EXPECT_TRUE(store.CompletePending(/*wait=*/true));
  EXPECT_EQ(completed, Status::kIoError);
  Address begin = store.hlog().begin_address();
  EXPECT_EQ(store.CompactLog(store.hlog().safe_read_only_address()),
            Status::kIoError);
  EXPECT_EQ(store.hlog().begin_address(), begin);
  EXPECT_EQ(store.ScanLog(begin, store.hlog().tail_address(),
                          [](Address, const Store::RecordT&) {}),
            Status::kIoError);

  device.reject = false;
  completed = Status::kPending;
  ASSERT_EQ(store.Read(0, 0, &out, &completed), Status::kPending);
  EXPECT_TRUE(store.CompletePending(/*wait=*/true));
  EXPECT_EQ(completed, Status::kOk);
  EXPECT_EQ(out, 1u);
  store.StopSession();
}

// One thread's storage reads, run by another thread's PollAll, come back
// through the owner's ready list: the completing thread's writes to each
// context happen-before the owner continues it (TSan checks the edge).
TEST_F(FasterTest, PendingReadCompletedByAnotherThreadsPollAll) {
  ParkingDevice device;
  Store store{SmallConfig(2, 0.5), &device};
  store.StartSession();
  for (uint64_t k = 0; k < 400000; ++k) {
    ASSERT_EQ(store.Upsert(k, k + 7), Status::kOk);
  }
  constexpr uint64_t kReads = 64;  // the first keys live on storage
  uint64_t outs[kReads] = {};
  uint32_t pending = 0;
  for (uint64_t k = 0; k < kReads; ++k) {
    Status s = store.Read(k, 0, &outs[k]);
    ASSERT_TRUE(s == Status::kOk || s == Status::kPending);
    if (s == Status::kPending) ++pending;
  }
  ASSERT_GT(pending, 0u);
  // The owner's own poll runs nothing: every read waits for the poller.
  EXPECT_FALSE(store.CompletePending(/*wait=*/false));
  uint32_t run_by_poller = 0;
  std::thread poller([&] { run_by_poller = device.PollAll(); });
  poller.join();
  EXPECT_EQ(run_by_poller, pending);
  ASSERT_TRUE(store.CompletePending(/*wait=*/true));
  for (uint64_t k = 0; k < kReads; ++k) EXPECT_EQ(outs[k], k + 7) << k;
  store.StopSession();
}

// A pending read whose storage walk falls below the begin address because
// a compaction moved its key meanwhile restarts from the index. Two keys
// share a chain (one tag bit): the read of the older one parks on the
// newer one's record; CompactLog copies both to the tail and truncates
// the log past them; then the parked read completes, and its walk's next
// hop is gone.
TEST(PendingReadTest, RestartsWhenCompactionMovesItsKey) {
  ParkingDevice device;
  Store::Config cfg = SmallConfig(/*mem_pages=*/2, 0.5);
  cfg.tag_bits = 1;
  cfg.completion_callback = [](Store::UserOp, Status result, void* ctx) {
    *static_cast<Status*>(ctx) = result;
  };
  Store store{cfg, &device};
  auto chain = [&cfg](uint64_t key) {
    KeyHash h = DefaultKeyHasher<uint64_t>{}(key);
    return std::pair{h.Bucket(cfg.table_size), h.Tag() & 1};
  };
  constexpr uint64_t kA = 1;
  uint64_t b = kA + 1;
  while (chain(b) != chain(kA)) ++b;
  store.StartSession();
  ASSERT_EQ(store.Upsert(kA, 100), Status::kOk);
  ASSERT_EQ(store.Upsert(b, 200), Status::kOk);
  Address past_both = store.hlog().tail_address();
  // Spill both to storage; no other key joins their chain.
  for (uint64_t k = b + 1, n = 0; n < 400000; ++k) {
    if (chain(k) == chain(kA)) continue;
    ASSERT_EQ(store.Upsert(k, k), Status::kOk);
    ++n;
  }
  ASSERT_LT(past_both, store.hlog().head_address());

  Status completed = Status::kPending;
  uint64_t out = 0;
  ASSERT_EQ(store.Read(kA, 0, &out, &completed), Status::kPending);
  device.set_parking(false);  // the compaction reads synchronously
  ASSERT_EQ(store.CompactLog(past_both), Status::kOk);
  ASSERT_GE(store.hlog().begin_address(), past_both);
  EXPECT_EQ(device.PollAll(), 1u);
  ASSERT_TRUE(store.CompletePending(/*wait=*/true));
  EXPECT_EQ(completed, Status::kOk);
  EXPECT_EQ(out, 100u);
  out = 0;
  EXPECT_EQ(store.Read(kA, 0, &out), Status::kOk);
  EXPECT_EQ(out, 100u);
  store.StopSession();
}

// ---------------------------------------------------------------------
// Pending ops whose storage read fails at completion, and every change of
// what a pending context waits on: nothing, a storage read, or the fuzzy
// retry list.
// ---------------------------------------------------------------------

using Ctr = obs::StoreCounter;

/// SmallConfig(2, 0.5), reporting each pending op's status to the
/// `Status` its user context points at.
template <class S = Store>
typename S::Config ReportingConfig() {
  typename S::Config cfg;
  cfg.table_size = 2048;
  cfg.log.memory_size_bytes = 2ull << Address::kOffsetBits;
  cfg.log.mutable_fraction = 0.5;
  cfg.completion_callback = [](typename S::UserOp, Status result, void* ctx) {
    *static_cast<Status*>(ctx) = result;
  };
  return cfg;
}

/// The hash chain `key` lives in: its bucket and the tag bits `cfg` keeps.
template <class Config>
auto ChainOf(const Config& cfg, uint64_t key) {
  KeyHash h = DefaultKeyHasher<uint64_t>{}(key);
  return std::pair{h.Bucket(cfg.table_size),
                   h.Tag() & ((1u << cfg.tag_bits) - 1)};
}

/// Upserts keys [from, from + 400000) that are not in `skip`'s chain, which
/// pushes what came before them onto storage.
template <class S>
void Spill(S& store, uint64_t from, uint64_t skip = ~uint64_t{0}) {
  for (uint64_t k = from, n = 0; n < 400000; ++k) {
    if (skip != ~uint64_t{0} &&
        ChainOf(store.config(), k) == ChainOf(store.config(), skip)) {
      continue;
    }
    ASSERT_EQ(store.Upsert(k, k), Status::kOk);
    ++n;
  }
}

template <class S>
void ExpectNoPendingLevels(const S& store) {
  EXPECT_EQ(store.counters().Sum(Ctr::kPendingIos), 0u);
  EXPECT_EQ(store.counters().Sum(Ctr::kPendingRetries), 0u);
}

// The second read of a walk (its first chain hop) fails: the read ends with
// kIoError. Two keys share a chain (one tag bit): a read of the older one
// reads the newer one's record first.
TEST(StorageFailureTest, ReadFailingOnItsSecondHopReportsIoError) {
  ParkingDevice device;
  device.set_parking(false);
  Store::Config cfg = ReportingConfig();
  cfg.tag_bits = 1;
  Store store{cfg, &device};
  constexpr uint64_t kA = 1;
  uint64_t b = kA + 1;
  while (ChainOf(cfg, b) != ChainOf(cfg, kA)) ++b;
  store.StartSession();
  ASSERT_EQ(store.Upsert(kA, 100), Status::kOk);
  ASSERT_EQ(store.Upsert(b, 200), Status::kOk);
  Address past_both = store.hlog().tail_address();
  Spill(store, b + 1, kA);
  ASSERT_LT(past_both, store.hlog().head_address());

  uint64_t ios = store.counters().Sum(Ctr::kIosIssued);
  device.FailRead(2);
  Status completed = Status::kPending;
  uint64_t out = 0;
  ASSERT_EQ(store.Read(kA, 0, &out, &completed), Status::kPending);
  EXPECT_TRUE(store.CompletePending(/*wait=*/true));
  EXPECT_EQ(completed, Status::kIoError);
  EXPECT_EQ(out, 0u);
  EXPECT_EQ(store.counters().Sum(Ctr::kIosIssued), ios + 2);
  ExpectNoPendingLevels(store);
  store.StopSession();
}

// An RMW whose storage read fails ends with kIoError and changes nothing.
TEST(StorageFailureTest, RmwWhoseReadFailsReportsIoErrorAndChangesNothing) {
  ParkingDevice device;
  device.set_parking(false);
  Store store{ReportingConfig(), &device};
  store.StartSession();
  ASSERT_EQ(store.Upsert(0, 100), Status::kOk);
  Spill(store, 1);
  device.FailRead(1);
  Status completed = Status::kPending;
  ASSERT_EQ(store.Rmw(0, 11, &completed), Status::kPending);
  EXPECT_TRUE(store.CompletePending(/*wait=*/true));
  EXPECT_EQ(completed, Status::kIoError);
  ExpectNoPendingLevels(store);

  completed = Status::kPending;
  uint64_t out = 0;
  ASSERT_EQ(store.Read(0, 0, &out, &completed), Status::kPending);
  EXPECT_TRUE(store.CompletePending(/*wait=*/true));
  EXPECT_EQ(completed, Status::kOk);
  EXPECT_EQ(out, 100u);
  store.StopSession();
}

// A mergeable (CRDT) read that fails after merging a delta from storage
// ends with kIoError and leaves its output alone.
TEST(StorageFailureTest, MergeableReadFailingMidMergeReportsIoError) {
  using CrdtStore = FasterKv<MergeableCountFunctions>;
  ParkingDevice device;
  device.set_parking(false);
  CrdtStore store{ReportingConfig<CrdtStore>(), &device};
  store.StartSession();
  // Three delta records of key 7: each RMW after the first finds the one
  // before it read-only and appends a delta.
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(store.Rmw(7, 1), Status::kOk);
    store.hlog().ShiftReadOnlyToTail(/*wait=*/true);
  }
  Address past_deltas = store.hlog().tail_address();
  Spill(store, 1000);
  ASSERT_LT(past_deltas, store.hlog().head_address());

  uint64_t ios = store.counters().Sum(Ctr::kIosIssued);
  device.FailRead(2);
  Status completed = Status::kPending;
  uint64_t out = 0;
  ASSERT_EQ(store.Read(7, 0, &out, &completed), Status::kPending);
  EXPECT_TRUE(store.CompletePending(/*wait=*/true));
  EXPECT_EQ(completed, Status::kIoError);
  EXPECT_EQ(out, 0u);
  EXPECT_EQ(store.counters().Sum(Ctr::kIosIssued), ios + 2);
  ExpectNoPendingLevels(store);

  completed = Status::kPending;
  ASSERT_EQ(store.Read(7, 0, &out, &completed), Status::kPending);
  EXPECT_TRUE(store.CompletePending(/*wait=*/true));
  EXPECT_EQ(completed, Status::kOk);
  EXPECT_EQ(out, 3u);
  store.StopSession();
}

// A pending read whose storage walk falls below the begin address while
// the index still leads to the chain it walked ends kNotFound: its key's
// only record was truncated away. The read of the older of two keys that
// share a chain (one tag bit) reads the newer one's record, whose
// previous address is below the begin.
TEST(PendingReadTest, TruncatedChainThatDidNotMoveEndsNotFound) {
  MemoryDevice device;
  Store::Config cfg = ReportingConfig();
  cfg.tag_bits = 1;
  Store store{cfg, &device};
  constexpr uint64_t kA = 1;
  uint64_t b = kA + 1;
  while (ChainOf(cfg, b) != ChainOf(cfg, kA)) ++b;
  store.StartSession();
  ASSERT_EQ(store.Upsert(kA, 100), Status::kOk);
  Address b_record = store.hlog().tail_address();
  ASSERT_EQ(store.Upsert(b, 200), Status::kOk);
  Spill(store, b + 1, kA);
  ASSERT_LT(b_record, store.hlog().head_address());
  ASSERT_TRUE(store.ShiftBeginAddress(b_record));

  Status completed = Status::kPending;
  uint64_t out = 0;
  ASSERT_EQ(store.Read(kA, 0, &out, &completed), Status::kPending);
  ASSERT_TRUE(store.CompletePending(/*wait=*/true));
  EXPECT_EQ(completed, Status::kNotFound);
  EXPECT_EQ(out, 0u);
  ExpectNoPendingLevels(store);
  store.StopSession();
}

// Fresh -> retry -> retry -> read -> done. An RMW of a record between the
// safe read-only and read-only offsets waits on the retry list, and stays
// there until a refresh moves the safe offset. By then its record spilled
// to storage, so the retry reads it.
TEST(PendingWaitTest, FuzzyRetryReadsTheRecordThatSpilledMeanwhile) {
  MemoryDevice device;
  Store store{ReportingConfig(), &device};
  store.StartSession();
  Address record = store.hlog().tail_address();
  ASSERT_EQ(store.Upsert(0, 100), Status::kOk);
  // The safe read-only offset follows at this thread's next refresh.
  store.hlog().ShiftReadOnlyToTail(/*wait=*/false);
  uint64_t fuzzy = store.GetStats().fuzzy_rmws;
  Status completed = Status::kPending;
  ASSERT_EQ(store.Rmw(0, 11, &completed), Status::kPending);
  EXPECT_EQ(store.GetStats().fuzzy_rmws, fuzzy + 1);
  EXPECT_FALSE(store.CompletePending(/*wait=*/false));  // no refresh yet
  if constexpr (obs::kStatsEnabled) {
    EXPECT_EQ(store.counters().Sum(Ctr::kPendingRetries), 1u);
  }
  Spill(store, 1);  // refreshes as it goes
  ASSERT_LT(record, store.hlog().head_address());

  uint64_t ios = store.counters().Sum(Ctr::kIosIssued);
  EXPECT_TRUE(store.CompletePending(/*wait=*/true));
  EXPECT_EQ(completed, Status::kOk);
  EXPECT_EQ(store.counters().Sum(Ctr::kIosIssued), ios + 1);
  ExpectNoPendingLevels(store);
  uint64_t out = 0;
  ASSERT_EQ(store.Read(0, 0, &out), Status::kOk);
  EXPECT_EQ(out, 111u);
  store.StopSession();
}

// Fresh -> read -> read -> done. While an RMW's storage read is parked, its
// key gets a newer record, which spills to storage too: the RMW resumes,
// finds its chain bottom moved, and reads the new one.
TEST(PendingWaitTest, RmwChasesAChainBottomThatMovedWhileItRead) {
  ParkingDevice device;
  Store store{ReportingConfig(), &device};
  store.StartSession();
  ASSERT_EQ(store.Upsert(0, 100), Status::kOk);
  Spill(store, 1);
  Status completed = Status::kPending;
  ASSERT_EQ(store.Rmw(0, 11, &completed), Status::kPending);
  Address newer = store.hlog().tail_address();
  ASSERT_EQ(store.Upsert(0, 200), Status::kOk);
  Spill(store, 1);
  ASSERT_LT(newer, store.hlog().head_address());

  uint64_t ios = store.counters().Sum(Ctr::kIosIssued);
  device.set_parking(false);  // the chase reads at submit
  device.PollAll();  // unless an allocation stall in Spill polled it already
  EXPECT_TRUE(store.CompletePending(/*wait=*/true));
  EXPECT_EQ(completed, Status::kOk);
  EXPECT_EQ(store.counters().Sum(Ctr::kIosIssued), ios + 1);
  ExpectNoPendingLevels(store);
  uint64_t out = 0;
  ASSERT_EQ(store.Read(0, 0, &out), Status::kOk);
  EXPECT_EQ(out, 211u);
  store.StopSession();
}

// Fresh -> read -> retry -> done. While an RMW's storage read is parked,
// its key gets a newer record in memory, which the read-only offset then
// passes: the RMW resumes into the fuzzy region and waits on the retry
// list until a refresh moves the safe read-only offset.
TEST(PendingWaitTest, RmwReadResumesIntoTheFuzzyRegion) {
  ParkingDevice device;
  Store store{ReportingConfig(), &device};
  store.StartSession();
  ASSERT_EQ(store.Upsert(0, 100), Status::kOk);
  Spill(store, 1);
  Status completed = Status::kPending;
  ASSERT_EQ(store.Rmw(0, 11, &completed), Status::kPending);
  ASSERT_EQ(store.Upsert(0, 200), Status::kOk);
  store.hlog().ShiftReadOnlyToTail(/*wait=*/false);

  device.PollAll();
  EXPECT_FALSE(store.CompletePending(/*wait=*/false));  // now a retry
  EXPECT_EQ(completed, Status::kPending);
  EXPECT_EQ(store.counters().Sum(Ctr::kPendingIos), 0u);
  if constexpr (obs::kStatsEnabled) {
    EXPECT_EQ(store.counters().Sum(Ctr::kPendingRetries), 1u);
  }
  EXPECT_TRUE(store.CompletePending(/*wait=*/true));
  EXPECT_EQ(completed, Status::kOk);
  ExpectNoPendingLevels(store);
  uint64_t out = 0;
  ASSERT_EQ(store.Read(0, 0, &out), Status::kOk);
  EXPECT_EQ(out, 211u);
  store.StopSession();
}

TEST_F(FasterTest, CompletionCallbackReceivesUserContext) {
  auto cfg = SmallConfig(2, 0.5);
  cfg.completion_callback = &completion_cb::Callback;
  Store store{cfg, &device_};
  store.StartSession();
  for (uint64_t k = 0; k < 400000; ++k) {
    ASSERT_EQ(store.Upsert(k, k), Status::kOk);
  }
  ASSERT_GT(store.hlog().head_address().control(), 64u);
  completion_cb::read_completions = 0;
  completion_cb::rmw_completions = 0;
  completion_cb::context_sum = 0;
  uint64_t outs[8];
  uint64_t expected_sum = 0;
  int pending = 0;
  for (uint64_t k = 0; k < 8; ++k) {
    Status s = store.Read(k, 0, &outs[k], reinterpret_cast<void*>(k + 1));
    if (s == Status::kPending) {
      ++pending;
      expected_sum += k + 1;
    }
  }
  Status s = store.Rmw(3, 1, reinterpret_cast<void*>(uintptr_t{100}));
  if (s == Status::kPending) expected_sum += 100;
  ASSERT_TRUE(store.CompletePending(true));
  EXPECT_EQ(completion_cb::read_completions.load(), pending);
  if (s == Status::kPending) {
    EXPECT_EQ(completion_cb::rmw_completions.load(), 1);
  }
  EXPECT_EQ(completion_cb::context_sum.load(), expected_sum);
  store.StopSession();
}

}  // namespace
}  // namespace faster
