// Tests for variable-length keys and values (Sec. 2.1 capability): FasterKv
// over ByteStringFunctions, whose records use the variable layout.

#include <gtest/gtest.h>

#include <filesystem>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/faster.h"
#include "core/functions.h"
#include "device/memory_device.h"

namespace faster {
namespace {

using Store = FasterKv<ByteStringFunctions>;

// A pending op's user context points at the Status it completes with.
void StoreStatus(Store::UserOp, Status result, void* ctx) {
  *static_cast<Status*>(ctx) = result;
}

Store::Config SmallConfig(uint64_t pages = 16) {
  Store::Config cfg;
  cfg.table_size = 4096;
  cfg.log.memory_size_bytes = pages << Address::kOffsetBits;
  cfg.log.mutable_fraction = 0.5;
  cfg.completion_callback = StoreStatus;
  return cfg;
}

std::string ReadOrDie(Store& store, std::string_view key, Status* s) {
  std::string out;
  *s = store.Read(key, {}, &out, s);
  if (*s == Status::kPending) store.CompletePending(true);
  return out;
}

uint64_t IosIssued(const Store& store) {
  return store.counters().Sum(obs::StoreCounter::kIosIssued);
}

class VarlenTest : public ::testing::Test {
 protected:
  // Completion polling: a pending read completes only when
  // CompletePending polls the device.
  MemoryDevice device_;
};

TEST_F(VarlenTest, UpsertReadStrings) {
  Store store{SmallConfig(), &device_};
  store.StartSession();
  ASSERT_EQ(store.Upsert("user:1", "alice"), Status::kOk);
  ASSERT_EQ(store.Upsert("user:2", "bob"), Status::kOk);
  Status s;
  EXPECT_EQ(ReadOrDie(store, "user:1", &s), "alice");
  EXPECT_EQ(s, Status::kOk);
  EXPECT_EQ(ReadOrDie(store, "user:2", &s), "bob");
  ReadOrDie(store, "user:3", &s);
  EXPECT_EQ(s, Status::kNotFound);
  store.StopSession();
}

TEST_F(VarlenTest, EmptyValueIsValid) {
  Store store{SmallConfig(), &device_};
  store.StartSession();
  ASSERT_EQ(store.Upsert("k", ""), Status::kOk);
  Status s;
  EXPECT_EQ(ReadOrDie(store, "k", &s), "");
  EXPECT_EQ(s, Status::kOk);
  store.StopSession();
}

TEST_F(VarlenTest, ShrinkingValueUpdatesInPlace) {
  Store store{SmallConfig(), &device_};
  store.StartSession();
  ASSERT_EQ(store.Upsert("k", "a-rather-long-value"), Status::kOk);
  Address tail_before = store.hlog().tail_address();
  ASSERT_EQ(store.Upsert("k", "tiny"), Status::kOk);  // fits capacity
  EXPECT_EQ(store.hlog().tail_address(), tail_before);
  Status s;
  EXPECT_EQ(ReadOrDie(store, "k", &s), "tiny");
  ASSERT_EQ(store.Upsert("k", "mid-sized-value"), Status::kOk);  // regrow
  EXPECT_EQ(store.hlog().tail_address(), tail_before);
  EXPECT_EQ(ReadOrDie(store, "k", &s), "mid-sized-value");
  store.StopSession();
}

TEST_F(VarlenTest, GrowingBeyondCapacityAppends) {
  Store store{SmallConfig(16), &device_};
  store.StartSession();
  ASSERT_EQ(store.Upsert("k", "ab"), Status::kOk);
  Address tail_before = store.hlog().tail_address();
  std::string big(1000, 'x');
  ASSERT_EQ(store.Upsert("k", big), Status::kOk);
  EXPECT_GT(store.hlog().tail_address(), tail_before);
  Status s;
  EXPECT_EQ(ReadOrDie(store, "k", &s), big);
  store.StopSession();
}

TEST_F(VarlenTest, DeleteAndReinsert) {
  Store store{SmallConfig(), &device_};
  store.StartSession();
  ASSERT_EQ(store.Upsert("k", "v1"), Status::kOk);
  ASSERT_EQ(store.Delete("k"), Status::kOk);
  Status s;
  ReadOrDie(store, "k", &s);
  EXPECT_EQ(s, Status::kNotFound);
  EXPECT_EQ(store.Delete("k"), Status::kNotFound);
  ASSERT_EQ(store.Upsert("k", "v2"), Status::kOk);
  EXPECT_EQ(ReadOrDie(store, "k", &s), "v2");
  store.StopSession();
}

// A record must fit one log page: a bigger one is refused, not written.
TEST_F(VarlenTest, RecordLargerThanAPageIsRejected) {
  Store store{SmallConfig(), &device_};
  store.StartSession();
  std::string huge(Address::kPageSize, 'h');
  Address tail_before = store.hlog().tail_address();
  EXPECT_EQ(store.Upsert("k", huge), Status::kInvalid);
  EXPECT_EQ(store.Delete(huge), Status::kInvalid);
  EXPECT_EQ(store.hlog().tail_address(), tail_before);
  Status s;
  ReadOrDie(store, "k", &s);
  EXPECT_EQ(s, Status::kNotFound);
  store.StopSession();
}

TEST_F(VarlenTest, MixedSizesLargerThanMemory) {
  Store store{SmallConfig(/*pages=*/2), &device_};
  store.StartSession();
  // Values of size 10..500, ~50k keys -> tens of MB >> 8 MB buffer.
  constexpr uint64_t kKeys = 50000;
  std::mt19937_64 rng(5);
  std::unordered_map<std::string, std::string> expected;
  for (uint64_t k = 0; k < kKeys; ++k) {
    std::string key = "key-" + std::to_string(k);
    std::string value(10 + rng() % 491, static_cast<char>('a' + k % 26));
    ASSERT_EQ(store.Upsert(key, value), Status::kOk);
    if (k % 197 == 0) expected[key] = value;
  }
  ASSERT_GT(store.hlog().head_address().control(), 64u) << "must spill";
  for (const auto& [key, value] : expected) {
    Status s;
    EXPECT_EQ(ReadOrDie(store, key, &s), value) << key;
    EXPECT_EQ(s, Status::kOk);
  }
  store.StopSession();
}

// A storage read fetches a first block and reads again only for a record
// longer than it.
TEST_F(VarlenTest, OnlyLongRecordsAreReadTwice) {
  Store store{SmallConfig(/*pages=*/2), &device_};
  store.StartSession();
  const std::string small(16, 's');
  const std::string large(3 * Store::Layout::kReadBlock, 'L');
  ASSERT_EQ(store.Upsert("small", small), Status::kOk);
  ASSERT_EQ(store.Upsert("large", large), Status::kOk);
  for (uint64_t k = 0; store.hlog().head_address().control() <= 64; ++k) {
    std::string key = "filler-" + std::to_string(k);
    ASSERT_EQ(store.Upsert(key, std::string(200, 'f')), Status::kOk);
  }
  Status s;
  uint64_t ios = IosIssued(store);
  EXPECT_EQ(ReadOrDie(store, "small", &s), small);
  EXPECT_EQ(s, Status::kOk);
  EXPECT_EQ(IosIssued(store) - ios, 1u);
  ios = IosIssued(store);
  EXPECT_EQ(ReadOrDie(store, "large", &s), large);
  EXPECT_EQ(s, Status::kOk);
  EXPECT_EQ(IosIssued(store) - ios, 2u);
  store.StopSession();
}

TEST_F(VarlenTest, LongKeysAndHashChainsOnStorage) {
  Store store{SmallConfig(/*pages=*/2), &device_};
  store.StartSession();
  // Long keys stress the byte-comparison path and the chain chase through
  // storage, and a tiny table forces chains.
  constexpr uint64_t kKeys = 30000;
  for (uint64_t k = 0; k < kKeys; ++k) {
    std::string key(64 + k % 64, 'k');
    key += std::to_string(k);
    ASSERT_EQ(store.Upsert(key, "v" + std::to_string(k)), Status::kOk);
  }
  for (uint64_t k = 0; k < kKeys; k += 499) {
    std::string key(64 + k % 64, 'k');
    key += std::to_string(k);
    Status s;
    EXPECT_EQ(ReadOrDie(store, key, &s), "v" + std::to_string(k)) << k;
  }
  store.StopSession();
}

TEST_F(VarlenTest, ConcurrentDisjointWriters) {
  Store store{SmallConfig(8), &device_};
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      store.StartSession();
      for (uint64_t i = 0; i < kPerThread; ++i) {
        std::string key = "t" + std::to_string(t) + "-" + std::to_string(i);
        ASSERT_EQ(store.Upsert(key, key + key), Status::kOk);
      }
      store.StopSession();
    });
  }
  for (auto& t : threads) t.join();
  store.StartSession();
  for (int t = 0; t < kThreads; ++t) {
    for (uint64_t i = 0; i < kPerThread; i += 1013) {
      std::string key = "t" + std::to_string(t) + "-" + std::to_string(i);
      Status s;
      EXPECT_EQ(ReadOrDie(store, key, &s), key + key);
    }
  }
  store.StopSession();
}

std::string KeyOf(uint64_t k) { return "key:" + std::to_string(k); }
std::string ValueOf(uint64_t k, uint64_t round) {
  // 1..1100 bytes: some records exceed the first storage-read block.
  return std::string(1 + (k * 7919 + round) % 1100,
                     static_cast<char>('a' + (k + round) % 26));
}

// Batched reads of byte-string keys: the in-memory ones complete at once,
// the ones on storage go pending and complete through the callback.
TEST_F(VarlenTest, ReadBatchWithPendingReads) {
  Store store{SmallConfig(/*pages=*/2), &device_};
  store.StartSession();
  constexpr uint64_t kKeys = 20000;
  for (uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_EQ(store.Upsert(KeyOf(k), ValueOf(k, 0)), Status::kOk);
  }
  ASSERT_GT(store.hlog().head_address().control(), 64u) << "must spill";

  constexpr size_t kBatch = 150;  // spans several pipeline chunks
  std::vector<std::string> keys;
  for (size_t i = 0; i < kBatch; ++i) {
    keys.push_back(KeyOf(i * (kKeys / kBatch)));
  }
  keys.push_back("absent");
  size_t n = keys.size();
  std::vector<Store::Key> views(keys.begin(), keys.end());
  std::vector<Store::Input> inputs(n);
  std::vector<std::string> outputs(n);
  std::vector<Status> statuses(n), completed(n, Status::kPending);
  std::vector<void*> contexts(n);
  for (size_t i = 0; i < n; ++i) contexts[i] = &completed[i];
  store.ReadBatch(views.data(), inputs.data(), outputs.data(),
                  statuses.data(), n, contexts.data());
  size_t pending = 0;
  for (size_t i = 0; i < n; ++i) {
    if (statuses[i] == Status::kPending) {
      ++pending;
    } else {
      completed[i] = statuses[i];
    }
  }
  EXPECT_GT(pending, 0u);
  EXPECT_LT(pending, n);
  EXPECT_TRUE(store.CompletePending(true));
  for (size_t i = 0; i + 1 < n; ++i) {
    EXPECT_EQ(completed[i], Status::kOk) << keys[i];
    EXPECT_EQ(outputs[i], ValueOf(i * (kKeys / kBatch), 0)) << keys[i];
  }
  EXPECT_EQ(completed[n - 1], Status::kNotFound);
  store.StopSession();
}

// A checkpoint taken with records both in memory and on storage recovers
// every key, short and long, and the recovered store takes new writes.
TEST_F(VarlenTest, CheckpointRecoverRoundTrip) {
  std::string dir = ::testing::TempDir() + "faster_varlen_ckpt";
  std::filesystem::remove_all(dir);
  constexpr uint64_t kKeys = 20000;
  {
    Store store{SmallConfig(/*pages=*/2), &device_};
    store.StartSession();
    for (uint64_t k = 0; k < kKeys; ++k) {
      ASSERT_EQ(store.Upsert(KeyOf(k), ValueOf(k, 0)), Status::kOk);
    }
    for (uint64_t k = 0; k < kKeys; k += 3) {
      ASSERT_EQ(store.Upsert(KeyOf(k), ValueOf(k, 1)), Status::kOk);
    }
    for (uint64_t k = 1; k < kKeys; k += 10) {
      ASSERT_EQ(store.Delete(KeyOf(k)), Status::kOk);
    }
    Address head = store.hlog().head_address();
    ASSERT_GT(head.control(), 64u) << "some records must be on storage";
    ASSERT_LT(head, store.hlog().tail_address()) << "and some in memory";
    ASSERT_EQ(store.Checkpoint(dir), Status::kOk);
    store.StopSession();
  }
  {
    // A fixed-size store refuses the variable-length checkpoint.
    FasterKv<CountStoreFunctions> fixed{{}, &device_};
    EXPECT_EQ(fixed.Recover(dir), Status::kCorruption);
  }
  Store store{SmallConfig(/*pages=*/2), &device_};
  ASSERT_EQ(store.Recover(dir), Status::kOk);
  store.StartSession();
  for (uint64_t k = 0; k < kKeys; ++k) {
    Status s;
    std::string got = ReadOrDie(store, KeyOf(k), &s);
    if (k % 10 == 1) {
      ASSERT_EQ(s, Status::kNotFound) << k;
    } else {
      ASSERT_EQ(s, Status::kOk) << k;
      ASSERT_EQ(got, ValueOf(k, k % 3 == 0 ? 1 : 0)) << k;
    }
  }
  ASSERT_EQ(store.Upsert(KeyOf(1), "back"), Status::kOk);
  Status s;
  EXPECT_EQ(ReadOrDie(store, KeyOf(1), &s), "back");
  store.StopSession();
  std::filesystem::remove_all(dir);
}

// Compaction and log scans step over records of every size.
TEST_F(VarlenTest, CompactLogKeepsLiveRecords) {
  Store store{SmallConfig(/*pages=*/2), &device_};
  store.StartSession();
  constexpr uint64_t kKeys = 20000;
  for (uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_EQ(store.Upsert(KeyOf(k), ValueOf(k, 0)), Status::kOk);
  }
  for (uint64_t k = 0; k < kKeys; k += 2) {
    ASSERT_EQ(store.Upsert(KeyOf(k), ValueOf(k, 1)), Status::kOk);
  }
  store.hlog().ShiftReadOnlyToTail(true);
  uint64_t scanned = 0;
  store.ScanLog(store.hlog().begin_address(), store.hlog().tail_address(),
                [&](Address, const Store::RecordT& rec) {
                  if (!rec.info().invalid()) ++scanned;
                });
  EXPECT_EQ(scanned, kKeys + kKeys / 2);

  Address until = store.hlog().safe_read_only_address();
  Store::CompactionStats stats;
  ASSERT_EQ(store.CompactLog(until, &stats), Status::kOk);
  EXPECT_EQ(stats.copied, kKeys);
  EXPECT_EQ(store.hlog().begin_address(), until);
  for (uint64_t k = 0; k < kKeys; k += 7) {
    Status s;
    EXPECT_EQ(ReadOrDie(store, KeyOf(k), &s), ValueOf(k, k % 2 == 0 ? 1 : 0))
        << k;
  }
  store.StopSession();
}

}  // namespace
}  // namespace faster
