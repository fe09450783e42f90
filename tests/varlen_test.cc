// Tests for the variable-length key/value store (Sec. 2.1 capability).

#include "core/varlen.h"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "device/memory_device.h"

namespace faster {
namespace {

FasterBlobKv::Config SmallConfig(uint64_t pages = 16, double slack = 0.0) {
  FasterBlobKv::Config cfg;
  cfg.table_size = 4096;
  cfg.log.memory_size_bytes = pages << Address::kOffsetBits;
  cfg.log.mutable_fraction = 0.5;
  cfg.value_slack = slack;
  return cfg;
}

std::string ReadOrDie(FasterBlobKv& store, std::string_view key, Status* s) {
  std::string out = "\x01UNSET";
  Status st = store.Read(key, &out);
  if (st == Status::kPending) {
    store.CompletePending(true);
    st = (out == "\x01UNSET") ? Status::kNotFound : Status::kOk;
  }
  *s = st;
  return out;
}

class VarlenTest : public ::testing::Test {
 protected:
  // Completion polling: a pending read completes only when
  // CompletePending polls the device.
  MemoryDevice device_;
};

TEST_F(VarlenTest, UpsertReadStrings) {
  FasterBlobKv store{SmallConfig(), &device_};
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
  FasterBlobKv store{SmallConfig(), &device_};
  store.StartSession();
  ASSERT_EQ(store.Upsert("k", ""), Status::kOk);
  Status s;
  EXPECT_EQ(ReadOrDie(store, "k", &s), "");
  EXPECT_EQ(s, Status::kOk);
  store.StopSession();
}

TEST_F(VarlenTest, ShrinkingValueUpdatesInPlace) {
  FasterBlobKv store{SmallConfig(), &device_};
  store.StartSession();
  ASSERT_EQ(store.Upsert("k", "a-rather-long-value"), Status::kOk);
  ASSERT_EQ(store.Upsert("k", "tiny"), Status::kOk);  // fits capacity
  Status s;
  EXPECT_EQ(ReadOrDie(store, "k", &s), "tiny");
  ASSERT_EQ(store.Upsert("k", "mid-sized-value"), Status::kOk);  // regrow
  EXPECT_EQ(ReadOrDie(store, "k", &s), "mid-sized-value");
  store.StopSession();
}

TEST_F(VarlenTest, GrowingBeyondCapacityAppends) {
  FasterBlobKv store{SmallConfig(16, /*slack=*/0.0), &device_};
  store.StartSession();
  ASSERT_EQ(store.Upsert("k", "ab"), Status::kOk);
  std::string big(1000, 'x');
  ASSERT_EQ(store.Upsert("k", big), Status::kOk);
  Status s;
  EXPECT_EQ(ReadOrDie(store, "k", &s), big);
  store.StopSession();
}

TEST_F(VarlenTest, ValueSlackKeepsGrowingUpdatesInPlace) {
  FasterBlobKv store{SmallConfig(16, /*slack=*/0.5), &device_};
  store.StartSession();
  ASSERT_EQ(store.Upsert("k", std::string(100, 'a')), Status::kOk);
  Address tail_before = store.hlog().tail_address();
  // 120 bytes fits in 100 * 1.5 = 150 capacity: in place, no append.
  ASSERT_EQ(store.Upsert("k", std::string(120, 'b')), Status::kOk);
  EXPECT_EQ(store.hlog().tail_address(), tail_before);
  Status s;
  EXPECT_EQ(ReadOrDie(store, "k", &s), std::string(120, 'b'));
  store.StopSession();
}

TEST_F(VarlenTest, DeleteAndReinsert) {
  FasterBlobKv store{SmallConfig(), &device_};
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

TEST_F(VarlenTest, MixedSizesLargerThanMemory) {
  FasterBlobKv store{SmallConfig(/*pages=*/2), &device_};
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

TEST_F(VarlenTest, LongKeysAndHashChainsOnStorage) {
  FasterBlobKv store{SmallConfig(/*pages=*/2), &device_};
  store.StartSession();
  // Long keys stress the byte-comparison path and the two-phase I/O
  // (prefix read then full read), and a tiny table forces chain chasing.
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
  FasterBlobKv store{SmallConfig(8), &device_};
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

}  // namespace
}  // namespace faster
