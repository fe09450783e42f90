// Stress: the batched pipeline racing single-op threads, fuzzy
// checkpoints, log GC, and an index Grow on a tiny spilling log. A chunk
// prefetches its buckets once and checks for a refresh once, then each
// op takes its own OpScope chunk pin in Resolve and may refresh between
// attempts, so the hazards to hunt are: a batch op's Resolve racing
// Grow's migration (its pin, and the bucket prefetch of a table that is
// being replaced), batched appends racing checkpoints and page-close
// flushes, batch reads racing log GC's truncation and RCU appends, and
// (with the read cache) batch ops racing promotions and evictions.
//
// Verification mirrors stress_ops_test: keys are owner-sharded, each
// owner keeps an exact model (keys within one batch are distinct, and
// any kPending completes before the next batch, so models stay exact
// despite concurrent foreign readers). Any lost update, torn value, or
// stale-snapshot bug surfaces as a model mismatch; memory-order bugs
// surface under TSan.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/faster.h"
#include "core/functions.h"
#include "device/memory_device.h"
#include "stress_common.h"

namespace faster {
namespace {

using Store = FasterKv<CountStoreFunctions>;

// `read_cache` adds the read cache and a cold key range, written once up
// front, that the last kColdReads ops of every batch read: those reads go
// to storage and promote into the cache, so batch ops also race cache
// promotions, hits and evictions (RcEvict redirects), the checkpoint's
// entry transform, compaction and Grow. After its Grow and before its
// first checkpoint, the churn thread reads every cold key on storage
// once: that promotes more records than the cache's two 4 MB pages hold
// (~350k), so the cache wraps while its records are indexed, whatever
// pace the churn's compactions later relocate cold keys at. Cold values
// never change, so each cold read is checked exactly. `grow_last` moves
// the Grow after those reads: the Grow then races evictions of a full
// cache, whose redirects would wait on the chunk pins of the ops they
// interrupt if an op refreshed under its OpScope (a deadlock).
void RunBatchedOpsUnderChurn(bool read_cache, bool grow_last = false) {
  constexpr int kBatchThreads = 2;
  constexpr int kSingleThreads = 1;
  constexpr int kThreads = kBatchThreads + kSingleThreads;
  constexpr uint64_t kKeySpace = 4096;
  constexpr size_t kBatch = 32;
  // The cold range outgrows the read-cache variant's 2-page log; its
  // oldest two thirds (512k keys), which the cold reads target, start out
  // on storage.
  constexpr uint64_t kColdKeys = uint64_t{3} << 18;
  constexpr size_t kColdReads = 24;
  const size_t owned_ops = kBatch - (read_cache ? kColdReads : 1);
  auto cold_value = [](uint64_t k) { return k * 7 + 1; };
  // Cold reads wait on storage: fewer, slower batches, but enough to
  // promote several cache pages' worth.
  const uint64_t kBatchesPerThread =
      stress::ScaleOps(read_cache ? 25000 : 60000);
  const std::string ckpt_dir = "/tmp/faster_stress_batch_ckpt";
  std::filesystem::remove_all(ckpt_dir);

  MemoryDevice device;
  Store::Config cfg;
  cfg.table_size = read_cache ? uint64_t{1} << 16 : 2048;  // short chains
  cfg.log.memory_size_bytes =
      (read_cache ? 2ull : 4ull) << Address::kOffsetBits;  // 2 or 4 pages
  cfg.log.mutable_fraction = 0.5;  // constant region crossings
  cfg.enable_read_cache = read_cache;
  cfg.read_cache.memory_size_bytes = 2ull << Address::kOffsetBits;
  cfg.read_cache.mutable_fraction = 0.5;
  Store store{cfg, &device};
  if (read_cache) {
    store.StartSession();
    for (uint64_t k = kKeySpace; k < kKeySpace + kColdKeys; ++k) {
      ASSERT_EQ(store.Upsert(k, cold_value(k)), Status::kOk);
    }
    store.StopSession();
  }

  std::vector<std::unordered_map<uint64_t, uint64_t>> models(kThreads);
  std::atomic<uint64_t> read_errors{0};
  std::atomic<bool> churn_stop{false};
  std::atomic<int> checkpoints_done{0};

  // Workers run past their quota until the churn has finished one
  // checkpoint, so the two overlap however fast the workers are: on a
  // CPU-oversubscribed host one read-cache checkpoint can outlast the
  // whole quota.
  auto churned = [&] {
    return checkpoints_done.load(std::memory_order_relaxed) > 0;
  };

  auto owned_key = [&](std::mt19937_64& rng, int t) {
    return (rng() % (kKeySpace / kThreads)) * kThreads +
           static_cast<uint64_t>(t);
  };

  std::vector<std::thread> threads;
  // Batched workers: mixed chunks of distinct owned keys, then one foreign
  // read per batch (its value races, but it must not crash or tear) or
  // the cold reads.
  for (int t = 0; t < kBatchThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937_64 rng = stress::ThreadRng(static_cast<uint64_t>(t));
      auto& model = models[t];
      std::vector<uint64_t> outs(kBatch);
      store.StartSession();
      for (uint64_t i = 0; i < kBatchesPerThread || !churned(); ++i) {
        Store::BatchOp ops[kBatch];
        uint64_t keys[kBatch];
        uint64_t args[kBatch];
        // Distinct owned keys within the batch keep the model exact.
        uint64_t base = rng() % (kKeySpace / kThreads);
        for (size_t j = 0; j < owned_ops; ++j) {
          keys[j] = ((base + j) % (kKeySpace / kThreads)) * kThreads +
                    static_cast<uint64_t>(t);
          uint64_t p = rng() % 100;
          ops[j] = Store::BatchOp{};
          ops[j].key = keys[j];
          if (p < 35) {
            ops[j].kind = Store::BatchOp::Kind::kUpsert;
            args[j] = rng() % 100000;
            ops[j].value = args[j];
          } else if (p < 70) {
            ops[j].kind = Store::BatchOp::Kind::kRmw;
            args[j] = rng() % 1000;
            ops[j].input = args[j];
          } else {
            ops[j].kind = Store::BatchOp::Kind::kRead;
            ops[j].input = 0;
            outs[j] = UINT64_MAX;
            ops[j].output = &outs[j];
          }
        }
        for (size_t j = owned_ops; j < kBatch; ++j) {
          ops[j] = Store::BatchOp{};
          ops[j].kind = Store::BatchOp::Kind::kRead;
          ops[j].key = read_cache ? kKeySpace + rng() % (kColdKeys * 2 / 3)
                                  : rng() % kKeySpace;  // foreign
          outs[j] = UINT64_MAX;
          ops[j].output = &outs[j];
        }

        store.ExecuteBatch(ops, kBatch);

        bool any_pending = false;
        for (size_t j = 0; j < kBatch; ++j) {
          if (ops[j].status == Status::kPending) any_pending = true;
        }
        if (any_pending) {
          ASSERT_TRUE(store.CompletePending(true));
        }

        for (size_t j = owned_ops; read_cache && j < kBatch; ++j) {
          if ((ops[j].status != Status::kOk &&
               ops[j].status != Status::kPending) ||
              outs[j] != cold_value(ops[j].key)) {
            read_errors.fetch_add(1);
          }
        }
        for (size_t j = 0; j < owned_ops; ++j) {
          switch (ops[j].kind) {
            case Store::BatchOp::Kind::kUpsert:
              ASSERT_EQ(ops[j].status, Status::kOk);
              model[keys[j]] = args[j];
              break;
            case Store::BatchOp::Kind::kRmw:
              ASSERT_TRUE(ops[j].status == Status::kOk ||
                          ops[j].status == Status::kPending);
              model[keys[j]] += args[j];
              break;
            case Store::BatchOp::Kind::kDelete:
              break;  // not generated
            case Store::BatchOp::Kind::kRead: {
              Status s = ops[j].status;
              auto it = model.find(keys[j]);
              if (it == model.end()) {
                // kPending only to rule out an index tag shared with a
                // key on storage (rife with the cold range).
                if (s != Status::kNotFound &&
                    (s != Status::kPending || outs[j] != UINT64_MAX)) {
                  read_errors.fetch_add(1);
                }
              } else if (s == Status::kOk || s == Status::kPending) {
                // Owned key: after completion the out must be exact.
                if (outs[j] != it->second) read_errors.fetch_add(1);
              } else {
                read_errors.fetch_add(1);
              }
              break;
            }
          }
        }
      }
      store.StopSession();
    });
  }
  // Single-op workers on their own shards, interleaving with the batches.
  for (int t = kBatchThreads; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937_64 rng = stress::ThreadRng(static_cast<uint64_t>(t));
      auto& model = models[t];
      store.StartSession();
      for (uint64_t i = 0; i < kBatchesPerThread * kBatch / 2 || !churned();
           ++i) {
        uint64_t k = owned_key(rng, t);
        if (rng() % 2 == 0) {
          uint64_t v = rng() % 100000;
          ASSERT_EQ(store.Upsert(k, v), Status::kOk);
          model[k] = v;
        } else {
          uint64_t d = rng() % 1000;
          Status s = store.Rmw(k, d);
          if (s == Status::kPending) {
            ASSERT_TRUE(store.CompletePending(true));
            s = Status::kOk;
          }
          ASSERT_EQ(s, Status::kOk);
          model[k] += d;
        }
        if (i % 256 == 0) store.CompletePending(false);
      }
      store.StopSession();
    });
  }
  // Churn: fuzzy checkpoints, log GC (compaction + begin shift), and one
  // index Grow, while the workers hammer the store: each batch op's
  // Resolve races the Grow's migration, and its Apply races the
  // checkpoint's flushes and GC's truncation (DropStaleEntry).
  std::thread churn([&] {
    store.StartSession();
    // First, while the workers warm up: a Grow after the read cache has
    // filled swings every cached entry back to the primary log.
    if (!grow_last) store.GrowIndex();
    constexpr size_t kWarm = Store::kBatchChunk;
    uint64_t keys[kWarm], inputs[kWarm] = {}, outs[kWarm] = {};
    Status statuses[kWarm];
    for (uint64_t k = kKeySpace;
         read_cache && k < kKeySpace + kColdKeys * 2 / 3; k += kWarm) {
      for (size_t j = 0; j < kWarm; ++j) keys[j] = k + j;
      store.ReadBatch(keys, inputs, outs, statuses, kWarm);
      store.CompletePending(true);
      for (size_t j = 0; j < kWarm; ++j) {
        if (outs[j] != cold_value(keys[j])) read_errors.fetch_add(1);
      }
    }
    if (grow_last) store.GrowIndex();
    int c = 0;
    while (!churn_stop.load(std::memory_order_acquire)) {
      std::string dir = ckpt_dir + "/" + std::to_string(c++);
      ASSERT_EQ(store.Checkpoint(dir), Status::kOk);
      checkpoints_done.fetch_add(1, std::memory_order_relaxed);
      Address safe_ro = store.hlog().safe_read_only_address();
      Address head = store.hlog().head_address();
      if (read_cache) {
        // One page per pass: a pass over the whole cold range would run
        // for seconds and un-cache every key it relocates.
        head = std::min(head, store.hlog().begin_address().NextPageStart());
      }
      if (head > store.hlog().begin_address()) {
        // GC everything below head (records already on storage).
        store.CompactLog(head < safe_ro ? head : safe_ro);
      }
      store.Refresh();
    }
    store.StopSession();
  });

  for (auto& t : threads) t.join();
  // The churn must genuinely have overlapped the workload.
  EXPECT_GT(checkpoints_done.load(), 0);
  churn_stop.store(true, std::memory_order_release);
  churn.join();
  EXPECT_EQ(read_errors.load(), 0u);

  // Final validation: every owner's model must be byte-exact.
  store.StartSession();
  for (int t = 0; t < kThreads; ++t) {
    for (const auto& [k, v] : models[t]) {
      uint64_t out = UINT64_MAX;
      Status s = store.Read(k, 0, &out);
      if (s == Status::kPending) {
        ASSERT_TRUE(store.CompletePending(true));
        s = Status::kOk;
      }
      ASSERT_EQ(s, Status::kOk) << "key " << k;
      ASSERT_EQ(out, v) << "key " << k;
    }
  }
  store.StopSession();

  // The run must actually have exercised the batch path and the log:
  Store::Stats stats = store.GetStats();
  EXPECT_GT(stats.appended_records, 0u);
  if (read_cache) {
    EXPECT_GT(stats.read_cache_hits, 0u);
    // The cache wrapped while its records were still indexed (sanitized
    // runs are scaled down too far to wrap it).
    if constexpr (obs::kStatsEnabled && !stress::kSanitized) {
      EXPECT_GT(store.counters().Sum(obs::StoreCounter::kRcEvictions), 0u);
    }
  }
  std::filesystem::remove_all(ckpt_dir);
}

TEST(StressBatchTest, BatchedOpsUnderChurn) { RunBatchedOpsUnderChurn(false); }

TEST(StressBatchTest, BatchedOpsUnderChurnWithReadCache) {
  RunBatchedOpsUnderChurn(true);
}

TEST(StressBatchTest, BatchedOpsUnderChurnWithReadCacheGrowAfterFill) {
  RunBatchedOpsUnderChurn(true, /*grow_last=*/true);
}

}  // namespace
}  // namespace faster
