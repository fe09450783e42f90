// The batched pipeline's correctness contract (DESIGN.md "Batched
// pipeline"): ExecuteBatch and ReadBatch must be
// observably identical to issuing the same ops one at a time in order —
// across every HybridLog region (mutable in-place, safe-read-only RCU,
// fuzzy deferral, on-storage pending reads), through intra-batch
// dependencies (also between two keys that share an index entry),
// deletes, across an index Grow, and through the read cache. The harness
// runs every sequence against a mirror store using the single-op API and
// compares statuses, outputs, and final state. A batch RMW also reports
// the value its updater wrote, on every path.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <random>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/faster.h"
#include "core/functions.h"
#include "device/memory_device.h"

namespace faster {
namespace {

using Store = FasterKv<CountStoreFunctions>;
using BatchOp = Store::BatchOp;
using Kind = Store::BatchOp::Kind;

Store::Config Cfg() {
  Store::Config cfg;
  cfg.table_size = 1024;
  cfg.log.memory_size_bytes = 16ull << Address::kOffsetBits;
  cfg.log.mutable_fraction = 0.9;
  return cfg;
}

// One op of a test sequence, plus the slots the two executions fill in.
struct TestOp {
  Kind kind = Kind::kRead;
  uint64_t key = 0;
  uint64_t arg = 0;  // rmw delta / upsert value
  uint64_t batch_out = UINT64_MAX;  // a read's value / an RMW's new value
  uint64_t seq_out = UINT64_MAX;
  Status batch_status = Status::kOk;
  Status seq_status = Status::kOk;
};

// Executes `ops` against `batch_store` via ExecuteBatch (in batches of
// `batch_size`) and against `mirror` via the single-op API, then asserts
// statuses and (post-CompletePending) outputs are identical.
void RunBoth(Store& batch_store, Store& mirror, std::vector<TestOp>& ops,
             size_t batch_size) {
  std::vector<BatchOp> b(ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    b[i].kind = ops[i].kind;
    b[i].key = ops[i].key;
    b[i].output = &ops[i].batch_out;
    if (ops[i].kind == Kind::kUpsert) b[i].value = ops[i].arg;
    if (ops[i].kind == Kind::kRmw) b[i].input = ops[i].arg;
  }
  for (size_t done = 0; done < ops.size(); done += batch_size) {
    size_t n = std::min(batch_size, ops.size() - done);
    batch_store.ExecuteBatch(b.data() + done, n);
  }
  for (size_t i = 0; i < ops.size(); ++i) ops[i].batch_status = b[i].status;

  for (auto& op : ops) {
    switch (op.kind) {
      case Kind::kRead:
        op.seq_status = mirror.Read(op.key, 0, &op.seq_out);
        break;
      case Kind::kUpsert:
        op.seq_status = mirror.Upsert(op.key, op.arg);
        break;
      case Kind::kRmw:
        op.seq_status = mirror.Rmw(op.key, op.arg);
        break;
      case Kind::kDelete:
        op.seq_status = mirror.Delete(op.key);
        break;
    }
  }

  for (size_t i = 0; i < ops.size(); ++i) {
    ASSERT_EQ(ops[i].batch_status, ops[i].seq_status)
        << "op " << i << " key " << ops[i].key;
  }
  ASSERT_TRUE(batch_store.CompletePending(true));
  ASSERT_TRUE(mirror.CompletePending(true));
  for (size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].kind == Kind::kRead &&
        ops[i].seq_status != Status::kNotFound) {
      ASSERT_EQ(ops[i].batch_out, ops[i].seq_out)
          << "op " << i << " key " << ops[i].key;
    }
  }
}

// Reads every key in [0, n) from both stores and asserts identical state.
void AssertSameState(Store& a, Store& b, uint64_t n) {
  for (uint64_t k = 0; k < n; ++k) {
    uint64_t va = UINT64_MAX, vb = UINT64_MAX;
    Status sa = a.Read(k, 0, &va);
    Status sb = b.Read(k, 0, &vb);
    if (sa == Status::kPending) {
      ASSERT_TRUE(a.CompletePending(true));
      sa = Status::kOk;
    }
    if (sb == Status::kPending) {
      ASSERT_TRUE(b.CompletePending(true));
      sb = Status::kOk;
    }
    ASSERT_EQ(sa, sb) << "key " << k;
    if (sa == Status::kOk) {
      ASSERT_EQ(va, vb) << "key " << k;
    }
  }
}

// Half reads, a quarter upserts, the rest RMWs — a tenth of all ops
// deletes instead, with `deletes`.
std::vector<TestOp> RandomMix(uint64_t key_space, size_t count,
                              uint64_t seed, bool deletes = false) {
  std::mt19937_64 rng{seed};
  std::vector<TestOp> ops(count);
  for (auto& op : ops) {
    uint64_t p = rng() % 100;
    op.key = rng() % key_space;
    if (p < 50) {
      op.kind = Kind::kRead;
    } else if (p < 75) {
      op.kind = Kind::kUpsert;
      op.arg = rng() % 100000;
    } else if (deletes && p < 85) {
      op.kind = Kind::kDelete;
    } else {
      op.kind = Kind::kRmw;
      op.arg = rng() % 1000;
    }
  }
  return ops;
}

class BatchTest : public ::testing::Test {
 protected:
  MemoryDevice device_a_, device_b_;
};

// --- Mutable region: fast in-place reads/updates. --------------------------

TEST_F(BatchTest, MutableRegionMatchesSequential) {
  Store batch{Cfg(), &device_a_};
  Store mirror{Cfg(), &device_b_};
  batch.StartSession();
  mirror.StartSession();
  for (uint64_t k = 0; k < 512; ++k) {
    ASSERT_EQ(batch.Upsert(k, k * 3), Status::kOk);
    ASSERT_EQ(mirror.Upsert(k, k * 3), Status::kOk);
  }
  // Key space double the loaded range, so reads/RMWs hit absent keys too.
  auto ops = RandomMix(1024, 512, /*seed=*/42);
  RunBoth(batch, mirror, ops, 32);
  AssertSameState(batch, mirror, 1024);
  batch.StopSession();
  mirror.StopSession();
}

// --- Safe read-only region: reads via SingleReader, updates RCU. -----------

TEST_F(BatchTest, ReadOnlyRegionMatchesSequential) {
  auto cfg = Cfg();
  cfg.refresh_interval = 1u << 30;  // tests drive epochs explicitly
  Store batch{cfg, &device_a_};
  Store mirror{cfg, &device_b_};
  batch.StartSession();
  mirror.StartSession();
  for (uint64_t k = 0; k < 512; ++k) {
    ASSERT_EQ(batch.Upsert(k, k + 7), Status::kOk);
    ASSERT_EQ(mirror.Upsert(k, k + 7), Status::kOk);
  }
  // Make all loaded records read-only *and* safe in both stores.
  for (Store* s : {&batch, &mirror}) {
    s->hlog().ShiftReadOnlyToTail(false);
    s->Refresh();
    s->Refresh();
    ASSERT_EQ(s->hlog().safe_read_only_address(),
              s->hlog().read_only_address());
  }
  auto ops = RandomMix(1024, 512, /*seed=*/43);
  RunBoth(batch, mirror, ops, 64);
  AssertSameState(batch, mirror, 1024);
  batch.StopSession();
  mirror.StopSession();
}

// --- Fuzzy region: batch RMWs must defer exactly like single ops. ----------

TEST_F(BatchTest, FuzzyRegionRmwDefersLikeSequential) {
  auto cfg = Cfg();
  cfg.refresh_interval = 1u << 30;
  Store batch{cfg, &device_a_};
  Store mirror{cfg, &device_b_};
  batch.StartSession();
  mirror.StartSession();
  for (uint64_t k = 0; k < 64; ++k) {
    ASSERT_EQ(batch.Rmw(k, 10), Status::kOk);
    ASSERT_EQ(mirror.Rmw(k, 10), Status::kOk);
  }
  // Shift RO but do NOT refresh: records are observably fuzzy.
  for (Store* s : {&batch, &mirror}) {
    s->hlog().ShiftReadOnlyToTail(false);
    ASSERT_LT(s->hlog().safe_read_only_address(),
              s->hlog().read_only_address());
  }
  std::vector<TestOp> ops(64);
  for (uint64_t k = 0; k < 64; ++k) {
    ops[k] = TestOp{Kind::kRmw, k, 5};
  }
  RunBoth(batch, mirror, ops, 32);
  // Both paths must have deferred (fuzzy RMW => kPending, Sec. 6.2)...
  EXPECT_EQ(batch.GetStats().fuzzy_rmws, mirror.GetStats().fuzzy_rmws);
  EXPECT_GT(batch.GetStats().fuzzy_rmws, 0u);
  // ...and no increment may be lost after completion.
  AssertSameState(batch, mirror, 64);
  uint64_t out = 0;
  ASSERT_EQ(batch.Read(0, 0, &out), Status::kOk);
  EXPECT_EQ(out, 15u);
  batch.StopSession();
  mirror.StopSession();
}

// --- On storage: batch reads go pending like single reads; RMWs report
// their values after their storage reads; deletes in every region. ------

TEST_F(BatchTest, OnDiskOpsMatchSequential) {
  auto cfg = Cfg();
  cfg.log.memory_size_bytes = 2ull << Address::kOffsetBits;
  cfg.log.mutable_fraction = 0.5;
  cfg.refresh_interval = 256;
  Store batch{cfg, &device_a_};
  Store mirror{cfg, &device_b_};
  batch.StartSession();
  mirror.StartSession();
  for (uint64_t k = 0; k < 400000; ++k) {
    ASSERT_EQ(batch.Upsert(k, k * 2 + 1), Status::kOk);
    ASSERT_EQ(mirror.Upsert(k, k * 2 + 1), Status::kOk);
  }
  ASSERT_GT(batch.hlog().head_address().control(), 64u);
  ASSERT_GT(mirror.hlog().head_address().control(), 64u);

  uint64_t ios_before = batch.GetStats().pending_ios;
  // The oldest keys are on storage now; a batch of reads for them must go
  // pending (each read issued as a single op's is) and complete with the
  // same values the mirror's sequential pending reads produce.
  std::vector<TestOp> ops(64);
  for (uint64_t k = 0; k < 64; ++k) {
    ops[k] = TestOp{Kind::kRead, k};
  }
  RunBoth(batch, mirror, ops, 64);
  EXPECT_GT(batch.GetStats().pending_ios, ios_before);
  for (uint64_t k = 0; k < 64; ++k) {
    EXPECT_EQ(ops[k].batch_out, k * 2 + 1) << "key " << k;
  }

  // RMWs of keys on storage go pending; each reports the value it wrote.
  for (uint64_t k = 0; k < 64; ++k) ops[k] = TestOp{Kind::kRmw, 100 + k, 5};
  RunBoth(batch, mirror, ops, 64);
  for (const TestOp& op : ops) {
    EXPECT_EQ(op.batch_status, Status::kPending) << "key " << op.key;
    EXPECT_EQ(op.batch_out, op.key * 2 + 1 + 5) << "key " << op.key;
  }

  // Deletes among the other kinds, over keys in every region.
  ops = RandomMix(1100, 2048, /*seed=*/47, /*deletes=*/true);
  for (TestOp& op : ops) {
    if (op.key >= 1050) {
      op.key += 500000;  // absent
    } else if (op.key % 3 == 1) {
      op.key += 200000;  // read-only
    } else if (op.key % 3 == 2) {
      op.key += 398500;  // mutable
    }  // else on storage
  }
  RunBoth(batch, mirror, ops, 64);
  for (const TestOp& op : ops) {
    uint64_t va = UINT64_MAX, vb = UINT64_MAX;
    Status sa = batch.Read(op.key, 0, &va), sb = mirror.Read(op.key, 0, &vb);
    ASSERT_TRUE(batch.CompletePending(true) && mirror.CompletePending(true));
    ASSERT_EQ(sa == Status::kNotFound, sb == Status::kNotFound) << op.key;
    ASSERT_EQ(va, vb) << "key " << op.key;
  }
  EXPECT_GT(batch.counters().Sum(obs::StoreCounter::kDeleteInPlace), 0u);
  EXPECT_GT(batch.counters().Sum(obs::StoreCounter::kDeleteAppend), 0u);
  EXPECT_GT(batch.counters().Sum(obs::StoreCounter::kDeleteMiss), 0u);
  batch.StopSession();
  mirror.StopSession();
}

// --- Intra-batch dependencies: later ops see earlier writes. ---------------

TEST_F(BatchTest, IntraBatchDependenciesAreOrdered) {
  Store batch{Cfg(), &device_a_};
  Store mirror{Cfg(), &device_b_};
  batch.StartSession();
  mirror.StartSession();
  // Every pattern that requires issue-order semantics within one chunk:
  // write-then-read, rmw-then-read, write-then-rmw-then-read, duplicate
  // writes (last wins), read-before-write (sees the old value).
  std::vector<TestOp> ops;
  ops.push_back({Kind::kUpsert, 1, 100});
  ops.push_back({Kind::kRead, 1});           // must see 100
  ops.push_back({Kind::kRmw, 1, 11});
  ops.push_back({Kind::kRead, 1});           // must see 111
  ops.push_back({Kind::kUpsert, 2, 5});
  ops.push_back({Kind::kUpsert, 2, 6});      // last write wins
  ops.push_back({Kind::kRead, 2});           // must see 6
  ops.push_back({Kind::kRead, 3});           // absent before the write...
  ops.push_back({Kind::kUpsert, 3, 9});
  ops.push_back({Kind::kRead, 3});           // ...present after
  ops.push_back({Kind::kRmw, 4, 2});         // InitialUpdater on absent
  ops.push_back({Kind::kRead, 4});           // must see 2
  RunBoth(batch, mirror, ops, ops.size());   // all in ONE chunk
  EXPECT_EQ(ops[1].batch_out, 100u);
  EXPECT_EQ(ops[3].batch_out, 111u);
  EXPECT_EQ(ops[6].batch_out, 6u);
  EXPECT_EQ(ops[7].batch_status, Status::kNotFound);
  EXPECT_EQ(ops[9].batch_out, 9u);
  EXPECT_EQ(ops[11].batch_out, 2u);
  batch.StopSession();
  mirror.StopSession();
}

// --- Two keys on one index entry: same bucket and tag, other full hash. ----

TEST_F(BatchTest, KeysSharingAnIndexEntryAreOrdered) {
  // Find two keys whose hashes land in one bucket of Cfg()'s table with one
  // tag, so both chains start at the same index entry.
  std::unordered_map<uint64_t, uint64_t> first_key;  // bucket+tag -> key
  uint64_t a = 0, b = 0;
  for (uint64_t k = 1; b == 0; ++k) {
    KeyHash h = DefaultKeyHasher<uint64_t>{}(k);
    uint64_t slot = (h.Bucket(1024) << KeyHash::kTagBits) | h.Tag();
    auto [it, fresh] = first_key.emplace(slot, k);
    KeyHash first = DefaultKeyHasher<uint64_t>{}(it->second);
    if (!fresh && first.control() != h.control()) {
      a = it->second;
      b = k;
    }
  }

  Store batch{Cfg(), &device_a_};
  Store mirror{Cfg(), &device_b_};
  batch.StartSession();
  mirror.StartSession();
  ASSERT_EQ(batch.Upsert(b, 40), Status::kOk);
  ASSERT_EQ(mirror.Upsert(b, 40), Status::kOk);
  std::vector<TestOp> ops;
  ops.push_back({Kind::kUpsert, a, 7});  // A's record heads the chain
  ops.push_back({Kind::kRead, b});       // 40, past A's record
  ops.push_back({Kind::kRmw, b, 2});     // 42
  ops.push_back({Kind::kRead, a});       // 7
  ops.push_back({Kind::kDelete, a});
  ops.push_back({Kind::kRead, b});       // 42, past A's tombstone
  RunBoth(batch, mirror, ops, ops.size());  // all in ONE chunk
  EXPECT_EQ(ops[1].batch_out, 40u);
  EXPECT_EQ(ops[2].batch_out, 42u);
  EXPECT_EQ(ops[3].batch_out, 7u);
  EXPECT_EQ(ops[5].batch_out, 42u);
  uint64_t out = UINT64_MAX;
  EXPECT_EQ(batch.Read(a, 0, &out), Status::kNotFound);
  AssertSameState(batch, mirror, 1024);
  batch.StopSession();
  mirror.StopSession();
}

// --- RMW outputs: the value each updater wrote, on every path. -------------

// One RMW through ExecuteBatch; returns its status and (for kPending,
// after CompletePending) the value it reported.
std::pair<Status, uint64_t> BatchRmw(Store& store, uint64_t key,
                                     uint64_t input) {
  uint64_t out = UINT64_MAX;
  BatchOp op{};
  op.kind = Kind::kRmw;
  op.key = key;
  op.input = input;
  op.output = &out;
  store.ExecuteBatch(&op, 1);
  if (op.status == Status::kPending) {
    EXPECT_TRUE(store.CompletePending(true));
  }
  return {op.status, out};
}

uint64_t Counter(Store& store, obs::StoreCounter c) {
  return store.counters().Sum(c);
}

TEST_F(BatchTest, RmwReportsItsValueOnEveryPath) {
  auto cfg = Cfg();
  cfg.refresh_interval = 1u << 30;
  Store store{cfg, &device_a_};
  store.StartSession();
  using C = obs::StoreCounter;

  // In place, then absent (initial). Storage reads: OnDiskOpsMatchSequential.
  ASSERT_EQ(store.Upsert(1, 15), Status::kOk);
  uint64_t in_place = Counter(store, C::kRmwInPlace);
  EXPECT_EQ(BatchRmw(store, 1, 5), std::make_pair(Status::kOk, 20ul));
  EXPECT_EQ(Counter(store, C::kRmwInPlace), in_place + 1);
  uint64_t initial = Counter(store, C::kRmwInitial);
  EXPECT_EQ(BatchRmw(store, 2, 7), std::make_pair(Status::kOk, 7ul));
  EXPECT_EQ(Counter(store, C::kRmwInitial), initial + 1);

  // Fuzzy: read-only but not yet safe, so the RMW defers until a refresh
  // makes the region safe, and then copy-updates.
  ASSERT_EQ(store.Upsert(3, 30), Status::kOk);
  store.hlog().ShiftReadOnlyToTail(false);
  uint64_t out = UINT64_MAX;
  BatchOp op{};
  op.kind = Kind::kRmw;
  op.key = 3;
  op.input = 4;
  op.output = &out;
  store.ExecuteBatch(&op, 1);
  ASSERT_EQ(op.status, Status::kPending);
  EXPECT_EQ(Counter(store, C::kRmwFuzzyDeferred), 1u);
  store.Refresh();
  ASSERT_TRUE(store.CompletePending(true));
  EXPECT_EQ(out, 34u);

  // Safe read-only: copy-update.
  store.Refresh();
  ASSERT_EQ(store.hlog().safe_read_only_address(),
            store.hlog().read_only_address());
  uint64_t copy = Counter(store, C::kRmwCopy);
  EXPECT_EQ(BatchRmw(store, 2, 1), std::make_pair(Status::kOk, 8ul));
  EXPECT_EQ(Counter(store, C::kRmwCopy), copy + 1);

  // Two RMWs of one key in one chunk: each reports its own value.
  uint64_t outs[3] = {UINT64_MAX, UINT64_MAX, UINT64_MAX};
  BatchOp ops[3] = {};
  for (int i = 0; i < 3; ++i) {
    ops[i].kind = Kind::kRmw;
    ops[i].key = i < 2 ? 2 : 5;
    ops[i].input = static_cast<uint64_t>(i + 1);
    ops[i].output = &outs[i];
  }
  store.ExecuteBatch(ops, 3);
  for (const BatchOp& o : ops) EXPECT_EQ(o.status, Status::kOk);
  EXPECT_EQ(outs[0], 9u);
  EXPECT_EQ(outs[1], 11u);
  EXPECT_EQ(outs[2], 3u);

  // A null output is allowed.
  op = BatchOp{};
  op.kind = Kind::kRmw;
  op.key = 2;
  op.input = 1;
  store.ExecuteBatch(&op, 1);
  EXPECT_EQ(op.status, Status::kOk);
  EXPECT_EQ(BatchRmw(store, 2, 0), std::make_pair(Status::kOk, 12ul));
  store.StopSession();
}

// A mergeable store's RMW appends a delta; the op's output is untouched.
TEST_F(BatchTest, MergeableRmwLeavesOutputUntouched) {
  using MStore = FasterKv<MergeableCountFunctions>;
  MStore store{MStore::Config{}, &device_a_};
  store.StartSession();
  uint64_t out = UINT64_MAX;
  MStore::BatchOp op{};
  op.kind = MStore::BatchOp::Kind::kRmw;
  op.key = 1;
  op.input = 3;
  op.output = &out;
  store.ExecuteBatch(&op, 1);
  store.ExecuteBatch(&op, 1);
  EXPECT_EQ(op.status, Status::kOk);
  EXPECT_EQ(out, UINT64_MAX);
  ASSERT_EQ(store.Read(1, 0, &out), Status::kOk);
  EXPECT_EQ(out, 6u);
  store.StopSession();
}

// --- Grow: batches before and after an index doubling. ---------------------

TEST_F(BatchTest, BatchesAcrossGrow) {
  auto cfg = Cfg();
  cfg.table_size = 64;  // heavy chains; Grow doubles twice below
  Store batch{cfg, &device_a_};
  Store mirror{cfg, &device_b_};
  uint64_t initial_size = batch.index().size();
  batch.StartSession();
  mirror.StartSession();
  auto ops1 = RandomMix(2048, 512, /*seed=*/44);
  RunBoth(batch, mirror, ops1, 64);
  batch.GrowIndex();
  batch.GrowIndex();
  ASSERT_EQ(batch.index().size(), initial_size * 4);
  // Every record written pre-Grow must be reachable via the doubled
  // index through the batch path, and new batches must keep matching.
  auto ops2 = RandomMix(2048, 512, /*seed=*/45);
  RunBoth(batch, mirror, ops2, 64);
  AssertSameState(batch, mirror, 2048);
  batch.StopSession();
  mirror.StopSession();
}

// --- Degenerate shapes: empty batches, single-op batches, chunk spans. -----

TEST_F(BatchTest, EmptyAndSingleOpBatches) {
  Store store{Cfg(), &device_a_};
  store.StartSession();
  store.ExecuteBatch(nullptr, 0);  // must be a no-op

  BatchOp one{};
  one.kind = Kind::kUpsert;
  one.key = 7;
  one.value = 70;
  store.ExecuteBatch(&one, 1);
  EXPECT_EQ(one.status, Status::kOk);

  uint64_t out = 0;
  one = BatchOp{};
  one.kind = Kind::kRead;
  one.key = 7;
  one.output = &out;
  store.ExecuteBatch(&one, 1);
  EXPECT_EQ(one.status, Status::kOk);
  EXPECT_EQ(out, 70u);
  store.StopSession();
}

// --- Counts that span multiple chunks, through both entry points. ---------

TEST_F(BatchTest, ChunkSpanningBatchesMatchSequential) {
  Store batch{Cfg(), &device_a_};
  Store mirror{Cfg(), &device_b_};
  batch.StartSession();
  mirror.StartSession();

  constexpr size_t kN = 150;  // spans three kBatchChunk=64 chunks
  std::vector<uint64_t> keys(kN), values(kN), inputs(kN, 3);
  std::vector<uint64_t> outputs(kN, UINT64_MAX);
  std::vector<Status> statuses(kN);
  for (size_t i = 0; i < kN; ++i) {
    keys[i] = i % 100;  // duplicates exercise the dependency path
    values[i] = i * 10;
  }

  std::vector<BatchOp> ops(kN);
  for (size_t i = 0; i < kN; ++i) {
    ops[i] = {Kind::kUpsert, keys[i], 0, values[i]};
  }
  batch.ExecuteBatch(ops.data(), kN);
  std::vector<uint64_t> model(100);
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(ops[i].status, mirror.Upsert(keys[i], values[i])) << i;
    model[keys[i]] = values[i];
  }

  // Each RMW reports its own post-update value, duplicates included.
  for (size_t i = 0; i < kN; ++i) {
    ops[i] = {Kind::kRmw, keys[i], inputs[i], 0, &outputs[i]};
  }
  batch.ExecuteBatch(ops.data(), kN);
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(ops[i].status, mirror.Rmw(keys[i], inputs[i])) << i;
    model[keys[i]] += inputs[i];
    ASSERT_EQ(outputs[i], model[keys[i]]) << i;
  }

  batch.ReadBatch(keys.data(), inputs.data(), outputs.data(),
                  statuses.data(), kN);
  ASSERT_TRUE(batch.CompletePending(true));
  for (size_t i = 0; i < kN; ++i) {
    uint64_t expect = UINT64_MAX;
    ASSERT_EQ(mirror.Read(keys[i], 0, &expect), Status::kOk) << i;
    ASSERT_EQ(outputs[i], expect) << "key " << keys[i];
  }
  AssertSameState(batch, mirror, 100);
  batch.StopSession();
  mirror.StopSession();
}

// --- Appends to read-only keys survive a checkpoint. ----------------------

// Every upsert and delete of a batch over read-only keys appends a record
// at the tail, one allocation each, as single ops do. A checkpoint then
// recovers into a fresh store: every key reads its batch result.
TEST_F(BatchTest, BatchedAppendsSurviveRecovery) {
  std::string dir = "/tmp/faster_batch_append_recovery";
  std::filesystem::remove_all(dir);
  auto cfg = Cfg();
  cfg.refresh_interval = 1u << 30;
  // Every recovered record is on storage: reads complete through here.
  cfg.completion_callback = [](Store::UserOp, Status s, void* status) {
    *static_cast<Status*>(status) = s;
  };
  constexpr uint64_t kKeys = 256;
  constexpr size_t kN = 100;  // two chunks
  {
    Store store{cfg, &device_a_};
    store.StartSession();
    for (uint64_t k = 0; k < kKeys; ++k) {
      ASSERT_EQ(store.Upsert(k, k), Status::kOk);
    }
    store.hlog().ShiftReadOnlyToTail(/*wait=*/true);
    auto appends = [&] {
      return store.counters().Sum(obs::StoreCounter::kUpsertAppend) +
             store.counters().Sum(obs::StoreCounter::kDeleteAppend);
    };
    uint64_t before = appends();
    std::vector<BatchOp> ops(kN);
    for (size_t i = 0; i < kN; ++i) {
      ops[i].kind = i % 3 == 2 ? Kind::kDelete : Kind::kUpsert;
      ops[i].key = i;
      ops[i].value = 1000 + i;
    }
    store.ExecuteBatch(ops.data(), kN);
    for (size_t i = 0; i < kN; ++i) ASSERT_EQ(ops[i].status, Status::kOk) << i;
    ASSERT_EQ(appends() - before, kN);
    ASSERT_EQ(store.Checkpoint(dir), Status::kOk);
    store.StopSession();
  }
  Store recovered{cfg, &device_a_};
  ASSERT_EQ(recovered.Recover(dir), Status::kOk);
  recovered.StartSession();
  for (uint64_t k = 0; k < kKeys; ++k) {
    uint64_t value = UINT64_MAX;
    Status s = Status::kPending;
    Status read = recovered.Read(k, 0, &value, &s);
    if (read == Status::kPending) {
      ASSERT_TRUE(recovered.CompletePending(true));
    } else {
      s = read;
    }
    if (k < kN && k % 3 == 2) {
      EXPECT_EQ(s, Status::kNotFound) << "key " << k;
    } else {
      ASSERT_EQ(s, Status::kOk) << "key " << k;
      EXPECT_EQ(value, k < kN ? 1000 + k : k) << "key " << k;
    }
  }
  recovered.StopSession();
  std::filesystem::remove_all(dir);
}

// --- Read cache: batches take the same cache-aware paths. -----------------

// Each store gets a one-thread device, so storage reads complete — and
// promote into the read cache — in issue order in both stores, and the two
// caches stay laid out alike.
TEST(BatchReadCacheTest, ReadCacheMatchesSequential) {
  MemoryDevice device_a{1}, device_b{1};
  auto cfg = Cfg();
  cfg.table_size = uint64_t{1} << 18;  // keys rarely share an index entry
  cfg.log.memory_size_bytes = 2ull << Address::kOffsetBits;
  cfg.log.mutable_fraction = 0.5;
  cfg.enable_read_cache = true;
  cfg.read_cache.memory_size_bytes = 2ull << Address::kOffsetBits;
  // No mutable lag: once the cache opens its second page, the whole first
  // page is its read-only region.
  cfg.read_cache.mutable_fraction = 0.0;
  Store batch{cfg, &device_a};
  Store mirror{cfg, &device_b};
  batch.StartSession();
  mirror.StartSession();
  constexpr uint64_t kKeys = 600000;  // keys below ~349k end up on storage
  for (uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_EQ(batch.Upsert(k, k * 2 + 1), Status::kOk);
    ASSERT_EQ(mirror.Upsert(k, k * 2 + 1), Status::kOk);
  }
  constexpr uint64_t kPerCachePage =
      Address::kPageSize / Store::RecordT::size();
  auto reads = [](uint64_t from, uint64_t to) {
    std::vector<TestOp> ops;
    for (uint64_t k = from; k < to; ++k) ops.push_back({Kind::kRead, k});
    return ops;
  };

  // 1. Cold reads go pending and promote into the cache on completion:
  //    more than a cache page's worth, so the first page turns read-only.
  auto cold = reads(0, kPerCachePage + 20000);
  RunBoth(batch, mirror, cold, 64);
  for (const TestOp& op : cold) {
    ASSERT_EQ(op.batch_status, Status::kPending) << "key " << op.key;
  }
  uint64_t ios_after_promote = batch.GetStats().pending_ios;
  uint64_t hits_before = batch.GetStats().read_cache_hits;

  // 2. Cache hits: read-only-region hits (copied to the cache tail) and
  //    mutable-region hits, all synchronous.
  auto hits = reads(1000, 1064);
  auto mutable_hits = reads(kPerCachePage + 1000, kPerCachePage + 1064);
  hits.insert(hits.end(), mutable_hits.begin(), mutable_hits.end());
  RunBoth(batch, mirror, hits, 32);
  for (const TestOp& op : hits) {
    ASSERT_EQ(op.batch_status, Status::kOk) << "key " << op.key;
    ASSERT_EQ(op.batch_out, op.key * 2 + 1) << "key " << op.key;
  }
  EXPECT_EQ(batch.GetStats().pending_ios, ios_after_promote);
  EXPECT_EQ(batch.GetStats().read_cache_hits, hits_before + hits.size());

  // 3. Upserts and RMWs on cached keys, with reads in between: RMWs
  //    copy-update from the cached value without storage reads. A key's
  //    first RMW reports the cached value plus its input.
  auto writes = RandomMix(512, 512, /*seed=*/46);
  for (TestOp& op : writes) op.key += 2000;
  RunBoth(batch, mirror, writes, 64);
  EXPECT_EQ(batch.GetStats().pending_ios, ios_after_promote);
  std::vector<bool> written(512, false);
  size_t first_rmws = 0;
  for (const TestOp& op : writes) {
    if (op.kind == Kind::kRmw && !written[op.key - 2000]) {
      EXPECT_EQ(op.batch_out, op.key * 2 + 1 + op.arg) << "key " << op.key;
      ++first_rmws;
    }
    if (op.kind != Kind::kRead) written[op.key - 2000] = true;
  }
  EXPECT_GT(first_rmws, 0u);

  // 4. Read every key of the read-only cache page once more: each hit is
  //    copied to the tail until the tail needs a new page, which evicts
  //    the old page partway through a batch; the keys read after that go
  //    back to storage.
  auto evict = reads(0, kPerCachePage - 100);
  RunBoth(batch, mirror, evict, 64);
  EXPECT_EQ(evict.front().batch_status, Status::kOk);
  EXPECT_EQ(evict.back().batch_status, Status::kPending);

  AssertSameState(batch, mirror, 4096);
  if constexpr (obs::kStatsEnabled) {
    EXPECT_GT(batch.counters().Sum(obs::StoreCounter::kRcSecondChance), 0u);
    EXPECT_GT(batch.counters().Sum(obs::StoreCounter::kRcEvictions), 0u);
  }
  batch.StopSession();
  mirror.StopSession();
}

}  // namespace
}  // namespace faster
