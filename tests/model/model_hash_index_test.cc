/// Model checking the HashIndex two-phase tentative insert (DESIGN.md §4,
/// §14) against the real src/core/hash_index.cc compiled under
/// FASTER_MODEL.
///
/// Two protocol obligations are checked exhaustively (bounded):
///
///  1. Exactly-once insert: concurrent record-first inserts (FindSlot,
///     then TryPublish of the new record's address) for the same tag
///     converge on ONE non-tentative entry (Sec. 3.2, Fig. 3b).
///     The safety argument is subtler than a Dekker pattern: both
///     inserters target the same first-free slot, so the claiming CAS —
///     which, as an RMW, always reads the latest value in modification
///     order — serializes them; the loser's failed CAS leaves it a
///     coherence floor on the winner's slot, so the loser's phase-2
///     re-scan can never miss the winner. The checker explores the stale
///     values the re-scan IS allowed to see and proves none breaks the
///     invariant.
///
///  2. Publication: TryPublish's acq_rel CAS on an existing entry is what
///     makes a superseding record's payload visible to a reader that finds
///     its address through the index. Demoting it (or the reader-side scan
///     load) to relaxed must surface as a data race on the payload.
///
///  3. Record-first publication: a write to a key with no entry fills its
///     record, then TryPublish claims a free slot with a tentative entry
///     that already carries the record's address; the finalize release
///     store is what publishes the record. Demoting it to relaxed must
///     surface as a data race on the payload: the claim CAS heads no
///     release sequence a later plain store continues (C++20).

#include <gtest/gtest.h>

#include <atomic>
#include <string>

#include "core/address.h"
#include "core/epoch.h"
#include "core/functions.h"
#include "core/hash_index.h"
#include "core/key_hash.h"
#include "memstore/inmem_kv.h"
#include "model/atomic.h"
#include "model/runtime.h"
#include "model_test_util.h"

namespace model = faster::model;
using faster::Address;
using faster::HashIndex;
using faster::KeyHash;
using faster::LightEpoch;
using model_test::FindSourceLine;
using model_test::Opts;
using model_test::ScopedMutation;

namespace {

/// Hash with bucket 0 and tag 1 in a 64-bucket table.
KeyHash TestHash() {
  return KeyHash{uint64_t{1} << (64 - KeyHash::kTagBits)};
}

model::Options IndexOpts(const char* name) {
  model::Options o = Opts(name);
  o.preemption_bound = 2;
  o.max_steps = 4000;
  o.max_executions = 2000000;
  return o;
}

/// Counts non-tentative entries carrying TestHash()'s tag, scanning only
/// bucket 0's chain (SampleBuckets) — a full-table ForEachEntry would add
/// 64×7 model-atomic loads to every explored execution.
uint64_t CountTagEntries(HashIndex& index) {
  uint64_t n = 0;
  index.SampleBuckets(
      1, [](uint32_t, uint32_t) {},
      [&](faster::HashBucketEntry e) {
        if (e.tag() == TestHash().Tag()) ++n;
      });
  return n;
}

/// Bucket 0 of any table, tag `t`.
KeyHash TagHash(uint64_t t) {
  return KeyHash{t << (64 - KeyHash::kTagBits)};
}

/// Counts the live entries in bucket 0's chain.
uint32_t LiveEntries(HashIndex& index) {
  uint32_t live = 0;
  index.SampleBuckets(
      1, [&](uint32_t l, uint32_t) { live = l; },
      [](faster::HashBucketEntry) {});
  return live;
}

/// The record-first insert of a key with hash `hash` and record
/// `address`, as the store's writes run it: FindSlot, then TryPublish
/// into a free slot, until the key has an entry (this one's, or a
/// racer's). Every FindSlot must hand back the key's tag, never a
/// tentative entry.
void InsertRecordFirst(HashIndex& index, KeyHash hash, Address address) {
  HashIndex::OpScope scope(index, hash);
  for (;;) {
    HashIndex::FindResult r;
    MODEL_ASSERT(index.FindSlot(scope, hash, &r) == faster::Status::kOk,
                 "insert refused with memory to map");
    MODEL_ASSERT(!r.entry.tentative(), "FindSlot returned a tentative entry");
    MODEL_ASSERT(r.entry.tag() == hash.Tag(), "FindSlot returned a foreign tag");
    if (r.head == nullptr || index.TryPublish(&r, address)) return;
  }
}

/// Two writers race record-first inserts of one key with hash `hash`.
/// Post-join, the chain must hold exactly one entry for it.
void RaceInserts(KeyHash hash) {
  LightEpoch epoch;
  HashIndex index{64, &epoch};
  for (uint64_t t = 0; t < 2; ++t) {
    model::Spawn([&, t] {
      epoch.Protect();
      InsertRecordFirst(index, hash, Address{8 * (t + 1)});
      epoch.Unprotect();
    });
  }
  model::JoinAll();
  epoch.Protect();
  uint32_t live = LiveEntries(index);
  epoch.Unprotect();
  MODEL_ASSERT(live == 1, "the key has " + std::to_string(live) +
                              " entries, not 1");
}

// Two threads race record-first inserts for the same tag: exactly one
// entry results, and neither thread is handed a tentative or foreign
// entry.
//
// Budget note: this is the one test where BOTH threads run the full
// retry-looping insert protocol (~20 atomic ops each, with mutual
// back-off livelock schedules truncated by the step bound), so the
// preemption bound stays at 1 — two bounds multiply the state space
// ~12x each and push past CI scale. The lighter tests below keep 2.
TEST(ModelHashIndex, ConcurrentInsertSameTagIsExactlyOnce) {
  model::Options opts = IndexOpts("index_insert_once");
  opts.preemption_bound = 1;
  model::Result res =
      model::Check(opts, [] { RaceInserts(TestHash()); });
  EXPECT_FALSE(res.violation) << res.violation_message << "\n" << res.trace;
  EXPECT_TRUE(res.complete) << res.Summary();
  EXPECT_GT(res.explored, 10) << res.Summary();
}

/// Writer/reader body shared by the clean publication run and the
/// mutation demos. The key's entry points at its first record; the writer
/// fills a superseding record's payload BEFORE swinging the entry to its
/// address; the reader only touches the payload after finding that
/// address through the index. Any weakening that lets the address travel
/// without the payload is a data race.
void PublicationBody() {
  LightEpoch epoch;
  HashIndex index{64, &epoch};
  model::Data<int> record{0};
  epoch.Protect();
  InsertRecordFirst(index, TestHash(), Address{5});
  epoch.Unprotect();
  model::Spawn([&] {  // writer
    epoch.Protect();
    {
      HashIndex::OpScope scope(index, TestHash());
      HashIndex::FindResult r;
      MODEL_ASSERT(index.FindSlot(scope, TestHash(), &r) ==
                           faster::Status::kOk &&
                       r.head == nullptr,
                   "the key's entry is missing");
      record.Mut() = 42;
      MODEL_ASSERT(index.TryPublish(&r, Address{7}),
                   "an uncontended publish failed");
    }
    epoch.Unprotect();
  });
  model::Spawn([&] {  // reader
    epoch.Protect();
    {
      HashIndex::OpScope scope(index, TestHash());
      HashIndex::FindResult r;
      if (index.FindEntry(scope, TestHash(), &r) &&
          r.entry.address() == Address{7}) {
        MODEL_ASSERT(record.Read() == 42,
                     "entry address visible before its payload");
      }
    }
    epoch.Unprotect();
  });
  model::JoinAll();
}

TEST(ModelHashIndex, EntryPublicationHappensBeforePayloadRead) {
  model::Result res =
      model::Check(IndexOpts("index_publication"), PublicationBody);
  EXPECT_FALSE(res.violation) << res.violation_message << "\n" << res.trace;
  EXPECT_TRUE(res.complete) << res.Summary();
}

/// Writer/reader body for record-first publication: the writer finds a
/// free slot for a new key, fills the record, then publishes it in one
/// TryPublish; the reader touches the payload only after finding the
/// record's address through the index.
void RecordFirstBody() {
  LightEpoch epoch;
  HashIndex index{64, &epoch};
  model::Data<int> record{0};
  model::Spawn([&] {  // writer
    epoch.Protect();
    {
      HashIndex::OpScope scope(index, TestHash());
      HashIndex::FindResult r;
      MODEL_ASSERT(index.FindSlot(scope, TestHash(), &r) == faster::Status::kOk,
                   "no free slot in an empty index");
      MODEL_ASSERT(r.head != nullptr, "a new key found an entry");
      record.Mut() = 42;
      MODEL_ASSERT(index.TryPublish(&r, Address{7}),
                   "an uncontended publish failed");
    }
    epoch.Unprotect();
  });
  model::Spawn([&] {  // reader
    epoch.Protect();
    {
      HashIndex::OpScope scope(index, TestHash());
      HashIndex::FindResult r;
      if (index.FindEntry(scope, TestHash(), &r)) {
        MODEL_ASSERT(r.entry.address() == Address{7},
                     "published entry without its record's address");
        MODEL_ASSERT(record.Read() == 42,
                     "new key's entry visible before its record");
      }
    }
    epoch.Unprotect();
  });
  model::JoinAll();
}

TEST(ModelHashIndex, RecordFirstInsertPublishesWholeRecord) {
  model::Result res =
      model::Check(IndexOpts("index_record_first"), RecordFirstBody);
  EXPECT_FALSE(res.violation) << res.violation_message << "\n" << res.trace;
  EXPECT_TRUE(res.complete) << res.Summary();
}

// Delete racing an in-flight insert: whatever interleaves, the chain ends
// with at most one non-tentative entry for the tag, and a successful
// delete means the tag is gone unless the inserter re-created it — which
// it cannot here, since each side runs its protocol once.
TEST(ModelHashIndex, DeleteRacingInsertKeepsChainConsistent) {
  model::Result res = model::Check(IndexOpts("index_insert_delete"), [] {
    LightEpoch epoch;
    HashIndex index{64, &epoch};
    model::Spawn([&] {  // inserter
      epoch.Protect();
      {
        HashIndex::OpScope scope(index, TestHash());
        HashIndex::FindResult r;
        index.FindSlot(scope, TestHash(), &r);
        if (r.head != nullptr) {
          index.TryPublish(&r, Address{7});  // a single attempt
        }
      }
      epoch.Unprotect();
    });
    model::Spawn([&] {  // deleter
      epoch.Protect();
      {
        HashIndex::OpScope scope(index, TestHash());
        HashIndex::FindResult r;
        if (index.FindEntry(scope, TestHash(), &r)) {
          MODEL_ASSERT(!r.entry.tentative(),
                       "FindEntry leaked a tentative entry");
          index.TryDeleteEntry(&r);  // single attempt; may lose the CAS
        }
      }
      epoch.Unprotect();
    });
    model::JoinAll();
    uint64_t n = CountTagEntries(index);
    MODEL_ASSERT(n <= 1, "duplicate entries after insert/delete race: " +
                             std::to_string(n));
  });
  EXPECT_FALSE(res.violation) << res.violation_message << "\n" << res.trace;
  EXPECT_TRUE(res.complete) << res.Summary();
}

// Two writers of a tag-0 key race record-first inserts, as InMemKv's
// and the store's writes do. A tag-0 claim's rescan must not take an
// empty slot, which has tag 0 too, for a rival entry, nor may a rival's
// entry read as free: the key gets exactly one entry.
TEST(ModelHashIndex, TagZeroCreateIsExactlyOnce) {
  model::Options opts = IndexOpts("index_tag0_create");
  opts.preemption_bound = 1;  // both threads run the whole insert, as above
  model::Result res =
      model::Check(opts, [] { RaceInserts(TagHash(0)); });
  EXPECT_FALSE(res.violation) << res.violation_message << "\n" << res.trace;
  EXPECT_TRUE(res.complete) << res.Summary();
}

/// Every key hashes to bucket 0 with tag 1, so InMemKv keeps all keys in
/// one chain behind one entry.
struct OneTagHasher {
  KeyHash operator()(uint64_t) const { return TestHash(); }
};

// InMemKv's writes against a delete that empties the key's slot and an
// insert that claims it again. A write whose unlink CAS lost must not
// follow the entry that CAS reloaded: a tentative entry is another
// insert's claim, whose record it may yet free, and a write that chained
// onto it and won a CAS over it was overwritten by the claim's finalize.
// Keys 2 and 3 are written once and never deleted, so both must be found.
// Budget: three whole ops at two preemptions do not finish at CI scale;
// the lost write showed by execution 2,293 before the fix, so the cap
// leaves it ninefold room.
TEST(ModelHashIndex, InMemKvWriteNeverFollowsTentativeEntry) {
  model::Options opts = IndexOpts("inmem_kv_tentative");
  opts.max_executions = 20000;
  model::Result res = model::Check(opts, [] {
    faster::InMemKv<faster::CountStoreFunctions, OneTagHasher> kv{4};
    kv.StartSession();
    kv.Upsert(1, 1);
    kv.StopSession();
    auto run = [&](auto op) {
      model::Spawn([&, op] {
        kv.StartSession();
        op();
        kv.StopSession();
      });
    };
    run([&] { kv.Upsert(2, 2); });
    run([&] { kv.Delete(1); });
    run([&] { kv.Upsert(3, 3); });
    model::JoinAll();
    kv.StartSession();
    uint64_t out = 0;
    for (uint64_t key : {2, 3}) {
      MODEL_ASSERT(kv.Read(key, 0, &out) == faster::Status::kOk,
                   "key " + std::to_string(key) + " lost its write");
    }
    kv.StopSession();
  });
  EXPECT_FALSE(res.violation) << res.violation_message << "\n" << res.trace
                              << res.Summary();
}

// Two inserts into a full bucket race to extend its chain: both race to
// map and install the first overflow segment, their claims hand out
// distinct buckets, and both tags end up in the chain once. Usually one
// bucket is linked and the other insert takes a slot in it; an insert
// whose scan read a stale end of the chain may link its bucket behind the
// other's (wasting slots, never an entry), so at most two are.
TEST(ModelHashIndex, OverflowClaimsRaceToDistinctBuckets) {
  model::Result res = model::Check(IndexOpts("index_overflow_claim"), [] {
    LightEpoch epoch;
    HashIndex index{4, &epoch};
    auto insert = [&](uint64_t t) {
      InsertRecordFirst(index, TagHash(t), Address{t});
    };
    epoch.Protect();
    for (uint64_t t = 1; t <= faster::HashBucket::kNumEntries; ++t) insert(t);
    epoch.Unprotect();
    for (uint64_t t : {8, 9}) {
      model::Spawn([&, t] {
        epoch.Protect();
        insert(t);
        epoch.Unprotect();
      });
    }
    model::JoinAll();
    epoch.Protect();
    uint32_t live = 0, overflow = 0;
    index.SampleBuckets(
        1,
        [&](uint32_t l, uint32_t o) {
          live = l;
          overflow = o;
        },
        [](faster::HashBucketEntry) {});
    epoch.Unprotect();
    MODEL_ASSERT(live == 9, "chain holds " + std::to_string(live) +
                                " entries, not 9");
    MODEL_ASSERT(overflow == 1 || overflow == 2,
                 "chain links " + std::to_string(overflow) +
                     " overflow buckets, not 1 or 2");
  });
  EXPECT_FALSE(res.violation) << res.violation_message << "\n" << res.trace;
  EXPECT_TRUE(res.complete) << res.Summary();
  EXPECT_GT(res.explored, 10) << res.Summary();
}

// Seeded bug 1: demote TryPublish's CAS on an existing entry to relaxed.
// The reader can then find the superseding record's address through the
// index without the payload write happening-before — the checker must
// produce the race with a trace.
TEST(ModelHashIndex, SeededBugPublishCasRelaxedIsCaught) {
  int line = FindSourceLine(
      "core/hash_index.cc",
      "result->slot->compare_exchange_strong(expected, desired.control()");
  ASSERT_GT(line, 0) << "TryPublish CAS not found in core/hash_index.cc";
  ScopedMutation mutate("core/hash_index.cc", line);
  model::Result res =
      model::Check(IndexOpts("index_mut_publish"), PublicationBody);
  EXPECT_GT(res.mutation_hits, 0);
  EXPECT_TRUE(res.violation) << "weakened publication CAS went undetected: "
                             << res.Summary();
  EXPECT_NE(res.trace.find("interleaving trace"), std::string::npos);
}

// Seeded bug 2: demote the reader-side chain-scan load to relaxed. Same
// hole from the consuming end — the reader sees the published address but
// acquires nothing, so the payload read races the payload write.
TEST(ModelHashIndex, SeededBugScanLoadRelaxedIsCaught) {
  int line = FindSourceLine(
      "core/hash_index.cc",
      "bucket->entries[i].load(std::memory_order_acquire)");
  ASSERT_GT(line, 0) << "ScanChain entry load not found in core/hash_index.cc";
  ScopedMutation mutate("core/hash_index.cc", line);
  model::Result res =
      model::Check(IndexOpts("index_mut_scan"), PublicationBody);
  EXPECT_GT(res.mutation_hits, 0);
  EXPECT_TRUE(res.violation) << "weakened chain-scan load went undetected: "
                             << res.Summary();
}

// Seeded bug 3: demote the finalize store of a record-first insert to
// relaxed. The reader can then find the new key's entry without the
// record's payload write happening-before.
TEST(ModelHashIndex, SeededBugFinalizeStoreRelaxedIsCaught) {
  int line = FindSourceLine("core/hash_index.cc",
                            "slot->store(final_entry.control()");
  ASSERT_GT(line, 0) << "TryPublish finalize store not found in "
                        "core/hash_index.cc";
  ScopedMutation mutate("core/hash_index.cc", line);
  model::Result res =
      model::Check(IndexOpts("index_mut_finalize"), RecordFirstBody);
  EXPECT_GT(res.mutation_hits, 0);
  EXPECT_TRUE(res.violation) << "weakened finalize store went undetected: "
                             << res.Summary();
  EXPECT_NE(res.trace.find("interleaving trace"), std::string::npos);
}

}  // namespace
