/// Regression model test for the HashIndex::WriteCheckpoint overflow-
/// bucket race: the fuzzy checkpoint writes the overflow buckets claimed
/// when it starts, but a concurrent insert can map a segment, claim and link
/// a brand-new overflow bucket while the buckets are serialized. (An
/// earlier version numbered the buckets in a pre-scan and threw on one it
/// had not numbered.) The image cuts the persisted chain at a bucket past
/// the prefix: its entries are re-inserted by the recovery log scan over
/// [t1, t2) per the Sec. 6.5 fuzzy contract.
///
/// The model makes the window deterministic to explore: bucket 0 is
/// pre-filled to capacity, so the racing insert ALWAYS allocates and
/// links a fresh overflow bucket, in every interleaving the checkpoint's
/// scan/serialize steps can straddle. Every schedule must produce a
/// well-formed image: WriteCheckpoint succeeds (it fails if it reads a
/// claim whose segment it cannot see), ReadCheckpoint accepts
/// the image (a dangling overflow index is rejected as corruption), and
/// the restored index holds every pre-existing entry exactly once.

#include <gtest/gtest.h>

#include <sys/mman.h>
#include <unistd.h>

#include <atomic>
#include <string>

#include "core/address.h"
#include "core/epoch.h"
#include "core/hash_index.h"
#include "core/key_hash.h"
#include "core/status.h"
#include "model/runtime.h"
#include "model_test_util.h"

namespace model = faster::model;
using faster::Address;
using faster::HashIndex;
using faster::KeyHash;
using faster::LightEpoch;
using faster::Status;
using model_test::Opts;

namespace {

/// Bucket 0 of a 4-bucket table, tag `t` (1..8 — bucket 0 holds 7 slots,
/// so the 8th tag always needs an overflow bucket).
KeyHash TagHash(uint64_t t) {
  return KeyHash{t << (64 - KeyHash::kTagBits)};
}

void InsertTag(HashIndex& index, uint64_t t) {
  HashIndex::OpScope scope(index, TagHash(t));
  HashIndex::FindResult r;
  index.FindSlot(scope, TagHash(t), &r);
  if (!r.entry.address().IsValid()) {
    index.TryPublish(&r, Address{t});
  }
}

TEST(ModelCheckpoint, OverflowBucketLinkedMidCheckpointStaysWellFormed) {
  int fd = memfd_create("model_ckpt", 0);
  ASSERT_GE(fd, 0);
  model::Options opts = Opts("ckpt_overflow_race");
  opts.preemption_bound = 2;
  opts.max_steps = 4000;
  opts.max_executions = 2000000;
  model::Result res = model::Check(opts, [fd] {
    LightEpoch epoch;
    HashIndex index{4, &epoch};
    // Fill bucket 0's 7 slots before any concurrency; these entries are
    // stable across the checkpoint and must all survive the round trip.
    epoch.Protect();
    for (uint64_t t = 1; t <= faster::HashBucket::kNumEntries; ++t) {
      InsertTag(index, t);
    }
    epoch.Unprotect();
    model::Spawn([&] {  // checkpointer
      epoch.Protect();
      lseek(fd, 0, SEEK_SET);
      Status s = index.WriteCheckpoint(fd);
      MODEL_ASSERT(s == Status::kOk, "WriteCheckpoint failed mid-race");
      epoch.Unprotect();
    });
    model::Spawn([&] {  // inserter: always links a fresh overflow bucket
      epoch.Protect();
      InsertTag(index, faster::HashBucket::kNumEntries + 1);
      epoch.Unprotect();
    });
    model::JoinAll();
    // The image must be self-consistent regardless of where the insert
    // landed: restore it and account for every tag.
    LightEpoch epoch2;
    HashIndex restored{4, &epoch2};
    lseek(fd, 0, SEEK_SET);
    Status s = restored.ReadCheckpoint(fd);
    MODEL_ASSERT(s == Status::kOk,
                 "checkpoint image rejected on restore (dangling overflow "
                 "index?)");
    uint32_t seen = 0;
    restored.ForEachEntry([&](faster::HashBucketEntry e) {
      uint64_t t = e.tag();
      MODEL_ASSERT(t >= 1 && t <= faster::HashBucket::kNumEntries + 1,
                   "restored foreign tag " + std::to_string(t));
      MODEL_ASSERT((seen & (1u << t)) == 0,
                   "tag restored twice: " + std::to_string(t));
      seen |= 1u << t;
    });
    for (uint64_t t = 1; t <= faster::HashBucket::kNumEntries; ++t) {
      MODEL_ASSERT((seen & (1u << t)) != 0,
                   "pre-existing tag lost by fuzzy checkpoint: " +
                       std::to_string(t));
    }
  });
  close(fd);
  EXPECT_FALSE(res.violation) << res.violation_message << "\n" << res.trace;
  EXPECT_TRUE(res.complete) << res.Summary();
  EXPECT_GT(res.explored, 10) << res.Summary();
}

}  // namespace
