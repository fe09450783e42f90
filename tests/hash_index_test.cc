#include "core/hash_index.h"

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <map>
#include <new>
#include <random>
#include <set>
#include <thread>
#include <vector>

#include "core/key_hash.h"

namespace faster {
namespace {

class HashIndexTest : public ::testing::Test {
 protected:
  void SetUp() override { epoch_.Protect(); }
  void TearDown() override { epoch_.Unprotect(); }
  LightEpoch epoch_;
};

TEST_F(HashIndexTest, MissingKeyNotFound) {
  HashIndex index{128, &epoch_};
  HashIndex::FindResult fr;
  KeyHash h{Mix64(42)};
  HashIndex::OpScope scope{index, h};
  EXPECT_FALSE(index.FindEntry(scope, h, &fr));
}

TEST_F(HashIndexTest, CreateThenFind) {
  HashIndex index{128, &epoch_};
  KeyHash h{Mix64(42)};
  HashIndex::FindResult fr;
  {
    HashIndex::OpScope scope{index, h};
    index.FindSlot(scope, h, &fr);
    EXPECT_FALSE(fr.entry.address().IsValid());
    EXPECT_EQ(fr.entry.tag(), h.Tag());
    EXPECT_TRUE(index.TryPublish(&fr, Address{1, 64}));
  }
  {
    HashIndex::OpScope scope{index, h};
    HashIndex::FindResult found;
    ASSERT_TRUE(index.FindEntry(scope, h, &found));
    EXPECT_EQ(found.entry.address(), (Address{1, 64}));
  }
}

TEST_F(HashIndexTest, FindSlotIsIdempotent) {
  HashIndex index{128, &epoch_};
  KeyHash h{Mix64(7)};
  HashIndex::OpScope scope{index, h};
  HashIndex::FindResult a, b;
  index.FindSlot(scope, h, &a);
  index.FindSlot(scope, h, &b);
  EXPECT_EQ(a.slot, b.slot);
}

TEST_F(HashIndexTest, UpdateEntryCasSemantics) {
  HashIndex index{128, &epoch_};
  KeyHash h{Mix64(9)};
  HashIndex::OpScope scope{index, h};
  HashIndex::FindResult fr;
  index.FindSlot(scope, h, &fr);
  ASSERT_TRUE(index.TryPublish(&fr, Address{2, 0}));
  // Stale expected value: CAS must fail and reload the current entry.
  HashIndex::FindResult stale = fr;
  stale.entry = HashBucketEntry{Address{1, 0}, h.Tag(), false};
  EXPECT_FALSE(index.TryPublish(&stale, Address{3, 0}));
  EXPECT_EQ(stale.entry.address(), (Address{2, 0}));
  EXPECT_TRUE(index.TryPublish(&stale, Address{3, 0}));
}

TEST_F(HashIndexTest, DeleteEntryFreesSlot) {
  HashIndex index{128, &epoch_};
  KeyHash h{Mix64(11)};
  HashIndex::OpScope scope{index, h};
  HashIndex::FindResult fr;
  index.FindSlot(scope, h, &fr);
  ASSERT_TRUE(index.TryPublish(&fr, Address{4, 0}));
  EXPECT_EQ(index.NumUsedEntries(), 1u);
  EXPECT_TRUE(index.TryDeleteEntry(&fr));
  EXPECT_EQ(index.NumUsedEntries(), 0u);
  HashIndex::FindResult miss;
  EXPECT_FALSE(index.FindEntry(scope, h, &miss));
}

// A write to a new key: FindSlot hands out a free slot, and TryPublish
// publishes an entry that already points at the record (record first).
TEST_F(HashIndexTest, PublishIntoFreeSlotCreatesEntry) {
  HashIndex index{128, &epoch_};
  KeyHash h{Mix64(13)};
  HashIndex::OpScope scope{index, h};
  HashIndex::FindResult fr;
  ASSERT_EQ(index.FindSlot(scope, h, &fr), Status::kOk);
  ASSERT_NE(fr.head, nullptr);
  EXPECT_FALSE(fr.entry.address().IsValid());
  EXPECT_EQ(fr.slot->load(), 0u);
  ASSERT_TRUE(index.TryPublish(&fr, Address{5, 64}));
  EXPECT_EQ(fr.head, nullptr);
  EXPECT_FALSE(fr.entry.tentative());
  EXPECT_EQ(fr.slot->load(), fr.entry.control());
  // The next scan finds the entry, and publishes over it with one CAS.
  HashIndex::FindResult found;
  ASSERT_EQ(index.FindSlot(scope, h, &found), Status::kOk);
  EXPECT_EQ(found.head, nullptr);
  EXPECT_EQ(found.slot, fr.slot);
  EXPECT_EQ(found.entry.address(), (Address{5, 64}));
  EXPECT_TRUE(index.TryPublish(&found, Address{6, 64}));
  EXPECT_EQ(index.NumUsedEntries(), 1u);
}

// Two publishes of one tag into one bucket, the second claiming its free
// slot while the first's entry is already in the chain: the second's
// rescan sees the first and backs off (Fig. 3b), leaving its slot empty.
// Tag 0 too, whose tag bits an empty slot shares.
TEST_F(HashIndexTest, SecondPublishOfATagBacksOff) {
  for (uint64_t tag : {uint64_t{5}, uint64_t{0}}) {
    SCOPED_TRACE(tag);
    HashIndex index{128, &epoch_};
    // Bucket 3, tags `tag` and `tag + 1`.
    KeyHash h{3 | tag << (64 - KeyHash::kTagBits)};
    KeyHash other{3 | (tag + 1) << (64 - KeyHash::kTagBits)};
    ASSERT_EQ(h.Bucket(index.size()), other.Bucket(index.size()));
    HashIndex::OpScope scope{index, h};
    // Another tag takes slot 0, so the loser's scan gets slot 1 ...
    HashIndex::FindResult fr_other;
    ASSERT_EQ(index.FindSlot(scope, other, &fr_other), Status::kOk);
    ASSERT_TRUE(index.TryPublish(&fr_other, Address{1, 64}));
    HashIndex::FindResult loser;
    ASSERT_EQ(index.FindSlot(scope, h, &loser), Status::kOk);
    ASSERT_NE(loser.head, nullptr);
    // ... and, once slot 0 is free again, the winner's scan gets slot 0.
    ASSERT_TRUE(index.TryDeleteEntry(&fr_other));
    HashIndex::FindResult winner;
    ASSERT_EQ(index.FindSlot(scope, h, &winner), Status::kOk);
    ASSERT_NE(winner.slot, loser.slot);
    ASSERT_TRUE(index.TryPublish(&winner, Address{2, 64}));
    EXPECT_FALSE(index.TryPublish(&loser, Address{3, 64}));
    EXPECT_EQ(loser.slot->load(), 0u);
    EXPECT_EQ(index.NumUsedEntries(), 1u);
    HashIndex::FindResult found;
    ASSERT_TRUE(index.FindEntry(scope, h, &found));
    EXPECT_EQ(found.slot, winner.slot);
    EXPECT_EQ(found.entry.address(), (Address{2, 64}));
    if constexpr (obs::kStatsEnabled) {
      EXPECT_EQ(index.obs_stats().tentative_conflicts.Sum(), 1u);
    }
  }
}

TEST_F(HashIndexTest, OverflowBucketsExtendChains) {
  // A tiny index (64 buckets) with many distinct tags per bucket forces
  // overflow bucket allocation.
  HashIndex index{64, &epoch_};
  std::vector<KeyHash> hashes;
  for (uint64_t k = 0; hashes.size() < 600; ++k) {
    hashes.push_back(KeyHash{Mix64(k)});
  }
  uint64_t created = 0;
  std::set<std::pair<uint64_t, uint16_t>> distinct;
  for (KeyHash h : hashes) {
    distinct.insert({h.Bucket(index.size()), h.Tag()});
    HashIndex::OpScope scope{index, h};
    HashIndex::FindResult fr;
    index.FindSlot(scope, h, &fr);
    if (!fr.entry.address().IsValid()) {
      ASSERT_TRUE(index.TryPublish(&fr, Address{created + 1, 0}));
      ++created;
    }
  }
  EXPECT_EQ(created, distinct.size());
  // Everything must be findable.
  for (KeyHash h : hashes) {
    HashIndex::OpScope scope{index, h};
    HashIndex::FindResult fr;
    EXPECT_TRUE(index.FindEntry(scope, h, &fr));
  }
}

// The core index invariant (Sec. 3.2): concurrent inserts of the same tag
// must never produce duplicate non-tentative entries, even with deletes
// racing (the Fig. 3a scenario).
TEST_F(HashIndexTest, TwoPhaseInsertInvariantUnderContention) {
  HashIndex index{64, &epoch_};
  constexpr int kThreads = 4;
  constexpr int kIters = 3000;
  // All threads fight over a handful of tags in the same bucket space.
  std::vector<KeyHash> hashes;
  for (uint64_t k = 0; k < 8; ++k) hashes.push_back(KeyHash{Mix64(k)});

  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937 rng(t);
      epoch_.Protect();
      for (int i = 0; i < kIters; ++i) {
        KeyHash h = hashes[rng() % hashes.size()];
        {
          HashIndex::OpScope scope{index, h};
          HashIndex::FindResult fr;
          index.FindSlot(scope, h, &fr);
          if (!fr.entry.address().IsValid()) {
            index.TryPublish(&fr, Address{1, 64});
          } else if (rng() % 4 == 0) {
            index.TryDeleteEntry(&fr);
          }
        }
        // Refreshes only outside an OpScope (the epoch verifier checks).
        if (i % 64 == 0) epoch_.Refresh();
      }
      epoch_.Unprotect();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_FALSE(failed.load());

  // Verify invariant: for each hash, at most one non-tentative entry.
  for (KeyHash h : hashes) {
    HashIndex::OpScope scope{index, h};
    HashIndex::FindResult fr;
    index.FindEntry(scope, h, &fr);  // would be ambiguous if duplicated
  }
  // Count duplicates directly.
  std::map<std::pair<uint64_t, uint16_t>, int> counts;
  for (KeyHash h : hashes) {
    counts[{h.Bucket(index.size()), h.Tag()}] = 0;
  }
  // NumUsedEntries counts every non-tentative entry; with 8 hashes the
  // number of used entries can never exceed the number of distinct
  // (bucket, tag) pairs.
  EXPECT_LE(index.NumUsedEntries(), counts.size());
}

TEST_F(HashIndexTest, GrowDoublesAndPreservesEntries) {
  HashIndex index{64, &epoch_};
  constexpr uint64_t kKeys = 500;
  for (uint64_t k = 0; k < kKeys; ++k) {
    KeyHash h{Mix64(k)};
    HashIndex::OpScope scope{index, h};
    HashIndex::FindResult fr;
    index.FindSlot(scope, h, &fr);
    if (!fr.entry.address().IsValid()) {
      ASSERT_TRUE(index.TryPublish(&fr, Address{k + 1, 0}));
    }
  }
  uint64_t old_size = index.size();
  index.Grow();
  EXPECT_EQ(index.size(), old_size * 2);
  EXPECT_FALSE(index.IsResizing());
  for (uint64_t k = 0; k < kKeys; ++k) {
    KeyHash h{Mix64(k)};
    HashIndex::OpScope scope{index, h};
    HashIndex::FindResult fr;
    ASSERT_TRUE(index.FindEntry(scope, h, &fr)) << "key " << k;
    EXPECT_TRUE(fr.entry.address().IsValid());
  }
}

// Grow points both children of a bucket at the bucket's chain, and
// `rebase` maps the value both get (the read cache swings cached addresses
// back to the primary log with it). Looked up through either child, every
// migrated entry must carry the rebased address.
TEST_F(HashIndexTest, GrowRebasesEntriesInBothChildren) {
  HashIndex index{64, &epoch_};
  constexpr uint64_t kKeys = 500;
  constexpr uint64_t kShift = 1000;
  for (uint64_t k = 0; k < kKeys; ++k) {
    KeyHash h{Mix64(k)};
    HashIndex::OpScope scope{index, h};
    HashIndex::FindResult fr;
    index.FindSlot(scope, h, &fr);
    if (!fr.entry.address().IsValid()) {
      ASSERT_TRUE(index.TryPublish(&fr, Address{k + 1, 0}));
    }
  }
  uint64_t old_size = index.size();
  ASSERT_EQ(index.Grow([](uint64_t control) {
              HashBucketEntry e{control};
              Address moved{e.address().page() + kShift, 0};
              return HashBucketEntry{moved, e.tag(), false}.control();
            }),
            Status::kOk);
  for (uint64_t k = 0; k < kKeys; ++k) {
    KeyHash h{Mix64(k)};
    // The same tag in the other child of the key's old bucket.
    KeyHash sibling{h.control() ^ old_size};
    for (KeyHash child : {h, sibling}) {
      HashIndex::OpScope scope{index, child};
      HashIndex::FindResult fr;
      ASSERT_TRUE(index.FindEntry(scope, child, &fr)) << "key " << k;
      EXPECT_GT(fr.entry.address().page(), kShift) << "key " << k;
    }
  }
}

TEST_F(HashIndexTest, GrowWithConcurrentReaders) {
  HashIndex index{64, &epoch_};
  constexpr uint64_t kKeys = 256;
  for (uint64_t k = 0; k < kKeys; ++k) {
    KeyHash h{Mix64(k)};
    HashIndex::OpScope scope{index, h};
    HashIndex::FindResult fr;
    index.FindSlot(scope, h, &fr);
    if (!fr.entry.address().IsValid()) {
      index.TryPublish(&fr, Address{k + 1, 0});
    }
  }
  std::atomic<bool> stop{false};
  std::atomic<int> misses{0};
  std::thread reader([&] {
    epoch_.Protect();
    std::mt19937 rng(1);
    while (!stop.load()) {
      uint64_t k = rng() % kKeys;
      KeyHash h{Mix64(k)};
      {
        HashIndex::OpScope scope{index, h};
        HashIndex::FindResult fr;
        if (!index.FindEntry(scope, h, &fr)) misses.fetch_add(1);
      }
      epoch_.Refresh();  // outside the OpScope (the epoch verifier checks)
    }
    epoch_.Unprotect();
  });
  index.Grow();
  index.Grow();
  stop.store(true);
  reader.join();
  EXPECT_EQ(misses.load(), 0);
  EXPECT_EQ(index.size(), 64u * 4);
}

TEST_F(HashIndexTest, CheckpointRoundTrip) {
  HashIndex index{64, &epoch_};
  constexpr uint64_t kKeys = 400;  // forces overflow buckets
  for (uint64_t k = 0; k < kKeys; ++k) {
    KeyHash h{Mix64(k)};
    HashIndex::OpScope scope{index, h};
    HashIndex::FindResult fr;
    index.FindSlot(scope, h, &fr);
    if (!fr.entry.address().IsValid()) {
      index.TryPublish(&fr, Address{k + 1, 8});
    }
  }
  uint64_t used = index.NumUsedEntries();

  char path[] = "/tmp/faster_index_ckpt_XXXXXX";
  int fd = mkstemp(path);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(index.WriteCheckpoint(fd), Status::kOk);
  ::lseek(fd, 0, SEEK_SET);

  HashIndex restored{64, &epoch_};
  ASSERT_EQ(restored.ReadCheckpoint(fd), Status::kOk);
  ::close(fd);
  ::unlink(path);

  EXPECT_EQ(restored.NumUsedEntries(), used);
  for (uint64_t k = 0; k < kKeys; ++k) {
    KeyHash h{Mix64(k)};
    HashIndex::OpScope scope{restored, h};
    HashIndex::FindResult fr;
    ASSERT_TRUE(restored.FindEntry(scope, h, &fr));
  }
}

/// Hash landing in bucket `bucket` (mod the table size) with tag `tag`.
KeyHash BucketTagHash(uint64_t bucket, uint64_t tag) {
  return KeyHash{(tag << (64 - KeyHash::kTagBits)) | bucket};
}

/// The `i`th of up to 2^15 - 1 hashes with distinct tags, so no two share
/// an index entry whatever the table size.
KeyHash UniqueHash(uint64_t i) {
  return BucketTagHash(Mix64(i) >> KeyHash::kTagBits, i + 1);
}

/// Inserts `hashes[i]` -> Address{i + 1} into `index`.
void InsertAll(HashIndex& index, const std::vector<KeyHash>& hashes) {
  for (size_t i = 0; i < hashes.size(); ++i) {
    HashIndex::OpScope scope{index, hashes[i]};
    HashIndex::FindResult fr;
    ASSERT_EQ(index.FindSlot(scope, hashes[i], &fr), Status::kOk);
    ASSERT_TRUE(index.TryPublish(&fr, Address{i + 1}));
  }
}

/// Expects every `hashes[i]` to map to Address{i + 1}.
void ExpectAll(HashIndex& index, const std::vector<KeyHash>& hashes) {
  for (size_t i = 0; i < hashes.size(); ++i) {
    HashIndex::OpScope scope{index, hashes[i]};
    HashIndex::FindResult fr;
    ASSERT_TRUE(index.FindEntry(scope, hashes[i], &fr)) << "entry " << i;
    ASSERT_EQ(fr.entry.address(), Address{i + 1}) << "entry " << i;
  }
}

// A tiny table takes entries as long as memory lasts: 64 buckets hold
// 38,400 entries in chains of about 86 buckets each (5,440 overflow
// buckets over seven arena segments), and a checkpoint round trip keeps
// every chain.
TEST_F(HashIndexTest, TinyTableChainsGrowAsLongAsMemoryLasts) {
  HashIndex index{64, &epoch_};
  std::vector<KeyHash> hashes;
  for (uint64_t i = 0; i < 64 * 600; ++i) {
    hashes.push_back(BucketTagHash(i % 64, i / 64 + 1));
  }
  InsertAll(index, hashes);
  EXPECT_EQ(index.NumUsedEntries(), hashes.size());
  ExpectAll(index, hashes);

  char path[] = "/tmp/faster_index_chains_XXXXXX";
  int fd = mkstemp(path);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(index.WriteCheckpoint(fd), Status::kOk);
  ::lseek(fd, 0, SEEK_SET);
  HashIndex restored{64, &epoch_};
  ASSERT_EQ(restored.ReadCheckpoint(fd), Status::kOk);
  ::close(fd);
  ::unlink(path);
  EXPECT_EQ(restored.NumUsedEntries(), hashes.size());
  ExpectAll(restored, hashes);
}

// ReadCheckpoint refuses a header whose overflow count the file does not
// hold, before it maps or allocates anything: the index it was called on
// is left as it was.
TEST_F(HashIndexTest, CheckpointRejectsCorruptOverflowCount) {
  HashIndex index{64, &epoch_};
  std::vector<KeyHash> hashes;
  for (uint64_t k = 0; k < 400; ++k) hashes.push_back(UniqueHash(k));
  InsertAll(index, hashes);

  char path[] = "/tmp/faster_index_corrupt_XXXXXX";
  int fd = mkstemp(path);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(index.WriteCheckpoint(fd), Status::kOk);
  uint64_t header[3];
  ASSERT_EQ(::pread(fd, header, sizeof(header), 0),
            static_cast<ssize_t>(sizeof(header)));
  ASSERT_GT(header[2], 0u) << "no overflow buckets to corrupt";
  for (uint64_t bad : {uint64_t{1} << 40, header[2] + 1}) {
    uint64_t count = bad;
    ASSERT_EQ(::pwrite(fd, &count, sizeof(count), 2 * sizeof(uint64_t)),
              static_cast<ssize_t>(sizeof(count)));
    ::lseek(fd, 0, SEEK_SET);
    HashIndex restored{128, &epoch_};
    InsertAll(restored, {hashes[0]});
    EXPECT_EQ(restored.ReadCheckpoint(fd), Status::kCorruption) << bad;
    EXPECT_EQ(restored.size(), 128u);
    ExpectAll(restored, {hashes[0]});
  }
  ::close(fd);
  ::unlink(path);
}

// A checkpoint of a grown table keeps its overflow chains: the restored
// index has the grown size, every entry, and an arena that goes on
// claiming buckets after the restored ones instead of over them.
TEST_F(HashIndexTest, CheckpointRoundTripKeepsChainsAcrossGrow) {
  HashIndex index{64, &epoch_};
  std::vector<KeyHash> hashes;
  for (uint64_t k = 0; k < 6000; ++k) hashes.push_back(UniqueHash(k));
  std::vector<KeyHash> first(hashes.begin(), hashes.begin() + 2000);
  InsertAll(index, first);
  ASSERT_EQ(index.Grow(), Status::kOk);
  // Entries continue from Address{2001}.
  for (size_t i = 2000; i < 4000; ++i) {
    HashIndex::OpScope scope{index, hashes[i]};
    HashIndex::FindResult fr;
    ASSERT_EQ(index.FindSlot(scope, hashes[i], &fr), Status::kOk);
    ASSERT_TRUE(index.TryPublish(&fr, Address{i + 1}));
  }
  uint64_t used = index.NumUsedEntries();

  char path[] = "/tmp/faster_index_grown_XXXXXX";
  int fd = mkstemp(path);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(index.WriteCheckpoint(fd), Status::kOk);
  ::lseek(fd, 0, SEEK_SET);
  HashIndex restored{64, &epoch_};
  ASSERT_EQ(restored.ReadCheckpoint(fd), Status::kOk);
  ::close(fd);
  ::unlink(path);

  EXPECT_EQ(restored.size(), 128u);
  EXPECT_EQ(restored.NumUsedEntries(), used);
  std::vector<KeyHash> before(hashes.begin(), hashes.begin() + 4000);
  ExpectAll(restored, before);
  for (size_t i = 4000; i < hashes.size(); ++i) {
    HashIndex::OpScope scope{restored, hashes[i]};
    HashIndex::FindResult fr;
    ASSERT_EQ(restored.FindSlot(scope, hashes[i], &fr),
              Status::kOk);
    ASSERT_TRUE(restored.TryPublish(&fr, Address{i + 1}));
  }
  ExpectAll(restored, hashes);
}

// The bucket table is reserved, not touched: a 2^22-bucket (256 MB)
// index is not resident after construction, and one insert faults in one
// granule (a huge page where the kernel backs the table with them).
TEST_F(HashIndexTest, TableBecomesResidentOnlyWhenUsed) {
  HashIndex index{uint64_t{1} << 22, &epoch_};
  const MemoryRegion& table = index.table_region();
  ASSERT_EQ(table.block_bytes(), (uint64_t{1} << 22) * sizeof(HashBucket));
  EXPECT_EQ(table.ResidentBytes(0), 0u);
  KeyHash h{Mix64(42)};
  HashIndex::OpScope scope{index, h};
  HashIndex::FindResult fr;
  index.FindSlot(scope, h, &fr);
  ASSERT_TRUE(index.TryPublish(&fr, Address{1, 0}));
  EXPECT_EQ(table.ResidentBytes(0), table.granule());
}

// 2^41 buckets are 2^47 bytes, more than a 47-bit user address space can
// map under any overcommit policy.
TEST_F(HashIndexTest, UnmappableTableThrows) {
  EXPECT_THROW((HashIndex{uint64_t{1} << 41, &epoch_}), std::bad_alloc);
  // Past 2^63 no power of two fits in 64 bits to round the size up to.
  EXPECT_THROW((HashIndex{(uint64_t{1} << 63) + 1, &epoch_}),
               std::bad_alloc);
  EXPECT_THROW((HashIndex{UINT64_MAX, &epoch_}), std::bad_alloc);
}

/// Bytes of address space this process has mapped (/proc/self/statm).
uint64_t MappedBytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  unsigned long long pages = 0;
  if (f != nullptr) {
    if (std::fscanf(f, "%llu", &pages) != 1) pages = 0;
    std::fclose(f);
  }
  return pages * static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
}

// Grow maps the doubled table before changing any state: when the mapping
// fails (here under an address-space limit too tight for it) the index is
// left exactly as it was, and a later Grow still works.
TEST_F(HashIndexTest, GrowFailureLeavesIndexUntouched) {
  constexpr uint64_t kBuckets = uint64_t{1} << 16;  // 4 MB; doubled: 8 MB
  HashIndex index{kBuckets, &epoch_};
  constexpr uint64_t kKeys = 1000;
  for (uint64_t k = 0; k < kKeys; ++k) {
    KeyHash h{Mix64(k)};
    HashIndex::OpScope scope{index, h};
    HashIndex::FindResult fr;
    index.FindSlot(scope, h, &fr);
    ASSERT_TRUE(index.TryPublish(&fr, Address{k + 1, 0}));
  }
  rlimit saved;
  ASSERT_EQ(::getrlimit(RLIMIT_AS, &saved), 0);
  rlimit tight = saved;
  tight.rlim_cur = MappedBytes() + (kBuckets * sizeof(HashBucket)) / 2;
  if (saved.rlim_cur != RLIM_INFINITY && saved.rlim_cur < tight.rlim_cur) {
    GTEST_SKIP() << "address-space limit already tighter than the test's";
  }
  ASSERT_EQ(::setrlimit(RLIMIT_AS, &tight), 0);
  Status s = index.Grow();
  ASSERT_EQ(::setrlimit(RLIMIT_AS, &saved), 0);

  EXPECT_EQ(s, Status::kOutOfMemory);
  EXPECT_EQ(index.size(), kBuckets);
  EXPECT_FALSE(index.IsResizing());
  EXPECT_EQ(index.NumUsedEntries(), kKeys);
  for (uint64_t k = 0; k < kKeys; ++k) {
    KeyHash h{Mix64(k)};
    HashIndex::OpScope scope{index, h};
    HashIndex::FindResult fr;
    ASSERT_TRUE(index.FindEntry(scope, h, &fr)) << "key " << k;
  }
  EXPECT_EQ(index.Grow(), Status::kOk);
  EXPECT_EQ(index.size(), 2 * kBuckets);
}

// An insert whose chain needs an overflow bucket in a segment that cannot
// be mapped (here under an address-space limit too tight for the next
// 4 MB segment) returns kOutOfMemory and changes nothing: every earlier
// entry stays, the refused key is absent, and once the limit is lifted the
// same insert succeeds.
TEST_F(HashIndexTest, UnmappableOverflowSegmentRefusesInsert) {
#if defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "TSan allocates shadow state for every new atomic";
#endif
  // 4,096 buckets: segments of 64 << s buckets, so 32,768 claims (eight
  // overflow buckets per chain) reach the 2 MB segment 9 and the next one
  // is 4 MB.
  constexpr uint64_t kBuckets = 4096;
  HashIndex index{kBuckets, &epoch_};
  std::vector<KeyHash> inserted;
  inserted.reserve(kBuckets * 7 * 20);
  auto insert = [&](KeyHash h) {
    HashIndex::OpScope scope{index, h};
    HashIndex::FindResult fr;
    Status s = index.FindSlot(scope, h, &fr);
    if (s == Status::kOk) {
      EXPECT_TRUE(index.TryPublish(&fr, Address{inserted.size() + 1}));
      inserted.push_back(h);
    }
    return s;
  };
  uint64_t i = 0;
  for (; i < kBuckets * 7 * 9; ++i) {
    ASSERT_EQ(insert(BucketTagHash(i % kBuckets, i / kBuckets + 1)),
              Status::kOk);
  }
  rlimit saved;
  ASSERT_EQ(::getrlimit(RLIMIT_AS, &saved), 0);
  rlimit tight = saved;
  tight.rlim_cur = MappedBytes() + (uint64_t{1} << 20);
  if (saved.rlim_cur != RLIM_INFINITY && saved.rlim_cur < tight.rlim_cur) {
    GTEST_SKIP() << "address-space limit already tighter than the test's";
  }
  ASSERT_EQ(::setrlimit(RLIMIT_AS, &tight), 0);
  KeyHash refused;
  Status s = Status::kOk;
  for (; s == Status::kOk && i < kBuckets * 7 * 20; ++i) {
    refused = BucketTagHash(i % kBuckets, i / kBuckets + 1);
    s = insert(refused);
  }
  Status again;
  {
    HashIndex::OpScope scope{index, refused};
    HashIndex::FindResult fr;
    again = index.FindSlot(scope, refused, &fr);
  }
  ASSERT_EQ(::setrlimit(RLIMIT_AS, &saved), 0);

  EXPECT_EQ(s, Status::kOutOfMemory);
  EXPECT_EQ(again, Status::kOutOfMemory);
  EXPECT_GT(inserted.size(), kBuckets * 7 * 9);
  EXPECT_EQ(index.NumUsedEntries(), inserted.size());
  ExpectAll(index, inserted);
  {
    HashIndex::OpScope scope{index, refused};
    HashIndex::FindResult fr;
    EXPECT_FALSE(index.FindEntry(scope, refused, &fr));
  }
  EXPECT_EQ(insert(refused), Status::kOk);
  ExpectAll(index, inserted);
}

// An index maps little beyond its tables: constructing a 2^16-bucket
// (4 MB) index and growing it twice, with overflow chains in every
// version, fits in eight tables' worth of address space. The tables alone
// need more than seven at the second Grow's peak: 8 MB old, 16 MB new, and
// the huge-page alignment slack of the new mapping.
TEST_F(HashIndexTest, IndexMapsLittleBeyondItsTables) {
  constexpr uint64_t kBuckets = uint64_t{1} << 16;
  std::vector<KeyHash> hashes;
  for (uint64_t k = 0; k < kBuckets * 8; k += 64) {  // 8 tags per bucket
    hashes.push_back(BucketTagHash(k % kBuckets, k / kBuckets + 1));
  }
  rlimit saved;
  ASSERT_EQ(::getrlimit(RLIMIT_AS, &saved), 0);
  rlimit tight = saved;
  tight.rlim_cur = MappedBytes() + 8 * kBuckets * sizeof(HashBucket);
  if (saved.rlim_cur != RLIM_INFINITY && saved.rlim_cur < tight.rlim_cur) {
    GTEST_SKIP() << "address-space limit already tighter than the test's";
  }
  ASSERT_EQ(::setrlimit(RLIMIT_AS, &tight), 0);
  Status grown[2] = {Status::kInvalid, Status::kInvalid};
  std::unique_ptr<HashIndex> index;
  try {
    index = std::make_unique<HashIndex>(kBuckets, &epoch_);
    InsertAll(*index, hashes);
    grown[0] = index->Grow();
    grown[1] = index->Grow();
  } catch (const std::bad_alloc&) {
  }
  ASSERT_EQ(::setrlimit(RLIMIT_AS, &saved), 0);

  ASSERT_NE(index, nullptr) << "construction ran out of address space";
  EXPECT_EQ(grown[0], Status::kOk);
  EXPECT_EQ(grown[1], Status::kOk);
  EXPECT_EQ(index->size(), 4 * kBuckets);
  ExpectAll(*index, hashes);
}

// A one-byte write just past the bucket table lands on its guard page and
// faults, in every build (not only under ASan).
void WritePastTableEnd() {
  LightEpoch epoch;
  HashIndex index{1024, &epoch};
  volatile uint8_t* end =
      index.table_region().block(0) + index.size() * sizeof(HashBucket);
  *end = 1;
}

TEST(HashIndexDeathTest, WritePastTableEndFaults) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(WritePastTableEnd(), "");
}

}  // namespace
}  // namespace faster
