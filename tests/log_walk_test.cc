// Tests for the log page walk every log reader shares (DESIGN.md §8, "The
// log page format"): compaction reads a storage page once, and a torn page
// ends compaction, scans and recovery with kCorruption instead of silently
// skipping the rest of the page.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/faster.h"
#include "core/functions.h"
#include "device/memory_device.h"

namespace faster {
namespace {

// Counts the reads issued to it.
class CountingDevice : public MemoryDevice {
 public:
  Status ReadAsync(uint64_t offset, void* dst, uint32_t len,
                   IoCallback callback, void* context) override {
    ++reads;
    return MemoryDevice::ReadAsync(offset, dst, len, callback, context);
  }
  uint64_t reads = 0;
};

template <class Store>
typename Store::Config TwoPageConfig() {
  typename Store::Config cfg;
  cfg.table_size = 1 << 16;
  cfg.log.memory_size_bytes = 2 << Address::kOffsetBits;
  cfg.log.mutable_fraction = 0.5;
  return cfg;
}

// The number of pages [from, to) touches.
uint64_t PagesIn(Address from, Address to) {
  return Address{to.control() - 1}.page() - from.page() + 1;
}

// Compacting a range that lies wholly on storage reads each of its pages
// once, and nothing else. Three key classes: the odd keys are tombstones
// (no check); keys k % 4 == 0 are written again, so their newest records
// are in memory (a check reads nothing); keys k % 4 == 2 are written once,
// so their only record is on storage, where the liveness walk meets it at
// once and the copy comes from the page read (a read per such record
// would show). A key of the last class whose hash chain holds another key
// is written again instead: its walk would read that key's record.
TEST(LogWalkTest, CompactionReadsAStoragePageOnce) {
  using Store = FasterKv<CountStoreFunctions>;
  CountingDevice device;
  Store::Config cfg = TwoPageConfig<Store>();
  Store store{cfg, &device};
  constexpr uint64_t kKeys = 300000;
  std::map<std::pair<uint64_t, uint16_t>, uint32_t> chains;
  auto chain = [&cfg](uint64_t key) {
    KeyHash h = DefaultKeyHasher<uint64_t>{}(key);
    return std::pair{h.Bucket(cfg.table_size),
                     static_cast<uint16_t>(h.Tag() &
                                           ((1u << cfg.tag_bits) - 1))};
  };
  for (uint64_t k = 0; k < kKeys; ++k) ++chains[chain(k)];
  auto written_once = [&](uint64_t k) {
    return k % 4 == 2 && chains[chain(k)] == 1;
  };
  store.StartSession();
  for (uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_EQ(store.Upsert(k, 1), Status::kOk);
    if (k % 2 == 1) {
      ASSERT_EQ(store.Delete(k), Status::kOk);  // in place
    }
  }
  store.hlog().ShiftReadOnlyToTail(/*wait=*/true);
  for (uint64_t k = 0; k < kKeys; k += 2) {
    if (!written_once(k)) {
      ASSERT_EQ(store.Upsert(k, 2), Status::kOk);
    }
  }
  Address begin = store.hlog().begin_address();
  Address until = store.hlog().head_address();
  ASSERT_GT(until.page(), begin.page()) << "a whole page must be on storage";

  uint64_t reads_before = device.reads;
  Store::CompactionStats stats;
  ASSERT_EQ(store.CompactLog(until, &stats), Status::kOk);
  uint64_t reads = device.reads - reads_before;
  uint64_t checks = stats.copied + stats.dead_by_trace;
  EXPECT_LT(PagesIn(begin, until) + checks, stats.scanned);
  EXPECT_GT(stats.copied, 0u) << "written-once keys must be on storage";
  EXPECT_EQ(reads, PagesIn(begin, until))
      << stats.scanned << " records scanned, " << stats.copied << " copied";
  EXPECT_EQ(store.hlog().begin_address(), until);
  for (uint64_t k = 0; k < kKeys; k += 1001) {
    uint64_t out = 0;
    Status s = store.Read(k, 0, &out);
    if (s == Status::kPending) {
      store.CompletePending(true);
      s = out == 0 ? Status::kNotFound : Status::kOk;
    }
    if (k % 2 == 1) {
      EXPECT_EQ(s, Status::kNotFound) << k;
    } else {
      EXPECT_EQ(out, written_once(k) ? 1u : 2u) << k;
    }
  }
  store.StopSession();
}

using BlobStore = FasterKv<ByteStringFunctions>;

std::string KeyOf(uint64_t k) { return "key:" + std::to_string(k); }

// A storage page holding a record whose size overruns the page: every
// walk of the log ends there with kCorruption. Compaction truncates only
// below the torn record, as after a failed read, and recovery's repair
// pass reports it rather than dropping the rest of the page.
TEST(LogWalkTest, TornPageEndsEveryWalk) {
  std::string dir = ::testing::TempDir() + "faster_log_walk_torn";
  std::filesystem::remove_all(dir);
  MemoryDevice device;
  BlobStore::Config cfg = TwoPageConfig<BlobStore>();
  Address log_begin;
  {
    BlobStore store{cfg, &device};
    store.StartSession();
    constexpr uint64_t kKeys = 100000;
    const std::string value(64, 'v');
    for (uint64_t k = 0; k < kKeys; ++k) {
      ASSERT_EQ(store.Upsert(KeyOf(k), value), Status::kOk);
    }
    Address begin = store.hlog().begin_address();
    Address head = store.hlog().head_address();
    ASSERT_GT(head.page(), begin.page()) << "a whole page must be on storage";
    log_begin = begin;
    std::vector<Address> on_storage;
    ASSERT_EQ(store.ScanLog(begin, head,
                            [&](Address addr, const BlobStore::RecordT&) {
                              on_storage.push_back(addr);
                            }),
              Status::kOk);
    // Tear a record in the middle of the first page: its value capacity,
    // after the header, key size and value size, now runs past the page
    // end.
    constexpr uint64_t kCapacityOffset = 16;
    size_t torn_index = on_storage.size() / 2;
    Address torn = on_storage[torn_index];
    ASSERT_EQ(torn.page(), begin.page());
    std::string after_key = KeyOf(torn_index + 1);
    uint32_t capacity = Address::kPageSize;
    Status wrote = Status::kPending;
    ASSERT_EQ(device.WriteAsync(
                  &capacity, torn.control() + kCapacityOffset,
                  sizeof(capacity),
                  [](void* ctx, Status s, uint32_t) {
                    *static_cast<Status*>(ctx) = s;
                  },
                  &wrote),
              Status::kOk);
    ASSERT_EQ(wrote, Status::kOk);

    uint64_t visited = 0;
    EXPECT_EQ(store.ScanLog(begin, store.hlog().tail_address(),
                            [&](Address, const BlobStore::RecordT&) {
                              ++visited;
                            }),
              Status::kCorruption);
    EXPECT_EQ(visited, torn_index);

    ASSERT_EQ(store.Checkpoint(dir), Status::kOk);
    EXPECT_EQ(store.CompactLog(head), Status::kCorruption);
    EXPECT_EQ(store.hlog().begin_address(), torn);
    // Records past the torn one were not truncated.
    std::string out;
    Status s = store.Read(after_key, {}, &out);
    if (s == Status::kPending) {
      store.CompletePending(true);
      s = out.empty() ? Status::kNotFound : Status::kOk;
    }
    EXPECT_EQ(s, Status::kOk) << after_key;
    EXPECT_EQ(out, value);
    store.StopSession();
  }
  // The checkpoint's repair pass replays [t1, t2). Widen it to the whole
  // log, which a repair may always replay, so that it crosses the torn
  // record. meta.dat starts with the magic number, then t1.
  int fd = ::open((dir + "/meta.dat").c_str(), O_WRONLY);
  ASSERT_GE(fd, 0);
  uint64_t t1 = log_begin.control();
  ASSERT_EQ(::pwrite(fd, &t1, sizeof(t1), sizeof(uint64_t)),
            static_cast<ssize_t>(sizeof(t1)));
  ::close(fd);
  BlobStore recovered{cfg, &device};
  EXPECT_EQ(recovered.Recover(dir), Status::kCorruption);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace faster
