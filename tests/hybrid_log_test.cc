#include "core/hybrid_log.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "device/memory_device.h"
#include "obs/log.h"
#include "parking_device.h"

namespace faster {
namespace {

LogConfig SmallLog(uint64_t pages, double mutable_fraction) {
  LogConfig cfg;
  cfg.memory_size_bytes = pages << Address::kOffsetBits;
  cfg.mutable_fraction = mutable_fraction;
  return cfg;
}

/// Allocates with the caller-side retry protocol (NewPage + refresh).
Address MustAllocate(HybridLog& log, LightEpoch& epoch, uint32_t size) {
  for (;;) {
    uint64_t closed_page = 0;
    Address a = log.Allocate(size, &closed_page);
    if (a.IsValid()) return a;
    while (!log.NewPage(closed_page)) {
      epoch.Refresh();
      std::this_thread::yield();
    }
    epoch.Refresh();
  }
}

class HybridLogTest : public ::testing::Test {
 protected:
  void SetUp() override { epoch_.Protect(); }
  void TearDown() override { epoch_.Unprotect(); }
  LightEpoch epoch_;
  MemoryDevice device_;
};

TEST_F(HybridLogTest, FirstAllocationSkipsAddressZero) {
  HybridLog log{SmallLog(4, 0.9), &device_, &epoch_};
  Address a = MustAllocate(log, epoch_, 24);
  EXPECT_TRUE(a.IsValid());
  EXPECT_EQ(a.control(), 64u);
}

TEST_F(HybridLogTest, SequentialAllocationIsContiguous) {
  HybridLog log{SmallLog(4, 0.9), &device_, &epoch_};
  Address a = MustAllocate(log, epoch_, 32);
  Address b = MustAllocate(log, epoch_, 32);
  EXPECT_EQ(b - a, 32u);
}

TEST_F(HybridLogTest, AllocationCrossesPageBoundary) {
  HybridLog log{SmallLog(4, 0.5), &device_, &epoch_};
  uint32_t size = 512;
  Address last = Address::Invalid();
  uint64_t allocations = (Address::kPageSize / size) + 10;
  for (uint64_t i = 0; i < allocations; ++i) {
    Address a = MustAllocate(log, epoch_, size);
    if (last.IsValid() && a.page() != last.page()) {
      EXPECT_EQ(a.page(), last.page() + 1);
      EXPECT_EQ(a.offset(), 0u);
    }
    last = a;
  }
  EXPECT_GE(last.page(), 1u);
}

TEST_F(HybridLogTest, ReadOnlyOffsetMaintainsLag) {
  HybridLog log{SmallLog(8, 0.5), &device_, &epoch_};
  // ro lag should be 4 pages; fill 6 pages.
  uint32_t size = 1024;
  for (uint64_t i = 0; i < 6 * (Address::kPageSize / size); ++i) {
    MustAllocate(log, epoch_, size);
  }
  Address tail = log.tail_address();
  EXPECT_GE(tail.page(), 5u);
  Address ro = log.read_only_address();
  EXPECT_EQ(ro.page() + log.read_only_lag_pages(), tail.page());
  // Safe read-only catches up after refreshes.
  epoch_.Refresh();
  epoch_.Refresh();
  EXPECT_EQ(log.safe_read_only_address(), log.read_only_address());
}

TEST_F(HybridLogTest, PagesFlushBelowSafeReadOnly) {
  HybridLog log{SmallLog(8, 0.25), &device_, &epoch_};
  uint32_t size = 1024;
  for (uint64_t i = 0; i < 5 * (Address::kPageSize / size); ++i) {
    MustAllocate(log, epoch_, size);
  }
  epoch_.Refresh();
  epoch_.Refresh();
  device_.Drain();
  EXPECT_EQ(log.flushed_until_address(), log.safe_read_only_address());
  EXPECT_GT(device_.bytes_written(), 0u);
}

TEST_F(HybridLogTest, DataSurvivesRoundTripThroughDevice) {
  HybridLog log{SmallLog(4, 0.25), &device_, &epoch_};
  // Write a recognizable pattern into the first page.
  Address a = MustAllocate(log, epoch_, 64);
  std::memset(log.Get(a), 0xAB, 64);
  // Force enough churn that page 0 is flushed and evicted.
  uint32_t size = 4096;
  for (uint64_t i = 0; i < 8 * (Address::kPageSize / size); ++i) {
    MustAllocate(log, epoch_, size);
  }
  ASSERT_GT(log.head_address(), a);
  std::vector<uint8_t> buf(64);
  ASSERT_EQ(log.ReadFromDiskSync(a, 64, buf.data()), Status::kOk);
  for (uint8_t b : buf) EXPECT_EQ(b, 0xAB);
}

TEST_F(HybridLogTest, HeadNeverPassesFlushFrontier) {
  HybridLog log{SmallLog(4, 0.5), &device_, &epoch_};
  uint32_t size = 4096;
  for (uint64_t i = 0; i < 10 * (Address::kPageSize / size); ++i) {
    MustAllocate(log, epoch_, size);
  }
  EXPECT_LE(log.head_address(), log.flushed_until_address());
  EXPECT_LE(log.head_address(), log.safe_read_only_address());
  EXPECT_LE(log.safe_read_only_address(), log.read_only_address());
  EXPECT_LE(log.read_only_address(), log.tail_address());
}

TEST_F(HybridLogTest, InMemoryBufferNeverExceedsBudget) {
  HybridLog log{SmallLog(4, 0.5), &device_, &epoch_};
  uint32_t size = 2048;
  for (uint64_t i = 0; i < 12 * (Address::kPageSize / size); ++i) {
    MustAllocate(log, epoch_, size);
    // [head, tail) must span at most buffer_pages pages (tail itself may
    // momentarily sit on a page boundary during a transition).
    Address last_used = log.tail_address() - 1;
    EXPECT_LE(last_used.page() - log.head_address().page() + 1,
              log.buffer_pages());
  }
}

TEST_F(HybridLogTest, ShiftReadOnlyToTailFlushesEverything) {
  HybridLog log{SmallLog(8, 0.9), &device_, &epoch_};
  for (int i = 0; i < 1000; ++i) MustAllocate(log, epoch_, 64);
  Address tail = log.ShiftReadOnlyToTail(/*wait=*/true);
  EXPECT_GE(log.flushed_until_address(), tail);
  EXPECT_FALSE(log.io_error());
}

TEST_F(HybridLogTest, ShiftBeginAddressIsMonotonic) {
  HybridLog log{SmallLog(4, 0.9), &device_, &epoch_};
  for (int i = 0; i < 100; ++i) MustAllocate(log, epoch_, 64);
  Address mid{0, 1024};
  EXPECT_TRUE(log.ShiftBeginAddress(mid));
  EXPECT_EQ(log.begin_address(), mid);
  EXPECT_FALSE(log.ShiftBeginAddress(Address{0, 512}));  // backwards: no-op
  EXPECT_EQ(log.begin_address(), mid);
}

TEST_F(HybridLogTest, ConcurrentAllocationsAreDisjoint) {
  HybridLog log{SmallLog(16, 0.5), &device_, &epoch_};
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  constexpr uint32_t kSize = 48;
  std::vector<std::vector<uint64_t>> addrs(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      epoch_.Protect();
      addrs[t].reserve(kPerThread);
      for (int i = 0; i < kPerThread; ++i) {
        Address a = MustAllocate(log, epoch_, kSize);
        addrs[t].push_back(a.control());
        if (i % 128 == 0) epoch_.Refresh();
      }
      epoch_.Unprotect();
    });
  }
  for (auto& t : threads) t.join();
  std::vector<uint64_t> all;
  for (auto& v : addrs) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  for (size_t i = 1; i < all.size(); ++i) {
    ASSERT_NE(all[i], all[i - 1]) << "duplicate address";
    ASSERT_GE(all[i] - all[i - 1], kSize) << "overlapping allocations";
  }
}

TEST_F(HybridLogTest, RecoverToPositionsMarkers) {
  HybridLog log{SmallLog(4, 0.9), &device_, &epoch_};
  Address begin{0, 64};
  Address tail{10, 512};
  log.RecoverTo(begin, tail);
  EXPECT_EQ(log.begin_address(), begin);
  EXPECT_EQ(log.head_address(), tail);
  EXPECT_EQ(log.read_only_address(), tail);
  EXPECT_EQ(log.safe_read_only_address(), tail);
  EXPECT_EQ(log.flushed_until_address(), tail);
  EXPECT_EQ(log.tail_address(), tail);
  // Allocation resumes exactly at the recovered tail.
  Address a = MustAllocate(log, epoch_, 64);
  EXPECT_EQ(a, tail);
}

TEST_F(HybridLogTest, ReadCacheModeEvictsWithoutFlushing) {
  LogConfig cfg = SmallLog(4, 0.5);
  cfg.read_cache_mode = true;
  HybridLog log{cfg, &device_, &epoch_};
  uint32_t size = 4096;
  for (uint64_t i = 0; i < 10 * (Address::kPageSize / size); ++i) {
    MustAllocate(log, epoch_, size);
  }
  device_.Drain();
  EXPECT_EQ(device_.bytes_written(), 0u);
  EXPECT_GT(log.head_address().page(), 0u);
}

// The frame budget is reserved, not touched: construction leaves the
// frames non-resident, opening page k faults in frames 0..k only, and a
// frame's first page is not zeroed by hand, so the just-opened frame holds
// only the granule its one record touched.
TEST_F(HybridLogTest, FramesBecomeResidentOnlyWhenOpened) {
  HybridLog log{SmallLog(64, 0.9), &device_, &epoch_};  // 256 MB budget
  const MemoryRegion& frames = log.frame_region();
  ASSERT_EQ(log.buffer_pages(), 64u);
  auto resident_frames = [&] {
    uint64_t n = 0;
    for (uint64_t f = 0; f < log.buffer_pages(); ++f) {
      if (frames.ResidentBytes(f) > 0) ++n;
    }
    return n;
  };
  EXPECT_LE(resident_frames(), 1u);

  constexpr uint64_t kPage = 3;
  constexpr uint32_t kSize = 4096;
  for (Address a; a.page() < kPage;) {
    a = MustAllocate(log, epoch_, kSize);
    std::memset(log.Get(a), 0xAB, kSize);
  }
  for (uint64_t f = 0; f < log.buffer_pages(); ++f) {
    if (f <= kPage) {
      EXPECT_GT(frames.ResidentBytes(f), 0u) << "frame " << f;
    } else {
      EXPECT_EQ(frames.ResidentBytes(f), 0u) << "frame " << f;
    }
  }
  EXPECT_EQ(frames.ResidentBytes(kPage), frames.granule());
}

// A recycled frame still reads as zero padding past the tail: NewPage
// re-zeroes what the kernel zeroed on first use.
TEST_F(HybridLogTest, RecycledFrameReadsZeroPastTail) {
  HybridLog log{SmallLog(4, 0.5), &device_, &epoch_};
  constexpr uint32_t kSize = 4096;
  while (log.tail_address().page() < 2 * log.buffer_pages() + 1) {
    Address a = MustAllocate(log, epoch_, kSize);
    std::memset(log.Get(a), 0xAB, kSize);
  }
  Address a = MustAllocate(log, epoch_, 64);
  std::memset(log.Get(a), 0xCD, 64);
  Address tail = log.tail_address();
  ASSERT_EQ(tail.page(), a.page());
  ASSERT_LT(tail.offset(), Address::kPageSize);
  const uint8_t* p = log.Get(tail);
  uint64_t nonzero = 0;
  for (uint64_t off = 0; off < Address::kPageSize - tail.offset(); ++off) {
    nonzero += p[off] != 0;
  }
  EXPECT_EQ(nonzero, 0u);
}

/// Refuses every write: WriteAsync returns kIoError and never calls back.
class RefusingWriteDevice : public MemoryDevice {
 public:
  Status WriteAsync(const void*, uint64_t, uint32_t, IoCallback,
                    void*) override {
    return Status::kIoError;
  }
};

// A refused flush write completes as a failed one: the frontier moves
// past it, so the log keeps recycling frames, and io_error() reports it.
TEST_F(HybridLogTest, RefusedFlushWriteFailsInsteadOfHanging) {
  RefusingWriteDevice device;
  HybridLog log{SmallLog(4, 0.5), &device, &epoch_};
  constexpr uint32_t kSize = 4096;
  constexpr int kMaxRetries = 1000;
  int retries = 0;
  while (log.tail_address().page() < 3 * log.buffer_pages()) {
    uint64_t closed_page = 0;
    if (log.Allocate(kSize, &closed_page).IsValid()) continue;
    while (!log.NewPage(closed_page)) {
      ASSERT_LT(++retries, kMaxRetries) << "the log stopped at a refused "
                                           "write, tail "
                                        << log.tail_address().control();
      epoch_.Refresh();
    }
    epoch_.Refresh();
  }
  EXPECT_TRUE(log.io_error());
  EXPECT_GT(log.head_address().page(), log.buffer_pages());
}

// A failed flush write leaves an error record in the global logger's
// sinks, in every build.
TEST_F(HybridLogTest, FailedFlushWriteLogsAnError) {
  const std::string path = ::testing::TempDir() + "/hlog_flush_error.log";
  std::remove(path.c_str());
  obs::Logger& logger = obs::Logger::Global();
  ASSERT_TRUE(logger.OpenFile(path));
  RefusingWriteDevice device;
  {
    HybridLog log{SmallLog(4, 0.5), &device, &epoch_};
    MustAllocate(log, epoch_, 4096);
    log.ShiftReadOnlyToTail(/*wait=*/true);
    EXPECT_TRUE(log.io_error());
  }
  std::ifstream in{path};
  std::string text{std::istreambuf_iterator<char>{in}, {}};
  EXPECT_NE(text.find(" error "), std::string::npos) << text;
  EXPECT_NE(text.find("hlog: flush write failed"), std::string::npos) << text;
  std::remove(path.c_str());
}

// Flush writes that complete out of order (as io_uring may deliver them)
// never let the frontier pass a write still in flight, and once every
// write has completed the frontier reaches the end of what was issued.
TEST_F(HybridLogTest, OutOfOrderFlushCompletionsKeepFrontierBehindParked) {
  WriteParkingDevice device;
  HybridLog log{SmallLog(8, 0.25), &device, &epoch_};  // 2 pages mutable
  constexpr uint32_t kSize = 4096;
  auto fill_to = [&](uint64_t page, uint64_t offset) {
    while (log.tail_address() < Address{page, offset}) {
      MustAllocate(log, epoch_, kSize);
    }
    epoch_.Refresh();
    epoch_.Refresh();
  };
  // Pages 0-1 become read-only and flush as the tail enters page 4.
  fill_to(4, Address::kPageSize / 2);
  // Pages 2-3 and the first half of page 4 flush here ...
  Address split = log.ShiftReadOnlyToTail(/*wait=*/false);
  epoch_.Refresh();
  epoch_.Refresh();
  ASSERT_EQ(split.page(), 4u);
  ASSERT_GT(split.offset(), 0u);
  // ... and the second half of page 4 once the tail enters page 7.
  fill_to(7, kSize);

  std::vector<WriteParkingDevice::ParkedWrite> parked = device.parked();
  ASSERT_GE(parked.size(), 6u);
  uint64_t issued_end = 0;
  bool split_page_has_two = false;
  for (const auto& w : parked) {
    issued_end = std::max(issued_end, w.offset + w.len);
    split_page_has_two |= w.offset == split.control();
  }
  ASSERT_TRUE(split_page_has_two);
  EXPECT_EQ(issued_end, log.safe_read_only_address().control());
  EXPECT_EQ(log.flushed_until_address().control(), 64u);

  while (!parked.empty()) {
    device.Release(parked.size() - 1);  // newest first
    parked = device.parked();
    uint64_t lowest_parked = issued_end;
    for (const auto& w : parked) {
      lowest_parked = std::min(lowest_parked, w.offset);
    }
    EXPECT_LE(log.flushed_until_address().control(), lowest_parked)
        << parked.size() << " writes still parked";
  }
  EXPECT_EQ(log.flushed_until_address().control(), issued_end);
  EXPECT_FALSE(log.io_error());
}

// A budget no machine can map is a std::bad_alloc, not a crash.
TEST_F(HybridLogTest, UnmappableBudgetThrows) {
  LogConfig cfg;
  cfg.memory_size_bytes = uint64_t{1} << 46;
  EXPECT_THROW((HybridLog{cfg, &device_, &epoch_}), std::bad_alloc);
}

// A one-byte write just past a frame lands on its guard page and faults,
// in every build (not only under ASan).
void WritePastFrameEnd() {
  LightEpoch epoch;
  MemoryDevice device;
  HybridLog log{SmallLog(4, 0.9), &device, &epoch};
  epoch.Protect();
  Address a = MustAllocate(log, epoch, 64);
  volatile uint8_t* end = log.Get(a) - a.offset() + Address::kPageSize;
  *end = 1;
}

TEST(HybridLogDeathTest, WritePastFrameEndFaults) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(WritePastFrameEnd(), "");
}

}  // namespace
}  // namespace faster
