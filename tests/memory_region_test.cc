#include "core/memory_region.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>

namespace faster {
namespace {

constexpr uint64_t kHuge = MemoryRegion::kHugePage;
constexpr uint64_t kFrame = uint64_t{4} << 20;

uint64_t OsPage() { return static_cast<uint64_t>(::sysconf(_SC_PAGESIZE)); }

uint64_t Addr(const uint8_t* p) { return reinterpret_cast<uintptr_t>(p); }

// Every block of a region with blocks of at least 2 MB starts on a huge
// page boundary, including blocks whose size is not a multiple of 2 MB.
TEST(MemoryRegionTest, HugeBlocksStartHugePageAligned) {
  for (uint64_t block_bytes : {kHuge, kFrame, 3 * kHuge + 100}) {
    MemoryRegion region = MemoryRegion::Reserve(block_bytes, 5);
    ASSERT_TRUE(region) << block_bytes;
    for (uint64_t i = 0; i < 5; ++i) {
      EXPECT_EQ(Addr(region.block(i)) % kHuge, 0u)
          << "block " << i << " of " << block_bytes;
    }
  }
  // A 4 MB frame's guard is the 2 MB up to the next boundary.
  MemoryRegion frames = MemoryRegion::Reserve(kFrame, 2);
  ASSERT_TRUE(frames);
  EXPECT_EQ(static_cast<uint64_t>(frames.block(1) - frames.block(0)),
            3 * kHuge);
}

// Blocks under 2 MB keep the page-aligned layout with a one-page guard.
TEST(MemoryRegionTest, SmallBlocksKeepPageStride) {
  const uint64_t page = OsPage();
  MemoryRegion region = MemoryRegion::Reserve(16 * page + 1, 3);
  ASSERT_TRUE(region);
  EXPECT_EQ(region.granule(), page);
  for (uint64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(Addr(region.block(i)) % page, 0u);
  }
  EXPECT_EQ(static_cast<uint64_t>(region.block(1) - region.block(0)),
            18 * page);
}

// A one-byte write at a frame's end lands on the first page of its guard.
void WriteAtFrameEnd() {
  MemoryRegion region = MemoryRegion::Reserve(kFrame, 2);
  volatile uint8_t* end = region.block(0) + kFrame;
  *end = 1;
}

// A one-byte write just below the next block lands on the last page of the
// guard, at the far end of the alignment gap.
void WriteAtGapEnd() {
  MemoryRegion region = MemoryRegion::Reserve(kFrame, 2);
  volatile uint8_t* end = region.block(1) - 1;
  *end = 1;
}

TEST(MemoryRegionDeathTest, WriteAtFrameEndFaults) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(WriteAtFrameEnd(), "");
}

TEST(MemoryRegionDeathTest, WriteAtGapEndFaults) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(WriteAtGapEnd(), "");
}

// The AnonHugePages of the /proc/self/smaps mapping that contains `addr`,
// in kB.
uint64_t AnonHugeKbAt(uint64_t addr) {
  std::ifstream smaps{"/proc/self/smaps"};
  std::string line;
  bool inside = false;
  while (std::getline(smaps, line)) {
    unsigned long long start = 0;
    unsigned long long end = 0;
    char dash = 0;
    // Mapping headers start "start-end perms ..."; field lines "Name: ...".
    if (std::sscanf(line.c_str(), "%llx%c%llx", &start, &dash, &end) == 3 &&
        dash == '-') {
      inside = start <= addr && addr < end;
      continue;
    }
    unsigned long long kb = 0;
    if (inside &&
        std::sscanf(line.c_str(), "AnonHugePages: %llu kB", &kb) == 1) {
      return kb;
    }
  }
  return 0;
}

// Where the kernel has THP on, touching one byte of a huge block backs it
// with a huge page.
TEST(MemoryRegionTest, TouchedHugeBlockIsBackedByHugePage) {
  const std::string mode = ThpEnabledMode();
  if (mode == "never" || mode == "unsupported") {
    GTEST_SKIP() << "transparent huge pages: " << mode;
  }
  MemoryRegion region = MemoryRegion::Reserve(kFrame, 2);
  ASSERT_TRUE(region);
  EXPECT_EQ(region.granule(), kHuge);
  region.block(1)[0] = 1;
  EXPECT_GT(AnonHugeKbAt(Addr(region.block(1))), 0u);
  EXPECT_EQ(region.ResidentBytes(1), kHuge);
}

}  // namespace
}  // namespace faster
