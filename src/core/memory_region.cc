#include "core/memory_region.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <vector>

namespace faster {

namespace {

uint64_t OsPageSize() {
  static const uint64_t page = static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
  return page;
}

uint64_t RoundUp(uint64_t n, uint64_t multiple) {
  return (n + multiple - 1) / multiple * multiple;
}

}  // namespace

const char* ThpEnabledMode() {
  std::FILE* f =
      std::fopen("/sys/kernel/mm/transparent_hugepage/enabled", "r");
  if (f == nullptr) return "unsupported";
  char line[128] = {};
  if (std::fgets(line, sizeof(line), f) == nullptr) line[0] = '\0';
  std::fclose(f);
  // The active mode is the bracketed one: "always [madvise] never".
  if (std::strstr(line, "[always]") != nullptr) return "always";
  if (std::strstr(line, "[madvise]") != nullptr) return "madvise";
  if (std::strstr(line, "[never]") != nullptr) return "never";
  return "unsupported";
}

MemoryRegion& MemoryRegion::operator=(MemoryRegion&& other) noexcept {
  if (this != &other) {
    Reset();
    base_ = std::exchange(other.base_, nullptr);
    block_bytes_ = std::exchange(other.block_bytes_, 0);
    stride_ = std::exchange(other.stride_, 0);
    count_ = std::exchange(other.count_, 0);
    granule_ = std::exchange(other.granule_, 0);
  }
  return *this;
}

MemoryRegion MemoryRegion::Reserve(uint64_t block_bytes, uint64_t count,
                                   Use use) {
  MemoryRegion region;
  const uint64_t page = OsPageSize();
  if (block_bytes == 0 || count == 0 || block_bytes > UINT64_MAX / 2) {
    return region;
  }
  const bool huge = use == Use::kBlocks && block_bytes >= kHugePage;
  const uint64_t rounded = RoundUp(block_bytes, page);
  // A huge block starts on a huge-page boundary: its guard runs from its
  // end to the next boundary, which leaves at least one page.
  const uint64_t stride =
      huge ? RoundUp(rounded + page, kHugePage) : rounded + page;
  // mmap returns page-aligned memory; over-map so an aligned start fits.
  const uint64_t align = huge ? kHugePage : page;
  const uint64_t slack = align - page;
  if (count > (UINT64_MAX - slack) / stride) return region;
  const uint64_t bytes = stride * count;
  void* mapped = ::mmap(nullptr, bytes + slack, PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mapped == MAP_FAILED) return region;
  // Trim the slack on both sides of the aligned start.
  auto* raw = static_cast<uint8_t*>(mapped);
  auto* base = reinterpret_cast<uint8_t*>(
      RoundUp(reinterpret_cast<uintptr_t>(raw), align));
  const uint64_t head = static_cast<uint64_t>(base - raw);
  if (head > 0) ::munmap(raw, head);
  if (slack > head) ::munmap(base + bytes, slack - head);
  // Adopt first so an early return below unmaps the whole range.
  region.base_ = base;
  region.block_bytes_ = block_bytes;
  region.stride_ = stride;
  region.count_ = count;
  region.granule_ = page;
  // One advice covers every block; the guards split off below keep it but
  // are never touched. The kernel refuses it (EINVAL) without THP support
  // and ignores it under `never`; either way the blocks stay on OS pages.
  if (huge && ::madvise(base, bytes, MADV_HUGEPAGE) == 0 &&
      std::strcmp(ThpEnabledMode(), "never") != 0) {
    region.granule_ = kHugePage;
  }
  // THP `always` would back an arena with huge pages unasked.
  if (use == Use::kArena) ::madvise(base, bytes, MADV_NOHUGEPAGE);
  for (uint64_t i = 0; i < count; ++i) {
    // Each guard splits the mapping; this fails (ENOMEM) once the process
    // would exceed vm.max_map_count.
    if (::mprotect(region.block(i) + rounded, stride - rounded, PROT_NONE) !=
        0) {
      region.Reset();
      return region;
    }
  }
  return region;
}

void MemoryRegion::Reset() {
  if (base_ == nullptr) return;
  ::munmap(base_, stride_ * count_);
  base_ = nullptr;
  block_bytes_ = stride_ = count_ = granule_ = 0;
}

uint64_t MemoryRegion::ResidentBytes(uint64_t i) const {
  const uint64_t page = OsPageSize();
  const uint64_t pages = (block_bytes_ + page - 1) / page;
  std::vector<unsigned char> vec(pages);
  if (::mincore(block(i), pages * page, vec.data()) != 0) return 0;
  uint64_t resident = 0;
  for (unsigned char v : vec) resident += v & 1;
  return resident * page;
}

}  // namespace faster
