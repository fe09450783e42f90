#include "core/memory_region.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <vector>

namespace faster {

namespace {

uint64_t OsPageSize() {
  static const uint64_t page = static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
  return page;
}

}  // namespace

MemoryRegion& MemoryRegion::operator=(MemoryRegion&& other) noexcept {
  if (this != &other) {
    Reset();
    base_ = std::exchange(other.base_, nullptr);
    block_bytes_ = std::exchange(other.block_bytes_, 0);
    stride_ = std::exchange(other.stride_, 0);
    count_ = std::exchange(other.count_, 0);
  }
  return *this;
}

MemoryRegion MemoryRegion::Reserve(uint64_t block_bytes, uint64_t count) {
  MemoryRegion region;
  const uint64_t page = OsPageSize();
  if (block_bytes == 0 || count == 0 || block_bytes > UINT64_MAX / 2) {
    return region;
  }
  const uint64_t rounded = (block_bytes + page - 1) / page * page;
  const uint64_t stride = rounded + page;
  if (count > UINT64_MAX / stride) return region;
  void* base = ::mmap(nullptr, stride * count, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (base == MAP_FAILED) return region;
  // Adopt first so an early return below unmaps the whole range.
  region.base_ = static_cast<uint8_t*>(base);
  region.block_bytes_ = block_bytes;
  region.stride_ = stride;
  region.count_ = count;
  for (uint64_t i = 0; i < count; ++i) {
    // Each guard splits the mapping; this fails (ENOMEM) once the process
    // would exceed vm.max_map_count.
    if (::mprotect(region.block(i) + rounded, page, PROT_NONE) != 0) {
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
  block_bytes_ = stride_ = count_ = 0;
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
