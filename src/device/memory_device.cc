#include "device/memory_device.h"

#include <algorithm>
#include <cstring>

#include "core/sync.h"

namespace faster {

namespace {

// A copy between a segment and a log frame or an op's buffer. It races
// by design with header hint-bit flips and fuzzy in-place updates (Sec.
// 6.5; tsan.supp's MemoryDevice entry). TSan applies that suppression
// only while it can restore both stacks, and a page flush's copy can be
// millions of accesses older than the flip it races with, so TSan builds
// also hide the copy at the source.
void CopyBytes(void* dst, const void* src, uint32_t n) {
  [[maybe_unused]] TsanIgnoreScope hide;
  std::memcpy(dst, src, n);
}

}  // namespace

MemoryDevice::MemoryDevice(uint32_t /*num_io_threads*/) {}

uint8_t* MemoryDevice::SegmentFor(uint64_t offset, bool create) {
  uint64_t idx = offset >> kSegmentBits;
  std::lock_guard<std::mutex> lock{segments_mutex_};
  if (idx >= segments_.size()) {
    if (!create) return nullptr;
    segments_.resize(idx + 1);
  }
  if (segments_[idx] == nullptr) {
    if (!create) return nullptr;
    segments_[idx] = std::make_unique<uint8_t[]>(kSegmentSize);
  }
  return segments_[idx].get();
}

Status MemoryDevice::WriteSync(const void* src, uint64_t offset,
                               uint32_t len) {
  const auto* p = static_cast<const uint8_t*>(src);
  uint64_t off = offset;
  uint32_t remaining = len;
  while (remaining > 0) {
    uint8_t* seg = SegmentFor(off, /*create=*/true);
    uint64_t seg_off = off & (kSegmentSize - 1);
    uint32_t chunk = static_cast<uint32_t>(
        std::min<uint64_t>(remaining, kSegmentSize - seg_off));
    CopyBytes(seg + seg_off, p, chunk);
    p += chunk;
    off += chunk;
    remaining -= chunk;
  }
  return Status::kOk;
}

Status MemoryDevice::WriteAsync(const void* src, uint64_t offset, uint32_t len,
                                IoCallback callback, void* context) {
  CompleteAtSubmit(obs_stats_, /*write=*/true, callback, context,
                   [&](uint32_t* bytes) {
                     *bytes = len;
                     return WriteSync(src, offset, len);
                   });
  return Status::kOk;
}

Status MemoryDevice::ReadSync(uint64_t offset, void* dst, uint32_t len) {
  auto* p = static_cast<uint8_t*>(dst);
  uint64_t off = offset;
  uint32_t remaining = len;
  while (remaining > 0) {
    uint8_t* seg = SegmentFor(off, /*create=*/false);
    if (seg == nullptr) return Status::kIoError;
    uint64_t seg_off = off & (kSegmentSize - 1);
    uint32_t chunk = static_cast<uint32_t>(
        std::min<uint64_t>(remaining, kSegmentSize - seg_off));
    CopyBytes(p, seg + seg_off, chunk);
    p += chunk;
    off += chunk;
    remaining -= chunk;
  }
  return Status::kOk;
}

Status MemoryDevice::ReadAsync(uint64_t offset, void* dst, uint32_t len,
                               IoCallback callback, void* context) {
  CompleteAtSubmit(obs_stats_, /*write=*/false, callback, context,
                   [&](uint32_t* bytes) {
                     Status s = ReadSync(offset, dst, len);
                     *bytes = s == Status::kOk ? len : 0;
                     return s;
                   });
  return Status::kOk;
}

}  // namespace faster
