#ifndef FASTER_CORE_MEMORY_REGION_H_
#define FASTER_CORE_MEMORY_REGION_H_

#include <cstdint>
#include <utility>

namespace faster {

/// An anonymous private mapping carved into `count` equal blocks, each
/// followed by a PROT_NONE guard (DESIGN.md §5, "Frame and table memory"):
///
///   | block 0 | guard | block 1 | guard | ... | block count-1 | guard |
///
/// The kernel zero-fills a page on its first touch, so reserving a region
/// costs address space, not resident memory: the log's frame budget and the
/// index's bucket tables become resident only as they are used. A write
/// that runs off the end of a block faults on its guard in every build.
///
/// Blocks of at least kHugePage bytes are backed by transparent huge
/// pages: the region starts kHugePage-aligned, the block stride is a
/// multiple of kHugePage (the guard is the whole gap from the block's end
/// to the next boundary), and the blocks are madvise(MADV_HUGEPAGE)d, so a
/// random probe of an index table or log frame costs one TLB entry per
/// 2 MB instead of per 4 KB. Smaller blocks are page-aligned with a
/// one-page guard. A block whose size is not a multiple of the OS page
/// ends before its guard, in the page's unused tail. An arena (kArena)
/// stays on OS pages whatever its size, so a bump allocator's residency
/// follows its claims one OS page at a time.
///
/// Move-only; the destructor unmaps the whole region.
class MemoryRegion {
 public:
  static constexpr uint64_t kHugePage = uint64_t{2} << 20;

  /// kArena: OS pages only (MADV_NOHUGEPAGE), whatever the size.
  enum class Use : uint8_t { kBlocks, kArena };

  MemoryRegion() = default;
  ~MemoryRegion() { Reset(); }

  MemoryRegion(MemoryRegion&& other) noexcept { *this = std::move(other); }
  MemoryRegion& operator=(MemoryRegion&& other) noexcept;
  MemoryRegion(const MemoryRegion&) = delete;
  MemoryRegion& operator=(const MemoryRegion&) = delete;

  /// Maps `count` blocks of `block_bytes` each, plus their guards.
  /// Returns an empty region (false in a boolean context) if either
  /// argument is zero, the size overflows, or the kernel refuses the
  /// mapping or a guard. A refused huge-page advice is not a failure: the
  /// region then works on OS pages, and granule() says so.
  static MemoryRegion Reserve(uint64_t block_bytes, uint64_t count = 1,
                              Use use = Use::kBlocks);

  /// Unmaps the region (no-op when empty) and leaves it empty.
  void Reset();

  explicit operator bool() const { return base_ != nullptr; }

  /// Start of block `i`; blocks are one stride (see above) apart.
  uint8_t* block(uint64_t i) const { return base_ + i * stride_; }
  /// Block 0 as an array of T (the index's bucket table).
  template <class T>
  T* As() const {
    return reinterpret_cast<T*>(base_);
  }
  uint64_t block_bytes() const { return block_bytes_; }

  /// The unit in which a block becomes resident: kHugePage when the block
  /// is at least that large and the kernel took the huge-page advice (THP
  /// not `never`), else the OS page. 0 for an empty region.
  uint64_t granule() const { return granule_; }

  /// Bytes of block `i` currently resident in memory (mincore), in whole
  /// OS pages. For tests and introspection.
  uint64_t ResidentBytes(uint64_t i) const;

 private:
  uint8_t* base_ = nullptr;
  uint64_t block_bytes_ = 0;
  uint64_t stride_ = 0;
  uint64_t count_ = 0;
  uint64_t granule_ = 0;
};

/// The kernel's transparent-huge-page mode, from
/// /sys/kernel/mm/transparent_hugepage/enabled: "always", "madvise",
/// "never", or "unsupported" when the file is absent or unreadable.
const char* ThpEnabledMode();

}  // namespace faster

#endif  // FASTER_CORE_MEMORY_REGION_H_
