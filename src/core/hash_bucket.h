#ifndef FASTER_CORE_HASH_BUCKET_H_
#define FASTER_CORE_HASH_BUCKET_H_

#include <atomic>
#include <cstdint>

#include "core/address.h"
#include "core/sync.h"

namespace faster {

/// One 8-byte hash-bucket entry (Fig. 2):
///
///   | tentative (1 bit, bit 63) | tag (15 bits) | address (48 bits) |
///
/// A value of 0 means "empty slot". The tentative bit makes the two-phase
/// latch-free insert possible (Sec. 3.2): entries with the bit set are
/// invisible to concurrent reads and updates.
class HashBucketEntry {
 public:
  static constexpr uint64_t kAddressMask = Address::kMaxAddress;
  static constexpr uint64_t kTagShift = 48;
  static constexpr uint64_t kTagMask = uint64_t{0x7fff} << kTagShift;
  static constexpr uint64_t kTentativeBit = uint64_t{1} << 63;

  constexpr HashBucketEntry() : control_{0} {}
  constexpr explicit HashBucketEntry(uint64_t control) : control_{control} {}
  constexpr HashBucketEntry(Address address, uint16_t tag, bool tentative)
      : control_{address.control() |
                 (static_cast<uint64_t>(tag & 0x7fff) << kTagShift) |
                 (tentative ? kTentativeBit : 0)} {}

  constexpr uint64_t control() const { return control_; }
  constexpr bool IsUnused() const { return control_ == 0; }
  constexpr Address address() const {
    return Address{control_ & kAddressMask};
  }
  constexpr uint16_t tag() const {
    return static_cast<uint16_t>((control_ & kTagMask) >> kTagShift);
  }
  constexpr bool tentative() const { return (control_ & kTentativeBit) != 0; }

  /// Same entry with the tentative bit cleared.
  constexpr HashBucketEntry Finalized() const {
    return HashBucketEntry{control_ & ~kTentativeBit};
  }

  friend constexpr bool operator==(HashBucketEntry a, HashBucketEntry b) {
    return a.control_ == b.control_;
  }
  friend constexpr bool operator!=(HashBucketEntry a, HashBucketEntry b) {
    return a.control_ != b.control_;
  }

 private:
  uint64_t control_;
};

static_assert(sizeof(HashBucketEntry) == 8);

/// A cache-line-sized hash bucket (Fig. 2): seven 8-byte entries plus one
/// 8-byte overflow pointer to a dynamically allocated overflow bucket.
struct alignas(64) HashBucket {
  static constexpr uint32_t kNumEntries = 7;

  // order: acquire loads on every chain scan; acq_rel CAS for the
  // tentative claim and TryPublish/TryDelete on an existing entry (that
  // CAS is the publication point for a record that supersedes one: the
  // writer fills the record with plain stores, the CAS releases them);
  // release store to finalize an owned slot — for a new key, whose record
  // is written before the tentative claim that already points at it, the
  // finalize is the publication point (readers skip tentative entries) —
  // to back one off, or (migration) to publish into a not-yet-shared
  // table; relaxed loads/stores only in single-writer phases (migration
  // scan, checkpoint restore). Every entry is published pointing at its
  // record.
  Atomic<uint64_t> entries[kNumEntries];
  /// Physical pointer (as integer) to the next (overflow) bucket; 0 if
  /// none. Overflow buckets are cache-line aligned too.
  // order: acquire loads following the chain; acq_rel CAS appends a bucket
  // (publishes its zeroed cache line); release store during migration
  // (single writer per chunk); relaxed in single-writer phases (migration
  // scan, checkpoint restore).
  Atomic<uint64_t> overflow;
};

#ifndef FASTER_MODEL
static_assert(sizeof(HashBucket) == 64, "bucket must be one cache line");
#endif

}  // namespace faster

#endif  // FASTER_CORE_HASH_BUCKET_H_
