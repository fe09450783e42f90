#ifndef FASTER_CORE_RECORD_H_
#define FASTER_CORE_RECORD_H_

#include <atomic>
#include <cstdint>
#include <type_traits>

#include "core/address.h"

namespace faster {

/// The 64-bit record header (Fig. 2): a 48-bit previous-record address plus
/// status bits used by the log-structured allocators (Sec. 4-6).
///
///   bits 0..47   previous address (reverse linked list within a hash chain)
///   bit  48      invalid   (record lost its index CAS; never reachable)
///   bit  49      tombstone (record is a delete marker)
///   bit  50      in-use    (distinguishes real records from page padding)
///   bit  51      delta     (CRDT partial value, Sec. 6.3)
///   bit  52      read-cache (record lives in the read cache, Appendix D)
///   bits 53..63  checkpoint version (reserved)
class RecordInfo {
 public:
  static constexpr uint64_t kPreviousMask = Address::kMaxAddress;
  static constexpr uint64_t kInvalidBit = uint64_t{1} << 48;
  static constexpr uint64_t kTombstoneBit = uint64_t{1} << 49;
  static constexpr uint64_t kInUseBit = uint64_t{1} << 50;
  static constexpr uint64_t kDeltaBit = uint64_t{1} << 51;
  static constexpr uint64_t kReadCacheBit = uint64_t{1} << 52;
  static constexpr uint64_t kOverwrittenBit = uint64_t{1} << 53;

  constexpr RecordInfo() : control_{0} {}
  constexpr explicit RecordInfo(uint64_t control) : control_{control} {}
  constexpr RecordInfo(Address previous, bool invalid, bool tombstone,
                       bool delta = false, bool read_cache = false)
      : control_{previous.control() | kInUseBit |
                 (invalid ? kInvalidBit : 0) |
                 (tombstone ? kTombstoneBit : 0) | (delta ? kDeltaBit : 0) |
                 (read_cache ? kReadCacheBit : 0)} {}

  constexpr uint64_t control() const { return control_; }
  constexpr Address previous_address() const {
    return Address{control_ & kPreviousMask};
  }
  constexpr bool invalid() const { return (control_ & kInvalidBit) != 0; }
  constexpr bool tombstone() const { return (control_ & kTombstoneBit) != 0; }
  constexpr bool in_use() const { return (control_ & kInUseBit) != 0; }
  constexpr bool delta() const { return (control_ & kDeltaBit) != 0; }
  constexpr bool read_cache() const {
    return (control_ & kReadCacheBit) != 0;
  }
  /// Appendix C: a newer version of this record's key was appended while
  /// this record was still in memory — the record is definitely dead, so
  /// log compaction can skip the liveness check.
  constexpr bool overwritten() const {
    return (control_ & kOverwrittenBit) != 0;
  }

 private:
  uint64_t control_;
};

static_assert(sizeof(RecordInfo) == 8);

/// Appendix D: an index entry that points into the read cache (a second
/// HybridLog with its own address space) carries this address bit.
inline constexpr uint64_t kRcBit = uint64_t{1} << 47;
inline bool InReadCache(Address a) { return a.control() & kRcBit; }
inline Address StripRc(Address a) { return Address{a.control() & ~kRcBit}; }
inline Address TagRc(Address a) { return Address{a.control() | kRcBit}; }

/// The header of the record at `p`: every record starts with it (Record's
/// first member), so chain walks need not know the key and value types.
inline RecordInfo RecordInfoAt(const uint8_t* p) {
  // order: acquire, as Record::info().
  return RecordInfo{reinterpret_cast<const std::atomic<uint64_t>*>(p)->load(
      std::memory_order_acquire)};
}

/// A log record: 8-byte header, then the key, then the value, padded to an
/// 8-byte boundary (Fig. 2). Key and Value must be trivially copyable with
/// alignment <= 8 so records can live on raw log pages and be shipped to
/// and from storage byte-for-byte.
template <class Key, class Value>
struct Record {
  static_assert(std::is_trivially_copyable_v<Key>);
  static_assert(std::is_trivially_copyable_v<Value>);
  static_assert(alignof(Key) <= 8 && alignof(Value) <= 8);

  // order: release store in set_info (fill the record before publishing
  // its header); acquire load in info(); acq_rel fetch_or for the
  // invalid/tombstone/overwritten one-way flag bits.
  std::atomic<uint64_t> header;
  Key key;
  Value value;

  /// On-log size of a record, 8-byte aligned.
  static constexpr uint32_t size() {
    return static_cast<uint32_t>((sizeof(Record) + 7) / 8 * 8);
  }

  RecordInfo info() const {
    return RecordInfo{header.load(std::memory_order_acquire)};
  }
  void set_info(RecordInfo info) {
    header.store(info.control(), std::memory_order_release);
  }
  /// Marks a record whose index CAS failed; it is unreachable afterwards
  /// but recovery's log scan must skip it.
  void SetInvalid() {
    header.fetch_or(RecordInfo::kInvalidBit, std::memory_order_acq_rel);
  }
  /// In-place delete in the mutable region (Sec. 4 / Sec. 6).
  void SetTombstone() {
    header.fetch_or(RecordInfo::kTombstoneBit, std::memory_order_acq_rel);
  }
  /// Marks this version as superseded (Appendix C's overwrite bit). Only
  /// meaningful while the record is still in memory; the flushed copy may
  /// or may not carry it — it is a hint, never authoritative.
  void SetOverwritten() {
    header.fetch_or(RecordInfo::kOverwrittenBit, std::memory_order_acq_rel);
  }
};

}  // namespace faster

#endif  // FASTER_CORE_RECORD_H_
