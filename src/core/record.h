#ifndef FASTER_CORE_RECORD_H_
#define FASTER_CORE_RECORD_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
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

/// The header of the record at `p`: every record layout starts with it,
/// so chain walks need not know the key and value types.
inline RecordInfo RecordInfoAt(const uint8_t* p) {
  // order: acquire, as RecordHeader::info().
  return RecordInfo{reinterpret_cast<const std::atomic<uint64_t>*>(p)->load(
      std::memory_order_acquire)};
}

/// The 8-byte header every record layout starts with (Fig. 2).
class RecordHeader {
 public:
  RecordInfo info() const {
    return RecordInfo{header_.load(std::memory_order_acquire)};
  }
  void set_info(RecordInfo info) {
    header_.store(info.control(), std::memory_order_release);
  }
  /// Marks a record whose index CAS failed; it is unreachable afterwards
  /// but recovery's log scan must skip it.
  void SetInvalid() {
    header_.fetch_or(RecordInfo::kInvalidBit, std::memory_order_acq_rel);
  }
  /// In-place delete in the mutable region (Sec. 4 / Sec. 6).
  void SetTombstone() {
    header_.fetch_or(RecordInfo::kTombstoneBit, std::memory_order_acq_rel);
  }
  /// Marks this version as superseded (Appendix C's overwrite bit). Only
  /// meaningful while the record is still in memory; the flushed copy may
  /// or may not carry it — it is a hint, never authoritative.
  void SetOverwritten() {
    header_.fetch_or(RecordInfo::kOverwrittenBit, std::memory_order_acq_rel);
  }

 private:
  // order: release store in set_info (fill the record before publishing
  // its header); acquire load in info(); acq_rel fetch_or for the
  // invalid/tombstone/overwritten one-way flag bits.
  std::atomic<uint64_t> header_;
};

/// A fixed-size log record: the header, then the key, then the value,
/// padded to an 8-byte boundary (Fig. 2). Key and Value must be trivially
/// copyable with alignment <= 8 so records can live on raw log pages and
/// be shipped to and from storage byte-for-byte.
template <class Key, class Value>
struct Record : RecordHeader {
  static_assert(std::is_trivially_copyable_v<Key>);
  static_assert(std::is_trivially_copyable_v<Value>);
  static_assert(alignof(Key) <= 8 && alignof(Value) <= 8);

  Key key;
  Value value;

  /// On-log size of a record, 8-byte aligned.
  static constexpr uint32_t size() {
    return static_cast<uint32_t>((sizeof(Record) + 7) / 8 * 8);
  }
};

/// A variable-length log record (Sec. 2.1: "keys and values may be fixed
/// or variable-sized"):
///
///   header (8) | key_size (4) | value_size (4) | value_capacity (4) |
///   pad (4) | key bytes | value bytes | pad to 8
///
/// `value_capacity` is the space reserved for the value: an in-place
/// update fits whenever the new value is no longer.
struct VarRecord : RecordHeader {
  static constexpr uint32_t kPrefixSize = 24;

  uint32_t key_size;
  // order: release store publishes in-place value bytes before the new
  // length, acquire load pairs with it (concurrent readers); relaxed store
  // in VarLayout::Init (the header's release store publishes the record).
  std::atomic<uint32_t> value_size;
  uint32_t value_capacity;
  uint32_t pad;

  static uint64_t TotalSize(uint64_t key_size, uint64_t value_capacity) {
    return (kPrefixSize + key_size + value_capacity + 7) / 8 * 8;
  }
  uint32_t total_size() const {
    return static_cast<uint32_t>(TotalSize(key_size, value_capacity));
  }
  std::string_view key() const {
    return {reinterpret_cast<const char*>(this) + kPrefixSize, key_size};
  }
  std::string_view value() const {
    return {key().data() + key_size,
            value_size.load(std::memory_order_acquire)};
  }
  /// Writes `v` (at most value_capacity bytes), then publishes its length.
  void WriteValue(std::string_view v) {
    if (!v.empty()) {  // an empty view's data() may be null
      std::memcpy(reinterpret_cast<char*>(this) + kPrefixSize + key_size,
                  v.data(), v.size());
    }
    value_size.store(static_cast<uint32_t>(v.size()),
                     std::memory_order_release);
  }
};

static_assert(sizeof(VarRecord) == VarRecord::kPrefixSize);

/// Record layouts: how the store sizes, keys and initializes the records
/// it allocates (DESIGN.md §8 "Record layouts"). A Functions type picks
/// one with `using Layout = ...;` (functions.h); the default is
/// FixedLayout. `kFixedSize` is the record size, or 0 when sizes vary.
/// `ValueOf` is what the Functions callbacks get as the record's value.
template <class Key, class Value>
struct FixedLayout {
  using RecordT = Record<Key, Value>;
  /// What a pending op keeps of its key.
  using KeyStore = Key;
  static constexpr uint32_t kFixedSize = RecordT::size();
  /// The shortest record: a page's last kMinSize - 1 bytes hold none.
  static constexpr uint32_t kMinSize = kFixedSize;
  /// What a pending op's storage read fetches first.
  static constexpr uint32_t kReadBlock = kFixedSize;

  static constexpr uint32_t Size(const RecordT&) { return kFixedSize; }
  static constexpr uint32_t SizeFor(const Key&, const Value&) {
    return kFixedSize;
  }
  /// True if an in-place update to `v` fits the record.
  static constexpr bool Fits(const RecordT&, const Value&) { return true; }
  static bool KeyEquals(const RecordT& r, const Key& k) { return r.key == k; }
  static const Key& KeyOf(const RecordT& r) { return r.key; }
  template <class R>
  static auto& ValueOf(R& r) {
    return r.value;
  }
  /// Fills a fresh record's key (and whatever sizes `v` implies).
  static void Init(RecordT* r, const Key& k, const Value&) { r->key = k; }
};

/// VarRecord's layout, for byte-string keys and values.
struct VarLayout {
  using RecordT = VarRecord;
  using KeyStore = std::string;
  static constexpr uint32_t kFixedSize = 0;
  static constexpr uint32_t kMinSize = VarRecord::kPrefixSize;
  /// A longer record is read again, whole.
  static constexpr uint32_t kReadBlock = 512;

  static uint32_t Size(const VarRecord& r) { return r.total_size(); }
  static uint64_t SizeFor(std::string_view k, std::string_view v) {
    return VarRecord::TotalSize(k.size(), v.size());
  }
  static bool Fits(const VarRecord& r, std::string_view v) {
    return v.size() <= r.value_capacity;
  }
  static bool KeyEquals(const VarRecord& r, std::string_view k) {
    return r.key() == k;
  }
  static std::string_view KeyOf(const VarRecord& r) { return r.key(); }
  template <class R>
  static R& ValueOf(R& r) {
    return r;
  }
  /// The key and an empty value of capacity `v.size()`.
  static void Init(VarRecord* r, std::string_view k, std::string_view v) {
    r->key_size = static_cast<uint32_t>(k.size());
    r->value_capacity = static_cast<uint32_t>(v.size());
    r->pad = 0;
    if (!k.empty()) {
      std::memcpy(reinterpret_cast<char*>(r) + VarRecord::kPrefixSize,
                  k.data(), k.size());
    }
    r->value_size.store(0, std::memory_order_relaxed);
  }
};

}  // namespace faster

#endif  // FASTER_CORE_RECORD_H_
