#ifndef FASTER_CORE_KEY_HASH_H_
#define FASTER_CORE_KEY_HASH_H_

#include <cstdint>
#include <cstring>
#include <string_view>
#include <type_traits>

namespace faster {

/// 64-bit mixer from MurmurHash3's finalizer (also used by SplitMix64).
/// Full-avalanche: every input bit affects every output bit, which matters
/// because the hash index consumes disjoint bit ranges (low bits for the
/// bucket, top bits for the tag).
inline constexpr uint64_t Mix64(uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

/// FNV-1a for arbitrary byte strings (variable-length keys).
inline uint64_t HashBytes(const void* data, size_t len) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint64_t h = 14695981039346656037ULL;
  for (size_t i = 0; i < len; ++i) {
    h = (h ^ p[i]) * 1099511628211ULL;
  }
  return Mix64(h);
}

/// The hash of a key, pre-sliced into the pieces the FASTER index consumes
/// (Sec. 3.1): the bucket offset (low `k` bits, taken modulo table size)
/// and the 15-bit tag (top bits, independent of table size so the index
/// can grow without recomputing tags).
class KeyHash {
 public:
  static constexpr uint64_t kTagBits = 15;

  constexpr KeyHash() : control_{0} {}
  constexpr explicit KeyHash(uint64_t control) : control_{control} {}

  constexpr uint64_t control() const { return control_; }

  /// Bucket index in a table of `table_size` buckets (power of two).
  constexpr uint64_t Bucket(uint64_t table_size) const {
    return control_ & (table_size - 1);
  }
  /// 15-bit tag used to increase effective hashing resolution.
  constexpr uint16_t Tag() const {
    return static_cast<uint16_t>(control_ >> (64 - kTagBits));
  }

 private:
  uint64_t control_;
};

/// Default hasher: integral keys go through Mix64, byte-string views
/// through HashBytes; anything else must provide `uint64_t GetHash() const`.
template <typename Key>
struct DefaultKeyHasher {
  KeyHash operator()(const Key& key) const {
    if constexpr (std::is_integral_v<Key>) {
      return KeyHash{Mix64(static_cast<uint64_t>(key))};
    } else if constexpr (std::is_same_v<Key, std::string_view>) {
      return KeyHash{HashBytes(key.data(), key.size())};
    } else {
      return KeyHash{key.GetHash()};
    }
  }
};

}  // namespace faster

#endif  // FASTER_CORE_KEY_HASH_H_
