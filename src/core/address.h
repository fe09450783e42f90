#ifndef FASTER_CORE_ADDRESS_H_
#define FASTER_CORE_ADDRESS_H_

#include <cassert>
#include <cstdint>
#include <functional>

namespace faster {

/// A 48-bit logical address into the FASTER log-structured address space
/// (Sec. 5.1 of the paper).
///
/// The address is split into a page number (upper bits) and an offset
/// within the page (lower `kOffsetBits` bits). Pages are `2^kOffsetBits`
/// bytes; the default of 22 bits gives the 4 MB pages used in the paper's
/// evaluation (Sec. 7.4.1). The hash index steals the upper 16 bits of its
/// 64-bit entries for the tag and tentative bit, which is why addresses are
/// limited to 48 bits.
///
/// Address 0 is reserved as the invalid address; the log's first record is
/// placed at offset 64 of page 0 so that no valid record ever has address 0.
class Address {
 public:
  static constexpr uint64_t kAddressBits = 48;
  static constexpr uint64_t kOffsetBits = 22;
  static constexpr uint64_t kPageBits = kAddressBits - kOffsetBits;
  static constexpr uint64_t kMaxAddress = (uint64_t{1} << kAddressBits) - 1;
  static constexpr uint64_t kMaxOffset = (uint64_t{1} << kOffsetBits) - 1;
  static constexpr uint64_t kMaxPage = (uint64_t{1} << kPageBits) - 1;
  /// Bytes per log page.
  static constexpr uint64_t kPageSize = uint64_t{1} << kOffsetBits;

  /// The reserved invalid address (linked-list terminator).
  static constexpr uint64_t kInvalidControl = 0;

  constexpr Address() : control_{kInvalidControl} {}
  // Inline everywhere, assert included: every op constructs several.
  [[gnu::always_inline]] constexpr explicit Address(uint64_t control)
      : control_{control} {
    assert(control <= kMaxAddress);
  }
  constexpr Address(uint64_t page, uint64_t offset)
      : control_{(page << kOffsetBits) | offset} {
    assert(page <= kMaxPage);
    assert(offset <= kMaxOffset);
  }

  static constexpr Address Invalid() { return Address{}; }

  constexpr uint64_t control() const { return control_; }
  constexpr uint64_t page() const { return control_ >> kOffsetBits; }
  constexpr uint64_t offset() const { return control_ & kMaxOffset; }

  constexpr bool IsValid() const { return control_ != kInvalidControl; }

  /// First address of this address's page.
  constexpr Address PageStart() const {
    return Address{page() << kOffsetBits};
  }
  /// First address of the next page.
  constexpr Address NextPageStart() const {
    return Address{(page() + 1) << kOffsetBits};
  }

  constexpr Address operator+(uint64_t delta) const {
    return Address{control_ + delta};
  }
  constexpr Address operator-(uint64_t delta) const {
    return Address{control_ - delta};
  }
  constexpr uint64_t operator-(Address other) const {
    return control_ - other.control_;
  }

  friend constexpr bool operator==(Address a, Address b) {
    return a.control_ == b.control_;
  }
  friend constexpr bool operator!=(Address a, Address b) {
    return a.control_ != b.control_;
  }
  friend constexpr bool operator<(Address a, Address b) {
    return a.control_ < b.control_;
  }
  friend constexpr bool operator<=(Address a, Address b) {
    return a.control_ <= b.control_;
  }
  friend constexpr bool operator>(Address a, Address b) {
    return a.control_ > b.control_;
  }
  friend constexpr bool operator>=(Address a, Address b) {
    return a.control_ >= b.control_;
  }

 private:
  uint64_t control_;
};

static_assert(sizeof(Address) == 8, "Address must be 8 bytes");

}  // namespace faster

#endif  // FASTER_CORE_ADDRESS_H_
