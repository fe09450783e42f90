#ifndef FASTER_CORE_FUNCTIONS_H_
#define FASTER_CORE_FUNCTIONS_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>

#include "core/record.h"

namespace faster {

/// FASTER's compile-time user interface (Appendix E).
///
/// The paper's C# implementation uses dynamic code generation to inline
/// user-defined read/update logic into the store. The C++ analogue is a
/// `Functions` policy type passed as a template parameter: all callbacks
/// below are static and resolved (and inlined) at compile time. A
/// `Functions` type must provide:
///
/// ```
/// struct MyFunctions {
///   using Key    = ...;  // trivially copyable, alignment <= 8
///   using Value  = ...;  // trivially copyable, alignment <= 8
///   using Input  = ...;  // update operand (RMW) / read selector
///   using Output = ...;  // read result / the value an RMW wrote
///
///   // Reads (Sec. 2.2 / Appendix E). SingleReader runs with guaranteed
///   // read-only access (stable or safe-read-only region, or a record
///   // retrieved from disk); ConcurrentReader may race with in-place
///   // updaters and must handle record-level concurrency itself (e.g.,
///   // atomics or a record-level lock).
///   static void SingleReader(const Key&, const Input&, const Value&,
///                            Output&);
///   static void ConcurrentReader(const Key&, const Input&, const Value&,
///                                Output&);
///
///   // Upserts. SingleWriter has exclusive access (fresh tail record);
///   // ConcurrentWriter may race with readers and other writers.
///   static void SingleWriter(const Key&, const Value& desired, Value& dst);
///   static void ConcurrentWriter(const Key&, const Value& desired,
///                                Value& dst);
///
///   // RMW. InitialUpdater populates the value for an absent key;
///   // InPlaceUpdater runs in the mutable region and may race with
///   // readers and updaters; CopyUpdater writes the updated value into a
///   // new tail record from the (immutable) old value. Each reports the
///   // value its own update wrote in Output (e.g. fetch-and-add's result
///   // plus the input, never a re-read); a mergeable store drops it.
///   static void InitialUpdater(const Key&, const Input&, Value&, Output&);
///   static void InPlaceUpdater(const Key&, const Input&, Value&, Output&);
///   static void CopyUpdater(const Key&, const Input&, const Value& old,
///                           Value& dst, Output&);
///
///   // Optional: mergeable (CRDT) RMW support (Sec. 6.3). When true, RMW
///   // never blocks on the fuzzy region or storage: it appends a delta
///   // record initialized by InitialUpdater, and reads reconcile all
///   // matching records with Merge.
///   static constexpr bool kMergeable = false;
///   static void Merge(Value& accumulator, const Value& delta);
///
///   // Optional: the record layout (core/record.h); FixedLayout<Key,
///   // Value> when absent. The callbacks' Value arguments are the
///   // layout's ValueOf(record).
///   using Layout = ...;
/// };
/// ```
namespace detail {

template <class F, class = void>
struct MergeableTrait : std::false_type {};
template <class F>
struct MergeableTrait<F, std::void_t<decltype(F::kMergeable)>>
    : std::bool_constant<F::kMergeable> {};

template <class F, class = void>
struct LayoutTrait {
  using type = FixedLayout<typename F::Key, typename F::Value>;
};
template <class F>
struct LayoutTrait<F, std::void_t<typename F::Layout>> {
  using type = typename F::Layout;
};

}  // namespace detail

/// True if `F` declares `static constexpr bool kMergeable = true`.
template <class F>
inline constexpr bool IsMergeable = detail::MergeableTrait<F>::value;

/// `F::Layout` if `F` declares one, else FixedLayout<F::Key, F::Value>.
template <class F>
using LayoutOf = typename detail::LayoutTrait<F>::type;

/// The paper's running example (Sec. 2.5): a count store where RMW
/// increments a per-key counter by the input. Used by tests, examples, and
/// the YCSB RMW benchmarks. The value is read and bumped with 64-bit
/// atomic operations so concurrent in-place updates are linearizable
/// per key (fetch-and-add, as suggested in Sec. 4).
struct CountStoreFunctions {
  using Key = uint64_t;
  using Value = uint64_t;
  using Input = uint64_t;
  using Output = uint64_t;

  static void SingleReader(const Key&, const Input&, const Value& value,
                           Output& out) {
    out = value;
  }
  static void ConcurrentReader(const Key&, const Input&, const Value& value,
                               Output& out) {
    out = reinterpret_cast<const std::atomic<uint64_t>&>(value).load(
        std::memory_order_acquire);
  }
  static void SingleWriter(const Key&, const Value& desired, Value& dst) {
    dst = desired;
  }
  static void ConcurrentWriter(const Key&, const Value& desired, Value& dst) {
    reinterpret_cast<std::atomic<uint64_t>&>(dst).store(
        desired, std::memory_order_release);
  }
  static void InitialUpdater(const Key&, const Input& input, Value& value,
                             Output& out) {
    value = input;
    out = input;
  }
  static void InPlaceUpdater(const Key&, const Input& input, Value& value,
                             Output& out) {
    auto& v = reinterpret_cast<std::atomic<uint64_t>&>(value);
    out = v.fetch_add(input, std::memory_order_acq_rel) + input;
  }
  static void CopyUpdater(const Key&, const Input& input, const Value& old,
                          Value& dst, Output& out) {
    dst = old + input;
    out = dst;
  }
};

/// Fixed-size opaque payloads (the paper's YCSB experiments use 8-byte and
/// 100-byte values, Sec. 7.1). Reads and writes copy the whole blob; RMW
/// treats the first 8 bytes as a counter and adds the input (modelling the
/// per-key running "sum" the paper's RMW workload performs). Record-level
/// concurrency for multi-word values is the user's responsibility per the
/// Appendix E contract; like the paper's YCSB setup, concurrent blind
/// upserts of the same key tolerate racy byte copies.
template <uint32_t N>
struct BlobStoreFunctions {
  struct Blob {
    uint8_t bytes[N];
  };
  using Key = uint64_t;
  using Value = Blob;
  using Input = uint64_t;
  using Output = Blob;

  static uint64_t Counter(const Value& v) {
    uint64_t c;
    std::memcpy(&c, v.bytes, 8);
    return c;
  }
  static void SetCounter(Value& v, uint64_t c) {
    std::memcpy(v.bytes, &c, 8);
  }

  static void SingleReader(const Key&, const Input&, const Value& value,
                           Output& out) {
    out = value;
  }
  static void ConcurrentReader(const Key&, const Input&, const Value& value,
                               Output& out) {
    out = value;
  }
  static void SingleWriter(const Key&, const Value& desired, Value& dst) {
    dst = desired;
  }
  static void ConcurrentWriter(const Key&, const Value& desired, Value& dst) {
    dst = desired;
  }
  static void InitialUpdater(const Key&, const Input& input, Value& value,
                             Output& out) {
    value = Value{};
    SetCounter(value, input);
    out = value;
  }
  /// The output's counter is exact, the rest a racy copy (ConcurrentReader).
  static void InPlaceUpdater(const Key&, const Input& input, Value& value,
                             Output& out) {
    uint64_t c = reinterpret_cast<std::atomic<uint64_t>*>(value.bytes)
                     ->fetch_add(input, std::memory_order_acq_rel);
    out = value;
    SetCounter(out, c + input);
  }
  static void CopyUpdater(const Key&, const Input& input, const Value& old,
                          Value& dst, Output& out) {
    dst = old;
    SetCounter(dst, Counter(old) + input);
    out = dst;
  }
};

/// Mergeable (CRDT) variant of the count store: partial counts are summed
/// on read (Sec. 6.3's canonical example).
struct MergeableCountFunctions : CountStoreFunctions {
  static constexpr bool kMergeable = true;
  static void Merge(Value& accumulator, const Value& delta) {
    accumulator += delta;
  }
};

/// Byte-string keys and values of any length (Sec. 2.1), in VarRecord's
/// layout. Read, Upsert and Delete only: an RMW's new value has no size
/// before it is computed, so Rmw and ExecuteBatch do not compile for this
/// store, and it has no read cache. An upsert goes in place when
/// the record is mutable and the new value fits its capacity (the first
/// value's size). Keys and values are views of the caller's bytes; a
/// pending read keeps a copy of its key.
struct ByteStringFunctions {
  using Layout = VarLayout;
  using Key = std::string_view;
  using Value = std::string_view;
  struct Input {};
  using Output = std::string;

  static void SingleReader(const Key&, const Input&, const VarRecord& rec,
                           Output& out) {
    out.assign(rec.value());
  }
  /// Record-level concurrency between same-key writers and readers is the
  /// application's contract (Appendix E): a racing read may see a torn
  /// value.
  static void ConcurrentReader(const Key&, const Input&,
                               const VarRecord& rec, Output& out) {
    out.assign(rec.value());
  }
  static void SingleWriter(const Key&, const Value& desired, VarRecord& dst) {
    dst.WriteValue(desired);
  }
  static void ConcurrentWriter(const Key&, const Value& desired,
                               VarRecord& dst) {
    dst.WriteValue(desired);
  }
};

}  // namespace faster

#endif  // FASTER_CORE_FUNCTIONS_H_
