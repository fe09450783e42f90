#ifndef FASTER_OBS_STATS_H_
#define FASTER_OBS_STATS_H_

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <new>
#include <string>
#include <type_traits>
#include <vector>

#include "core/memory_region.h"
#include "core/thread.h"

/// Per-thread sharded statistics (the observability layer).
///
/// The design mirrors the epoch table (epoch.h): every metric keeps one
/// cache-line-aligned shard per `Thread::id()` slot, so a hot-path update
/// is a relaxed load/store (or relaxed RMW for gauges) on a line no other
/// thread writes — zero sharing, no contention, TSan-clean. Aggregation
/// (`Sum()`, `Percentile()`) sums the shards with relaxed loads; a
/// concurrent reader sees a slightly stale but never torn view, and after
/// all writers have joined the totals are exact. Slot reuse is safe: the
/// `Thread` registry releases a slot with a release store and re-acquires
/// it with an acquire CAS, so a new tenant's first increment happens-after
/// the previous tenant's last one.
///
/// Residency: each metric reserves its shard array as zero pages
/// (MemoryRegion's kArena), so constructing one writes nothing and a
/// shard's page becomes resident only when its thread first records. What
/// an op records beyond its exact counts (store_view.h's CounterBlock) is
/// decided by its clock (clock.h): a quiet op records into no histogram,
/// so a process that arms no sink touches no histogram page.
///
/// Compile-out: instrumentation sites use the `Stat*` aliases below, which
/// resolve to the real types only when built with -DFASTER_STATS=ON (the
/// `FASTER_STATS` preprocessor define). Otherwise they resolve to empty
/// no-op types whose inline members compile to nothing, so the default
/// build carries no counters, no clock reads, and no extra atomic loads
/// (sites that need auxiliary loads guard them with
/// `if constexpr (obs::kStatsEnabled)`). Only what an op pays for compiles
/// out: the Registry is live in every build and skips no-op metrics, so a
/// default build exports its always-on counters and no false zeros.

#if defined(FASTER_STATS) && FASTER_STATS
#define FASTER_STATS_ENABLED 1
#else
#define FASTER_STATS_ENABLED 0
#endif

namespace faster {
namespace obs {

inline constexpr bool kStatsEnabled = (FASTER_STATS_ENABLED != 0);

/// A thread's slot (Thread::Id()) as an op carries it to its records;
/// without stats, an empty token.
#if FASTER_STATS_ENABLED
using StatSlot = uint32_t;
#else
struct StatSlot {
  constexpr StatSlot(uint32_t = 0) {}
};
#endif

/// Monotonic wall time in nanoseconds (scoped timers, I/O latency).
inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---------------------------------------------------------------------------
// Real metric types (always compiled; selected by the Stat* aliases when
// FASTER_STATS is on, and usable directly by tests in any build).
// ---------------------------------------------------------------------------

/// A metric kept as one 64-bit slot per thread, thread i's `stride` bytes
/// after thread 0's, summed over threads: how the registry and the flight
/// recorder read Counter, Gauge and the store's counter blocks
/// (store_view.h). Relaxed loads only, hence async-signal-safe.
struct SlotSum {
  const std::atomic<uint64_t>* first = nullptr;
  size_t stride = 0;
  uint32_t count = 0;
  uint32_t width = 1;  // consecutive slots summed per thread

  uint64_t Sum() const {
    uint64_t total = 0;
    const char* p = reinterpret_cast<const char*>(first);
    for (uint32_t i = 0; i < count; ++i, p += stride) {
      for (uint32_t w = 0; w < width; ++w) {
        total += reinterpret_cast<const std::atomic<uint64_t>*>(p)[w].load(
            std::memory_order_relaxed);
      }
    }
    return total;
  }
};

/// One shard per Thread::Id() slot, reserved as zero pages: a shard's
/// page becomes resident when a thread on it first writes. Throws
/// std::bad_alloc if the shards cannot be mapped.
template <class Shard>
class ShardArray {
 public:
  ShardArray()
      : region_{MemoryRegion::Reserve(sizeof(Shard) * Thread::kMaxThreads, 1,
                                      MemoryRegion::Use::kArena)} {
    static_assert(std::is_trivially_destructible_v<Shard>);
    if (!region_) throw std::bad_alloc{};
  }
  Shard& operator[](uint32_t slot) const {
    return region_.As<Shard>()[slot];
  }
  /// Bytes of the shards resident in memory (mincore): for tests.
  uint64_t ResidentBytes() const { return region_.ResidentBytes(0); }

 private:
  MemoryRegion region_;
};

/// One cache-line-aligned shard per Thread::Id() slot: the storage of
/// Counter and Gauge.
class Sharded {
 public:
  Sharded() = default;
  Sharded(const Sharded&) = delete;
  Sharded& operator=(const Sharded&) = delete;

  SlotSum slots() const {
    return {&shards_[0].value, sizeof(Shard), Thread::kMaxThreads};
  }

 protected:
  std::atomic<uint64_t>& mine() { return shards_[Thread::Id()].value; }

 private:
  struct alignas(64) Shard {
    // order: relaxed (see Counter and Gauge) — statistics; no data is
    // published through a shard. Zero as mapped.
    std::atomic<uint64_t> value;
  };
  ShardArray<Shard> shards_;
};

/// Monotonic event counter. Increments are owner-shard-only relaxed
/// load+store (never an RMW): only the calling thread writes its slot's
/// shard, so plain stores cannot lose updates.
class Counter : public Sharded {
 public:
  void Add(uint64_t n) {
    std::atomic<uint64_t>& c = mine();
    c.store(c.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
  }
  void Inc() { Add(1); }
  uint64_t Sum() const { return slots().Sum(); }
};

/// Up/down instantaneous value (queue depths, in-flight operations).
/// Updates are relaxed fetch_add on the *calling* thread's shard, so an
/// increment on one thread may be balanced by a decrement on another
/// (e.g. I/O submitted by a worker, completed by another thread's poll)
/// while the cross-shard sum stays exact: shards wrap modulo 2^64, and the
/// sum is read back as signed.
class Gauge : public Sharded {
 public:
  void Add(int64_t d) {
    mine().fetch_add(static_cast<uint64_t>(d), std::memory_order_relaxed);
  }
  void Inc() { Add(1); }
  void Dec() { Add(-1); }
  int64_t Value() const { return static_cast<int64_t>(slots().Sum()); }
};

/// Fixed-bucket log2 histogram: bucket 0 holds the value 0, bucket b
/// (1 <= b <= 62) holds [2^(b-1), 2^b), bucket 63 holds everything above.
/// Recording is an owner-shard-only relaxed load+store, like Counter; a
/// value below kExact costs one, in its row of an exact table that readers
/// fold into the buckets and sum. Rows above 0 also count larger values,
/// so each is a counter too (row_slots): HashIndex's finds and hits.
class Histogram {
 public:
  static constexpr uint32_t kNumBuckets = 64;
  static constexpr uint32_t kExact = 8;
  static constexpr uint32_t kRows = 3;

  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  static constexpr uint32_t BucketFor(uint64_t v) {
    if (v == 0) return 0;
    uint32_t width = static_cast<uint32_t>(std::bit_width(v));
    return width > kNumBuckets - 1 ? kNumBuckets - 1 : width;
  }

  /// Largest value a bucket can hold (UINT64_MAX for the overflow bucket).
  static constexpr uint64_t BucketUpperBound(uint32_t b) {
    if (b == 0) return 0;
    if (b >= kNumBuckets - 1) return UINT64_MAX;
    return (uint64_t{1} << b) - 1;
  }

  void Record(uint64_t v, uint32_t slot = Thread::Id(), uint32_t row = 0) {
    Shard& shard = shards_[slot];
    if (v < kExact) {
      Bump(shard.rows[row][v], 1);
      return;
    }
    if (row != 0) Bump(shard.rows[row][kExact], 1);
    Bump(shard.buckets[BucketFor(v)], 1);
    Bump(shard.sum, v);
  }

  /// The records of rows [first, first + n) of every shard, as a counter.
  SlotSum row_slots(uint32_t first, uint32_t n) const {
    return {&shards_[0].rows[first][0], sizeof(Shard), Thread::kMaxThreads,
            n * (kExact + 1)};
  }

  /// Sum of every recorded value (exact, unlike the log2 buckets) — the
  /// Prometheus `_sum` series.
  uint64_t ValueSum() const {
    uint64_t total = 0;
    for (uint32_t i = 0; i < Thread::kMaxThreads; ++i) {
      const Shard& shard = shards_[i];
      total += shard.sum.load(std::memory_order_relaxed);
      for (uint32_t v = 1; v < kExact; ++v) {
        for (const auto& row : shard.rows) {
          total += v * row[v].load(std::memory_order_relaxed);
        }
      }
    }
    return total;
  }

  /// Sums per-thread shards into `out[kNumBuckets]`.
  void SnapshotBuckets(uint64_t* out) const {
    for (uint32_t b = 0; b < kNumBuckets; ++b) out[b] = 0;
    for (uint32_t i = 0; i < Thread::kMaxThreads; ++i) {
      const Shard& shard = shards_[i];
      for (uint32_t b = 0; b < kNumBuckets; ++b) {
        out[b] += shard.buckets[b].load(std::memory_order_relaxed);
      }
      for (uint32_t v = 0; v < kExact; ++v) {
        for (const auto& row : shard.rows) {
          out[BucketFor(v)] += row[v].load(std::memory_order_relaxed);
        }
      }
    }
  }

  uint64_t Count() const {
    uint64_t buckets[kNumBuckets];
    SnapshotBuckets(buckets);
    uint64_t total = 0;
    for (uint32_t b = 0; b < kNumBuckets; ++b) total += buckets[b];
    return total;
  }

  /// Upper bound of the bucket holding the q-quantile (0 < q <= 1) by
  /// nearest rank, the ceil(q * n)-th smallest record; 0 when the
  /// histogram is empty. A log2 histogram bounds the true quantile to
  /// within 2x, which is the resolution the paper's latency discussions
  /// need.
  uint64_t Percentile(double q) const {
    uint64_t buckets[kNumBuckets];
    SnapshotBuckets(buckets);
    uint64_t total = 0;
    for (uint32_t b = 0; b < kNumBuckets; ++b) total += buckets[b];
    if (total == 0) return 0;
    if (q < 0.0) q = 0.0;
    if (q > 1.0) q = 1.0;
    // Shaved by a relative 1e-12 first: q * n may round up past a whole
    // rank (0.7 * 10 is 7.000000000000001).
    auto target = static_cast<uint64_t>(
        std::ceil(q * static_cast<double>(total) * (1 - 1e-12)));
    if (target < 1) target = 1;
    if (target > total) target = total;
    uint64_t cumulative = 0;
    for (uint32_t b = 0; b < kNumBuckets; ++b) {
      cumulative += buckets[b];
      if (cumulative >= target) return BucketUpperBound(b);
    }
    return BucketUpperBound(kNumBuckets - 1);
  }

  /// Bytes of the shards resident in memory (mincore): for tests. Any
  /// read of the histogram maps its shards' pages.
  uint64_t ResidentBytes() const { return shards_.ResidentBytes(); }

 private:
  // Zero as mapped.
  struct alignas(64) Shard {
    // order: relaxed load+store by the owner thread, relaxed loads by
    // readers — statistics; no data is published through the histogram.
    std::atomic<uint64_t> buckets[kNumBuckets];
    // order: relaxed, as `buckets`.
    std::atomic<uint64_t> sum;
    // order: relaxed, as `buckets`. Per row: the records of each value
    // below kExact, then (rows above 0) of every larger value.
    std::atomic<uint64_t> rows[kRows][kExact + 1];
  };
  static void Bump(std::atomic<uint64_t>& c, uint64_t n) {
    c.store(c.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
  }
  ShardArray<Shard> shards_;
};

// ---------------------------------------------------------------------------
// No-op twins: identical API, empty bodies. Every member is inline and
// argument-free of side effects, so -O2 erases the call entirely and the
// enclosing object contributes an empty member.
// ---------------------------------------------------------------------------

class NoopCounter {
 public:
  void Add(uint64_t) {}
  void Inc() {}
  uint64_t Sum() const { return 0; }
};

class NoopGauge {
 public:
  void Add(int64_t) {}
  void Inc() {}
  void Dec() {}
  int64_t Value() const { return 0; }
};

class NoopHistogram {
 public:
  static constexpr uint32_t kNumBuckets = Histogram::kNumBuckets;
  void Record(uint64_t, StatSlot = {}, uint32_t = 0) {}
  SlotSum row_slots(uint32_t, uint32_t) const { return {}; }
  void SnapshotBuckets(uint64_t* out) const {
    for (uint32_t b = 0; b < kNumBuckets; ++b) out[b] = 0;
  }
  uint64_t Count() const { return 0; }
  uint64_t ValueSum() const { return 0; }
  uint64_t Percentile(double) const { return 0; }
  uint64_t ResidentBytes() const { return 0; }
};

/// Aggregates named metrics into JSON or Prometheus exposition.
/// Non-owning: the registry holds pointers and reads the live metrics at
/// Dump time, so it can be built on demand (DumpStats) over long-lived
/// component metrics.
class Registry {
 public:
  enum class Kind : uint8_t { kCounter, kGauge, kHistogram, kValue };

  void Add(std::string name, const Counter* c) {
    Add(std::move(name), Kind::kCounter, c->slots());
  }
  void Add(std::string name, const Gauge* g) {
    Add(std::move(name), Kind::kGauge, g->slots());
  }
  /// A per-thread counter (kCounter) or gauge (kGauge) kept outside an
  /// obs:: metric, e.g. a slot of the store's counter block. An empty
  /// SlotSum (a stats-only slot, compiled out) registers nothing.
  void Add(std::string name, Kind kind, SlotSum slots) {
    if (slots.first == nullptr) return;
    entries_.push_back({std::move(name), kind, slots, nullptr, 0});
  }
  void Add(std::string name, const Histogram* h) {
    entries_.push_back({std::move(name), Kind::kHistogram, {}, h, 0});
  }
  /// A compiled-out metric registers nothing: it is never exported as 0.
  void Add(const std::string&, const NoopCounter*) {}
  void Add(const std::string&, const NoopGauge*) {}
  void Add(const std::string&, const NoopHistogram*) {}
  /// A precomputed scalar (for values derived at collection time, e.g.
  /// the store's GetStats() totals).
  void AddValue(std::string name, uint64_t v) {
    entries_.push_back({std::move(name), Kind::kValue, {}, nullptr, v});
  }

  size_t size() const { return entries_.size(); }

  /// Visits every entry as fn(name, kind, slots, histogram, value): slots
  /// for kCounter/kGauge, histogram for kHistogram, value for kValue. The
  /// flight recorder uses this to copy metric sources into its
  /// pre-registered (signal-safe) slots.
  template <class Fn>
  void ForEach(Fn&& fn) const {
    for (const Entry& e : entries_) {
      fn(e.name, e.kind, e.slots, e.histogram, e.value);
    }
  }

  /// {"counters":{...},"gauges":{...},"histograms":{name:{"count":..,
  /// "p50":..,"p99":..,"p999":..,"buckets":[[upper,count],...]}}}
  /// Scalar AddValue entries are emitted alongside counters.
  std::string Json() const {
    std::vector<Entry> sorted = Sorted();
    std::string out = "{";
    for (Kind section : {Kind::kCounter, Kind::kGauge, Kind::kHistogram}) {
      out += section == Kind::kCounter ? "\"counters\":{"
             : section == Kind::kGauge ? "},\"gauges\":{"
                                       : "},\"histograms\":{";
      bool first = true;
      for (const Entry& e : sorted) {
        Kind k = e.kind == Kind::kValue ? Kind::kCounter : e.kind;
        if (k != section) continue;
        out += first ? "\"" : ",\"";
        first = false;
        out += e.name + "\":";
        if (k != Kind::kHistogram) {
          out += e.Scalar();
          continue;
        }
        const Histogram& h = *e.histogram;
        out += "{\"count\":" + std::to_string(h.Count());
        out += ",\"sum\":" + std::to_string(h.ValueSum());
        out += ",\"p50\":" + std::to_string(h.Percentile(0.50));
        out += ",\"p99\":" + std::to_string(h.Percentile(0.99));
        out += ",\"p999\":" + std::to_string(h.Percentile(0.999));
        out += ",\"buckets\":[";
        bool bfirst = true;
        e.ForEachBucket([&](uint64_t upper, uint64_t n) {
          out += (bfirst ? "[" : ",[") + std::to_string(upper) + ',' +
                 std::to_string(n) + ']';
          bfirst = false;
        });
        out += "]}";
      }
    }
    out += "}}";
    return out;
  }

  /// Prometheus text exposition format 0.0.4. Metric names are prefixed
  /// with `faster_` and sanitized ([^a-zA-Z0-9_] -> '_'); counters and
  /// precomputed scalars get the `_total` suffix, histograms emit
  /// cumulative `_bucket{le="..."}` series (raw log2 bounds, not just
  /// percentiles) plus `_sum` and `_count`.
  std::string Prometheus() const {
    std::string out;
    for (const Entry& e : Sorted()) {
      std::string name = PromName(e.name);
      if (e.kind == Kind::kGauge) {
        out += "# TYPE " + name + " gauge\n";
        out += name + ' ' + e.Scalar() + '\n';
      } else if (e.kind != Kind::kHistogram) {
        out += "# TYPE " + name + "_total counter\n";
        out += name + "_total " + e.Scalar() + '\n';
      } else {
        out += "# TYPE " + name + " histogram\n";
        // Empty buckets are skipped to keep scrapes small; the counts stay
        // cumulative over them.
        uint64_t cumulative = 0;
        e.ForEachBucket([&](uint64_t upper, uint64_t n) {
          cumulative += n;
          if (upper == UINT64_MAX) return;  // the +Inf bucket below
          out += name + "_bucket{le=\"" + std::to_string(upper) + "\"} " +
                 std::to_string(cumulative) + '\n';
        });
        out += name + "_bucket{le=\"+Inf\"} " + std::to_string(cumulative) +
               '\n';
        out += name + "_sum " + std::to_string(e.histogram->ValueSum()) +
               '\n';
        out += name + "_count " + std::to_string(cumulative) + '\n';
      }
    }
    if (out.empty()) out = "# (empty registry)\n";
    return out;
  }

 private:
  static std::string PromName(const std::string& name) {
    std::string out = "faster_";
    for (char c : name) {
      bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                (c >= '0' && c <= '9') || c == '_';
      out += ok ? c : '_';
    }
    return out;
  }

  struct Entry {
    std::string name;
    Kind kind;
    SlotSum slots;
    const Histogram* histogram;
    uint64_t value;

    /// A counter, gauge (signed) or precomputed value, as text.
    std::string Scalar() const {
      if (kind == Kind::kValue) return std::to_string(value);
      uint64_t sum = slots.Sum();
      return kind == Kind::kGauge
                 ? std::to_string(static_cast<int64_t>(sum))
                 : std::to_string(sum);
    }
    /// fn(upper bound, count) for each non-empty histogram bucket.
    template <class Fn>
    void ForEachBucket(Fn&& fn) const {
      uint64_t buckets[Histogram::kNumBuckets];
      histogram->SnapshotBuckets(buckets);
      for (uint32_t b = 0; b < Histogram::kNumBuckets; ++b) {
        if (buckets[b] != 0) fn(Histogram::BucketUpperBound(b), buckets[b]);
      }
    }
  };

  std::vector<Entry> Sorted() const {
    // Registries are small and built per dump.
    std::vector<Entry> sorted = entries_;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const Entry& a, const Entry& b) {
                       return a.name < b.name;
                     });
    return sorted;
  }

  std::vector<Entry> entries_;
};

/// Records the lifetime of a scope into a histogram, in nanoseconds.
/// With stats compiled out no clock is read.
template <class Hist>
class ScopedTimerT {
 public:
  explicit ScopedTimerT(Hist& h) : hist_{h} {
    if constexpr (kStatsEnabled || std::is_same_v<Hist, Histogram>) {
      start_ns_ = NowNs();
    }
  }
  ~ScopedTimerT() {
    if constexpr (kStatsEnabled || std::is_same_v<Hist, Histogram>) {
      hist_.Record(NowNs() - start_ns_);
    }
  }
  ScopedTimerT(const ScopedTimerT&) = delete;
  ScopedTimerT& operator=(const ScopedTimerT&) = delete;

 private:
  Hist& hist_;
  uint64_t start_ns_ = 0;
};

// ---------------------------------------------------------------------------
// Selected aliases: what instrumentation sites use.
// ---------------------------------------------------------------------------

#if FASTER_STATS_ENABLED
using StatCounter = Counter;
using StatGauge = Gauge;
using StatHistogram = Histogram;
#else
using StatCounter = NoopCounter;
using StatGauge = NoopGauge;
using StatHistogram = NoopHistogram;
#endif

using StatTimer = ScopedTimerT<StatHistogram>;

}  // namespace obs
}  // namespace faster

#endif  // FASTER_OBS_STATS_H_
