#ifndef FASTER_OBS_STORE_VIEW_H_
#define FASTER_OBS_STORE_VIEW_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "core/hybrid_log.h"
#include "obs/stats.h"

/// The store's counters, and the read-only StoreView that stats,
/// Prometheus, trace and /debug output render from, so the op engine
/// (core/faster.h) formats nothing (DESIGN.md §7, §12).

namespace faster {

class HashIndex;
class LightEpoch;

namespace obs {

/// Every event the store counts, each in exactly one counter of the
/// issuing thread's CounterBlock. Ops are counted once, by the outcome of
/// their first attempt: the region that served a read (Sec. 6.1), the
/// strategy an update took (Table 2), or the storage read it went pending
/// on; what a pending op does as it resumes is counted by the pending-
/// machinery entries. Entries before kReadFuzzy are always on (GetStats()
/// sums them); the rest count in -DFASTER_STATS=ON builds only.
enum class StoreCounter : uint8_t {
  // Reads. kReadMutable is at or above the read-only offset; default
  // builds skip the load that tells fuzzy from mutable and count
  // kReadFuzzy's reads there. kReadMiss: no entry, a tombstone, a stale
  // entry or a false tag. kReadMerged: CRDT deltas merged in memory.
  kReadMutable, kReadReadOnly, kReadStable, kReadRc, kReadMiss, kReadMerged,
  kUpsertInPlace, kUpsertAppend,
  // RMWs. kRmwFuzzyDeferred is GetStats().fuzzy_rmws.
  kRmwInPlace, kRmwCopy, kRmwInitial, kRmwDelta, kRmwFuzzyDeferred,
  kRmwStable,
  kDeleteInPlace, kDeleteAppend, kDeleteMiss,
  // Pending machinery (Sec. 5.3): device reads (chain hops too), pending
  // ops finished, records resumed RMWs appended, and the level of storage
  // reads in flight.
  kIosIssued, kCompleted, kRmwPendingAppend, kPendingIos,
  // Stats-only. kTagFalsePositives is a subset of kReadMiss;
  // kPendingRetries is the level of fuzzy RMWs on the retry list.
  kReadFuzzy, kTagFalsePositives, kRcInserts, kRcSecondChance, kRcEvictions,
  kCheckpoints, kPendingRetries,
  kCount
};
inline constexpr size_t kAlwaysOnCounters =
    static_cast<size_t>(StoreCounter::kReadFuzzy);

/// Registry name per StoreCounter, in enum order: the metric inventory.
inline constexpr const char* kStoreCounterNames[] = {
    "store.read_mutable",   "store.read_readonly",      "store.read_stable",
    "store.read_rc",        "store.read_miss",          "store.read_merged",
    "store.upsert_inplace", "store.upsert_append",      "store.rmw_inplace",
    "store.rmw_copy",       "store.rmw_initial",        "store.rmw_delta",
    "store.rmw_fuzzy_deferred", "store.rmw_stable",     "store.delete_inplace",
    "store.delete_append",  "store.delete_miss",        "store.ios_issued",
    "store.completed_pending", "store.rmw_pending_append", "store.pending_ios",
    "store.read_fuzzy",     "store.tag_false_positives", "store.rc_inserts",
    "store.rc_second_chance", "store.rc_evictions",     "store.checkpoints",
    "store.pending_retries"};
static_assert(std::size(kStoreCounterNames) ==
              static_cast<size_t>(StoreCounter::kCount));

/// Levels (in flight, up and down on the owner thread) register as gauges.
inline constexpr bool IsLevel(StoreCounter c) {
  return c == StoreCounter::kPendingIos || c == StoreCounter::kPendingRetries;
}

/// One thread's counters. Only the owning thread writes them: an
/// increment is a relaxed load+store (same code as a bare uint64_t), and
/// atomic only so a concurrent reader sums race-free. Stats-only entries
/// have no slot in default builds, and adding to them compiles to nothing.
class CounterBlock {
 public:
  static constexpr size_t kSlots =
      kStatsEnabled ? static_cast<size_t>(StoreCounter::kCount)
                    : kAlwaysOnCounters;

  [[gnu::always_inline]] void Add(StoreCounter c, uint64_t n = 1) {
    size_t i = static_cast<size_t>(c);
    if (i >= kSlots) return;
    v_[i].store(v_[i].load(std::memory_order_relaxed) + n,
                std::memory_order_relaxed);
  }
  /// Levels only: the owner's own decrement (wraps; sums stay exact).
  [[gnu::always_inline]] void Sub(StoreCounter c) { Add(c, ~uint64_t{0}); }
  uint64_t Get(StoreCounter c) const {
    size_t i = static_cast<size_t>(c);
    return i < kSlots ? v_[i].load(std::memory_order_relaxed) : 0;
  }
  const std::atomic<uint64_t>* slot(size_t i) const { return &v_[i]; }

 private:
  // order: relaxed load+store by the owner thread, relaxed load in
  // readers — per-thread counters; no data is published through them.
  std::atomic<uint64_t> v_[kSlots] = {};
};

/// Every thread's CounterBlock: thread i's sits `stride` bytes after
/// thread 0's (the store's ThreadState array).
struct CounterTable {
  const CounterBlock* first = nullptr;
  size_t stride = 0;
  uint32_t threads = 0;

  SlotSum slots(StoreCounter c) const {
    size_t i = static_cast<size_t>(c);
    if (i >= CounterBlock::kSlots) return {};
    return {first->slot(i), stride, threads};
  }
  uint64_t Sum(StoreCounter c) const { return slots(c).Sum(); }
};

/// FasterKv::Stats: op totals across all threads, each a sum of
/// StoreCounter entries.
struct StoreStats {
  uint64_t reads = 0, upserts = 0, rmws = 0, deletes = 0;
  uint64_t fuzzy_rmws = 0;       // RMWs deferred in the fuzzy region
  uint64_t pending_ios = 0;      // storage reads issued
  uint64_t completed_pending = 0;
  uint64_t appended_records = 0;
  uint64_t read_cache_hits = 0;  // reads served by the read cache
};
StoreStats Totals(const CounterTable& t);

/// The store's latency and size distributions (stats builds only).
enum class StoreHistogram : uint8_t {
  kPendingIoNs, kCheckpointIndexNs, kCheckpointFlushNs, kBatchSizes, kCount
};
inline constexpr const char* kStoreHistogramNames[] = {
    "store.pending_io_ns",  // issue -> done, incl. chain hops
    "store.checkpoint_index_ns", "store.checkpoint_flush_ns",
    "store.batch_sizes",  // ops per executed chunk
};
static_assert(std::size(kStoreHistogramNames) ==
              static_cast<size_t>(StoreHistogram::kCount));

/// What exposition reads of a store (FasterKv::view()). Rendering never
/// changes the store; the pointers are non-const only because sampling
/// the index takes epoch protection.
struct StoreView {
  const void* owner = nullptr;  // the store: keys its flight attachment
  CounterTable counters;
  const StatHistogram* histograms = nullptr;  // StoreHistogram::kCount
  LightEpoch* epoch = nullptr;
  HashIndex* index = nullptr;
  HybridLog* hlog = nullptr;
  HybridLog* rc_log = nullptr;  // null without a read cache
};

/// Registers every metric of the store and its components: the counter
/// table from kStoreCounterNames, the histograms, the GetStats() totals as
/// precomputed scalars (store.reads etc.), then index.*, hlog.*, epoch.*,
/// device.* and rc_log.*.
void CollectStats(const StoreView& v, Registry& reg);

/// JSON dump of every metric. A default build has the always-on store
/// counters and plain values; no compiled-out metric appears.
std::string DumpStats(const StoreView& v);

/// Prometheus text exposition 0.0.4 of the same metrics. The /metrics
/// handler.
std::string DumpPrometheus(const StoreView& v);

/// Writes recorded spans as Chrome trace-event JSON (Perfetto;
/// tools/trace2perfetto.py); empty but valid without stats.
void DumpTrace(const StoreView& v, std::ostream& os);

/// /debug/index: bucket-occupancy and hash-chain-length histograms from a
/// bounded sample of the active table. Runs under epoch protection;
/// chains are walked only through log frames pinned by that protection
/// (clamped at the head observed after protecting — frame recycling is
/// epoch-deferred, so those frames stay intact until this thread
/// refreshes; GetEvicted reads them without the current-head assert,
/// which may legitimately advance mid-walk). Reports {"resizing":true}
/// without sampling while a grow is in flight.
std::string DebugIndexJson(const StoreView& v, uint64_t max_buckets = 4096);

/// /debug/log: hybrid-log region addresses, page occupancy, and flush
/// backlog. The snapshot's markers are loaded smallest-first, so
/// begin <= head <= read_only <= tail holds within the reply even while
/// the log advances underneath (see HybridLog::SnapshotRegions).
std::string DebugLogJson(const StoreView& v);

/// The /debug renderers' JSON idiom: JsonField appends `"key":value,` and
/// JsonClose swaps the trailing comma for the closing text.
void JsonField(std::string* out, const char* key, uint64_t v);
std::string& JsonClose(std::string* out, const char* close);

/// The epoch table as /debug/epochs and INFO's # Epoch section report it.
/// Relaxed per-slot reads — a monitoring snapshot needs no ordering.
struct EpochsSnapshot {
  struct ThreadEpoch {
    uint32_t tid;
    uint64_t local_epoch;
    const char* wait_site;  // the wait it spins in (core/wait.h), or null
  };
  uint64_t current = 0;
  uint64_t safe = 0;
  uint32_t outstanding_actions = 0;
  std::vector<ThreadEpoch> threads;  // protected threads only
};
EpochsSnapshot SnapshotEpochs(const StoreView& v);

/// /debug/epochs: SnapshotEpochs as JSON.
std::string DebugEpochsJson(const StoreView& v);

/// The store's registration with the crash flight recorder: destroying it
/// detaches, so it must go before the store.
struct FlightDetach {
  void operator()(const void* owner) const;
};
using FlightAttachment = std::unique_ptr<const void, FlightDetach>;

/// Registers the store's epoch table and metrics (and, once per process,
/// the global span and slow-op rings) with the crash flight recorder
/// (obs/flight_recorder.h) and arms it. Counters are read live at dump
/// time; the GetStats() totals are snapshot at attach time.
FlightAttachment AttachFlightRecorder(const StoreView& v);

}  // namespace obs
}  // namespace faster

#endif  // FASTER_OBS_STORE_VIEW_H_
