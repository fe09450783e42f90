#ifndef FASTER_CORE_HASH_INDEX_H_
#define FASTER_CORE_HASH_INDEX_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/annotations.h"
#include "core/epoch.h"
#include "core/epoch_check.h"
#include "core/hash_bucket.h"
#include "core/key_hash.h"
#include "core/memory_region.h"
#include "core/status.h"
#include "obs/stats.h"

namespace faster {

/// The FASTER hash index (Sec. 3): a concurrent, latch-free, resizable
/// array of cache-line-sized hash buckets. The index stores no keys — only
/// 8-byte entries carrying a 15-bit tag and a 48-bit record address — so it
/// stays small enough to remain entirely in memory.
///
/// Invariant (Sec. 3.2): each (bucket, tag) pair has at most one
/// non-tentative entry. Inserts maintain this with the latch-free
/// two-phase algorithm using the tentative bit.
///
/// Resizing (Appendix B): the index can be grown (doubled) on-line. During
/// a grow, operations cooperate through a three-phase state machine
/// (stable → prepare-to-resize → resizing) coordinated by the epoch
/// framework, with a per-chunk pin array guarding migration. Every index
/// operation must therefore be bracketed by an `OpScope`, which resolves
/// the correct table version and holds the chunk pin for the duration of
/// the operation (find through CAS).
class HashIndex {
 public:
  /// Result of locating an entry: the atomic slot (for later CAS) and the
  /// entry value observed. FindSlot may instead return a free slot for a
  /// key with no entry: `head` is then the chain TryPublish rescans, and
  /// `entry` the entry to be, with the key's tag and no address.
  struct FindResult {
    Atomic<uint64_t>* slot = nullptr;
    HashBucketEntry entry;
    HashBucket* head = nullptr;  // null unless `slot` is a free slot
  };

  /// RAII bracket around one index operation. Resolves which table version
  /// the operation runs against and, during a resize, pins the bucket's
  /// chunk (prepare phase) or helps migrate it (resizing phase).
  class OpScope {
   public:
    [[gnu::always_inline]] OpScope(HashIndex& index, KeyHash hash)
        FASTER_REQUIRES_EPOCH()
        : OpScope{index, hash, obs::kStatsEnabled ? Thread::Id() : 0} {}
    /// `slot`: the calling thread's, for the scans' statistics. Inline for
    /// the stable phase; a resize in flight takes Resize().
    [[gnu::always_inline]] OpScope(HashIndex& index, KeyHash hash,
                                   obs::StatSlot slot)
        FASTER_REQUIRES_EPOCH()
        : index_{index}, pinned_chunk_{-1}, slot_{slot} {
      // Every index operation walks bucket chains whose memory is
      // reclaimed epoch-deferred (Grow retires tables and their overflow
      // segments).
      FASTER_EPOCH_VERIFY(
          index.epoch_->IsProtected(),
          "index operation (OpScope) without epoch protection");
      if constexpr (kEpochCheckEnabled) ++index.epoch_->HeldOpScopes();
      ResizeInfo info = index.resize_info();
      if (info.phase != Phase::kStable) {
        Resize(hash);
        return;
      }
      table_ = index.tables_[info.version].load(std::memory_order_acquire);
      table_size_ =
          index.table_size_[info.version].load(std::memory_order_acquire);
    }
    /// Out of line: a call costs an op fewer bytes than the unpin check
    /// inlined at each of its exits.
    ~OpScope();
    OpScope(const OpScope&) = delete;
    OpScope& operator=(const OpScope&) = delete;

   private:
    friend class HashIndex;
    /// Resolves the table during a resize: pins the chunk (prepare phase)
    /// or helps migrate it (resizing phase).
    void Resize(KeyHash hash);

    HashIndex& index_;
    HashBucket* table_;
    uint64_t table_size_;
    int64_t pinned_chunk_;  // -1 if not pinned
    [[no_unique_address]] obs::StatSlot slot_;
  };

  /// Creates an index with `table_size` buckets (rounded up to a power of
  /// two, minimum 64). `epoch` must outlive the index. `tag_bits` (1..15)
  /// controls how many tag bits entries carry — Sec. 7.2.2 measures the
  /// robustness of FASTER to smaller tags (larger address sizes). The
  /// table is reserved, not touched: buckets become resident as they are
  /// used. Throws std::bad_alloc if the table cannot be mapped.
  HashIndex(uint64_t table_size, LightEpoch* epoch, uint32_t tag_bits = 15);

  HashIndex(const HashIndex&) = delete;
  HashIndex& operator=(const HashIndex&) = delete;

  /// Finds the non-tentative entry matching `hash`'s tag, if any.
  /// Returns false if no such entry exists.
  bool FindEntry(const OpScope& scope, KeyHash hash, FindResult* out) const
      FASTER_REQUIRES_EPOCH();

  /// Prefetches `hash`'s bucket cache line (batched pipeline stage 1).
  /// No-op while a resize is in flight (the batch falls back to single-op
  /// execution then anyway, and the bucket location is version-dependent).
  void PrefetchBucket(KeyHash hash) const FASTER_REQUIRES_EPOCH() {
    ResizeInfo info = resize_info();
    if (info.phase != Phase::kStable) return;
    const HashBucket* table =
        tables_[info.version].load(std::memory_order_acquire);
    uint64_t size = table_size_[info.version].load(std::memory_order_acquire);
    __builtin_prefetch(&table[hash.Bucket(size)], /*rw=*/0, /*locality=*/3);
  }

  /// Batched FindEntry for the stable (non-resizing) phase: resolves all
  /// `n` hashes against one table-version snapshot, without per-op
  /// OpScope/pin overhead, so stage 3 can reuse the FindResults instead of
  /// re-probing the (now warm) buckets. `skip[i]` (optional) marks ops the
  /// caller will route to the single-op path regardless; they are not
  /// probed. `slot` is the calling thread's. Returns false — with no
  /// probing done — if a resize is in flight.
  ///
  /// Safety: this elides the OpScope chunk pin. The caller must be
  /// epoch-protected and must discard every result if it refreshes its
  /// epoch afterwards (LightEpoch::BatchScope). Under that contract the
  /// snapshot stays valid: migration out of the observed table only starts
  /// in the resizing phase, which is entered by an epoch trigger action
  /// that cannot run until this thread refreshes; table retirement is
  /// likewise epoch-deferred.
  bool TryFindEntriesStable(const KeyHash* hashes, const bool* skip, size_t n,
                            FindResult* out, bool* found,
                            obs::StatSlot slot) const FASTER_REQUIRES_EPOCH();

  /// One scan for a write: finds the entry matching `hash`'s tag or, if
  /// there is none, the chain's first free slot (see FindResult), linking
  /// an overflow bucket to a full chain. Returns kOutOfMemory, with
  /// nothing changed, if the chain is full and no memory can be mapped
  /// for an overflow bucket.
  Status FindSlot(const OpScope& scope, KeyHash hash, FindResult* out)
      FASTER_REQUIRES_EPOCH();

  /// Points `result`'s entry at `address`, which the caller has filled in
  /// already. An entry found: one CAS from the observed value; on failure
  /// `result->entry` reloads the current value. A free slot (Sec. 3.2's
  /// two-phase insert, record first): claims it with a tentative entry
  /// that already carries `address`, rescans the chain for the tag, and
  /// either backs off (clears the slot, returns false) or finalizes the
  /// entry with a release store — the point that publishes the record.
  /// After a failed claim or a back-off the caller must FindSlot again.
  /// On success `result` holds the published entry.
  bool TryPublish(FindResult* result, Address address)
      FASTER_REQUIRES_EPOCH();

  /// Aliases of FindSlot and TryPublish, kept for benchsuite/layers.cc.
  Status FindOrCreateEntry(const OpScope& scope, KeyHash hash,
                           FindResult* out) FASTER_REQUIRES_EPOCH() {
    return FindSlot(scope, hash, out);
  }
  bool TryUpdateEntry(FindResult* result, Address address)
      FASTER_REQUIRES_EPOCH() {
    return TryPublish(result, address);
  }

  /// CAS the slot in `result` from the observed entry to empty (0).
  bool TryDeleteEntry(FindResult* result) FASTER_REQUIRES_EPOCH();

  /// Number of buckets in the active version.
  uint64_t size() const {
    return table_size_[resize_info().version].load(std::memory_order_acquire);
  }

  /// The active table's mapping, for residency checks. Not safe against a
  /// concurrent Grow.
  const MemoryRegion& table_region() const {
    return table_regions_[resize_info().version];
  }
  /// The newest table's MemoryRegion::granule(), for INFO; safe against a
  /// concurrent Grow.
  uint64_t table_granule() const {
    return table_granule_.load(std::memory_order_relaxed);
  }

  /// Counts non-empty entries (O(table); for tests and stats).
  uint64_t NumUsedEntries() const;

  /// Calls `fn(HashBucketEntry)` for every non-tentative, non-empty entry
  /// in the active table. Not safe against concurrent resizing; intended
  /// for teardown, stats, and single-threaded maintenance.
  template <class Fn>
  void ForEachEntry(Fn&& fn) const {
    ResizeInfo info = resize_info();
    const HashBucket* table = tables_[info.version].load(std::memory_order_acquire);
    uint64_t size = table_size_[info.version].load(std::memory_order_acquire);
    for (uint64_t i = 0; i < size; ++i) {
      for (const HashBucket* b = &table[i]; b != nullptr;
           b = reinterpret_cast<const HashBucket*>(
               b->overflow.load(std::memory_order_acquire))) {
        for (uint32_t j = 0; j < HashBucket::kNumEntries; ++j) {
          HashBucketEntry e{b->entries[j].load(std::memory_order_acquire)};
          if (!e.IsUnused() && !e.tentative()) fn(e);
        }
      }
    }
  }

  /// Inspector sampling for /debug/index: visits the first
  /// `min(size, max_buckets)` buckets of the active table, calling
  /// `bucket_fn(live_entries, overflow_buckets)` once per bucket and
  /// `entry_fn(HashBucketEntry)` for each live (non-tentative) entry seen.
  /// Returns false without probing if a resize is in flight. The caller
  /// must be epoch-protected so entry addresses remain dereferenceable.
  template <class BucketFn, class EntryFn>
  bool SampleBuckets(uint64_t max_buckets, BucketFn&& bucket_fn,
                     EntryFn&& entry_fn) const FASTER_REQUIRES_EPOCH() {
    ResizeInfo info = resize_info();
    if (info.phase != Phase::kStable) return false;
    const HashBucket* table =
        tables_[info.version].load(std::memory_order_acquire);
    uint64_t size = table_size_[info.version].load(std::memory_order_acquire);
    uint64_t n = size < max_buckets ? size : max_buckets;
    for (uint64_t i = 0; i < n; ++i) {
      uint32_t live = 0;
      uint32_t overflow = 0;
      for (const HashBucket* b = &table[i]; b != nullptr;
           b = reinterpret_cast<const HashBucket*>(
               b->overflow.load(std::memory_order_acquire))) {
        if (b != &table[i]) ++overflow;
        for (uint32_t j = 0; j < HashBucket::kNumEntries; ++j) {
          HashBucketEntry e{b->entries[j].load(std::memory_order_acquire)};
          if (e.IsUnused() || e.tentative()) continue;
          ++live;
          entry_fn(e);
        }
      }
      bucket_fn(live, overflow);
    }
    return true;
  }

  /// Configured tag width in bits (1..15).
  uint32_t tag_bits() const {
    return static_cast<uint32_t>(__builtin_popcount(tag_mask_));
  }

  /// Maps a migrated entry's value to the value both child buckets get.
  using EntryRebase = std::function<uint64_t(uint64_t)>;

  /// Doubles the index on-line (Appendix B). Must be called from an
  /// epoch-protected thread; concurrent operations cooperate. Blocks until
  /// the grow completes. Returns kOutOfMemory, with the index untouched,
  /// if the doubled table, or overflow buckets for the chains it migrates,
  /// cannot be mapped. `rebase`, if provided, runs on every migrated
  /// entry, from whichever thread migrates its chunk (the read cache uses
  /// it to swing cached addresses back to the primary log, Appendix D).
  Status Grow(const EntryRebase& rebase = {}) FASTER_REQUIRES_EPOCH();

  /// True while a grow is in progress.
  bool IsResizing() const {
    return resize_info().phase != Phase::kStable;
  }

  /// Serializes the active table (fuzzy: entries are read atomically but
  /// the snapshot is not point-in-time consistent; see Sec. 6.5). Must not
  /// be called during a grow. `transform`, if provided, maps each slot to
  /// the entry value to persist (the read cache uses it to swing cached
  /// addresses back to the primary log, Appendix D); the default drops
  /// tentative entries and persists the rest verbatim.
  using EntryTransform =
      std::function<uint64_t(const Atomic<uint64_t>&)>;
  Status WriteCheckpoint(int fd, const EntryTransform& transform = {}) const
      FASTER_REQUIRES_EPOCH();
  /// Restores a table written by WriteCheckpoint. The index must be
  /// otherwise idle. Returns kCorruption, with the index untouched, if the
  /// header's counts overrun the file, and kOutOfMemory if the table or
  /// its overflow buckets cannot be mapped.
  Status ReadCheckpoint(int fd);

  /// Observability (compiled out unless FASTER_STATS): probe depth, CAS
  /// contention, tentative-insert conflicts, and grow progress.
  struct ObsStats {
    // Entries examined per chain scan; its rows 1 and 2 hold FindEntry's
    // tag matches and misses, so a find records once.
    obs::StatHistogram probe_len;
    obs::StatCounter cas_retries;       // failed TryUpdate/TryDelete CASes
    obs::StatCounter tentative_conflicts;  // two-phase insert back-offs
    obs::StatCounter overflow_allocs;   // overflow buckets allocated
    obs::StatCounter grow_chunks_migrated;
  };
  const ObsStats& obs_stats() const { return obs_stats_; }

  /// Registers this index's metrics under `prefix.` names.
  void RegisterStats(obs::Registry& registry,
                     const std::string& prefix) const {
    registry.Add(prefix + ".finds", obs::Registry::Kind::kCounter,
                 obs_stats_.probe_len.row_slots(1, 2));
    registry.Add(prefix + ".find_hits", obs::Registry::Kind::kCounter,
                 obs_stats_.probe_len.row_slots(1, 1));
    registry.Add(prefix + ".cas_retries", &obs_stats_.cas_retries);
    registry.Add(prefix + ".tentative_conflicts",
                 &obs_stats_.tentative_conflicts);
    registry.Add(prefix + ".overflow_allocs", &obs_stats_.overflow_allocs);
    registry.Add(prefix + ".grow_chunks_migrated",
                 &obs_stats_.grow_chunks_migrated);
    registry.Add(prefix + ".probe_len", &obs_stats_.probe_len);
  }

 private:
  enum class Phase : uint8_t { kStable = 0, kPrepare = 1, kResizing = 2 };

  /// Packed resize state: active version (0/1) and phase.
  struct ResizeInfo {
    Phase phase;
    uint8_t version;
  };

  static constexpr uint64_t kChunkSize = 4096;  // buckets per resize chunk

  ResizeInfo resize_info() const {
    uint16_t v = resize_state_.load(std::memory_order_acquire);
    return ResizeInfo{static_cast<Phase>(v & 0xff),
                      static_cast<uint8_t>(v >> 8)};
  }
  void set_resize_state(Phase phase, uint8_t version) {
    resize_state_.store(static_cast<uint16_t>(phase) |
                            (static_cast<uint16_t>(version) << 8),
                        std::memory_order_release);
  }

  /// Maps a bucket array the kernel zero-fills on first touch, followed by
  /// a guard page. Empty on failure.
  static MemoryRegion AllocateTable(uint64_t num_buckets);

  /// A table version's overflow buckets (DESIGN.md §5): one index space,
  /// claimed in order, over segments mapped as claims reach them. Segment
  /// s holds `first << s` buckets, so the segments mapped stay within
  /// twice the claims plus the first; there are enough segments that only
  /// the kernel refusing a mapping limits the claims.
  static constexpr uint32_t kSegments = 36;
  struct OverflowArena {
    // Buckets claimed, in order. A claim counts only once its segment is
    // mapped, so every claimed bucket is.
    // order: release CAS (relaxed on failure) after the claim's segment
    // is installed, and an acquire load in WriteCheckpoint, so every
    // segment below the count is visible there; relaxed seed loads and
    // stores: a claim hands out a distinct zeroed bucket, the chain CAS
    // that links it publishes it, and the resize_state_ announcement
    // publishes a version's reset.
    Atomic<uint64_t> claimed{0};
    uint64_t first = 0;  // buckets in segment 0; set with the version
    // Installed once each: null until mapped.
    // order: acq_rel CAS installs a mapped segment (acquire on failure
    // adopts the winner's); acquire loads; relaxed stores reset a
    // retired version's, published like `claimed`'s.
    Atomic<HashBucket*> segments[kSegments] = {};
    // The mappings behind `segments`, each moved in by the thread whose
    // CAS installed it; read only by Grow's retirement, ReadCheckpoint
    // and the destructor, once no claim can race.
    std::array<MemoryRegion, kSegments> regions;
  };

  /// Empties `arena` (whose version no thread uses) for a table of
  /// `table_size` buckets.
  static void ResetArena(OverflowArena& arena, uint64_t table_size);
  /// Overflow bucket `i` of `arena`: its segment is mapped if `map`, and
  /// nullptr if that fails or (without `map`) it is not mapped.
  static HashBucket* ArenaBucket(OverflowArena& arena, uint64_t i, bool map);
  /// The index of `bucket` in `arena`, or UINT64_MAX if it is not there.
  static uint64_t ArenaIndex(const OverflowArena& arena,
                             const HashBucket* bucket);
  /// Maps every segment holding one of the first `n` buckets; false if
  /// one cannot be mapped.
  static bool MapArena(OverflowArena& arena, uint64_t n);
  /// Claims `version`'s next overflow bucket (zeroed) with a CAS;
  /// nullptr, claiming nothing, if its segment cannot be mapped.
  HashBucket* ClaimOverflowBucket(uint8_t version);

  /// Walks a bucket chain looking for `tag`; returns slot/value of the
  /// non-tentative match. On a miss with `kFree`, sets `*free_slot` to the
  /// first free slot seen (nullptr if none). Records the scan under `slot`
  /// (RecordScan). Inlined into each scan.
  template <bool kFree>
  [[gnu::always_inline]] bool ScanChain(HashBucket* bucket, uint16_t tag,
                                        FindResult* match,
                                        Atomic<uint64_t>** free_slot,
                                        obs::StatSlot slot) const;
  /// Records a scan's probe length, a find's (not a write's slot scan's)
  /// in probe_len's row of hits or of misses.
  template <bool kFree>
  void RecordScan(uint64_t probes, obs::StatSlot slot, bool hit) const {
    obs_stats_.probe_len.Record(probes, slot, kFree ? 0 : hit ? 1 : 2);
  }

  /// FindSlot's path for a chain with no free slot: links an overflow
  /// bucket to it and scans again.
  [[gnu::noinline]] Status FindSlotInFullChain(const OpScope& scope,
                                               KeyHash hash, FindResult* out);
  /// TryPublish into a free slot: the two-phase insert.
  bool TryInsert(FindResult* result, Address address);

  /// Migrates chunk `chunk` from the old to the new table. Caller must
  /// have claimed the chunk via the pin array.
  void MigrateChunk(uint64_t chunk);
  /// Ensures `chunk` has been migrated, helping if necessary.
  void EnsureMigrated(uint64_t chunk);

  /// Masks KeyHash tags down to the configured width.
  uint16_t EffectiveTag(KeyHash hash) const {
    return static_cast<uint16_t>(hash.Tag() & tag_mask_);
  }

  LightEpoch* epoch_;
  uint16_t tag_mask_ = 0x7fff;
  // Atomic because OpScope resolves the active table concurrently with
  // Grow() swapping and retiring versions; the epoch protocol keeps the
  // *contents* alive, but the pointer/size reads themselves are racy.
  // order: release stores in Grow/checkpoint-restore (install or retire a
  // version, publishing the array it points to); acquire loads in
  // OpScope/MigrateChunk/stats.
  Atomic<HashBucket*> tables_[2] = {nullptr, nullptr};
  // The mappings behind tables_; a retired one is unmapped, with its
  // version's overflow segments, by an epoch trigger in Grow. Changed only
  // under grow_mutex_, in the constructor, or by ReadCheckpoint on an idle
  // index.
  MemoryRegion table_regions_[2];
  OverflowArena overflow_[2];
  // order: release store paired with the tables_ install; acquire loads.
  Atomic<uint64_t> table_size_[2] = {0, 0};
  // table_regions_[v].granule() of the last installed table, readable
  // without racing Grow's moves of table_regions_.
  // order: relaxed stores and loads: a statistic, it publishes nothing.
  Atomic<uint64_t> table_granule_{0};
  // order: release store on every phase transition (writes to the new
  // version's arrays happen-before the announcement); acquire load in
  // resize_info().
  Atomic<uint16_t> resize_state_;

  // Resize machinery (Appendix B).
  // order: acq_rel CAS pins a chunk (or claims it for migration with
  // kChunkLocked) and acq_rel fetch_sub unpins; acquire loads observe the
  // pin state before deciding.
  std::vector<std::unique_ptr<Atomic<int64_t>>> pins_;
  // order: release store after MigrateChunk's writes land (publishes the
  // migrated buckets); acquire loads in EnsureMigrated's wait loops.
  std::vector<std::unique_ptr<Atomic<bool>>> migrated_;
  // order: acq_rel fetch_add per migrated chunk; acquire load in Grow's
  // completion wait; release store resets the counter before the resize
  // phase is announced.
  Atomic<uint64_t> num_migrated_chunks_{0};
  uint64_t num_chunks_ = 0;
  // Grow's `rebase` while it runs; published to migrating threads by the
  // resize_state_ announcement, like num_chunks_.
  const EntryRebase* rebase_ = nullptr;
  Mutex grow_mutex_;  // serializes concurrent Grow() callers only

  // Mutable: FindEntry is const but still counts probes.
  mutable ObsStats obs_stats_;
};

}  // namespace faster

#endif  // FASTER_CORE_HASH_INDEX_H_
