#include "core/hash_index.h"

#include <sys/stat.h>
#include <unistd.h>

#include <bit>
#include <cassert>
#include <memory>
#include <new>

#include "core/wait.h"

namespace faster {

namespace {

uint64_t RoundUpPowerOf2(uint64_t v) {
  // No power of two above 2^63 fits in 64 bits: such a table is as
  // unmappable as any other too large one.
  if (v > (uint64_t{1} << 63)) throw std::bad_alloc();
  return std::bit_ceil(v);
}

constexpr int64_t kChunkLocked = INT64_MIN;

bool WriteAll(int fd, const void* data, size_t len) {
  const char* p = static_cast<const char*>(data);
  while (len > 0) {
    ssize_t n = ::write(fd, p, len);
    if (n <= 0) return false;
    p += n;
    len -= static_cast<size_t>(n);
  }
  return true;
}

bool ReadAll(int fd, void* data, size_t len) {
  char* p = static_cast<char*>(data);
  while (len > 0) {
    ssize_t n = ::read(fd, p, len);
    if (n <= 0) return false;
    p += n;
    len -= static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

HashIndex::HashIndex(uint64_t table_size, LightEpoch* epoch,
                     uint32_t tag_bits)
    : epoch_{epoch} {
  if (tag_bits < 1) tag_bits = 1;
  if (tag_bits > 15) tag_bits = 15;
  tag_mask_ = static_cast<uint16_t>((1u << tag_bits) - 1);
#ifdef FASTER_MODEL
  // A 4-bucket floor under the model checker: every bucket the checkpoint
  // or chain scans touch is a model step, and 64 buckets would spend the
  // whole step budget on empty table tail
  // (tests/model/model_checkpoint_test.cc).
  table_size = RoundUpPowerOf2(std::max<uint64_t>(table_size, 4));
#else
  table_size = RoundUpPowerOf2(std::max<uint64_t>(table_size, 64));
#endif
  table_regions_[0] = AllocateTable(table_size);
  if (!table_regions_[0]) throw std::bad_alloc();
  tables_[0].store(table_regions_[0].As<HashBucket>(),
                   std::memory_order_release);
  table_size_[0].store(table_size, std::memory_order_release);
  table_granule_.store(table_regions_[0].granule(), std::memory_order_relaxed);
  ResetArena(overflow_[0], table_size);
  set_resize_state(Phase::kStable, 0);
}

MemoryRegion HashIndex::AllocateTable(uint64_t num_buckets) {
  if (num_buckets > UINT64_MAX / sizeof(HashBucket)) return {};
  return MemoryRegion::Reserve(num_buckets * sizeof(HashBucket));
}

void HashIndex::ResetArena(OverflowArena& arena, uint64_t table_size) {
  arena.regions = {};
  for (Atomic<HashBucket*>& segment : arena.segments) {
    segment.store(nullptr, std::memory_order_relaxed);
  }
  arena.claimed.store(0, std::memory_order_relaxed);
  // At least one OS page, and about one bucket in 64 of the table's: the
  // paper's sizing overflows about one in 1000.
  arena.first = std::max<uint64_t>(table_size / 64, 64);
}

HashBucket* HashIndex::ArenaBucket(OverflowArena& arena, uint64_t i,
                                   bool map) {
  const uint64_t first = arena.first;
  // Segment s starts at index first * (2^s - 1).
  const auto s = static_cast<uint32_t>(std::bit_width(i / first + 1) - 1);
  // No segment spans more than a 47-bit address space.
  if (s >= kSegments || first > (uint64_t{1} << 41 >> s)) return nullptr;
  HashBucket* segment = arena.segments[s].load(std::memory_order_acquire);
  if (segment == nullptr && map) {
    MemoryRegion region = MemoryRegion::Reserve(
        (first << s) * sizeof(HashBucket), 1, MemoryRegion::Use::kArena);
    if (!region) return nullptr;
    // A loser takes the winner's segment and unmaps its own.
    if (arena.segments[s].compare_exchange_strong(
            segment, region.As<HashBucket>(), std::memory_order_acq_rel,
            std::memory_order_acquire)) {
      segment = region.As<HashBucket>();
      arena.regions[s] = std::move(region);
    }
  }
  if (segment == nullptr) return nullptr;
  return segment + (i - first * ((uint64_t{1} << s) - 1));
}

uint64_t HashIndex::ArenaIndex(const OverflowArena& arena,
                               const HashBucket* bucket) {
  const auto at = reinterpret_cast<uintptr_t>(bucket);
  uint64_t start = 0;
  for (uint32_t s = 0; s < kSegments; ++s) {
    const uint64_t size = arena.first << s;
    const auto segment = reinterpret_cast<uintptr_t>(
        arena.segments[s].load(std::memory_order_acquire));
    if (segment != 0 && at >= segment &&
        at < segment + size * sizeof(HashBucket)) {
      return start + (at - segment) / sizeof(HashBucket);
    }
    start += size;
  }
  return UINT64_MAX;
}

bool HashIndex::MapArena(OverflowArena& arena, uint64_t n) {
  // Segments start at 0, first, 3 first, 7 first, ...
  for (uint64_t i = 0; i < n; i = 2 * i + arena.first) {
    if (ArenaBucket(arena, i, /*map=*/true) == nullptr) return false;
  }
  return true;
}

HashBucket* HashIndex::ClaimOverflowBucket(uint8_t version) {
  OverflowArena& arena = overflow_[version];
  uint64_t i = arena.claimed.load(std::memory_order_relaxed);
  HashBucket* bucket;
  do {
    bucket = ArenaBucket(arena, i, /*map=*/true);
    if (bucket == nullptr) return nullptr;
  } while (!arena.claimed.compare_exchange_weak(i, i + 1,
                                                std::memory_order_release,
                                                std::memory_order_relaxed));
  obs_stats_.overflow_allocs.Inc();
  return bucket;
}

// ---------------------------------------------------------------------------
// OpScope: version resolution + chunk pinning (Appendix B).
// ---------------------------------------------------------------------------

void HashIndex::OpScope::Resize(KeyHash hash) {
  HashIndex& index = index_;
  for (;;) {
    ResizeInfo info = index.resize_info();
    uint8_t v = info.version;
    if (info.phase == Phase::kStable) {
      // The grow finished since the caller looked.
      table_ = index.tables_[v].load(std::memory_order_acquire);
      table_size_ = index.table_size_[v].load(std::memory_order_acquire);
      return;
    }
    uint64_t old_size = index.table_size_[v].load(std::memory_order_acquire);
    uint64_t chunk = hash.Bucket(old_size) / kChunkSize;
    if (info.phase == Phase::kPrepare) {
      // Resizing announced but not started: operate on the old table while
      // holding the chunk pin, so migration of this chunk waits for us.
      int64_t pin = index.pins_[chunk]->load(std::memory_order_acquire);
      if (pin >= 0 &&
          index.pins_[chunk]->compare_exchange_weak(
              pin, pin + 1, std::memory_order_acq_rel)) {
        table_ = index.tables_[v].load(std::memory_order_acquire);
        table_size_ = old_size;
        pinned_chunk_ = static_cast<int64_t>(chunk);
        return;
      }
      if (pin < 0) {
        // Migration already claimed this chunk: the resizing phase has
        // actually begun; fall through to the resizing path.
        index.EnsureMigrated(chunk);
        table_ = index.tables_[1 - v].load(std::memory_order_acquire);
        table_size_ = index.table_size_[1 - v].load(std::memory_order_acquire);
        return;
      }
      continue;  // CAS raced; retry.
    }
    // Phase::kResizing: make sure our chunk is on the new table, then use it.
    index.EnsureMigrated(chunk);
    table_ = index.tables_[1 - v].load(std::memory_order_acquire);
    table_size_ = index.table_size_[1 - v].load(std::memory_order_acquire);
    return;
  }
}

HashIndex::OpScope::~OpScope() {
  if (pinned_chunk_ >= 0) {
    index_.pins_[static_cast<uint64_t>(pinned_chunk_)]->fetch_sub(
        1, std::memory_order_acq_rel);
  }
  if constexpr (kEpochCheckEnabled) --index_.epoch_->HeldOpScopes();
}

// ---------------------------------------------------------------------------
// Lookup / insert (Sec. 3.2).
// ---------------------------------------------------------------------------

template <bool kFree, bool kRecord>
inline bool HashIndex::ScanChain(HashBucket* bucket, uint16_t tag,
                                 FindResult* match,
                                 Atomic<uint64_t>** free_slot,
                                 uint32_t slot) const {
  // One masked compare per entry finds a non-tentative entry with the tag.
  constexpr uint64_t kMask =
      HashBucketEntry::kTentativeBit | HashBucketEntry::kTagMask;
  const uint64_t want = uint64_t{tag} << HashBucketEntry::kTagShift;
  Atomic<uint64_t>* free = nullptr;
  uint64_t probes = 0;
  do {
#pragma GCC unroll 7
    for (uint32_t i = 0; i < HashBucket::kNumEntries; ++i) {
      uint64_t control = bucket->entries[i].load(std::memory_order_acquire);
      ++probes;
      // Only tag 0 also matches an empty slot.
      if ((control & kMask) == want && control != 0) [[unlikely]] {
        match->slot = &bucket->entries[i];
        match->entry = HashBucketEntry{control};
        match->head = nullptr;
        if constexpr (kRecord) RecordScan<kFree>(probes, slot, true);
        return true;
      }
      if (kFree && control == 0 && free == nullptr) free = &bucket->entries[i];
    }
    bucket = reinterpret_cast<HashBucket*>(
        bucket->overflow.load(std::memory_order_acquire));
  } while (bucket != nullptr);
  if constexpr (kFree) *free_slot = free;
  if constexpr (kRecord) RecordScan<kFree>(probes, slot, false);
  return false;
}

template <bool kRecord>
inline bool HashIndex::Find(const OpScope& scope, KeyHash hash,
                            FindResult* out, uint32_t slot) const {
  FASTER_EPOCH_VERIFY(epoch_->IsProtected(),
                      "bucket read (FindEntry) without epoch protection");
  HashBucket* bucket = &scope.table_[hash.Bucket(scope.table_size_)];
  return ScanChain<false, kRecord>(bucket, EffectiveTag(hash), out, nullptr,
                                   slot);
}

bool HashIndex::FindEntry(const OpScope& scope, KeyHash hash,
                          FindResult* out) const {
  return Find<false>(scope, hash, out, 0);
}

bool HashIndex::FindEntry(const OpScope& scope, KeyHash hash,
                          FindResult* out, uint32_t slot) const {
  return Find<true>(scope, hash, out, slot);
}

template <bool kRecord>
inline Status HashIndex::FindFree(const OpScope& scope, KeyHash hash,
                                  FindResult* out, uint32_t slot) {
  FASTER_EPOCH_VERIFY(epoch_->IsProtected(),
                      "bucket read (FindSlot) without epoch protection");
  uint16_t tag = EffectiveTag(hash);
  HashBucket* head = &scope.table_[hash.Bucket(scope.table_size_)];
  Atomic<uint64_t>* free_slot;
  if (ScanChain<true, kRecord>(head, tag, out, &free_slot, slot)) {
    return Status::kOk;
  }
  if (free_slot == nullptr) [[unlikely]] {
    return FindSlotInFullChain(scope, hash, out);
  }
  out->slot = free_slot;
  out->entry = HashBucketEntry{Address::Invalid(), tag, false};
  out->head = head;
  return Status::kOk;
}

Status HashIndex::FindSlot(const OpScope& scope, KeyHash hash,
                           FindResult* out) {
  return FindFree<false>(scope, hash, out, 0);
}

Status HashIndex::FindSlot(const OpScope& scope, KeyHash hash,
                           FindResult* out, uint32_t slot) {
  return FindFree<true>(scope, hash, out, slot);
}

Status HashIndex::FindSlotInFullChain(const OpScope& scope, KeyHash hash,
                                      FindResult* out) {
  // Link an overflow bucket, whose slots are free, to the chain's end. A
  // scope pinned in the prepare phase inserts into the old table's
  // version.
  ResizeInfo info = resize_info();
  uint8_t version = (scope.pinned_chunk_ >= 0 || info.phase == Phase::kStable)
                        ? info.version
                        : static_cast<uint8_t>(1 - info.version);
  HashBucket* fresh = ClaimOverflowBucket(version);
  if (fresh == nullptr) return Status::kOutOfMemory;
  HashBucket* last = &scope.table_[hash.Bucket(scope.table_size_)];
  for (;;) {
    uint64_t next = last->overflow.load(std::memory_order_acquire);
    if (next != 0) {
      last = reinterpret_cast<HashBucket*>(next);
      continue;
    }
    uint64_t expected = 0;
    if (last->overflow.compare_exchange_strong(
            expected, reinterpret_cast<uint64_t>(fresh),
            std::memory_order_acq_rel)) {
      break;
    }
    // Someone else extended the chain first; we follow theirs and link
    // our bucket after it.
  }
  return FindSlot(scope, hash, out);
}

bool HashIndex::TryPublish(FindResult* result, Address address) {
  FASTER_EPOCH_VERIFY(epoch_->IsProtected(),
                      "index CAS (TryPublish) without epoch protection");
  if (result->head != nullptr) return TryInsert(result, address);
  HashBucketEntry desired{address, result->entry.tag(), /*tentative=*/false};
  uint64_t expected = result->entry.control();
  if (result->slot->compare_exchange_strong(expected, desired.control(),
                                            std::memory_order_acq_rel)) {
    result->entry = desired;
    return true;
  }
  result->entry = HashBucketEntry{expected};
  obs_stats_.cas_retries.Inc();
  return false;
}

bool HashIndex::TryInsert(FindResult* result, Address address) {
  // Phase 1: claim the free slot with a tentative entry, invisible to
  // readers and updaters. It already carries the record's address.
  Atomic<uint64_t>* slot = result->slot;
  HashBucketEntry tentative{address, result->entry.tag(), /*tentative=*/true};
  uint64_t expected = 0;
  if (!slot->compare_exchange_strong(expected, tentative.control(),
                                     std::memory_order_acq_rel)) {
    return false;  // Slot taken; the caller rescans.
  }
  // Phase 2: rescan the chain for any other entry (tentative or not) with
  // the same tag. If there is one, back off (Fig. 3b).
  const uint64_t want = tentative.control() & HashBucketEntry::kTagMask;
  HashBucket* b = result->head;
  do {
#pragma GCC unroll 7
    for (uint32_t i = 0; i < HashBucket::kNumEntries; ++i) {
      uint64_t control = b->entries[i].load(std::memory_order_acquire);
      if ((control & HashBucketEntry::kTagMask) != want) [[likely]] continue;
      // The claim itself has the tag, and for tag 0 so does an empty slot.
      // The empty asm keeps the compiler from folding these rare tests
      // into the one above, so each entry costs one test.
      asm("" ::: "memory");
      if (&b->entries[i] != slot && control != 0) {
        obs_stats_.tentative_conflicts.Inc();
        slot->store(0, std::memory_order_release);
        thread_yield();
        return false;
      }
    }
    b = reinterpret_cast<HashBucket*>(
        b->overflow.load(std::memory_order_acquire));
  } while (b != nullptr);
  // Finalize: clear the tentative bit. We own the slot, so a release store
  // suffices; it is the store that publishes the record to readers.
  HashBucketEntry final_entry = tentative.Finalized();
  slot->store(final_entry.control(), std::memory_order_release);
  result->entry = final_entry;
  result->head = nullptr;
  return true;
}

bool HashIndex::TryDeleteEntry(FindResult* result) {
  FASTER_EPOCH_VERIFY(epoch_->IsProtected(),
                      "index CAS (TryDeleteEntry) without epoch protection");
  uint64_t expected = result->entry.control();
  if (result->slot->compare_exchange_strong(expected, 0,
                                            std::memory_order_acq_rel)) {
    result->entry = HashBucketEntry{};
    return true;
  }
  result->entry = HashBucketEntry{expected};
  obs_stats_.cas_retries.Inc();
  return false;
}

uint64_t HashIndex::NumUsedEntries() const {
  ResizeInfo info = resize_info();
  const HashBucket* table = tables_[info.version].load(std::memory_order_acquire);
  uint64_t size = table_size_[info.version].load(std::memory_order_acquire);
  uint64_t used = 0;
  for (uint64_t i = 0; i < size; ++i) {
    const HashBucket* b = &table[i];
    while (b != nullptr) {
      for (uint32_t j = 0; j < HashBucket::kNumEntries; ++j) {
        HashBucketEntry e{b->entries[j].load(std::memory_order_acquire)};
        if (!e.IsUnused() && !e.tentative()) ++used;
      }
      b = reinterpret_cast<const HashBucket*>(
          b->overflow.load(std::memory_order_acquire));
    }
  }
  return used;
}

// ---------------------------------------------------------------------------
// On-line grow (Appendix B).
// ---------------------------------------------------------------------------

Status HashIndex::Grow(const EntryRebase& rebase) {
  std::lock_guard<Mutex> grow_lock{grow_mutex_};
  assert(epoch_->IsProtected());

  ResizeInfo info = resize_info();
  uint8_t old_version = info.version;
  uint8_t new_version = 1 - old_version;
  uint64_t old_size = table_size_[old_version].load(std::memory_order_acquire);
  uint64_t new_size = old_size * 2;

  // Map the new table before touching any state, so a failure leaves the
  // index exactly as it was.
  MemoryRegion fresh = AllocateTable(new_size);
  if (!fresh) return Status::kOutOfMemory;
  // Migration copies each chain into two no longer than it: map segments
  // for twice the old claims now. (Prepare-phase inserts can claim more;
  // MigrateChunk maps for those.)
  OverflowArena& arena = overflow_[new_version];
  ResetArena(arena, new_size);
  if (!MapArena(arena, 2 * overflow_[old_version].claimed.load(
                               std::memory_order_relaxed))) {
    ResetArena(arena, new_size);
    return Status::kOutOfMemory;
  }

  tables_[new_version].store(fresh.As<HashBucket>(),
                             std::memory_order_release);
  table_granule_.store(fresh.granule(), std::memory_order_relaxed);
  table_regions_[new_version] = std::move(fresh);
  table_size_[new_version].store(new_size, std::memory_order_release);

  num_chunks_ = (old_size + kChunkSize - 1) / kChunkSize;
  pins_.clear();
  migrated_.clear();
  for (uint64_t i = 0; i < num_chunks_; ++i) {
    pins_.push_back(std::make_unique<Atomic<int64_t>>(0));
    migrated_.push_back(std::make_unique<Atomic<bool>>(false));
  }
  rebase_ = rebase ? &rebase : nullptr;

  // Announce the resize; once every thread has observed the prepare phase
  // (i.e., the bumped epoch is safe), flip to the resizing phase.
  set_resize_state(Phase::kPrepare, old_version);
  epoch_->BumpAndWait(
      [this, old_version] { set_resize_state(Phase::kResizing, old_version); });

  // Migrate chunks co-operatively; concurrent operations grab chunks too.
  // Each call returns once its chunk is migrated, by whichever thread.
  for (uint64_t c = 0; c < num_chunks_; ++c) {
    EnsureMigrated(c);
  }
  rebase_ = nullptr;

  // Publish the new version and return to normal operation.
  set_resize_state(Phase::kStable, new_version);

  // Reclaim the old table once no thread can still be reading it.
  // table_size_[old_version] is deliberately left in place: an OpScope that
  // observed kResizing just before the flip to kStable still computes its
  // chunk from the old size, and zeroing it here would send that thread out
  // of bounds of pins_/migrated_. The epoch wait below guarantees all such
  // threads are gone before the next Grow() reuses this slot.
  tables_[old_version].store(nullptr, std::memory_order_release);
  // std::function needs a copyable action: share the retired mappings.
  auto old_maps = std::make_shared<
      std::pair<MemoryRegion, std::array<MemoryRegion, kSegments>>>(
      std::move(table_regions_[old_version]),
      std::move(overflow_[old_version].regions));
  epoch_->BumpAndWait([old_maps] { *old_maps = {}; });
  return Status::kOk;
}

void HashIndex::EnsureMigrated(uint64_t chunk) {
  // Wait until the chunk is migrated, or until prepare-phase operations'
  // pins drain and this thread locks it to migrate it itself.
  bool locked = false;
  WaitUntil<kWaitChunkMigrated>([&] {
    if (migrated_[chunk]->load(std::memory_order_acquire)) return true;
    int64_t expected = 0;
    locked = pins_[chunk]->compare_exchange_strong(expected, kChunkLocked,
                                                   std::memory_order_acq_rel);
    return locked;
  }, epoch_);
  if (!locked) return;
  MigrateChunk(chunk);
  obs_stats_.grow_chunks_migrated.Inc();
  migrated_[chunk]->store(true, std::memory_order_release);
}

void HashIndex::MigrateChunk(uint64_t chunk) {
  ResizeInfo info = resize_info();
  uint8_t old_version = info.version;
  uint8_t new_version = 1 - old_version;
  HashBucket* old_table = tables_[old_version].load(std::memory_order_acquire);
  HashBucket* new_table = tables_[new_version].load(std::memory_order_acquire);
  uint64_t old_size = table_size_[old_version].load(std::memory_order_acquire);

  uint64_t begin = chunk * kChunkSize;
  uint64_t end = std::min(begin + kChunkSize, old_size);
  for (uint64_t i = begin; i < end; ++i) {
    for (HashBucket* b = &old_table[i]; b != nullptr;
         b = reinterpret_cast<HashBucket*>(
             b->overflow.load(std::memory_order_acquire))) {
      for (uint32_t j = 0; j < HashBucket::kNumEntries; ++j) {
        HashBucketEntry entry{b->entries[j].load(std::memory_order_acquire)};
        if (entry.IsUnused() || entry.tentative() ||
            !entry.address().IsValid()) {
          continue;
        }
        // A record chain for (i, tag) may contain keys destined for either
        // child bucket i or i + old_size (the chain is keyed by the old,
        // shorter hash prefix). Point both children at the chain; lookups
        // compare full keys, so correctness is preserved (Appendix B: "a
        // split causes both new hash entries to point to the same record").
        uint64_t value =
            rebase_ != nullptr ? (*rebase_)(entry.control()) : entry.control();
        for (uint64_t child : {i, i + old_size}) {
          HashBucket* dst = &new_table[child];
          Atomic<uint64_t>* free_slot = nullptr;
          for (HashBucket* d = dst;;) {
            for (uint32_t k = 0;
                 k < HashBucket::kNumEntries && free_slot == nullptr; ++k) {
              if (d->entries[k].load(std::memory_order_relaxed) == 0) {
                free_slot = &d->entries[k];
              }
            }
            if (free_slot != nullptr) break;
            uint64_t next = d->overflow.load(std::memory_order_relaxed);
            if (next == 0) {
              // Only a failed mapping of a segment Grow did not map up
              // front fails this claim: then throw, like operator new.
              HashBucket* fresh = ClaimOverflowBucket(new_version);
              if (fresh == nullptr) throw std::bad_alloc();
              d->overflow.store(reinterpret_cast<uint64_t>(fresh),
                                std::memory_order_release);
              d = fresh;
            } else {
              d = reinterpret_cast<HashBucket*>(next);
            }
          }
          // Only this thread writes this chunk's child buckets, so plain
          // stores are fine; release so post-migration readers see them.
          free_slot->store(value, std::memory_order_release);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Checkpointing (fuzzy; Sec. 6.5).
// ---------------------------------------------------------------------------

namespace {
struct IndexCheckpointHeader {
  uint64_t magic;
  uint64_t table_size;
  uint64_t num_overflow;
};
constexpr uint64_t kIndexMagic = 0xFA57E21D4E5ULL;

/// Bucket images are staged through one buffer of this many: a table costs
/// one write(2) or read(2) per 64 KB, not one per bucket.
constexpr uint64_t kStageBuckets = 1024;
using BucketImage = uint64_t[8];
}  // namespace

Status HashIndex::WriteCheckpoint(int fd,
                                  const EntryTransform& transform) const {
  // The fuzzy checkpoint reads the live table; protection keeps a
  // concurrent Grow from retiring it mid-scan.
  assert(epoch_->IsProtected());
  ResizeInfo info = resize_info();
  if (info.phase != Phase::kStable) return Status::kInvalid;
  const HashBucket* table = tables_[info.version].load(std::memory_order_acquire);
  uint64_t size = table_size_[info.version].load(std::memory_order_acquire);
  // const_cast: ArenaBucket without `map` only loads.
  auto& arena = const_cast<OverflowArena&>(overflow_[info.version]);
  uint64_t used = arena.claimed.load(std::memory_order_acquire);

  IndexCheckpointHeader header{kIndexMagic, size, used};
  if (!WriteAll(fd, &header, sizeof(header))) return Status::kIoError;

  std::unique_ptr<BucketImage[]> stage{new BucketImage[kStageBuckets]};
  uint64_t staged = 0;
  for (uint64_t i = 0; i < size + used; ++i) {
    const HashBucket* b =
        i < size ? &table[i] : ArenaBucket(arena, i - size, /*map=*/false);
    // A claim is published only after its segment is installed, so this
    // fails only if those orders are broken (the model checker's mutation
    // sweep breaks them): an error it can report, not a fault.
    if (b == nullptr) return Status::kInvalid;
    uint64_t* image = stage[staged];
    for (uint32_t j = 0; j < HashBucket::kNumEntries; ++j) {
      if (transform) {
        image[j] = transform(b->entries[j]);
        continue;
      }
      HashBucketEntry e{b->entries[j].load(std::memory_order_acquire)};
      // Drop tentative entries: they represent in-flight inserts whose
      // records are not yet linked.
      image[j] = e.tentative() ? 0 : e.control();
    }
    // An overflow pointer becomes its arena index + 1 (0 = none). A bucket
    // claimed after `used` was read cuts the persisted chain: its entries
    // point at records appended after t1, which the recovery log scan
    // over [t1, t2) re-inserts (Sec. 6.5's fuzzy checkpoint contract).
    const auto* next = reinterpret_cast<const HashBucket*>(
        b->overflow.load(std::memory_order_acquire));
    uint64_t ord = next == nullptr ? UINT64_MAX : ArenaIndex(arena, next);
    image[7] = ord < used ? ord + 1 : 0;
    if (++staged == kStageBuckets || i + 1 == size + used) {
      if (!WriteAll(fd, stage.get(), staged * sizeof(BucketImage))) {
        return Status::kIoError;
      }
      staged = 0;
    }
  }
  return Status::kOk;
}

Status HashIndex::ReadCheckpoint(int fd) {
  IndexCheckpointHeader header;
  if (!ReadAll(fd, &header, sizeof(header))) return Status::kIoError;
  if (header.magic != kIndexMagic) return Status::kCorruption;
  uint64_t size = header.table_size;
  uint64_t num_overflow = header.num_overflow;
  if (size == 0 || (size & (size - 1)) != 0) return Status::kCorruption;
  // Refuse counts the file cannot hold, before mapping anything.
  struct stat st;
  off_t at = ::lseek(fd, 0, SEEK_CUR);
  if (at < 0 || ::fstat(fd, &st) != 0) return Status::kIoError;
  uint64_t left = std::max<off_t>(st.st_size - at, 0) / sizeof(BucketImage);
  if (size > left || num_overflow > left - size) return Status::kCorruption;

  ResizeInfo info = resize_info();
  if (info.phase != Phase::kStable) return Status::kInvalid;
  uint8_t v = info.version;
  MemoryRegion fresh = AllocateTable(size);
  if (!fresh) return Status::kOutOfMemory;
  HashBucket* table = fresh.As<HashBucket>();
  tables_[v].store(table, std::memory_order_release);
  table_size_[v].store(size, std::memory_order_release);
  table_granule_.store(fresh.granule(), std::memory_order_relaxed);
  table_regions_[v] = std::move(fresh);
  OverflowArena& arena = overflow_[v];
  ResetArena(arena, size);
  if (!MapArena(arena, num_overflow)) return Status::kOutOfMemory;
  arena.claimed.store(num_overflow, std::memory_order_relaxed);

  std::unique_ptr<BucketImage[]> stage{new BucketImage[kStageBuckets]};
  for (uint64_t i = 0; i < size + num_overflow; ++i) {
    uint64_t staged = i % kStageBuckets;
    if (staged == 0 &&
        !ReadAll(fd, stage.get(),
                 std::min(kStageBuckets, size + num_overflow - i) *
                     sizeof(BucketImage))) {
      return Status::kCorruption;
    }
    const uint64_t* image = stage[staged];
    HashBucket* b =
        i < size ? &table[i] : ArenaBucket(arena, i - size, /*map=*/false);
    for (uint32_t j = 0; j < HashBucket::kNumEntries; ++j) {
      b->entries[j].store(image[j], std::memory_order_relaxed);
    }
    uint64_t ord = image[7];
    if (ord > num_overflow) return Status::kCorruption;
    b->overflow.store(
        ord == 0 ? 0
                 : reinterpret_cast<uint64_t>(
                       ArenaBucket(arena, ord - 1, /*map=*/false)),
        std::memory_order_relaxed);
  }
  return Status::kOk;
}

}  // namespace faster
