#include "core/hash_index.h"

#include <unistd.h>

#include <bit>
#include <cassert>
#include <map>
#include <memory>
#include <new>
#include <thread>

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
  set_resize_state(Phase::kStable, 0);
}

HashIndex::~HashIndex() {
  // The tables themselves are unmapped by their regions.
  for (int v = 0; v < 2; ++v) {
    for (HashBucket* b : overflow_pool_[v]) delete b;
  }
}

MemoryRegion HashIndex::AllocateTable(uint64_t num_buckets) {
  if (num_buckets > UINT64_MAX / sizeof(HashBucket)) return {};
  return MemoryRegion::Reserve(num_buckets * sizeof(HashBucket));
}

HashBucket* HashIndex::AllocateOverflowBucket(uint8_t version) {
  auto* bucket = new HashBucket{};
  obs_stats_.overflow_allocs.Inc();
  std::lock_guard<Mutex> lock{overflow_mutex_};
  overflow_pool_[version].push_back(bucket);
  return bucket;
}

// ---------------------------------------------------------------------------
// OpScope: version resolution + chunk pinning (Appendix B).
// ---------------------------------------------------------------------------

HashIndex::OpScope::OpScope(HashIndex& index, KeyHash hash)
    : index_{index}, pinned_chunk_{-1} {
  // Every index operation walks bucket chains whose memory is reclaimed
  // epoch-deferred (Grow retires tables, overflow pools are version-tied).
  FASTER_EPOCH_VERIFY(index.epoch_->IsProtected(),
                      "index operation (OpScope) without epoch protection");
  for (;;) {
    ResizeInfo info = index.resize_info();
    uint8_t v = info.version;
    if (info.phase == Phase::kStable) {
      // Common case: no resize in flight; operate on the active table.
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
}

// ---------------------------------------------------------------------------
// Lookup / insert (Sec. 3.2).
// ---------------------------------------------------------------------------

bool HashIndex::ScanChain(HashBucket* bucket, uint16_t tag, FindResult* match,
                          Atomic<uint64_t>** free_slot, uint8_t) {
  uint64_t probes = 0;
  while (bucket != nullptr) {
    for (uint32_t i = 0; i < HashBucket::kNumEntries; ++i) {
      HashBucketEntry entry{
          bucket->entries[i].load(std::memory_order_acquire)};
      ++probes;
      if (entry.IsUnused()) {
        if (free_slot != nullptr && *free_slot == nullptr) {
          *free_slot = &bucket->entries[i];
        }
        continue;
      }
      if (!entry.tentative() && entry.tag() == tag) {
        match->slot = &bucket->entries[i];
        match->entry = entry;
        obs_stats_.probe_len.Record(probes);
        return true;
      }
    }
    bucket = reinterpret_cast<HashBucket*>(
        bucket->overflow.load(std::memory_order_acquire));
  }
  obs_stats_.probe_len.Record(probes);
  return false;
}

bool HashIndex::FindEntry(const OpScope& scope, KeyHash hash,
                          FindResult* out) const {
  FASTER_EPOCH_VERIFY(epoch_->IsProtected(),
                      "bucket read (FindEntry) without epoch protection");
  uint16_t tag = EffectiveTag(hash);
  HashBucket* bucket = &scope.table_[hash.Bucket(scope.table_size_)];
  obs_stats_.finds.Inc();
  // const_cast: ScanChain only performs atomic loads here.
  bool hit =
      const_cast<HashIndex*>(this)->ScanChain(bucket, tag, out, nullptr, 0);
  if (hit) obs_stats_.find_hits.Inc();
  return hit;
}

bool HashIndex::TryFindEntriesStable(const KeyHash* hashes, const bool* skip,
                                     size_t n, FindResult* out,
                                     bool* found) const {
  // This path elides the OpScope pin entirely, so protection is the only
  // thing keeping the observed table alive (see the header contract).
  FASTER_EPOCH_VERIFY(epoch_->IsProtected(),
                      "TryFindEntriesStable without epoch protection");
  ResizeInfo info = resize_info();
  if (info.phase != Phase::kStable) {
    return false;
  }
  HashBucket* table = tables_[info.version].load(std::memory_order_acquire);
  uint64_t size = table_size_[info.version].load(std::memory_order_acquire);
  for (size_t i = 0; i < n; ++i) {
    if (skip != nullptr && skip[i]) {
      found[i] = false;
      continue;
    }
    uint16_t tag = EffectiveTag(hashes[i]);
    HashBucket* bucket = &table[hashes[i].Bucket(size)];
    obs_stats_.finds.Inc();
    // const_cast: ScanChain only performs atomic loads here.
    bool hit = const_cast<HashIndex*>(this)->ScanChain(bucket, tag, &out[i],
                                                       nullptr, 0);
    if (hit) obs_stats_.find_hits.Inc();
    found[i] = hit;
  }
  return true;
}

void HashIndex::FindOrCreateEntry(const OpScope& scope, KeyHash hash,
                                  FindResult* out) {
  uint16_t tag = EffectiveTag(hash);
  ResizeInfo info = resize_info();
  uint8_t alloc_version =
      (scope.pinned_chunk_ >= 0 || info.phase == Phase::kStable)
          ? info.version
          : static_cast<uint8_t>(1 - info.version);
  HashBucket* head = &scope.table_[hash.Bucket(scope.table_size_)];
  for (;;) {
    Atomic<uint64_t>* free_slot = nullptr;
    if (ScanChain(head, tag, out, &free_slot, 0)) {
      return;  // Existing non-tentative entry.
    }
    if (free_slot == nullptr) {
      // Chain is full: append an overflow bucket, then retry the scan (the
      // new bucket's slots become candidate free slots).
      HashBucket* last = head;
      for (;;) {
        uint64_t next = last->overflow.load(std::memory_order_acquire);
        if (next != 0) {
          last = reinterpret_cast<HashBucket*>(next);
          continue;
        }
        HashBucket* fresh = AllocateOverflowBucket(alloc_version);
        uint64_t expected = 0;
        if (last->overflow.compare_exchange_strong(
                expected, reinterpret_cast<uint64_t>(fresh),
                std::memory_order_acq_rel)) {
          break;
        }
        // Someone else extended the chain first; our bucket stays pooled
        // (freed at teardown) and we follow theirs.
      }
      continue;
    }
    // Phase 1: claim the free slot with a tentative entry (invisible to
    // concurrent readers and updaters).
    HashBucketEntry tentative{Address::Invalid(), tag, /*tentative=*/true};
    uint64_t expected = 0;
    if (!free_slot->compare_exchange_strong(expected, tentative.control(),
                                            std::memory_order_acq_rel)) {
      continue;  // Slot taken; rescan.
    }
    // Phase 2: re-scan the chain for any other entry (tentative or not)
    // with the same tag. If found, back off and retry (Fig. 3b).
    bool duplicate = false;
    for (HashBucket* b = head; b != nullptr && !duplicate;
         b = reinterpret_cast<HashBucket*>(
             b->overflow.load(std::memory_order_acquire))) {
      for (uint32_t i = 0; i < HashBucket::kNumEntries; ++i) {
        if (&b->entries[i] == free_slot) continue;
        HashBucketEntry entry{b->entries[i].load(std::memory_order_acquire)};
        if (!entry.IsUnused() && entry.tag() == tag) {
          duplicate = true;
          break;
        }
      }
    }
    if (duplicate) {
      obs_stats_.tentative_conflicts.Inc();
      free_slot->store(0, std::memory_order_release);
      thread_yield();
      continue;
    }
    // Finalize: clear the tentative bit. We own the slot, so a plain
    // release store suffices.
    HashBucketEntry final_entry = tentative.Finalized();
    free_slot->store(final_entry.control(), std::memory_order_release);
    out->slot = free_slot;
    out->entry = final_entry;
    return;
  }
}

bool HashIndex::TryUpdateEntry(FindResult* result, Address address) {
  FASTER_EPOCH_VERIFY(epoch_->IsProtected(),
                      "index CAS (TryUpdateEntry) without epoch protection");
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

  // Free any table left from the previous grow and set up the new one.
  for (HashBucket* b : overflow_pool_[new_version]) delete b;
  overflow_pool_[new_version].clear();
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
  num_migrated_chunks_.store(0, std::memory_order_release);
  rebase_ = rebase ? &rebase : nullptr;

  // Announce the resize; once every thread has observed the prepare phase
  // (i.e., the bumped epoch is safe), flip to the resizing phase.
  set_resize_state(Phase::kPrepare, old_version);
  // order: release store in the trigger action, acquire load in the wait
  // loop below (a plain completion flag).
  Atomic<bool> resizing_started{false};
  epoch_->BumpCurrentEpoch([this, old_version, &resizing_started]() {
    set_resize_state(Phase::kResizing, old_version);
    resizing_started.store(true, std::memory_order_release);
  });
  while (!resizing_started.load(std::memory_order_acquire)) {
    epoch_->Refresh();
    thread_yield();
  }

  // Migrate chunks co-operatively; concurrent operations grab chunks too.
  for (uint64_t c = 0; c < num_chunks_; ++c) {
    EnsureMigrated(c);
  }
  while (num_migrated_chunks_.load(std::memory_order_acquire) < num_chunks_) {
    thread_yield();
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
  // std::function needs a copyable action: share the retired mapping.
  auto old_table =
      std::make_shared<MemoryRegion>(std::move(table_regions_[old_version]));
  std::vector<HashBucket*> old_overflow;
  {
    std::lock_guard<Mutex> lock{overflow_mutex_};
    old_overflow.swap(overflow_pool_[old_version]);
  }
  // order: release store in the trigger action, acquire load in the wait
  // loop below (a plain completion flag).
  Atomic<bool> freed{false};
  epoch_->BumpCurrentEpoch([old_table, old_overflow = std::move(old_overflow),
                            &freed]() {
    old_table->Reset();
    for (HashBucket* b : old_overflow) delete b;
    freed.store(true, std::memory_order_release);
  });
  while (!freed.load(std::memory_order_acquire)) {
    epoch_->Refresh();
    thread_yield();
  }
  return Status::kOk;
}

void HashIndex::EnsureMigrated(uint64_t chunk) {
  if (migrated_[chunk]->load(std::memory_order_acquire)) return;
  for (;;) {
    int64_t expected = 0;
    if (pins_[chunk]->compare_exchange_strong(expected, kChunkLocked,
                                              std::memory_order_acq_rel)) {
      MigrateChunk(chunk);
      obs_stats_.grow_chunks_migrated.Inc();
      migrated_[chunk]->store(true, std::memory_order_release);
      num_migrated_chunks_.fetch_add(1, std::memory_order_acq_rel);
      return;
    }
    if (expected == kChunkLocked || expected < 0) {
      // Another thread is migrating; wait for it.
      while (!migrated_[chunk]->load(std::memory_order_acquire)) {
        thread_yield();
      }
      return;
    }
    // Pins still held by prepare-phase operations; wait for them to drain.
    thread_yield();
  }
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
              HashBucket* fresh = AllocateOverflowBucket(new_version);
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

  // Assign ordinals to overflow buckets as encountered (1-based; 0 = none).
  std::map<const HashBucket*, uint64_t> ordinal;
  std::vector<const HashBucket*> overflow_list;
  for (uint64_t i = 0; i < size; ++i) {
    const HashBucket* b = reinterpret_cast<const HashBucket*>(
        table[i].overflow.load(std::memory_order_acquire));
    while (b != nullptr) {
      if (ordinal.emplace(b, overflow_list.size() + 1).second) {
        overflow_list.push_back(b);
      }
      b = reinterpret_cast<const HashBucket*>(
          b->overflow.load(std::memory_order_acquire));
    }
  }

  IndexCheckpointHeader header{kIndexMagic, size, overflow_list.size()};
  if (!WriteAll(fd, &header, sizeof(header))) return Status::kIoError;

  auto write_bucket = [&](const HashBucket* b) {
    uint64_t image[8];
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
    const auto* next = reinterpret_cast<const HashBucket*>(
        b->overflow.load(std::memory_order_acquire));
    // A concurrent insert can link a brand-new overflow bucket after the
    // ordinal scan above. Cut the persisted chain there: every entry in
    // such a bucket points at a record appended after t1, and the
    // recovery log scan over [t1, t2) re-inserts it (Sec. 6.5's fuzzy
    // checkpoint contract).
    uint64_t next_ord = 0;
    if (next != nullptr) {
      auto it = ordinal.find(next);
      if (it != ordinal.end()) next_ord = it->second;
    }
    image[7] = next_ord;
    return WriteAll(fd, image, sizeof(image));
  };

  for (uint64_t i = 0; i < size; ++i) {
    if (!write_bucket(&table[i])) return Status::kIoError;
  }
  for (const HashBucket* b : overflow_list) {
    if (!write_bucket(b)) return Status::kIoError;
  }
  return Status::kOk;
}

Status HashIndex::ReadCheckpoint(int fd) {
  IndexCheckpointHeader header;
  if (!ReadAll(fd, &header, sizeof(header))) return Status::kIoError;
  if (header.magic != kIndexMagic) return Status::kCorruption;
  if (header.table_size == 0 ||
      (header.table_size & (header.table_size - 1)) != 0) {
    return Status::kCorruption;
  }

  ResizeInfo info = resize_info();
  if (info.phase != Phase::kStable) return Status::kInvalid;
  uint8_t v = info.version;
  MemoryRegion fresh = AllocateTable(header.table_size);
  if (!fresh) return Status::kOutOfMemory;
  for (HashBucket* b : overflow_pool_[v]) delete b;
  overflow_pool_[v].clear();
  HashBucket* fresh_table = fresh.As<HashBucket>();
  tables_[v].store(fresh_table, std::memory_order_release);
  table_size_[v].store(header.table_size, std::memory_order_release);
  table_granule_.store(fresh.granule(), std::memory_order_relaxed);
  table_regions_[v] = std::move(fresh);

  std::vector<HashBucket*> overflow_list;
  overflow_list.reserve(header.num_overflow);
  for (uint64_t i = 0; i < header.num_overflow; ++i) {
    overflow_list.push_back(AllocateOverflowBucket(v));
  }

  auto read_bucket = [&](HashBucket* b) {
    uint64_t image[8];
    if (!ReadAll(fd, image, sizeof(image))) return false;
    for (uint32_t j = 0; j < HashBucket::kNumEntries; ++j) {
      b->entries[j].store(image[j], std::memory_order_relaxed);
    }
    uint64_t ord = image[7];
    if (ord != 0) {
      if (ord > overflow_list.size()) return false;
      b->overflow.store(reinterpret_cast<uint64_t>(overflow_list[ord - 1]),
                        std::memory_order_relaxed);
    } else {
      b->overflow.store(0, std::memory_order_relaxed);
    }
    return true;
  };

  for (uint64_t i = 0; i < header.table_size; ++i) {
    if (!read_bucket(&fresh_table[i])) return Status::kCorruption;
  }
  for (uint64_t i = 0; i < header.num_overflow; ++i) {
    if (!read_bucket(overflow_list[i])) return Status::kCorruption;
  }
  return Status::kOk;
}

}  // namespace faster
