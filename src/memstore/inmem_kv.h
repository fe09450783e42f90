#ifndef FASTER_MEMSTORE_INMEM_KV_H_
#define FASTER_MEMSTORE_INMEM_KV_H_

#include <cstdlib>
#include <vector>

#include "core/annotations.h"
#include "core/epoch.h"
#include "core/functions.h"
#include "core/hash_index.h"
#include "core/key_hash.h"
#include "core/record.h"
#include "core/status.h"
#include "core/thread.h"

namespace faster {

/// The Sec. 4 configuration of FASTER: the latch-free hash index paired
/// with a plain in-memory allocator (the paper suggests jemalloc; we use
/// the system allocator). Records live at their malloc'd physical
/// addresses — the index stores the pointer bits directly in its 48-bit
/// address field — and are updated in place. Handles neither
/// larger-than-memory data nor recovery (see Fig. 1's capability table);
/// it exists as the stepping stone between the index and the log-based
/// stores, and as the "pure in-memory FASTER" ablation point.
///
/// Deletion marks the record's tombstone bit and physically unlinks
/// records from the head of a hash chain; unlinked records are returned to
/// the allocator only when their retirement epoch becomes safe (Sec. 4's
/// thread-local free list of (epoch, address) pairs).
template <class F, class Hasher = DefaultKeyHasher<typename F::Key>>
class InMemKv {
 public:
  using Key = typename F::Key;
  using Value = typename F::Value;
  using Input = typename F::Input;
  using Output = typename F::Output;
  using RecordT = Record<Key, Value>;

  explicit InMemKv(uint64_t table_size)
      : epoch_{}, index_{table_size, &epoch_},
        free_lists_(Thread::kMaxThreads) {}

  ~InMemKv() {
    QuiescentRegion quiet;  // the chain walk loads index entries
    // Free all reachable records and everything on the retire lists.
    for (auto& fl : free_lists_) {
      for (auto& [epoch, rec] : fl.retired) std::free(rec);
    }
    FreeAllChains();
  }

  InMemKv(const InMemKv&) = delete;
  InMemKv& operator=(const InMemKv&) = delete;

  void StartSession() FASTER_ACQUIRES_EPOCH() { epoch_.Protect(); }
  void StopSession() FASTER_RELEASES_EPOCH() { epoch_.Unprotect(); }
  void Refresh() FASTER_REQUIRES_EPOCH() {
    epoch_.Refresh();
    DrainFreeList();
  }

  /// Reads the value for `key` (always via ConcurrentReader: every
  /// in-memory record may race with in-place updates).
  Status Read(const Key& key, const Input& input, Output* output)
      FASTER_REQUIRES_EPOCH() {
    AutoRefresh();
    KeyHash hash = Hasher{}(key);
    typename HashIndex::OpScope scope{index_, hash};
    HashIndex::FindResult fr;
    if (!index_.FindEntry(scope, hash, &fr)) return Status::kNotFound;
    RecordT* rec = FindInChain(key, fr.entry.address());
    if (rec == nullptr || rec->info().tombstone()) return Status::kNotFound;
    F::ConcurrentReader(key, input, rec->value, *output);
    return Status::kOk;
  }

  /// Blind update: in place when the key exists, else insert at the head
  /// of the chain.
  Status Upsert(const Key& key, const Value& value) FASTER_REQUIRES_EPOCH() {
    return Write(
        key, [&](Value& v) { F::ConcurrentWriter(key, value, v); },
        [&](Value& v) { F::SingleWriter(key, value, v); });
  }

  /// RMW: in place when the key exists (the paper's count-store example
  /// uses fetch-and-increment here), else insert the initial value. The
  /// value the updater reports is dropped.
  Status Rmw(const Key& key, const Input& input) FASTER_REQUIRES_EPOCH() {
    Output discard{};
    return Write(
        key, [&](Value& v) { F::InPlaceUpdater(key, input, v, discard); },
        [&](Value& v) {
          v = Value{};
          F::InitialUpdater(key, input, v, discard);
        });
  }

  /// Delete: tombstone the record; if it heads its chain, unlink it (CAS
  /// on the hash bucket entry — the singleton case resets the entry to 0,
  /// freeing the slot for future inserts) and retire the memory under
  /// epoch protection.
  Status Delete(const Key& key) FASTER_REQUIRES_EPOCH() {
    AutoRefresh();
    KeyHash hash = Hasher{}(key);
    typename HashIndex::OpScope scope{index_, hash};
    HashIndex::FindResult fr;
    if (!index_.FindEntry(scope, hash, &fr)) return Status::kNotFound;
    RecordT* rec = FindInChain(key, fr.entry.address());
    if (rec == nullptr || rec->info().tombstone()) return Status::kNotFound;
    rec->SetTombstone();
    TryCollectChainHead(&fr);
    return Status::kOk;
  }

  LightEpoch& epoch() { return epoch_; }
  HashIndex& index() { return index_; }

  /// Number of retired-but-not-yet-freed records (tests).
  uint64_t RetiredCount() const {
    uint64_t n = 0;
    for (const auto& fl : free_lists_) n += fl.retired.size();
    return n;
  }

 private:
  struct alignas(64) FreeList {
    std::vector<std::pair<uint64_t, RecordT*>> retired;
    uint32_t ops_since_refresh = 0;
  };

  static Address PointerToAddress(RecordT* rec) {
    return Address{reinterpret_cast<uint64_t>(rec)};
  }
  static RecordT* AddressToPointer(Address addr) {
    return reinterpret_cast<RecordT*>(addr.control());
  }

  /// Upsert and Rmw: `in_place(value)` on the key's live record, else
  /// `init(value)` on a new record published at the head of the chain —
  /// for a new key, into a free slot, record first (Sec. 3.2).
  template <class InPlace, class Init>
  Status Write(const Key& key, InPlace&& in_place, Init&& init)
      FASTER_REQUIRES_EPOCH() {
    AutoRefresh();
    KeyHash hash = Hasher{}(key);
    for (;;) {
      typename HashIndex::OpScope scope{index_, hash};
      HashIndex::FindResult fr;
      Status s = index_.FindSlot(scope, hash, &fr);
      if (s != Status::kOk) return s;
      // An entry unlinked to its chain's end is gone: find a free slot.
      if (!TryCollectChainHead(&fr)) continue;
      RecordT* rec = FindInChain(key, fr.entry.address());
      if (rec != nullptr && !rec->info().tombstone()) {
        in_place(rec->value);
        return Status::kOk;
      }
      RecordT* fresh = AllocateRecord(key, fr.entry.address());
      init(fresh->value);
      if (index_.TryPublish(&fr, PointerToAddress(fresh))) {
        return Status::kOk;
      }
      std::free(fresh);
    }
  }

  void AutoRefresh() FASTER_REQUIRES_EPOCH() {
    FreeList& fl = free_lists_[Thread::Id()];
    if (++fl.ops_since_refresh >= 256) {
      fl.ops_since_refresh = 0;
      Refresh();
    }
  }

  RecordT* FindInChain(const Key& key, Address head) const {
    Address addr = head;
    while (addr.IsValid()) {
      RecordT* rec = AddressToPointer(addr);
      if (rec->key == key) return rec;
      addr = rec->info().previous_address();
    }
    return nullptr;
  }

  RecordT* AllocateRecord(const Key& key, Address prev) {
    void* mem = std::aligned_alloc(8, RecordT::size());
    auto* rec = static_cast<RecordT*>(mem);
    rec->key = key;
    rec->set_info(RecordInfo{prev, false, false});
    return rec;
  }

  /// Physically unlinks tombstoned records from the head of the chain
  /// (progressive reclamation; mid-chain tombstones surface as their
  /// predecessors are removed). Updates `fr` to the new chain head.
  /// Returns false if the entry is gone (unlinked here) or changed under
  /// a lost CAS: the caller must find it again, because the value the CAS
  /// reloaded may be another insert's tentative claim, whose record that
  /// insert frees if it backs off.
  bool TryCollectChainHead(HashIndex::FindResult* fr)
      FASTER_REQUIRES_EPOCH() {
    while (fr->entry.address().IsValid()) {
      RecordT* head = AddressToPointer(fr->entry.address());
      if (!head->info().tombstone()) return true;
      Address next = head->info().previous_address();
      bool ok = next.IsValid() ? index_.TryPublish(fr, next)
                               : index_.TryDeleteEntry(fr);
      if (!ok) return false;  // a racer owns the cleanup
      Retire(head);
    }
    // A free slot (FindSlot's, for a new key) has no address either.
    return fr->head != nullptr;
  }

  /// Defer the free until every thread has moved past the current epoch
  /// (no thread can still hold a pointer into the record).
  void Retire(RecordT* rec) {
    FreeList& fl = free_lists_[Thread::Id()];
    fl.retired.emplace_back(epoch_.CurrentEpoch(), rec);
  }

  void DrainFreeList() FASTER_REQUIRES_EPOCH() {
    FreeList& fl = free_lists_[Thread::Id()];
    if (fl.retired.empty()) return;
    uint64_t safe = epoch_.SafeToReclaimEpoch();
    if (fl.retired.front().first > safe) {
      // The retirement epoch cannot become safe until the current epoch
      // advances past it; nudge it along (threads' refreshes do the rest).
      epoch_.BumpCurrentEpoch();
    }
    auto it = fl.retired.begin();
    while (it != fl.retired.end() && it->first <= safe) {
      std::free(it->second);
      ++it;
    }
    fl.retired.erase(fl.retired.begin(), it);
  }

  void FreeAllChains() {
    // Destructor-only: walk every chain reachable from the index and free
    // its records.
    index_.ForEachEntry([](HashBucketEntry entry) {
      Address addr = entry.address();
      while (addr.IsValid()) {
        RecordT* rec = AddressToPointer(addr);
        addr = rec->info().previous_address();
        std::free(rec);
      }
    });
  }

  LightEpoch epoch_;
  HashIndex index_;
  std::vector<FreeList> free_lists_;
};

}  // namespace faster

#endif  // FASTER_MEMSTORE_INMEM_KV_H_
