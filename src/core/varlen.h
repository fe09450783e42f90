#ifndef FASTER_CORE_VARLEN_H_
#define FASTER_CORE_VARLEN_H_

#include <atomic>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/address.h"
#include "core/epoch.h"
#include "core/hash_index.h"
#include "core/hybrid_log.h"
#include "core/key_hash.h"
#include "core/record.h"
#include "core/status.h"
#include "core/thread.h"
#include "device/device.h"

namespace faster {

/// On-log layout of a variable-length record (Sec. 2.1: "keys and values
/// may be fixed or variable-sized"):
///
///   RecordInfo header (8) | key_size (4) | value_size (4) |
///   value_capacity (4) | pad (4) | key bytes | value bytes | pad to 8
///
/// `value_capacity` is the space reserved for the value; in-place blind
/// updates are possible whenever the new value fits the capacity, so a
/// store can over-provision (slack) to keep updates in place even as
/// values grow.
struct VarRecordHeader {
  // order: release store in InitRecord publishes the fully written record;
  // acquire load pairs with it before reading key/value bytes; acq_rel
  // fetch_or for the one-way flag bits (invalid, tombstone, overwritten);
  // relaxed load where the record is known published (single-writer
  // re-checks and scans behind the index CAS).
  std::atomic<uint64_t> info;
  uint32_t key_size;
  // order: release store publishes in-place value bytes before the new
  // length, acquire load pairs with it (concurrent readers); relaxed
  // store in InitRecord (the info release store publishes the record) and
  // relaxed load on paths ordered by an earlier acquire of `info`.
  std::atomic<uint32_t> value_size;
  uint32_t value_capacity;
  uint32_t pad;

  static constexpr uint32_t kPrefixSize = 24;

  const uint8_t* key_bytes() const {
    return reinterpret_cast<const uint8_t*>(this) + kPrefixSize;
  }
  uint8_t* value_bytes() {
    return reinterpret_cast<uint8_t*>(this) + kPrefixSize + key_size;
  }
  const uint8_t* value_bytes() const {
    return reinterpret_cast<const uint8_t*>(this) + kPrefixSize + key_size;
  }
  RecordInfo record_info() const {
    return RecordInfo{info.load(std::memory_order_acquire)};
  }
  bool KeyEquals(std::string_view key) const {
    return key.size() == key_size &&
           std::memcmp(key_bytes(), key.data(), key.size()) == 0;
  }
  static uint32_t TotalSize(uint32_t key_size, uint32_t value_capacity) {
    return (kPrefixSize + key_size + value_capacity + 7) / 8 * 8;
  }
  uint32_t total_size() const { return TotalSize(key_size, value_capacity); }
};

static_assert(sizeof(VarRecordHeader) == VarRecordHeader::kPrefixSize);

/// FasterBlobKv: FASTER with variable-length byte-string keys and values,
/// built on the same hash index, epoch framework, and HybridLog as the
/// fixed-size store. Supports Read / Upsert / Delete; blind updates go in
/// place when the record sits in the mutable region and the new value fits
/// the record's reserved capacity, and append a new record otherwise
/// (Table 1 semantics). Storage reads are two-phase: the fixed prefix
/// first (to learn the sizes), then the full record.
class FasterBlobKv {
 public:
  struct Config {
    uint64_t table_size = uint64_t{1} << 16;
    LogConfig log;
    /// Extra value capacity reserved on every insert, as a fraction of the
    /// value size (lets values grow a little without leaving the mutable
    /// region's in-place path).
    double value_slack = 0.0;
  };

  FasterBlobKv(const Config& config, IDevice* device)
      : config_{config},
        epoch_{},
        index_{config.table_size, &epoch_},
        hlog_{config.log, device, &epoch_},
        thread_states_(Thread::kMaxThreads) {}

  ~FasterBlobKv() {
    // Run outstanding epoch trigger actions before members are destroyed.
    epoch_.Protect();
    epoch_.SpinWaitForSafety(epoch_.CurrentEpoch() - 1);
    epoch_.Unprotect();
    hlog_.device()->Drain();
  }

  FasterBlobKv(const FasterBlobKv&) = delete;
  FasterBlobKv& operator=(const FasterBlobKv&) = delete;

  void StartSession() { epoch_.Protect(); }
  void StopSession() {
    CompletePending(true);
    epoch_.Unprotect();
  }
  void Refresh() { epoch_.Refresh(); }

  /// Reads the value into `*out`. Returns kPending if the record is on
  /// storage; `out` must then stay valid until CompletePending().
  Status Read(std::string_view key, std::string* out) {
    ThreadState& ts = AutoRefresh();
    KeyHash hash = HashKey(key);
    typename HashIndex::OpScope scope{index_, hash};
    HashIndex::FindResult fr;
    if (!index_.FindEntry(scope, hash, &fr)) return Status::kNotFound;
    Address addr = fr.entry.address();
    Address begin = hlog_.begin_address();
    if (!addr.IsValid() || addr < begin) {
      index_.TryDeleteEntry(&fr);
      return Status::kNotFound;
    }
    Address head = hlog_.head_address();
    VarRecordHeader* rec = nullptr;
    addr = TraceBack(key, addr, std::max(head, begin), &rec);
    if (rec != nullptr) {
      if (rec->record_info().tombstone()) return Status::kNotFound;
      uint32_t size = rec->value_size.load(std::memory_order_acquire);
      out->assign(reinterpret_cast<const char*>(rec->value_bytes()), size);
      return Status::kOk;
    }
    if (!addr.IsValid() || addr < begin) return Status::kNotFound;
    return IssuePrefixRead(ts, key, hash, out, addr);
  }

  /// Blind upsert. In place when the newest record is mutable and the new
  /// value fits its capacity; otherwise appends.
  Status Upsert(std::string_view key, std::string_view value) {
    AutoRefresh();
    KeyHash hash = HashKey(key);
    for (;;) {
      typename HashIndex::OpScope scope{index_, hash};
      HashIndex::FindResult fr;
      index_.FindOrCreateEntry(scope, hash, &fr);
      Address addr = fr.entry.address();
      Address begin = hlog_.begin_address();
      Address head = hlog_.head_address();
      VarRecordHeader* rec = nullptr;
      if (addr.IsValid() && addr >= begin && addr >= head) {
        Address found = TraceBack(key, addr, std::max(head, begin), &rec);
        if (rec != nullptr && !rec->record_info().tombstone() &&
            found >= hlog_.read_only_address() &&
            value.size() <= rec->value_capacity) {
          // In-place update: write bytes, then publish the new length.
          // Record-level concurrency between same-key writers is the
          // application's contract (Appendix E).
          std::memcpy(rec->value_bytes(), value.data(), value.size());
          rec->value_size.store(static_cast<uint32_t>(value.size()),
                                std::memory_order_release);
          return Status::kOk;
        }
      }
      uint32_t capacity = static_cast<uint32_t>(
          static_cast<double>(value.size()) * (1.0 + config_.value_slack));
      if (capacity < value.size()) capacity = value.size();
      Address new_addr =
          TryAllocateRecord(VarRecordHeader::TotalSize(key.size(), capacity));
      if (!new_addr.IsValid()) continue;
      auto* new_rec = RecordAt(new_addr);
      InitRecord(new_rec, key, value, capacity, fr.entry.address(), false);
      if (index_.TryUpdateEntry(&fr, new_addr)) {
        if (rec != nullptr) {
          rec->info.fetch_or(RecordInfo::kOverwrittenBit,
                             std::memory_order_acq_rel);
        }
        return Status::kOk;
      }
      new_rec->info.fetch_or(RecordInfo::kInvalidBit,
                             std::memory_order_acq_rel);
    }
  }

  /// Deletes the key (tombstone in place in the mutable region, appended
  /// tombstone record otherwise).
  Status Delete(std::string_view key) {
    AutoRefresh();
    KeyHash hash = HashKey(key);
    for (;;) {
      typename HashIndex::OpScope scope{index_, hash};
      HashIndex::FindResult fr;
      if (!index_.FindEntry(scope, hash, &fr)) return Status::kNotFound;
      Address addr = fr.entry.address();
      Address begin = hlog_.begin_address();
      if (!addr.IsValid() || addr < begin) {
        index_.TryDeleteEntry(&fr);
        return Status::kNotFound;
      }
      Address head = hlog_.head_address();
      VarRecordHeader* rec = nullptr;
      Address found = Address::Invalid();
      if (addr >= head) {
        found = TraceBack(key, addr, std::max(head, begin), &rec);
      } else {
        found = addr;
      }
      if (rec != nullptr) {
        if (rec->record_info().tombstone()) return Status::kNotFound;
        if (found >= hlog_.read_only_address()) {
          rec->info.fetch_or(RecordInfo::kTombstoneBit,
                             std::memory_order_acq_rel);
          return Status::kOk;
        }
      } else if (!found.IsValid() || found < begin) {
        return Status::kNotFound;
      }
      Address new_addr =
          TryAllocateRecord(VarRecordHeader::TotalSize(key.size(), 0));
      if (!new_addr.IsValid()) continue;
      auto* new_rec = RecordAt(new_addr);
      InitRecord(new_rec, key, {}, 0, fr.entry.address(), /*tombstone=*/true);
      if (index_.TryUpdateEntry(&fr, new_addr)) return Status::kOk;
      new_rec->info.fetch_or(RecordInfo::kInvalidBit,
                             std::memory_order_acq_rel);
    }
  }

  /// Processes pending storage reads for the calling thread.
  bool CompletePending(bool wait = false) {
    ThreadState& ts = thread_states_[Thread::Id()];
    for (;;) {
      // The device completes this thread's reads only when it polls.
      hlog_.device()->Poll();
      ProcessCompletions(ts);
      bool done = ts.outstanding == 0;
      if (done || !wait) return done;
      epoch_.Refresh();
      std::this_thread::yield();
    }
  }

  HybridLog& hlog() { return hlog_; }
  HashIndex& index() { return index_; }

 private:
  enum class IoPhase : uint8_t { kPrefix, kFull };

  struct PendingContext {
    FasterBlobKv* store;
    std::string key;
    KeyHash hash;
    std::string* output;
    uint32_t owner;
    Address address;
    IoPhase phase = IoPhase::kPrefix;
    Status io_status = Status::kOk;
    std::vector<uint8_t> buffer;
  };

  struct alignas(64) ThreadState {
    std::mutex mutex;
    std::vector<PendingContext*> completions;
    uint64_t outstanding = 0;
    uint32_t ops_since_refresh = 0;
  };

  static KeyHash HashKey(std::string_view key) {
    return KeyHash{HashBytes(key.data(), key.size())};
  }

  VarRecordHeader* RecordAt(Address addr) const {
    return reinterpret_cast<VarRecordHeader*>(hlog_.Get(addr));
  }

  ThreadState& AutoRefresh() {
    ThreadState& ts = thread_states_[Thread::Id()];
    if (++ts.ops_since_refresh >= 256) {
      ts.ops_since_refresh = 0;
      epoch_.Refresh();
    }
    return ts;
  }

  void InitRecord(VarRecordHeader* rec, std::string_view key,
                  std::string_view value, uint32_t capacity, Address prev,
                  bool tombstone) {
    rec->key_size = static_cast<uint32_t>(key.size());
    rec->value_capacity = capacity;
    rec->pad = 0;
    std::memcpy(reinterpret_cast<uint8_t*>(rec) + VarRecordHeader::kPrefixSize,
                key.data(), key.size());
    if (!value.empty()) {
      std::memcpy(rec->value_bytes(), value.data(), value.size());
    }
    rec->value_size.store(static_cast<uint32_t>(value.size()),
                          std::memory_order_relaxed);
    rec->info.store(RecordInfo{prev, false, tombstone}.control(),
                    std::memory_order_release);
  }

  Address TraceBack(std::string_view key, Address from, Address min_mem,
                    VarRecordHeader** rec) const {
    Address addr = from;
    while (addr.IsValid() && addr >= min_mem) {
      VarRecordHeader* r = RecordAt(addr);
      if (r->KeyEquals(key)) {
        *rec = r;
        return addr;
      }
      addr = r->record_info().previous_address();
    }
    *rec = nullptr;
    return addr;
  }

  Address TryAllocateRecord(uint32_t size) {
    uint64_t closed_page = 0;
    Address addr = hlog_.Allocate(size, &closed_page);
    if (addr.IsValid()) return addr;
    while (!hlog_.NewPage(closed_page)) {
      epoch_.Refresh();
      std::this_thread::yield();
    }
    epoch_.Refresh();
    return Address::Invalid();
  }

  Status IssuePrefixRead(ThreadState& ts, std::string_view key, KeyHash hash,
                         std::string* out, Address addr) {
    auto* ctx = new PendingContext;
    ctx->store = this;
    ctx->key.assign(key);
    ctx->hash = hash;
    ctx->output = out;
    ctx->owner = Thread::Id();
    ctx->address = addr;
    ctx->phase = IoPhase::kPrefix;
    ctx->buffer.resize(VarRecordHeader::kPrefixSize);
    ++ts.outstanding;
    hlog_.AsyncGetFromDisk(addr, VarRecordHeader::kPrefixSize,
                           ctx->buffer.data(), &FasterBlobKv::IoCallback,
                           ctx);
    return Status::kPending;
  }

  static void IoCallback(void* context, Status result, uint32_t /*bytes*/) {
    auto* ctx = static_cast<PendingContext*>(context);
    ctx->io_status = result;
    ThreadState& ts = ctx->store->thread_states_[ctx->owner];
    std::lock_guard<std::mutex> lock{ts.mutex};
    ts.completions.push_back(ctx);
  }

  void ProcessCompletions(ThreadState& ts) {
    std::vector<PendingContext*> ready;
    {
      std::lock_guard<std::mutex> lock{ts.mutex};
      ready.swap(ts.completions);
    }
    for (PendingContext* ctx : ready) {
      if (ctx->io_status != Status::kOk) {
        Finish(ts, ctx);
        continue;
      }
      if (ctx->phase == IoPhase::kPrefix) {
        // Phase 1 done: we know the sizes; fetch the whole record.
        const auto* prefix =
            reinterpret_cast<const VarRecordHeader*>(ctx->buffer.data());
        RecordInfo info{prefix->info.load(std::memory_order_relaxed)};
        if (!info.in_use()) {
          Finish(ts, ctx);  // corrupt chain; treat as not found
          continue;
        }
        uint32_t total = VarRecordHeader::TotalSize(prefix->key_size,
                                                    prefix->value_capacity);
        ctx->phase = IoPhase::kFull;
        ctx->buffer.resize(total);
        hlog_.AsyncGetFromDisk(ctx->address, total, ctx->buffer.data(),
                               &FasterBlobKv::IoCallback, ctx);
        continue;
      }
      // Phase 2: full record in hand.
      const auto* rec =
          reinterpret_cast<const VarRecordHeader*>(ctx->buffer.data());
      RecordInfo info = rec->record_info();
      if (rec->KeyEquals(ctx->key)) {
        if (!info.tombstone()) {
          uint32_t size = rec->value_size.load(std::memory_order_relaxed);
          ctx->output->assign(
              reinterpret_cast<const char*>(rec->value_bytes()), size);
        }
        Finish(ts, ctx);
        continue;
      }
      Address prev = info.previous_address();
      if (prev.IsValid() && prev >= hlog_.begin_address()) {
        // Chase the chain: next record's prefix.
        ctx->address = prev;
        ctx->phase = IoPhase::kPrefix;
        ctx->buffer.resize(VarRecordHeader::kPrefixSize);
        hlog_.AsyncGetFromDisk(prev, VarRecordHeader::kPrefixSize,
                               ctx->buffer.data(), &FasterBlobKv::IoCallback,
                               ctx);
        continue;
      }
      Finish(ts, ctx);
    }
  }

  void Finish(ThreadState& ts, PendingContext* ctx) {
    --ts.outstanding;
    delete ctx;
  }

  Config config_;
  LightEpoch epoch_;
  HashIndex index_;
  HybridLog hlog_;
  std::vector<ThreadState> thread_states_;
};

}  // namespace faster

#endif  // FASTER_CORE_VARLEN_H_
