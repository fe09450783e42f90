#ifndef FASTER_CORE_HYBRID_LOG_H_
#define FASTER_CORE_HYBRID_LOG_H_

#include <atomic>
#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "core/address.h"
#include "core/annotations.h"
#include "core/epoch.h"
#include "core/epoch_check.h"
#include "core/memory_region.h"
#include "core/status.h"
#include "core/sync.h"
#include "device/device.h"
#include "obs/stats.h"

namespace faster {

/// Configuration for a HybridLog instance.
struct LogConfig {
  /// Capacity of the in-memory circular buffer, in bytes (rounded down to
  /// whole pages; minimum 2 pages).
  uint64_t memory_size_bytes = 1ull << 26;  // 64 MB
  /// Fraction of the in-memory buffer operated as the mutable (in-place
  /// update) region; the remainder is the read-only region (Sec. 6.4).
  /// The paper finds 0.9 a good default.
  double mutable_fraction = 0.9;
  /// If true, pages evicted from memory are never flushed (used by the
  /// read cache of Appendix D, whose records already live on the main log).
  bool read_cache_mode = false;
};

/// HybridLog: the log-structured record allocator spanning memory and
/// storage (Sec. 5 and 6).
///
/// The 48-bit logical address space is divided into four regions by three
/// monotonically increasing markers:
///
///   begin ... [stable, on disk) ... head ... [read-only) ... safe-RO ...
///   [fuzzy) ... read-only offset ... [mutable, in-place updates) ... tail
///
/// The tail portion `[head, tail)` lives in a bounded circular buffer of
/// page frames. Records below the read-only offset are never updated in
/// place; once the *safe* read-only offset (propagated via epoch trigger
/// actions, Sec. 6.2) passes a page, the page is immutable for every
/// thread and is flushed asynchronously; once flushed and evicted (closed
/// via another epoch trigger), its frame is recycled for a new tail page.
///
/// This class owns addresses and bytes only; record semantics (headers,
/// keys, linked lists) belong to the store layered on top.
class HybridLog {
 public:
  /// `device` and `epoch` must outlive the log. The frame buffer is
  /// reserved, not touched: a frame becomes resident when its first page
  /// opens. Throws std::bad_alloc if the frames cannot be mapped.
  HybridLog(const LogConfig& config, IDevice* device, LightEpoch* epoch);
  ~HybridLog();

  HybridLog(const HybridLog&) = delete;
  HybridLog& operator=(const HybridLog&) = delete;

  /// Allocates `size` bytes at the tail (Alg. 1). `size` must be 8-byte
  /// aligned and at most one page. On success returns the record address.
  /// If the current page overflowed, returns an invalid address and sets
  /// `*closed_page` to the page that must be closed; the caller should
  /// invoke `NewPage(closed_page)`, `epoch->Refresh()`, and retry.
  [[gnu::always_inline]] Address Allocate(uint32_t size,
                                         uint64_t* closed_page)
      FASTER_REQUIRES_EPOCH() {
    FASTER_EPOCH_VERIFY(epoch_->IsProtected(),
                        "log allocation without epoch protection");
    assert(size % 8 == 0 && size > 0 && size <= Address::kPageSize);
    uint64_t tpo = tail_page_offset_.fetch_add(size, std::memory_order_acq_rel);
    uint64_t page = tpo >> 32;
    uint64_t offset = tpo & 0xffffffffull;
    if (offset + size <= Address::kPageSize) {
      return Address{page, offset};
    }
    // This allocation (and any later one) overflowed the page; the caller
    // must close it via NewPage and retry.
    *closed_page = page;
    return Address::Invalid();
  }

  /// Closes `old_page` and opens `old_page + 1`, advancing the head and
  /// read-only offsets as needed. Returns false if the new page's frame is
  /// not yet recyclable (flush or eviction still pending), or the epoch's
  /// drain list is full; the caller should refresh its epoch, outside any
  /// OpScope, and retry. It never refreshes or drains itself.
  bool NewPage(uint64_t old_page) FASTER_REQUIRES_EPOCH();

  /// Physical pointer for an in-memory logical address (caller must have
  /// checked `address >= head_address()` under epoch protection).
  uint8_t* Get(Address address) const FASTER_REQUIRES_EPOCH() {
    FASTER_EPOCH_VERIFY(epoch_->IsProtected(),
                        "log dereference (Get) without epoch protection");
    // Not a fresh head_address(): the head may pass the address after the
    // caller's check, but its page closes only once this thread refreshes.
    FASTER_EPOCH_VERIFY(
        !PageClosed(address.page()),
        "log dereference (Get) below the head address — its page is "
        "closed and the frame may already host a newer page");
    return Frame(address.page()) + address.offset();
  }

  /// As Get(), but for addresses in a range the eviction callback is being
  /// told about: those are already below the head, yet their frames are
  /// still intact — a frame's closed page, which gates its recycling, is
  /// stored only after the callback returns. Valid solely inside the
  /// eviction callback; epoch protection is still required.
  uint8_t* GetEvicted(Address address) const FASTER_REQUIRES_EPOCH() {
    FASTER_EPOCH_VERIFY(
        epoch_->IsProtected(),
        "log dereference (GetEvicted) without epoch protection");
    return Frame(address.page()) + address.offset();
  }

  /// FASTER_EPOCH_CHECK hook for in-place update sites: the store calls
  /// this immediately before mutating record bytes at `address` in place.
  /// The non-vacuous invariant is the *safe* read-only bound: the store
  /// gates in-place updates on the (possibly lagging) read-only offset,
  /// and the epoch protocol is what guarantees safe-RO — the flush
  /// frontier — cannot pass an address a protected thread is still
  /// mutating. Compiled out (empty) without FASTER_EPOCH_CHECK.
  void VerifyMutableAddress(Address address) const {
    FASTER_EPOCH_VERIFY(epoch_->IsProtected(),
                        "in-place update without epoch protection");
    FASTER_EPOCH_VERIFY(
        address >= safe_read_only_address(),
        "in-place update below the safe read-only offset — these bytes may "
        "be flushing (torn write to storage)");
    FASTER_EPOCH_VERIFY(
        address >= head_address(),
        "in-place update below the head address (truncated region)");
    (void)address;
  }

  // Inline everywhere: every op reads several region markers.
  [[gnu::always_inline]] Address begin_address() const {
    return Load(begin_address_);
  }
  [[gnu::always_inline]] Address head_address() const {
    return Load(head_address_);
  }
  [[gnu::always_inline]] Address read_only_address() const {
    return Load(read_only_address_);
  }
  [[gnu::always_inline]] Address safe_read_only_address() const {
    return Load(safe_read_only_address_);
  }
  Address flushed_until_address() const { return Load(flushed_until_); }

  /// Current tail address (next allocation point), clamped to the page end
  /// during a page transition.
  Address tail_address() const;

  /// Asynchronously reads `size` bytes at logical address `address` from
  /// the device (stable region).
  Status AsyncGetFromDisk(Address address, uint32_t size, void* dst,
                          IoCallback callback, void* context);

  /// Synchronously reads from the stable region (recovery / log scan).
  Status ReadFromDiskSync(Address address, uint32_t size, void* dst);

  /// Moves the read-only offset to the current tail and (once the epoch
  /// permits) flushes everything below it. If `wait`, blocks (refreshing
  /// the epoch) until `flushed_until >= tail`; requires epoch protection.
  /// Returns the tail address the log will be durable up to.
  Address ShiftReadOnlyToTail(bool wait) FASTER_REQUIRES_EPOCH();

  /// Truncates the log: addresses below `new_begin` become invalid
  /// (expiration-based garbage collection, Appendix C).
  bool ShiftBeginAddress(Address new_begin);

  /// For recovery: positions all markers for an empty in-memory tail at
  /// `tail`, with everything below it on disk.
  void RecoverTo(Address begin, Address tail);

  /// Registers a callback invoked (under epoch safety, before the frames
  /// are recycled) for every address range [from, to) evicted from memory
  /// when the head advances. Used by the read cache (Appendix D) to
  /// redirect index entries back to the primary log. Must be set before
  /// any allocation.
  void SetEvictionCallback(std::function<void(Address, Address)> cb) {
    eviction_callback_ = std::move(cb);
  }

  /// Point-in-time-ish region snapshot for /debug/log. Loaded smallest
  /// marker first: every marker only advances, so reading `head` before
  /// `read_only` before `tail` guarantees the *snapshot* preserves
  /// begin <= head <= read_only <= tail (a marker read later can only be
  /// ahead of, never behind, one read earlier).
  struct RegionSnapshot {
    Address begin;
    Address head;
    Address safe_read_only;
    Address flushed_until;
    Address read_only;
    Address tail;
  };
  RegionSnapshot SnapshotRegions() const {
    RegionSnapshot s;
    s.begin = begin_address();
    s.head = head_address();
    s.safe_read_only = safe_read_only_address();
    s.flushed_until = flushed_until_address();
    s.read_only = read_only_address();
    s.tail = tail_address();
    return s;
  }

  /// Number of page frames in the circular buffer.
  uint64_t buffer_pages() const { return buffer_pages_; }
  /// The mapping holding every frame (block f is frame f), for residency
  /// checks.
  const MemoryRegion& frame_region() const { return frames_; }
  /// Pages of read-only lag between the read-only offset and the tail.
  uint64_t read_only_lag_pages() const { return ro_lag_pages_; }

  LightEpoch* epoch() { return epoch_; }
  IDevice* device() { return device_; }

  /// True if any asynchronous flush reported an error.
  bool io_error() const { return io_error_.load(std::memory_order_acquire); }

  /// Observability (compiled out unless FASTER_STATS): page lifecycle and
  /// flush pipeline health.
  struct ObsStats {
    obs::StatCounter pages_opened;   // successful NewPage transitions
    obs::StatCounter pages_evicted;  // pages closed out of memory
    obs::StatCounter flush_bytes;    // bytes handed to the device
  };
  const ObsStats& obs_stats() const { return obs_stats_; }

  /// Registers this log's metrics under `prefix.` names.
  void RegisterStats(obs::Registry& registry,
                     const std::string& prefix) const {
    registry.Add(prefix + ".pages_opened", &obs_stats_.pages_opened);
    registry.Add(prefix + ".pages_evicted", &obs_stats_.pages_evicted);
    registry.Add(prefix + ".flush_bytes", &obs_stats_.flush_bytes);
  }

 private:
  /// The frame hosting `page`.
  uint8_t* Frame(uint64_t page) const {
    return frames_.block(page % buffer_pages_);
  }

  [[gnu::always_inline]] static Address Load(const Atomic<uint64_t>& a) {
    return Address{a.load(std::memory_order_acquire)};
  }
  /// Monotonic (never-backward) update; returns true if we advanced it.
  static bool MonotonicUpdate(Atomic<uint64_t>& a, Address desired,
                              Address* winner = nullptr);

  /// The paper's per-frame status (§5.2): the frame's closed page and
  /// first-use bit, and the flush progress of the page it hosts. A flush
  /// write's callback context is its frame's entry.
  struct FrameStatus {
    static constexpr uint64_t kNoPage = ~uint64_t{0};
    /// The latest page evicted from this frame: the frame may host page P
    /// iff P < buffer_pages_ or closed_page == P - buffer_pages_.
    // order: release store in the eviction trigger action, after the
    // eviction callback returns (epoch safety for every reader of the
    // frame happens-before it); acquire loads in NewPage before recycling
    // the frame and in Get's epoch check; release stores in RecoverTo
    // (idle log).
    Atomic<int64_t> closed_page{-1};
    HybridLog* log = nullptr;
    // The rest is guarded by flush_mutex_.
    bool used = false;  // some page has opened here since it was mapped
    uint64_t flush_page = kNoPage;  // the page the next two describe
    Address flush_issued;           // end of its issued writes
    uint32_t in_flight = 0;         // of those, writes not yet completed
  };

  /// True once `page`'s eviction from its frame has completed.
  bool PageClosed(uint64_t page) const {
    return frame_status_[page % buffer_pages_].closed_page.load(
               std::memory_order_acquire) >= static_cast<int64_t>(page);
  }

  /// Moves the read-only offset up to `to`. The thread whose CAS moves it
  /// arms an epoch trigger (Sec. 6.2) that propagates it to the safe
  /// read-only offset and flushes the newly immutable bytes. Returns
  /// false, moving nothing, if the epoch's drain list has no free slot.
  bool ShiftReadOnly(Address to) FASTER_REQUIRES_EPOCH();
  /// Zeroes the frame `page` opens in, unless no page has used it since
  /// it was mapped (the kernel's zero fill: a memset would only make all
  /// of it resident). Caller holds flush_mutex_.
  void ClearFrame(uint64_t page);
  /// Issues device writes for [flush_issued_, limit), one chunk per page.
  /// Holds flush_mutex_ only to claim each chunk, never across the write.
  /// Requires epoch protection (reads page frames via Get).
  void IssueFlushes(Address limit) FASTER_REQUIRES_EPOCH();
  /// Completion of one write of the page `context` (its FrameStatus)
  /// hosts: advances flushed_until_ across every page whose issued writes
  /// have all completed.
  static void FlushCallback(void* context, Status result, uint32_t bytes);
  /// FlushCallback's error path: sets io_error_ and logs the failure. Out
  /// of line, cold and before the lock, so the common path keeps its frame.
  [[gnu::cold, gnu::noinline]] static void FlushFailed(FrameStatus* frame,
                                                       Status result);

  IDevice* device_;
  LightEpoch* epoch_;
  std::function<void(Address, Address)> eviction_callback_;
  uint64_t buffer_pages_;
  uint64_t ro_lag_pages_;
  bool read_cache_mode_;

  /// All `buffer_pages_` frames, one guard page after each; the kernel
  /// zeroes a frame on first use, NewPage/RecoverTo on reuse.
  MemoryRegion frames_;
  /// frame_status_[f] describes frame f.
  std::unique_ptr<FrameStatus[]> frame_status_;

  /// Packed (page << 32 | offset); offset may transiently exceed the page
  /// size while a page transition is in progress.
  // order: acq_rel fetch_add in Allocate (Alg. 1); acq_rel
  // CAS for the page rollover — threads that observe the new page's offset
  // also observe its zeroing (memset on reuse, kernel-zeroed on first use);
  // acquire loads; release store in RecoverTo. Disjoint allocations alone
  // need only the fetch_add's atomicity; its acq_rel is for that handshake.
  alignas(64) Atomic<uint64_t> tail_page_offset_;
  // Region markers: monotone frontiers — acquire loads, acq_rel CAS-loop
  // in MonotonicUpdate; release store only in RecoverTo (idle log).
  // Safe-RO and eviction propagate only through epoch trigger actions
  // (§6.2), so a marker observed by any thread is already safe for all.
  // order: acquire load; acq_rel CAS; release store (RecoverTo).
  alignas(64) Atomic<uint64_t> begin_address_;
  // order: acquire load; acq_rel CAS; release store (RecoverTo).
  alignas(64) Atomic<uint64_t> head_address_;
  // order: acquire load; acq_rel CAS; release store (RecoverTo).
  alignas(64) Atomic<uint64_t> read_only_address_;
  // order: acquire load; acq_rel CAS; release store (RecoverTo).
  alignas(64) Atomic<uint64_t> safe_read_only_address_;
  // order: acquire load; acq_rel CAS; release store (RecoverTo).
  alignas(64) Atomic<uint64_t> flushed_until_;

  // Guards flush_issued_, the non-atomic fields of frame_status_ and the
  // page rollover. Held only while those are updated (and a reused frame
  // is zeroed): never across a device call or an epoch bump, so it is
  // never re-entered.
  std::mutex flush_mutex_;
  Address flush_issued_;
  // order: release store from the flush-completion callback (IO thread);
  // acquire load in io_error() so the reader observes the failed write's
  // bookkeeping.
  Atomic<bool> io_error_{false};

  mutable ObsStats obs_stats_;
};

}  // namespace faster

#endif  // FASTER_CORE_HYBRID_LOG_H_
