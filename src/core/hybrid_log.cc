#include "core/hybrid_log.h"

#include <cassert>
#include <cstring>
#include <new>
#include <thread>

#include "obs/log.h"

namespace faster {

namespace {
// The first 64 bytes of the address space are reserved so that no record
// ever has logical address 0 (the invalid address / list terminator).
constexpr uint64_t kFirstAddress = 64;
}  // namespace

HybridLog::HybridLog(const LogConfig& config, IDevice* device,
                     LightEpoch* epoch)
    : device_{device},
      epoch_{epoch},
      read_cache_mode_{config.read_cache_mode},
      tail_page_offset_{kFirstAddress},
      begin_address_{kFirstAddress},
      head_address_{kFirstAddress},
      read_only_address_{kFirstAddress},
      safe_read_only_address_{kFirstAddress},
      flushed_until_{kFirstAddress},
      flush_issued_{Address{kFirstAddress}} {
  buffer_pages_ = std::max<uint64_t>(config.memory_size_bytes >>
                                         Address::kOffsetBits,
                                     2);
  double mf = std::min(std::max(config.mutable_fraction, 0.0), 1.0);
  // The mutable region is `ro_lag_pages_` pages behind the tail; it must
  // leave at least one page of read-only runway so pages can become
  // flushable before their frames are needed again.
  ro_lag_pages_ = static_cast<uint64_t>(mf * static_cast<double>(buffer_pages_));
  if (ro_lag_pages_ >= buffer_pages_) ro_lag_pages_ = buffer_pages_ - 1;

  frames_ = MemoryRegion::Reserve(Address::kPageSize, buffer_pages_);
  if (!frames_) throw std::bad_alloc();
  for (uint64_t i = 0; i < buffer_pages_; ++i) {
    closed_page_.push_back(std::make_unique<Atomic<int64_t>>(-1));
  }
  frame_used_.assign(buffer_pages_, false);
  frame_used_[0] = true;  // page 0 is open
}

HybridLog::~HybridLog() { device_->Drain(); }

bool HybridLog::MonotonicUpdate(Atomic<uint64_t>& a, Address desired,
                                Address* winner) {
  uint64_t current = a.load(std::memory_order_acquire);
  while (current < desired.control()) {
    if (a.compare_exchange_weak(current, desired.control(),
                                std::memory_order_acq_rel)) {
      if (winner != nullptr) *winner = desired;
      return true;
    }
  }
  if (winner != nullptr) *winner = Address{current};
  return false;
}

Address HybridLog::tail_address() const {
  uint64_t tpo = tail_page_offset_.load(std::memory_order_acquire);
  uint64_t page = tpo >> 32;
  uint64_t offset = std::min<uint64_t>(tpo & 0xffffffffull,
                                       Address::kPageSize);
  return Address{(page << Address::kOffsetBits) + offset};
}

Address HybridLog::Allocate(uint32_t size, uint64_t* closed_page) {
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

Address HybridLog::AllocateExtent(uint32_t size, uint32_t count) {
  FASTER_EPOCH_VERIFY(epoch_->IsProtected(),
                      "log extent allocation without epoch protection");
  assert(size % 8 == 0 && size > 0 && count > 0);
  uint64_t total = static_cast<uint64_t>(size) * count;
  if (total > Address::kPageSize) {
    return Address::Invalid();
  }
  uint64_t tpo =
      tail_page_offset_.fetch_add(total, std::memory_order_acq_rel);
  uint64_t page = tpo >> 32;
  uint64_t offset = tpo & 0xffffffffull;
  if (offset + total <= Address::kPageSize) {
    return Address{page, offset};
  }
  // Overflowed the page. Leave the page closing to the next per-record
  // Allocate, whose failure path drives NewPage + epoch refresh.
  return Address::Invalid();
}

bool HybridLog::NewPage(uint64_t old_page) {
  // The epoch triggers armed here (safe-RO propagation, frame eviction)
  // only drain if this thread's refreshes can advance safety.
  assert(epoch_->IsProtected());
  // Page transitions are rare (once per page); a mutex keeps the
  // frame-recycling logic simple without touching the allocation fast path.
  std::lock_guard<std::recursive_mutex> lock{flush_mutex_};

  uint64_t tpo = tail_page_offset_.load(std::memory_order_acquire);
  if ((tpo >> 32) != old_page) {
    return true;  // Another thread already opened the next page.
  }
  uint64_t new_page = old_page + 1;

  // Shift the read-only offset to maintain its lag from the tail
  // (Sec. 6.1); propagate to the safe read-only offset via an epoch
  // trigger (Sec. 6.2) which also makes the newly immutable pages
  // eligible for flushing.
  if (new_page > ro_lag_pages_) {
    Address desired_ro{(new_page - ro_lag_pages_) << Address::kOffsetBits};
    Address winner;
    if (MonotonicUpdate(read_only_address_, desired_ro, &winner)) {
      epoch_->BumpCurrentEpoch([this, winner]() {
        // Trigger actions drain only from epoch calls that require
        // protection, so the running thread holds the capability.
        AssertEpochProtected(*epoch_);
        UpdateSafeReadOnly(winner);
      });
    }
  }

  // Shift the head if the buffer would otherwise overflow; pages may only
  // be evicted once they are flushed (Sec. 5.2).
  if (new_page >= buffer_pages_) {
    uint64_t desired_head_page = new_page - buffer_pages_ + 1;
    uint64_t flushed_page = read_cache_mode_
                                ? desired_head_page
                                : Load(flushed_until_).page();
    uint64_t new_head_page = std::min(desired_head_page, flushed_page);
    Address new_head{new_head_page << Address::kOffsetBits};
    Address old_head = Load(head_address_);
    Address winner;
    if (MonotonicUpdate(head_address_, new_head, &winner)) {
      uint64_t from_page = old_head.page();
      uint64_t to_page = winner.page();
      epoch_->BumpCurrentEpoch([this, from_page, to_page]() {
        AssertEpochProtected(*epoch_);
        // The epoch is safe: no thread still reads these pages. Let the
        // eviction callback (read cache, Appendix D) inspect them before
        // the frames become recyclable.
        if (eviction_callback_ != nullptr) {
          eviction_callback_(Address{from_page << Address::kOffsetBits},
                             Address{to_page << Address::kOffsetBits});
        }
        obs_stats_.pages_evicted.Add(to_page - from_page);
        obs::StatLog(obs::LogLevel::kInfo, "hlog", "pages evicted",
                     obs::LogField{"from_page", from_page},
                     obs::LogField{"to_page", to_page});
        for (uint64_t p = from_page; p < to_page; ++p) {
          closed_page_[p % buffer_pages_]->store(
              static_cast<int64_t>(p), std::memory_order_release);
        }
      });
    }
    if (new_head_page < desired_head_page) {
      obs_stats_.alloc_stalls.Inc();
      // Rate-limited: a stalled allocator retries this path in a tight
      // refresh loop; one report per window is plenty.
      static obs::StatLogRateLimit stall_limit{100'000'000};  // 100ms
      obs::StatLogLimited(stall_limit, obs::LogLevel::kWarn, "hlog",
                          "allocation stalled on flush frontier",
                          obs::LogField{"want_head_page", desired_head_page},
                          obs::LogField{"flushed_page", flushed_page});
      // On io_uring the flush frontier only advances when someone reaps
      // the queued writes — including writes queued by other (possibly
      // stalled or departed) threads, hence PollAll (a synchronous
      // device completed them at submit and has nothing to reap). Safe
      // under flush_mutex_: it is recursive, so CompleteFlush
      // re-entering on this thread is fine.
      device_->PollAll();
      return false;  // Flush frontier not far enough yet; caller refreshes.
    }
  }

  // The new page's frame must have had its previous tenant evicted.
  uint64_t frame = new_page % buffer_pages_;
  if (new_page >= buffer_pages_ &&
      closed_page_[frame]->load(std::memory_order_acquire) !=
          static_cast<int64_t>(new_page - buffer_pages_)) {
    obs_stats_.alloc_stalls.Inc();
    static obs::StatLogRateLimit evict_limit{100'000'000};  // 100ms
    obs::StatLogLimited(evict_limit, obs::LogLevel::kWarn, "hlog",
                        "allocation stalled on frame eviction",
                        obs::LogField{"new_page", new_page});
    // Eviction waits on the flush frontier too (see above): keep io_uring
    // writes moving while the caller's refresh loop spins.
    device_->PollAll();
    return false;  // Eviction trigger hasn't run; caller refreshes.
  }

  ClearFrame(new_page);
  obs_stats_.pages_opened.Inc();
  uint64_t expected = tail_page_offset_.load(std::memory_order_acquire);
  while ((expected >> 32) == old_page) {
    uint64_t desired = new_page << 32;
    if (tail_page_offset_.compare_exchange_weak(expected, desired,
                                                std::memory_order_acq_rel)) {
      return true;
    }
  }
  return true;
}

void HybridLog::ClearFrame(uint64_t page) {
  uint64_t frame = page % buffer_pages_;
  if (frame_used_[frame]) std::memset(Frame(page), 0, Address::kPageSize);
  frame_used_[frame] = true;
}

void HybridLog::UpdateSafeReadOnly(Address new_safe) {
  std::lock_guard<std::recursive_mutex> lock{flush_mutex_};
  UpdateSafeReadOnlyLocked(new_safe);
}

void HybridLog::UpdateSafeReadOnlyLocked(Address new_safe) {
  Address winner;
  MonotonicUpdate(safe_read_only_address_, new_safe, &winner);
  if (read_cache_mode_) {
    // Read-cache pages are never flushed (their records already live on
    // the primary log); the flush frontier trivially follows the safe
    // read-only offset so eviction can proceed.
    MonotonicUpdate(flushed_until_, winner);
    return;
  }
  IssueFlushesLocked(winner);
}

void HybridLog::IssueFlushesLocked(Address limit) {
  while (flush_issued_ < limit) {
    Address chunk_end = std::min(limit, flush_issued_.NextPageStart());
    auto* ctx = new FlushContext{this, flush_issued_, chunk_end, 0};
    uint32_t len = static_cast<uint32_t>(chunk_end - flush_issued_);
    if constexpr (obs::kStatsEnabled) {
      ctx->issue_ns = obs::NowNs();
    }
    obs_stats_.flush_chunks.Inc();
    obs_stats_.flush_bytes.Add(len);
    obs::StatLog(obs::LogLevel::kDebug, "hlog", "flush chunk issued",
                 obs::LogField{"start", flush_issued_.control()},
                 obs::LogField{"len", static_cast<uint64_t>(len)});
    device_->WriteAsync(Get(flush_issued_), flush_issued_.control(), len,
                        &HybridLog::FlushCallback, ctx);
    flush_issued_ = chunk_end;
  }
}

void HybridLog::FlushCallback(void* context, Status result, uint32_t) {
  auto* ctx = static_cast<FlushContext*>(context);
  // I/O errors are recorded but the frontier still advances so the log
  // cannot deadlock; callers that care (checkpoint) check io_error().
  if (result != Status::kOk) {
    ctx->log->io_error_.store(true, std::memory_order_release);
    obs::StatLog(obs::LogLevel::kError, "hlog", "flush write failed",
                 obs::LogField{"start", ctx->start.control()},
                 obs::LogField{"end", ctx->end.control()},
                 obs::LogField{"status", static_cast<uint64_t>(result)});
  }
  if constexpr (obs::kStatsEnabled) {
    ctx->log->obs_stats_.flush_ns.Record(obs::NowNs() - ctx->issue_ns);
  }
  ctx->log->CompleteFlush(ctx->start, ctx->end);
  delete ctx;
}

void HybridLog::CompleteFlush(Address start, Address end) {
  std::lock_guard<std::recursive_mutex> lock{flush_mutex_};
  completed_flushes_[start.control()] = end.control();
  // Advance the flush frontier across contiguous completed chunks.
  uint64_t frontier = flushed_until_.load(std::memory_order_acquire);
  for (;;) {
    auto it = completed_flushes_.find(frontier);
    if (it == completed_flushes_.end()) break;
    frontier = it->second;
    completed_flushes_.erase(it);
  }
  MonotonicUpdate(flushed_until_, Address{frontier});
}

Status HybridLog::AsyncGetFromDisk(Address address, uint32_t size, void* dst,
                                   IoCallback callback, void* context) {
  return device_->ReadAsync(address.control(), dst, size, callback, context);
}

Status HybridLog::AsyncGetFromDiskBatch(const IoReadRequest* requests,
                                        uint32_t n, uint32_t* accepted) {
  return device_->ReadBatchAsync(requests, n, accepted);
}

Status HybridLog::ReadFromDiskSync(Address address, uint32_t size, void* dst) {
  // order: release store from the IO callback publishes `result`; acquire
  // load in the spin loop pairs with it.
  std::atomic<int> done{0};
  Status result = Status::kOk;
  struct SyncCtx {
    std::atomic<int>* done;
    Status* result;
  } ctx{&done, &result};
  Status submitted = device_->ReadAsync(
      address.control(), dst, size,
      [](void* c, Status s, uint32_t) {
        auto* sc = static_cast<SyncCtx*>(c);
        *sc->result = s;
        sc->done->store(1, std::memory_order_release);
      },
      &ctx);
  // A rejected read never fires its callback.
  if (submitted != Status::kOk) return submitted;
  while (done.load(std::memory_order_acquire) == 0) {
    // A synchronous device has already run the callback; io_uring
    // completes the read on the thread that polls.
    device_->Poll();
    std::this_thread::yield();
  }
  return result;
}

Address HybridLog::ShiftReadOnlyToTail(bool wait) {
  assert(epoch_->IsProtected());
  Address tail = tail_address();
  Address winner;
  if (MonotonicUpdate(read_only_address_, tail, &winner)) {
    epoch_->BumpCurrentEpoch([this, winner]() {
      AssertEpochProtected(*epoch_);
      UpdateSafeReadOnly(winner);
    });
  }
  if (wait) {
    while (Load(flushed_until_) < tail) {
      epoch_->Refresh();
      // Reap io_uring flush writes — ours and other threads' — so the
      // frontier can advance.
      device_->PollAll();
      std::this_thread::yield();
    }
  }
  return tail;
}

bool HybridLog::ShiftBeginAddress(Address new_begin) {
  return MonotonicUpdate(begin_address_, new_begin);
}

void HybridLog::RecoverTo(Address begin, Address tail) {
  begin_address_.store(begin.control(), std::memory_order_release);
  head_address_.store(tail.control(), std::memory_order_release);
  read_only_address_.store(tail.control(), std::memory_order_release);
  safe_read_only_address_.store(tail.control(), std::memory_order_release);
  flushed_until_.store(tail.control(), std::memory_order_release);
  {
    std::lock_guard<std::recursive_mutex> lock{flush_mutex_};
    flush_issued_ = tail;
    completed_flushes_.clear();
  }
  // Mark every frame's previous tenant as evicted so allocation can resume
  // at `tail` (possibly mid-page): frame f's last pre-tail page is treated
  // as closed.
  uint64_t tail_page = tail.page();
  for (uint64_t f = 0; f < buffer_pages_; ++f) {
    int64_t last;
    uint64_t mod = tail_page % buffer_pages_;
    uint64_t delta = (mod >= f) ? (mod - f) : (mod + buffer_pages_ - f);
    int64_t p = static_cast<int64_t>(tail_page) - static_cast<int64_t>(delta);
    if (f == mod) p -= static_cast<int64_t>(buffer_pages_);
    last = p;
    closed_page_[f]->store(last < 0 ? -1 : last, std::memory_order_release);
  }
  ClearFrame(tail_page);
  tail_page_offset_.store((tail_page << 32) | tail.offset(),
                          std::memory_order_release);
}

}  // namespace faster
