#include "core/hybrid_log.h"

#include <cassert>
#include <cstring>
#include <new>

#include "core/wait.h"
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
  frame_status_ = std::make_unique<FrameStatus[]>(buffer_pages_);
  for (uint64_t f = 0; f < buffer_pages_; ++f) frame_status_[f].log = this;
  frame_status_[0].used = true;  // page 0 is open
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

bool HybridLog::NewPage(uint64_t old_page) {
  // The epoch triggers armed here (safe-RO propagation, frame eviction)
  // only drain if this thread's refreshes can advance safety.
  assert(epoch_->IsProtected());
  uint64_t tpo = tail_page_offset_.load(std::memory_order_acquire);
  if ((tpo >> 32) != old_page) {
    return true;  // Another thread already opened the next page.
  }
  uint64_t new_page = old_page + 1;

  // Shift the read-only offset to maintain its lag from the tail
  // (Sec. 6.1).
  if (new_page > ro_lag_pages_ &&
      !ShiftReadOnly(
          Address{(new_page - ro_lag_pages_) << Address::kOffsetBits})) {
    return false;
  }

  // Shift the head if the buffer would otherwise overflow; pages may only
  // be evicted once they are flushed (Sec. 5.2), and the new page's frame
  // only reused once its previous tenant is evicted.
  if (new_page >= buffer_pages_) {
    uint64_t desired_head_page = new_page - buffer_pages_ + 1;
    uint64_t flushed_page = read_cache_mode_
                                ? desired_head_page
                                : Load(flushed_until_).page();
    uint64_t new_head_page = std::min(desired_head_page, flushed_page);
    uint64_t new_head = new_head_page << Address::kOffsetBits;
    uint64_t old_head = head_address_.load(std::memory_order_acquire);
    if (old_head < new_head) {
      // The eviction's drain-list slot is claimed first (see ShiftReadOnly).
      uint32_t slot = epoch_->TryClaimSlot();
      if (slot == LightEpoch::kNoSlot) return false;
      while (old_head < new_head &&
             !head_address_.compare_exchange_weak(old_head, new_head,
                                                  std::memory_order_acq_rel)) {
      }
      if (old_head >= new_head) {
        epoch_->ReleaseSlot(slot);
      } else {
        // The CAS winner evicts exactly the pages it moved the head past.
        // Both page numbers fit in 32 bits, so the action captures 16
        // bytes and std::function stores it without allocating.
        uint64_t pages = Address{old_head}.page() << 32 | new_head_page;
        epoch_->BumpCurrentEpoch(slot, [this, pages]() {
          AssertEpochProtected(*epoch_);
          uint64_t from_page = pages >> 32;
          uint64_t to_page = pages & 0xffffffffull;
          // The epoch is safe: no thread still reads these pages. Let the
          // eviction callback (read cache, Appendix D) inspect them
          // before the frames become recyclable.
          if (eviction_callback_ != nullptr) {
            eviction_callback_(Address{from_page << Address::kOffsetBits},
                               Address{to_page << Address::kOffsetBits});
          }
          obs_stats_.pages_evicted.Add(to_page - from_page);
          obs::Log(obs::LogLevel::kInfo, "hlog", "pages evicted",
                   obs::LogField{"from_page", from_page},
                   obs::LogField{"to_page", to_page});
          for (uint64_t p = from_page; p < to_page; ++p) {
            frame_status_[p % buffer_pages_].closed_page.store(
                static_cast<int64_t>(p), std::memory_order_release);
          }
        });
      }
    }
    if (new_head_page < desired_head_page ||
        !PageClosed(new_page - buffer_pages_)) {
      kWaitSites[kWaitAlloc].waits.fetch_add(1, std::memory_order_relaxed);
      // An ordinary roll stalls here while the flush, then the eviction,
      // that the frame waits for runs on an epoch refresh: the caller's
      // next one, or other threads'. Only a stall that this thread meets
      // unchanged for 100 ms is reported (rate-limited: the caller
      // retries in a tight refresh loop).
      struct Stall {
        const HybridLog* log;
        uint64_t new_page, flushed_page, head;
        bool operator==(const Stall&) const = default;
      };
      thread_local Stall last_stall{};
      thread_local uint64_t stalled_since = 0;
      constexpr uint64_t kStallReportNs = 100'000'000;
      Stall stall{this, new_page, flushed_page,
                  head_address_.load(std::memory_order_acquire)};
      uint64_t now = obs::NowNs();
      if (!(stall == last_stall)) {
        last_stall = stall;
        stalled_since = now;
      } else if (now - stalled_since >= kStallReportNs) {
        static obs::LogRateLimit stall_limit{kStallReportNs};
        obs::LogLimited(stall_limit, obs::LogLevel::kWarn, "hlog",
                        "allocation stalled on flush or eviction",
                        obs::LogField{"new_page", new_page},
                        obs::LogField{"flushed_page", flushed_page});
      }
      // On io_uring the flush frontier, which eviction waits on too, only
      // advances when someone reaps the queued writes — including writes
      // queued by other (possibly stalled or departed) threads, hence
      // PollAll (a synchronous device completed them at submit).
      device_->PollAll();
      return false;  // The caller refreshes, running triggers, and retries.
    }
  }

  // One thread zeroes the frame and moves the tail onto the new page;
  // allocators keep bumping the old page's offset meanwhile.
  std::lock_guard<std::mutex> lock{flush_mutex_};
  uint64_t expected = tail_page_offset_.load(std::memory_order_acquire);
  if ((expected >> 32) != old_page) return true;
  ClearFrame(new_page);
  obs_stats_.pages_opened.Inc();
  while (!tail_page_offset_.compare_exchange_weak(
      expected, new_page << 32, std::memory_order_acq_rel)) {
  }
  return true;
}

void HybridLog::ClearFrame(uint64_t page) {
  FrameStatus& frame = frame_status_[page % buffer_pages_];
  if (frame.used) std::memset(Frame(page), 0, Address::kPageSize);
  frame.used = true;
}

bool HybridLog::ShiftReadOnly(Address to) {
  if (read_only_address() >= to) return true;
  // Claim the trigger's slot before moving the marker: a full drain list
  // must not be drained here, under the OpScope of an allocating op.
  uint32_t slot = epoch_->TryClaimSlot();
  if (slot == LightEpoch::kNoSlot) return false;
  Address winner;
  if (!MonotonicUpdate(read_only_address_, to, &winner)) {
    epoch_->ReleaseSlot(slot);
    return true;
  }
  epoch_->BumpCurrentEpoch(slot, [this, winner]() {
    // Trigger actions drain only from epoch calls that require
    // protection, so the running thread holds the capability.
    AssertEpochProtected(*epoch_);
    Address safe;
    MonotonicUpdate(safe_read_only_address_, winner, &safe);
    if (read_cache_mode_) {
      // Read-cache pages are never flushed (their records already live on
      // the primary log); the flush frontier trivially follows the safe
      // read-only offset so eviction can proceed.
      MonotonicUpdate(flushed_until_, safe);
    } else {
      IssueFlushes(safe);
    }
  });
  return true;
}

void HybridLog::IssueFlushes(Address limit) {
  for (;;) {
    std::unique_lock<std::mutex> lock{flush_mutex_};
    if (flush_issued_ >= limit) return;
    Address start = flush_issued_;
    Address end = std::min(limit, start.NextPageStart());
    FrameStatus* frame = &frame_status_[start.page() % buffer_pages_];
    if (frame->flush_page != start.page()) {
      // The frame's previous page let this one open only once the flush
      // frontier had passed it, so none of its writes are in flight.
      assert(frame->in_flight == 0);
      frame->flush_page = start.page();
    }
    frame->flush_issued = end;
    ++frame->in_flight;
    flush_issued_ = end;
    lock.unlock();
    uint32_t len = static_cast<uint32_t>(end - start);
    obs_stats_.flush_bytes.Add(len);
    Status submitted = device_->WriteAsync(Get(start), start.control(), len,
                                           &HybridLog::FlushCallback, frame);
    // A refused write never calls back: complete it as a failed one, or
    // the frontier would stop here for good.
    if (submitted != Status::kOk) FlushCallback(frame, submitted, 0);
  }
}

void HybridLog::FlushCallback(void* context, Status result, uint32_t) {
  auto* frame = static_cast<FrameStatus*>(context);
  HybridLog* log = frame->log;
  // I/O errors are recorded but the frontier still advances so the log
  // cannot deadlock; callers that care (checkpoint) check io_error().
  if (result != Status::kOk) FlushFailed(frame, result);
  std::lock_guard<std::mutex> lock{log->flush_mutex_};
  --frame->in_flight;
  // A page's writes are issued in address order, so once none is in
  // flight every byte up to its flush_issued is on the device. Walk the
  // frontier across such pages; it stops at a page with a write in
  // flight (whatever order io_uring completes them in) or one whose
  // writes have not all been issued.
  Address frontier = Load(log->flushed_until_);
  for (;;) {
    const FrameStatus& f =
        log->frame_status_[frontier.page() % log->buffer_pages_];
    if (f.flush_page != frontier.page() || f.in_flight != 0 ||
        f.flush_issued <= frontier) {
      break;
    }
    frontier = f.flush_issued;
  }
  MonotonicUpdate(log->flushed_until_, frontier);
}

void HybridLog::FlushFailed(FrameStatus* frame, Status result) {
  HybridLog* log = frame->log;
  log->io_error_.store(true, std::memory_order_release);
  uint64_t page;
  {
    std::lock_guard<std::mutex> lock{log->flush_mutex_};
    page = frame->flush_page;
  }
  obs::Log(obs::LogLevel::kError, "hlog", "flush write failed",
           obs::LogField{"page", page},
           obs::LogField{"status", static_cast<uint64_t>(result)});
}

Status HybridLog::AsyncGetFromDisk(Address address, uint32_t size, void* dst,
                                   IoCallback callback, void* context) {
  return device_->ReadAsync(address.control(), dst, size, callback, context);
}

Status HybridLog::ReadFromDiskSync(Address address, uint32_t size, void* dst) {
  struct SyncRead {
    // order: release store from the IO callback publishes `result`;
    // acquire load in the wait pairs with it.
    std::atomic<bool> done{false};
    Status result = Status::kOk;
  } read;
  Status submitted = device_->ReadAsync(
      address.control(), dst, size,
      [](void* c, Status s, uint32_t) {
        auto* r = static_cast<SyncRead*>(c);
        r->result = s;
        r->done.store(true, std::memory_order_release);
      },
      &read);
  // A rejected read never fires its callback.
  if (submitted != Status::kOk) return submitted;
  WaitUntil<kWaitReadSync>(
      [&] { return read.done.load(std::memory_order_acquire); }, epoch_,
      device_);
  return read.result;
}

Address HybridLog::ShiftReadOnlyToTail(bool wait) {
  assert(epoch_->IsProtected());
  Address tail = tail_address();
  WaitUntil<kWaitShiftReadOnly>(
      [&]() FASTER_REQUIRES_EPOCH() { return ShiftReadOnly(tail); }, epoch_);
  if (wait) {
    WaitUntil<kWaitFlush>([&] { return Load(flushed_until_) >= tail; }, epoch_,
                          device_);
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
  std::lock_guard<std::mutex> lock{flush_mutex_};
  flush_issued_ = tail;
  // Mark every frame's previous tenant as evicted so allocation can resume
  // at `tail` (possibly mid-page): each frame's page among the
  // `buffer_pages_` below the tail page is treated as closed. No write is
  // in flight on an idle log.
  uint64_t tail_page = tail.page();
  for (uint64_t back = 1; back <= buffer_pages_; ++back) {
    FrameStatus& frame =
        frame_status_[(tail_page + buffer_pages_ - back) % buffer_pages_];
    assert(frame.in_flight == 0);
    frame.flush_page = FrameStatus::kNoPage;
    int64_t p = static_cast<int64_t>(tail_page) - static_cast<int64_t>(back);
    frame.closed_page.store(std::max<int64_t>(p, -1),
                            std::memory_order_release);
  }
  ClearFrame(tail_page);
  tail_page_offset_.store((tail_page << 32) | tail.offset(),
                          std::memory_order_release);
}

}  // namespace faster
