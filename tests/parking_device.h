#ifndef FASTER_TESTS_PARKING_DEVICE_H_
#define FASTER_TESTS_PARKING_DEVICE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "device/memory_device.h"

namespace faster {

/// A MemoryDevice that parks every read until some thread calls PollAll,
/// then runs it, callback included, on that thread: the queueing shape of
/// io_uring on any host, so tests can hand a completion across threads.
/// Writes complete at submit, as on MemoryDevice. A read can be made to
/// fail at completion instead (FailRead). Shared by faster_test,
/// stats_test and compaction_test.
class ParkingDevice : public MemoryDevice {
 public:
  Status ReadAsync(uint64_t offset, void* dst, uint32_t len,
                   IoCallback callback, void* context) override {
    Parked read{offset, dst, len, callback, context,
                fail_in_.load(std::memory_order_relaxed) != 0 &&
                    fail_in_.fetch_sub(1, std::memory_order_relaxed) == 1};
    if (!parking_.load(std::memory_order_relaxed)) {
      Complete(read);
      return Status::kOk;
    }
    std::lock_guard<std::mutex> lock{mutex_};
    parked_.push_back(read);
    return Status::kOk;
  }
  /// Runs every parked read on the calling thread; returns how many.
  uint32_t PollAll() override {
    std::vector<Parked> reads;
    {
      std::lock_guard<std::mutex> lock{mutex_};
      reads.swap(parked_);
    }
    for (const Parked& r : reads) Complete(r);
    return static_cast<uint32_t>(reads.size());
  }
  void Drain() override { PollAll(); }
  /// How many reads are parked now.
  size_t parked() {
    std::lock_guard<std::mutex> lock{mutex_};
    return parked_.size();
  }
  /// While off, reads complete at submit, as on MemoryDevice; reads
  /// parked before stay parked.
  void set_parking(bool on) { parking_.store(on, std::memory_order_relaxed); }
  /// The `n`-th read submitted from now on (1: the next) completes with
  /// kIoError and reads nothing: a device that accepted the read, then
  /// failed it.
  void FailRead(uint32_t n) { fail_in_.store(n, std::memory_order_relaxed); }

 private:
  struct Parked {
    uint64_t offset;
    void* dst;
    uint32_t len;
    IoCallback callback;
    void* context;
    bool fail;
  };

  void Complete(const Parked& r) {
    if (r.fail) {
      r.callback(r.context, Status::kIoError, 0);
    } else {
      MemoryDevice::ReadAsync(r.offset, r.dst, r.len, r.callback, r.context);
    }
  }

  std::mutex mutex_;
  std::vector<Parked> parked_;
  // order: relaxed — set by the test thread between phases; the mutex
  // orders the parked reads themselves.
  std::atomic<bool> parking_{true};
  // order: relaxed — armed by the test thread before the reads it counts.
  std::atomic<uint32_t> fail_in_{0};
};

/// A MemoryDevice that parks every write until the test releases it, by
/// index and in any order: the out-of-order completions io_uring can
/// deliver, on any host. Reads complete at submit. Poll and PollAll
/// release nothing, so a stalled allocator cannot drain the writes behind
/// the test's back; Drain releases the rest in submission order.
class WriteParkingDevice : public MemoryDevice {
 public:
  struct ParkedWrite {
    const void* src;
    uint64_t offset;
    uint32_t len;
    IoCallback callback;
    void* context;
  };

  Status WriteAsync(const void* src, uint64_t offset, uint32_t len,
                    IoCallback callback, void* context) override {
    std::lock_guard<std::mutex> lock{mutex_};
    parked_.push_back({src, offset, len, callback, context});
    return Status::kOk;
  }
  /// The writes still parked, in submission order.
  std::vector<ParkedWrite> parked() {
    std::lock_guard<std::mutex> lock{mutex_};
    return parked_;
  }
  /// Runs parked write `i`, callback included, on the calling thread.
  void Release(size_t i) {
    ParkedWrite w;
    {
      std::lock_guard<std::mutex> lock{mutex_};
      w = parked_[i];
      parked_.erase(parked_.begin() + static_cast<std::ptrdiff_t>(i));
    }
    MemoryDevice::WriteAsync(w.src, w.offset, w.len, w.callback, w.context);
  }
  void Drain() override {
    while (!parked().empty()) Release(0);
  }

 private:
  std::mutex mutex_;
  std::vector<ParkedWrite> parked_;
};

}  // namespace faster

#endif  // FASTER_TESTS_PARKING_DEVICE_H_
