#ifndef FASTER_DEVICE_MEMORY_DEVICE_H_
#define FASTER_DEVICE_MEMORY_DEVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "device/device.h"

namespace faster {

/// In-RAM device: stores flushed pages in heap segments keyed by offset.
///
/// Substitution note (see DESIGN.md §2): the paper's evaluation ran the log
/// on a FusionIO NVMe SSD. In this container we cannot reproduce that
/// hardware; `MemoryDevice` keeps the store's entire asynchronous software
/// path (pending contexts, CompletePending, completion callbacks) with
/// deterministic I/O latency, so larger-than-memory experiments measure
/// FASTER's code paths rather than container disk noise.
///
/// Synchronous (DESIGN.md §13): each op's segment copy and its callback
/// run on the calling thread before WriteAsync/ReadAsync returns. The
/// device starts no thread and queues nothing.
class MemoryDevice : public IDevice {
 public:
  /// `num_io_threads` is ignored (no device starts a thread); it stays so
  /// that existing `MemoryDevice{n}` call sites keep compiling.
  explicit MemoryDevice(uint32_t num_io_threads = 0);

  Status WriteAsync(const void* src, uint64_t offset, uint32_t len,
                    IoCallback callback, void* context) override;
  Status ReadAsync(uint64_t offset, void* dst, uint32_t len,
                   IoCallback callback, void* context) override;
  uint64_t bytes_written() const override {
    return obs_stats_.bytes_written.load(std::memory_order_relaxed);
  }

  /// Synchronous read used by recovery and the log-scan iterator.
  Status ReadSync(uint64_t offset, void* dst, uint32_t len);

  void RegisterStats(obs::Registry& registry,
                     const std::string& prefix) const override {
    obs_stats_.Register(registry, prefix);
  }

 private:
  static constexpr uint64_t kSegmentBits = 22;  // 4 MB segments
  static constexpr uint64_t kSegmentSize = uint64_t{1} << kSegmentBits;

  uint8_t* SegmentFor(uint64_t offset, bool create);
  Status WriteSync(const void* src, uint64_t offset, uint32_t len);

  std::mutex segments_mutex_;
  std::vector<std::unique_ptr<uint8_t[]>> segments_;
  mutable DeviceObsStats obs_stats_;
};

/// Device that discards writes and fails reads; models "no storage" for
/// pure in-memory configurations where the log never spills.
class NullDevice : public IDevice {
 public:
  Status WriteAsync(const void* /*src*/, uint64_t /*offset*/, uint32_t len,
                    IoCallback callback, void* context) override {
    bytes_written_.fetch_add(len, std::memory_order_relaxed);
    callback(context, Status::kOk, len);
    return Status::kOk;
  }
  Status ReadAsync(uint64_t /*offset*/, void* /*dst*/, uint32_t /*len*/,
                   IoCallback callback, void* context) override {
    callback(context, Status::kIoError, 0);
    return Status::kOk;
  }
  uint64_t bytes_written() const override {
    return bytes_written_.load(std::memory_order_relaxed);
  }

 private:
  // order: relaxed fetch_add/load — a monotonically increasing byte
  // counter for stats and tests; no data is published through it.
  std::atomic<uint64_t> bytes_written_{0};
};

}  // namespace faster

#endif  // FASTER_DEVICE_MEMORY_DEVICE_H_
