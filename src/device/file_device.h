#ifndef FASTER_DEVICE_FILE_DEVICE_H_
#define FASTER_DEVICE_FILE_DEVICE_H_

#include <memory>
#include <string>

#include "device/device.h"
#include "device/uring_device.h"

namespace faster {

/// The I/O path a FileDevice runs (see below).
enum class IoPathMode : uint8_t {
  kPolling,  ///< synchronous: pread/pwrite and the callback at submit
  kUring,    ///< Linux io_uring, reaped by polling; falls back to kPolling
};

/// Log device backed by a POSIX file (pread/pwrite at absolute offsets).
/// The paper points FASTER at a file on an NVMe SSD; this is the same
/// arrangement on whatever filesystem hosts `path`.
///
/// `mode` selects the I/O path (DESIGN.md §13); neither starts a thread.
/// kPolling (a historical name, kept because benchsuite/ passes it; it
/// means synchronous I/O) runs each op's pread/pwrite loop and its
/// callback before WriteAsync/ReadAsync returns. kUring submits to a
/// per-thread Linux io_uring and reaps completions in userspace when a
/// thread polls — feature-detected at build (FASTER_IO_URING) and probed
/// at runtime. When io_uring is unavailable the device falls back to
/// kPolling, logs a warning and counts it (uring_fallbacks(); mode()
/// reports the path that runs).
class FileDevice : public IDevice, private IoOpExecutor {
 public:
  /// Opens (creating if needed) `path`. `num_io_threads` is ignored (no
  /// device starts a thread); it stays so existing call sites compile.
  FileDevice(const std::string& path, uint32_t num_io_threads = 0,
             IoPathMode mode = IoPathMode::kPolling);
  ~FileDevice() override;

  Status WriteAsync(const void* src, uint64_t offset, uint32_t len,
                    IoCallback callback, void* context) override;
  Status ReadAsync(uint64_t offset, void* dst, uint32_t len,
                   IoCallback callback, void* context) override;
  uint32_t Poll() override;
  uint32_t PollAll() override;
  void Drain() override;
  uint64_t bytes_written() const override {
    return obs_stats_.bytes_written.load(std::memory_order_relaxed);
  }

  const std::string& path() const { return path_; }

  /// The effective I/O path after feature detection (a kUring request
  /// reports kPolling when io_uring is unavailable).
  IoPathMode mode() const { return mode_; }

  /// 1 when a kUring request fell back to kPolling, else 0.
  uint64_t uring_fallbacks() const { return uring_fallbacks_; }

  void RegisterStats(obs::Registry& registry,
                     const std::string& prefix) const override {
    obs_stats_.Register(registry, prefix);
    registry.AddValue(prefix + ".uring_fallbacks", uring_fallbacks_);
    if (uring_ != nullptr) uring_->RegisterStats(registry, prefix + ".io");
  }

 private:
  /// Places `op` on the io_uring ring, or runs it and its callback now.
  void Submit(const IoOp& op);

  /// IoOpExecutor (synchronous path + io_uring inline fallback): runs one
  /// op via the pread/pwrite loop.
  Status ExecuteOp(const IoOp& op, uint32_t* bytes) override;

  std::string path_;
  int fd_;
  IoPathMode mode_;
  uint64_t uring_fallbacks_ = 0;    // set once, by the constructor
  std::unique_ptr<UringIo> uring_;  // kUring only
  mutable DeviceObsStats obs_stats_;
};

}  // namespace faster

#endif  // FASTER_DEVICE_FILE_DEVICE_H_
