#ifndef FASTER_DEVICE_URING_DEVICE_H_
#define FASTER_DEVICE_URING_DEVICE_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "core/annotations.h"
#include "core/thread.h"
#include "device/device.h"
#include "obs/clock.h"
#include "obs/stats.h"

/// Linux io_uring backend for FileDevice (IoPathMode::kUring; DESIGN.md
/// §13), the one device path that queues. Each submitting thread owns a
/// kernel ring: submitting an op fills one SQE and makes one io_uring_enter
/// syscall (no wakeup, no pool thread), and completions are reaped in
/// pure userspace by polling the CQ ring; any thread's PollAll may reap
/// any ring.
///
/// Deliberately liburing-free: raw io_uring_setup/io_uring_enter syscalls
/// against <linux/io_uring.h>, so the build grows no dependency. Compiled
/// to a stub (Supported() == false) when the header is unavailable
/// (CMake flag FASTER_IO_URING); FileDevice then degrades kUring to
/// synchronous I/O. Runtime availability is probed too — sandboxes and
/// old kernels fail the probe (ENOSYS/EPERM) and degrade the same way.

namespace faster {

/// One device operation as it crosses the kernel ring.
struct IoOp {
  enum class Kind : uint8_t { kRead, kWrite };
  Kind kind = Kind::kRead;
  uint64_t offset = 0;
  void* buf = nullptr;  // destination (read) or source (write)
  uint32_t len = 0;
  IoCallback callback = nullptr;
  void* context = nullptr;
  /// Stamped by Submit; the reaper delivers the op under it (obs::RunIo).
  [[no_unique_address]] obs::StatIoStamp stamp;
};

/// Runs one op synchronously on the calling thread: FileDevice's
/// pread/pwrite loop, for the ops a ring cannot take and the remainder of
/// a short transfer.
class IoOpExecutor {
 public:
  virtual ~IoOpExecutor() = default;
  /// Executes `op` to completion; `*bytes` receives the bytes transferred.
  virtual Status ExecuteOp(const IoOp& op, uint32_t* bytes) = 0;
};

/// io_uring metrics ("io.poll_*" family; compiled out unless FASTER_STATS
/// like every obs counter).
struct IoPollStats {
  obs::StatCounter submits;           // ops placed on a kernel ring
  obs::StatCounter poll_calls;        // Poll()/PollAll() invocations
  obs::StatCounter poll_empty;        // polls that found nothing
  obs::StatCounter poll_completions;  // callbacks delivered by polling
  obs::StatCounter sq_full_inline;    // no ring slot: executed at submit
  obs::StatCounter foreign_execs;     // ops reaped from another's ring

  void Register(obs::Registry& registry, const std::string& prefix) const {
    registry.Add(prefix + ".poll_submits", &submits);
    registry.Add(prefix + ".poll_calls", &poll_calls);
    registry.Add(prefix + ".poll_empty", &poll_empty);
    registry.Add(prefix + ".poll_completions", &poll_completions);
    registry.Add(prefix + ".poll_sq_full_inline", &sq_full_inline);
    registry.Add(prefix + ".poll_foreign_execs", &foreign_execs);
  }
};

class UringIo {
 public:
  /// Probes the kernel once (io_uring_setup + io_uring_enter on a scratch
  /// ring). False when the build is a stub or the syscalls are
  /// unavailable/blocked.
  static bool Supported();

  /// `fd` is the target file; `inline_exec` executes an op synchronously
  /// when a ring has no free slot (backpressure never blocks and never
  /// drops a callback) and finishes short transfers.
  UringIo(int fd, IoOpExecutor& inline_exec, DeviceObsStats& dev_stats);
  ~UringIo();

  UringIo(const UringIo&) = delete;
  UringIo& operator=(const UringIo&) = delete;

  /// Submits `op` from the calling thread's ring with one io_uring_enter.
  /// An op that cannot get a ring slot is executed and completed inline on
  /// the calling thread.
  ///
  /// Submit/Poll/PollAll require an epoch-protected session: the rings
  /// are indexed by Thread::Id() (valid only inside a session), and the
  /// delivered callbacks touch epoch-protected store state
  /// (tools/check_thread_safety.sh enforces this under clang).
  void Submit(const IoOp& op) FASTER_REQUIRES_EPOCH();

  /// Reaps the calling thread's completion ring, invoking callbacks on
  /// this thread. Returns callbacks delivered.
  uint32_t Poll() FASTER_REQUIRES_EPOCH();

  /// Reaps every thread's ring (kernel completions outlive their
  /// submitting thread; any thread may deliver them).
  uint32_t PollAll() FASTER_REQUIRES_EPOCH();

  /// Blocks (polling) until every submitted op has completed.
  /// Deliberately NOT epoch-annotated: it runs from device teardown and
  /// checkpoint quiescence points where no session exists.
  void Drain();

  bool AllIdle() const;

  void RegisterStats(obs::Registry& registry,
                     const std::string& prefix) const {
    stats_.Register(registry, prefix);
  }

 private:
  struct Ring;

  Ring* RingFor(uint32_t tid, bool create);
  uint32_t Reap(Ring& ring);
  /// Computes final status/bytes for one reaped CQE, synchronously
  /// completing short transfers via inline_exec_.
  Status Finish(const IoOp& op, int res, uint32_t* bytes);
  void Deliver(IoOp& op, Status status, uint32_t bytes);
  void InlineFallback(const IoOp& op);

  int fd_ = -1;
  IoOpExecutor& inline_exec_;
  DeviceObsStats& dev_stats_;
  // order: release store publishes a lazily created ring (CAS, acq_rel);
  // acquire loads let foreign reapers observe a fully constructed ring.
  std::atomic<Ring*> rings_[Thread::kMaxThreads] = {};
  mutable IoPollStats stats_;
};

}  // namespace faster

#endif  // FASTER_DEVICE_URING_DEVICE_H_
