#ifndef FASTER_DEVICE_URING_DEVICE_H_
#define FASTER_DEVICE_URING_DEVICE_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "core/thread.h"
#include "device/device.h"
#include "device/io_queue_pair.h"

/// Linux io_uring backend for FileDevice (IoPathMode::kUring; DESIGN.md
/// §13). Each submitting thread owns a kernel ring: submission fills SQEs
/// and makes one io_uring_enter syscall per batch (no wakeup, no pool
/// thread), and completions are reaped in pure userspace by polling the
/// CQ ring — the same no-handoff protocol as the software IoQueuePair,
/// with the kernel as the executor.
///
/// Deliberately liburing-free: raw io_uring_setup/io_uring_enter syscalls
/// against <linux/io_uring.h>, so the build grows no dependency. Compiled
/// to a stub (Supported() == false) when the header is unavailable
/// (CMake flag FASTER_IO_URING); FileDevice then degrades kUring to
/// kPolling. Runtime availability is probed too — sandboxes and old
/// kernels fail the probe (ENOSYS/EPERM) and degrade the same way.

namespace faster {

class UringIo {
 public:
  /// Probes the kernel once (io_uring_setup + io_uring_enter on a scratch
  /// ring). False when the build is a stub or the syscalls are
  /// unavailable/blocked.
  static bool Supported();

  /// `fd` is the target file; `inline_exec` executes an op synchronously
  /// when a ring has no free slot (backpressure never blocks and never
  /// drops a callback).
  UringIo(int fd, IoOpExecutor& inline_exec, DeviceObsStats* dev_stats);
  ~UringIo();

  UringIo(const UringIo&) = delete;
  UringIo& operator=(const UringIo&) = delete;

  /// Submits `ops[0..n)` from the calling thread's ring as one
  /// io_uring_enter. Ops that cannot get a ring slot are executed and
  /// completed inline on the calling thread.
  void Submit(const IoOp* ops, uint32_t n);

  /// Reaps the calling thread's completion ring, invoking callbacks on
  /// this thread. Returns callbacks delivered.
  uint32_t Poll();

  /// Reaps every thread's ring (kernel completions outlive their
  /// submitting thread; any thread may deliver them).
  uint32_t PollAll();

  /// Blocks (polling) until every submitted op has completed.
  void Drain();

  bool AllIdle() const;

  void RegisterStats(obs::StatRegistry& registry,
                     const std::string& prefix) const {
    stats_.Register(registry, prefix);
  }

 private:
  struct Ring;

  Ring* RingFor(uint32_t tid, bool create);
  uint32_t Reap(Ring& ring);
  /// Computes final status/bytes for one reaped CQE, synchronously
  /// completing short transfers via inline_exec_. `counted` reports
  /// whether inline_exec_ already recorded device stats for this op.
  Status Finish(const IoOp& op, int res, uint32_t* bytes, bool* counted);
  void Deliver(IoOp& op, Status status, uint32_t bytes);
  void InlineFallback(IoOp op);

  int fd_ = -1;
  IoOpExecutor& inline_exec_;
  DeviceObsStats* dev_stats_;
  // order: release store publishes a lazily created ring (CAS, acq_rel);
  // acquire loads let foreign reapers observe a fully constructed ring.
  std::atomic<Ring*> rings_[Thread::kMaxThreads] = {};
  mutable IoPollStats stats_;
};

}  // namespace faster

#endif  // FASTER_DEVICE_URING_DEVICE_H_
