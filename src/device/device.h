#ifndef FASTER_DEVICE_DEVICE_H_
#define FASTER_DEVICE_DEVICE_H_

#include <cstdint>
#include <string>

#include "core/status.h"
#include "obs/clock.h"
#include "obs/stats.h"

namespace faster {

/// Completion callback for device I/O. Invoked exactly once per issued
/// operation: before the submitting call returns on a synchronous device,
/// or on whichever thread polls on io_uring; `context` is the caller's
/// opaque pointer, `result` the outcome, `bytes` the number of bytes
/// transferred.
using IoCallback = void (*)(void* context, Status result, uint32_t bytes);

/// One read in a coalesced batch submission (see ReadBatchAsync). Plain
/// aggregate so callers can build an array on the stack.
struct IoReadRequest {
  uint64_t offset = 0;
  void* dst = nullptr;
  uint32_t len = 0;
  IoCallback callback = nullptr;
  void* context = nullptr;
};

/// Abstract block device backing the HybridLog's stable region (Sec. 5.2).
///
/// The log issues sector-aligned page flushes (write) and record-sized
/// random reads (read). The callback runs exactly once: before the call
/// returns on a synchronous device, or when a thread polls on io_uring.
/// The asynchrony of Sec. 5.3 lives in the store (a pending read's
/// context, CompletePending), not here. Implementations: `FileDevice`
/// (POSIX file, pread/pwrite at submit or io_uring), `MemoryDevice`
/// (in-RAM, used for tests and scaled-down benchmarks), and `NullDevice`
/// (discards writes, for pure in-memory experiments).
class IDevice {
 public:
  virtual ~IDevice() = default;

  /// Asynchronously writes `[src, src+len)` to device offset `offset`.
  virtual Status WriteAsync(const void* src, uint64_t offset, uint32_t len,
                            IoCallback callback, void* context) = 0;

  /// Asynchronously reads `len` bytes from device offset `offset` into
  /// `dst` (caller-owned, must outlive the operation).
  virtual Status ReadAsync(uint64_t offset, void* dst, uint32_t len,
                           IoCallback callback, void* context) = 0;

  /// Issues `n` reads as one group. Returns kOk if every request was
  /// accepted; otherwise the status of the first rejected request, with
  /// `*accepted` (when non-null) set to its index. Requests `[0,
  /// *accepted)` were accepted and their callbacks fire exactly once, as
  /// with ReadAsync; requests `[*accepted, n)` were NOT issued and never
  /// fire — the caller owns completing or failing them. The default stops
  /// at the first rejection so the accepted set is always a prefix;
  /// FileDevice overrides this to submit a kernel ring's share as one
  /// io_uring_enter.
  virtual Status ReadBatchAsync(const IoReadRequest* requests, uint32_t n,
                                uint32_t* accepted = nullptr) {
    for (uint32_t i = 0; i < n; ++i) {
      const IoReadRequest& r = requests[i];
      Status s = ReadAsync(r.offset, r.dst, r.len, r.callback, r.context);
      if (s != Status::kOk) {
        if (accepted != nullptr) *accepted = i;
        return s;
      }
    }
    if (accepted != nullptr) *accepted = n;
    return Status::kOk;
  }

  /// Completion polling: reaps the calling thread's queued operations,
  /// invoking their callbacks on this thread. Returns the number of
  /// callbacks delivered. A synchronous device has nothing queued and
  /// returns 0.
  virtual uint32_t Poll() { return 0; }

  /// Poll(), plus every other thread's queued operations — used by stall
  /// loops (e.g. waiting on a flush another thread submitted) and Drain so
  /// progress never depends on the submitting thread polling again.
  virtual uint32_t PollAll() { return Poll(); }

  /// Blocks until every operation issued before this call has completed
  /// (a no-op on a synchronous device).
  virtual void Drain() {}

  /// Total bytes ever written (monotonic; used to measure log growth).
  virtual uint64_t bytes_written() const = 0;

  /// Registers this device's metrics (if any) under `prefix.` names.
  /// Compiled out unless FASTER_STATS; the default exposes nothing.
  virtual void RegisterStats(obs::StatRegistry& /*registry*/,
                             const std::string& /*prefix*/) const {}
};

/// Metrics shared by the concrete devices: operation counts and
/// submit-to-completion latency (on io_uring, includes the time until a
/// poll reaps it).
struct DeviceObsStats {
  obs::StatCounter reads;
  obs::StatCounter writes;
  obs::StatHistogram read_ns;
  obs::StatHistogram write_ns;

  /// Counts one finished op submitted at `submit_ns`.
  void Finished(bool write, uint64_t submit_ns) {
    (write ? writes : reads).Inc();
    if constexpr (obs::kStatsEnabled) {
      (write ? write_ns : read_ns).Record(obs::NowNs() - submit_ns);
    }
  }

  void Register(obs::StatRegistry& registry, const std::string& prefix) const {
    registry.Add(prefix + ".reads", &reads);
    registry.Add(prefix + ".writes", &writes);
    registry.Add(prefix + ".read_ns", &read_ns);
    registry.Add(prefix + ".write_ns", &write_ns);
  }
};

/// How a synchronous device completes an op: `execute(&bytes)` moves the
/// data and returns the op's status, then `callback` runs, both on the
/// calling thread before the submitting call returns. Both run under one
/// I/O stamp (obs::RunIo), so the op's io_queue, io_exec and io_complete
/// stages are stamped as on io_uring.
template <class Execute>
void CompleteAtSubmit(DeviceObsStats& stats, bool write, IoCallback callback,
                      void* context, Execute&& execute) {
  obs::StatIoStamp stamp = obs::StatIoStamp::Now();
  Status status = Status::kOk;
  uint32_t bytes = 0;
  obs::RunIo(stamp, obs::IoHop::kExecute, [&] {
    status = execute(&bytes);
    stats.Finished(write, stamp.submit_ns);
  });
  obs::RunIo(stamp, obs::IoHop::kDeliver,
             [&] { callback(context, status, bytes); });
}

}  // namespace faster

#endif  // FASTER_DEVICE_DEVICE_H_
