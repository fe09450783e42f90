#ifndef FASTER_OBS_FLIGHT_RECORDER_H_
#define FASTER_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <mutex>

#include "core/epoch.h"
#include "obs/slowlog.h"
#include "obs/span.h"
#include "obs/stats.h"

/// FlightRecorder: a crash black box. Stores register their metric
/// sources and epoch tables up front, and the process-wide span and
/// slow-op rings are attached once (allocation and locking are allowed
/// then); when the process dies — an epoch-verifier abort, an assert's
/// SIGABRT, a stray SIGSEGV/SIGBUS — the recorder dumps the recent spans
/// (checkpoints and grows among them) and slow ops, a metric snapshot, and
/// the per-thread epoch table to stderr and (when $FASTER_FLIGHT_DIR is
/// set, cached at Install time) to $FASTER_FLIGHT_DIR/flight_<pid>.txt.
/// Log records are not kept: each is in its sink before Log returns.
///
/// Signal-safety contract (DESIGN.md §10): the dump path performs only
/// lock-free atomic loads on pre-registered pointers (every ring is read
/// through SeqRing::Read), formats integers into fixed stack/static
/// buffers with its own itoa, and calls only async-signal-safe syscalls
/// (write/open/close/getpid). No malloc, no stdio, no locks. Registration
/// data lives in fixed-size slots whose names were copied at attach time,
/// so the dump never touches std::string.
///
/// The epoch table and the metrics attach in every build (a default
/// build's registry holds the always-on counters); the process rings only
/// with stats. A dump is attempted at most once per process (re-entry
/// from the SIGABRT that follows an epoch-check hook dump is suppressed).

namespace faster {
namespace obs {

class FlightRecorder {
 public:
  static constexpr uint32_t kMaxEpochs = 8;
  static constexpr uint32_t kMaxMetrics = 192;
  static constexpr uint32_t kNameLen = 64;
  /// Most recent spans dumped per thread — keeps a 128-thread dump
  /// readable — and slow-op entries overall.
  static constexpr uint32_t kSpansPerThreadDumped = 16;
  static constexpr uint32_t kSlowlogEntriesDumped = 32;

  static FlightRecorder& Instance();

  /// Arms the recorder: caches $FASTER_FLIGHT_DIR, installs the
  /// FASTER_EPOCH_CHECK fatal hook and SIGABRT/SIGSEGV/SIGBUS handlers.
  /// Idempotent; not thread-safe against itself (call from startup code).
  void Install();
  bool installed() const {
    return installed_.load(std::memory_order_acquire);
  }

  /// Per-store registration (NOT signal-safe; call at setup time). `owner`
  /// keys the slots for Detach; names are copied. Attached pointers must
  /// stay valid until Detach(owner) — a store's obs::FlightAttachment
  /// (store_view.h) detaches in its destructor.
  void AttachEpoch(const void* owner, const LightEpoch* epoch);
  /// Copies every counter/gauge/histogram pointer out of `reg` into fixed
  /// slots (kValue snapshots are taken at attach time and marked stale).
  void AttachMetrics(const void* owner, const Registry& reg);
  void Detach(const void* owner);

  /// Attaches the process-wide rings — GlobalSpanRing() and
  /// GlobalSlowLog() — so the dump shows each once, however many stores
  /// attach. Idempotent; neither is ever destroyed, so they are never
  /// detached. Creates the span ring: stats builds only.
  void AttachProcessRings();

  /// Writes the dump. Async-signal-safe; at most one dump per process
  /// (later calls return immediately). Public so tests and fatal paths
  /// outside the installed handlers can force a dump.
  void Dump(const char* reason);

 private:
  FlightRecorder() = default;

  static void FatalHook(const char* what);
  static void OnFatalSignal(int sig);

  /// A per-store registration slot.
  struct Slot {
    // order: release store on attach/detach publishes the slot fields;
    // acquire load on the dump path pairs with it.
    std::atomic<bool> used{false};
    const void* owner = nullptr;
    char name[kNameLen] = {};
  };
  struct EpochSlot : Slot {
    const LightEpoch* epoch = nullptr;
  };
  struct MetricSlot : Slot {
    Registry::Kind kind = Registry::Kind::kValue;
    SlotSum slots;  // kCounter / kGauge
    const Histogram* histogram = nullptr;
    uint64_t value = 0;  // kValue: snapshot taken at attach time
  };

  std::mutex attach_mutex_;  // attach/detach only; never on the dump path
  EpochSlot epochs_[kMaxEpochs];
  MetricSlot metrics_[kMaxMetrics];
  // order: release store in AttachProcessRings publishes the two
  // pointers below; acquire load on the dump path pairs with it.
  std::atomic<bool> process_rings_{false};
  const SpanRing* spans_ = nullptr;
  const SlowLog* slowlog_ = nullptr;
  // order: release store at the end of Install / acquire load in
  // installed() — publishes the cached flight dir and handler state.
  std::atomic<bool> installed_{false};
  // order: acq_rel exchange — first-dump-wins guard; later dumpers (e.g.
  // the SIGABRT raised right after an epoch-check hook dump) bail out.
  std::atomic<bool> dumped_{false};
  char flight_dir_[256] = {};
  bool have_flight_dir_ = false;
};

}  // namespace obs
}  // namespace faster

#endif  // FASTER_OBS_FLIGHT_RECORDER_H_
