#include "obs/flight_recorder.h"

#include "core/epoch_check.h"
#include "obs/safe_writer.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>

namespace faster {
namespace obs {

namespace {

void CopyName(char* dst, size_t cap, const char* src) {
  size_t i = 0;
  for (; src[i] != '\0' && i + 1 < cap; ++i) dst[i] = src[i];
  dst[i] = '\0';
}

const char* SignalName(int sig) {
  switch (sig) {
    case SIGABRT: return "SIGABRT";
    case SIGSEGV: return "SIGSEGV";
    case SIGBUS: return "SIGBUS";
    default: return "signal";
  }
}

/// Fills the first free slot of `slots` under the attach mutex; the
/// release store of `used` publishes what `fill` wrote.
template <typename S, size_t K, typename Fill>
void Claim(S (&slots)[K], const void* owner, Fill fill) {
  for (S& slot : slots) {
    if (slot.used.load(std::memory_order_acquire)) continue;
    slot.owner = owner;
    fill(slot);
    slot.used.store(true, std::memory_order_release);
    return;
  }
}

template <typename S, size_t K>
void Release(S (&slots)[K], const void* owner) {
  for (S& slot : slots) {
    if (slot.used.load(std::memory_order_acquire) && slot.owner == owner) {
      slot.used.store(false, std::memory_order_release);
    }
  }
}

}  // namespace

FlightRecorder& FlightRecorder::Instance() {
  static FlightRecorder instance;
  return instance;
}

void FlightRecorder::FatalHook(const char* what) {
  Instance().Dump(what);
}

void FlightRecorder::OnFatalSignal(int sig) {
  Instance().Dump(SignalName(sig));
  // SA_RESETHAND restored the default disposition on entry, so re-raising
  // terminates with the original signal (keeping cores and death-test
  // exit codes intact).
  ::raise(sig);
}

void FlightRecorder::Install() {
  if (installed_.load(std::memory_order_acquire)) return;
  if (const char* dir = std::getenv("FASTER_FLIGHT_DIR")) {
    CopyName(flight_dir_, sizeof flight_dir_, dir);
    have_flight_dir_ = flight_dir_[0] != '\0';
  }
  SetEpochCheckFatalHook(&FlightRecorder::FatalHook);
  struct sigaction sa;
  std::memset(&sa, 0, sizeof sa);
  sa.sa_handler = &FlightRecorder::OnFatalSignal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESETHAND;
  ::sigaction(SIGABRT, &sa, nullptr);
  ::sigaction(SIGSEGV, &sa, nullptr);
  ::sigaction(SIGBUS, &sa, nullptr);
  installed_.store(true, std::memory_order_release);
}

void FlightRecorder::AttachEpoch(const void* owner, const LightEpoch* epoch) {
  std::lock_guard<std::mutex> guard{attach_mutex_};
  Claim(epochs_, owner, [&](EpochSlot& slot) { slot.epoch = epoch; });
}

void FlightRecorder::AttachMetrics(const void* owner, const Registry& reg) {
  std::lock_guard<std::mutex> guard{attach_mutex_};
  reg.ForEach([&](const std::string& name, Registry::Kind kind,
                  SlotSum slots, const Histogram* h, uint64_t value) {
    Claim(metrics_, owner, [&](MetricSlot& slot) {
      CopyName(slot.name, sizeof slot.name, name.c_str());
      slot.kind = kind;
      slot.slots = slots;
      slot.histogram = h;
      slot.value = value;
    });
  });
}

void FlightRecorder::AttachProcessRings() {
  std::lock_guard<std::mutex> guard{attach_mutex_};
  if (process_rings_.load(std::memory_order_acquire)) return;
  spans_ = &GlobalSpanRing();
  slowlog_ = &GlobalSlowLog();
  process_rings_.store(true, std::memory_order_release);
}

void FlightRecorder::Detach(const void* owner) {
  std::lock_guard<std::mutex> guard{attach_mutex_};
  Release(epochs_, owner);
  Release(metrics_, owner);
}

void FlightRecorder::Dump(const char* reason) {
  if (dumped_.exchange(true, std::memory_order_acq_rel)) return;

  // Open the flight file first so the whole dump lands in it. The buffer
  // is static (not stack) so a dump on a nearly-exhausted or guard-page
  // stack still works.
  int file_fd = -1;
  if (have_flight_dir_) {
    // "<dir>/flight_<pid>.txt", NUL-terminated by hand (SafeWriter has no
    // terminator concept; with no fds it truncates).
    static char path[sizeof flight_dir_ + 64];
    SafeWriter pw{path, sizeof path - 1};
    pw.Put(flight_dir_, "/flight_", static_cast<uint64_t>(::getpid()),
           ".txt");
    path[pw.size()] = '\0';
    file_fd = ::open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  }

  static char buf[4096];
  SafeWriter w{buf, sizeof buf, 2, file_fd};
  using Hex = SafeWriter::HexOf;

  w.Put("==== FASTER FLIGHT RECORDER BEGIN ====\nreason: ",
        reason != nullptr ? reason : "(none)", "\n");

  // --- Per-thread epoch table(s) --------------------------------------
  for (uint32_t i = 0; i < kMaxEpochs; ++i) {
    if (!epochs_[i].used.load(std::memory_order_acquire)) continue;
    const LightEpoch* epoch = epochs_[i].epoch;
    w.Put("-- epoch[", i, "] current=", epoch->CurrentEpoch(),
          " safe=", epoch->SafeToReclaimEpoch(), " --\n");
    for (uint32_t tid = 0; tid < Thread::kMaxThreads; ++tid) {
      uint64_t local = epoch->LocalEpochOf(tid);
      if (local == LightEpoch::kUnprotected) continue;
      w.Put("  tid=", tid, " local_epoch=", local);
      if (const char* site = epoch->WaitSiteOf(tid)) w.Put(" wait=", site);
      w.Str("\n");
    }
  }

  // --- Metric snapshot -------------------------------------------------
  bool metrics_header = false;
  for (const MetricSlot& slot : metrics_) {
    if (!slot.used.load(std::memory_order_acquire)) continue;
    if (!metrics_header) {
      w.Str("-- metrics --\n");
      metrics_header = true;
    }
    w.Put("  ", slot.name, " ");
    if (slot.kind == Registry::Kind::kHistogram) {
      const Histogram& h = *slot.histogram;
      w.Put("count=", h.Count(), " sum=", h.ValueSum(),
            " p50=", h.Percentile(0.50), " p99=", h.Percentile(0.99));
    } else if (slot.kind == Registry::Kind::kValue) {
      w.Put(slot.value, " (at attach)");
    } else if (slot.kind == Registry::Kind::kGauge) {
      w.I64(static_cast<int64_t>(slot.slots.Sum()));
    } else {
      w.U64(slot.slots.Sum());
    }
    w.Str("\n");
  }

  if (process_rings_.load(std::memory_order_acquire)) {
    // --- Recent spans ----------------------------------------------------
    w.Put("-- spans (last ", kSpansPerThreadDumped, " per thread) --\n");
    for (uint32_t tid = 0; tid < Thread::kMaxThreads; ++tid) {
      spans_->rings()[tid].ForEach(
          kSpansPerThreadDumped, [&w](uint64_t, const SpanRecord& s) {
            w.Put("  tid=", s.tid, " trace=", Hex{s.trace_id},
                  " span=", Hex{s.span_id}, " parent=", Hex{s.parent_id},
                  " kind=", SpanName(s.kind), " start_ns=", s.start_ns,
                  " dur_ns=", s.end_ns >= s.start_ns ? s.end_ns - s.start_ns
                                                     : 0,
                  " arg=", s.arg, "\n");
          });
    }

    // --- Slow-op log tail ------------------------------------------------
    const SlowLog::Ring& slow = slowlog_->ring();
    w.Put("-- slowlog (newest ", kSlowlogEntriesDumped, " of ", slow.End(),
          " recorded) --\n");
    slow.ForEach(kSlowlogEntriesDumped,
                 [&w](uint64_t seq, const SlowLog::Entry& e) {
                   w.Put("  id=", seq, " op=", SlowOpKindName(e.kind),
                         " tid=", e.tid, " key=", Hex{e.key_hash},
                         " total_ns=", e.total_ns,
                         e.pending ? " pending" : " sync");
                   for (uint32_t i = 0; i < kNumOpStages; ++i) {
                     if (e.stage_ns[i] == 0) continue;
                     w.Put(" ", StageName(static_cast<Stage>(i)), "=",
                           e.stage_ns[i]);
                   }
                   w.Str("\n");
                 });
  }

  w.Str("==== FASTER FLIGHT RECORDER END ====\n");
  w.Flush();
  if (file_fd >= 0) ::close(file_fd);
}

}  // namespace obs
}  // namespace faster
