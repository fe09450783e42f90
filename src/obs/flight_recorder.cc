#include "obs/flight_recorder.h"

#include "core/epoch_check.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <type_traits>

namespace faster {
namespace obs {

namespace {

/// Append-only formatter over a caller-supplied buffer, flushed with
/// write(2). Everything here is async-signal-safe: no allocation, no
/// stdio, no locale. Output goes to up to two fds (stderr + flight file).
class SafeWriter {
 public:
  SafeWriter(char* buf, size_t cap, int fd1, int fd2)
      : buf_{buf}, cap_{cap}, fd1_{fd1}, fd2_{fd2} {}

  void Str(const char* s) {
    while (*s != '\0') Ch(*s++);
  }

  /// Length-bounded append for unterminated ring text (control characters
  /// replaced; the ring stores raw bytes).
  void StrN(const char* s, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      char c = s[i];
      Ch(static_cast<unsigned char>(c) >= 0x20 ? c : '.');
    }
  }

  void U64(uint64_t v) {
    char tmp[20];
    size_t n = 0;
    do {
      tmp[n++] = static_cast<char>('0' + v % 10);
      v /= 10;
    } while (v != 0);
    while (n > 0) Ch(tmp[--n]);
  }

  void I64(int64_t v) {
    if (v < 0) {
      Ch('-');
      U64(static_cast<uint64_t>(-(v + 1)) + 1);
    } else {
      U64(static_cast<uint64_t>(v));
    }
  }

  void Hex(uint64_t v) {
    Str("0x");
    char tmp[16];
    size_t n = 0;
    do {
      tmp[n++] = "0123456789abcdef"[v & 0xf];
      v >>= 4;
    } while (v != 0);
    while (n > 0) Ch(tmp[--n]);
  }

  /// Appends each part: strings as-is, integers in decimal, Hex in hex.
  template <class... Parts>
  void Put(const Parts&... parts) {
    (Part(parts), ...);
  }

  size_t size() const { return len_; }

  struct HexOf {
    uint64_t v;
  };

  void Flush() {
    if (len_ == 0) return;
    WriteFull(fd1_);
    WriteFull(fd2_);
    len_ = 0;
  }

 private:
  void Part(const char* s) { Str(s); }
  void Part(HexOf h) { Hex(h.v); }
  template <class T>
    requires std::is_integral_v<T>
  void Part(T v) {
    if constexpr (std::is_signed_v<T>) {
      I64(v);
    } else {
      U64(v);
    }
  }

  void Ch(char c) {
    if (len_ == cap_) Flush();
    buf_[len_++] = c;
  }

  void WriteFull(int fd) {
    if (fd < 0) return;
    size_t off = 0;
    while (off < len_) {
      ssize_t n = ::write(fd, buf_ + off, len_ - off);
      if (n <= 0) return;  // nothing useful to do about EIO at crash time
      off += static_cast<size_t>(n);
    }
  }

  char* buf_;
  size_t cap_;
  size_t len_ = 0;
  int fd1_;
  int fd2_;
};

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

void FlightRecorder::AttachEventRing(const void* owner, const char* name,
                                     const EventRing* ring) {
  std::lock_guard<std::mutex> guard{attach_mutex_};
  Claim(event_rings_, owner, [&](EventRingSlot& slot) {
    CopyName(slot.name, sizeof slot.name, name);
    slot.ring = ring;
  });
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
  log_ = &Logger::Global().ring();
  slowlog_ = &GlobalSlowLog();
  process_rings_.store(true, std::memory_order_release);
}

void FlightRecorder::Detach(const void* owner) {
  std::lock_guard<std::mutex> guard{attach_mutex_};
  Release(event_rings_, owner);
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
    // terminator concept; with no fds it never flushes).
    static char path[sizeof flight_dir_ + 64];
    SafeWriter pw{path, sizeof path - 1, -1, -1};
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
      w.Put("  tid=", tid, " local_epoch=", local, "\n");
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

  // --- Last events per thread, per attached ring ----------------------
  for (const EventRingSlot& slot : event_rings_) {
    if (!slot.used.load(std::memory_order_acquire)) continue;
    w.Put("-- events[", slot.name, "] (last ", kEventsPerThreadDumped,
          " per thread) --\n");
    for (uint32_t tid = 0; tid < Thread::kMaxThreads; ++tid) {
      slot.ring->rings()[tid].ForEach(
          kEventsPerThreadDumped, [&w](uint64_t, const TraceEvent& e) {
            w.Put("  tid=", e.tid, " ns=", e.ns,
                  " ev=", EvName(static_cast<Ev>(e.id)), " arg=", e.arg,
                  "\n");
          });
    }
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

    // --- Structured-log ring tail --------------------------------------
    w.Put("-- log (last ", kLogRecordsPerThreadDumped,
          " records per thread) --\n");
    for (uint32_t tid = 0; tid < LogRing::NumShards(); ++tid) {
      log_->shard(tid).ring.ForEach(
          kLogRecordsPerThreadDumped,
          [&w](uint64_t, const LogRing::Record& rec) {
            w.Put("  tid=", rec.tid, " ns=", rec.wall_ns, " ",
                  LogLevelName(static_cast<LogLevel>(rec.level)), " ");
            w.StrN(rec.text, rec.len);
            w.Str("\n");
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
