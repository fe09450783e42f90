#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "device/file_device.h"
#include "device/memory_device.h"

namespace faster {
namespace {

struct SyncIo {
  std::atomic<int> done{0};
  Status status = Status::kOk;
  static void Callback(void* ctx, Status s, uint32_t) {
    auto* self = static_cast<SyncIo*>(ctx);
    self->status = s;
    self->done.store(1, std::memory_order_release);
  }
  /// Spins until the callback fires, driving the device's poll loop: an
  /// io_uring device completes I/O only on a polling thread, never in the
  /// background (a synchronous one has already completed it).
  Status Wait(IDevice& device) {
    while (done.load(std::memory_order_acquire) == 0) {
      device.Poll();
      std::this_thread::yield();
    }
    return status;
  }
};

/// Threads of this process, from /proc/self/task.
size_t ThreadCount() {
  size_t n = 0;
  for (const auto& e : std::filesystem::directory_iterator("/proc/self/task")) {
    (void)e;
    ++n;
  }
  return n;
}

template <class D>
void WriteReadRoundTrip(D& device) {
  std::vector<uint8_t> out(4096);
  for (size_t i = 0; i < out.size(); ++i) out[i] = static_cast<uint8_t>(i);
  SyncIo w;
  device.WriteAsync(out.data(), 8192, out.size(), &SyncIo::Callback, &w);
  ASSERT_EQ(w.Wait(device), Status::kOk);

  std::vector<uint8_t> in(4096, 0);
  SyncIo r;
  device.ReadAsync(8192, in.data(), in.size(), &SyncIo::Callback, &r);
  ASSERT_EQ(r.Wait(device), Status::kOk);
  EXPECT_EQ(std::memcmp(out.data(), in.data(), out.size()), 0);
  EXPECT_EQ(device.bytes_written(), out.size());
}

TEST(MemoryDeviceTest, WriteReadRoundTrip) {
  MemoryDevice device;
  WriteReadRoundTrip(device);
}

TEST(FileDeviceTest, WriteReadRoundTrip) {
  std::string path = "/tmp/faster_device_test.log";
  ::unlink(path.c_str());
  {
    FileDevice device{path};
    EXPECT_EQ(device.mode(), IoPathMode::kPolling);
    EXPECT_EQ(device.uring_fallbacks(), 0u);
    WriteReadRoundTrip(device);
  }
  ::unlink(path.c_str());
}

// No device starts a thread, not at construction and not to run I/O.
TEST(DeviceThreadsTest, DefaultDevicesStartNoThread) {
  std::string path = "/tmp/faster_device_threads_test.log";
  ::unlink(path.c_str());
  size_t before = ThreadCount();
  {
    MemoryDevice memory;
    FileDevice file{path};
    EXPECT_EQ(ThreadCount(), before);
    WriteReadRoundTrip(memory);
    WriteReadRoundTrip(file);
    EXPECT_EQ(ThreadCount(), before);
  }
  ::unlink(path.c_str());
}

TEST(MemoryDeviceTest, ReadOfUnwrittenRegionFails) {
  MemoryDevice device;
  std::vector<uint8_t> in(64);
  SyncIo r;
  device.ReadAsync(1ull << 30, in.data(), in.size(), &SyncIo::Callback, &r);
  EXPECT_EQ(r.Wait(device), Status::kIoError);
}

TEST(MemoryDeviceTest, CrossSegmentWrite) {
  MemoryDevice device;
  // Write spanning the 4 MB segment boundary.
  std::vector<uint8_t> out(1 << 16, 0x5C);
  uint64_t offset = (1ull << 22) - 1000;
  SyncIo w;
  device.WriteAsync(out.data(), offset, out.size(), &SyncIo::Callback, &w);
  ASSERT_EQ(w.Wait(device), Status::kOk);
  std::vector<uint8_t> in(out.size());
  ASSERT_EQ(device.ReadSync(offset, in.data(), in.size()), Status::kOk);
  EXPECT_EQ(in, out);
}

TEST(MemoryDeviceTest, ConcurrentWritersToDistinctRegions) {
  MemoryDevice device;
  constexpr int kThreads = 4;
  constexpr int kWrites = 64;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<uint8_t> buf(1024, static_cast<uint8_t>(t + 1));
      for (int i = 0; i < kWrites; ++i) {
        SyncIo w;
        uint64_t off = (static_cast<uint64_t>(t) * kWrites + i) * 1024;
        device.WriteAsync(buf.data(), off, buf.size(), &SyncIo::Callback, &w);
        ASSERT_EQ(w.Wait(device), Status::kOk);
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kWrites; ++i) {
      std::vector<uint8_t> in(1024);
      uint64_t off = (static_cast<uint64_t>(t) * kWrites + i) * 1024;
      ASSERT_EQ(device.ReadSync(off, in.data(), in.size()), Status::kOk);
      EXPECT_EQ(in[0], static_cast<uint8_t>(t + 1));
      EXPECT_EQ(in[1023], static_cast<uint8_t>(t + 1));
    }
  }
}

// ---------------------------------------------------------------------
// Synchronous devices (DESIGN.md §13): MemoryDevice and FileDevice
// without io_uring run each op and its callback before the call returns.
// ---------------------------------------------------------------------

/// Counts callbacks and records the thread each one ran on.
struct CallbackLog {
  int calls = 0;
  std::thread::id thread;
  static void Callback(void* ctx, Status s, uint32_t) {
    ASSERT_EQ(s, Status::kOk);
    auto* self = static_cast<CallbackLog*>(ctx);
    ++self->calls;
    self->thread = std::this_thread::get_id();
  }
};

void ExpectCompletesAtSubmit(IDevice& device) {
  std::vector<uint8_t> page(4096, 0x7E);
  CallbackLog w;
  ASSERT_EQ(device.WriteAsync(page.data(), 0, page.size(),
                              &CallbackLog::Callback, &w),
            Status::kOk);
  EXPECT_EQ(w.calls, 1);
  EXPECT_EQ(w.thread, std::this_thread::get_id());

  std::vector<uint8_t> in(64);
  CallbackLog r;
  ASSERT_EQ(device.ReadAsync(64, in.data(), in.size(), &CallbackLog::Callback,
                             &r),
            Status::kOk);
  EXPECT_EQ(r.calls, 1);
  EXPECT_EQ(r.thread, std::this_thread::get_id());
  EXPECT_EQ(in[0], 0x7E);

  // Nothing is left for a poll to deliver, and no callback runs twice.
  EXPECT_EQ(device.Poll(), 0u);
  EXPECT_EQ(device.PollAll(), 0u);
  device.Drain();
  EXPECT_EQ(w.calls + r.calls, 2);
}

TEST(SyncDeviceTest, MemoryDeviceCompletesAtSubmit) {
  MemoryDevice device;
  ExpectCompletesAtSubmit(device);
}

TEST(SyncDeviceTest, FileDeviceCompletesAtSubmit) {
  std::string path = "/tmp/faster_device_sync_test.log";
  ::unlink(path.c_str());
  {
    FileDevice device{path, 0, IoPathMode::kPolling};
    ExpectCompletesAtSubmit(device);
  }
  ::unlink(path.c_str());
}

// ---------------------------------------------------------------------
// io_uring backend (kUring), the one path that queues. Where the kernel
// or build lacks support the device falls back to synchronous I/O and
// counts the fallback; the queueing tests then skip.
// ---------------------------------------------------------------------

/// A kUring FileDevice over `path` holding one written page of `fill`,
/// or nullptr when io_uring degraded (the caller skips).
std::unique_ptr<FileDevice> UringDeviceWithPage(const std::string& path,
                                                uint8_t fill) {
  ::unlink(path.c_str());
  auto device = std::make_unique<FileDevice>(path, 0, IoPathMode::kUring);
  if (device->mode() != IoPathMode::kUring) {
    ::unlink(path.c_str());
    return nullptr;
  }
  std::vector<uint8_t> page(4096, fill);
  SyncIo w;
  device->WriteAsync(page.data(), 0, page.size(), &SyncIo::Callback, &w);
  EXPECT_EQ(w.Wait(*device), Status::kOk);
  return device;
}

TEST(UringDeviceTest, ExactOnceAcrossConcurrentPollers) {
  std::string path = "/tmp/faster_device_uring_pollers.log";
  auto device = UringDeviceWithPage(path, 0x3A);
  if (device == nullptr) GTEST_SKIP() << "io_uring unavailable";

  // More than a ring's 64 slots, so the submitter also exercises the
  // inline path.
  constexpr uint32_t kOps = 200;
  constexpr uint32_t kPollers = 4;
  struct OpState {
    std::atomic<uint32_t> count{0};
  };
  std::vector<OpState> ops(kOps);
  static std::atomic<uint32_t> total;
  total.store(0);
  std::vector<std::vector<uint8_t>> bufs(kOps, std::vector<uint8_t>(16));

  // Submit from a dedicated thread, so every poller reaps foreign work
  // (the submitter exits with its ring still holding completions — the
  // abandoned-ring case PollAll exists for).
  std::thread submitter([&] {
    for (uint32_t i = 0; i < kOps; ++i) {
      device->ReadAsync(
          (i % 256) * 16, bufs[i].data(), 16,
          [](void* ctx, Status s, uint32_t) {
            ASSERT_EQ(s, Status::kOk);
            static_cast<OpState*>(ctx)->count.fetch_add(
                1, std::memory_order_relaxed);
            total.fetch_add(1, std::memory_order_relaxed);
          },
          &ops[i]);
    }
  });
  submitter.join();

  std::vector<std::thread> pollers;
  for (uint32_t p = 0; p < kPollers; ++p) {
    pollers.emplace_back([&] {
      while (total.load(std::memory_order_relaxed) < kOps) {
        device->PollAll();
      }
    });
  }
  for (auto& t : pollers) t.join();

  EXPECT_EQ(total.load(std::memory_order_relaxed), kOps);
  for (uint32_t i = 0; i < kOps; ++i) {
    EXPECT_EQ(ops[i].count.load(std::memory_order_relaxed), 1u) << i;
    EXPECT_EQ(bufs[i][0], 0x3A) << i;
  }
  device.reset();
  ::unlink(path.c_str());
}

TEST(UringDeviceTest, DrainWhilePollingDeliversExactlyOnce) {
  std::string path = "/tmp/faster_device_uring_drain.log";
  auto device = UringDeviceWithPage(path, 0x99);
  if (device == nullptr) GTEST_SKIP() << "io_uring unavailable";

  constexpr uint32_t kOps = 200;
  struct OpState {
    std::atomic<uint32_t> count{0};
  };
  std::vector<OpState> ops(kOps);
  static std::atomic<uint32_t> total2;
  total2.store(0);
  std::vector<std::vector<uint8_t>> bufs(kOps, std::vector<uint8_t>(16));
  std::atomic<bool> stop{false};
  // A concurrent foreign poller races Drain for the same rings (the
  // reaper-exclusion path).
  std::thread poller([&] {
    while (!stop.load(std::memory_order_acquire)) {
      device->PollAll();
    }
  });
  for (uint32_t i = 0; i < kOps; ++i) {
    device->ReadAsync(
        (i % 256) * 16, bufs[i].data(), 16,
        [](void* ctx, Status s, uint32_t) {
          ASSERT_EQ(s, Status::kOk);
          static_cast<OpState*>(ctx)->count.fetch_add(
              1, std::memory_order_relaxed);
          total2.fetch_add(1, std::memory_order_relaxed);
        },
        &ops[i]);
  }
  device->Drain();
  EXPECT_EQ(total2.load(std::memory_order_relaxed), kOps);
  stop.store(true, std::memory_order_release);
  poller.join();
  for (uint32_t i = 0; i < kOps; ++i) {
    EXPECT_EQ(ops[i].count.load(std::memory_order_relaxed), 1u) << i;
  }
  device.reset();
  ::unlink(path.c_str());
}

// Reads submitted one at a time stay queued on the submitter's ring
// until its Poll reaps them.
TEST(UringDeviceTest, SingleReadsCompleteViaPoll) {
  std::string path = "/tmp/faster_device_uring_reads.log";
  auto device = UringDeviceWithPage(path, 0xC4);
  if (device == nullptr) GTEST_SKIP() << "io_uring unavailable";

  constexpr uint32_t kN = 32;
  static std::atomic<uint32_t> reads_done;
  reads_done.store(0);
  std::vector<std::vector<uint8_t>> bufs(kN, std::vector<uint8_t>(32));
  for (uint32_t i = 0; i < kN; ++i) {
    ASSERT_EQ(device->ReadAsync(
                  i * 32, bufs[i].data(), 32,
                  [](void*, Status s, uint32_t) {
                    ASSERT_EQ(s, Status::kOk);
                    reads_done.fetch_add(1, std::memory_order_relaxed);
                  },
                  nullptr),
              Status::kOk);
  }
  while (reads_done.load(std::memory_order_relaxed) < kN) {
    device->Poll();
  }
  for (uint32_t i = 0; i < kN; ++i) EXPECT_EQ(bufs[i][0], 0xC4);
  device.reset();
  ::unlink(path.c_str());
}

TEST(UringDeviceTest, WriteReadRoundTripOrCountedFallback) {
  std::string path = "/tmp/faster_device_uring_test.log";
  ::unlink(path.c_str());
  {
    FileDevice device{path, 0, IoPathMode::kUring};
    if (device.mode() != IoPathMode::kUring) {
      EXPECT_EQ(device.mode(), IoPathMode::kPolling);
      EXPECT_EQ(device.uring_fallbacks(), 1u);
      WriteReadRoundTrip(device);
      ::unlink(path.c_str());
      return;
    }
    EXPECT_EQ(device.uring_fallbacks(), 0u);
    std::vector<uint8_t> out(4096);
    for (size_t i = 0; i < out.size(); ++i) out[i] = static_cast<uint8_t>(i);
    SyncIo w;
    device.WriteAsync(out.data(), 0, out.size(), &SyncIo::Callback, &w);
    ASSERT_EQ(w.Wait(device), Status::kOk);
    // A write the kernel completed whole counts like a synchronous one.
    EXPECT_EQ(device.bytes_written(), out.size());

    std::vector<uint8_t> in(4096, 0);
    SyncIo r;
    device.ReadAsync(0, in.data(), in.size(), &SyncIo::Callback, &r);
    ASSERT_EQ(r.Wait(device), Status::kOk);
    EXPECT_EQ(in, out);

    // Several reads in flight on the kernel ring at once.
    constexpr uint32_t kN = 16;
    static std::atomic<uint32_t> uring_done;
    uring_done.store(0);
    std::vector<std::vector<uint8_t>> bufs(kN, std::vector<uint8_t>(64));
    for (uint32_t i = 0; i < kN; ++i) {
      ASSERT_EQ(device.ReadAsync(
                    i * 64, bufs[i].data(), 64,
                    [](void*, Status s, uint32_t) {
                      ASSERT_EQ(s, Status::kOk);
                      uring_done.fetch_add(1, std::memory_order_relaxed);
                    },
                    nullptr),
                Status::kOk);
    }
    while (uring_done.load(std::memory_order_relaxed) < kN) {
      device.Poll();
      std::this_thread::yield();
    }
    for (uint32_t i = 0; i < kN; ++i) {
      EXPECT_EQ(bufs[i][0], out[i * 64]) << i;
    }
    // Reads past EOF fail like the pread path does.
    SyncIo eof;
    uint8_t tiny[8];
    device.ReadAsync(1ull << 30, tiny, sizeof(tiny), &SyncIo::Callback, &eof);
    EXPECT_EQ(eof.Wait(device), Status::kIoError);
  }
  ::unlink(path.c_str());
}

TEST(NullDeviceTest, DiscardsWritesAndFailsReads) {
  NullDevice device;
  std::vector<uint8_t> buf(64, 1);
  SyncIo w;
  device.WriteAsync(buf.data(), 0, buf.size(), &SyncIo::Callback, &w);
  EXPECT_EQ(w.Wait(device), Status::kOk);
  EXPECT_EQ(device.bytes_written(), buf.size());
  SyncIo r;
  device.ReadAsync(0, buf.data(), buf.size(), &SyncIo::Callback, &r);
  EXPECT_EQ(r.Wait(device), Status::kIoError);
}

}  // namespace
}  // namespace faster
