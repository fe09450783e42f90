// Stress: synchronous I/O (DESIGN.md §13) under churn. Worker threads run
// a spilling-log workload on a MemoryDevice, which completes every op at
// submit: a worker's cold read and its callback run inside its own
// ReadAsync, and a page flush and its completion inside whichever
// worker's epoch refresh issues it. Meanwhile the main thread races index
// Grow, checkpoints and log GC (ShiftBeginAddress) against them. TSan
// target: the per-frame flush bookkeeping (completions from any worker),
// the pending contexts' ready lists, and the NewPage and
// ShiftReadOnlyToTail stall loops, all under real contention.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/faster.h"
#include "core/functions.h"
#include "device/memory_device.h"
#include "stress_common.h"

namespace faster {
namespace {

using Store = FasterKv<CountStoreFunctions>;

// pthread_create can fail transiently (EAGAIN) while the parallel ctest
// run fork-storms the box. If std::thread's constructor throws out of the
// test body, unwinding destroys the already-spawned joinable writers and
// std::terminate fires ("terminate called without an active exception"),
// turning a resource blip into a SIGABRT. Retry briefly instead; `fn` is
// copied per attempt because a failed construction may consume it.
template <typename Fn>
std::thread SpawnWithRetry(const Fn& fn) {
  for (int attempt = 0;; ++attempt) {
    try {
      return std::thread{fn};
    } catch (const std::system_error&) {
      if (attempt >= 16) throw;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
}

TEST(StressIoPollTest, PollRacesGrowCheckpointAndGc) {
  constexpr int kWriters = 3;
  constexpr uint64_t kKeySpace = 4096;
  const uint64_t kOpsPerThread = stress::ScaleOps(30000);

  // No I/O threads at all: every flush write and cold read below executes
  // on the worker that submits it.
  MemoryDevice device;
  Store::Config cfg;
  cfg.table_size = 64;  // heavy chains + two doublings
  cfg.log.memory_size_bytes = 4ull << Address::kOffsetBits;
  cfg.log.mutable_fraction = 0.5;
  Store store{cfg, &device};

  const uint64_t initial_size = store.index().size();
  std::vector<std::unordered_map<uint64_t, uint64_t>> models(kWriters);
  std::atomic<int> writers_done{0};

  std::vector<std::thread> threads;
  // Joins on every exit path: if anything below throws (gtest unwinds the
  // test body), a joinable writer must not reach ~thread().
  struct JoinGuard {
    std::vector<std::thread>& ts;
    ~JoinGuard() {
      for (auto& t : ts) {
        if (t.joinable()) t.join();
      }
    }
  } join_guard{threads};
  for (int t = 0; t < kWriters; ++t) {
    threads.push_back(SpawnWithRetry([&, t] {
      // Signal completion even if a fatal ASSERT returns early, so the
      // main thread's churn loop below can never spin forever (gtest
      // still records the writer's failure).
      struct DoneGuard {
        std::atomic<int>& done;
        ~DoneGuard() { done.fetch_add(1); }
      } done_guard{writers_done};
      std::mt19937_64 rng = stress::ThreadRng(static_cast<uint64_t>(t));
      auto& model = models[t];
      store.StartSession();
      for (uint64_t i = 0; i < kOpsPerThread; ++i) {
        uint64_t k = (rng() % (kKeySpace / kWriters)) * kWriters +
                     static_cast<uint64_t>(t);
        uint64_t roll = rng() % 4;
        if (roll == 0) {
          ASSERT_EQ(store.Upsert(k, k + 1), Status::kOk);
          model[k] = k + 1;
        } else if (roll == 1 && model.count(k) != 0) {
          // Cold reads of spilled keys drive the pending-I/O poll loop.
          // kNotFound is possible once GC truncates the key's record.
          uint64_t out = UINT64_MAX;
          Status s = store.Read(k, 0, &out);
          if (s == Status::kPending) {
            ASSERT_TRUE(store.CompletePending(true));
          } else {
            ASSERT_TRUE(s == Status::kOk || s == Status::kNotFound);
          }
        } else {
          uint64_t d = rng() % 100;
          Status s = store.Rmw(k, d);
          if (s == Status::kPending) {
            ASSERT_TRUE(store.CompletePending(true));
            s = Status::kOk;
          }
          ASSERT_EQ(s, Status::kOk);
          model[k] += d;
        }
        if (i % 128 == 0) store.CompletePending(false);
      }
      store.StopSession();
    }));
  }

  // Churn from the main thread: grow twice, checkpoint (flush-to-tail
  // waits poll foreign queues), and GC the log prefix.
  std::string dir =
      "/tmp/faster_stress_io_poll_" + std::to_string(::getpid());
  bool gc_shifted = false;
  store.StartSession();
  store.GrowIndex();
  (void)store.Checkpoint(dir);
  store.GrowIndex();
  while (writers_done.load() < kWriters) {
    Address begin = store.hlog().begin_address();
    Address safe = store.hlog().safe_read_only_address();
    if (safe > begin && safe.control() - begin.control() > (2u << 16)) {
      gc_shifted |=
          store.ShiftBeginAddress(Address{begin.control() + (1u << 14)});
    }
    store.CompletePending(false);
    store.Refresh();
    std::this_thread::yield();
  }
  store.StopSession();
  for (auto& t : threads) t.join();
  std::filesystem::remove_all(dir);

  EXPECT_EQ(store.index().size(), initial_size * 4);
  EXPECT_FALSE(store.index().IsResizing());

  // Exact-once completion accounting end to end. GC complicates exact
  // equality: an Rmw on a truncated key re-initializes it, so the store
  // can hold *less* than the model (pre-truncation accumulation lost) —
  // but never more. A doubled I/O completion double-applies an RMW delta
  // and overshoots the model; a lost completion hangs CompletePending
  // above. So: out == v without GC, out <= v with it.
  store.StartSession();
  for (int t = 0; t < kWriters; ++t) {
    for (const auto& [k, v] : models[t]) {
      uint64_t out = UINT64_MAX;
      Status s = store.Read(k, 0, &out);
      if (s == Status::kPending) {
        ASSERT_TRUE(store.CompletePending(true));
        s = out != UINT64_MAX ? Status::kOk : Status::kNotFound;
      }
      if (s == Status::kNotFound && gc_shifted) {
        continue;  // truncated below the GC'd begin address
      }
      ASSERT_EQ(s, Status::kOk) << "key " << k;
      if (gc_shifted) {
        ASSERT_LE(out, v) << "key " << k;
      } else {
        ASSERT_EQ(out, v) << "key " << k;
      }
    }
  }
  store.StopSession();
}

}  // namespace
}  // namespace faster
