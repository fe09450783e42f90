// The op path allocates nothing in steady state: a counting operator new
// sees no heap allocation while a fixed-size store runs reads, upserts,
// RMWs and deletes, storage reads that go pending (their contexts come
// from the thread's free list), inserts that claim overflow buckets (from
// the index's arena) and appends that open log pages. Each page opened
// shifts the read-only and head offsets through epoch trigger actions,
// flushes pages and evicts one, all without allocating.
//
// On failure the test prints the call stack of the first allocation it
// counted.

#include <execinfo.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "core/faster.h"
#include "core/functions.h"
#include "device/memory_device.h"
#include "obs/log.h"
#include "obs/store_view.h"

namespace {

std::atomic<bool> counting{false};
std::atomic<uint64_t> allocations{0};
// The first counted allocation's call stack, captured by backtrace(),
// which allocates nothing once warmed up (WarmUpBacktrace).
void* first_stack[64];
int first_depth = 0;

void* Allocate(std::size_t size, std::size_t align = 0) {
  if (counting.load(std::memory_order_relaxed) &&
      allocations.fetch_add(1, std::memory_order_relaxed) == 0) {
    first_depth = backtrace(first_stack, 64);
  }
  if (size == 0) size = 1;
  if (align == 0) return std::malloc(size);
  return std::aligned_alloc(align, (size + align - 1) / align * align);
}

// Out of line: a free() inlined into a delete-expression would read, to
// -Wmismatched-new-delete, as freeing memory from operator new.
[[gnu::noinline]] void Release(void* p) noexcept { std::free(p); }

void* AllocateOrThrow(std::size_t size, std::size_t align = 0) {
  if (void* p = Allocate(size, align)) return p;
  throw std::bad_alloc();
}

/// backtrace() loads the unwinder, which allocates, on its first call.
void WarmUpBacktrace() {
  void* frames[4];
  backtrace(frames, 4);
}

/// Prints the first counted allocation's stack (symbol names need the
/// executable's exports; addr2line resolves the rest).
void PrintFirstAllocation() {
  std::fprintf(stderr, "first counted allocation:\n");
  backtrace_symbols_fd(first_stack, first_depth, STDERR_FILENO);
}

}  // namespace

void* operator new(std::size_t size) { return AllocateOrThrow(size); }
void* operator new[](std::size_t size) { return AllocateOrThrow(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return AllocateOrThrow(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return AllocateOrThrow(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return Allocate(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return Allocate(size);
}
void operator delete(void* p) noexcept { Release(p); }
void operator delete[](void* p) noexcept { Release(p); }
void operator delete(void* p, std::size_t) noexcept { Release(p); }
void operator delete[](void* p, std::size_t) noexcept { Release(p); }
void operator delete(void* p, std::align_val_t) noexcept { Release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { Release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  Release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  Release(p);
}

namespace faster {
namespace {

using Store = FasterKv<CountStoreFunctions>;
using Ctr = obs::StoreCounter;

constexpr uint64_t kKeys = 600000;    // 14.4 MB of records over 8 MB
constexpr uint64_t kOnStorage = 200000;  // these keys' records spilled
constexpr uint64_t kRounds = 2000;
constexpr uint64_t kOpsPerRound = 7;
constexpr uint64_t kSweepPerRound = 250;  // ~2.9 pages of appends in all
constexpr uint64_t kWindowPages = 2;       // pages the window must open

/// Overflow buckets linked into the index's chains.
uint64_t OverflowBuckets(Store& store) {
  uint64_t n = 0;
  store.index().SampleBuckets(
      store.index().size(), [&](uint32_t, uint32_t overflow) { n += overflow; },
      [](HashBucketEntry) {});
  return n;
}

/// One round of the mix; `fresh` is a key never written before. Statuses
/// land in `out`, which is preallocated.
void Round(Store& store, uint64_t r, uint64_t fresh, uint64_t* value,
           Status* out) {
  uint64_t hot = kKeys - 1 - r % 1000;  // mutable region
  uint64_t cold = (r * 7919) % kOnStorage;
  out[0] = store.Read(hot, 0, value);
  out[1] = store.Read(cold, 0, value);     // goes pending
  out[2] = store.Upsert(hot, r);           // in place
  out[3] = store.Upsert(fresh, r);         // new entry, maybe overflow
  out[4] = store.Rmw(hot - 1000, 1);       // in place
  out[5] = store.Rmw(cold + 1, 1);         // goes pending, then appends
  out[6] = store.Delete(fresh);            // in place
  if (r % 16 == 15) store.CompletePending(/*wait=*/true);
}

TEST(AllocFreeTest, SteadyStateOpMixAllocatesNothing) {
  MemoryDevice device;
  Store::Config cfg;
  cfg.table_size = uint64_t{1} << 16;  // ~9 keys per bucket: new keys
                                       // often need an overflow bucket
  cfg.log.memory_size_bytes = 2ull << Address::kOffsetBits;
  cfg.log.mutable_fraction = 0.5;
  Store store{cfg, &device};
  store.StartSession();
  for (uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_EQ(store.Upsert(k, k), Status::kOk);
  }
  ASSERT_GT(store.hlog().head_address(),
            Address{kOnStorage * Store::RecordT::size()});

  static Status statuses[kRounds * kOpsPerRound];
  uint64_t value = 0;
  uint64_t fresh = kKeys;
  // Warm up. The free list gets a context for every op that can be
  // pending at once in the window: all ops of the rounds between two
  // CompletePending calls, as page shifts make hot RMWs fuzzy too.
  constexpr uint64_t kMaxPending = 16 * kOpsPerRound;
  uint64_t pending_reads = 0;
  for (uint64_t k = 0; k < kOnStorage && pending_reads < kMaxPending; ++k) {
    pending_reads += store.Read(k, 0, &value) == Status::kPending;
  }
  ASSERT_EQ(pending_reads, kMaxPending);
  store.CompletePending(/*wait=*/true);
  for (uint64_t r = 0; r < kRounds; ++r) {
    Round(store, r, fresh++, &value, &statuses[r * kOpsPerRound]);
  }
  // Start the window on a fresh page, with every flush and trigger
  // action done.
  uint64_t page = store.hlog().tail_address().page();
  while (store.hlog().tail_address().page() == page) {
    ASSERT_EQ(store.Upsert(fresh++, 0), Status::kOk);
  }
  for (int i = 0; i < 100; ++i) {
    store.Refresh();
    device.PollAll();
    store.CompletePending(/*wait=*/true);
  }
  ASSERT_EQ(store.hlog().safe_read_only_address(),
            store.hlog().read_only_address());
  ASSERT_GE(store.hlog().flushed_until_address(),
            store.hlog().safe_read_only_address());
  page = store.hlog().tail_address().page();
  // MemoryDevice allocates a segment for each page it first stores: that
  // is storage, not the op path, so store a byte at the start of every
  // page the window may flush. Its flush overwrites the byte.
  Address flushed = store.hlog().flushed_until_address();
  for (uint64_t p = flushed.page(); p <= page + kWindowPages + 6; ++p) {
    Address start{p, 0};
    if (start < flushed) continue;  // its segment holds flushed bytes
    uint8_t zero = 0;
    ASSERT_EQ(device.WriteAsync(
                  &zero, start.control(), 1,
                  [](void*, Status s, uint32_t) { ASSERT_EQ(s, Status::kOk); },
                  nullptr),
              Status::kOk);
  }
  uint64_t overflow_before = OverflowBuckets(store);
  uint64_t ios_before = store.counters().Sum(Ctr::kIosIssued);
  uint64_t evicted_before = store.hlog().head_address().page();
  WarmUpBacktrace();

  // Upserts sweep the keys above the cold range: their records are below
  // the read-only offset, so each appends and the tail crosses pages.
  uint64_t sweep = kOnStorage;
  auto upsert_sweep = [&] {
    Status s = store.Upsert(sweep, sweep);
    sweep = sweep + 1 < kKeys ? sweep + 1 : kOnStorage;
    return s;
  };
  counting.store(true);
  for (uint64_t r = 0; r < kRounds; ++r) {  // other cold keys than above
    Round(store, kRounds + r, fresh++, &value, &statuses[r * kOpsPerRound]);
    for (uint64_t i = 0; i < kSweepPerRound; ++i) {
      ASSERT_EQ(upsert_sweep(), Status::kOk);
    }
  }
  store.CompletePending(/*wait=*/true);
  counting.store(false);

  EXPECT_EQ(allocations.load(), 0u);
  if (allocations.load() != 0) PrintFirstAllocation();
  EXPECT_GE(store.hlog().tail_address().page(), page + kWindowPages)
      << "opened fewer than " << kWindowPages << " pages";
  EXPECT_GT(store.hlog().head_address().page(), evicted_before)
      << "evicted no page";
  EXPECT_GT(store.counters().Sum(Ctr::kIosIssued), ios_before);
  EXPECT_GT(OverflowBuckets(store), overflow_before);
  uint64_t pending = 0;
  for (Status s : statuses) {
    ASSERT_TRUE(s == Status::kOk || s == Status::kPending) << StatusName(s);
    pending += s == Status::kPending;
  }
  EXPECT_GT(pending, 0u);
  store.StopSession();
}

// An enabled record is formatted on the stack and written straight to its
// sink, so logging allocates nothing either.
TEST(AllocFreeTest, EnabledLogRecordAllocatesNothing) {
  obs::Logger logger;
  logger.set_stderr(false);
  logger.set_level(obs::LogLevel::kDebug);
  ASSERT_TRUE(logger.OpenFile("/dev/null"));
  logger.Write(obs::LogLevel::kInfo, "warm", "up");  // the thread's slot
  WarmUpBacktrace();
  allocations.store(0);
  counting.store(true);
  for (uint64_t i = 0; i < 100; ++i) {
    logger.Write(obs::LogLevel::kInfo, "hlog", "pages evicted",
                 obs::LogField{"from_page", i},
                 obs::LogField{"to_page", i + 1}, obs::LogField{"errno", -1},
                 obs::LogField{"path", "/dev/null"});
  }
  counting.store(false);
  EXPECT_EQ(allocations.load(), 0u);
  if (allocations.load() != 0) PrintFirstAllocation();
}

}  // namespace
}  // namespace faster
