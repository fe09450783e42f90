// Death tests for the FASTER_EPOCH_CHECK runtime verifier: each test
// commits one class of epoch/region violation and proves the verifier
// aborts with a report naming that class. In default builds (verifier
// compiled out) every test GTEST_SKIPs, so the binary is safe to run in
// all configurations; CI exercises it in the FASTER_EPOCH_CHECK=ON lane.
//
// Violation classes (ISSUE 4 satellite 4):
//   1. bucket read without epoch protection (OpScope / FindEntry),
//   2. log dereference without epoch protection,
//   3. log dereference below the head address (recycled frame),
//   4. in-place write below the safe read-only offset (torn flush),
//   5. epoch refresh while holding an index OpScope (a trigger action the
//      refresh runs may wait on the scope's own chunk pin), including the
//      in-line refresh of a BumpCurrentEpoch that finds the drain list
//      full.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <thread>

#include "core/epoch_check.h"
#include "core/faster.h"
#include "core/functions.h"
#include "core/hash_index.h"
#include "core/hybrid_log.h"
#include "device/memory_device.h"
#include "obs/flight_recorder.h"
#include "obs/store_view.h"

namespace faster {
namespace {

using Store = FasterKv<CountStoreFunctions>;

// Every verifier abort must also leave a flight-recorder dump in the
// death output (the verifier's fatal hook fires before abort()).
const char kDumpMarkers[] =
    ".*FASTER FLIGHT RECORDER BEGIN.*FASTER FLIGHT RECORDER END";

Store::Config SmallCfg(uint64_t pages) {
  Store::Config cfg;
  cfg.table_size = 1024;
  cfg.log.memory_size_bytes = pages << Address::kOffsetBits;
  cfg.log.mutable_fraction = 0.9;
  cfg.refresh_interval = 1u << 30;  // tests drive epochs explicitly
  return cfg;
}

class EpochCheckTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!kEpochCheckEnabled) {
      GTEST_SKIP() << "FASTER_EPOCH_CHECK is off; verifier compiled out";
    }
    // The stores and devices below own threads; re-execute the test binary
    // for the death statement instead of forking a threaded process.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    // Arm the crash black box: the death-test child re-runs SetUp, so the
    // verifier's fatal hook dumps the recorder before each abort below.
    obs::FlightRecorder::Instance().Install();
  }
  MemoryDevice device_;
};

// Each violation lives in its own function: EXPECT_DEATH is a macro, so
// top-level commas (brace-init, multi-arg calls) in an inline statement
// would be parsed as extra macro arguments.

// Class 1a: pinning a hash chunk without epoch protection.
void UnprotectedOpScope() {
  LightEpoch epoch;
  HashIndex index{64, &epoch};
  KeyHash hash{0xdeadbeefull};
  HashIndex::OpScope scope{index, hash};  // BAD: never Protect()ed
}

TEST_F(EpochCheckTest, UnprotectedOpScopeAborts) {
  EXPECT_DEATH(
      UnprotectedOpScope(),
      std::string{"FASTER_EPOCH_CHECK violation: index operation "
                  "\\(OpScope\\) without epoch protection"} +
          kDumpMarkers);
}

// Class 1b: traversing a bucket after the session dropped protection.
void UnprotectedFindEntry() {
  LightEpoch epoch;
  HashIndex index{64, &epoch};
  KeyHash hash{0xdeadbeefull};
  epoch.Protect();
  HashIndex::OpScope scope{index, hash};
  epoch.Unprotect();  // BAD: scope outlives the protection
  HashIndex::FindResult result;
  index.FindEntry(scope, hash, &result);
}

TEST_F(EpochCheckTest, UnprotectedFindEntryAborts) {
  EXPECT_DEATH(
      UnprotectedFindEntry(),
      std::string{"FASTER_EPOCH_CHECK violation: bucket read "
                  "\\(FindEntry\\) without epoch protection"} +
          kDumpMarkers);
}

// Class 5: refreshing inside an OpScope. During a Grow's prepare phase the
// scope pins its chunk, and a read-cache eviction the refresh runs would
// wait for that chunk's pins to drain; the verifier flags the refresh in
// any phase.
void RefreshUnderOpScope() {
  LightEpoch epoch;
  HashIndex index{64, &epoch};
  KeyHash hash{0xdeadbeefull};
  epoch.Protect();
  HashIndex::OpScope scope{index, hash};
  epoch.Refresh();  // BAD: refresh before the scope is released
}

TEST_F(EpochCheckTest, RefreshUnderOpScopeAborts) {
  EXPECT_DEATH(RefreshUnderOpScope(),
               std::string{"FASTER_EPOCH_CHECK violation: epoch refresh "
                           "under an index OpScope"} +
                   kDumpMarkers);
}

// Arms no-op actions until the drain list is full. The calling thread
// does not refresh, so none of them can drain yet.
void FillDrainList(LightEpoch& epoch, const std::function<void()>& action) {
  while (epoch.NumOutstandingActions() < LightEpoch::kDrainListSize) {
    epoch.BumpCurrentEpoch(action);
  }
}

// Class 5, in-line: a bump that finds the drain list full refreshes to
// drain it, which under a scope is the refresh above.
void InlineDrainUnderOpScope() {
  LightEpoch epoch;
  HashIndex index{64, &epoch};
  KeyHash hash{0xdeadbeefull};
  epoch.Protect();
  FillDrainList(epoch, [] {});
  HashIndex::OpScope scope{index, hash};
  epoch.BumpCurrentEpoch([] {});  // BAD: drains under the scope
}

TEST_F(EpochCheckTest, InlineDrainUnderOpScopeAborts) {
  EXPECT_DEATH(InlineDrainUnderOpScope(),
               std::string{"FASTER_EPOCH_CHECK violation: epoch refresh "
                           "under an index OpScope"} +
                   kDumpMarkers);
}

// The legal path: an upsert whose allocation opens a page while the drain
// list is full. NewPage cannot arm its triggers under the op's OpScope;
// it hands the op back, and the actions drain in the op's refresh once
// the scope is closed.
TEST_F(EpochCheckTest, PageOpenWithAFullDrainListHandsTheOpBack) {
  // Outlive the store: an action left in the list runs as it closes.
  uint32_t ran = 0;
  uint32_t max_held_scopes = 0;
  Store store{SmallCfg(2), &device_};
  store.StartSession();
  constexpr uint64_t kRecord = Store::Layout::kFixedSize;
  uint64_t key = 0;
  // Fill the log's two frames up to the last record that fits.
  for (;;) {
    Address tail = store.hlog().tail_address();
    if (tail.page() == 1 && tail.offset() + kRecord > Address::kPageSize) {
      break;
    }
    ASSERT_EQ(store.Upsert(key++, 0), Status::kOk);
  }
  FillDrainList(store.epoch(), [&] {
    ++ran;
    max_held_scopes = std::max(max_held_scopes, store.epoch().HeldOpScopes());
  });
  uint32_t armed = store.epoch().NumOutstandingActions();
  ASSERT_EQ(store.Upsert(key, 0), Status::kOk);  // opens page 2
  EXPECT_EQ(store.hlog().tail_address().page(), 2u);
  EXPECT_GE(ran, 1u);
  EXPECT_LE(ran, armed);
  EXPECT_EQ(max_held_scopes, 0u) << "a trigger action ran under the op's "
                                    "OpScope";
  store.StopSession();
}

// Class 2: dereferencing a log address without epoch protection — the
// page frame may be concurrently reclaimed.
void UnprotectedLogGet() {
  LightEpoch epoch;
  MemoryDevice device;
  LogConfig cfg;
  cfg.memory_size_bytes = 4ull << Address::kOffsetBits;
  HybridLog log{cfg, &device, &epoch};
  epoch.Protect();
  uint64_t closed_page = 0;
  Address a = log.Allocate(64, &closed_page);
  ASSERT_TRUE(a.IsValid());
  epoch.Unprotect();
  log.Get(a);  // BAD: no longer protected
}

TEST_F(EpochCheckTest, UnprotectedLogGetAborts) {
  EXPECT_DEATH(
      UnprotectedLogGet(),
      std::string{"FASTER_EPOCH_CHECK violation: log dereference \\(Get\\) "
                  "without epoch protection"} +
          kDumpMarkers);
}

// Class 3: dereferencing an address below the head — the frame may hold a
// newer page's bytes. Head advancement is manufactured by overflowing a
// two-page in-memory buffer.
TEST_F(EpochCheckTest, BelowHeadLogGetAborts) {
  auto cfg = SmallCfg(2);
  cfg.log.mutable_fraction = 0.5;
  cfg.refresh_interval = 256;
  Store store{cfg, &device_};
  store.StartSession();
  for (uint64_t k = 0; k < 400000; ++k) {
    ASSERT_EQ(store.Upsert(k, k), Status::kOk);
  }
  ASSERT_GT(store.hlog().head_address().control(), 64u);
  // With the store attached, the dump must carry the process-wide spans
  // section — when stats are compiled in; the markers alone otherwise.
  obs::FlightAttachment flight = obs::AttachFlightRecorder(store.view());
  std::string dump_re = ".*FASTER FLIGHT RECORDER BEGIN";
  if (obs::kStatsEnabled) dump_re += ".*-- spans";
  dump_re += ".*FASTER FLIGHT RECORDER END";
  EXPECT_DEATH(
      store.hlog().Get(Address{64}),
      std::string{"FASTER_EPOCH_CHECK violation: log dereference \\(Get\\) "
                  "below the head address"} +
          dump_re);
  store.StopSession();
}

// The legal side of class 3: another thread moves the head past an
// address after this thread checked it against the head. The page is not
// closed until this thread refreshes, so its frame still holds it and Get
// must not abort.
TEST_F(EpochCheckTest, HeadPassingACheckedAddressBeforeRefreshIsLegal) {
  LightEpoch epoch;
  LogConfig cfg;
  cfg.memory_size_bytes = 4ull << Address::kOffsetBits;
  cfg.mutable_fraction = 0.5;  // pages behind the tail's last 2 read-only
  HybridLog log{cfg, &device_, &epoch};
  constexpr uint32_t kSize = 4096;
  epoch.Protect();
  auto allocate = [&] {
    for (;;) {
      uint64_t closed_page = 0;
      Address a = log.Allocate(kSize, &closed_page);
      if (a.IsValid()) return a;
      while (!log.NewPage(closed_page)) epoch.Refresh();
      epoch.Refresh();
    }
  };
  Address a = allocate();
  ASSERT_EQ(a.page(), 0u);
  // Opening page 3 makes pages 0-1 read-only; refreshes flush page 0.
  while (allocate().page() < 3) {
  }
  epoch.Refresh();
  epoch.Refresh();
  ASSERT_GE(log.flushed_until_address().page(), 1u);
  ASSERT_GE(a, log.head_address());  // this thread's check
  std::thread other{[&] {
    epoch.Protect();
    while (log.head_address() <= a) {
      uint64_t closed_page = 0;
      if (!log.Allocate(kSize, &closed_page).IsValid()) {
        log.NewPage(closed_page);  // moves the head, then waits on eviction
      }
    }
    epoch.Unprotect();
  }};
  other.join();
  ASSERT_LT(a, log.head_address());
  std::memset(log.Get(a), 0xAB, kSize);
  epoch.Refresh();  // runs the eviction trigger before the log goes
  epoch.Unprotect();
}

// Class 4: in-place mutation below the safe read-only offset — those
// bytes may be mid-flush, so a write would tear the on-storage image.
// VerifyMutableAddress is the hook every in-place mutation site
// (Upsert/RMW/tombstone) calls before touching record bytes.
TEST_F(EpochCheckTest, InPlaceWriteBelowSafeReadOnlyAborts) {
  Store store{SmallCfg(16), &device_};
  store.StartSession();
  ASSERT_EQ(store.Upsert(1, 10), Status::kOk);  // record at address 64
  store.hlog().ShiftReadOnlyToTail(false);
  store.Refresh();  // trigger runs: safe read-only reaches the tail
  store.Refresh();
  ASSERT_GT(store.hlog().safe_read_only_address().control(), 64u);
  EXPECT_DEATH(
      store.hlog().VerifyMutableAddress(Address{64}),
      std::string{"FASTER_EPOCH_CHECK violation: in-place update below the "
                  "safe read-only offset"} +
          kDumpMarkers);
  store.StopSession();
}

// Sanity: the legal paths do NOT trip the verifier — a store exercised
// across all regions with correct bracketing runs to completion.
TEST_F(EpochCheckTest, ProtectedOperationsPass) {
  Store store{SmallCfg(16), &device_};
  store.StartSession();
  for (uint64_t k = 0; k < 1000; ++k) {
    ASSERT_EQ(store.Upsert(k, k), Status::kOk);
  }
  store.hlog().ShiftReadOnlyToTail(false);
  store.Refresh();
  store.Refresh();
  for (uint64_t k = 0; k < 1000; ++k) {
    ASSERT_EQ(store.Rmw(k, 1), Status::kOk);  // RCU from the RO region
    uint64_t out = 0;
    ASSERT_EQ(store.Read(k, 0, &out), Status::kOk);
    ASSERT_EQ(out, k + 1);
  }
  store.StopSession();
}

}  // namespace
}  // namespace faster
