#ifndef FASTER_CORE_WAIT_H_
#define FASTER_CORE_WAIT_H_

#include <atomic>
#include <cassert>
#include <cstdint>

#include "core/epoch.h"
#include "core/epoch_check.h"
#include "device/device.h"
#include "obs/clock.h"

namespace faster {

/// What a wait does each step before it yields (DESIGN.md §4, "How a
/// thread waits"). Flags: the flush wait refreshes and polls every ring.
enum WaitStep : uint8_t {
  kWaitNone = 0,     // nothing: another thread makes the progress
  kWaitRefresh = 1,  // LightEpoch::Refresh, which runs trigger actions
  kWaitPoll = 2,     // the device's Poll: this thread's completions
  kWaitPollAll = 4,  // the device's PollAll: every thread's completions
  kWaitOnce = 8,     // no loop: a one-shot back-off that counts its waits
};

/// The watchdog's bound on a wait for other threads. Sanitizers slow the
/// code about tenfold, and the bound with it. The model has no watchdog:
/// the checker's step bound and deadlock check apply there.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
inline constexpr uint64_t kWaitBoundNs = 250'000'000'000;
#else
inline constexpr uint64_t kWaitBoundNs = 25'000'000'000;
#endif
#ifdef FASTER_MODEL
inline constexpr bool kWaitWatchdog = false;
#else
inline constexpr bool kWaitWatchdog = true;
#endif

/// A named wait: its step, its watchdog bound (0: none) and two counters
/// live in every build. The counters are relaxed std::atomic, which the
/// model checker does not track, and mutable, so a constexpr site counts.
struct WaitSite {
  const char* name;
  uint8_t step;
  uint64_t bound_ns;
  mutable std::atomic<uint64_t> waits{0};  // waits that spun at least once
  mutable std::atomic<uint64_t> spins{0};
};

enum WaitSiteId : uint8_t {
  kWaitCompletePending, kWaitCheckpointRedirect, kWaitReadSync,
  kWaitShiftReadOnly,   kWaitFlush,              kWaitAlloc,
  kWaitChunkMigrated,   kWaitEpochSlot,          kWaitEpochSafety,
  kWaitBumpAndWait,     kWaitUringSubmit,        kWaitUringDrain,
  kWaitServerStop,
};

/// The store's waits, the one table of how each makes progress. A site
/// that can run under an index OpScope (read_sync, alloc, chunk_migrated)
/// must not refresh: a trigger action may wait on the scope's chunk pin.
/// Only io_uring needs the polls. The watchdog bounds the waits for other
/// threads' refreshes and in-memory work, not a wait for the device (nor
/// the server's, for workers that may wait for it): a slow device may
/// take longer than any bound and still be making progress.
inline constexpr WaitSite kWaitSites[] = {
    {"complete_pending", kWaitRefresh, 0},
    {"checkpoint_redirect", kWaitRefresh, kWaitBoundNs},
    {"read_sync", kWaitPoll, 0},
    {"shift_read_only", kWaitRefresh, kWaitBoundNs},
    {"flush", kWaitRefresh | kWaitPollAll, 0},
    {"alloc", kWaitOnce, 0},
    {"chunk_migrated", kWaitNone, kWaitBoundNs},
    {"epoch_slot", kWaitRefresh, kWaitBoundNs},
    {"epoch_safety", kWaitRefresh, kWaitBoundNs},
    {"bump_and_wait", kWaitRefresh, kWaitBoundNs},
    {"uring_submit", kWaitPoll, 0},
    {"uring_drain", kWaitPollAll, 0},
    {"server_stop", kWaitNone, 0},
};

// One spin: count it, make the site's progress, yield.
template <const WaitSite& kSite, class Device>
[[gnu::always_inline]] inline void WaitSpin(LightEpoch* epoch, Device* device)
    FASTER_NO_THREAD_SAFETY_ANALYSIS {
  kSite.spins.fetch_add(1, std::memory_order_relaxed);
  if constexpr ((kSite.step & kWaitRefresh) != 0) epoch->Refresh();
  if constexpr ((kSite.step & kWaitPoll) != 0) device->Poll();
  if constexpr ((kSite.step & kWaitPollAll) != 0) device->PollAll();
  thread_yield();
}

// A wait past its first spin. From its 1,024th spin on, it names its site
// in the caller's epoch entry (dumps, /debug/epochs) and runs the watchdog:
// a wait past its bound is a deadlock, so it fires the fatal hook (the
// flight dump) and aborts.
template <const WaitSite& kSite, class Done, class Device>
[[gnu::noinline, gnu::cold]] void WaitLong(Done done, LightEpoch* epoch,
                                           Device* device)
    FASTER_NO_THREAD_SAFETY_ANALYSIS {
  std::atomic<const char*>* named = nullptr;
  const char* outer = nullptr;
  uint64_t start_ns = 0;
  for (uint64_t spin = 2;; ++spin) {
    WaitSpin<kSite>(epoch, device);
    if (done()) break;
    if (spin % 1024 != 0) continue;
    if (start_ns == 0) {
      start_ns = obs::NowNs();
      named = epoch != nullptr ? &epoch->WaitSiteSlot() : nullptr;
      if (named) outer = named->exchange(kSite.name, std::memory_order_relaxed);
    } else if (kWaitWatchdog && kSite.bound_ns != 0 &&
               obs::NowNs() - start_ns > kSite.bound_ns) {
      EpochCheckFail(kSite.name, "FASTER wait watchdog: spun past bound: ");
    }
  }
  if (named != nullptr) named->store(outer, std::memory_order_relaxed);
}

/// The one spin-wait: returns once `done()` is true. A wait whose
/// predicate already holds costs that one test. Otherwise each spin makes
/// the site's progress (refreshing `epoch`, polling `device`, which the
/// site's step then requires), yields and tests again.
template <const WaitSite& kSite, class Done, class Device = IDevice>
[[gnu::always_inline]] inline void WaitUntil(Done&& done,
                                             LightEpoch* epoch = nullptr,
                                             Device* device = nullptr)
    FASTER_NO_THREAD_SAFETY_ANALYSIS {
  constexpr uint8_t kStep = kSite.step;
  static_assert((kStep & kWaitOnce) == 0, "a one-shot site never waits");
  if (done()) [[likely]] return;
  assert(epoch != nullptr || (kStep & kWaitRefresh) == 0);
  assert(device != nullptr || (kStep & (kWaitPoll | kWaitPollAll)) == 0);
  kSite.waits.fetch_add(1, std::memory_order_relaxed);
  // The first spin is inline: a wait for one refresh (a fuzzy-region
  // retry's) costs no call.
  WaitSpin<kSite>(epoch, device);
  if (!done()) WaitLong<kSite>(done, epoch, device);
}

/// WaitUntil at the store site `kId` of kWaitSites.
template <WaitSiteId kId, class Done, class Device = IDevice>
[[gnu::always_inline]] inline void WaitUntil(Done&& done,
                                             LightEpoch* epoch = nullptr,
                                             Device* device = nullptr) {
  WaitUntil<kWaitSites[kId]>(done, epoch, device);
}

}  // namespace faster

#endif  // FASTER_CORE_WAIT_H_
