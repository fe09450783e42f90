/// Model checking the observability ring (DESIGN.md §5 "SeqRing protocol",
/// §14) against the real src/obs/seq_ring.h compiled under FASTER_MODEL.
///
/// Two writers push two records each into a 2-slot ring, so the third and
/// fourth pushes lap the first two, while a reader copies every sequence
/// number once. Each record's words all carry one stamp, and each writer
/// notes the sequence number Push minted for each stamp, so the checks
/// catch both failure modes of a seqlock:
///   - a torn copy: words from two records (the words disagree);
///   - a stale copy: a whole record other than the one pushed at that
///     sequence number (the stamp disagrees with the writer's note).
/// The seeded bug replays a sample ring that predates SeqRing — a writer
/// that never claims the slot and stores the words relaxed — which lets a
/// lapping writer tear a committed record under a reader.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>

#include "model/atomic.h"
#include "model/runtime.h"
#include "model_test_util.h"
#include "obs/seq_ring.h"

namespace model = faster::model;
using model_test::FindSourceLine;
using model_test::Opts;
using model_test::ScopedMutation;

namespace {

constexpr uint64_t kSlots = 2;
constexpr uint64_t kPushes = 4;  // two per writer: the ring wraps once

struct Rec {
  uint64_t w[2];
};

/// A sample ring from before SeqRing, reduced to two words: the
/// writer stores into the slot without claiming it, with relaxed stores,
/// and the reader trusts a commit tag that is unchanged across the copy.
class LegacyProfilerRing {
 public:
  uint64_t Push(const Rec& rec) {
    uint64_t seq = next_.fetch_add(1, std::memory_order_relaxed);
    Slot& slot = slots_[seq % kSlots];
    slot.w[0].store(rec.w[0], std::memory_order_relaxed);
    slot.w[1].store(rec.w[1], std::memory_order_relaxed);
    slot.commit.store(seq + 1, std::memory_order_release);
    return seq;
  }

  bool Read(uint64_t seq, Rec* out) const {
    const Slot& slot = slots_[seq % kSlots];
    if (slot.commit.load(std::memory_order_acquire) != seq + 1) return false;
    out->w[0] = slot.w[0].load(std::memory_order_relaxed);
    out->w[1] = slot.w[1].load(std::memory_order_relaxed);
    return slot.commit.load(std::memory_order_acquire) == seq + 1;
  }

  uint64_t Dropped() const { return 0; }

 private:
  struct Slot {
    model::Atomic<uint64_t> commit{0};
    model::Atomic<uint64_t> w[2] = {};
  };
  model::Atomic<uint64_t> next_{0};
  Slot slots_[kSlots];
};

using Ring = faster::obs::SeqRing<Rec, kSlots>;

model::Options RingOpts(const char* name) {
  model::Options o = Opts(name);
  o.preemption_bound = 2;
  o.max_steps = 4000;
  o.max_executions = 2000000;
  return o;
}

/// Two writers, one reader. Stamps are nonzero, so a copy of a slot's
/// initial zeros is caught as stale too.
template <typename R>
void TwoWritersOneReader() {
  auto* ring = new R();
  auto* pushed = new uint64_t[kPushes]();  // seq -> stamp, per writer
  auto* read = new uint64_t[kPushes]();    // seq -> stamp, per reader
  for (uint64_t writer = 0; writer < 2; ++writer) {
    model::Spawn([=] {
      for (uint64_t i = 0; i < 2; ++i) {
        uint64_t stamp = 1 + writer * 2 + i;
        pushed[ring->Push(Rec{{stamp, stamp}})] = stamp;
      }
    });
  }
  model::Spawn([=] {
    for (uint64_t seq = 0; seq < kPushes; ++seq) {
      Rec rec{};
      if (!ring->Read(seq, &rec)) continue;
      MODEL_ASSERT(rec.w[0] == rec.w[1],
                   "torn copy of seq " + std::to_string(seq) + ": " +
                       std::to_string(rec.w[0]) + "/" +
                       std::to_string(rec.w[1]));
      read[seq] = rec.w[0];
    }
  });
  model::JoinAll();
  uint64_t unreadable = 0;
  for (uint64_t seq = 0; seq < kPushes; ++seq) {
    MODEL_ASSERT(read[seq] == 0 || read[seq] == pushed[seq],
                 "seq " + std::to_string(seq) + " read stamp " +
                     std::to_string(read[seq]) + ", pushed " +
                     std::to_string(pushed[seq]));
    Rec rec{};
    if (seq >= kPushes - kSlots && !ring->Read(seq, &rec)) ++unreadable;
  }
  // Quiescent: each of the newest kSlots records is readable unless its
  // writer found the slot held by another and dropped it.
  MODEL_ASSERT(unreadable <= ring->Dropped(),
               std::to_string(unreadable) + " newest records unreadable, " +
                   std::to_string(ring->Dropped()) + " dropped");
  delete[] read;
  delete[] pushed;
  delete ring;
}

TEST(ModelSeqRing, ReadsAreNeverTornOrStale) {
  model::Result res =
      model::Check(RingOpts("seq_ring_two_writers"), TwoWritersOneReader<Ring>);
  EXPECT_FALSE(res.violation) << res.violation_message << "\n" << res.trace;
  EXPECT_TRUE(res.complete) << res.Summary();
  EXPECT_GT(res.explored, 100) << res.Summary();
}

// Seeded bug: demote the commit tag's release store to relaxed. A reader
// that sees the tag no longer sees the words it publishes, and copies the
// slot's previous contents as the new record.
TEST(ModelSeqRing, SeededBugCommitTagRelaxedIsCaught) {
  int line = FindSourceLine(
      "obs/seq_ring.h", "slot.tag.store(seq + 1, std::memory_order_release)");
  ASSERT_GT(line, 0) << "commit-tag store not found in obs/seq_ring.h";
  ScopedMutation mutate("obs/seq_ring.h", line);
  model::Result res =
      model::Check(RingOpts("seq_ring_mut_commit"), TwoWritersOneReader<Ring>);
  EXPECT_GT(res.mutation_hits, 0);
  EXPECT_TRUE(res.violation) << "weakened commit tag went undetected: "
                             << res.Summary();
}

TEST(ModelSeqRing, SeededBugLegacyProfilerWriteIsCaught) {
  model::Result res = model::Check(RingOpts("seq_ring_legacy_profiler"),
                                   TwoWritersOneReader<LegacyProfilerRing>);
  EXPECT_TRUE(res.violation)
      << "an unclaimed relaxed writer went undetected: " << res.Summary();
}

}  // namespace
