/// Model checking TakeAllList (src/core/sync.h), the list a pending
/// operation's context is pushed onto when its storage read completes
/// (DESIGN.md §13, §14): any thread pushes with a CAS, and the owning
/// thread takes the whole list with one exchange.
///
/// Two obligations are checked exhaustively (bounded):
///
///  1. Exactly once, in push order: items two threads push while the
///     owner takes concurrently come out of the takes exactly once, and a
///     pusher's items come out in the order it pushed them.
///  2. Publication: a pusher's writes to an item happen-before the owner
///     reads them after TakeAll. Demoting the push CAS's release or the
///     exchange's acquire must surface as a data race on the payload.

#include <gtest/gtest.h>

#include <string>

#include "core/sync.h"
#include "model/runtime.h"
#include "model_test_util.h"

namespace model = faster::model;
using faster::TakeAllList;
using model_test::FindSourceLine;
using model_test::Opts;
using model_test::ScopedMutation;

namespace {

struct Item {
  Item* next = nullptr;
  int id = 0;
  model::Data<int> payload{0};
};

model::Options ListOpts(const char* name) {
  model::Options o = Opts(name);
  o.preemption_bound = 2;
  o.max_steps = 2000;
  o.max_executions = 2000000;
  return o;
}

/// Items 0 and 1 come from one pusher, in that order, item 2 from
/// another; the owner takes twice while they push, then once more after.
void PushTakeBody() {
  TakeAllList<Item> list;
  Item items[3];
  for (int i = 0; i < 3; ++i) items[i].id = i;
  int seen[3] = {0, 0, 0};
  int order = 0;
  int position[3] = {-1, -1, -1};
  auto take = [&] {
    for (Item* it = list.TakeAll(); it != nullptr; it = it->next) {
      MODEL_ASSERT(it->payload.Read() == 10 + it->id,
                   "item taken before its payload was published");
      ++seen[it->id];
      position[it->id] = order++;
    }
  };
  model::Spawn([&] {
    for (int i = 0; i < 2; ++i) {
      items[i].payload.Mut() = 10 + i;
      list.Push(&items[i]);
    }
  });
  model::Spawn([&] {
    items[2].payload.Mut() = 12;
    list.Push(&items[2]);
  });
  model::Spawn([&] {  // the owner, polling as CompletePending does
    take();
    take();
  });
  model::JoinAll();
  take();
  for (int i = 0; i < 3; ++i) {
    MODEL_ASSERT(seen[i] == 1, "item " + std::to_string(i) + " taken " +
                                   std::to_string(seen[i]) + " times");
  }
  MODEL_ASSERT(position[0] < position[1], "one pusher's items reordered");
  MODEL_ASSERT(list.Empty(), "list not empty after the last take");
}

TEST(ModelTakeAllList, PushedItemsTakenOnceInPushOrder) {
  model::Result res = model::Check(ListOpts("take_all_once"), PushTakeBody);
  EXPECT_FALSE(res.violation) << res.violation_message << "\n" << res.trace;
  EXPECT_TRUE(res.complete) << res.Summary();
  EXPECT_GT(res.explored, 10) << res.Summary();
}

// Seeded bug 1: demote the push CAS to relaxed. The owner can take an
// item whose payload write does not happen-before its read.
TEST(ModelTakeAllList, SeededBugPushCasRelaxedIsCaught) {
  int line = FindSourceLine("core/sync.h", "while (!head_.compare_exchange_weak(");
  ASSERT_GT(line, 0) << "Push CAS not found in core/sync.h";
  ScopedMutation mutate("core/sync.h", line);
  model::Result res = model::Check(ListOpts("take_all_mut_push"), PushTakeBody);
  EXPECT_GT(res.mutation_hits, 0);
  EXPECT_TRUE(res.violation) << "weakened push CAS went undetected: "
                             << res.Summary();
}

// Seeded bug 2: demote TakeAll's exchange to relaxed: the same hole from
// the taking end.
TEST(ModelTakeAllList, SeededBugTakeExchangeRelaxedIsCaught) {
  int line = FindSourceLine("core/sync.h",
                            "head_.exchange(nullptr, std::memory_order_acquire)");
  ASSERT_GT(line, 0) << "TakeAll exchange not found in core/sync.h";
  ScopedMutation mutate("core/sync.h", line);
  model::Result res = model::Check(ListOpts("take_all_mut_take"), PushTakeBody);
  EXPECT_GT(res.mutation_hits, 0);
  EXPECT_TRUE(res.violation) << "weakened take exchange went undetected: "
                             << res.Summary();
}

}  // namespace
