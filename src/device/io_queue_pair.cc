#include "device/io_queue_pair.h"

#include <thread>

namespace faster {

IoQueuePairSet::~IoQueuePairSet() {
  QuiescentRegion quiesce;  // noexcept body: model ops must not schedule
  for (auto& slot : pairs_) {
    delete slot.load(std::memory_order_acquire);
  }
}

IoQueuePair* IoQueuePairSet::PairFor(uint32_t tid, bool create) {
  IoQueuePair* pair = pairs_[tid].load(std::memory_order_acquire);
  if (pair == nullptr && create) {
    auto* fresh = new IoQueuePair();
    // Only `tid`'s own thread creates its pair (Submit), but a CAS keeps
    // this safe even if thread-id recycling ever overlaps a create.
    if (pairs_[tid].compare_exchange_strong(pair, fresh,
                                            std::memory_order_acq_rel,
                                            std::memory_order_acquire)) {
      pair = fresh;
    } else {
      delete fresh;
    }
  }
  return pair;
}

void IoQueuePairSet::Submit(IoOp op, IoOpExecutor& exec) {
  op.stamp = obs::StatIoStamp::Now();
  stats_.submits.Inc();
  IoQueuePair& pair = *PairFor(Thread::Id(), /*create=*/true);
  in_flight_.fetch_add(1, std::memory_order_relaxed);
  if (!pair.sq.TryPush(op)) {
    // Backpressure: the submission ring is full, so pay the execution and
    // the callback here instead of blocking. Exactly-once still holds.
    stats_.sq_full_inline.Inc();
    ExecuteOne(pair, op, exec, /*foreign=*/false, /*deliver_inline=*/true);
  }
}

void IoQueuePairSet::ExecuteOne(IoQueuePair& pair, const IoOp& op,
                                IoOpExecutor& exec, bool foreign,
                                bool deliver_inline) {
  if (foreign) stats_.foreign_execs.Inc();
  IoCompletion c;
  c.callback = op.callback;
  c.context = op.context;
  c.stamp = op.stamp;
  obs::RunIo(c.stamp, obs::IoHop::kExecute,
             [&] { c.status = exec.ExecuteOp(op, &c.bytes); });
  if (deliver_inline || !pair.cq.TryPush(c)) {
    // Deliver directly (submit-side backpressure, or completion ring
    // full). Safe — a foreign poller may run any callback, so every
    // callback is already thread-agnostic.
    if (!deliver_inline) stats_.cq_full_inline.Inc();
    Deliver(c);
    in_flight_.fetch_sub(1, std::memory_order_release);
  }
}

void IoQueuePairSet::Deliver(IoCompletion& c) {
  // The op's io_exec stage runs from its pickup to this delivery, so it
  // includes completion-ring residence.
  obs::RunIo(c.stamp, obs::IoHop::kDeliver,
             [&c] { c.callback(c.context, c.status, c.bytes); });
  stats_.poll_completions.Inc();
}

uint32_t IoQueuePairSet::RunPair(IoQueuePair& pair, IoOpExecutor& exec,
                                 bool foreign) {
  if (!pair.TryLockConsumer()) {
    return 0;  // another thread is consuming this pair right now
  }
  // The whole sweep is io_poll; execution nests io_exec under it, so poll
  // overhead and device work separate cleanly in the counter breakdown.
  obs::PollSweep sweep;
  // Execute queued submissions; completions land in the CQ (or deliver
  // inline on overflow).
  IoOp op;
  while (pair.sq.TryPop(&op)) {
    ExecuteOne(pair, op, exec, foreign, /*deliver_inline=*/false);
  }
  // Deliver queued completions (possibly pushed by a previous consumer).
  uint32_t delivered = 0;
  IoCompletion c;
  while (pair.cq.TryPop(&c)) {
    sweep.Delivered(c.stamp);
    Deliver(c);
    in_flight_.fetch_sub(1, std::memory_order_release);
    ++delivered;
  }
  pair.UnlockConsumer();
  return delivered;
}

uint32_t IoQueuePairSet::Poll(IoOpExecutor& exec) {
  stats_.poll_calls.Inc();
  IoQueuePair* pair = PairFor(Thread::Id(), /*create=*/false);
  uint32_t delivered =
      pair != nullptr ? RunPair(*pair, exec, /*foreign=*/false) : 0;
  if (delivered == 0) stats_.poll_empty.Inc();
  return delivered;
}

uint32_t IoQueuePairSet::PollAll(IoOpExecutor& exec) {
  stats_.poll_calls.Inc();
  uint32_t own = Thread::Id();
  uint32_t delivered = 0;
  for (uint32_t tid = 0; tid < Thread::kMaxThreads; ++tid) {
    IoQueuePair* pair = PairFor(tid, /*create=*/false);
    if (pair == nullptr) continue;
    delivered += RunPair(*pair, exec, /*foreign=*/tid != own);
  }
  if (delivered == 0) stats_.poll_empty.Inc();
  return delivered;
}

// Calls PollAll (epoch-required) without a session: Drain runs only from
// teardown/quiescence where no concurrent thread exists, so the analysis
// is suppressed rather than the contract weakened.
void IoQueuePairSet::Drain(IoOpExecutor& exec)
    FASTER_NO_THREAD_SAFETY_ANALYSIS {
  // PollAll makes progress on every pair (stealing from threads that are
  // stalled or gone); in_flight_ reaching zero means every callback ran.
  while (!AllIdle()) {
    if (PollAll(exec) == 0) {
      // Ops were claimed by a concurrent consumer (or a submit is still
      // between its counter increment and ring push) — yield, re-poll.
      thread_yield();
    }
  }
}

}  // namespace faster
