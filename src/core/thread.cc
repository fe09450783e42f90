#include "core/thread.h"

#include <cassert>

#ifdef FASTER_MODEL
#include "model/runtime.h"
#endif

namespace faster {

std::atomic<bool> Thread::in_use_[Thread::kMaxThreads] = {};
std::atomic<uint32_t> Thread::high_water_{0};

#ifdef FASTER_MODEL

// Model builds: thread identity is the checker's coroutine id, dense by
// construction; the registry machinery (slot CAS, thread_local release)
// would misbehave on coroutines that share one OS thread.
uint32_t Thread::Id() { return static_cast<uint32_t>(model::CurrentThreadId()); }
uint32_t Thread::HighWaterMark() {
  return static_cast<uint32_t>(model::NumThreads());
}
void Thread::Release(uint32_t /*id*/) {}
uint32_t Thread::Acquire() { return Id(); }

#else  // !FASTER_MODEL

namespace {

/// RAII holder living in thread-local storage; releases the slot when the
/// thread exits.
struct ThreadIdHolder {
  uint32_t id = Thread::kInvalidId;
  ~ThreadIdHolder();
};

}  // namespace

uint32_t Thread::Acquire() {
  for (uint32_t i = 0; i < kMaxThreads; ++i) {
    bool expected = false;
    if (in_use_[i].compare_exchange_strong(expected, true,
                                           std::memory_order_acq_rel)) {
      uint32_t hw = high_water_.load(std::memory_order_relaxed);
      while (i + 1 > hw &&
             !high_water_.compare_exchange_weak(hw, i + 1,
                                                std::memory_order_relaxed)) {
      }
      return i;
    }
  }
  assert(false && "Too many live threads for faster::Thread");
  return kInvalidId;
}

void Thread::Release(uint32_t id) {
  if (id < kMaxThreads) {
    in_use_[id].store(false, std::memory_order_release);
  }
}

uint32_t Thread::Register() {
  static thread_local ThreadIdHolder holder;
  holder.id = Acquire();
  id_ = holder.id;
  return id_;
}

uint32_t Thread::HighWaterMark() {
  return high_water_.load(std::memory_order_acquire);
}

namespace {
ThreadIdHolder::~ThreadIdHolder() { Thread::Release(id); }
}  // namespace

#endif  // FASTER_MODEL

}  // namespace faster
