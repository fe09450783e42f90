#ifndef FASTER_CORE_SYNC_H_
#define FASTER_CORE_SYNC_H_

/// Synchronization-type switch between production and model-checked builds
/// (DESIGN.md §14).
///
/// Production (default): `faster::Atomic<T>` is `std::atomic<T>`,
/// `faster::Cell<T>` is plain `T`, `faster::Mutex` is `std::mutex`, and
/// the cell accessors are zero-cost identities — the compiled code is
/// bit-identical to using the std types directly.
///
/// Model builds (-DFASTER_MODEL): the same names route through the
/// deterministic model checker's shim types (model/atomic.h), which turn
/// every operation into a scheduling point of the interleaving explorer
/// and feed the operational weak-memory model. Production sources opt in
/// simply by declaring members as `Atomic<T>` / `Cell<T>` / `Mutex`; no
/// call sites change, because the shim mirrors the explicit-order
/// `std::atomic` surface enforced by tools/lint_atomics.py.
///
/// `Cell<T>` marks *non-atomic* data published across threads through an
/// atomic edge (drain-list action payloads, ring slot bodies). Production
/// reads/writes it like a plain field via `cell_mut()` / `cell_read()`;
/// under the model those become vector-clock race-detection points, which
/// is what catches a weakened release publish (the value itself would
/// still arrive — the *race* is the observable).

#include <atomic>
#include <mutex>
#include <thread>
#include <utility>

#ifdef FASTER_MODEL
#include "model/atomic.h"
#endif

#if defined(__SANITIZE_THREAD__)
extern "C" void __tsan_ignore_thread_begin();
extern "C" void __tsan_ignore_thread_end();
#endif

namespace faster {

/// Hides the calling thread's memory accesses from TSan while it lives (a
/// no-op in other builds): for reads that race by design and that TSan
/// cannot match to a tsan.supp entry.
struct TsanIgnoreScope {
#if defined(__SANITIZE_THREAD__)
  TsanIgnoreScope() { __tsan_ignore_thread_begin(); }
  ~TsanIgnoreScope() { __tsan_ignore_thread_end(); }
#endif
};

#ifdef FASTER_MODEL

template <typename T>
using Atomic = model::Atomic<T>;

template <typename T>
using Cell = model::Data<T>;

using Mutex = model::Mutex;

template <typename T>
inline T& cell_mut(model::Data<T>& c,
                   const std::source_location& sl =
                       std::source_location::current()) {
  return c.Mut(sl);
}

template <typename T>
inline const T& cell_read(const model::Data<T>& c,
                          const std::source_location& sl =
                              std::source_location::current()) {
  return c.Read(sl);
}

inline void atomic_thread_fence_shim(std::memory_order order,
                                     const std::source_location& sl =
                                         std::source_location::current()) {
  model::ThreadFence(order, sl);
}

/// Spin-loop politeness. Under the model a bare std::this_thread::yield()
/// would spin the same coroutine forever; yielding to the scheduler is
/// both correct and a preemption point the explorer can branch on.
inline void thread_yield() { model::Yield(); }

/// Declared at the top of destructor bodies that touch Atomic/Cell
/// members. Destructors are implicitly noexcept, and the model unwinds
/// aborted executions with an exception thrown from scheduling points —
/// the guard makes ops in the region execute without scheduling (see
/// model::QuiescentRegion). Production: an empty object.
using QuiescentRegion = model::QuiescentRegion;

#else  // !FASTER_MODEL

template <typename T>
using Atomic = std::atomic<T>;

template <typename T>
using Cell = T;

using Mutex = std::mutex;

template <typename T>
inline T& cell_mut(T& c) {
  return c;
}

template <typename T>
inline const T& cell_read(const T& c) {
  return c;
}

inline void atomic_thread_fence_shim(std::memory_order order) {
  std::atomic_thread_fence(order);
}

inline void thread_yield() { std::this_thread::yield(); }

/// No-op counterpart of the model build's destructor guard; the
/// user-provided constructor keeps -Wunused-variable quiet at use sites.
struct QuiescentRegion {
  QuiescentRegion() noexcept {}  // NOLINT(modernize-use-equals-default)
};

#endif  // FASTER_MODEL

/// A lock-free intrusive list of `T`s, linked through `T::next`: any
/// thread pushes, one thread takes the whole list. Nothing is popped
/// singly, so there is no ABA, and neither side allocates.
template <typename T>
class TakeAllList {
 public:
  void Push(T* item) {
    T* head = head_.load(std::memory_order_relaxed);
    do {
      item->next = head;
    } while (!head_.compare_exchange_weak(
        head, item, std::memory_order_release, std::memory_order_relaxed));
  }

  /// Takes every item pushed so far, oldest first.
  T* TakeAll() {
    T* newest = head_.exchange(nullptr, std::memory_order_acquire);
    T* oldest = nullptr;
    while (newest != nullptr) {
      T* item = std::exchange(newest, newest->next);
      item->next = std::exchange(oldest, item);
    }
    return oldest;
  }

  bool Empty() const {
    return head_.load(std::memory_order_relaxed) == nullptr;
  }

 private:
  // order: release CAS pushes the item's fields (relaxed on failure, seed
  // and Empty() loads); TakeAll's acquire exchange pairs with every push
  // it takes, as later push CASes continue the release sequence.
  Atomic<T*> head_{nullptr};
};

}  // namespace faster

#endif  // FASTER_CORE_SYNC_H_
