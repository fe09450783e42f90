#ifndef FASTER_DEVICE_IO_THREAD_POOL_H_
#define FASTER_DEVICE_IO_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <new>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/clock.h"
#include "obs/stats.h"

namespace faster {

/// A move-only type-erased callable for I/O jobs. std::function requires
/// copyability and (for our capture sizes) heap-allocates each job; IoJob
/// keeps captures up to 64 bytes inline and moves — never copies — through
/// the queue, so the per-I/O allocation and copy disappear from the hot
/// path. (std::move_only_function is C++23; this toolchain is C++20.)
class IoJob {
 public:
  static constexpr size_t kInlineSize = 64;

  IoJob() = default;

  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, IoJob>>>
  IoJob(F&& f) {  // NOLINT(google-explicit-constructor): callable adapter
    using Fn = std::decay_t<F>;
    static_assert(std::is_invocable_r_v<void, Fn&>);
    if constexpr (sizeof(Fn) <= kInlineSize &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      vtable_ = &InlineVtable<Fn>();
    } else {
      *reinterpret_cast<Fn**>(storage_) = new Fn(std::forward<F>(f));
      vtable_ = &HeapVtable<Fn>();
    }
  }

  IoJob(IoJob&& other) noexcept
      : vtable_{other.vtable_}, stamp_{other.stamp_} {
    if (vtable_) {
      vtable_->move(storage_, other.storage_);
      other.vtable_ = nullptr;
    }
  }

  IoJob& operator=(IoJob&& other) noexcept {
    if (this != &other) {
      Reset();
      vtable_ = other.vtable_;
      stamp_ = other.stamp_;
      if (vtable_) {
        vtable_->move(storage_, other.storage_);
        other.vtable_ = nullptr;
      }
    }
    return *this;
  }

  IoJob(const IoJob&) = delete;
  IoJob& operator=(const IoJob&) = delete;

  ~IoJob() { Reset(); }

  explicit operator bool() const { return vtable_ != nullptr; }

  void operator()() {
    vtable_->invoke(storage_);
  }

  /// The job's I/O stamp: set by the pool at enqueue, run under by the
  /// worker (obs::RunIo); empty without stats.
  obs::StatIoStamp& stamp() { return stamp_; }

 private:
  struct Vtable {
    void (*invoke)(unsigned char* storage);
    void (*move)(unsigned char* dst, unsigned char* src);
    void (*destroy)(unsigned char* storage);
  };

  template <typename Fn>
  static const Vtable& InlineVtable() {
    static constexpr Vtable vt{
        [](unsigned char* s) { (*reinterpret_cast<Fn*>(s))(); },
        [](unsigned char* dst, unsigned char* src) {
          ::new (static_cast<void*>(dst)) Fn(std::move(*reinterpret_cast<Fn*>(src)));
          reinterpret_cast<Fn*>(src)->~Fn();
        },
        [](unsigned char* s) { reinterpret_cast<Fn*>(s)->~Fn(); }};
    return vt;
  }

  template <typename Fn>
  static const Vtable& HeapVtable() {
    static constexpr Vtable vt{
        [](unsigned char* s) { (**reinterpret_cast<Fn**>(s))(); },
        [](unsigned char* dst, unsigned char* src) {
          *reinterpret_cast<Fn**>(dst) = *reinterpret_cast<Fn**>(src);
        },
        [](unsigned char* s) { delete *reinterpret_cast<Fn**>(s); }};
    return vt;
  }

  void Reset() {
    if (vtable_) {
      vtable_->destroy(storage_);
      vtable_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineSize];
  const Vtable* vtable_ = nullptr;
  // Plain fields: handed off through the queue under the pool mutex.
  [[no_unique_address]] obs::StatIoStamp stamp_;
};

/// A small worker pool that executes queued I/O jobs off the store's
/// operation threads, emulating the asynchronous I/O stack (Windows
/// overlapped I/O in the paper's implementation) on plain POSIX calls.
class IoThreadPool {
 public:
  explicit IoThreadPool(uint32_t num_threads);
  ~IoThreadPool();

  IoThreadPool(const IoThreadPool&) = delete;
  IoThreadPool& operator=(const IoThreadPool&) = delete;

  /// Enqueue a job; runs on some pool thread.
  void Submit(IoJob job);

  /// Enqueue `n` jobs under one lock acquisition, waking all workers once.
  /// Used to coalesce a batch's pending reads into a single submission.
  void SubmitBatch(IoJob* jobs, uint32_t n);

  /// Blocks until the queue is empty and all workers are idle.
  void Drain();

  /// Observability (compiled out unless FASTER_STATS): queue pressure.
  struct ObsStats {
    obs::StatCounter jobs;               // jobs submitted
    obs::StatGauge queue_depth;          // jobs queued, not yet started
    obs::StatHistogram depth_at_submit;  // queue length seen by Submit
  };
  const ObsStats& obs_stats() const { return obs_stats_; }

  /// Registers this pool's metrics under `prefix.` names.
  void RegisterStats(obs::StatRegistry& registry,
                     const std::string& prefix) const {
    registry.Add(prefix + ".jobs", &obs_stats_.jobs);
    registry.Add(prefix + ".queue_depth", &obs_stats_.queue_depth);
    registry.Add(prefix + ".depth_at_submit", &obs_stats_.depth_at_submit);
  }

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  std::deque<IoJob> queue_;
  uint32_t active_ = 0;
  // Bumped (under mutex_) each time the pool transitions busy -> idle, so
  // Drain waits for one generation change instead of re-evaluating
  // "empty and nobody active" on every job completion under contention.
  uint64_t idle_generation_ = 0;
  bool stop_ = false;
  mutable ObsStats obs_stats_;
};

}  // namespace faster

#endif  // FASTER_DEVICE_IO_THREAD_POOL_H_
