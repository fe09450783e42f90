#include "device/io_thread_pool.h"

namespace faster {

IoThreadPool::IoThreadPool(uint32_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  workers_.reserve(num_threads);
  for (uint32_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

IoThreadPool::~IoThreadPool() {
  {
    std::lock_guard<std::mutex> lock{mutex_};
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : workers_) t.join();
}

void IoThreadPool::Submit(IoJob job) {
  job.stamp() = obs::StatIoStamp::Now();
  {
    std::lock_guard<std::mutex> lock{mutex_};
    queue_.push_back(std::move(job));
    obs_stats_.jobs.Inc();
    obs_stats_.queue_depth.Inc();
    obs_stats_.depth_at_submit.Record(queue_.size());
  }
  cv_.notify_one();
}

void IoThreadPool::SubmitBatch(IoJob* jobs, uint32_t n) {
  if (n == 0) return;
  for (uint32_t i = 0; i < n; ++i) jobs[i].stamp() = obs::StatIoStamp::Now();
  {
    std::lock_guard<std::mutex> lock{mutex_};
    for (uint32_t i = 0; i < n; ++i) {
      queue_.push_back(std::move(jobs[i]));
      obs_stats_.jobs.Inc();
      obs_stats_.queue_depth.Inc();
    }
    obs_stats_.depth_at_submit.Record(queue_.size());
  }
  cv_.notify_all();
}

void IoThreadPool::Drain() {
  std::unique_lock<std::mutex> lock{mutex_};
  for (;;) {
    if (queue_.empty() && active_ == 0) return;
    // Wait for one busy->idle transition rather than re-checking the
    // queue per completed job: workers only notify on the transition, so
    // a drain under heavy churn wakes O(1) times per idle period instead
    // of O(queue).
    uint64_t gen = idle_generation_;
    idle_cv_.wait(lock, [this, gen] { return idle_generation_ != gen; });
  }
}

void IoThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock{mutex_};
  for (;;) {
    cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (stop_ && queue_.empty()) return;
    IoJob job = std::move(queue_.front());
    queue_.pop_front();
    obs_stats_.queue_depth.Dec();
    ++active_;
    lock.unlock();
    // The job body executes the op and delivers its completion.
    obs::RunIo(job.stamp(), obs::IoHop::kExecute, job);
    lock.lock();
    --active_;
    if (queue_.empty() && active_ == 0) {
      ++idle_generation_;
      idle_cv_.notify_all();
    }
  }
}

}  // namespace faster
