#include "device/memory_device.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

namespace faster {

MemoryDevice::MemoryDevice(uint32_t num_io_threads,
                           uint32_t simulated_latency_us, IoPathMode mode)
    : mode_{mode == IoPathMode::kUring ? IoPathMode::kPolling : mode},
      latency_us_{simulated_latency_us} {
  if (mode_ == IoPathMode::kThreadPool) {
    pool_ = std::make_unique<IoThreadPool>(num_io_threads);
  } else {
    queues_ = std::make_unique<IoQueuePairSet>();
  }
}

MemoryDevice::~MemoryDevice() { Drain(); }

uint8_t* MemoryDevice::SegmentFor(uint64_t offset, bool create) {
  uint64_t idx = offset >> kSegmentBits;
  std::lock_guard<std::mutex> lock{segments_mutex_};
  if (idx >= segments_.size()) {
    if (!create) return nullptr;
    segments_.resize(idx + 1);
  }
  if (segments_[idx] == nullptr) {
    if (!create) return nullptr;
    segments_[idx] = std::make_unique<uint8_t[]>(kSegmentSize);
  }
  return segments_[idx].get();
}

Status MemoryDevice::WriteSync(const void* src, uint64_t offset,
                               uint32_t len) {
  const auto* p = static_cast<const uint8_t*>(src);
  uint64_t off = offset;
  uint32_t remaining = len;
  while (remaining > 0) {
    uint8_t* seg = SegmentFor(off, /*create=*/true);
    uint64_t seg_off = off & (kSegmentSize - 1);
    uint32_t chunk = static_cast<uint32_t>(
        std::min<uint64_t>(remaining, kSegmentSize - seg_off));
    std::memcpy(seg + seg_off, p, chunk);
    p += chunk;
    off += chunk;
    remaining -= chunk;
  }
  bytes_written_.fetch_add(len, std::memory_order_relaxed);
  return Status::kOk;
}

Status MemoryDevice::ExecuteOp(const IoOp& op, uint32_t* bytes) {
  if (latency_us_ > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(latency_us_));
  }
  Status s;
  if (op.kind == IoOp::Kind::kWrite) {
    s = WriteSync(op.buf, op.offset, op.len);
    obs_stats_.writes.Inc();
    if constexpr (obs::kStatsEnabled) {
      obs_stats_.write_ns.Record(obs::NowNs() - op.stamp.submit_ns);
    }
  } else {
    s = ReadSync(op.offset, op.buf, op.len);
    obs_stats_.reads.Inc();
    if constexpr (obs::kStatsEnabled) {
      obs_stats_.read_ns.Record(obs::NowNs() - op.stamp.submit_ns);
    }
  }
  *bytes = s == Status::kOk ? op.len : 0;
  return s;
}

Status MemoryDevice::WriteAsync(const void* src, uint64_t offset, uint32_t len,
                                IoCallback callback, void* context) {
  if (queues_ != nullptr) {
    IoOp op;
    op.kind = IoOp::Kind::kWrite;
    op.offset = offset;
    op.buf = const_cast<void*>(src);
    op.len = len;
    op.callback = callback;
    op.context = context;
    queues_->Submit(op, *this);
    return Status::kOk;
  }
  uint64_t t0 = 0;
  if constexpr (obs::kStatsEnabled) t0 = obs::NowNs();
  pool_->Submit([this, src, offset, len, callback, context, t0] {
    if (latency_us_ > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(latency_us_));
    }
    WriteSync(src, offset, len);
    obs_stats_.writes.Inc();
    if constexpr (obs::kStatsEnabled) {
      obs_stats_.write_ns.Record(obs::NowNs() - t0);
    }
    callback(context, Status::kOk, len);
  });
  return Status::kOk;
}

Status MemoryDevice::ReadSync(uint64_t offset, void* dst, uint32_t len) {
  auto* p = static_cast<uint8_t*>(dst);
  uint64_t off = offset;
  uint32_t remaining = len;
  while (remaining > 0) {
    uint8_t* seg = SegmentFor(off, /*create=*/false);
    if (seg == nullptr) return Status::kIoError;
    uint64_t seg_off = off & (kSegmentSize - 1);
    uint32_t chunk = static_cast<uint32_t>(
        std::min<uint64_t>(remaining, kSegmentSize - seg_off));
    std::memcpy(p, seg + seg_off, chunk);
    p += chunk;
    off += chunk;
    remaining -= chunk;
  }
  return Status::kOk;
}

IoJob MemoryDevice::MakeReadJob(uint64_t offset, void* dst, uint32_t len,
                                IoCallback callback, void* context,
                                uint64_t t0) {
  return IoJob{[this, dst, offset, len, callback, context, t0] {
    if (latency_us_ > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(latency_us_));
    }
    Status s = ReadSync(offset, dst, len);
    obs_stats_.reads.Inc();
    if constexpr (obs::kStatsEnabled) {
      obs_stats_.read_ns.Record(obs::NowNs() - t0);
    }
    callback(context, s, s == Status::kOk ? len : 0);
  }};
}

Status MemoryDevice::ReadAsync(uint64_t offset, void* dst, uint32_t len,
                               IoCallback callback, void* context) {
  if (queues_ != nullptr) {
    IoOp op;
    op.offset = offset;
    op.buf = dst;
    op.len = len;
    op.callback = callback;
    op.context = context;
    queues_->Submit(op, *this);
    return Status::kOk;
  }
  uint64_t t0 = 0;
  if constexpr (obs::kStatsEnabled) t0 = obs::NowNs();
  pool_->Submit(MakeReadJob(offset, dst, len, callback, context, t0));
  return Status::kOk;
}

Status MemoryDevice::ReadBatchAsync(const IoReadRequest* requests, uint32_t n,
                                    uint32_t* accepted) {
  if (queues_ != nullptr) {
    for (uint32_t i = 0; i < n; ++i) {
      const IoReadRequest& r = requests[i];
      IoOp op;
      op.offset = r.offset;
      op.buf = r.dst;
      op.len = r.len;
      op.callback = r.callback;
      op.context = r.context;
      queues_->Submit(op, *this);
    }
    if (accepted != nullptr) *accepted = n;
    return Status::kOk;
  }
  uint64_t t0 = 0;
  if constexpr (obs::kStatsEnabled) t0 = obs::NowNs();
  constexpr uint32_t kChunk = 64;
  IoJob jobs[kChunk];
  uint32_t i = 0;
  while (i < n) {
    uint32_t m = std::min(n - i, kChunk);
    for (uint32_t j = 0; j < m; ++j) {
      const IoReadRequest& r = requests[i + j];
      jobs[j] = MakeReadJob(r.offset, r.dst, r.len, r.callback, r.context, t0);
    }
    pool_->SubmitBatch(jobs, m);
    i += m;
  }
  if (accepted != nullptr) *accepted = n;
  return Status::kOk;
}

uint32_t MemoryDevice::Poll() {
  return queues_ != nullptr ? queues_->Poll(*this) : 0;
}

uint32_t MemoryDevice::PollAll() {
  return queues_ != nullptr ? queues_->PollAll(*this) : 0;
}

void MemoryDevice::Drain() {
  if (queues_ != nullptr) {
    queues_->Drain(*this);
  } else {
    pool_->Drain();
  }
}

}  // namespace faster
