#include "device/file_device.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <stdexcept>

namespace faster {

FileDevice::FileDevice(const std::string& path, uint32_t num_io_threads,
                       IoPathMode mode)
    : path_{path},
      fd_{::open(path.c_str(), O_RDWR | O_CREAT, 0644)},
      mode_{mode} {
  if (fd_ < 0) {
    throw std::runtime_error("FileDevice: cannot open " + path);
  }
  if (mode_ == IoPathMode::kUring && !UringIo::Supported()) {
    mode_ = IoPathMode::kPolling;  // stub build, old kernel, or seccomp
  }
  switch (mode_) {
    case IoPathMode::kThreadPool:
      pool_ = std::make_unique<IoThreadPool>(num_io_threads);
      break;
    case IoPathMode::kPolling:
      queues_ = std::make_unique<IoQueuePairSet>();
      break;
    case IoPathMode::kUring:
      // Explicit upcast: the conversion must happen here, where the
      // private base is accessible, not inside make_unique.
      uring_ = std::make_unique<UringIo>(
          fd_, static_cast<IoOpExecutor&>(*this), &obs_stats_);
      break;
  }
}

FileDevice::~FileDevice() {
  Drain();
  pool_.reset();
  queues_.reset();
  uring_.reset();
  ::close(fd_);
}

Status FileDevice::ExecuteOp(const IoOp& op, uint32_t* bytes) {
  auto* p = static_cast<char*>(op.buf);
  uint64_t off = op.offset;
  uint32_t remaining = op.len;
  while (remaining > 0) {
    ssize_t n = op.kind == IoOp::Kind::kWrite
                    ? ::pwrite(fd_, p, remaining, static_cast<off_t>(off))
                    : ::pread(fd_, p, remaining, static_cast<off_t>(off));
    if (n <= 0) {
      *bytes = op.len - remaining;
      return Status::kIoError;
    }
    p += n;
    off += static_cast<uint64_t>(n);
    remaining -= static_cast<uint32_t>(n);
  }
  if (op.kind == IoOp::Kind::kWrite) {
    bytes_written_.fetch_add(op.len, std::memory_order_relaxed);
    obs_stats_.writes.Inc();
    if constexpr (obs::kStatsEnabled) {
      obs_stats_.write_ns.Record(obs::NowNs() - op.stamp.submit_ns);
    }
  } else {
    obs_stats_.reads.Inc();
    if constexpr (obs::kStatsEnabled) {
      obs_stats_.read_ns.Record(obs::NowNs() - op.stamp.submit_ns);
    }
  }
  *bytes = op.len;
  return Status::kOk;
}

Status FileDevice::WriteAsync(const void* src, uint64_t offset, uint32_t len,
                              IoCallback callback, void* context) {
  if (mode_ != IoPathMode::kThreadPool) {
    IoOp op;
    op.kind = IoOp::Kind::kWrite;
    op.offset = offset;
    op.buf = const_cast<void*>(src);
    op.len = len;
    op.callback = callback;
    op.context = context;
    if (uring_ != nullptr) {
      uring_->Submit(&op, 1);
    } else {
      queues_->Submit(op, *this);
    }
    return Status::kOk;
  }
  uint64_t t0 = 0;
  if constexpr (obs::kStatsEnabled) t0 = obs::NowNs();
  pool_->Submit([this, src, offset, len, callback, context, t0] {
    const char* p = static_cast<const char*>(src);
    uint64_t off = offset;
    uint32_t remaining = len;
    while (remaining > 0) {
      ssize_t n = ::pwrite(fd_, p, remaining, static_cast<off_t>(off));
      if (n <= 0) {
        callback(context, Status::kIoError, len - remaining);
        return;
      }
      p += n;
      off += static_cast<uint64_t>(n);
      remaining -= static_cast<uint32_t>(n);
    }
    bytes_written_.fetch_add(len, std::memory_order_relaxed);
    obs_stats_.writes.Inc();
    if constexpr (obs::kStatsEnabled) {
      obs_stats_.write_ns.Record(obs::NowNs() - t0);
    }
    callback(context, Status::kOk, len);
  });
  return Status::kOk;
}

IoJob FileDevice::MakeReadJob(uint64_t offset, void* dst, uint32_t len,
                              IoCallback callback, void* context,
                              uint64_t t0) {
  return IoJob{[this, dst, offset, len, callback, context, t0] {
    char* p = static_cast<char*>(dst);
    uint64_t off = offset;
    uint32_t remaining = len;
    while (remaining > 0) {
      ssize_t n = ::pread(fd_, p, remaining, static_cast<off_t>(off));
      if (n <= 0) {
        callback(context, Status::kIoError, len - remaining);
        return;
      }
      p += n;
      off += static_cast<uint64_t>(n);
      remaining -= static_cast<uint32_t>(n);
    }
    obs_stats_.reads.Inc();
    if constexpr (obs::kStatsEnabled) {
      obs_stats_.read_ns.Record(obs::NowNs() - t0);
    }
    callback(context, Status::kOk, len);
  }};
}

Status FileDevice::ReadAsync(uint64_t offset, void* dst, uint32_t len,
                             IoCallback callback, void* context) {
  if (mode_ != IoPathMode::kThreadPool) {
    IoOp op;
    op.offset = offset;
    op.buf = dst;
    op.len = len;
    op.callback = callback;
    op.context = context;
    if (uring_ != nullptr) {
      uring_->Submit(&op, 1);
    } else {
      queues_->Submit(op, *this);
    }
    return Status::kOk;
  }
  uint64_t t0 = 0;
  if constexpr (obs::kStatsEnabled) t0 = obs::NowNs();
  pool_->Submit(MakeReadJob(offset, dst, len, callback, context, t0));
  return Status::kOk;
}

Status FileDevice::ReadBatchAsync(const IoReadRequest* requests, uint32_t n,
                                  uint32_t* accepted) {
  if (mode_ != IoPathMode::kThreadPool) {
    constexpr uint32_t kChunk = 64;
    IoOp ops[kChunk];
    uint32_t i = 0;
    while (i < n) {
      uint32_t m = std::min(n - i, kChunk);
      for (uint32_t j = 0; j < m; ++j) {
        const IoReadRequest& r = requests[i + j];
        ops[j].offset = r.offset;
        ops[j].buf = r.dst;
        ops[j].len = r.len;
        ops[j].callback = r.callback;
        ops[j].context = r.context;
      }
      if (uring_ != nullptr) {
        // One io_uring_enter per chunk — the coalesced-submission analog
        // of the pool path's single-lock SubmitBatch.
        uring_->Submit(ops, m);
      } else {
        for (uint32_t j = 0; j < m; ++j) queues_->Submit(ops[j], *this);
      }
      i += m;
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

uint32_t FileDevice::Poll() {
  if (uring_ != nullptr) return uring_->Poll();
  if (queues_ != nullptr) return queues_->Poll(*this);
  return 0;
}

uint32_t FileDevice::PollAll() {
  if (uring_ != nullptr) return uring_->PollAll();
  if (queues_ != nullptr) return queues_->PollAll(*this);
  return 0;
}

void FileDevice::Drain() {
  if (uring_ != nullptr) {
    uring_->Drain();
  } else if (queues_ != nullptr) {
    queues_->Drain(*this);
  } else {
    pool_->Drain();
  }
}

}  // namespace faster
