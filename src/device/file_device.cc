#include "device/file_device.h"

#include <fcntl.h>
#include <unistd.h>

#include <stdexcept>

#include "obs/log.h"

namespace faster {

FileDevice::FileDevice(const std::string& path, uint32_t /*num_io_threads*/,
                       IoPathMode mode)
    : path_{path},
      fd_{::open(path.c_str(), O_RDWR | O_CREAT, 0644)},
      mode_{mode} {
  if (fd_ < 0) {
    throw std::runtime_error("FileDevice: cannot open " + path);
  }
  if (mode_ != IoPathMode::kUring) return;
  if (!UringIo::Supported()) {  // stub build, old kernel, or seccomp
    mode_ = IoPathMode::kPolling;
    uring_fallbacks_ = 1;
    obs::Log(obs::LogLevel::kWarn, "device",
             "io_uring unavailable, falling back to synchronous I/O",
             obs::LogField{"path", path_.c_str()});
    return;
  }
  // Explicit upcast: the conversion must happen here, where the private
  // base is accessible, not inside make_unique.
  uring_ = std::make_unique<UringIo>(fd_, static_cast<IoOpExecutor&>(*this),
                                     obs_stats_);
}

FileDevice::~FileDevice() {
  Drain();
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
  *bytes = op.len;
  return Status::kOk;
}

// IDevice's virtual surface carries no epoch annotation (its callers are
// the store's sessions and teardown), so the forwards into UringIo's
// annotated API are not analyzed.
void FileDevice::Submit(const IoOp& op) FASTER_NO_THREAD_SAFETY_ANALYSIS {
  if (uring_ != nullptr) {
    uring_->Submit(op);
    return;
  }
  CompleteAtSubmit(obs_stats_, op.kind == IoOp::Kind::kWrite, op.callback,
                   op.context,
                   [&](uint32_t* bytes) { return ExecuteOp(op, bytes); });
}

Status FileDevice::WriteAsync(const void* src, uint64_t offset, uint32_t len,
                              IoCallback callback, void* context) {
  IoOp op;
  op.kind = IoOp::Kind::kWrite;
  op.offset = offset;
  op.buf = const_cast<void*>(src);
  op.len = len;
  op.callback = callback;
  op.context = context;
  Submit(op);
  return Status::kOk;
}

Status FileDevice::ReadAsync(uint64_t offset, void* dst, uint32_t len,
                             IoCallback callback, void* context) {
  IoOp op;
  op.offset = offset;
  op.buf = dst;
  op.len = len;
  op.callback = callback;
  op.context = context;
  Submit(op);
  return Status::kOk;
}

uint32_t FileDevice::Poll() FASTER_NO_THREAD_SAFETY_ANALYSIS {
  return uring_ != nullptr ? uring_->Poll() : 0;
}

uint32_t FileDevice::PollAll() FASTER_NO_THREAD_SAFETY_ANALYSIS {
  return uring_ != nullptr ? uring_->PollAll() : 0;
}

void FileDevice::Drain() {
  if (uring_ != nullptr) uring_->Drain();
}

}  // namespace faster
