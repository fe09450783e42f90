#include "device/uring_device.h"

#if defined(FASTER_HAVE_IO_URING)

#include <linux/io_uring.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cstring>

#include "core/wait.h"

namespace faster {

namespace {

int IoUringSetup(unsigned entries, io_uring_params* p) {
  return static_cast<int>(::syscall(__NR_io_uring_setup, entries, p));
}

int IoUringEnter(int ring_fd, unsigned to_submit, unsigned min_complete,
                 unsigned flags) {
  return static_cast<int>(::syscall(__NR_io_uring_enter, ring_fd, to_submit,
                                    min_complete, flags, nullptr, 0));
}

}  // namespace

/// One thread's kernel ring plus the userspace op-slot pool that carries
/// callback/trace context across the kernel boundary (user_data = slot
/// index). kEntries slots bound in-flight ops, so the kernel CQ (sized
/// 2x SQ by default) can never overflow and IORING_ENTER_GETEVENTS is
/// never needed on the hot path.
struct UringIo::Ring {
  static constexpr uint32_t kEntries = 64;

  int ring_fd = -1;
  // mmap'd regions (sq/cq may share one mapping: IORING_FEAT_SINGLE_MMAP).
  void* sq_mmap = nullptr;
  size_t sq_mmap_len = 0;
  void* cq_mmap = nullptr;
  size_t cq_mmap_len = 0;
  io_uring_sqe* sqes = nullptr;
  size_t sqes_len = 0;

  // Kernel-shared ring fields. Plain pointers into the shared mappings;
  // accessed with __atomic builtins (acquire on the side the kernel
  // writes, release on the side we publish) exactly as liburing does.
  unsigned* sq_head = nullptr;
  unsigned* sq_tail = nullptr;
  unsigned* sq_mask = nullptr;
  unsigned* sq_array = nullptr;
  unsigned* cq_head = nullptr;
  unsigned* cq_tail = nullptr;
  unsigned* cq_mask = nullptr;
  io_uring_cqe* cqes = nullptr;

  struct OpSlot {
    IoOp op;
    struct iovec iov {};
    // order: acq_rel CAS claims a free slot at submit (owner thread); a
    // release store of true once the slot is filled publishes it, and
    // everything the submitter wrote before, to a reaper's acquire load
    // (the kernel orders the CQE after io_uring_enter, an edge TSan
    // cannot see); release store of false frees it at reap (possibly a
    // foreign drainer), making the slot's prior contents safe to
    // overwrite after an acquire claim.
    std::atomic<bool> busy{false};
  };
  OpSlot slots[kEntries];

  // order: acq_rel CAS takes the reaper role for this ring (observing
  // the previous reaper's cq_head progress; acquire on CAS failure is
  // enough to see who holds it); release store hands it back.
  std::atomic<bool> consuming{false};
  // order: relaxed increment at submit (the enter syscall orders the op
  // itself); release decrement after the callback pairs with the acquire
  // load in AllIdle so a zero count implies completed effects are visible.
  std::atomic<uint32_t> in_flight{0};

  ~Ring() {
    if (sqes != nullptr) ::munmap(sqes, sqes_len);
    if (cq_mmap != nullptr && cq_mmap != sq_mmap) ::munmap(cq_mmap, cq_mmap_len);
    if (sq_mmap != nullptr) ::munmap(sq_mmap, sq_mmap_len);
    if (ring_fd >= 0) ::close(ring_fd);
  }

  static Ring* Create() {
    io_uring_params p;
    std::memset(&p, 0, sizeof(p));
    int rfd = IoUringSetup(kEntries, &p);
    if (rfd < 0) return nullptr;
    auto* ring = new Ring();
    ring->ring_fd = rfd;
    size_t sq_len = p.sq_off.array + p.sq_entries * sizeof(unsigned);
    size_t cq_len = p.cq_off.cqes + p.cq_entries * sizeof(io_uring_cqe);
    bool single = (p.features & IORING_FEAT_SINGLE_MMAP) != 0;
    if (single && cq_len > sq_len) sq_len = cq_len;
    ring->sq_mmap_len = sq_len;
    ring->sq_mmap = ::mmap(nullptr, sq_len, PROT_READ | PROT_WRITE,
                           MAP_SHARED | MAP_POPULATE, rfd, IORING_OFF_SQ_RING);
    if (ring->sq_mmap == MAP_FAILED) {
      ring->sq_mmap = nullptr;
      delete ring;
      return nullptr;
    }
    if (single) {
      ring->cq_mmap = ring->sq_mmap;
      ring->cq_mmap_len = sq_len;
    } else {
      ring->cq_mmap_len = cq_len;
      ring->cq_mmap =
          ::mmap(nullptr, cq_len, PROT_READ | PROT_WRITE,
                 MAP_SHARED | MAP_POPULATE, rfd, IORING_OFF_CQ_RING);
      if (ring->cq_mmap == MAP_FAILED) {
        ring->cq_mmap = nullptr;
        delete ring;
        return nullptr;
      }
    }
    ring->sqes_len = p.sq_entries * sizeof(io_uring_sqe);
    ring->sqes = static_cast<io_uring_sqe*>(
        ::mmap(nullptr, ring->sqes_len, PROT_READ | PROT_WRITE,
               MAP_SHARED | MAP_POPULATE, rfd, IORING_OFF_SQES));
    if (ring->sqes == MAP_FAILED) {
      ring->sqes = nullptr;
      delete ring;
      return nullptr;
    }
    auto* sq = static_cast<uint8_t*>(ring->sq_mmap);
    ring->sq_head = reinterpret_cast<unsigned*>(sq + p.sq_off.head);
    ring->sq_tail = reinterpret_cast<unsigned*>(sq + p.sq_off.tail);
    ring->sq_mask = reinterpret_cast<unsigned*>(sq + p.sq_off.ring_mask);
    ring->sq_array = reinterpret_cast<unsigned*>(sq + p.sq_off.array);
    auto* cq = static_cast<uint8_t*>(ring->cq_mmap);
    ring->cq_head = reinterpret_cast<unsigned*>(cq + p.cq_off.head);
    ring->cq_tail = reinterpret_cast<unsigned*>(cq + p.cq_off.tail);
    ring->cq_mask = reinterpret_cast<unsigned*>(cq + p.cq_off.ring_mask);
    ring->cqes = reinterpret_cast<io_uring_cqe*>(cq + p.cq_off.cqes);
    return ring;
  }
};

bool UringIo::Supported() {
  static const bool supported = [] {
    io_uring_params p;
    std::memset(&p, 0, sizeof(p));
    int fd = IoUringSetup(4, &p);
    if (fd < 0) return false;  // ENOSYS / EPERM (seccomp) / old kernel
    bool enter_ok = IoUringEnter(fd, 0, 0, 0) == 0;
    ::close(fd);
    return enter_ok;
  }();
  return supported;
}

UringIo::UringIo(int fd, IoOpExecutor& inline_exec, DeviceObsStats& dev_stats)
    : fd_{fd}, inline_exec_{inline_exec}, dev_stats_{dev_stats} {}

UringIo::~UringIo() {
  Drain();
  for (auto& slot : rings_) {
    delete slot.load(std::memory_order_acquire);
  }
}

UringIo::Ring* UringIo::RingFor(uint32_t tid, bool create) {
  Ring* ring = rings_[tid].load(std::memory_order_acquire);
  if (ring == nullptr && create) {
    Ring* fresh = Ring::Create();
    if (fresh == nullptr) return nullptr;  // caller falls back inline
    if (rings_[tid].compare_exchange_strong(ring, fresh,
                                            std::memory_order_acq_rel,
                                            std::memory_order_acquire)) {
      ring = fresh;
    } else {
      delete fresh;
    }
  }
  return ring;
}

void UringIo::Submit(const IoOp& submitted) {
  Ring* ring = RingFor(Thread::Id(), /*create=*/true);
  if (ring == nullptr) {
    // Ring creation failed (fd limits, mmap): stay correct, go sync.
    InlineFallback(submitted);
    return;
  }
  IoOp op = submitted;
  op.stamp = obs::StatIoStamp::Now();
  // Claim an op slot; the slot count == SQ entries, so a free slot
  // implies SQ space (the kernel consumes SQEs inside io_uring_enter).
  uint32_t slot_idx = Ring::kEntries;
  for (uint32_t s = 0; s < Ring::kEntries; ++s) {
    bool expected = false;
    if (ring->slots[s].busy.compare_exchange_strong(
            expected, true, std::memory_order_acq_rel,
            std::memory_order_acquire)) {
      slot_idx = s;
      break;
    }
  }
  unsigned tail = __atomic_load_n(ring->sq_tail, __ATOMIC_RELAXED);
  unsigned head = __atomic_load_n(ring->sq_head, __ATOMIC_ACQUIRE);
  if (slot_idx == Ring::kEntries || tail - head >= Ring::kEntries) {
    if (slot_idx != Ring::kEntries) {
      ring->slots[slot_idx].busy.store(false, std::memory_order_release);
    }
    InlineFallback(op);
    return;
  }
  Ring::OpSlot& slot = ring->slots[slot_idx];
  slot.op = op;
  slot.iov.iov_base = op.buf;
  slot.iov.iov_len = op.len;
  slot.busy.store(true, std::memory_order_release);
  unsigned idx = tail & *ring->sq_mask;
  io_uring_sqe* sqe = &ring->sqes[idx];
  std::memset(sqe, 0, sizeof(*sqe));
  sqe->opcode =
      op.kind == IoOp::Kind::kWrite ? IORING_OP_WRITEV : IORING_OP_READV;
  sqe->fd = fd_;
  sqe->off = op.offset;
  sqe->addr = reinterpret_cast<uint64_t>(&slot.iov);
  sqe->len = 1;
  sqe->user_data = slot_idx;
  ring->sq_array[idx] = idx;
  ring->in_flight.fetch_add(1, std::memory_order_relaxed);
  stats_.submits.Inc();
  __atomic_store_n(ring->sq_tail, tail + 1, __ATOMIC_RELEASE);
  // EAGAIN/EBUSY: kernel backlogged — reap this ring to make space, retry.
  WaitUntil<kWaitUringSubmit>(
      [&] { return IoUringEnter(ring->ring_fd, 1, 0, 0) > 0; }, nullptr, this);
}

Status UringIo::Finish(const IoOp& op, int res, uint32_t* bytes) {
  if (res < 0) {
    *bytes = 0;
    return Status::kIoError;
  }
  auto done = static_cast<uint32_t>(res);
  if (done == op.len) {
    *bytes = op.len;
    return Status::kOk;
  }
  if (done == 0) {
    // EOF — e.g. a read of a never-written region (mirrors the pread
    // loop's kIoError-with-partial-count contract).
    *bytes = 0;
    return Status::kIoError;
  }
  // Short transfer: complete the remainder synchronously (rare on regular
  // files).
  IoOp rest = op;
  rest.offset += done;
  rest.buf = static_cast<uint8_t*>(op.buf) + done;
  rest.len -= done;
  uint32_t rest_bytes = 0;
  Status s = inline_exec_.ExecuteOp(rest, &rest_bytes);
  *bytes = done + rest_bytes;
  return s;
}

void UringIo::Deliver(IoOp& op, Status status, uint32_t bytes) {
  // The kernel window (submit -> reap) is the execution; there is no
  // separate queueing delay to attribute.
  obs::RunIo(op.stamp, obs::IoHop::kKernel,
             [&] { op.callback(op.context, status, bytes); });
  stats_.poll_completions.Inc();
}

uint32_t UringIo::Reap(Ring& ring) {
  bool expected = false;
  if (!ring.consuming.compare_exchange_strong(expected, true,
                                              std::memory_order_acq_rel,
                                              std::memory_order_acquire)) {
    return 0;  // another thread is reaping this ring right now
  }
  // The reap sweep is io_poll (the kernel window has no CPU cost to
  // attribute).
  obs::StatPerfScope perf{obs::Stage::kIoPoll};
  uint32_t delivered = 0;
  unsigned head = __atomic_load_n(ring.cq_head, __ATOMIC_RELAXED);
  for (;;) {
    unsigned tail = __atomic_load_n(ring.cq_tail, __ATOMIC_ACQUIRE);
    if (head == tail) break;
    io_uring_cqe* cqe = &ring.cqes[head & *ring.cq_mask];
    auto slot_idx = static_cast<uint32_t>(cqe->user_data);
    Ring::OpSlot& slot = ring.slots[slot_idx];
    slot.busy.load(std::memory_order_acquire);  // see OpSlot::busy
    IoOp op = slot.op;
    int res = cqe->res;
    ++head;
    __atomic_store_n(ring.cq_head, head, __ATOMIC_RELEASE);
    slot.busy.store(false, std::memory_order_release);
    uint32_t bytes = 0;
    Status status = Finish(op, res, &bytes);
    dev_stats_.Finished(op.kind == IoOp::Kind::kWrite, op.stamp.submit_ns,
                        bytes);
    Deliver(op, status, bytes);
    ring.in_flight.fetch_sub(1, std::memory_order_release);
    ++delivered;
  }
  ring.consuming.store(false, std::memory_order_release);
  return delivered;
}

uint32_t UringIo::Poll() {
  stats_.poll_calls.Inc();
  Ring* ring = RingFor(Thread::Id(), /*create=*/false);
  uint32_t delivered = ring != nullptr ? Reap(*ring) : 0;
  if (delivered == 0) stats_.poll_empty.Inc();
  return delivered;
}

uint32_t UringIo::PollAll() {
  stats_.poll_calls.Inc();
  uint32_t delivered = 0;
  for (uint32_t tid = 0; tid < Thread::kMaxThreads; ++tid) {
    Ring* ring = RingFor(tid, /*create=*/false);
    if (ring == nullptr) continue;
    uint32_t n = Reap(*ring);
    if (tid != Thread::Id()) stats_.foreign_execs.Add(n);
    delivered += n;
  }
  if (delivered == 0) stats_.poll_empty.Inc();
  return delivered;
}

bool UringIo::AllIdle() const {
  for (const auto& slot : rings_) {
    Ring* ring = slot.load(std::memory_order_acquire);
    if (ring != nullptr &&
        ring->in_flight.load(std::memory_order_acquire) != 0) {
      return false;
    }
  }
  return true;
}

// Calls PollAll (epoch-required) without a session: Drain runs from
// teardown and quiescence points that hold none, so the analysis is
// suppressed rather than the contract weakened.
void UringIo::Drain() FASTER_NO_THREAD_SAFETY_ANALYSIS {
  WaitUntil<kWaitUringDrain>([this] { return AllIdle(); }, nullptr, this);
}

}  // namespace faster

#else  // !FASTER_HAVE_IO_URING

namespace faster {

// Stub build (no <linux/io_uring.h>): never supported, never constructed
// on a live path — FileDevice degrades kUring to synchronous I/O up front.
struct UringIo::Ring {};

bool UringIo::Supported() { return false; }

UringIo::UringIo(int fd, IoOpExecutor& inline_exec, DeviceObsStats& dev_stats)
    : fd_{fd}, inline_exec_{inline_exec}, dev_stats_{dev_stats} {}

UringIo::~UringIo() = default;

void UringIo::Submit(const IoOp& op) { InlineFallback(op); }

uint32_t UringIo::Poll() { return 0; }
uint32_t UringIo::PollAll() { return 0; }
bool UringIo::AllIdle() const { return true; }
void UringIo::Drain() {}
UringIo::Ring* UringIo::RingFor(uint32_t, bool) { return nullptr; }
uint32_t UringIo::Reap(Ring&) { return 0; }
Status UringIo::Finish(const IoOp&, int, uint32_t*) {
  return Status::kOk;
}
void UringIo::Deliver(IoOp&, Status, uint32_t) {}

}  // namespace faster

#endif  // FASTER_HAVE_IO_URING

namespace faster {

void UringIo::InlineFallback(const IoOp& op) {
  stats_.sq_full_inline.Inc();
  CompleteAtSubmit(
      dev_stats_, op.kind == IoOp::Kind::kWrite, op.callback, op.context,
      [&](uint32_t* bytes) { return inline_exec_.ExecuteOp(op, bytes); });
}

}  // namespace faster
