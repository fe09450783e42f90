// Negative control for tools/check_thread_safety.sh: every call below
// uses the epoch-protected API without a session (or leaks one), so
// `clang++ -Wthread-safety -Werror=thread-safety` MUST reject this TU.
// If it ever compiles cleanly, the capability annotations have regressed.
#include <cstdint>

#include "core/faster.h"
#include "core/functions.h"
#include "device/memory_device.h"
#include "device/uring_device.h"

namespace {

using Store = faster::FasterKv<faster::CountStoreFunctions>;

void UnprotectedOps() {
  faster::MemoryDevice device{1};
  Store::Config cfg;
  cfg.table_size = 64;
  Store store{cfg, &device};
  // BAD: no StartSession() — requires the epoch capability.
  store.Upsert(1, 7);
  uint64_t out = 0;
  store.Read(1, 0, &out);
}

void LeakedSession() {
  faster::LightEpoch epoch;
  epoch.Protect();
  // BAD: returns while still holding the epoch capability.
}

void DoubleUnprotect() {
  faster::LightEpoch epoch;
  epoch.Protect();
  epoch.Unprotect();
  // BAD: releases a capability that is no longer held.
  epoch.Unprotect();
}

void UnprotectedPoll() {
  struct NullExecutor final : faster::IoOpExecutor {
    faster::Status ExecuteOp(const faster::IoOp&, uint32_t* bytes) override {
      *bytes = 0;
      return faster::Status::kOk;
    }
  } exec;
  faster::DeviceObsStats stats;
  faster::UringIo io{-1, exec, stats};
  // BAD: the io_uring paths require an epoch-protected session.
  faster::IoOp op{};
  op.callback = [](void*, faster::Status, uint32_t) {};
  io.Submit(op);
  io.Poll();
  io.PollAll();
}

}  // namespace

int main() {
  UnprotectedOps();
  LeakedSession();
  DoubleUnprotect();
  UnprotectedPoll();
  return 0;
}
