// Thread-safety-analysis harness TU (see tools/check_thread_safety.sh).
//
// The library's annotated surface is mostly header templates, which the
// faster_core -Wthread-safety build never instantiates. This TU
// instantiates the two stores and drives every annotated entry point with
// a correctly bracketed session, so `clang++ -Wthread-safety -Werror` over
// this file proves the epoch-capability contracts are self-consistent.
// tools/ts_violation.cc is the negative control: the same build must fail
// on it.
#include <cstdint>

#include "core/faster.h"
#include "core/functions.h"
#include "memstore/inmem_kv.h"
#include "device/memory_device.h"
#include "device/uring_device.h"

namespace {

using Store = faster::FasterKv<faster::CountStoreFunctions>;

void DriveFaster() {
  faster::MemoryDevice device{1};
  Store::Config cfg;
  cfg.table_size = 64;
  cfg.log.memory_size_bytes = 4ull << faster::Address::kOffsetBits;
  Store store{cfg, &device};

  store.StartSession();
  uint64_t out = 0;
  store.Read(1, 0, &out);
  store.Upsert(1, 7);
  store.Rmw(1, 3);
  store.Delete(1);

  Store::BatchOp ops[2];
  ops[0].kind = Store::BatchOp::Kind::kUpsert;
  ops[0].key = 2;
  ops[0].value = 5;
  ops[1].kind = Store::BatchOp::Kind::kRead;
  ops[1].key = 2;
  ops[1].output = &out;
  store.ExecuteBatch(ops, 2);

  store.CompletePending(/*wait=*/true);
  store.Checkpoint("/tmp/ts_harness_ckpt");
  store.GrowIndex();
  store.CompactLog(store.hlog().safe_read_only_address());
  store.ScanLog(store.hlog().begin_address(), store.hlog().tail_address(),
                [](faster::Address, const Store::RecordT&) {});
  store.Refresh();
  store.StopSession();

  // Recover is annotated as requiring *no* session.
  Store store2{cfg, &device};
  store2.Recover("/tmp/ts_harness_ckpt");

  // The scoped RAII holder (used by net/server.cc worker threads) must
  // satisfy the same capability contracts as the explicit bracketing.
  {
    Store::Session session{store};
    store.Upsert(3, 1);
    store.Read(3, 0, &out);
    store.CompletePending(/*wait=*/true);
  }
}

void DriveInMem() {
  faster::InMemKv<faster::CountStoreFunctions> kv{64};
  kv.StartSession();
  uint64_t out = 0;
  kv.Read(1, 0, &out);
  kv.Upsert(1, 7);
  kv.Rmw(1, 3);
  kv.Delete(1);
  kv.Refresh();
  kv.StopSession();
}

void DriveEpoch() {
  faster::LightEpoch epoch;
  epoch.Protect();
  epoch.Refresh();
  epoch.BumpCurrentEpoch([] {});
  epoch.BumpAndWait([] {});
  epoch.SpinWaitForSafety(epoch.CurrentEpoch() - 1);
  epoch.Unprotect();
}

// The io_uring paths (Submit/Poll/PollAll) require an epoch-protected
// session; Drain is the documented teardown exception and needs none.
struct NullExecutor final : faster::IoOpExecutor {
  faster::Status ExecuteOp(const faster::IoOp&, uint32_t* bytes) override {
    *bytes = 0;
    return faster::Status::kOk;
  }
};

void DriveUring() {
  faster::LightEpoch epoch;
  NullExecutor exec;
  faster::DeviceObsStats stats;
  faster::UringIo io{-1, exec, stats};
  epoch.Protect();
  faster::IoOp op{};
  op.callback = [](void*, faster::Status, uint32_t) {};
  io.Submit(op);
  io.Poll();
  io.PollAll();
  epoch.Unprotect();
  io.Drain();  // post-quiescence: no session required
}

}  // namespace

int main() {
  DriveFaster();
  DriveInMem();
  DriveEpoch();
  DriveUring();
  return 0;
}
