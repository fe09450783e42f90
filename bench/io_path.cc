// I/O-path sweep: the device I/O paths (DESIGN.md §13) under a
// Fig. 10-style memory-budget sweep. At small budgets a 50:50 zipf
// workload turns into a pending-read storm, so the per-I/O cost of the
// completion path dominates throughput. Case names ("polling" is
// IoPathMode::kPolling, which now means synchronous I/O at submit):
//
//   io_path/polling/budgetMB:N   MemoryDevice: segment copy and callback
//                                at submit
//   io_path_file/{polling,uring}/budgetMB:16
//                                a FileDevice running pread/pwrite at
//                                submit vs. the io_uring backend
//                                (uring_active says whether the kernel
//                                backend engaged)
//
// tools/summarize_bench.py pairs uring against polling per budget.

#include <filesystem>

#include "common.h"
#include "device/file_device.h"

namespace faster {
namespace bench {
namespace {

using Funcs = BlobStoreFunctions<100>;

uint64_t DatasetKeys() { return BenchKeys() / 2; }

/// FasterStoreHolder owns a MemoryDevice; the point here is the device, so
/// this holder takes one by pointer instead.
struct ModalStoreHolder {
  ModalStoreHolder(const FasterKv<Funcs>::Config& cfg, IDevice* device)
      : store(std::make_unique<FasterKv<Funcs>>(cfg, device)) {}

  void Load(uint64_t n) {
    store->StartSession();
    for (uint64_t k = 0; k < n; ++k) {
      store->Upsert(k, MakeValue<Funcs::Value>(k));
    }
    store->StopSession();
  }

  std::unique_ptr<FasterKv<Funcs>> store;
};

void RunCase(benchmark::State& state, IDevice* device, uint64_t keys,
             uint64_t budget_mb) {
  auto spec = WorkloadSpec::Ycsb(0.5, 0.0, Distribution::kZipfian, keys);
  auto cfg = FasterConfig<Funcs>(keys, budget_mb << 20, 0.9);
  cfg.table_size = std::max<uint64_t>(keys / 8, 1024);
  ModalStoreHolder holder{cfg, device};
  holder.Load(keys);
  FasterAdapter<Funcs> adapter{*holder.store};
  Report(state, RunWorkload(adapter, spec, 2, BenchSeconds()));
}

void BM_MemoryIoPath(benchmark::State& state) {
  uint64_t keys = DatasetKeys();
  uint64_t budget_mb = static_cast<uint64_t>(state.range(0));
  for (auto _ : state) {
    // Every flush write and cold read executes on the worker that issues
    // it, before the submitting call returns.
    MemoryDevice device;
    RunCase(state, &device, keys, budget_mb);
  }
}

void BM_FileIoPath(benchmark::State& state) {
  // File-backed runs are slower per op; shrink the dataset so load +
  // measure still fits a short run.
  uint64_t keys = DatasetKeys() / 4;
  uint64_t budget_mb = static_cast<uint64_t>(state.range(0));
  auto mode = static_cast<IoPathMode>(state.range(1));
  std::string path = "/tmp/faster_bench_io_path.log";
  for (auto _ : state) {
    std::filesystem::remove(path);
    {
      FileDevice device{path, 0, mode};
      RunCase(state, &device, keys, budget_mb);
      // kUring falls back to kPolling on old kernels; record which backend
      // actually ran so the result is honest.
      state.counters["uring_active"] = benchmark::Counter(
          device.mode() == IoPathMode::kUring ? 1.0 : 0.0);
    }
    std::filesystem::remove(path);
  }
}

void RegisterAll() {
  for (int64_t budget : {8, 16, 32, 64}) {
    benchmark::RegisterBenchmark(
        ("io_path/polling/budgetMB:" + std::to_string(budget)).c_str(),
        BM_MemoryIoPath)
        ->Args({budget})
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
  struct FileMode {
    const char* name;
    IoPathMode mode;
  };
  for (FileMode fm : {FileMode{"polling", IoPathMode::kPolling},
                      FileMode{"uring", IoPathMode::kUring}}) {
    benchmark::RegisterBenchmark(
        (std::string("io_path_file/") + fm.name + "/budgetMB:16").c_str(),
        BM_FileIoPath)
        ->Args({16, static_cast<int64_t>(fm.mode)})
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
}

}  // namespace
}  // namespace bench
}  // namespace faster

int main(int argc, char** argv) {
  faster::bench::RegisterAll();
  return faster::bench::RunBenchmarks(argc, argv);
}
