// Reproduces the Sec. 7.2.4 comparison to Redis: a single-threaded,
// pipeline-accessed cache (our RemoteStore stand-in) vs. single-threaded
// embedded FASTER, on pure SET and pure GET streams over a 1 M key space.
//
// The paper sweeps redis-benchmark's pipeline depth (-P 1..200) with 10
// client connections and finds ~1.1 M sets/s and ~1.4 M gets/s at best —
// far below single-threaded FASTER. Expected shape here: RemoteStore
// throughput rises with pipeline depth and saturates well below the
// embedded FASTER numbers.

#include <memory>
#include <random>
#include <vector>

#include "baselines/remote_store.h"
#include "common.h"

namespace faster {
namespace bench {
namespace {

constexpr uint64_t kKeySpace = 1 << 20;

void BM_RemoteStore(benchmark::State& state) {
  bool is_set = state.range(0) == 1;
  uint32_t pipeline = static_cast<uint32_t>(state.range(1));
  constexpr uint32_t kClients = 4;  // paper: 10 client connections
  for (auto _ : state) {
    RemoteStore store;
    {
      // Preload the key space (redis-benchmark measures over an existing
      // dataset); gets then exercise the value path, not just misses.
      auto loader = store.Connect();
      std::vector<RemoteStore::Client::Op> batch;
      for (uint64_t k = 0; k < kKeySpace; ++k) {
        batch.push_back({true, k, k, 0, false});
        if (batch.size() == 512) {
          loader->ExecuteBatch(&batch);
          batch.clear();
        }
      }
      if (!batch.empty()) loader->ExecuteBatch(&batch);
    }
    struct Client {
      std::unique_ptr<RemoteStore::Client> conn;
      std::mt19937_64 rng;
      std::vector<RemoteStore::Client::Op> batch;
      uint64_t ops = 0;
    };
    std::vector<Client> clients;
    for (uint32_t c = 0; c < kClients; ++c) {
      clients.push_back(Client{store.Connect(), std::mt19937_64(c + 1),
                               std::vector<RemoteStore::Client::Op>(pipeline)});
    }
    Report(state, RunSteps(kClients, BenchSeconds(), pipeline,
                           [&](uint32_t tid) {
                             Client& c = clients[tid];
                             for (auto& op : c.batch) {
                               op.is_set = is_set;
                               op.key = c.rng() % kKeySpace;
                               op.value = c.ops;
                             }
                             c.ops += pipeline;
                             return c.conn->ExecuteBatch(&c.batch) ==
                                    Status::kOk;
                           }));
  }
}

void BM_FasterSingleThread(benchmark::State& state) {
  bool is_set = state.range(0) == 1;
  for (auto _ : state) {
    FasterStoreHolder<CountStoreFunctions> holder{
        FasterConfig<CountStoreFunctions>(kKeySpace, kKeySpace * 64)};
    holder.Load(kKeySpace);
    auto spec = is_set
                    ? WorkloadSpec::Ycsb(0.0, 0.0, Distribution::kUniform,
                                         kKeySpace)
                    : WorkloadSpec::Ycsb(1.0, 0.0, Distribution::kUniform,
                                         kKeySpace);
    FasterAdapter<CountStoreFunctions> adapter{*holder.store};
    Report(state, RunWorkload(adapter, spec, 1, BenchSeconds()));
  }
}

void RegisterAll() {
  for (int set = 0; set < 2; ++set) {
    const char* op = set == 1 ? "set" : "get";
    for (int64_t p : {1, 10, 50, 200}) {
      std::string name = std::string("redis/RemoteStore/") + op +
                         "/pipeline:" + std::to_string(p);
      benchmark::RegisterBenchmark(name.c_str(), BM_RemoteStore)
          ->Args({set, p})
          ->Iterations(1)
          ->Unit(benchmark::kMillisecond);
    }
    benchmark::RegisterBenchmark(
        (std::string("redis/FASTER-1thread/") + op).c_str(),
        BM_FasterSingleThread)
        ->Args({set})
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
