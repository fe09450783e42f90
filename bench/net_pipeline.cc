// Networked pipeline sweep: the RESP server (src/net) vs the RemoteStore
// baseline, over pipeline depth P in {1, 4, 16, 64}.
//
// Both sides run the same closed loop: 2 client threads, each keeping P
// commands (50:50 GET/SET, uniform keys) in flight on its own connection.
// The faster_server side goes over loopback TCP through the RESP parser
// and the per-turn ExecuteBatch coalescer; the remote_baseline side goes
// over the socketpair text protocol to the single-threaded baseline. The
// interesting comparisons (summarize_bench.py prints both):
//
//   * depth speedup — P>=16 vs P=1 on the server: amortizing the network
//     hop AND filling the store's batch pipeline (Sec. 7.2.4's -P sweep);
//   * server vs baseline at equal P — the concurrent, batch-executing
//     server against the paper's Redis stand-in.
//
// Counters: P (pipeline depth), Mops (the median window rate) and
// per-command latency (a batch's round trip over P).

#include <cstdio>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "baselines/remote_store.h"
#include "common.h"
#include "net/resp.h"
#include "net/server.h"
#include "net/socket.h"

namespace faster {
namespace bench {
namespace {

constexpr uint32_t kConnections = 2;

uint64_t NetKeys() { return BenchKeys(uint64_t{1} << 17); }

/// One connection of the closed loop over loopback TCP.
struct ServerConn {
  net::UniqueFd fd;
  std::mt19937_64 rng;
  std::string req, rbuf;
};

/// One round trip: writes P RESP commands (50:50 GET/SET), frames P
/// replies. False on a socket error.
bool ServerRoundTrip(ServerConn& c, uint32_t pipeline, uint64_t keys) {
  std::uniform_int_distribution<uint64_t> key_dist{0, keys - 1};
  c.req.clear();
  for (uint32_t i = 0; i < pipeline; ++i) {
    char line[64];
    uint64_t key = key_dist(c.rng);
    int n = (i & 1) == 0
                ? std::snprintf(line, sizeof(line), "GET %llu\r\n",
                                static_cast<unsigned long long>(key))
                : std::snprintf(line, sizeof(line), "SET %llu %llu\r\n",
                                static_cast<unsigned long long>(key),
                                static_cast<unsigned long long>(key));
    c.req.append(line, static_cast<size_t>(n));
  }
  if (!net::WriteAllFd(c.fd.get(), c.req.data(), c.req.size())) return false;
  char tmp[1 << 16];
  uint32_t seen = 0;
  size_t pos = 0;
  while (seen < pipeline) {
    ssize_t got = net::ReadSomeFd(c.fd.get(), tmp, sizeof(tmp));
    if (got <= 0) return false;
    c.rbuf.append(tmp, static_cast<size_t>(got));
    for (;;) {
      size_t next = net::SkipReply(c.rbuf, pos, nullptr);
      if (next == std::string::npos) break;
      pos = next;
      if (++seen == pipeline) break;
    }
  }
  c.rbuf.erase(0, pos);
  return true;
}

void BM_FasterServer(benchmark::State& state) {
  uint32_t pipeline = static_cast<uint32_t>(state.range(0));
  uint64_t keys = NetKeys();
  for (auto _ : state) {
    net::ServerOptions opts;
    opts.port = 0;  // ephemeral
    opts.threads = 2;
    opts.table_size = keys;
    net::FasterServer server{opts};
    if (!server.ok()) {
      state.SkipWithError(server.error().c_str());
      break;
    }
    std::vector<ServerConn> conns(kConnections);
    for (uint32_t c = 0; c < kConnections; ++c) {
      conns[c].fd = net::ConnectTcp("127.0.0.1", server.port());
      if (conns[c].fd) net::SetNoDelay(conns[c].fd.get());
      conns[c].rng.seed(0xc0ffee + c);
    }
    Report(state, RunSteps(kConnections, BenchSeconds(), pipeline,
                           [&](uint32_t tid) {
                             return conns[tid].fd &&
                                    ServerRoundTrip(conns[tid], pipeline,
                                                    keys);
                           }));
    state.counters["P"] = static_cast<double>(pipeline);
  }
}

void BM_RemoteBaseline(benchmark::State& state) {
  uint32_t pipeline = static_cast<uint32_t>(state.range(0));
  uint64_t keys = NetKeys();
  for (auto _ : state) {
    RemoteStore store;
    struct Client {
      std::unique_ptr<RemoteStore::Client> conn;
      std::mt19937_64 rng;
      std::vector<RemoteStore::Client::Op> ops;
    };
    std::vector<Client> clients;
    for (uint32_t c = 0; c < kConnections; ++c) {
      clients.push_back(Client{store.Connect(), std::mt19937_64(0xc0ffee + c),
                               std::vector<RemoteStore::Client::Op>(pipeline)});
    }
    Report(state, RunSteps(kConnections, BenchSeconds(), pipeline,
                           [&](uint32_t tid) {
                             Client& c = clients[tid];
                             std::uniform_int_distribution<uint64_t> key_dist{
                                 0, keys - 1};
                             for (uint32_t i = 0; i < pipeline; ++i) {
                               uint64_t key = key_dist(c.rng);
                               c.ops[i].is_set = (i & 1) != 0;
                               c.ops[i].key = key;
                               c.ops[i].value = key;
                             }
                             return c.conn->ExecuteBatch(&c.ops) ==
                                    Status::kOk;
                           }));
    state.counters["P"] = static_cast<double>(pipeline);
  }
}

void RegisterAll() {
  for (int64_t p : {1, 4, 16, 64}) {
    benchmark::RegisterBenchmark(
        ("net_pipeline/faster_server/P:" + std::to_string(p)).c_str(),
        BM_FasterServer)
        ->Args({p})
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark(
        ("net_pipeline/remote_baseline/P:" + std::to_string(p)).c_str(),
        BM_RemoteBaseline)
        ->Args({p})
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
