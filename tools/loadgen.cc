// loadgen: closed-loop RESP pipeline load generator for faster_server.
//
//   ./loadgen --port P [--host H] [--connections N] [--pipeline D]
//             [--seconds S] [--keys K] [--get-ratio R] [--read-heavy]
//             [--memory-budget MB] [--check]
//
// --read-heavy is shorthand for --get-ratio 0.95 (the cold-read smoke
// profile). --memory-budget MB sizes the key space, when --keys is not
// given explicitly, to ~4x the record capacity of a server running with
// that HybridLog budget — so GETs of the key tail hit storage and
// exercise the server's pending-I/O path rather than pure in-memory hits.
//
// Each of N connection threads keeps D commands in flight: it writes a
// batch of D requests, reads until D replies are framed (net::SkipReply),
// and repeats — so D is both the pipeline depth on the wire and the batch
// fill the server can coalesce. The workload is R GETs : (1-R) INCRs over
// K decimal keys. Per-batch round-trip latencies are sampled; the summary
// line reports throughput and p50/p95/p99 per-command latency.
//
// Exit code: 0 only if every connection finished without socket errors,
// protocol-framing errors, or -ERR replies (--check also verifies reply
// counts match request counts exactly).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "net/resp.h"
#include "net/socket.h"

namespace {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string host = "127.0.0.1";
  uint16_t port = 6379;
  uint32_t connections = 4;
  uint32_t pipeline = 16;
  double seconds = 5.0;
  uint64_t keys = 100000;
  bool keys_explicit = false;
  double get_ratio = 0.5;
  uint64_t memory_budget_mb = 0;  // 0 = don't derive keys from a budget
  bool check = false;
};

struct WorkerResult {
  uint64_t commands = 0;
  uint64_t replies = 0;
  uint64_t errors = 0;         // -ERR replies
  uint64_t socket_errors = 0;  // connect/read/write failures
  uint64_t framing_errors = 0; // unparseable reply stream
  std::vector<double> batch_rtt_us;
};

void RunConnection(const Options& o, uint32_t seed, WorkerResult* r) {
  faster::net::UniqueFd fd = faster::net::ConnectTcp(o.host, o.port);
  if (!fd) {
    r->socket_errors++;
    return;
  }
  faster::net::SetNoDelay(fd.get());

  std::mt19937_64 rng{seed};
  std::uniform_int_distribution<uint64_t> key_dist{0, o.keys - 1};
  std::uniform_real_distribution<double> op_dist{0.0, 1.0};

  std::string req;
  std::string rbuf;
  char tmp[1 << 16];
  auto deadline =
      Clock::now() + std::chrono::duration<double>(o.seconds);
  while (Clock::now() < deadline) {
    req.clear();
    for (uint32_t i = 0; i < o.pipeline; ++i) {
      char line[64];
      uint64_t key = key_dist(rng);
      int n;
      if (op_dist(rng) < o.get_ratio) {
        n = std::snprintf(line, sizeof(line), "GET %llu\r\n",
                          static_cast<unsigned long long>(key));
      } else {
        n = std::snprintf(line, sizeof(line), "INCR %llu\r\n",
                          static_cast<unsigned long long>(key));
      }
      req.append(line, static_cast<size_t>(n));
    }
    auto t0 = Clock::now();
    if (!faster::net::WriteAllFd(fd.get(), req.data(), req.size())) {
      r->socket_errors++;
      return;
    }
    r->commands += o.pipeline;
    // Read until this batch's replies are all framed.
    uint32_t seen = 0;
    size_t pos = 0;
    while (seen < o.pipeline) {
      ssize_t got = faster::net::ReadSomeFd(fd.get(), tmp, sizeof(tmp));
      if (got <= 0) {
        r->socket_errors++;
        return;
      }
      rbuf.append(tmp, static_cast<size_t>(got));
      for (;;) {
        char type = 0;
        size_t next = faster::net::SkipReply(rbuf, pos, &type);
        if (next == std::string::npos) break;
        if (type == '-') r->errors++;
        pos = next;
        r->replies++;
        if (++seen == o.pipeline) break;
      }
    }
    rbuf.erase(0, pos);
    pos = 0;
    auto t1 = Clock::now();
    r->batch_rtt_us.push_back(
        std::chrono::duration<double, std::micro>(t1 - t0).count());
  }
}

double Percentile(std::vector<double>* v, double p) {
  if (v->empty()) return 0.0;
  size_t idx = static_cast<size_t>(p * static_cast<double>(v->size() - 1));
  std::nth_element(v->begin(), v->begin() + static_cast<ptrdiff_t>(idx),
                   v->end());
  return (*v)[idx];
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto next_ll = [&](long long lo, long long hi, long long* out) {
      if (i + 1 >= argc) return false;
      char* end = nullptr;
      long long v = std::strtoll(argv[++i], &end, 10);
      if (end == nullptr || *end != '\0' || v < lo || v > hi) return false;
      *out = v;
      return true;
    };
    long long v = 0;
    if (a == "--host" && i + 1 < argc) {
      o.host = argv[++i];
    } else if (a == "--port" && next_ll(1, 65535, &v)) {
      o.port = static_cast<uint16_t>(v);
    } else if (a == "--connections" && next_ll(1, 1024, &v)) {
      o.connections = static_cast<uint32_t>(v);
    } else if (a == "--pipeline" && next_ll(1, 1 << 16, &v)) {
      o.pipeline = static_cast<uint32_t>(v);
    } else if (a == "--seconds" && i + 1 < argc) {
      o.seconds = std::atof(argv[++i]);
    } else if (a == "--keys" && next_ll(1, 1ll << 40, &v)) {
      o.keys = static_cast<uint64_t>(v);
      o.keys_explicit = true;
    } else if (a == "--get-ratio" && i + 1 < argc) {
      o.get_ratio = std::atof(argv[++i]);
    } else if (a == "--read-heavy") {
      o.get_ratio = 0.95;
    } else if (a == "--memory-budget" && next_ll(1, 1 << 20, &v)) {
      o.memory_budget_mb = static_cast<uint64_t>(v);
    } else if (a == "--check") {
      o.check = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s --port P [--host H] [--connections N] "
                   "[--pipeline D] [--seconds S] [--keys K] "
                   "[--get-ratio R] [--read-heavy] [--memory-budget MB] "
                   "[--check]\n",
                   argv[0]);
      return 2;
    }
  }
  if (o.memory_budget_mb != 0 && !o.keys_explicit) {
    // ~4x the number of 32-byte records a HybridLog of this budget holds
    // in memory, so the uniform key tail spills to storage server-side.
    o.keys = (o.memory_budget_mb << 20) / 32 * 4;
  }

  std::vector<WorkerResult> results(o.connections);
  std::vector<std::thread> threads;
  auto t0 = Clock::now();
  for (uint32_t c = 0; c < o.connections; ++c) {
    threads.emplace_back(RunConnection, std::cref(o), 0x9e3779b9u + c,
                         &results[c]);
  }
  for (auto& t : threads) t.join();
  double elapsed = std::chrono::duration<double>(Clock::now() - t0).count();

  WorkerResult total;
  std::vector<double> rtts;
  for (auto& r : results) {
    total.commands += r.commands;
    total.replies += r.replies;
    total.errors += r.errors;
    total.socket_errors += r.socket_errors;
    total.framing_errors += r.framing_errors;
    rtts.insert(rtts.end(), r.batch_rtt_us.begin(), r.batch_rtt_us.end());
  }
  // Per-command latency: a batch RTT covers `pipeline` commands.
  double p50 = Percentile(&rtts, 0.50) / o.pipeline;
  double p95 = Percentile(&rtts, 0.95) / o.pipeline;
  double p99 = Percentile(&rtts, 0.99) / o.pipeline;
  double ops = elapsed > 0 ? static_cast<double>(total.replies) / elapsed
                           : 0.0;

  std::printf(
      "loadgen: conns=%u pipeline=%u elapsed=%.2fs commands=%llu "
      "replies=%llu throughput=%.0f ops/s p50=%.1fus p95=%.1fus "
      "p99=%.1fus errors=%llu socket_errors=%llu framing_errors=%llu\n",
      o.connections, o.pipeline, elapsed,
      static_cast<unsigned long long>(total.commands),
      static_cast<unsigned long long>(total.replies), ops, p50, p95, p99,
      static_cast<unsigned long long>(total.errors),
      static_cast<unsigned long long>(total.socket_errors),
      static_cast<unsigned long long>(total.framing_errors));

  if (total.errors != 0 || total.socket_errors != 0 ||
      total.framing_errors != 0) {
    return 1;
  }
  if (o.check && total.replies != total.commands) {
    std::fprintf(stderr, "loadgen: reply count mismatch\n");
    return 1;
  }
  return 0;
}
