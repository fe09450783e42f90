#ifndef FASTER_BENCH_RUNNER_H_
#define FASTER_BENCH_RUNNER_H_

// Times a multi-threaded workload with the benchmark suite's window
// harness (benchsuite/harness.h): a discarded warm-up, then equal
// windows. Throughput is the median window rate and latency percentiles
// are medians over the windows' sampled reservoirs, in every build.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "harness.h"
#include "workload/ycsb.h"

namespace faster {

/// Result of a windowed multi-threaded run.
struct RunResult {
  uint64_t total_ops = 0;  // every op the workers ran, warm-up included
  double seconds = 0;      // the workers' wall time, warm-up included
  std::vector<double> window_mops;  // one rate per window
  double mops = 0;                  // median window rate
  double iqr_pct = 0;  // interquartile range of the rates, % of the median
  // Medians over windows of each window's latency percentile; a sample
  // is one op's time (a batch's time per op).
  double p50_us = 0;
  double p99_us = 0;
  double p999_us = 0;
};

/// The phase a `seconds`-long case measures: 0.1 s windows, at least
/// four, after a warm-up of a fifth of that time (at least 0.1 s).
inline suite::Phase BenchPhase(double seconds) {
  suite::Phase p;
  p.windows = std::max(4, static_cast<int>(seconds / p.window_s + 0.5));
  p.warmup_s = std::max(0.1, seconds / 5);
  return p;
}

/// Runs `body(tid, win)` on `workers` threads while the calling thread
/// times the windows. A body loops until `win.done(win.current())`,
/// reports its running op count with `win.Count` and its sampled op times
/// (in suite::Ticks) with `win.Sample`, and returns the ops it ran.
template <class Body>
RunResult RunWindows(uint32_t workers, double seconds, uint64_t seed,
                     Body&& body) {
  suite::TickRate tick_rate;
  suite::Windows win{static_cast<int>(workers), BenchPhase(seconds), seed};
  std::vector<uint64_t> ops(workers, 0);
  auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < workers; ++t) {
    threads.emplace_back([&, t] { ops[t] = body(t, win); });
  }
  win.Run();
  for (auto& t : threads) t.join();

  RunResult r;
  r.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            start)
                  .count();
  for (uint64_t n : ops) r.total_ops += n;
  for (double rate : win.Rates(false)) r.window_mops.push_back(rate / 1e6);
  r.mops = suite::Median(r.window_mops);
  double iqr = suite::Quantile(r.window_mops, 0.75) -
               suite::Quantile(r.window_mops, 0.25);
  r.iqr_pct = r.mops > 0 ? iqr / r.mops * 100.0 : 0;
  double ns_per_tick = tick_rate.NsPerTick();
  r.p50_us = suite::Median(win.LatencyPercentile(0.50, ns_per_tick));
  r.p99_us = suite::Median(win.LatencyPercentile(0.99, ns_per_tick));
  r.p999_us = suite::Median(win.LatencyPercentile(0.999, ns_per_tick));
  return r;
}

/// RunWindows for closed loops of equal steps: each worker calls
/// `step(tid)`, which runs `ops_per_step` ops (a pipelined batch of
/// requests) and returns false to stop that worker early. A step's time
/// per op is its latency sample.
template <class Step>
RunResult RunSteps(uint32_t workers, double seconds, uint32_t ops_per_step,
                   Step&& step) {
  return RunWindows(workers, seconds, 1, [&](uint32_t tid,
                                             suite::Windows& win) {
    uint64_t ops = 0;
    for (int w = win.current(); !win.done(w); w = win.current()) {
      uint64_t t0 = suite::Ticks();
      if (!step(tid)) break;
      ops += ops_per_step;
      win.Sample(static_cast<int>(tid), w,
                 (suite::Ticks() - t0) / ops_per_step);
      win.Count(static_cast<int>(tid), ops);
    }
    return ops;
  });
}

/// Detects the optional batched adapter hook: DoBatch(ops, n) executes
/// `n` generated ops as one batch. Used when RunWorkload's `batch`
/// argument exceeds 1; adapters without it always run single ops.
template <class A>
concept HasDoBatch =
    requires(A a, const typename OpGenerator::Op* ops, size_t n) {
      a.DoBatch(ops, n);
    };

/// Drives `adapter` with `num_threads` worker threads through a windowed
/// phase sized from `seconds` (the paper runs each test for 30 s; the
/// scaled-down harness defaults to shorter runs). With `batch` > 1 and an
/// adapter providing DoBatch, ops are issued in batches of that size.
///
/// Adapter concept:
///   void Begin();                 // per-thread session start
///   void End();                   // per-thread session end
///   void DoRead(uint64_t key);
///   void DoUpsert(uint64_t key, uint64_t value_seed);
///   void DoRmw(uint64_t key);
///   void Idle();                  // every 256 ops (CompletePending etc.)
///   void DoBatch(const OpGenerator::Op*, size_t);  // optional, see above
template <class Adapter>
RunResult RunWorkload(Adapter& adapter, const WorkloadSpec& spec,
                      uint32_t num_threads, double seconds,
                      uint64_t seed = 1, uint32_t batch = 1) {
  constexpr uint32_t kBlock = 256;  // ops per Idle() and per latency sample
  uint32_t group = 1;
  if constexpr (HasDoBatch<Adapter>) group = std::clamp(batch, 1u, kBlock);
  return RunWindows(num_threads, seconds, seed, [&](uint32_t tid,
                                                    suite::Windows& win) {
    OpGenerator gen{spec, seed + tid * 7919};
    OpGenerator::Op buf[kBlock];
    uint64_t ops = 0;
    adapter.Begin();
    for (int w = win.current(); !win.done(w); w = win.current()) {
      // A block runs in groups of `group` ops; the first group's time per
      // op is the block's latency sample.
      for (uint32_t done = 0; done < kBlock; done += group) {
        uint32_t m = std::min(group, kBlock - done);
        for (uint32_t j = 0; j < m; ++j) buf[j] = gen.Next();
        uint64_t t0 = done == 0 ? suite::Ticks() : 0;
        if constexpr (HasDoBatch<Adapter>) {
          if (group > 1) adapter.DoBatch(buf, m);
        }
        if (group == 1) {
          switch (buf[0].kind) {
            case OpKind::kRead:
              adapter.DoRead(buf[0].key);
              break;
            case OpKind::kUpsert:
              adapter.DoUpsert(buf[0].key, ops + done);
              break;
            case OpKind::kRmw:
              adapter.DoRmw(buf[0].key);
              break;
          }
        }
        if (done == 0) win.Sample(static_cast<int>(tid), w,
                                  (suite::Ticks() - t0) / m);
      }
      ops += kBlock;
      win.Count(static_cast<int>(tid), ops);
      adapter.Idle();
    }
    adapter.End();
    return ops;
  });
}

}  // namespace faster

#endif  // FASTER_BENCH_RUNNER_H_
