#include "harness.h"

#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <thread>
#include <unordered_map>

namespace suite {

using Clock = std::chrono::steady_clock;

TickRate::TickRate() : t0_{Ticks()}, c0_{Clock::now()} {}

double TickRate::NsPerTick() {
  if (ns_per_tick_ == 0) {
    uint64_t t1 = Ticks();
    double ns =
        std::chrono::duration<double, std::nano>(Clock::now() - c0_).count();
    ns_per_tick_ = t1 > t0_ ? ns / static_cast<double>(t1 - t0_) : 1.0;
  }
  return ns_per_tick_;
}

Phase Phase::For(const RunConfig& cfg, double seconds) {
  Phase p;
  if (cfg.smoke) {
    p.warmup_s = 0.1;
    p.windows = 3;
    p.alternate_trace = cfg.traced();
    if (p.alternate_trace) p.windows = 4;
    return p;
  }
  p.alternate_trace = cfg.traced();
  if (p.alternate_trace) p.warmup_s = 1.0;
  p.windows = std::max(4, static_cast<int>(seconds / p.window_s + 0.5));
  return p;
}

Windows::Windows(int workers, const Phase& phase, uint64_t seed)
    : phase_{phase}, slots_(static_cast<size_t>(workers)) {
  for (size_t i = 0; i < slots_.size(); ++i) {
    Slot& s = slots_[i];
    s.rng = (seed + 1) * 0x9e3779b97f4a7c15ull + i;
    s.samples.resize(static_cast<size_t>(phase.windows));
    for (auto& r : s.samples) r.reserve(kReservoir);
    s.seen.assign(static_cast<size_t>(phase.windows), 0);
  }
}

double Windows::trace_progress(int w) const {
  int traced_total = phase_.windows / 2;
  if (traced_total == 0 || w < 0) return 0;
  return std::min(1.0, static_cast<double>(w / 2 + 1) / traced_total);
}

void Windows::Sample(int worker, int w, uint64_t ticks) {
  if (w < 0 || w >= phase_.windows) return;
  Slot& s = slots_[static_cast<size_t>(worker)];
  uint32_t v = static_cast<uint32_t>(std::min<uint64_t>(ticks, UINT32_MAX));
  auto& r = s.samples[static_cast<size_t>(w)];
  uint64_t seen = ++s.seen[static_cast<size_t>(w)];
  if (r.size() < kReservoir) {
    r.push_back(v);
    return;
  }
  // xorshift64: the reservoir replacement index (Algorithm R).
  s.rng ^= s.rng << 13;
  s.rng ^= s.rng >> 7;
  s.rng ^= s.rng << 17;
  uint64_t j = s.rng % seen;
  if (j < kReservoir) r[j] = v;
}

void Windows::Run(const std::function<void()>& at_start,
                  const std::function<void()>& at_end) {
  auto total = [this] {
    uint64_t n = 0;
    for (const Slot& s : slots_) n += s.ops.load(std::memory_order_relaxed);
    return n;
  };
  auto dur = [](double s) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(s));
  };
  auto t = Clock::now();
  std::this_thread::sleep_until(t + dur(phase_.warmup_s));
  if (at_start) at_start();
  auto start = Clock::now();
  uint64_t prev_ops = total();
  auto prev_t = start;
  current_.store(0, std::memory_order_relaxed);
  for (int w = 0; w < phase_.windows; ++w) {
    std::this_thread::sleep_until(start + dur(phase_.window_s * (w + 1)));
    uint64_t ops = total();
    auto now = Clock::now();
    current_.store(w + 1, std::memory_order_relaxed);
    double secs = std::chrono::duration<double>(now - prev_t).count();
    rates_.push_back(static_cast<double>(ops - prev_ops) / secs);
    prev_ops = ops;
    prev_t = now;
  }
  if (at_end) at_end();
}

std::vector<double> Windows::Rates(bool traced_windows) const {
  std::vector<double> out;
  for (size_t w = 0; w < rates_.size(); ++w) {
    if (traced(static_cast<int>(w)) == traced_windows) out.push_back(rates_[w]);
  }
  return out;
}

std::vector<double> Windows::LatencyPercentile(double q,
                                               double ns_per_tick) const {
  std::vector<double> out;
  std::vector<uint32_t> merged;
  for (int w = 0; w < phase_.windows; ++w) {
    if (traced(w)) continue;
    merged.clear();
    for (const Slot& s : slots_) {
      const auto& r = s.samples[static_cast<size_t>(w)];
      merged.insert(merged.end(), r.begin(), r.end());
    }
    if (merged.empty()) continue;
    size_t idx = std::min(merged.size() - 1,
                          static_cast<size_t>(q * static_cast<double>(
                                                      merged.size())));
    std::nth_element(merged.begin(),
                     merged.begin() + static_cast<ptrdiff_t>(idx),
                     merged.end());
    out.push_back(merged[idx] * ns_per_tick / 1000.0);
  }
  return out;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

SpanBuffer::SpanBuffer(uint32_t tid, size_t capacity)
    : tid_{tid}, capacity_{capacity} {
  spans_.reserve(capacity);
}

SpanBuffer* SpanLog::NewBuffer(size_t capacity) {
  buffers_.push_back(std::make_unique<SpanBuffer>(
      static_cast<uint32_t>(buffers_.size()), capacity));
  return buffers_.back().get();
}

bool SpanLog::WriteChrome(const std::string& path, double ns_per_tick) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  uint64_t origin = UINT64_MAX;
  for (const auto& b : buffers_) {
    for (const Span& s : b->spans()) origin = std::min(origin, s.start);
  }
  double us_per_tick = ns_per_tick / 1000.0;
  int pid = static_cast<int>(::getpid());
  std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [");
  bool first = true;
  for (const auto& b : buffers_) {
    for (const Span& s : b->spans()) {
      std::fprintf(
          f,
          "%s\n{\"name\":\"%s\",\"cat\":\"span\",\"ph\":\"X\",\"pid\":%d,"
          "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"trace_id\":%" PRIu64
          ",\"span_id\":%" PRIu64 ",\"parent_span_id\":%" PRIu64 "}}",
          first ? "" : ",", s.name, pid, s.tid,
          static_cast<double>(s.start - origin) * us_per_tick,
          static_cast<double>(s.end - s.start) * us_per_tick, s.trace, s.id,
          s.parent);
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

std::map<std::string, SpanLog::SelfTime> SpanLog::SelfTimes(
    double ns_per_tick) const {
  std::unordered_map<uint64_t, const Span*> by_id;
  for (const auto& b : buffers_) {
    for (const Span& s : b->spans()) by_id[s.id] = &s;
  }
  // Time each span's children cover inside it (children of one request
  // run one after another, so their overlaps with the parent just add).
  std::unordered_map<uint64_t, uint64_t> covered;
  for (const auto& [id, s] : by_id) {
    if (s->parent == 0) continue;
    auto it = by_id.find(s->parent);
    if (it == by_id.end()) continue;
    const Span* p = it->second;
    uint64_t lo = std::max(s->start, p->start);
    uint64_t hi = std::min(s->end, p->end);
    if (hi > lo) covered[p->id] += hi - lo;
  }
  std::map<std::string, SelfTime> out;
  for (const auto& [id, s] : by_id) {
    uint64_t dur = s->end - s->start;
    auto c = covered.find(id);
    uint64_t child = c == covered.end() ? 0 : std::min(c->second, dur);
    SelfTime& t = out[s->name];
    t.mean_ns += static_cast<double>(dur - child) * ns_per_tick;
    ++t.count;
  }
  for (auto& [name, t] : out) t.mean_ns /= static_cast<double>(t.count);
  return out;
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back(Metric{name, value, unit});
}

void Report::Fail(const std::string& what) {
  if (failed_ < 10) {
    std::fprintf(stderr, "%s: check failed: %s\n", workload_.c_str(),
                 what.c_str());
  }
  ++failed_;
}

void Report::Merge(const WorkerOutcome& w) {
  attempted_ += w.ops;
  if (w.failed == 0) return;
  std::fprintf(stderr, "%s: %llu checks failed, first: %s\n",
               workload_.c_str(), static_cast<unsigned long long>(w.failed),
               w.first_error.c_str());
  failed_ += w.failed;
}

void Report::AddThroughput(const Windows& win, bool traced) {
  std::vector<double> rates = win.Rates(false);
  double median = Median(rates);
  double iqr = Quantile(rates, 0.75) - Quantile(rates, 0.25);
  std::fprintf(stderr, "%s: untraced window rates (Mop/s):", workload_.c_str());
  for (double r : rates) std::fprintf(stderr, " %.3f", r / 1e6);
  std::fprintf(stderr, "\n");
  Add("throughput_mops", median / 1e6, "Mop/s");
  Add("bench.window_iqr_pct", median > 0 ? iqr / median * 100.0 : 0, "%");
  if (traced) {
    double traced_median = Median(win.Rates(true));
    Add("bench.trace_overhead_pct",
        median > 0 ? (median - traced_median) / median * 100.0 : 0, "%");
  }
}

void Report::AddLatency(const Windows& win, double ns_per_tick) {
  std::vector<double> p50 = win.LatencyPercentile(0.50, ns_per_tick);
  std::vector<double> p99 = win.LatencyPercentile(0.99, ns_per_tick);
  std::fprintf(stderr, "%s: untraced window p50/p99 (us):", workload_.c_str());
  for (size_t i = 0; i < p50.size(); ++i) {
    std::fprintf(stderr, " %.3g/%.3g", p50[i], p99[i]);
  }
  std::fprintf(stderr, "\n");
  Add("p50_us", Median(p50), "us");
  Add("p99_us", Median(p99), "us");
}

void Report::Print() const {
  for (const Metric& m : metrics_) {
    std::printf("%s/%s %.17g %s\n", workload_.c_str(), m.name.c_str(),
                m.value, m.unit.c_str());
  }
  std::printf("%s/attempted %" PRIu64 " count\n", workload_.c_str(),
              attempted_);
  std::printf("%s/failed %" PRIu64 " count\n", workload_.c_str(), failed_);
  std::fflush(stdout);
}

std::map<std::string, SpanLog::SelfTime> FinishTrace(const RunConfig& cfg,
                                                     const SpanLog& log,
                                                     double ns_per_tick,
                                                     Report* report) {
  if (!log.WriteChrome(cfg.trace_path, ns_per_tick)) {
    report->Fail("cannot write trace file " + cfg.trace_path);
  }
  return log.SelfTimes(ns_per_tick);
}

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

std::vector<faster::OpGenerator::Op> Pregenerate(
    const faster::WorkloadSpec& spec, uint64_t seed, size_t n) {
  faster::OpGenerator gen{spec, seed};
  std::vector<faster::OpGenerator::Op> ops(n);
  for (auto& op : ops) op = gen.Next();
  return ops;
}

}  // namespace suite
