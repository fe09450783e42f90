// The three store workloads: hot-zipf-rw, cold-uniform-batch and
// spill-read-mostly. Each builds its store (setup_s), pre-generates its op
// streams from the seed, drives them from worker threads through a warm-up
// and measured windows, and checks every value it reads back.

#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/faster.h"
#include "core/functions.h"
#include "device/file_device.h"
#include "device/memory_device.h"
#include "harness.h"

namespace suite {
namespace {

using faster::OpKind;
using faster::Status;
using Op = faster::OpGenerator::Op;
using CountStore = faster::FasterKv<faster::CountStoreFunctions>;
using BlobFns = faster::BlobStoreFunctions<100>;
using BlobStore = faster::FasterKv<BlobFns>;

constexpr size_t kSpanCapacity = 1 << 15;  // spans kept per thread
constexpr size_t kSmokeSpanCapacity = 1 << 12;

std::string Describe(const char* what, uint64_t key, Status s) {
  return std::string(what) + " key=" + std::to_string(key) +
         " status=" + faster::StatusName(s);
}

/// Completion callback for stores whose pending ops carry a pointer to
/// the Status slot that should receive the final result.
template <class Store>
void StoreFinalStatus(typename Store::UserOp, Status result, void* ctx) {
  *static_cast<Status*>(ctx) = result;
}

/// A count store on an in-memory device, preloaded with tagged values.
struct CountEnv {
  CountEnv(uint64_t keys, uint64_t log_bytes)
      : device{2}, store{Config(keys, log_bytes), &device} {
    store.StartSession();
    for (uint64_t k = 0; k < keys; ++k) store.Upsert(k, Tagged(k, 1));
    store.StopSession();
  }

  static CountStore::Config Config(uint64_t keys, uint64_t log_bytes) {
    CountStore::Config c;
    c.table_size = keys / 2;  // the paper's #keys/2 buckets
    c.log.memory_size_bytes = log_bytes;
    c.log.mutable_fraction = 0.9;
    c.completion_callback = StoreFinalStatus<CountStore>;
    return c;
  }

  faster::MemoryDevice device;
  CountStore store;
};

/// Thread buffers for a traced run (empty when untraced).
std::vector<SpanBuffer*> SpanBuffers(const RunConfig& cfg, SpanLog* log,
                                     int threads) {
  std::vector<SpanBuffer*> out(static_cast<size_t>(threads), nullptr);
  if (!cfg.traced()) return out;
  for (auto& b : out) {
    b = log->NewBuffer(cfg.smoke ? kSmokeSpanCapacity : kSpanCapacity);
  }
  return out;
}

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0 : static_cast<double>(num) / static_cast<double>(den);
}

// ---------------------------------------------------------------------------
// hot-zipf-rw: YCSB-A on a cache-resident hot set. Time goes to the op
// engine, index probe, in-place update and epoch refresh; no I/O.
// ---------------------------------------------------------------------------

void HotWorker(CountStore& store, const std::vector<Op>& stream,
               Windows& win, int wi, SpanBuffer* spans, WorkerOutcome* out) {
  store.StartSession();
  uint64_t n = 0;
  uint32_t seq = 0;
  size_t i = 0;
  for (;;) {
    int w = win.current();
    if (win.done(w)) break;
    bool span = spans != nullptr && win.traced(w) && (n & 63) == 0 &&
                spans->Room(win.trace_progress(w));
    uint64_t t_root = span ? Ticks() : 0;
    const Op& op = stream[i];
    if (++i == stream.size()) i = 0;
    uint64_t key = op.key;
    bool write = op.kind == OpKind::kUpsert;
    bool sample = (n & 15) == 0;
    uint64_t t0 = sample || span ? Ticks() : 0;
    Status s;
    uint64_t value = 0;
    Status pending_status = Status::kOk;
    if (write) {
      s = store.Upsert(key, Tagged(key, ++seq));
    } else {
      s = store.Read(key, 0, &value, &pending_status);
    }
    uint64_t t1 = sample || span ? Ticks() : 0;
    if (s == Status::kPending) {
      store.CompletePending(/*wait=*/true);
      s = pending_status;
    }
    if (s != Status::kOk) {
      out->Fail(Describe(write ? "upsert" : "read", key, s));
    } else if (!write && !TagOk(key, value)) {
      out->Fail(Describe("read returned another key's value", key, s));
    }
    if (sample) win.Sample(wi, w, t1 - t0);
    if (span) {
      uint64_t trace = spans->NewTrace();
      uint64_t root = spans->NewId();
      spans->Add(write ? "core.op.upsert" : "core.op.read", t0, t1,
                 spans->NewId(), root, trace);
      spans->Add("bench.op", t_root, Ticks(), root, 0, trace);
    }
    win.Count(wi, ++n);
  }
  store.StopSession();
  out->ops = n;
}

}  // namespace

void RunHotZipfRw(const RunConfig& cfg, Report* report) {
  constexpr int kWorkers = 2;
  TickRate rate;
  uint64_t keys = cfg.Size(uint64_t{1} << 20, uint64_t{1} << 14);
  uint64_t log_bytes = cfg.Size(uint64_t{256} << 20, uint64_t{16} << 20);
  size_t stream_len = cfg.Size(size_t{1} << 21, size_t{1} << 16);

  auto spec = faster::WorkloadSpec::Ycsb(0.5, 0, faster::Distribution::kZipfian,
                                         keys);
  std::vector<std::vector<Op>> streams;
  for (int t = 0; t < kWorkers; ++t) {
    streams.push_back(Pregenerate(spec, cfg.seed * 16 + t, stream_len));
  }
  double setup_s = 0;
  auto env = TimedSetups<CountEnv>(cfg.setups(), &setup_s, [&] {
    return std::make_unique<CountEnv>(keys, log_bytes);
  });

  SpanLog log;
  std::vector<SpanBuffer*> spans = SpanBuffers(cfg, &log, kWorkers);
  Windows win{kWorkers, Phase::For(cfg, cfg.traced() ? cfg.seconds / 2
                                                     : cfg.seconds),
              cfg.seed};
  std::vector<WorkerOutcome> outcomes(kWorkers);
  std::vector<std::thread> threads;
  for (int t = 0; t < kWorkers; ++t) {
    threads.emplace_back(HotWorker, std::ref(env->store),
                         std::cref(streams[t]), std::ref(win), t,
                         spans[static_cast<size_t>(t)], &outcomes[t]);
  }
  CountStore::Stats before, after;
  win.Run([&] { before = env->store.GetStats(); },
          [&] { after = env->store.GetStats(); });
  for (auto& t : threads) t.join();
  for (const auto& o : outcomes) report->Merge(o);

  double ns = rate.NsPerTick();
  report->AddThroughput(win, cfg.traced());
  report->AddLatency(win, ns);
  report->Add("rss_mb", PeakRssMb(), "MB");
  report->Add("setup_s", setup_s, "s");
  if (cfg.traced()) {
    auto self = FinishTrace(cfg, log, ns, report);
    report->Add("core.op.read_ns", self["core.op.read"].mean_ns, "ns");
    report->Add("core.op.upsert_ns", self["core.op.upsert"].mean_ns, "ns");
    report->Add("core.op.inplace_frac_hot",
                1.0 - Ratio(after.appended_records - before.appended_records,
                            after.upserts - before.upserts),
                "ratio");
  }
}

// ---------------------------------------------------------------------------
// cold-uniform-batch: a DRAM-latency-bound working set served through
// ExecuteBatch, where batch prefetching does the work.
// ---------------------------------------------------------------------------

namespace {

constexpr size_t kBatch = 32;

void BatchWorker(CountStore& store, const std::vector<Op>& stream,
                 Windows& win, int wi, SpanBuffer* spans, WorkerOutcome* out,
                 uint64_t* acked_rmws) {
  store.StartSession();
  CountStore::BatchOp ops[kBatch];
  uint64_t values[kBatch];
  uint64_t n = 0;
  uint64_t batches = 0;
  size_t i = 0;
  for (;;) {
    int w = win.current();
    if (win.done(w)) break;
    bool span = spans != nullptr && win.traced(w) && (batches & 1) == 0 &&
                spans->Room(win.trace_progress(w));
    uint64_t t_root = span ? Ticks() : 0;
    for (size_t j = 0; j < kBatch; ++j) {
      const Op& op = stream[i];
      if (++i == stream.size()) i = 0;
      ops[j] = CountStore::BatchOp{};
      ops[j].kind = op.kind == OpKind::kRmw ? CountStore::BatchOp::Kind::kRmw
                                            : CountStore::BatchOp::Kind::kRead;
      ops[j].key = op.key;
      ops[j].input = 1;
      ops[j].output = &values[j];
      // A pending op's completion writes its final status back here.
      ops[j].user_context = &ops[j].status;
    }
    uint64_t t0 = Ticks();
    store.ExecuteBatch(ops, kBatch);
    uint64_t t1 = Ticks();
    for (const auto& op : ops) {
      if (op.status == Status::kPending) {
        store.CompletePending(/*wait=*/true);
        break;
      }
    }
    for (size_t j = 0; j < kBatch; ++j) {
      const auto& op = ops[j];
      bool rmw = op.kind == CountStore::BatchOp::Kind::kRmw;
      if (op.status != Status::kOk) {
        out->Fail(Describe(rmw ? "rmw" : "read", op.key, op.status));
      } else if (rmw) {
        ++*acked_rmws;
      } else if (!TagOk(op.key, values[j])) {
        out->Fail(Describe("read returned another key's value", op.key,
                           op.status));
      }
    }
    win.Sample(wi, w, t1 - t0);
    if (span) {
      uint64_t trace = spans->NewTrace();
      uint64_t root = spans->NewId();
      spans->Add("core.op.execute_batch", t0, t1, spans->NewId(), root,
                 trace);
      spans->Add("bench.batch", t_root, Ticks(), root, 0, trace);
    }
    ++batches;
    n += kBatch;
    win.Count(wi, n);
  }
  store.StopSession();
  out->ops = n;
}

/// Reads every key back: each value must carry its key's tag, and the
/// counts must sum to the preload (1 per key) plus every acknowledged RMW.
void VerifyCounts(CountStore& store, uint64_t keys, uint64_t acked_rmws,
                  Report* report) {
  constexpr size_t kChunk = 64;
  uint64_t in[kChunk], inputs[kChunk] = {}, out[kChunk];
  Status status[kChunk];
  void* ctx[kChunk];
  for (size_t j = 0; j < kChunk; ++j) ctx[j] = &status[j];
  uint64_t sum = 0;
  store.StartSession();
  for (uint64_t base = 0; base < keys; base += kChunk) {
    size_t n = static_cast<size_t>(std::min<uint64_t>(kChunk, keys - base));
    for (size_t j = 0; j < n; ++j) in[j] = base + j;
    store.ReadBatch(in, inputs, out, status, n, ctx);
    store.CompletePending(/*wait=*/true);
    for (size_t j = 0; j < n; ++j) {
      if (status[j] != Status::kOk || !TagOk(in[j], out[j])) {
        report->Fail(Describe("final scan", in[j], status[j]));
        continue;
      }
      sum += out[j] & 0xffffffffu;
    }
  }
  store.StopSession();
  if (sum != keys + acked_rmws) {
    report->Fail("count sum " + std::to_string(sum) + " != preload " +
                 std::to_string(keys) + " + acknowledged RMWs " +
                 std::to_string(acked_rmws));
  }
}

}  // namespace

void RunColdUniformBatch(const RunConfig& cfg, Report* report) {
  constexpr int kWorkers = 2;
  TickRate rate;
  // 8M 24-byte records (192 MB) plus a 256 MB index: far beyond the
  // caches. The 512 MB log keeps every record in the mutable region.
  uint64_t keys = cfg.Size(uint64_t{1} << 23, uint64_t{1} << 15);
  uint64_t log_bytes = cfg.Size(uint64_t{512} << 20, uint64_t{16} << 20);
  size_t stream_len = cfg.Size(size_t{1} << 22, size_t{1} << 16);

  auto spec = faster::WorkloadSpec::Ycsb(
      0.5, 0.5, faster::Distribution::kUniform, keys);
  std::vector<std::vector<Op>> streams;
  for (int t = 0; t < kWorkers; ++t) {
    streams.push_back(Pregenerate(spec, cfg.seed * 16 + 4 + t, stream_len));
  }
  double setup_s = 0;
  auto env = TimedSetups<CountEnv>(cfg.setups(), &setup_s, [&] {
    return std::make_unique<CountEnv>(keys, log_bytes);
  });

  SpanLog log;
  std::vector<SpanBuffer*> spans = SpanBuffers(cfg, &log, kWorkers);
  Windows win{kWorkers, Phase::For(cfg, cfg.traced() ? cfg.seconds / 2
                                                     : cfg.seconds),
              cfg.seed};
  std::vector<WorkerOutcome> outcomes(kWorkers);
  std::vector<uint64_t> acked(kWorkers, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kWorkers; ++t) {
    threads.emplace_back(BatchWorker, std::ref(env->store),
                         std::cref(streams[t]), std::ref(win), t,
                         spans[static_cast<size_t>(t)], &outcomes[t],
                         &acked[t]);
  }
  CountStore::Stats before, after;
  win.Run([&] { before = env->store.GetStats(); },
          [&] { after = env->store.GetStats(); });
  for (auto& t : threads) t.join();
  for (const auto& o : outcomes) report->Merge(o);
  VerifyCounts(env->store, keys, acked[0] + acked[1], report);

  double ns = rate.NsPerTick();
  report->AddThroughput(win, cfg.traced());
  report->AddLatency(win, ns);
  report->Add("rss_mb", PeakRssMb(), "MB");
  report->Add("setup_s", setup_s, "s");
  if (cfg.traced()) {
    auto self = FinishTrace(cfg, log, ns, report);
    report->Add("core.op.batch_ns_per_op",
                self["core.op.execute_batch"].mean_ns / kBatch, "ns");
    report->Add("core.op.inplace_frac_cold",
                1.0 - Ratio(after.appended_records - before.appended_records,
                            after.rmws - before.rmws),
                "ratio");
  }
}

// ---------------------------------------------------------------------------
// spill-read-mostly: a 32 MB log over a file holding ~8x that, so most
// reads go pending; upserts append and force page flushes beside them.
// The device runs on the completion-polling path: reads and flushes
// execute inside the worker's CompletePending. On the thread-pool path
// every I/O needs a cross-thread wake-up, and in a shared KVM guest waking
// an idle vCPU takes from microseconds to milliseconds depending on the
// host's load, which moved this workload's throughput 2-5x between runs.
// ---------------------------------------------------------------------------

namespace {

struct SpillWorker;

/// One read that may go pending: its output must outlive the call.
struct PendingRead {
  SpillWorker* worker = nullptr;
  uint64_t key = 0;
  BlobFns::Blob value{};
  uint64_t t_issue = 0;    // ticks at the Read call
  uint64_t t_pending = 0;  // ticks when Read returned kPending
  int window = -1;
  bool sampled = false;
  uint64_t trace = 0;  // non-zero: traced request
  uint64_t root = 0;
};

struct SpillWorker {
  Windows* win = nullptr;
  SpanBuffer* spans = nullptr;
  WorkerOutcome outcome;
  std::vector<PendingRead> pool;
  std::vector<PendingRead*> free;
};

uint8_t FillByte(uint64_t key) { return static_cast<uint8_t>(key * 131 + 7); }

BlobFns::Blob MakeBlob(uint64_t key, uint64_t seq) {
  BlobFns::Blob b;
  std::memset(b.bytes, FillByte(key), sizeof(b.bytes));
  uint64_t tag = Tagged(key, seq);
  std::memcpy(b.bytes, &tag, sizeof(tag));
  return b;
}

bool BlobOk(uint64_t key, const BlobFns::Blob& b) {
  uint64_t tag;
  std::memcpy(&tag, b.bytes, sizeof(tag));
  return TagOk(key, tag) && b.bytes[sizeof(b.bytes) - 1] == FillByte(key);
}

void CheckRead(SpillWorker& wk, const PendingRead& p, Status s) {
  if (s != Status::kOk) {
    wk.outcome.Fail(Describe("read", p.key, s));
  } else if (!BlobOk(p.key, p.value)) {
    wk.outcome.Fail(Describe("read returned another key's value", p.key, s));
  }
}

void OnSpillComplete(BlobStore::UserOp, Status result, void* ctx) {
  auto* p = static_cast<PendingRead*>(ctx);
  SpillWorker& wk = *p->worker;
  uint64_t now = Ticks();
  CheckRead(wk, *p, result);
  if (p->sampled) wk.win->Sample(0, p->window, now - p->t_issue);
  if (p->trace != 0) {
    wk.spans->Add("device.pending_wait", p->t_pending, now, wk.spans->NewId(),
                  p->root, p->trace);
  }
  wk.free.push_back(p);
}

/// `file` after removing whatever a previous set-up left there.
std::string Fresh(const std::string& file) {
  std::filesystem::remove(file);
  return file;
}

struct SpillEnv {
  SpillEnv(const std::string& file, uint64_t keys, uint64_t log_bytes)
      : path{Fresh(file)},
        device{path, /*num_io_threads=*/0, faster::IoPathMode::kPolling},
        store{Config(keys, log_bytes), &device} {
    store.StartSession();
    for (uint64_t k = 0; k < keys; ++k) store.Upsert(k, MakeBlob(k, 0));
    store.StopSession();
  }
  // The file is unlinked while still open; the device closes it after.
  ~SpillEnv() { std::filesystem::remove(path); }

  static BlobStore::Config Config(uint64_t keys, uint64_t log_bytes) {
    BlobStore::Config c;
    c.table_size = keys / 2;
    c.log.memory_size_bytes = log_bytes;
    c.log.mutable_fraction = 0.9;
    c.completion_callback = OnSpillComplete;
    return c;
  }

  std::string path;
  faster::FileDevice device;
  BlobStore store;
};

constexpr size_t kMaxOutstandingReads = 64;

void SpillLoop(BlobStore& store, const std::vector<Op>& stream,
               SpillWorker& wk, uint64_t* cp_calls, uint64_t* measured_ops) {
  Windows& win = *wk.win;
  SpanBuffer* spans = wk.spans;
  uint64_t n = 0;
  uint32_t seq = 0;
  size_t i = 0;
  auto complete_pending = [&](int w) {
    bool span = spans != nullptr && win.traced(w) && (*cp_calls & 63) == 0 &&
                spans->Room(win.trace_progress(w), 1);
    if (w >= 0) ++*cp_calls;
    uint64_t t0 = span ? Ticks() : 0;
    store.CompletePending(/*wait=*/false);
    if (span) {
      spans->Add("core.op.complete_pending", t0, Ticks(), spans->NewId(), 0,
                 spans->NewTrace());
    }
  };
  for (;;) {
    int w = win.current();
    if (win.done(w)) break;
    bool span = spans != nullptr && win.traced(w) && (n & 63) == 0 &&
                spans->Room(win.trace_progress(w), 3);
    uint64_t t_root = span ? Ticks() : 0;
    uint64_t trace = span ? spans->NewTrace() : 0;
    uint64_t root = span ? spans->NewId() : 0;
    const Op& op = stream[i];
    if (++i == stream.size()) i = 0;
    uint64_t key = op.key;
    bool sample = (n & 15) == 0;
    const char* call = "core.op.read";
    uint64_t t0 = 0, t1 = 0;
    if (op.kind == OpKind::kUpsert) {
      call = "core.op.upsert";
      BlobFns::Blob v = MakeBlob(key, ++seq);
      t0 = Ticks();
      Status s = store.Upsert(key, v);
      t1 = Ticks();
      if (s != Status::kOk) wk.outcome.Fail(Describe("upsert", key, s));
      if (sample) win.Sample(0, w, t1 - t0);
    } else {
      while (wk.free.empty()) complete_pending(w);
      PendingRead* p = wk.free.back();
      wk.free.pop_back();
      p->key = key;
      p->window = w;
      p->sampled = sample;
      p->trace = 0;
      t0 = Ticks();
      p->t_issue = t0;
      Status s = store.Read(key, 0, &p->value, p);
      t1 = Ticks();
      if (s == Status::kPending) {
        p->t_pending = t1;
        p->trace = trace;
        p->root = root;
      } else {
        CheckRead(wk, *p, s);
        if (sample) win.Sample(0, w, t1 - t0);
        wk.free.push_back(p);
      }
    }
    if ((n & 7) == 0) complete_pending(w);
    if (span) {
      spans->Add(call, t0, t1, spans->NewId(), root, trace);
      spans->Add("bench.op", t_root, Ticks(), root, 0, trace);
    }
    if (w >= 0) ++*measured_ops;
    win.Count(0, ++n);
  }
  wk.outcome.ops = n;
}

}  // namespace

void RunSpillReadMostly(const RunConfig& cfg, Report* report) {
  TickRate rate;
  uint64_t keys = cfg.Size(uint64_t{1} << 21, uint64_t{1} << 17);
  uint64_t log_bytes = cfg.Size(uint64_t{32} << 20, uint64_t{8} << 20);
  size_t stream_len = cfg.Size(size_t{1} << 21, size_t{1} << 16);
  std::string file = cfg.tmpdir + "/spill-read-mostly." +
                     std::to_string(::getpid()) + ".log";

  std::vector<Op> stream = Pregenerate(
      faster::WorkloadSpec::Ycsb(0.9, 0, faster::Distribution::kUniform, keys),
      cfg.seed * 16 + 8, stream_len);
  double setup_s = 0;
  auto env = TimedSetups<SpillEnv>(cfg.setups(), &setup_s, [&] {
    return std::make_unique<SpillEnv>(file, keys, log_bytes);
  });

  SpanLog log;
  SpillWorker wk;
  wk.spans = SpanBuffers(cfg, &log, 1)[0];
  wk.pool.resize(kMaxOutstandingReads);
  for (auto& p : wk.pool) {
    p.worker = &wk;
    wk.free.push_back(&p);
  }
  Windows win{1, Phase::For(cfg, cfg.traced() ? cfg.seconds / 2 : cfg.seconds),
              cfg.seed};
  wk.win = &win;
  uint64_t cp_calls = 0, measured_ops = 0;
  std::thread worker([&] {
    env->store.StartSession();
    SpillLoop(env->store, stream, wk, &cp_calls, &measured_ops);
    env->store.StopSession();  // drains every outstanding read
  });
  struct Snapshot {
    BlobStore::Stats stats;
    uint64_t tail = 0;
    uint64_t written = 0;
  } before, after;
  auto snap = [&env](Snapshot* s) {
    s->stats = env->store.GetStats();
    s->tail = env->store.hlog().tail_address().control();
    s->written = env->device.bytes_written();
  };
  win.Run([&] { snap(&before); }, [&] { snap(&after); });
  worker.join();
  report->Merge(wk.outcome);
  if (wk.free.size() != kMaxOutstandingReads) {
    report->Fail("reads still outstanding after the session ended");
  }

  double ns = rate.NsPerTick();
  report->AddThroughput(win, cfg.traced());
  report->AddLatency(win, ns);
  report->Add("rss_mb", PeakRssMb(), "MB");
  report->Add("setup_s", setup_s, "s");
  if (cfg.traced()) {
    auto self = FinishTrace(cfg, log, ns, report);
    uint64_t ops = (after.stats.reads - before.stats.reads) +
                   (after.stats.upserts - before.stats.upserts);
    report->Add("core.op.complete_pending_ns",
                self["core.op.complete_pending"].mean_ns, "ns");
    report->Add("core.op.complete_pending_calls_per_op",
                Ratio(cp_calls, measured_ops), "1/op");
    report->Add("core.op.pending_frac",
                Ratio(after.stats.pending_ios - before.stats.pending_ios,
                      after.stats.reads - before.stats.reads),
                "ratio");
    report->Add("core.hlog.bytes_per_op", Ratio(after.tail - before.tail, ops),
                "B/op");
    report->Add("device.pending_wait_us",
                self["device.pending_wait"].mean_ns / 1000.0, "us");
    report->Add("device.write_bytes_per_op",
                Ratio(after.written - before.written, ops), "B/op");
  }
}

}  // namespace suite
