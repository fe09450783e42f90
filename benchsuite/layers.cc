// Layer microbenchmarks of a traced run. Each case calls one layer's
// public functions directly, sized like the workload whose end-to-end
// metric it explains, and reports the median over repetitions of the mean
// cost per call:
//
//   epoch      LightEpoch Protect+Unprotect, Refresh   (hot-zipf-rw)
//   index      HashIndex::FindEntry at 2^20 and 2^23 keys (hot-zipf-rw,
//              cold-uniform-batch); FindOrCreateEntry at 2^21 keys
//              (spill-read-mostly)
//   hlog       HybridLog::Allocate of 100-byte-value records on a 32 MB
//              log (spill-read-mostly)
//   device     FileDevice::ReadAsync submit and submit->callback of
//              record-sized reads on the polling path (spill-read-mostly)
//   net        RespParser::Next, reply Append*, and the server's two-phase
//              ExecuteBatch/ReadBatch per 16-command burst (resp-openloop)

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/epoch.h"
#include "core/faster.h"
#include "core/functions.h"
#include "core/hash_index.h"
#include "core/hybrid_log.h"
#include "core/key_hash.h"
#include "core/record.h"
#include "device/file_device.h"
#include "device/memory_device.h"
#include "harness.h"
#include "net/resp.h"

namespace suite {
namespace {

using faster::Address;
using faster::HashIndex;
using faster::KeyHash;
using faster::LightEpoch;

/// Median over `reps` runs of body() of its duration divided by `calls`.
template <class Body>
double MedianNsPerCall(int reps, size_t calls, Body&& body) {
  std::vector<double> per_call;
  for (int r = 0; r < reps; ++r) {
    auto t0 = std::chrono::steady_clock::now();
    body();
    std::chrono::duration<double, std::nano> d =
        std::chrono::steady_clock::now() - t0;
    per_call.push_back(d.count() / static_cast<double>(calls));
  }
  return Median(per_call);
}

/// Keeps a computed value alive so the timed loop is not optimized away.
template <class T>
void Keep(const T& v) {
  asm volatile("" : : "g"(&v) : "memory");
}

KeyHash Hash(uint64_t key) {
  return faster::DefaultKeyHasher<uint64_t>{}(key);
}

void EpochCases(int reps, size_t calls, Report* report) {
  LightEpoch epoch;
  // hot-zipf-rw runs two workers: a second protected thread keeps a
  // second live slot in the epoch table while the cases run.
  std::atomic<bool> stop{false};
  std::thread other([&] {
    epoch.Protect();
    while (!stop.load(std::memory_order_relaxed)) {
      epoch.Refresh();
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    epoch.Unprotect();
  });
  report->Add("core.epoch.protect_ns", MedianNsPerCall(reps, calls, [&] {
                for (size_t i = 0; i < calls; ++i) {
                  epoch.Protect();
                  epoch.Unprotect();
                }
              }),
              "ns");
  epoch.Protect();
  report->Add("core.epoch.refresh_ns", MedianNsPerCall(reps, calls, [&] {
                for (size_t i = 0; i < calls; ++i) Keep(epoch.Refresh());
              }),
              "ns");
  epoch.Unprotect();
  stop.store(true, std::memory_order_relaxed);
  other.join();
}

/// An index holding `keys` entries in keys/2 buckets, as the store sizes
/// it for that many keys.
struct IndexFixture {
  explicit IndexFixture(uint64_t keys) : index{keys / 2, &epoch} {
    epoch.Protect();
    for (uint64_t k = 0; k < keys; ++k) {
      KeyHash h = Hash(k);
      HashIndex::OpScope scope{index, h};
      HashIndex::FindResult fr;
      index.FindOrCreateEntry(scope, h, &fr);
      index.TryUpdateEntry(&fr, Address{64 + k * 8});
    }
  }
  ~IndexFixture() { epoch.Unprotect(); }

  LightEpoch epoch;
  HashIndex index;
};

std::vector<KeyHash> Hashes(uint64_t seed, uint64_t keys,
                            faster::Distribution d, size_t n) {
  auto gen = faster::MakeKeyGenerator(d, keys, seed);
  std::vector<KeyHash> out;
  for (size_t i = 0; i < n; ++i) out.push_back(Hash(gen->Next()));
  return out;
}

double FindNs(int reps, uint64_t keys, faster::Distribution d, uint64_t seed,
              size_t calls, bool create) {
  IndexFixture f{keys};
  std::vector<KeyHash> hashes = Hashes(seed, keys, d, calls);
  return MedianNsPerCall(reps, calls, [&] {
    uint64_t found = 0;
    for (KeyHash h : hashes) {
      HashIndex::OpScope scope{f.index, h};
      HashIndex::FindResult fr;
      if (create) {
        f.index.FindOrCreateEntry(scope, h, &fr);
      } else {
        f.index.FindEntry(scope, h, &fr);
      }
      found += fr.entry.address().control();
    }
    Keep(found);
  });
}

double AllocateNs(int reps, size_t calls, uint64_t log_bytes) {
  using RecordT =
      faster::Record<uint64_t, faster::BlobStoreFunctions<100>::Blob>;
  faster::NullDevice device;
  LightEpoch epoch;
  faster::LogConfig config;
  config.memory_size_bytes = log_bytes;
  faster::HybridLog log{config, &device, &epoch};
  epoch.Protect();
  // The store's allocation loop (FasterKv::TryAllocateRecord): on page
  // overflow, open the next page, refresh, and retry.
  double ns = MedianNsPerCall(reps, calls, [&] {
    for (size_t i = 0; i < calls; ++i) {
      for (;;) {
        uint64_t closed = 0;
        Address a = log.Allocate(RecordT::size(), &closed);
        if (a.IsValid()) break;
        while (!log.NewPage(closed)) epoch.Refresh();
        epoch.Refresh();
      }
    }
  });
  epoch.Unprotect();
  return ns;
}

/// Record-sized reads at random offsets of a file, one at a time, on the
/// completion-polling path spill-read-mostly runs: the cost of submitting,
/// and the time from submit to the callback, which fires inside Poll().
void DeviceCases(const RunConfig& cfg, int reps, size_t calls,
                 Report* report) {
  constexpr uint32_t kRead = 128;
  constexpr uint32_t kChunk = 1 << 20;
  uint64_t file_bytes = cfg.Size(uint64_t{64} << 20, uint64_t{4} << 20);
  std::string path =
      cfg.tmpdir + "/layers." + std::to_string(::getpid()) + ".dev";
  std::filesystem::remove(path);
  {
    faster::FileDevice device{path, /*num_io_threads=*/0,
                              faster::IoPathMode::kPolling};
    std::vector<uint8_t> chunk(kChunk, 0x5a);
    uint64_t writes = 0;  // callbacks fire on this thread, inside Drain()
    auto count = [](void* ctx, faster::Status, uint32_t) {
      ++*static_cast<uint64_t*>(ctx);
    };
    for (uint64_t off = 0; off < file_bytes; off += kChunk) {
      device.WriteAsync(chunk.data(), off, kChunk, count, &writes);
    }
    device.Drain();
    if (writes != file_bytes / kChunk) {
      report->Fail("device set-up writes did not complete");
    }

    std::mt19937_64 rng{cfg.seed};
    std::vector<uint64_t> offsets(calls);
    for (auto& o : offsets) o = rng() % (file_bytes / kRead) * kRead;
    alignas(64) uint8_t buf[kRead];
    struct Done {
      uint64_t ticks = 0;
      faster::Status status = faster::Status::kOk;
    } done;
    auto on_read = [](void* ctx, faster::Status s, uint32_t) {
      auto* d = static_cast<Done*>(ctx);
      d->status = s;
      d->ticks = Ticks();
    };
    TickRate rate;
    std::vector<double> submit, complete;  // ticks per call, per rep
    for (int r = 0; r < reps; ++r) {
      uint64_t sub = 0, comp = 0;
      for (uint64_t off : offsets) {
        done.ticks = 0;
        uint64_t t0 = Ticks();
        device.ReadAsync(off, buf, kRead, on_read, &done);
        uint64_t t1 = Ticks();
        while (done.ticks == 0) device.Poll();
        uint64_t t2 = done.ticks;
        if (done.status != faster::Status::kOk || buf[0] != 0x5a) {
          report->Fail("device read returned wrong data");
        }
        sub += t1 - t0;
        comp += t2 - t0;
      }
      submit.push_back(static_cast<double>(sub) / calls);
      complete.push_back(static_cast<double>(comp) / calls);
    }
    double ns = rate.NsPerTick();
    report->Add("device.read_submit_ns", Median(submit) * ns, "ns");
    report->Add("device.read_complete_us", Median(complete) * ns / 1000.0,
                "us");
  }
  std::filesystem::remove(path);
}

void NetCases(const RunConfig& cfg, int reps, Report* report) {
  constexpr size_t kBurst = 16;
  uint64_t keys = cfg.Size(uint64_t{1} << 20, uint64_t{1} << 14);
  CmdStream stream = MakeCmdStream(cfg.seed * 16 + 12, keys,
                                   cfg.Size(size_t{1} << 16, size_t{1} << 10));
  size_t n = stream.cmds.size();

  // Parsing: the server feeds each socket read (here, one burst) and
  // pulls commands until the parser needs more bytes.
  report->Add("net.resp.parse_ns_per_cmd", MedianNsPerCall(reps, n, [&] {
                faster::net::RespParser parser;
                faster::net::RespCommand cmd;
                size_t parsed = 0;
                for (size_t b = 0; b < n; b += kBurst) {
                  size_t from = stream.offset[b];
                  size_t to = stream.offset[b + kBurst];
                  parser.Feed(stream.bytes.data() + from, to - from);
                  while (parser.Next(&cmd) ==
                         faster::net::RespParser::Result::kCommand) {
                    ++parsed;
                  }
                }
                if (parsed != n) report->Fail("parser dropped commands");
              }),
              "ns");

  // Rendering: GET -> bulk string of the decimal value, INCR -> integer.
  report->Add("net.resp.render_ns_per_reply", MedianNsPerCall(reps, n, [&] {
                std::string out, v;
                for (size_t i = 0; i < n; ++i) {
                  if (i % kBurst == 0) out.clear();
                  uint64_t value = Tagged(stream.cmds[i].key, i);
                  if (stream.cmds[i].incr) {
                    faster::net::AppendInteger(&out,
                                               static_cast<long long>(value));
                  } else {
                    v = std::to_string(value);
                    faster::net::AppendBulk(&out, v);
                  }
                }
                Keep(out);
              }),
              "ns");

  // The server's store work per burst: one ExecuteBatch of GET reads and
  // INCR RMWs, then one ReadBatch of the post-increment values.
  using Store = faster::FasterKv<faster::CountStoreFunctions>;
  faster::MemoryDevice device{2};
  Store::Config config;
  config.table_size = keys / 2;
  config.log.memory_size_bytes = uint64_t{64} << 20;
  Store store{config, &device};
  store.StartSession();
  for (uint64_t k = 0; k < keys; ++k) store.Upsert(k, Tagged(k, 1));
  report->Add("net.store.batch_ns_per_cmd", MedianNsPerCall(reps, n, [&] {
                Store::BatchOp ops[kBurst];
                uint64_t values[kBurst], incr_keys[kBurst], inputs[kBurst] = {},
                    incr_values[kBurst];
                faster::Status statuses[kBurst];
                for (size_t b = 0; b < n; b += kBurst) {
                  size_t m = 0;
                  for (size_t j = 0; j < kBurst; ++j) {
                    const Cmd& c = stream.cmds[b + j];
                    ops[j] = Store::BatchOp{};
                    ops[j].kind = c.incr ? Store::BatchOp::Kind::kRmw
                                         : Store::BatchOp::Kind::kRead;
                    ops[j].key = c.key;
                    ops[j].input = 1;
                    ops[j].output = &values[j];
                    if (c.incr) incr_keys[m++] = c.key;
                  }
                  store.ExecuteBatch(ops, kBurst);
                  store.ReadBatch(incr_keys, inputs, incr_values, statuses, m);
                  for (size_t j = 0; j < kBurst; ++j) {
                    if (ops[j].status != faster::Status::kOk) {
                      report->Fail("store batch op failed");
                    }
                  }
                }
              }),
              "ns");
  store.StopSession();
}

}  // namespace

void RunLayers(const RunConfig& cfg, Report* report) {
  int reps = cfg.smoke ? 3 : 7;
  size_t calls = cfg.Size(size_t{1} << 20, size_t{1} << 12);
  EpochCases(reps, calls, report);
  using faster::Distribution;
  report->Add("core.index.find_hot_ns",
              FindNs(reps, cfg.Size(uint64_t{1} << 20, uint64_t{1} << 14),
                     Distribution::kZipfian, cfg.seed, calls,
                     /*create=*/false),
              "ns");
  report->Add("core.index.find_cold_ns",
              FindNs(reps, cfg.Size(uint64_t{1} << 23, uint64_t{1} << 15),
                     Distribution::kUniform, cfg.seed + 1, calls,
                     /*create=*/false),
              "ns");
  report->Add("core.index.find_or_create_ns",
              FindNs(reps, cfg.Size(uint64_t{1} << 21, uint64_t{1} << 15),
                     Distribution::kUniform, cfg.seed + 2, calls,
                     /*create=*/true),
              "ns");
  report->Add("core.hlog.allocate_ns",
              AllocateNs(reps, calls,
                         cfg.Size(uint64_t{32} << 20, uint64_t{8} << 20)),
              "ns");
  DeviceCases(cfg, reps, cfg.Size(size_t{4000}, size_t{200}), report);
  NetCases(cfg, reps, report);
}

}  // namespace suite
