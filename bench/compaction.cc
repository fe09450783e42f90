// Compaction throughput and read cost (Appendix C's roll-to-tail
// compaction). Each run loads `--keys` keys with 100-byte values, spills
// them to storage, writes every other key again and spills that too, then
// compacts the first round. Half its records are live, each the only record
// of its key on storage; half are dead, with their key's newer record on
// storage above them. It prints one table, one row per device, with the
// median of `--runs` runs:
//
//   MB/s          the compacted range over CompactLog's wall time
//   reads         device reads CompactLog issued (pages and chain hops)
//   read/reclaim  bytes those reads fetched per byte the pass reclaimed
//                 (the range, less the bytes it copied to the tail)
//
// Devices: MemoryDevice, and a FileDevice on `--path` with synchronous I/O
// (kPolling) and with io_uring (kUring; the row says "polling" if io_uring
// fell back).
//
// Usage: compaction [--keys N] [--runs R] [--path FILE]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/faster.h"
#include "core/functions.h"
#include "device/file_device.h"
#include "device/memory_device.h"

namespace faster {
namespace {

using Store = FasterKv<BlobStoreFunctions<100>>;

/// A device that counts the reads issued to it and the bytes they fetch.
template <class Device>
class Counting : public Device {
 public:
  using Device::Device;
  Status ReadAsync(uint64_t offset, void* dst, uint32_t len,
                   IoCallback callback, void* context) override {
    ++reads;
    bytes += len;
    return Device::ReadAsync(offset, dst, len, callback, context);
  }
  uint64_t reads = 0;
  uint64_t bytes = 0;
};

struct Run {
  double mb_per_s;
  uint64_t reads;
  double read_per_reclaim;
  uint64_t copied;
  uint64_t range_bytes;
};

/// Upserts fresh keys, from `*next` on, until the head passes `mark`.
void SpillPast(Store& store, Address mark, uint64_t* next) {
  Store::Value v{};
  while (store.hlog().head_address() <= mark) {
    std::memcpy(v.bytes, next, sizeof(*next));
    store.Upsert((*next)++, v);
  }
}

template <class Device>
Run CompactOnce(Counting<Device>& device, uint64_t keys) {
  Store::Config cfg;
  cfg.table_size = std::max<uint64_t>(keys / 2, 1024);
  cfg.log.memory_size_bytes = 4 * Address::kPageSize;
  cfg.log.mutable_fraction = 0.5;
  Store store{cfg, &device};
  store.StartSession();
  Store::Value v{};
  for (uint64_t k = 0; k < keys; ++k) {
    std::memcpy(v.bytes, &k, sizeof(k));
    store.Upsert(k, v);
  }
  Address until = store.hlog().tail_address();
  uint64_t filler = keys;
  SpillPast(store, until, &filler);
  for (uint64_t k = 0; k < keys; k += 2) store.Upsert(k, v);
  SpillPast(store, store.hlog().tail_address(), &filler);

  Address begin = store.hlog().begin_address();
  uint64_t reads = device.reads, bytes = device.bytes;
  Address tail = store.hlog().tail_address();
  Store::CompactionStats stats;
  auto start = std::chrono::steady_clock::now();
  Status s = store.CompactLog(until, &stats);
  double secs = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  if (s != Status::kOk || store.hlog().begin_address() != until) {
    std::fprintf(stderr, "compaction: CompactLog failed\n");
    std::exit(1);
  }
  uint64_t range = until - begin;
  uint64_t copied = store.hlog().tail_address() - tail;
  store.StopSession();
  return Run{range / secs / 1e6, device.reads - reads,
             static_cast<double>(device.bytes - bytes) /
                 static_cast<double>(range - std::min(range, copied)),
             stats.copied, range};
}

template <class T>
T Median(std::vector<T> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

template <class MakeDevice>
void Row(const char* name, uint64_t keys, int runs, MakeDevice make) {
  std::vector<double> mbs, ratio;
  std::vector<uint64_t> reads;
  Run last{};
  for (int r = 0; r < runs; ++r) {
    auto device = make();
    last = CompactOnce(*device, keys);
    mbs.push_back(last.mb_per_s);
    reads.push_back(last.reads);
    ratio.push_back(last.read_per_reclaim);
  }
  std::printf("%-16s %9.1f %8.1f..%-8.1f %10llu %12.4f %10llu %9.1f\n", name,
              Median(mbs), *std::min_element(mbs.begin(), mbs.end()),
              *std::max_element(mbs.begin(), mbs.end()),
              static_cast<unsigned long long>(Median(reads)), Median(ratio),
              static_cast<unsigned long long>(last.copied),
              last.range_bytes / 1e6);
}

}  // namespace
}  // namespace faster

int main(int argc, char** argv) {
  using namespace faster;
  uint64_t keys = uint64_t{1} << 18;
  int runs = 5;
  std::string path = "/tmp/faster_bench_compaction.log";
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--keys") == 0) {
      keys = std::strtoull(argv[i + 1], nullptr, 10);
    } else if (std::strcmp(argv[i], "--runs") == 0) {
      runs = std::atoi(argv[i + 1]);
    } else if (std::strcmp(argv[i], "--path") == 0) {
      path = argv[i + 1];
    }
  }
  if (keys < 2 || runs < 1) {
    std::fprintf(stderr, "usage: %s [--keys N] [--runs R] [--path FILE]\n",
                 argv[0]);
    return 2;
  }
  std::printf("compaction: %llu keys, 100-byte values, median of %d runs\n",
              static_cast<unsigned long long>(keys), runs);
  std::printf("%-16s %9s %18s %10s %12s %10s %9s\n", "device", "MB/s",
              "MB/s min..max", "reads", "read/reclaim", "copied",
              "range MB");
  Row("memory", keys, runs,
      [] { return std::make_unique<Counting<MemoryDevice>>(); });
  for (IoPathMode mode : {IoPathMode::kPolling, IoPathMode::kUring}) {
    std::filesystem::remove(path);
    bool uring = FileDevice{path, 0, mode}.mode() == IoPathMode::kUring;
    std::filesystem::remove(path);
    Row(uring ? "file/uring" : "file/polling", keys, runs, [&] {
      std::filesystem::remove(path);
      return std::make_unique<Counting<FileDevice>>(path, 0, mode);
    });
  }
  std::filesystem::remove(path);
  return 0;
}
