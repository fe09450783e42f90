// op_icount: exact instruction counts of single store ops, with no PMU.
//
//   ./op_icount [--attribute]
//
// A forked child runs each measured op on a cache-resident
// FasterKv<CountStoreFunctions> between two markers (raise(SIGSTOP)); the
// parent traces it with ptrace and single-steps from one marker to the
// next, counting steps. Two markers back to back measure the markers' own
// cost, which every count subtracts. The ops: an insert (Upsert of a new
// key), an in-place Upsert, a Read, an in-place Rmw (its value dropped),
// one ExecuteBatch of 16 GETs and 16 INCRs (RMWs reporting their values)
// on distinct keys; then, once the read-only offset has passed every key,
// the appends: an Upsert, a Delete and a copy-update Rmw of a read-only
// key, and one ExecuteBatch of 32 such Upserts; and last, on a second
// store whose log the fill spilled to a MemoryDevice, a Read and an Rmw of
// a record on a storage page through their CompletePending, and an Rmw of
// a record in the fuzzy region (between the safe read-only and read-only
// offsets: the read-only offset moved to the tail, and the epoch action
// that moves the safe one waits for this thread's next refresh), which
// CompletePending retries until its refresh has run that action. Three
// layer regions follow, on an epoch, index and log of their own: an epoch
// Protect + Refresh, an index FindSlot + TryPublish of a new key, and one
// HybridLog::Allocate: they show which layer holds what an op pays.
// The child runs every region twice, on fresh stores: quiet (no sink
// armed), then armed (spans sampled 1 in 1, slowlog threshold 0, perf on;
// in a stats-off build arming changes nothing).
// Counts repeat exactly for one binary, so two builds' outputs compare op
// by op. A rep-prefixed string instruction counts once per iteration (the
// trap flag stops after each one).
//
// Prints "op_icount: <op> <instructions>" lines for the quiet pass, then
// "op_icount: armed <op> <instructions>" lines; exits 0 with a skip line
// where ptrace is refused (a sandbox or ptrace_scope policy).
// --attribute also prints, under each op, its instructions per function,
// most first: "op_icount:   <count> <function>". The child is a fork, so
// its code sits where the parent's does: the parent maps each stepped PC
// to its object with dladdr and names it with addr2line (a PC in a shared
// library is named by the library). The empty region's markers are
// attributed too; subtract them by eye ("raise", "Marker").

#include <dlfcn.h>
#include <elf.h>
#include <signal.h>
#include <sys/ptrace.h>
#include <sys/user.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/faster.h"
#include "core/functions.h"
#include "core/hash_index.h"
#include "core/hybrid_log.h"
#include "device/memory_device.h"
#include "obs/clock.h"

namespace {

using Store = faster::FasterKv<faster::CountStoreFunctions>;

constexpr int kChildRefused = 77;  // child exit: PTRACE_TRACEME failed
constexpr uint64_t kKeys = 1024;
constexpr size_t kBatch = 32;

const char* const kOps[] = {
    "insert",        "upsert_inplace", "read",
    "rmw_inplace",   "batch32_get_incr", "upsert_append",
    "delete_append", "rmw_copy",       "batch32_upsert_append",
    "read_pending",  "rmw_pending",    "rmw_fuzzy_retry",
    "epoch_protect_refresh", "index_insert", "hlog_allocate"};
constexpr size_t kNumOps = sizeof(kOps) / sizeof(kOps[0]);

[[gnu::noinline]] void Marker() { ::raise(SIGSTOP); }

/// Runs `op` once untraced (warm-up), then once between two markers.
/// Each instantiation inlines its op, so a region holds the op alone.
template <class Op>
[[gnu::noinline]] void Region(Op&& op) {
  op();
  Marker();
  op();
  Marker();
}

/// Region(op), with `setup` run, untraced, before each run of `op`.
template <class Setup, class Op>
[[gnu::noinline]] void Region(Setup&& setup, Op&& op) {
  setup();
  op();
  setup();
  Marker();
  op();
  Marker();
}

/// One pass over every region, on fresh stores. Region 0 is empty: the
/// markers' own cost. `armed`: the sinks are armed, so the index region
/// records its scan as a timed op's does.
void RunRegions(bool armed) {
  faster::MemoryDevice device;
  Store::Config cfg;
  cfg.table_size = 4096;
  cfg.refresh_interval = 1u << 30;  // no epoch refresh inside a region
  Store store{cfg, &device};
  store.StartSession();
  for (uint64_t k = 0; k < kKeys; ++k) store.Upsert(k, k);
  uint64_t new_key = kKeys;
  uint64_t out = 0;
  uint64_t outs[kBatch] = {};
  Store::BatchOp ops[kBatch];
  for (size_t i = 0; i < kBatch; ++i) {
    ops[i].kind = i % 2 == 0 ? Store::BatchOp::Kind::kRead
                             : Store::BatchOp::Kind::kRmw;
    ops[i].key = 100 + i;
    ops[i].input = i % 2;
    ops[i].output = &outs[i];
  }
  Region([] {});
  Region([&] { store.Upsert(new_key++, 1); });
  Region([&] { store.Upsert(7, 2); });
  Region([&] { store.Read(7, 0, &out); });
  Region([&] { store.Rmw(7, 1); });
  Region([&] { store.ExecuteBatch(ops, kBatch); });

  // Every key below the read-only offset, on the device: each write to
  // one appends. Every run takes a key of its own, still read-only.
  store.hlog().ShiftReadOnlyToTail(/*wait=*/true);
  uint64_t ro_key = 200;
  Store::BatchOp upserts[2][kBatch];
  for (auto& batch : upserts) {
    for (Store::BatchOp& op : batch) {
      op.kind = Store::BatchOp::Kind::kUpsert;
      op.key = ro_key++;
      op.value = 3;
    }
  }
  Region([&] { store.Upsert(ro_key++, 3); });
  Region([&] { store.Delete(ro_key++); });
  Region([&] { store.Rmw(ro_key++, 1); });
  size_t round = 0;
  Region([&] { store.ExecuteBatch(upserts[round++], kBatch); });
  store.StopSession();

  // Two log pages, which the fill spills key 0 out of.
  faster::MemoryDevice cold_device;
  Store::Config cold_cfg;
  cold_cfg.table_size = 1 << 17;
  cold_cfg.log.memory_size_bytes = 2ull << faster::Address::kOffsetBits;
  cold_cfg.log.mutable_fraction = 0.5;
  Store cold{cold_cfg, &cold_device};
  cold.StartSession();
  for (uint64_t k = 0; k < 400000; ++k) cold.Upsert(k, k);
  Region([&] {
    if (cold.Read(0, 0, &out) == faster::Status::kPending) {
      cold.CompletePending(/*wait=*/true);
    }
  });
  uint64_t cold_key = 1;  // still on storage: each run takes its own
  Region([&] {
    if (cold.Rmw(cold_key++, 1) == faster::Status::kPending) {
      cold.CompletePending(/*wait=*/true);
    }
  });
  uint64_t fuzzy_key = 400000;  // a new key each run, then read-only
  Region(
      [&] {
        cold.Upsert(++fuzzy_key, 1);
        cold.hlog().ShiftReadOnlyToTail(/*wait=*/false);
      },
      [&] {
        if (cold.Rmw(fuzzy_key, 1) == faster::Status::kPending) {
          cold.CompletePending(/*wait=*/true);
        }
      });
  cold.StopSession();

  faster::LightEpoch epoch;
  faster::HashIndex index{4096, &epoch};
  faster::MemoryDevice log_device;
  faster::HybridLog log{faster::LogConfig{}, &log_device, &epoch};
  epoch.Protect();
  Region([&] { epoch.Unprotect(); },
         [&] {
           epoch.Protect();
           epoch.Refresh();
         });
  uint32_t slot = faster::Thread::Id();
  uint64_t index_key = 0;  // a new key each run
  Region([&] {
    faster::KeyHash hash = faster::DefaultKeyHasher<uint64_t>{}(++index_key);
    faster::HashIndex::OpScope scope{index, hash};
    faster::HashIndex::FindResult fr;
    faster::Status found = armed ? index.FindSlot(scope, hash, &fr, slot)
                                 : index.FindSlot(scope, hash, &fr);
    if (found == faster::Status::kOk) {
      index.TryPublish(&fr, faster::Address{1, 64});
    }
  });
  uint64_t closed_page = 0;
  Region([&] { log.Allocate(24, &closed_page); });
  epoch.Unprotect();
}

/// The traced child: runs every region quiet, then armed.
[[noreturn]] void RunChild() {
  if (::ptrace(PTRACE_TRACEME, 0, nullptr, nullptr) != 0) {
    ::_exit(kChildRefused);
  }
  Marker();  // the parent attaches here; not a region
  RunRegions(/*armed=*/false);
  faster::obs::SetSpanSampleEvery(1);
  faster::obs::GlobalSlowLog().set_threshold_ns(0);
  faster::obs::PerfAttribution::Arm(true);
  RunRegions(/*armed=*/true);
  ::_exit(0);
}

using PcCounts = std::map<uint64_t, uint64_t>;

/// The function `pc` (a code address in this process, and so in the
/// forked child) lies in, with its source file: addr2line's answer for
/// the main executable, the object's file name otherwise.
std::map<uint64_t, std::string> NamePcs(const PcCounts& pcs) {
  std::map<uint64_t, std::string> names;
  Dl_info self{};
  ::dladdr(reinterpret_cast<void*>(&Marker), &self);
  // A PIE's addresses are relative to its load base; a fixed one's not.
  auto* ehdr = static_cast<const Elf64_Ehdr*>(self.dli_fbase);
  uint64_t base = ehdr != nullptr && ehdr->e_type == ET_DYN
                      ? reinterpret_cast<uint64_t>(self.dli_fbase)
                      : 0;
  std::vector<std::pair<uint64_t, uint64_t>> queries;  // pc, file address
  for (const auto& [pc, n] : pcs) {
    Dl_info info{};
    if (::dladdr(reinterpret_cast<void*>(pc), &info) == 0 ||
        info.dli_fname == nullptr) {
      names[pc] = "?";
    } else if (info.dli_fbase != self.dli_fbase) {
      const char* slash = std::strrchr(info.dli_fname, '/');
      names[pc] = slash != nullptr ? slash + 1 : info.dli_fname;
    } else {
      queries.emplace_back(pc, pc - base);
    }
  }
  if (queries.empty()) return names;
  char exe[4096];
  ssize_t len = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (len <= 0) return names;
  exe[len] = '\0';
  std::string cmd = std::string("addr2line -C -f -e '") + exe + "'";
  for (const auto& q : queries) {
    char hex[32];
    std::snprintf(hex, sizeof(hex), " %llx",
                  static_cast<unsigned long long>(q.second));
    cmd += hex;
  }
  FILE* out = ::popen(cmd.c_str(), "r");
  if (out == nullptr) return names;
  char fn[4096], where[4096];
  for (const auto& q : queries) {
    if (std::fgets(fn, sizeof(fn), out) == nullptr ||
        std::fgets(where, sizeof(where), out) == nullptr) {
      break;
    }
    fn[std::strcspn(fn, "\n")] = '\0';
    // Drop the argument list: "faster::HashIndex::FindEntry(...) const".
    std::string name = fn;
    size_t paren = name.find('(');
    if (paren != std::string::npos && paren > 0) name.resize(paren);
    names[q.first] = name;
  }
  ::pclose(out);
  return names;
}

/// Prints one region's instructions per function, most first.
void PrintAttribution(const PcCounts& pcs) {
  std::map<uint64_t, std::string> names = NamePcs(pcs);
  std::map<std::string, uint64_t> per_fn;
  for (const auto& [pc, n] : pcs) per_fn[names[pc]] += n;
  std::vector<std::pair<uint64_t, std::string>> sorted;
  for (const auto& [fn, n] : per_fn) sorted.emplace_back(n, fn);
  std::sort(sorted.rbegin(), sorted.rend());
  for (const auto& [n, fn] : sorted) {
    std::printf("op_icount:   %6llu %s\n", static_cast<unsigned long long>(n),
                fn.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool attribute = argc > 1 && std::strcmp(argv[1], "--attribute") == 0;
  std::fflush(stdout);
  pid_t pid = ::fork();
  if (pid < 0) {
    std::perror("op_icount: fork");
    return 1;
  }
  if (pid == 0) RunChild();

  // Every SIGSTOP the child raises is a marker: the first opens a region,
  // which single steps count, and the next closes it.
  std::vector<uint64_t> regions;
  std::vector<PcCounts> region_pcs;  // --attribute: steps per PC
  PcCounts pcs;
  bool attached = false, counting = false;
  uint64_t steps = 0;
  for (;;) {
    int status = 0;
    if (::waitpid(pid, &status, 0) < 0) {
      std::perror("op_icount: waitpid");
      return 1;
    }
    if (WIFEXITED(status) || WIFSIGNALED(status)) {
      if (WIFEXITED(status) && WEXITSTATUS(status) == kChildRefused) {
        std::printf("op_icount: skipped: ptrace refused\n");
        return 0;
      }
      if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        std::fprintf(stderr, "op_icount: child failed (status %d)\n",
                     status);
        return 1;
      }
      break;
    }
    int sig = WSTOPSIG(status);
    long request = PTRACE_CONT;
    if (sig == SIGSTOP && !attached) {
      attached = true;
    } else if (sig == SIGSTOP) {
      if (counting) {
        regions.push_back(steps);
        region_pcs.push_back(std::move(pcs));
        pcs.clear();
      }
      counting = !counting;
      steps = 0;
      if (counting) request = PTRACE_SINGLESTEP;
    } else if (sig == SIGTRAP && counting) {
      ++steps;
      if (attribute) {
        // The trap reports the next instruction; the marker's raise() at
        // a region's end is stepped too, and subtracted with the marker.
        user_regs_struct regs{};
        if (::ptrace(PTRACE_GETREGS, pid, nullptr, &regs) == 0) {
          ++pcs[regs.rip];
        }
      }
      request = PTRACE_SINGLESTEP;
    } else {
      std::fprintf(stderr, "op_icount: unexpected signal %d\n", sig);
      ::kill(pid, SIGKILL);
      return 1;
    }
    // Resume without delivering the stop (the marker is consumed).
    if (::ptrace(static_cast<__ptrace_request>(request), pid, nullptr,
                 nullptr) != 0) {
      std::fprintf(stderr, "op_icount: ptrace: %s\n", std::strerror(errno));
      ::kill(pid, SIGKILL);
      return 1;
    }
  }
  if (regions.size() != 2 * (kNumOps + 1)) {
    std::fprintf(stderr, "op_icount: %zu regions, expected %zu\n",
                 regions.size(), 2 * (kNumOps + 1));
    return 1;
  }
  uint64_t marker = regions[0];
  std::printf("op_icount: marker %llu (subtracted below)\n",
              static_cast<unsigned long long>(marker));
  for (size_t pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < kNumOps; ++i) {
      size_t r = pass * (kNumOps + 1) + i + 1;
      uint64_t n = regions[r] - marker;
      std::printf("op_icount: %s%s %llu", pass == 0 ? "" : "armed ",
                  kOps[i], static_cast<unsigned long long>(n));
      if (std::strncmp(kOps[i], "batch32_", 8) == 0) {
        std::printf(" (%.1f/op)", static_cast<double>(n) / kBatch);
      }
      std::printf("\n");
      if (attribute) PrintAttribution(region_pcs[r]);
    }
  }
  if (attribute) {
    std::printf("op_icount: marker, attributed\n");
    PrintAttribution(region_pcs[0]);
  }
  return 0;
}
