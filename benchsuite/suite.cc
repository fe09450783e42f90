// faster_bench_suite: runs one workload of the repository benchmark (or
// the layer microbenchmarks) in this process and prints its metrics as
// `workload/metric value unit` lines. run.py runs each workload in its own
// process and assembles the results.
//
//   faster_bench_suite --workload NAME --seed N [--seconds S]
//                      [--trace FILE] [--tmpdir DIR] [--smoke]
//   faster_bench_suite --workload layers [--seed N] [--tmpdir DIR] [--smoke]
//
// --trace FILE makes the run a traced one: windows alternate untraced and
// traced, spans of 1 in 64 requests are kept in memory and written to FILE
// as Chrome trace-event JSON, and the per-layer metrics are printed.
// Exit status: 0 if every check passed, 1 if any failed, 2 on bad usage.

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"

namespace {

struct Workload {
  const char* name;
  void (*run)(const suite::RunConfig&, suite::Report*);
};

constexpr Workload kWorkloads[] = {
    {"hot-zipf-rw", suite::RunHotZipfRw},
    {"cold-uniform-batch", suite::RunColdUniformBatch},
    {"spill-read-mostly", suite::RunSpillReadMostly},
    {"resp-openloop", suite::RunRespOpenLoop},
    {"layers", suite::RunLayers},
};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N [--seconds S] "
               "[--trace FILE] [--tmpdir DIR] [--smoke]\nworkloads:",
               argv0);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

bool ParseU64(const char* s, uint64_t* out) {
  errno = 0;
  char* end = nullptr;
  unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0' || errno == ERANGE) return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  suite::RunConfig cfg;
  const Workload* workload = nullptr;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      std::string name = argv[++i];
      for (const Workload& w : kWorkloads) {
        if (name == w.name) workload = &w;
      }
      if (workload == nullptr) return Usage(argv[0]);
    } else if (a == "--seed" && has_value) {
      if (!ParseU64(argv[++i], &cfg.seed)) return Usage(argv[0]);
    } else if (a == "--seconds" && has_value) {
      char* end = nullptr;
      cfg.seconds = std::strtod(argv[++i], &end);
      if (*end != '\0' || !(cfg.seconds >= 1 && cfg.seconds <= 600)) {
        return Usage(argv[0]);
      }
    } else if (a == "--trace" && has_value) {
      cfg.trace_path = argv[++i];
    } else if (a == "--tmpdir" && has_value) {
      cfg.tmpdir = argv[++i];
    } else if (a == "--smoke") {
      cfg.smoke = true;
    } else {
      return Usage(argv[0]);
    }
  }
  if (workload == nullptr) return Usage(argv[0]);

  suite::Report report{workload->name};
  workload->run(cfg, &report);
  report.Print();
  return report.failed() == 0 ? 0 : 1;
}
