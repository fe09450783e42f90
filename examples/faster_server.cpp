// faster_server: a pipelined RESP2 server over FasterKv (DESIGN.md §11).
//
// Speaks enough of the Redis protocol for redis-cli and any pipelining
// Redis client to talk to the paper's count store:
//
//   ./faster_server --port 6379 --threads 4 --export-port 9464
//   redis-cli -p 6379 SET 17 5
//   redis-cli -p 6379 INCR 17
//   (printf 'PING\r\nINCR k\r\nINCR k\r\nGET k\r\n'; sleep 0.2) | nc 127.0.0.1 6379
//
// --export-port serves Prometheus text (/metrics), JSON (/vars), a
// liveness probe (/healthz), and the live inspectors (/debug/slowlog,
// /debug/index, /debug/log, /debug/epochs, /debug/connections),
// combining the store's metrics with the server's "net.*" family.
// SIGTERM/SIGINT trigger a clean drain: stop accepting, flush buffered
// replies, complete pending store work, unprotect every worker's epoch
// slot, exit 0.
//
// Logging, in every build: --log-level debug|info|warn|error|off (default
// warn; also FASTER_LOG_LEVEL), --log-file PATH appends structured records
// to a file. /metrics carries the store's always-on op counters in every
// build; -DFASTER_STATS=ON adds latency histograms, stage attribution and
// the slow-op log (--slowlog-threshold-us N arms it; SLOWLOG GET).
// The crash flight recorder is always armed: a fatal signal dumps the
// epoch table, metrics and (stats builds) spans and slow ops to stderr and
// $FASTER_FLIGHT_DIR/flight_<pid>.txt if that is set.
//
// --memory-budget-mb N caps the HybridLog in-memory buffer (cold keys
// spill and GETs of them take the pending-I/O path, served by the workers'
// own completion polling (DESIGN.md §13).

#include <signal.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "net/server.h"
#include "obs/build_info.h"
#include "obs/exporter.h"
#include "obs/log.h"
#include "obs/perf.h"
#include "obs/slowlog.h"
#include "obs/stats.h"
#include "obs/store_view.h"

namespace {

struct Options {
  faster::net::ServerOptions server;
  uint16_t export_port = 0;
  bool perf = false;  // arm per-stage hardware counters at startup
  bool print_port = false;  // machine-readable "PORT <n>" line on stdout
  std::string log_level;    // empty: keep env/default
  std::string log_file;
};

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--port P] [--bind ADDR] [--threads N]\n"
               "          [--max-pipeline N] [--export-port P] [--print-port]\n"
               "          [--log-level debug|info|warn|error|off]\n"
               "          [--log-file PATH] [--slowlog-threshold-us N]\n"
               "          [--memory-budget-mb N]\n"
               "          [--perf]\n"
               "  --port 0 binds an ephemeral port (printed with "
               "--print-port)\n"
               "  --perf arms per-stage hardware counters (also: PERF "
               "ENABLE over RESP)\n",
               argv0);
}

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto next = [&](long long lo, long long hi, long long* out) {
      if (i + 1 >= argc) return false;
      char* end = nullptr;
      long long v = std::strtoll(argv[++i], &end, 10);
      if (end == nullptr || *end != '\0' || v < lo || v > hi) return false;
      *out = v;
      return true;
    };
    long long v = 0;
    if (a == "--port" && next(0, 65535, &v)) {
      o->server.port = static_cast<uint16_t>(v);
    } else if (a == "--bind" && i + 1 < argc) {
      o->server.bind_address = argv[++i];
    } else if (a == "--threads" && next(1, 64, &v)) {
      o->server.threads = static_cast<uint32_t>(v);
    } else if (a == "--max-pipeline" && next(1, 1 << 20, &v)) {
      o->server.max_pipeline = static_cast<size_t>(v);
    } else if (a == "--export-port" && next(0, 65535, &v)) {
      o->export_port = static_cast<uint16_t>(v);
    } else if (a == "--perf") {
      o->perf = true;
    } else if (a == "--print-port") {
      o->print_port = true;
    } else if (a == "--log-level" && i + 1 < argc) {
      o->log_level = argv[++i];
    } else if (a == "--log-file" && i + 1 < argc) {
      o->log_file = argv[++i];
    } else if (a == "--slowlog-threshold-us" && next(0, 1LL << 40, &v)) {
      o->server.slowlog_threshold_us = static_cast<uint64_t>(v);
    } else if (a == "--memory-budget-mb" && next(1, 1 << 20, &v)) {
      o->server.log_memory_bytes = static_cast<uint64_t>(v) << 20;
    } else {
      Usage(argv[0]);
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!ParseArgs(argc, argv, &o)) return 2;

  // Flags override the FASTER_LOG_LEVEL and FASTER_LOG_FILE defaults read
  // by the logger's first use.
  faster::obs::Logger& logger = faster::obs::Logger::Global();
  if (!o.log_level.empty()) {
    faster::obs::LogLevel level;
    if (!faster::obs::ParseLogLevel(o.log_level.c_str(), &level)) {
      std::fprintf(stderr, "faster_server: bad --log-level %s\n",
                   o.log_level.c_str());
      return 2;
    }
    logger.set_level(level);
  }
  if (!o.log_file.empty() && !logger.OpenFile(o.log_file)) {
    std::fprintf(stderr, "faster_server: cannot open --log-file %s\n",
                 o.log_file.c_str());
    return 2;
  }

  // Block the shutdown signals in every thread (workers inherit the
  // mask), then claim them below with sigwait: signal handling happens on
  // the main thread as ordinary code, so Shutdown() can take locks, join
  // threads and drain epochs without async-signal-safety contortions.
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGTERM);
  sigaddset(&sigs, SIGINT);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

  faster::net::FasterServer server{o.server};
  if (!server.ok()) {
    std::fprintf(stderr, "faster_server: %s\n", server.error().c_str());
    return 1;
  }

  // Declared after the server, so it detaches before the store dies.
  faster::obs::FlightAttachment flight =
      faster::obs::AttachFlightRecorder(server.store().view());

  if (o.perf) faster::obs::GlobalPerf().Arm(true);

  std::unique_ptr<faster::obs::MetricsExporter> exporter;
  if (o.export_port != 0) {
    faster::obs::ExporterOptions eo;
    eo.port = o.export_port;
    const faster::obs::StoreView view = server.store().view();
    auto collect = [&server, view] {
      faster::obs::Registry reg;
      faster::obs::CollectStats(view, reg);
      server.CollectStats(reg);
      return reg;
    };
    faster::obs::MetricsExporter::Handlers handlers{
        // Build info rides on every scrape so dashboards can correlate a
        // perf change with the binary that produced it.
        [collect] {
          return collect().Prometheus() + faster::obs::BuildInfoPromLine();
        },
        [collect] { return collect().Json(); }};
    handlers
        .AddRoute("/debug/slowlog",
                  [] { return faster::obs::GlobalSlowLog().Json(); })
        .AddRoute("/debug/index",
                  [view] { return faster::obs::DebugIndexJson(view); })
        .AddRoute("/debug/log",
                  [view] { return faster::obs::DebugLogJson(view); })
        .AddRoute("/debug/epochs",
                  [view] { return faster::obs::DebugEpochsJson(view); })
        .AddRoute("/debug/connections",
                  [&server] { return server.DebugConnectionsJson(); })
        .AddRoute("/debug/perf",
                  [] { return faster::obs::GlobalPerf().Json(); })
        .AddRoute("/debug/build",
                  [] { return faster::obs::BuildInfoJson(); });
    exporter = std::make_unique<faster::obs::MetricsExporter>(
        eo, std::move(handlers));
    if (!exporter->ok()) {
      std::fprintf(stderr, "faster_server: exporter failed to bind %u\n",
                   static_cast<unsigned>(o.export_port));
      return 1;
    }
    std::fprintf(stderr, "metrics on http://127.0.0.1:%u/metrics\n",
                 static_cast<unsigned>(exporter->port()));
  }

  std::fprintf(stderr, "faster_server listening on %s:%u (%u threads)\n",
               o.server.bind_address.c_str(),
               static_cast<unsigned>(server.port()), o.server.threads);
  if (o.print_port) {
    std::printf("PORT %u\n", static_cast<unsigned>(server.port()));
    std::fflush(stdout);
  }

  int sig = 0;
  while (sigwait(&sigs, &sig) != 0) {
  }
  std::fprintf(stderr, "faster_server: signal %d, draining\n", sig);
  server.Shutdown();
  std::fprintf(stderr, "faster_server: drained %llu commands, bye\n",
               static_cast<unsigned long long>(server.commands_processed()));
  return 0;
}
