#ifndef FASTER_OBS_EXPORTER_H_
#define FASTER_OBS_EXPORTER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

/// MetricsExporter: a dependency-free blocking HTTP/1.1 endpoint serving
/// live metrics while a store runs (the Prometheus-style "scrape" model).
///
/// Endpoints:
///   /metrics  Prometheus text exposition 0.0.4 (Registry::Prometheus)
///   /vars     JSON exposition (Registry::Json)
///   /healthz  liveness probe ("ok")
///   ...plus any JSON routes the host registers (Handlers::routes) — the
///   server wires /debug/slowlog, /debug/index, /debug/log, /debug/epochs,
///   and /debug/connections this way (DESIGN.md §12).
/// A query string is ignored: "/metrics?x=1" serves /metrics.
///
/// One background thread accepts one connection at a time — scrapes are
/// rare (seconds apart) and tiny, so no connection concurrency is needed.
/// A request head must arrive within 2 s of its accept (kHeadDeadline in
/// exporter.cc), so a client that trickles it holds the exporter no longer.
/// Handlers run on the exporter thread; every metric read is a relaxed
/// atomic load on the sharded obs:: types, so scraping never blocks or
/// races store operations (TSan-clean by the same argument as DumpStats).
///
/// The exporter is opt-in plumbing, not part of the store: callers
/// construct one next to a FasterKv and pass handlers that call
/// obs::DumpPrometheus/obs::DumpStats over store.view() (see ycsb_cli
/// --export-port).

namespace faster {
namespace obs {

struct ExporterOptions {
  /// TCP port to listen on; 0 picks an ephemeral port (see port()).
  uint16_t port = 9464;  // the conventional Prometheus exporter base port
  /// Bind address. Loopback by default: metrics are diagnostics, not a
  /// public surface.
  std::string bind_address = "127.0.0.1";
};

class MetricsExporter {
 public:
  struct Handlers {
    std::function<std::string()> metrics;  // -> Prometheus text
    std::function<std::string()> vars;     // -> JSON
    /// Extra GET routes served as application/json and listed on the "/"
    /// index. Fixed at construction (the serving thread reads them
    /// unlocked). Paths must start with '/'.
    struct Route {
      std::string path;
      std::function<std::string()> handler;
    };
    std::vector<Route> routes{};  // default-initialized so the two-member
                                  // aggregate init at existing call sites
                                  // stays warning-clean under -Wextra

    Handlers& AddRoute(std::string path,
                       std::function<std::string()> handler) {
      routes.push_back(Route{std::move(path), std::move(handler)});
      return *this;
    }
  };

  /// Binds and starts the serving thread. Check ok() afterwards: failure
  /// to bind (port taken, bad address) disables the exporter rather than
  /// aborting the host process.
  MetricsExporter(const ExporterOptions& options, Handlers handlers);

  /// Stops the serving thread and closes the socket.
  ~MetricsExporter();

  MetricsExporter(const MetricsExporter&) = delete;
  MetricsExporter& operator=(const MetricsExporter&) = delete;

  /// True when the listening socket bound successfully.
  bool ok() const { return listen_fd_ >= 0; }

  /// The bound port (resolves an ephemeral request of 0 to the real one).
  uint16_t port() const { return port_; }

 private:
  void ServeLoop();
  void HandleConnection(int fd);

  Handlers handlers_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  // order: relaxed store in the destructor / relaxed load in the serve
  // loop — a stop flag polled every accept timeout; the thread join
  // provides the synchronization.
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

}  // namespace obs
}  // namespace faster

#endif  // FASTER_OBS_EXPORTER_H_
