// Stress: live scraping must be race-free against a store under load.
// Scraper threads hammer the HTTP exporter (/metrics, /vars, and the
// /debug/{slowlog,index,log,epochs} inspectors) and a snapshot thread
// dumps the Chrome trace, all while worker threads run sampled
// operations — every read on the dump path is a relaxed load on sharded
// state or an epoch-protected walk, so the whole arrangement must be
// TSan-clean. The /debug/log scrape additionally asserts the region
// marker ordering (begin <= head <= read_only <= tail) holds in every
// reply while the log is moving.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/faster.h"
#include "core/functions.h"
#include "device/memory_device.h"
#include "obs/exporter.h"
#include "obs/slowlog.h"
#include "obs/span.h"
#include "obs/store_view.h"
#include "stress_common.h"

namespace faster {
namespace {

/// Extracts the number following `"key":` in a JSON body; UINT64_MAX if
/// the key is absent (keeps the assertion sites simple).
uint64_t JsonU64(const std::string& body, const std::string& key) {
  size_t at = body.find("\"" + key + "\":");
  if (at == std::string::npos) return UINT64_MAX;
  at += key.size() + 3;
  uint64_t v = 0;
  bool any = false;
  while (at < body.size() && body[at] >= '0' && body[at] <= '9') {
    v = v * 10 + static_cast<uint64_t>(body[at] - '0');
    ++at;
    any = true;
  }
  return any ? v : UINT64_MAX;
}

std::string HttpBody(const std::string& response) {
  size_t at = response.find("\r\n\r\n");
  return at == std::string::npos ? "" : response.substr(at + 4);
}

std::string HttpGet(uint16_t port, const std::string& path) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return "";
  }
  std::string req = "GET " + path +
                    " HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n";
  size_t sent = 0;
  while (sent < req.size()) {
    ssize_t n = ::send(fd, req.data() + sent, req.size() - sent, 0);
    if (n <= 0) {
      ::close(fd);
      return "";
    }
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(StressExporterTest, ScrapesAndTraceDumpsRaceStoreOperations) {
  constexpr uint32_t kWorkers = 4;
  const uint64_t kOpsPerThread = stress::ScaleOps(100000);

  MemoryDevice device;
  FasterKv<CountStoreFunctions>::Config cfg;
  cfg.table_size = 4096;
  cfg.log.memory_size_bytes = 64 << 20;
  FasterKv<CountStoreFunctions> store{cfg, &device};

  // Sample aggressively so span recording races the snapshotters, and
  // arm the slowlog at zero so every op publishes an entry under load.
  uint32_t saved_every = obs::SpanSampleEvery();
  obs::SetSpanSampleEvery(4);
  obs::GlobalSlowLog().Reset();
  obs::GlobalSlowLog().set_threshold_ns(0);

  obs::ExporterOptions options;
  options.port = 0;
  const obs::StoreView view = store.view();
  obs::MetricsExporter::Handlers handlers{
      [view] { return obs::DumpPrometheus(view); },
      [view] { return obs::DumpStats(view); }};
  handlers
      .AddRoute("/debug/slowlog",
                [] { return obs::GlobalSlowLog().Json(); })
      .AddRoute("/debug/index", [view] { return obs::DebugIndexJson(view); })
      .AddRoute("/debug/log", [view] { return obs::DebugLogJson(view); })
      .AddRoute("/debug/epochs",
                [view] { return obs::DebugEpochsJson(view); });
  obs::MetricsExporter exporter{options, std::move(handlers)};
  ASSERT_TRUE(exporter.ok());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> scrapes{0};

  std::thread metrics_scraper([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      std::string response = HttpGet(exporter.port(), "/metrics");
      if (response.rfind("HTTP/1.1 200", 0) == 0) {
        scrapes.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  std::thread vars_scraper([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      std::string response = HttpGet(exporter.port(), "/vars");
      if (response.rfind("HTTP/1.1 200", 0) == 0) {
        scrapes.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  std::thread trace_snapshotter([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      std::ostringstream os;
      obs::DumpTrace(view, os);
      EXPECT_FALSE(os.str().empty());
    }
  });
  std::thread debug_scraper([&] {
    const char* paths[] = {"/debug/slowlog", "/debug/index", "/debug/log",
                           "/debug/epochs"};
    size_t turn = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const char* path = paths[turn++ % 4];
      std::string response = HttpGet(exporter.port(), path);
      if (response.rfind("HTTP/1.1 200", 0) != 0) continue;
      scrapes.fetch_add(1, std::memory_order_relaxed);
      std::string body = HttpBody(response);
      ASSERT_FALSE(body.empty()) << path;
      if (std::string{path} == "/debug/log") {
        // Region markers must be internally consistent in every reply,
        // even while workers advance the tail concurrently.
        uint64_t head = JsonU64(body, "head");
        uint64_t ro = JsonU64(body, "read_only");
        uint64_t tail = JsonU64(body, "tail");
        ASSERT_NE(head, UINT64_MAX) << body;
        EXPECT_LE(JsonU64(body, "begin"), head) << body;
        EXPECT_LE(head, JsonU64(body, "safe_read_only")) << body;
        EXPECT_LE(JsonU64(body, "safe_read_only"), ro) << body;
        EXPECT_LE(ro, tail) << body;
      } else if (std::string{path} == "/debug/epochs") {
        EXPECT_LE(JsonU64(body, "safe_epoch"),
                  JsonU64(body, "current_epoch"))
            << body;
      }
    }
  });

  std::vector<std::thread> workers;
  for (uint32_t t = 0; t < kWorkers; ++t) {
    workers.emplace_back([&, t] {
      auto rng = stress::ThreadRng(t);
      store.StartSession();
      for (uint64_t i = 0; i < kOpsPerThread; ++i) {
        uint64_t key = rng() % 10000;
        switch (rng() % 3) {
          case 0:
            ASSERT_EQ(store.Upsert(key, key), Status::kOk);
            break;
          case 1: {
            uint64_t out = 0;
            Status s = store.Read(key, 0, &out);
            ASSERT_TRUE(s == Status::kOk || s == Status::kNotFound);
            break;
          }
          case 2:
            ASSERT_EQ(store.Rmw(key, 1), Status::kOk);
            break;
        }
        if ((i & 1023) == 0) store.Refresh();
      }
      store.CompletePending(true);
      store.StopSession();
    });
  }
  for (auto& th : workers) th.join();
  stop.store(true, std::memory_order_relaxed);
  metrics_scraper.join();
  vars_scraper.join();
  trace_snapshotter.join();
  debug_scraper.join();
  obs::SetSpanSampleEvery(saved_every);
  obs::GlobalSlowLog().set_threshold_ns(obs::SlowLog::kDisabled);

  EXPECT_GT(scrapes.load(std::memory_order_relaxed), 0u);
  if constexpr (obs::kStatsEnabled) {
    // A zero threshold under load must have captured slow ops.
    EXPECT_GT(obs::GlobalSlowLog().TotalRecorded(), 0u);
  }
  // A final scrape after the run still serves coherent output.
  std::string response = HttpGet(exporter.port(), "/metrics");
  EXPECT_EQ(response.rfind("HTTP/1.1 200", 0), 0u);
  if constexpr (obs::kStatsEnabled) {
    EXPECT_NE(response.find("faster_store_"), std::string::npos);
  }
}

}  // namespace
}  // namespace faster
