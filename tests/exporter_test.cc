// Tests for the live exposition endpoint (obs/exporter.h) and the crash
// flight recorder (obs/flight_recorder.h): Prometheus text format 0.0.4
// grammar, HTTP behavior over a real loopback socket, bind-failure
// handling, and the signal-safe dump path.

#include "obs/exporter.h"

#include <arpa/inet.h>
#include <dirent.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "core/epoch.h"
#include "core/faster.h"
#include "core/functions.h"
#include "device/memory_device.h"
#include "mini_json.h"
#include "obs/flight_recorder.h"
#include "obs/span.h"
#include "obs/stats.h"
#include "obs/store_view.h"

namespace faster {
namespace {

using obs::Counter;
using obs::Gauge;
using obs::Histogram;
using obs::MetricsExporter;
using obs::Registry;

// ---------------------------------------------------------------------------
// Prometheus text format (Registry::Prometheus, driven directly)
// ---------------------------------------------------------------------------

// Checks every line of a Prometheus 0.0.4 exposition: either a
// `# TYPE faster_<name> <type>` comment or a `<name>[{le="..."}] <int>`
// sample with the faster_ prefix. Mirrors tools/check_prometheus.py.
void CheckPrometheusGrammar(const std::string& text) {
  std::istringstream in{text};
  std::string line;
  size_t samples = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      EXPECT_EQ(line.rfind("# TYPE faster_", 0), 0u) << line;
      std::string type = line.substr(line.rfind(' ') + 1);
      EXPECT_TRUE(type == "counter" || type == "gauge" || type == "histogram")
          << line;
      continue;
    }
    size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    std::string name = line.substr(0, sp);
    std::string value = line.substr(sp + 1);
    EXPECT_EQ(name.rfind("faster_", 0), 0u) << line;
    EXPECT_EQ(name.find(' '), std::string::npos) << line;
    ASSERT_FALSE(value.empty()) << line;
    for (size_t i = value[0] == '-' ? 1 : 0; i < value.size(); ++i) {
      EXPECT_TRUE(value[i] >= '0' && value[i] <= '9') << line;
    }
    ++samples;
  }
  EXPECT_GT(samples, 0u);
}

TEST(PrometheusFormatTest, CountersGaugesHistogramsAndNames) {
  Counter c;
  c.Add(3);
  Gauge g;
  g.Add(-2);
  Histogram h;
  h.Record(0);
  h.Record(5);
  h.Record(300);
  Registry reg;
  reg.Add("store.reads", &c);
  reg.Add("pool.queue_depth", &g);
  reg.Add("store.read_latency_ns", &h);
  reg.AddValue("log.head", 4096);
  std::string text = reg.Prometheus();
  CheckPrometheusGrammar(text);
  // Names are prefixed and sanitized ('.' -> '_'); counters and
  // precomputed values get _total.
  EXPECT_NE(text.find("# TYPE faster_store_reads_total counter"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("faster_store_reads_total 3"), std::string::npos);
  EXPECT_NE(text.find("faster_pool_queue_depth -2"), std::string::npos);
  EXPECT_NE(text.find("faster_log_head_total 4096"), std::string::npos);
  // Histograms expose raw cumulative buckets plus _sum and _count.
  EXPECT_NE(text.find("faster_store_read_latency_ns_bucket{le=\"0\"} 1"),
            std::string::npos)
      << text;
  // 300 lands in [256,512), upper bound 511; cumulative count 3.
  EXPECT_NE(text.find("faster_store_read_latency_ns_bucket{le=\"511\"} 3"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("faster_store_read_latency_ns_bucket{le=\"+Inf\"} 3"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("faster_store_read_latency_ns_sum 305"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("faster_store_read_latency_ns_count 3"),
            std::string::npos)
      << text;
}

TEST(PrometheusFormatTest, EmptyRegistry) {
  Registry reg;
  EXPECT_EQ(reg.Prometheus(), "# (empty registry)\n");
}

// ---------------------------------------------------------------------------
// HTTP exporter over a real loopback socket
// ---------------------------------------------------------------------------

// Minimal HTTP/1.0-style client: one request, read until the server
// closes. Returns the raw response (headers + body), or "" on error.
std::string HttpRequest(uint16_t port, const std::string& method,
                        const std::string& path) {
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
  std::string req = method + " " + path +
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

std::string HttpGet(uint16_t port, const std::string& path) {
  return HttpRequest(port, "GET", path);
}

std::string BodyOf(const std::string& response) {
  size_t pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? "" : response.substr(pos + 4);
}

class ExporterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    counter_.Add(7);
    histogram_.Record(100);
    registry_.Add("test.requests", &counter_);
    registry_.Add("test.latency", &histogram_);
    obs::ExporterOptions options;
    options.port = 0;  // ephemeral
    exporter_ = std::make_unique<MetricsExporter>(
        options, MetricsExporter::Handlers{
                     [this] { return registry_.Prometheus(); },
                     [this] { return registry_.Json(); }});
    ASSERT_TRUE(exporter_->ok());
    ASSERT_NE(exporter_->port(), 0);
  }

  Counter counter_;
  Histogram histogram_;
  Registry registry_;
  std::unique_ptr<MetricsExporter> exporter_;
};

TEST_F(ExporterTest, MetricsEndpointServesPrometheusText) {
  // A query string is split off before matching, so it serves /metrics.
  for (const char* path : {"/metrics", "/metrics?x=1"}) {
    SCOPED_TRACE(path);
    std::string response = HttpGet(exporter_->port(), path);
    EXPECT_EQ(response.rfind("HTTP/1.1 200", 0), 0u) << response;
    EXPECT_NE(response.find("Content-Type: text/plain; version=0.0.4"),
              std::string::npos)
        << response;
    std::string body = BodyOf(response);
    CheckPrometheusGrammar(body);
    EXPECT_NE(body.find("faster_test_requests_total 7"), std::string::npos)
        << body;
    EXPECT_NE(body.find("faster_test_latency_bucket{le=\"+Inf\"} 1"),
              std::string::npos)
        << body;
  }
}

TEST_F(ExporterTest, VarsEndpointServesValidJson) {
  std::string response = HttpGet(exporter_->port(), "/vars");
  EXPECT_EQ(response.rfind("HTTP/1.1 200", 0), 0u) << response;
  EXPECT_NE(response.find("Content-Type: application/json"),
            std::string::npos)
      << response;
  std::string body = BodyOf(response);
  EXPECT_TRUE(MiniJson::Valid(body)) << body;
  EXPECT_NE(body.find("\"test.requests\":7"), std::string::npos) << body;
}

TEST_F(ExporterTest, HealthzEndpoint) {
  std::string response = HttpGet(exporter_->port(), "/healthz");
  EXPECT_EQ(response.rfind("HTTP/1.1 200", 0), 0u) << response;
  EXPECT_EQ(BodyOf(response), "ok\n");
}

TEST_F(ExporterTest, UnknownPathIs404) {
  std::string response = HttpGet(exporter_->port(), "/nope");
  EXPECT_EQ(response.rfind("HTTP/1.1 404", 0), 0u) << response;
}

TEST_F(ExporterTest, NonGetMethodIs405) {
  std::string response = HttpRequest(exporter_->port(), "POST", "/metrics");
  EXPECT_EQ(response.rfind("HTTP/1.1 405", 0), 0u) << response;
}

TEST_F(ExporterTest, ScrapeIsRepeatable) {
  // Live scrape semantics: values advance between scrapes.
  std::string first = BodyOf(HttpGet(exporter_->port(), "/metrics"));
  counter_.Add(3);
  std::string second = BodyOf(HttpGet(exporter_->port(), "/metrics"));
  EXPECT_NE(first.find("faster_test_requests_total 7"), std::string::npos);
  EXPECT_NE(second.find("faster_test_requests_total 10"), std::string::npos);
}

TEST_F(ExporterTest, TricklingClientHoldsTheExporterAtMostTheHeadDeadline) {
  // Client A sends one byte every 200 ms for 8 s and never ends its
  // request head. The exporter serves one connection at a time, so
  // client B's /healthz, sent 100 ms after A connects, waits for A's head
  // read to give up: within 4 s, not for as long as A keeps trickling.
  int a = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(a, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(exporter_->port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(a, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  std::thread trickle([a] {
    const std::string head = "GET /metrics HTTP/1.1\r\nX-Pad: ";
    for (int i = 0; i < 40; ++i) {
      char c = i < static_cast<int>(head.size()) ? head[i] : 'x';
      // Stops once the exporter has closed A's connection.
      if (::send(a, &c, 1, MSG_NOSIGNAL) != 1) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  auto start = std::chrono::steady_clock::now();
  std::string response = HttpGet(exporter_->port(), "/healthz");
  auto waited = std::chrono::steady_clock::now() - start;
  trickle.join();
  ::close(a);
  EXPECT_EQ(BodyOf(response), "ok\n") << response;
  EXPECT_LT(waited, std::chrono::seconds(4))
      << std::chrono::duration<double>(waited).count() << " s";
}

TEST_F(ExporterTest, PortCollisionDisablesSecondExporter) {
  obs::ExporterOptions options;
  options.port = exporter_->port();  // already bound by the fixture
  MetricsExporter second{options,
                         MetricsExporter::Handlers{[] { return ""; },
                                                   [] { return ""; }}};
  EXPECT_FALSE(second.ok());
}

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

/// Runs `crash` in a death-test child with $FASTER_FLIGHT_DIR set,
/// expects it to die with a stderr dump matching `pattern` (POSIX ERE;
/// '.' matches newline, so it spans the dump), and reads back the
/// flight_<pid>.txt the child wrote into `*text`.
void DumpOfCrash(void (*crash)(), const char* pattern, std::string* text) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // The threadsafe death-test child re-executes the whole test body, so
  // it must reuse the parent's directory (inherited through the
  // environment) instead of minting its own — otherwise the dump lands
  // where the parent never looks.
  std::string dir;
  bool created_dir = false;
  if (const char* inherited = std::getenv("FASTER_FLIGHT_DIR")) {
    dir = inherited;
  } else {
    char dir_template[] = "/tmp/faster_flight_XXXXXX";
    char* d = ::mkdtemp(dir_template);
    ASSERT_NE(d, nullptr);
    dir = d;
    ::setenv("FASTER_FLIGHT_DIR", dir.c_str(), 1);
    created_dir = true;
  }
  // Everything recorder-related happens in the death-test child so the
  // parent test process keeps its normal signal handlers.
  EXPECT_DEATH(crash(), pattern);
  if (created_dir) ::unsetenv("FASTER_FLIGHT_DIR");

  // The child also wrote $FASTER_FLIGHT_DIR/flight_<pid>.txt.
  std::string dump_path;
  DIR* d = ::opendir(dir.c_str());
  ASSERT_NE(d, nullptr);
  while (dirent* e = ::readdir(d)) {
    std::string name = e->d_name;
    if (name.rfind("flight_", 0) == 0) {
      dump_path = dir + "/" + name;
      break;
    }
  }
  ::closedir(d);
  ASSERT_FALSE(dump_path.empty()) << "no flight_<pid>.txt in " << dir;
  std::ifstream in{dump_path};
  std::stringstream contents;
  contents << in.rdbuf();
  *text = contents.str();
}

size_t Occurrences(const std::string& text, const std::string& needle) {
  size_t n = 0;
  for (size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + 1)) {
    ++n;
  }
  return n;
}

TEST(FlightRecorderTest, DumpWritesMarkersEpochsEventsAndMetrics) {
  std::string text;
  ASSERT_NO_FATAL_FAILURE(DumpOfCrash(
      [] {
        static obs::Counter counter;
        counter.Add(42);
        obs::GlobalSpanRing().Record(7, 7, 0, 100, 250, 12,
                                     obs::SpanKind::kGrow);
        static obs::Registry reg;
        reg.Add("crash.counter", &counter);
        static LightEpoch epoch;
        epoch.Protect();
        auto& rec = obs::FlightRecorder::Instance();
        rec.AttachProcessRings();
        rec.AttachMetrics(&reg, reg);
        rec.AttachEpoch(&reg, &epoch);
        rec.Install();
        std::abort();
      },
      // Metric names are dumped verbatim (no Prometheus sanitization).
      "FASTER FLIGHT RECORDER BEGIN.*reason: SIGABRT.*-- metrics --"
      ".*crash\\.counter 42.*-- spans.*kind=grow start_ns=100 dur_ns=150 "
      "arg=12.*FASTER FLIGHT RECORDER END",
      &text));
  EXPECT_NE(text.find("FASTER FLIGHT RECORDER BEGIN"), std::string::npos);
  EXPECT_NE(text.find("reason: SIGABRT"), std::string::npos);
  EXPECT_NE(text.find("crash.counter 42"), std::string::npos);
  EXPECT_NE(text.find("local_epoch"), std::string::npos)
      << "protected thread's epoch entry missing:\n"
      << text;
  EXPECT_NE(text.find("FASTER FLIGHT RECORDER END"), std::string::npos);
}

// Each store attaches its own epoch table and metrics, but the
// process-wide span and slow-op rings are attached once: a process with
// two stores dumps one section of each, and a store's grow is a span in it.
TEST(FlightRecorderTest, TwoStoresDumpProcessRingsOnce) {
  if constexpr (!obs::kStatsEnabled) {
    GTEST_SKIP() << "the process-wide rings attach in stats builds only";
  }
  std::string text;
  ASSERT_NO_FATAL_FAILURE(DumpOfCrash(
      [] {
        using Store = FasterKv<CountStoreFunctions>;
        static MemoryDevice device;
        Store::Config cfg;
        cfg.table_size = 1024;
        cfg.log.memory_size_bytes = 16 << 20;
        static Store first{cfg, &device};
        static Store second{cfg, &device};
        static obs::FlightAttachment first_flight =
            obs::AttachFlightRecorder(first.view());
        static obs::FlightAttachment second_flight =
            obs::AttachFlightRecorder(second.view());
        first.StartSession();
        first.GrowIndex();  // 1024 -> 2048 buckets
        first.StopSession();
        std::abort();
      },
      "FASTER FLIGHT RECORDER BEGIN.*-- spans.*kind=grow .*arg=11"
      ".*-- slowlog.*FASTER FLIGHT RECORDER END",
      &text));
  EXPECT_EQ(Occurrences(text, "-- epoch["), 2u) << text;
  EXPECT_EQ(Occurrences(text, "-- spans"), 1u) << text;
  EXPECT_EQ(Occurrences(text, "-- slowlog"), 1u) << text;
}

}  // namespace
}  // namespace faster
