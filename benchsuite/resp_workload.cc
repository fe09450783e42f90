// resp-openloop: the only workload that crosses parse -> coalesce ->
// batch -> render -> socket. An in-process FasterServer serves one client
// thread driving two connections in a closed loop at pipeline depth 32 per
// connection: its rate is the capacity and its per-pipeline round trips the
// latency. A traced run first drives an open loop of 16-command bursts at a
// fixed offered rate, each timed from its due time. Those burst latencies
// are per-layer metrics: they include every multi-ms vCPU wake-up stall of
// the host, whose rate varies from run to run.

#include <sys/socket.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "harness.h"
#include "net/resp.h"
#include "net/server.h"
#include "net/socket.h"

namespace suite {
namespace {

using faster::net::FasterServer;

constexpr uint32_t kBurst = 16;     // commands per open-loop burst
constexpr uint32_t kPipeline = 32;  // closed-loop depth per connection
constexpr size_t kConnections = 2;
/// Offered open-loop load: about half the closed-loop capacity (1.2-1.4M
/// commands/s on a 4-vCPU KVM guest).
constexpr double kOfferedCmdsPerSec = 600000;
/// Commands a connection may have unanswered before the open loop stops
/// writing to it and only reads: a stalled server then cannot leave both
/// sides blocked writing to each other.
constexpr uint32_t kMaxInflight = 1 << 14;

/// A reply must be the command's type and carry the key's tag.
bool ReplyOk(std::string_view reply, char type, const Cmd& c) {
  uint64_t v = 0;
  if (c.incr) {
    if (type != ':') return false;
    if (!faster::net::ParseU64(reply.substr(1, reply.size() - 3), &v)) {
      return false;
    }
  } else {
    if (type != '$') return false;
    size_t hdr = reply.find("\r\n");
    if (hdr == std::string_view::npos || reply.size() < hdr + 4) return false;
    std::string_view payload = reply.substr(hdr + 2, reply.size() - hdr - 4);
    if (!faster::net::ParseU64(payload, &v)) return false;
  }
  return TagOk(c.key, v);
}

/// Commands written together on one connection, awaiting replies.
struct Group {
  size_t first = 0;  // stream index of the first command
  uint32_t count = 0;
  uint32_t replies = 0;
  uint64_t due = 0;  // ticks: when the group was due to be sent
  uint64_t t_write0 = 0, t_write1 = 0;
  int window = -1;
  bool open_loop = false;
  Windows* win = nullptr;       // phase that times the group
  SpanBuffer* spans = nullptr;  // phase's spans; null when untraced
  uint64_t trace = 0, root = 0;
};

struct Conn {
  faster::net::UniqueFd fd;
  std::string rbuf;
  size_t pos = 0;
  std::deque<Group> groups;
  uint32_t inflight = 0;
};

/// Worker indices of the server's open connections (/debug/connections).
std::vector<int> ServerWorkers(const FasterServer& server) {
  std::vector<int> out;
  std::string json = server.DebugConnectionsJson();
  const std::string key = "\"worker\":";
  for (size_t at = json.find(key); at != std::string::npos;
       at = json.find(key, at + 1)) {
    out.push_back(std::atoi(json.c_str() + at + key.size()));
  }
  return out;
}

bool WaitForOpen(const FasterServer& server, size_t n) {
  for (int i = 0; i < 2000; ++i) {
    if (ServerWorkers(server).size() == n) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

/// The kernel picks a SO_REUSEPORT listener (so a worker) per connection
/// by hashing its address; reconnect until the two connections sit on
/// different workers, so every run loads both workers alike.
bool ConnectBalanced(const FasterServer& server, std::vector<Conn>* conns) {
  for (int attempt = 0; attempt < 200; ++attempt) {
    while (conns->size() < kConnections) {
      Conn c;
      c.fd = faster::net::ConnectTcp("127.0.0.1", server.port());
      if (!c.fd) return false;
      faster::net::SetNoDelay(c.fd.get());
      conns->push_back(std::move(c));
    }
    if (!WaitForOpen(server, kConnections)) return false;
    std::vector<int> workers = ServerWorkers(server);
    if (workers[0] != workers[1]) return true;
    conns->pop_back();
    if (!WaitForOpen(server, kConnections - 1)) return false;
  }
  return false;
}

class Client {
 public:
  Client(const CmdStream& stream, std::vector<Conn>* conns, WorkerOutcome* out)
      : stream_{stream}, conns_{*conns}, out_{out} {}

  /// Sends a burst every `interval` ticks, alternating connections, until
  /// `win` is done; bursts are timed from their due time.
  void OpenLoop(Windows& win, uint64_t interval, SpanBuffer* spans) {
    uint64_t due = Ticks();
    uint64_t bursts = 0;
    for (;;) {
      int w = win.current();
      if (win.done(w)) break;
      uint64_t now = Ticks();
      while (due <= now) {
        Group g;
        g.due = due;
        g.open_loop = true;
        g.window = w;
        g.win = &win;
        g.spans = spans;
        bool span = spans != nullptr && win.traced(w) && (bursts & 3) == 0 &&
                    spans->Room(win.trace_progress(w), 3);
        Conn& c = conns_[bursts % kConnections];
        while (c.inflight >= kMaxInflight) Poll(win);
        if (w >= 0) late_.push_back(Ticks() - due);
        Send(c, kBurst, g, span);
        ++bursts;
        due += interval;
        now = Ticks();
      }
      Poll(win);
    }
  }

  /// Keeps kPipeline commands in flight on every connection until `win`
  /// is done; each pipeline is timed from its write to its last reply.
  void ClosedLoop(Windows& win, SpanBuffer* spans) {
    uint64_t groups = 0;
    for (;;) {
      int w = win.current();
      if (win.done(w)) break;
      for (Conn& c : conns_) {
        if (c.inflight != 0) continue;
        Group g;
        g.window = w;
        g.win = &win;
        g.spans = spans;
        bool span = spans != nullptr && win.traced(w) && (groups & 1) == 0 &&
                    spans->Room(win.trace_progress(w), 3);
        g.due = Ticks();
        Send(c, kPipeline, g, span);
        ++groups;
      }
      Poll(win);
    }
  }

  /// Waits up to `seconds` for every outstanding reply; missing replies
  /// fail the run.
  void Drain(Windows& win, double seconds) {
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::duration<double>(seconds);
    while (Inflight() != 0 && std::chrono::steady_clock::now() < deadline) {
      Poll(win);
    }
    if (Inflight() != 0) {
      out_->Fail(std::to_string(Inflight()) + " of " + std::to_string(sent_) +
                 " commands got no reply");
    }
    out_->ops = sent_;
  }

  /// How late the generator sent each measured burst, in ticks.
  const std::vector<uint64_t>& late() const { return late_; }

 private:
  uint64_t Inflight() const {
    uint64_t n = 0;
    for (const Conn& c : conns_) n += c.inflight;
    return n;
  }

  void Send(Conn& c, uint32_t count, Group g, bool span) {
    if (next_ + count > stream_.cmds.size()) next_ = 0;
    g.first = next_;
    g.count = count;
    next_ += count;
    const char* data = stream_.bytes.data() + stream_.offset[g.first];
    size_t len = stream_.offset[g.first + count] - stream_.offset[g.first];
    g.t_write0 = Ticks();
    if (!faster::net::WriteAllFd(c.fd.get(), data, len)) {
      out_->Fail("write failed");
      return;
    }
    g.t_write1 = Ticks();
    if (span) {
      g.trace = g.spans->NewTrace();
      g.root = g.spans->NewId();
    }
    sent_ += count;
    c.inflight += count;
    c.groups.push_back(g);
  }

  void Poll(Windows& win) {
    char buf[1 << 16];
    for (Conn& c : conns_) {
      if (c.inflight == 0) continue;
      ssize_t got = ::recv(c.fd.get(), buf, sizeof(buf), MSG_DONTWAIT);
      if (got == 0 || (got < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                       errno != EINTR)) {
        out_->Fail("connection closed by server");
        c.inflight = 0;
        c.groups.clear();
        continue;
      }
      if (got < 0) continue;
      c.rbuf.append(buf, static_cast<size_t>(got));
      for (;;) {
        char type = 0;
        size_t next = faster::net::SkipReply(c.rbuf, c.pos, &type);
        if (next == std::string::npos) break;
        if (c.groups.empty()) {
          out_->Fail("reply without a request");
          c.pos = next;
          continue;
        }
        Group& g = c.groups.front();
        const Cmd& cmd = stream_.cmds[g.first + g.replies];
        std::string_view reply{c.rbuf.data() + c.pos, next - c.pos};
        if (!ReplyOk(reply, type, cmd)) {
          out_->Fail(std::string(cmd.incr ? "INCR " : "GET ") +
                     std::to_string(cmd.key) + " -> " + std::string(reply));
        }
        c.pos = next;
        --c.inflight;
        ++replies_;
        if (++g.replies == g.count) {
          Complete(g);
          c.groups.pop_front();
        }
      }
      if (c.pos > (1 << 16)) {
        c.rbuf.erase(0, c.pos);
        c.pos = 0;
      }
    }
    win.Count(0, replies_);
  }

  void Complete(const Group& g) {
    uint64_t now = Ticks();
    g.win->Sample(0, g.window, now - g.due);
    if (g.trace == 0) return;
    const char* write = g.open_loop ? "net.client.write"
                                    : "net.client.write_pipelined";
    const char* wait = g.open_loop ? "net.client.wait"
                                   : "net.client.wait_pipelined";
    SpanBuffer* spans = g.spans;
    spans->Add(write, g.t_write0, g.t_write1, spans->NewId(), g.root, g.trace);
    spans->Add(wait, g.t_write1, now, spans->NewId(), g.root, g.trace);
    spans->Add(g.open_loop ? "bench.burst" : "bench.pipeline", g.due, now,
               g.root, 0, g.trace);
  }

  const CmdStream& stream_;
  std::vector<Conn>& conns_;
  WorkerOutcome* out_;
  size_t next_ = 0;
  uint64_t sent_ = 0;
  uint64_t replies_ = 0;
  std::vector<uint64_t> late_;
};

struct RespEnv {
  explicit RespEnv(uint64_t keys) : server{Options(keys)} {
    if (!server.ok()) return;
    FasterServer::Store& store = server.store();
    FasterServer::Store::Session session{store};
    for (uint64_t k = 0; k < keys; ++k) store.Upsert(k, Tagged(k, 1));
  }

  static faster::net::ServerOptions Options(uint64_t keys) {
    faster::net::ServerOptions o;
    o.port = 0;  // ephemeral
    o.threads = 2;
    o.table_size = keys / 2;
    return o;
  }

  FasterServer server;
};

}  // namespace

CmdStream MakeCmdStream(uint64_t seed, uint64_t keys, size_t n) {
  CmdStream s;
  auto spec = faster::WorkloadSpec::Ycsb(0.5, 0.5,
                                         faster::Distribution::kUniform, keys);
  for (const auto& op : Pregenerate(spec, seed, n)) {
    Cmd c{op.key, op.kind == faster::OpKind::kRmw};
    std::string key = std::to_string(c.key);
    s.offset.push_back(s.bytes.size());
    s.bytes += c.incr ? "*2\r\n$4\r\nINCR\r\n$" : "*2\r\n$3\r\nGET\r\n$";
    s.bytes += std::to_string(key.size()) + "\r\n" + key + "\r\n";
    s.cmds.push_back(c);
  }
  s.offset.push_back(s.bytes.size());
  return s;
}

void RunRespOpenLoop(const RunConfig& cfg, Report* report) {
  TickRate rate;
  uint64_t keys = cfg.Size(uint64_t{1} << 20, uint64_t{1} << 14);
  CmdStream stream = MakeCmdStream(cfg.seed * 16 + 12, keys,
                                   cfg.Size(size_t{1} << 18, size_t{1} << 12));
  double setup_s = 0;
  auto env = TimedSetups<RespEnv>(cfg.setups(), &setup_s, [&] {
    return std::make_unique<RespEnv>(keys);
  });
  if (!env->server.ok()) {
    report->Fail("server: " + env->server.error());
    return;
  }
  std::vector<Conn> conns;
  if (!ConnectBalanced(env->server, &conns)) {
    report->Fail("cannot connect two connections to distinct workers");
    return;
  }

  // Only a traced run drives the open loop (40% of its time, then the
  // closed loop): its burst latencies are per-layer metrics. An untraced
  // run spends all its time in the closed loop.
  std::unique_ptr<Windows> open;
  uint64_t interval = 0;
  Phase closed_phase = Phase::For(cfg, cfg.seconds);
  if (cfg.traced()) {
    open = std::make_unique<Windows>(1, Phase::For(cfg, cfg.seconds * 0.2),
                                     cfg.seed);
    closed_phase = Phase::For(cfg, cfg.seconds * 0.3);
    closed_phase.warmup_s = cfg.smoke ? 0.05 : 0.5;
    // Tick length for scheduling; metrics use the whole-run calibration.
    TickRate quick;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    double offered = cfg.smoke ? kOfferedCmdsPerSec / 8 : kOfferedCmdsPerSec;
    interval = static_cast<uint64_t>(kBurst / offered * 1e9 /
                                     quick.NsPerTick());
  }
  Windows closed{1, closed_phase, cfg.seed + 1};

  SpanLog log;
  size_t span_capacity = cfg.smoke ? 1 << 12 : 1 << 15;
  SpanBuffer* open_spans =
      cfg.traced() ? log.NewBuffer(span_capacity) : nullptr;
  SpanBuffer* closed_spans =
      cfg.traced() ? log.NewBuffer(span_capacity) : nullptr;
  WorkerOutcome outcome;
  Client client{stream, &conns, &outcome};
  std::thread client_thread([&] {
    if (open) client.OpenLoop(*open, interval, open_spans);
    client.ClosedLoop(closed, closed_spans);
    client.Drain(closed, 5.0);
  });
  if (open) open->Run();
  closed.Run();
  client_thread.join();
  report->Merge(outcome);

  double ns = rate.NsPerTick();
  report->AddThroughput(closed, cfg.traced());
  report->AddLatency(closed, ns);
  report->Add("rss_mb", PeakRssMb(), "MB");
  report->Add("setup_s", setup_s, "s");
  if (cfg.traced()) {
    auto self = FinishTrace(cfg, log, ns, report);
    report->Add("net.client.write_us",
                self["net.client.write"].mean_ns / 1000.0, "us");
    report->Add("net.client.wait_us", self["net.client.wait"].mean_ns / 1000.0,
                "us");
    report->Add("net.openloop.p50_us",
                Median(open->LatencyPercentile(0.50, ns)), "us");
    report->Add("net.openloop.p99_us",
                Median(open->LatencyPercentile(0.99, ns)), "us");
    std::vector<double> late;
    for (uint64_t t : client.late()) late.push_back(t * ns / 1000.0);
    report->Add("bench.gen_late_us_p99", Quantile(late, 0.99), "us");
  }
}

}  // namespace suite
