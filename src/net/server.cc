#include "net/server.h"

#include <sys/epoll.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <optional>
#include <type_traits>
#include <utility>

#include "core/key_hash.h"
#include "core/memory_region.h"
#include "obs/build_info.h"
#include "obs/clock.h"
#include "obs/log.h"
#include "obs/store_view.h"

namespace faster {
namespace net {

namespace {

constexpr uint32_t kNoSlot = UINT32_MAX;

/// Uppercases an ASCII command name into a small buffer ("get" -> "GET").
/// Returns false (no match possible) for names longer than the buffer.
bool UpperName(const std::string& s, char* out, size_t cap) {
  if (s.size() + 1 > cap) return false;
  for (size_t i = 0; i < s.size(); ++i) {
    out[i] = static_cast<char>(
        std::toupper(static_cast<unsigned char>(s[i])));
  }
  out[s.size()] = '\0';
  return true;
}

void AppendU64(std::string* out, uint64_t v) {
  char buf[24];
  int n = std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out->append(buf, static_cast<size_t>(n));
}

/// Resident set size of this process (/proc/self/statm), or 0 if
/// unavailable.
uint64_t RssBytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long size_pages = 0;
  unsigned long long resident_pages = 0;
  int fields = std::fscanf(f, "%llu %llu", &size_pages, &resident_pages);
  std::fclose(f);
  if (fields != 2) return 0;
  return resident_pages * static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
}

// The process's memory backed by transparent huge pages (0 if unknown).
uint64_t AnonHugeBytes() {
  std::FILE* f = std::fopen("/proc/self/smaps_rollup", "r");
  if (f == nullptr) return 0;
  char line[256];
  unsigned long long kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr &&
         std::sscanf(line, "AnonHugePages: %llu kB", &kb) != 1) {
  }
  std::fclose(f);
  return kb * 1024;
}

// A failed op's reply: -OOM, as Redis replies, when the store had no
// memory for it (an unmappable index segment, a failed allocation); else
// -ERR.
void AppendOpError(std::string* out, const char* op, Status s) {
  AppendError(out, std::string(s == Status::kOutOfMemory ? "OOM " : "ERR ") +
                       op + " failed: " + StatusName(s));
}

/// The keys INCR'd in the current segment (MaybeSplitSegment), in fixed
/// storage so a segment allocates nothing: open addressing, emptied in
/// O(1) by a new generation. At kSlots / 2 keys it is full.
struct SegmentKeys {
  static constexpr uint32_t kSlots = 1024;
  uint64_t keys[kSlots] = {};
  uint32_t gen[kSlots] = {};  // == cur: the slot holds a key
  uint32_t cur = 1, size = 0;

  uint32_t Probe(uint64_t key) const {  // its slot, or the free one
    uint32_t i = static_cast<uint32_t>(Mix64(key)) % kSlots;
    while (gen[i] == cur && keys[i] != key) i = (i + 1) % kSlots;
    return i;
  }
  bool Contains(uint64_t key) const { return gen[Probe(key)] == cur; }
  void Insert(uint64_t key) {
    uint32_t i = Probe(key);
    size += gen[i] != cur;
    gen[i] = cur;
    keys[i] = key;
  }
  void Clear() {  // on wrap, frees every slot and restarts at 1
    size = 0;
    if (++cur == 0) std::fill(std::begin(gen), std::end(gen), cur++);
  }
};

}  // namespace

/// One command's reply recipe, recorded in per-connection order during
/// classification and rendered after the turn's store work completes —
/// this is what makes reply sequencing safe under batch splits and
/// asynchronous completion.
struct FasterServer::CmdRec {
  enum class Type : uint8_t {
    kGet,   // reply from slot: bulk value / $-1 / error
    kSet,   // reply from slot: +OK / error
    kIncr,  // reply from slot: :post-increment / error
    kDel,   // reply: :count of the `keys` slots from `slot` that deleted
    kLit,   // reply: lit verbatim (already RESP-encoded)
    kErr,   // reply: -lit
  };
  Type type;
  uint32_t slot = kNoSlot;
  uint32_t keys = 0;
  std::string lit;
};

/// One store operation's turn state. The store (and PendingCompletion)
/// write `out` and `status` only inside ExecuteSegment, which no new slot
/// interrupts, so the turn's slots can live in a vector.
struct FasterServer::SlotRec {
  Store::BatchOp::Kind kind;
  uint64_t key = 0;
  uint64_t arg = 0;  // SET payload / INCR operand
  uint64_t out = 0;  // GET's value / INCR's post-increment value
  Status status = Status::kOk;
};

struct FasterServer::Connection {
  Connection(UniqueFd f, const RespLimits& limits)
      : fd{std::move(f)}, parser{limits} {}

  UniqueFd fd;
  RespParser parser;
  std::string outbuf;              // rendered, unsent reply bytes
  std::vector<CmdRec> turn_cmds;   // this turn's replies, in order
  uint32_t stat_slot = kNoSlot;    // index into conn_slots_, or kNoSlot
  bool in_ready = false;   // already on the worker's ready list
  bool has_more = false;   // parser holds complete commands beyond the cap
  bool want_close = false; // close once outbuf drains (QUIT / proto error)
  bool epollout = false;   // EPOLLOUT currently armed
  bool dead = false;       // write error; close at end of turn
};

struct FasterServer::Worker {
  uint32_t index = 0;
  UniqueFd listen_fd;
  UniqueFd epoll_fd;
  UniqueFd wake_read, wake_write;
  std::thread thread;
  std::unordered_map<int, std::unique_ptr<Connection>> conns;
  std::vector<Connection*> ready;
  std::vector<char> scratch = std::vector<char>(size_t{1} << 16);
  // Turn state (cleared per turn). The slots from segment_begin on await
  // ExecuteSegment.
  std::vector<SlotRec> slots;
  size_t segment_begin = 0;
  SegmentKeys incr_keys;
  size_t turn_commands = 0;
};

FasterServer::FasterServer(const ServerOptions& options)
    : options_{options} {
  if (options_.slowlog_threshold_us != 0) {
    obs::GlobalSlowLog().set_threshold_ns(options_.slowlog_threshold_us *
                                          1000);
  }
  // The device starts no thread: flush writes and cold reads execute in
  // the workers' own CompletePending polls (DESIGN.md §13).
  device_ = std::make_unique<MemoryDevice>();
  Store::Config cfg;
  cfg.table_size = options_.table_size;
  cfg.log.memory_size_bytes = options_.log_memory_bytes;
  cfg.log.mutable_fraction = options_.mutable_fraction;
  cfg.completion_callback = &FasterServer::PendingCompletion;
  store_ = std::make_unique<Store>(cfg, device_.get());

  uint32_t threads = std::max<uint32_t>(1, options_.threads);
  uint16_t bound = options_.port;
  for (uint32_t t = 0; t < threads; ++t) {
    auto w = std::make_unique<Worker>();
    w->index = t;
    // Worker 0 resolves an ephemeral port request; the rest bind the
    // resolved port so the kernel shards accepts across all listeners.
    w->listen_fd = CreateTcpListener(options_.bind_address, bound,
                                     /*backlog=*/256, /*reuseport=*/true,
                                     t == 0 ? &bound : nullptr, &error_);
    if (!w->listen_fd || !SetNonBlocking(w->listen_fd.get())) {
      if (error_.empty()) error_ = "listener setup failed";
      return;
    }
    w->epoll_fd.reset(::epoll_create1(EPOLL_CLOEXEC));
    int wake[2];
    if (!w->epoll_fd || ::pipe2(wake, O_NONBLOCK | O_CLOEXEC) != 0) {
      error_ = "epoll/pipe setup failed";
      return;
    }
    w->wake_read.reset(wake[0]);
    w->wake_write.reset(wake[1]);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = w->listen_fd.get();
    ::epoll_ctl(w->epoll_fd.get(), EPOLL_CTL_ADD, w->listen_fd.get(), &ev);
    ev.data.fd = w->wake_read.get();
    ::epoll_ctl(w->epoll_fd.get(), EPOLL_CTL_ADD, w->wake_read.get(), &ev);
    workers_.push_back(std::move(w));
  }
  port_ = bound;
  ok_ = true;
  obs::Log(obs::LogLevel::kInfo, "server", "listening",
           obs::LogField{"port", static_cast<uint64_t>(port_)},
           obs::LogField{"workers", threads},
           obs::LogField{"slowlog_threshold_us",
                         options_.slowlog_threshold_us});
  for (auto& w : workers_) {
    Worker* wp = w.get();
    wp->thread = std::thread([this, wp] { WorkerLoop(*wp); });
  }
}

FasterServer::~FasterServer() { Shutdown(); }

void FasterServer::Shutdown() {
  bool expected = false;
  if (stopping_.compare_exchange_strong(expected, true,
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
    obs::Log(obs::LogLevel::kInfo, "server", "shutdown: draining",
             obs::LogField{"commands",
                           commands_.load(std::memory_order_relaxed)});
    for (auto& w : workers_) {
      char b = 1;
      if (w->wake_write) (void)!::write(w->wake_write.get(), &b, 1);
    }
    for (auto& w : workers_) {
      if (w->thread.joinable()) w->thread.join();
    }
    stopped_.store(true, std::memory_order_release);
  } else {
    // Another caller (e.g. the destructor racing a signal thread) owns
    // the drain; wait for it so Shutdown() implies "drained" for all.
    while (!stopped_.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  }
}

void FasterServer::PendingCompletion(Store::UserOp /*op*/, Status result,
                                     void* user_context) {
  if (user_context != nullptr) {
    *static_cast<Status*>(user_context) = result;
  }
}

void FasterServer::WorkerLoop(Worker& w) {
  // One session for the worker's lifetime: every connection mapped to
  // this thread executes under it, and the destructor (drain path)
  // completes pending work and unprotects this thread's epoch slot.
  Store::Session session{*store_};
  epoll_event events[128];
  bool backlog = false;
  while (!stopping_.load(std::memory_order_acquire)) {
    int timeout_ms = backlog ? 0 : 50;  // bounded so epochs keep advancing
    int n = ::epoll_wait(w.epoll_fd.get(), events, 128, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    // Root span for the turn: socket read -> reply flush. Parse/execute/
    // flush segments (and the store's batch_chunk spans) nest under it.
    std::optional<obs::StatSpan> turn_span;
    if (n > 0 || backlog) {
      turn_span.emplace(obs::SpanKind::kNetRequest,
                        static_cast<uint32_t>(n));
    }
    for (int i = 0; i < n; ++i) {
      int fd = events[i].data.fd;
      if (fd == w.listen_fd.get()) {
        AcceptNew(w);
        continue;
      }
      if (fd == w.wake_read.get()) {
        char drain[64];
        while (ReadSomeFd(w.wake_read.get(), drain, sizeof(drain)) > 0) {
        }
        continue;
      }
      auto it = w.conns.find(fd);
      if (it == w.conns.end()) continue;
      Connection& conn = *it->second;
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
        CloseConnection(w, fd);
        continue;
      }
      if ((events[i].events & EPOLLOUT) != 0) {
        FlushConnection(conn);
        if (conn.dead || (conn.want_close && conn.outbuf.empty())) {
          CloseConnection(w, fd);
          continue;
        }
        UpdateEpollOut(w, conn, !conn.outbuf.empty());
      }
      if ((events[i].events & EPOLLIN) != 0) {
        if (!HandleReadable(w, conn)) {
          CloseConnection(w, fd);
          continue;
        }
      }
    }
    if (!w.ready.empty()) {
      ProcessTurn(w);
      RenderAndFlush(w);
    }
    backlog = !w.ready.empty();  // connections with capped-off pipelines
    store_->Refresh();
    store_->CompletePending(/*wait=*/false);
  }

  // Drain: stop accepting, give buffered replies a bounded best-effort
  // flush, close everything. The session destructor then completes this
  // thread's pending store work and unprotects its epoch slot.
  ::epoll_ctl(w.epoll_fd.get(), EPOLL_CTL_DEL, w.listen_fd.get(), nullptr);
  w.listen_fd.reset();  // new connection attempts now fail, not queue
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(200);
  for (auto& [fd, conn] : w.conns) {
    while (!conn->outbuf.empty() && !conn->dead &&
           std::chrono::steady_clock::now() < deadline) {
      FlushConnection(*conn);
      if (!conn->outbuf.empty()) std::this_thread::yield();
    }
    ReleaseConnSlot(conn->stat_slot);
    stats_.connections_closed.Inc();
    stats_.connections_open.Dec();
  }
  w.conns.clear();
  w.ready.clear();
}

void FasterServer::AcceptNew(Worker& w) {
  for (;;) {
    int cfd = AcceptNoIntr(w.listen_fd.get());
    if (cfd < 0) break;  // EAGAIN: backlog drained
    UniqueFd ufd{cfd};
    if (!SetNonBlocking(cfd)) continue;  // ufd closes it
    SetNoDelay(cfd);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = cfd;
    if (::epoll_ctl(w.epoll_fd.get(), EPOLL_CTL_ADD, cfd, &ev) != 0) {
      continue;
    }
    auto conn = std::make_unique<Connection>(std::move(ufd),
                                             options_.limits);
    conn->stat_slot = ClaimConnSlot(cfd, w.index);
    w.conns.emplace(cfd, std::move(conn));
    stats_.connections_accepted.Inc();
    stats_.connections_open.Inc();
    obs::Log(obs::LogLevel::kDebug, "server", "connection accepted",
             obs::LogField{"fd", cfd}, obs::LogField{"worker", w.index});
  }
}

uint32_t FasterServer::ClaimConnSlot(int fd, uint32_t worker_index) {
  for (uint32_t i = 0; i < kMaxConnSlots; ++i) {
    ConnSlot& slot = conn_slots_[i];
    if (slot.used.load(std::memory_order_acquire)) continue;
    // Workers race for free slots; losing just means probing on.
    bool expected = false;
    // Acquire pairs with the release store of `false` at close, ordering
    // the old owner's final counter writes before ours; our own field
    // stores land after the claim, so no release is needed here.
    if (!slot.used.compare_exchange_strong(expected, true,
                                           std::memory_order_acquire,
                                           std::memory_order_acquire)) {
      continue;
    }
    slot.fd.store(fd, std::memory_order_relaxed);
    slot.worker.store(worker_index, std::memory_order_relaxed);
    slot.accept_ns.store(obs::NowNs(), std::memory_order_relaxed);
    slot.bytes_in.store(0, std::memory_order_relaxed);
    slot.bytes_out.store(0, std::memory_order_relaxed);
    slot.commands.store(0, std::memory_order_relaxed);
    return i;
  }
  return kNoSlot;  // table full: the connection runs untracked
}

void FasterServer::ReleaseConnSlot(uint32_t slot) {
  if (slot == kNoSlot) return;
  conn_slots_[slot].used.store(false, std::memory_order_release);
}

bool FasterServer::HandleReadable(Worker& w, Connection& conn) {
  ssize_t got =
      ReadSomeFd(conn.fd.get(), w.scratch.data(), w.scratch.size());
  if (got == 0) return false;  // EOF
  if (got < 0) return errno == EAGAIN || errno == EWOULDBLOCK;
  stats_.bytes_read.Add(static_cast<uint64_t>(got));
  if (conn.stat_slot != kNoSlot) {
    conn_slots_[conn.stat_slot].bytes_in.fetch_add(
        static_cast<uint64_t>(got), std::memory_order_relaxed);
  }
  conn.parser.Feed(w.scratch.data(), static_cast<size_t>(got));
  if (!conn.in_ready) {
    w.ready.push_back(&conn);
    conn.in_ready = true;
  }
  return true;
}

void FasterServer::ProcessTurn(Worker& w) {
  w.slots.clear();
  w.segment_begin = 0;
  w.incr_keys.Clear();
  w.turn_commands = 0;
  {
    obs::StageScope parse{obs::Stage::kNetParse};
    for (Connection* conn : w.ready) {
      GatherCommands(w, *conn);
    }
  }
  ExecuteSegment(w);  // trailing segment
  if (w.turn_commands > 0) {
    commands_.fetch_add(w.turn_commands, std::memory_order_relaxed);
    stats_.turns.Inc();
  }
}

void FasterServer::GatherCommands(Worker& w, Connection& conn) {
  size_t count = 0;
  conn.has_more = false;
  RespCommand cmd;
  while (count < options_.max_pipeline) {
    RespParser::Result r = conn.parser.Next(&cmd);
    if (r == RespParser::Result::kCommand) {
      ClassifyCommand(w, conn, std::move(cmd));
      ++count;
      continue;
    }
    if (r == RespParser::Result::kError && !conn.want_close) {
      stats_.protocol_errors.Inc();
      static obs::LogRateLimit proto_limit{100'000'000};  // 100ms
      obs::LogLimited(proto_limit, obs::LogLevel::kWarn, "server",
                      "protocol error, closing connection",
                      obs::LogField{"fd", conn.fd.get()},
                      obs::LogField{"error", conn.parser.error().c_str()});
      CmdRec rec;
      rec.type = CmdRec::Type::kErr;
      rec.lit = "ERR " + conn.parser.error();
      conn.turn_cmds.push_back(std::move(rec));
      conn.want_close = true;
    }
    break;
  }
  if (count == options_.max_pipeline) conn.has_more = true;
  if (conn.stat_slot != kNoSlot && count > 0) {
    conn_slots_[conn.stat_slot].commands.fetch_add(
        count, std::memory_order_relaxed);
  }
  w.turn_commands += count;
  stats_.pipeline_depth.Record(count);
}

// An INCR whose RMW goes pending completes after the later ops of its
// batch, so a later op on its key runs in the next segment.
void FasterServer::MaybeSplitSegment(Worker& w, uint64_t key) {
  if (w.incr_keys.Contains(key)) {
    stats_.segment_splits.Inc();
    ExecuteSegment(w);
  }
}

void FasterServer::ClassifyCommand(Worker& w, Connection& conn,
                                   RespCommand&& cmd) {
  char name[16];
  CmdRec rec;
  if (!UpperName(cmd.argv[0], name, sizeof(name))) {
    rec.type = CmdRec::Type::kErr;
    rec.lit = "ERR unknown command '" + cmd.argv[0] + "'";
    conn.turn_cmds.push_back(std::move(rec));
    stats_.cmd_other.Inc();
    return;
  }
  auto new_slot = [&](Store::BatchOp::Kind kind, uint64_t key,
                      uint64_t arg) -> uint32_t {
    MaybeSplitSegment(w, key);
    w.slots.push_back(SlotRec{kind, key, arg});
    return static_cast<uint32_t>(w.slots.size() - 1);
  };
  using Kind = Store::BatchOp::Kind;
  if (std::strcmp(name, "GET") == 0 && cmd.argv.size() == 2) {
    rec.type = CmdRec::Type::kGet;
    rec.slot = new_slot(Kind::kRead, MapKey(cmd.argv[1]), 0);
    stats_.cmd_get.Inc();
  } else if (std::strcmp(name, "SET") == 0 && cmd.argv.size() == 3) {
    uint64_t value;
    if (!ParseU64(cmd.argv[2], &value)) {
      rec.type = CmdRec::Type::kErr;
      rec.lit = "ERR value is not an integer or out of range";
    } else {
      rec.type = CmdRec::Type::kSet;
      rec.slot = new_slot(Kind::kUpsert, MapKey(cmd.argv[1]), value);
    }
    stats_.cmd_set.Inc();
  } else if (std::strcmp(name, "INCR") == 0 && cmd.argv.size() == 2) {
    uint64_t key = MapKey(cmd.argv[1]);
    if (w.incr_keys.size == SegmentKeys::kSlots / 2) ExecuteSegment(w);
    rec.type = CmdRec::Type::kIncr;
    rec.slot = new_slot(Kind::kRmw, key, 1);
    w.incr_keys.Insert(key);
    stats_.cmd_incr.Inc();
  } else if (std::strcmp(name, "DEL") == 0 && cmd.argv.size() >= 2) {
    // One delete slot per key, consecutive in w.slots.
    rec.type = CmdRec::Type::kDel;
    rec.keys = static_cast<uint32_t>(cmd.argv.size() - 1);
    for (size_t i = 1; i < cmd.argv.size(); ++i) {
      uint32_t slot = new_slot(Kind::kDelete, MapKey(cmd.argv[i]), 0);
      if (i == 1) rec.slot = slot;
    }
    stats_.cmd_del.Inc();
  } else if (std::strcmp(name, "PING") == 0 && cmd.argv.size() <= 2) {
    rec.type = CmdRec::Type::kLit;
    if (cmd.argv.size() == 2) {
      AppendBulk(&rec.lit, cmd.argv[1]);
    } else {
      rec.lit = "+PONG\r\n";
    }
    stats_.cmd_other.Inc();
  } else if (std::strcmp(name, "INFO") == 0) {
    rec.type = CmdRec::Type::kLit;
    AppendBulk(&rec.lit, InfoText());
    stats_.cmd_other.Inc();
  } else if (std::strcmp(name, "SLOWLOG") == 0) {
    rec.type = CmdRec::Type::kLit;
    HandleSlowlog(cmd, &rec.lit);
    if (rec.lit.empty()) {
      rec.type = CmdRec::Type::kErr;
      rec.lit = "ERR unknown SLOWLOG subcommand; try GET, RESET, LEN";
    }
    stats_.cmd_other.Inc();
  } else if (std::strcmp(name, "PERF") == 0) {
    rec.type = CmdRec::Type::kLit;
    HandlePerf(cmd, &rec.lit);
    if (rec.lit.empty()) {
      rec.type = CmdRec::Type::kErr;
      rec.lit = "ERR unknown PERF subcommand; try GET, ENABLE, DISABLE, "
                "RESET";
    }
    stats_.cmd_other.Inc();
  } else if (std::strcmp(name, "QUIT") == 0) {
    rec.type = CmdRec::Type::kLit;
    rec.lit = "+OK\r\n";
    conn.want_close = true;
    stats_.cmd_other.Inc();
  } else if (std::strcmp(name, "COMMAND") == 0) {
    // redis-cli sends COMMAND DOCS on connect; an empty array reply keeps
    // it happy without implementing introspection.
    rec.type = CmdRec::Type::kLit;
    rec.lit = "*0\r\n";
    stats_.cmd_other.Inc();
  } else {
    rec.type = CmdRec::Type::kErr;
    rec.lit = "ERR unknown command '" + cmd.argv[0] +
              "', or wrong number of arguments";
    stats_.cmd_other.Inc();
  }
  conn.turn_cmds.push_back(std::move(rec));
}

void FasterServer::ExecuteSegment(Worker& w) {
  w.incr_keys.Clear();
  size_t begin = std::exchange(w.segment_begin, w.slots.size());
  if (begin == w.slots.size()) return;
  stats_.batch_fill.Record(w.slots.size() - begin);

  // One batch: a GET's value and an INCR's post-increment value land in
  // the slot's `out`; a pending op's final status reaches its slot through
  // PendingCompletion (the BatchOp's user_context) inside CompletePending.
  Store::BatchOp ops[Store::kBatchChunk];
  for (size_t at = begin; at < w.slots.size(); at += Store::kBatchChunk) {
    size_t m = std::min(w.slots.size() - at, Store::kBatchChunk);
    for (size_t i = 0; i < m; ++i) {
      SlotRec& s = w.slots[at + i];
      ops[i] = {s.kind, s.key, s.arg, s.arg, &s.out, &s.status};
    }
    store_->ExecuteBatch(ops, m);
    for (size_t i = 0; i < m; ++i) w.slots[at + i].status = ops[i].status;
  }
  store_->CompletePending(/*wait=*/true);
}

void FasterServer::RenderCommand(Worker& w, const CmdRec& rec,
                                 std::string* out) {
  switch (rec.type) {
    case CmdRec::Type::kGet: {
      const SlotRec& s = w.slots[rec.slot];
      if (s.status == Status::kOk) {
        std::string v;
        AppendU64(&v, s.out);
        AppendBulk(out, v);
      } else if (s.status == Status::kNotFound) {
        AppendNullBulk(out);
      } else {
        AppendOpError(out, "read", s.status);
      }
      break;
    }
    case CmdRec::Type::kSet: {
      const SlotRec& s = w.slots[rec.slot];
      if (s.status == Status::kOk) {
        AppendSimple(out, "OK");
      } else {
        AppendOpError(out, "set", s.status);
      }
      break;
    }
    case CmdRec::Type::kIncr: {
      const SlotRec& s = w.slots[rec.slot];
      if (s.status == Status::kOk) {
        AppendInteger(out, static_cast<long long>(s.out));
      } else {
        AppendOpError(out, "incr", s.status);
      }
      break;
    }
    case CmdRec::Type::kDel: {
      long long deleted = 0;
      for (uint32_t i = 0; i < rec.keys; ++i) {
        if (w.slots[rec.slot + i].status == Status::kOk) ++deleted;
      }
      AppendInteger(out, deleted);
      break;
    }
    case CmdRec::Type::kLit:
      out->append(rec.lit);
      break;
    case CmdRec::Type::kErr:
      AppendError(out, rec.lit);
      break;
  }
}

void FasterServer::RenderAndFlush(Worker& w) {
  obs::StageScope flush{obs::Stage::kNetFlush,
                        static_cast<uint32_t>(w.turn_commands)};
  std::vector<int> to_close;
  for (Connection* conn : w.ready) {
    conn->in_ready = false;
    for (const CmdRec& rec : conn->turn_cmds) {
      RenderCommand(w, rec, &conn->outbuf);
    }
    conn->turn_cmds.clear();
    FlushConnection(*conn);
    if (conn->dead || (conn->want_close && conn->outbuf.empty())) {
      to_close.push_back(conn->fd.get());
    } else {
      UpdateEpollOut(w, *conn, !conn->outbuf.empty());
    }
  }
  w.ready.clear();
  for (int fd : to_close) CloseConnection(w, fd);
  // Connections whose pipelines hit the per-turn cap carry over.
  for (auto& [fd, conn] : w.conns) {
    if (conn->has_more && !conn->in_ready) {
      w.ready.push_back(conn.get());
      conn->in_ready = true;
    }
  }
}

void FasterServer::FlushConnection(Connection& conn) {
  while (!conn.outbuf.empty()) {
    ssize_t n = WriteSomeFd(conn.fd.get(), conn.outbuf.data(),
                            conn.outbuf.size());
    if (n < 0) {
      conn.dead = true;
      return;
    }
    if (n == 0) return;  // EAGAIN: EPOLLOUT will resume
    stats_.bytes_written.Add(static_cast<uint64_t>(n));
    if (conn.stat_slot != kNoSlot) {
      conn_slots_[conn.stat_slot].bytes_out.fetch_add(
          static_cast<uint64_t>(n), std::memory_order_relaxed);
    }
    conn.outbuf.erase(0, static_cast<size_t>(n));
  }
}

void FasterServer::CloseConnection(Worker& w, int fd) {
  auto it = w.conns.find(fd);
  if (it == w.conns.end()) return;
  Connection* conn = it->second.get();
  obs::Log(obs::LogLevel::kDebug, "server", "connection closed",
           obs::LogField{"fd", fd}, obs::LogField{"worker", w.index});
  ReleaseConnSlot(conn->stat_slot);
  w.ready.erase(std::remove(w.ready.begin(), w.ready.end(), conn),
                w.ready.end());
  w.conns.erase(it);  // UniqueFd close also removes the epoll entry
  stats_.connections_closed.Inc();
  stats_.connections_open.Dec();
}

void FasterServer::UpdateEpollOut(Worker& w, Connection& conn,
                                  bool want_out) {
  if (conn.epollout == want_out) return;
  epoll_event ev{};
  ev.events = EPOLLIN | (want_out ? static_cast<uint32_t>(EPOLLOUT) : 0u);
  ev.data.fd = conn.fd.get();
  if (::epoll_ctl(w.epoll_fd.get(), EPOLL_CTL_MOD, conn.fd.get(), &ev) ==
      0) {
    conn.epollout = want_out;
  }
}

void FasterServer::HandleSlowlog(const RespCommand& cmd, std::string* out) {
  char sub[16];
  if (cmd.argv.size() < 2 || !UpperName(cmd.argv[1], sub, sizeof(sub))) {
    return;  // caller renders the error
  }
  obs::SlowLog& slowlog = obs::GlobalSlowLog();
  if (std::strcmp(sub, "LEN") == 0 && cmd.argv.size() == 2) {
    AppendInteger(out, static_cast<long long>(slowlog.Len()));
    return;
  }
  if (std::strcmp(sub, "RESET") == 0 && cmd.argv.size() == 2) {
    slowlog.Reset();
    AppendSimple(out, "OK");
    return;
  }
  if (std::strcmp(sub, "GET") == 0 && cmd.argv.size() <= 3) {
    uint64_t max_entries = 10;  // Redis's default count
    if (cmd.argv.size() == 3 && !ParseU64(cmd.argv[2], &max_entries)) {
      return;
    }
    std::vector<obs::SlowLog::Entry> entries = slowlog.Snapshot(max_entries);
    *out += '*';
    AppendU64(out, entries.size());
    *out += "\r\n";
    for (const obs::SlowLog::Entry& e : entries) {
      // Redis-style entry: id, unix timestamp, duration in microseconds,
      // then a details array (op, key hash, origin, stage breakdown).
      *out += "*4\r\n";
      AppendInteger(out, static_cast<long long>(e.id));
      AppendInteger(out, static_cast<long long>(e.wall_ns / 1000000000ull));
      AppendInteger(out, static_cast<long long>(e.total_ns / 1000));
      *out += '*';
      AppendU64(out, 3 + obs::kNumOpStages);
      *out += "\r\n";
      AppendBulk(out, std::string("op=") + obs::SlowOpKindName(e.kind));
      char key[32];
      std::snprintf(key, sizeof(key), "key=%016llx",
                    static_cast<unsigned long long>(e.key_hash));
      AppendBulk(out, key);
      std::string origin = e.pending ? "origin=pending" : "origin=sync";
      origin += " tid=";
      AppendU64(&origin, e.tid);
      AppendBulk(out, origin);
      for (uint32_t s = 0; s < obs::kNumOpStages; ++s) {
        std::string stage =
            std::string(obs::StageName(static_cast<obs::Stage>(s))) + "_us=";
        AppendU64(&stage, e.stage_ns[s] / 1000);
        AppendBulk(out, stage);
      }
    }
    return;
  }
}

void FasterServer::HandlePerf(const RespCommand& cmd, std::string* out) {
  char sub[16];
  if (cmd.argv.size() != 2 || !UpperName(cmd.argv[1], sub, sizeof(sub))) {
    return;  // caller renders the error
  }
  obs::PerfAttribution& perf = obs::GlobalPerf();
  if (std::strcmp(sub, "ENABLE") == 0) {
    perf.Arm(true);
    AppendSimple(out, "OK");
    return;
  }
  if (std::strcmp(sub, "DISABLE") == 0) {
    perf.Arm(false);
    AppendSimple(out, "OK");
    return;
  }
  if (std::strcmp(sub, "RESET") == 0) {
    perf.Reset();
    AppendSimple(out, "OK");
    return;
  }
  if (std::strcmp(sub, "GET") == 0) {
    // Header line, then one details line per stage that ran any scopes:
    // counters gated on the availability mask, so a no-PMU host reports
    // the software events it actually measured.
    obs::PerfAttribution::Snapshot s = perf.Take();
    std::vector<std::string> lines;
    {
      std::string hdr = "armed=";
      AppendU64(&hdr, s.armed ? 1 : 0);
      hdr += " mask=";
      AppendU64(&hdr, s.mask);
      hdr += " truncated=";
      AppendU64(&hdr, s.truncated);
      lines.push_back(std::move(hdr));
    }
    for (uint32_t st = 0; st < obs::kNumStages; ++st) {
      if (s.scopes[st] == 0) continue;
      std::string line = "stage=";
      line += obs::StageName(static_cast<obs::Stage>(st));
      line += " scopes=";
      AppendU64(&line, s.scopes[st]);
      for (uint32_t c = 0; c < obs::kNumPerfCounters; ++c) {
        if ((s.mask & (1u << c)) == 0) continue;
        line += ' ';
        line += obs::PerfCounterName(static_cast<obs::PerfCounterId>(c));
        line += '=';
        AppendU64(&line, s.counts[st][c]);
      }
      lines.push_back(std::move(line));
    }
    *out += '*';
    AppendU64(out, lines.size());
    *out += "\r\n";
    for (const std::string& line : lines) AppendBulk(out, line);
    return;
  }
}

std::string FasterServer::InfoText() {
  std::string out;
  auto field = [&out](const char* name, auto value) {
    out += name;
    out += ':';
    if constexpr (std::is_integral_v<decltype(value)>) {
      AppendU64(&out, static_cast<uint64_t>(value));
    } else {
      out += value;
    }
    out += "\r\n";
  };
  out += "# Server\r\n";
  field("server", "faster");
  field("build_git_sha", obs::GitSha());
  field("build_flags", obs::BuildFlagsSummary());
  field("tcp_port", port_);
  field("io_threads", workers_.size());
  out += "# Clients\r\n";
  field("connected_clients",
        std::max<int64_t>(0, stats_.connections_open.Value()));
  out += "# Stats\r\n";
  field("total_commands_processed", commands_.load(std::memory_order_relaxed));
  // # Log and # Epoch render from the store's view, exactly as /debug/log
  // and /debug/epochs do. The region markers are read in ascending order,
  // so the reported values preserve head <= read_only <= tail.
  const obs::StoreView view = store_->view();
  HybridLog::RegionSnapshot regions = view.hlog->SnapshotRegions();
  out += "# Log\r\n";
  field("log_begin_address", regions.begin.control());
  field("log_head_address", regions.head.control());
  field("log_safe_read_only_address", regions.safe_read_only.control());
  field("log_read_only_address", regions.read_only.control());
  field("log_tail_address", regions.tail.control());
  field("log_in_memory_bytes",
        regions.tail.control() - regions.head.control());
  out += "# Index\r\n";
  uint64_t index_buckets = store_->index().size();
  field("index_table_size", index_buckets);
  // # Memory: what the log and index reserve (mapped on demand) next to
  // what the process actually holds, like Redis's used_memory_rss.
  out += "# Memory\r\n";
  field("log_budget_bytes", store_->hlog().buffer_pages() * Address::kPageSize);
  field("index_bytes", index_buckets * sizeof(HashBucket));
  field("rss_bytes", RssBytes());
  // Whether the frames and the table took huge pages (DESIGN.md §5); 0
  // means the kernel refused or ignored the advice, which thp_enabled
  // explains.
  field("log_huge",
        store_->hlog().frame_region().granule() == MemoryRegion::kHugePage);
  field("index_huge",
        store_->index().table_granule() == MemoryRegion::kHugePage);
  field("thp_enabled", ThpEnabledMode());
  field("anon_huge_bytes", AnonHugeBytes());
  obs::EpochsSnapshot epochs = obs::SnapshotEpochs(view);
  out += "# Epoch\r\n";
  field("epoch_current", epochs.current);
  field("epoch_safe", epochs.safe);
  field("epoch_protected_threads", epochs.threads.size());
  out += "# Slowlog\r\n";
  const obs::SlowLog& slowlog = obs::GlobalSlowLog();
  field("slowlog_enabled", slowlog.armed());
  if (slowlog.armed()) {
    field("slowlog_threshold_us", slowlog.threshold_ns() / 1000);
  }
  field("slowlog_len", slowlog.Len());
  field("slowlog_total_recorded", slowlog.TotalRecorded());
  field("slowlog_dropped", slowlog.Dropped());
  out += "# Perf\r\n";
  const obs::PerfAttribution& perf = obs::GlobalPerf();
  field("perf_enabled", perf.armed());
  field("perf_counter_mask", perf.available_mask());
  return out;
}

std::string FasterServer::DebugConnectionsJson() const {
  std::string out = "{\"connections\":[";
  uint64_t now = obs::NowNs();
  uint32_t listed = 0;
  for (uint32_t i = 0; i < kMaxConnSlots; ++i) {
    const ConnSlot& slot = conn_slots_[i];
    if (!slot.used.load(std::memory_order_acquire)) continue;
    uint64_t accept_ns = slot.accept_ns.load(std::memory_order_relaxed);
    out += "{\"fd\":" +
           std::to_string(slot.fd.load(std::memory_order_relaxed)) + ',';
    obs::JsonField(&out, "worker",
                   slot.worker.load(std::memory_order_relaxed));
    obs::JsonField(&out, "age_ms",
                   now > accept_ns ? (now - accept_ns) / 1000000 : 0);
    obs::JsonField(&out, "bytes_in",
                   slot.bytes_in.load(std::memory_order_relaxed));
    obs::JsonField(&out, "bytes_out",
                   slot.bytes_out.load(std::memory_order_relaxed));
    obs::JsonField(&out, "commands",
                   slot.commands.load(std::memory_order_relaxed));
    obs::JsonClose(&out, "},");
    ++listed;
  }
  obs::JsonClose(&out, "],");
  obs::JsonField(&out, "open", listed);
  return obs::JsonClose(&out, "}\n");
}

void FasterServer::CollectStats(obs::Registry& reg) {
  reg.AddValue("net.commands", commands_.load(std::memory_order_relaxed));
  reg.Add("net.connections_accepted", &stats_.connections_accepted);
  reg.Add("net.connections_closed", &stats_.connections_closed);
  reg.Add("net.connections_open", &stats_.connections_open);
  reg.Add("net.cmd_get", &stats_.cmd_get);
  reg.Add("net.cmd_set", &stats_.cmd_set);
  reg.Add("net.cmd_incr", &stats_.cmd_incr);
  reg.Add("net.cmd_del", &stats_.cmd_del);
  reg.Add("net.cmd_other", &stats_.cmd_other);
  reg.Add("net.protocol_errors", &stats_.protocol_errors);
  reg.Add("net.turns", &stats_.turns);
  reg.Add("net.segment_splits", &stats_.segment_splits);
  reg.Add("net.bytes_read", &stats_.bytes_read);
  reg.Add("net.bytes_written", &stats_.bytes_written);
  reg.Add("net.pipeline_depth", &stats_.pipeline_depth);
  reg.Add("net.batch_fill", &stats_.batch_fill);
}

}  // namespace net
}  // namespace faster
