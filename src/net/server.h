#ifndef FASTER_NET_SERVER_H_
#define FASTER_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/faster.h"
#include "core/functions.h"
#include "device/memory_device.h"
#include "net/resp.h"
#include "net/socket.h"
#include "obs/stats.h"

/// FasterServer: a pipelined RESP2 front end for FasterKv (DESIGN.md §11).
///
/// The design target is the residual cost Lomet & Wang identify in
/// FASTER-style stores: per-operation cross-thread handoff. There is none
/// here — each worker thread owns an epoll loop, its own SO_REUSEPORT
/// listener (the kernel shards accepted connections across workers), one
/// long-lived FasterKv session, and every connection it accepted. A
/// connection's bytes are parsed, executed, and answered on one thread,
/// and pipelined commands arriving together are coalesced into
/// ExecuteBatch calls — GET, SET, INCR and every key of a DEL — so network
/// traffic naturally produces the batch depths where the
/// software-pipelined batch path wins.
///
/// Commands: GET, SET, DEL, INCR, PING, INFO, SLOWLOG GET|RESET|LEN (plus
/// QUIT and a COMMAND stub for redis-cli handshakes), in inline or
/// multibulk form. The store is the paper's count store (uint64
/// keys/values): decimal keys map to their value, other keys are FNV-1a
/// hashed (collisions possible), and SET values must be decimal uint64s.
///
/// Ordering contract: replies are rendered strictly in per-connection
/// command order, regardless of how commands were split across batch
/// segments or completed asynchronously (out-of-order-safe sequencing).
/// INCR replies are exact: the reply is the value the store's RMW updater
/// wrote (a fetch-and-add in place), not a later read. A turn's shared
/// batch is split whenever a later command touches a key already INCR'd
/// in the current segment, because an RMW that goes pending completes
/// after the later ops of its batch have run.

namespace faster {
namespace net {

struct ServerOptions {
  std::string bind_address = "127.0.0.1";
  /// Listen port; 0 picks an ephemeral port (see FasterServer::port()).
  uint16_t port = 6379;
  /// Worker threads (= epoll loops = SO_REUSEPORT listeners = sessions).
  uint32_t threads = 2;
  /// Most commands coalesced per connection per event-loop turn; further
  /// buffered commands carry over to the next turn (backpressure).
  size_t max_pipeline = 512;
  /// RESP parser limits (oversized frames close the connection).
  RespLimits limits;
  /// Store sizing (the server owns its FasterKv + in-memory device).
  uint64_t table_size = uint64_t{1} << 16;
  uint64_t log_memory_bytes = uint64_t{1} << 26;
  double mutable_fraction = 0.9;
  /// Arms the global slow-op log at construction: operations slower than
  /// this are recorded with per-stage breakdowns (SLOWLOG GET /
  /// /debug/slowlog). 0 leaves the slowlog disabled (its default).
  uint64_t slowlog_threshold_us = 0;
};

/// Server-side metrics, obs::-sharded like the store's own (compiled out
/// unless FASTER_STATS; see obs/stats.h).
struct NetStats {
  obs::StatCounter connections_accepted;
  obs::StatCounter connections_closed;
  obs::StatGauge connections_open;
  obs::StatCounter cmd_get, cmd_set, cmd_incr, cmd_del, cmd_other;
  obs::StatCounter protocol_errors;  // parse failures (connection closed)
  obs::StatCounter turns;            // event-loop turns that executed ops
  obs::StatCounter segment_splits;   // batch segments forced by an INCR
  obs::StatCounter bytes_read, bytes_written;
  obs::StatHistogram pipeline_depth; // commands per connection per turn
  obs::StatHistogram batch_fill;     // ops per ExecuteBatch segment
};

class FasterServer {
 public:
  using Store = FasterKv<CountStoreFunctions>;

  /// Binds `options.threads` SO_REUSEPORT listeners and starts the worker
  /// threads. Check ok(): bind failure disables the server (error() says
  /// why) instead of aborting the host.
  explicit FasterServer(const ServerOptions& options);

  /// Drains and joins (Shutdown()).
  ~FasterServer();

  FasterServer(const FasterServer&) = delete;
  FasterServer& operator=(const FasterServer&) = delete;

  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }
  /// The bound port (resolves an ephemeral request of 0).
  uint16_t port() const { return port_; }

  /// Clean drain: stop accepting, flush buffered replies, close
  /// connections, complete pending store work, end every worker's session
  /// (unprotecting its epoch slot), and join. Idempotent; also run by the
  /// destructor. Safe to call from a signal-handling thread.
  void Shutdown();

  /// The underlying store (e.g. for preloading before serving traffic).
  /// External callers must bracket access with Store::Session and must
  /// not issue operations that can go pending without routing the
  /// completion through their own context handling.
  Store& store() { return *store_; }

  NetStats& stats() { return stats_; }

  /// Registers server metrics (prefix "net.") into `reg`; callers
  /// typically combine with obs::CollectStats(store().view(), reg) for one
  /// exposition.
  void CollectStats(obs::StatRegistry& reg);

  /// Total commands executed (independent of FASTER_STATS, so tests can
  /// assert on it in any build).
  uint64_t commands_processed() const {
    return commands_.load(std::memory_order_relaxed);
  }

  /// /debug/connections body: one JSON object per live connection with
  /// its worker, age, byte counts, and command tally. Lock-free relaxed
  /// reads of the connection slot table; always available (the slot
  /// table is maintained in every build).
  std::string DebugConnectionsJson() const;

 private:
  /// Live per-connection counters for /debug/connections. Fixed slots
  /// claimed at accept and released at close so the exporter thread can
  /// scan without touching worker-owned Connection objects. Connections
  /// beyond the table run untracked (accept never blocks on this).
  struct ConnSlot {
    // order: release store claims/releases a slot (publishing the fields
    // set before the claim); acquire loads in the scan pair with it.
    std::atomic<bool> used{false};
    // order: relaxed; published by `used`, then monotone counters only.
    std::atomic<int> fd{-1};
    // order: relaxed; written before the `used` claim publishes the slot.
    std::atomic<uint32_t> worker{0};
    // order: relaxed; written before the `used` claim publishes the slot.
    std::atomic<uint64_t> accept_ns{0};   // obs::NowNs() at accept
    // order: relaxed; monotone counter, single-writer, torn-free reads.
    std::atomic<uint64_t> bytes_in{0};
    // order: relaxed; monotone counter, single-writer, torn-free reads.
    std::atomic<uint64_t> bytes_out{0};
    // order: relaxed; monotone counter, single-writer, torn-free reads.
    std::atomic<uint64_t> commands{0};
  };
  static constexpr uint32_t kMaxConnSlots = 256;
  struct CmdRec;
  struct SlotRec;
  struct Connection;
  struct Worker;

  void WorkerLoop(Worker& worker);
  void AcceptNew(Worker& worker);
  bool HandleReadable(Worker& worker, Connection& conn);
  void GatherCommands(Worker& worker, Connection& conn)
      FASTER_REQUIRES_EPOCH();
  void ClassifyCommand(Worker& worker, Connection& conn, RespCommand&& cmd)
      FASTER_REQUIRES_EPOCH();
  void MaybeSplitSegment(Worker& worker, uint64_t key)
      FASTER_REQUIRES_EPOCH();
  void ExecuteSegment(Worker& worker) FASTER_REQUIRES_EPOCH();
  void ProcessTurn(Worker& worker) FASTER_REQUIRES_EPOCH();
  void RenderAndFlush(Worker& worker);
  void RenderCommand(Worker& worker, const CmdRec& rec, std::string* out);
  void FlushConnection(Connection& conn);
  void CloseConnection(Worker& worker, int fd);
  void UpdateEpollOut(Worker& worker, Connection& conn, bool want_out);
  std::string InfoText();
  /// Renders the RESP reply for SLOWLOG GET|RESET|LEN into `rec.lit`.
  void HandleSlowlog(const RespCommand& cmd, std::string* out);
  /// Renders the RESP reply for PERF GET|ENABLE|DISABLE|RESET into `out`.
  void HandlePerf(const RespCommand& cmd, std::string* out);
  uint32_t ClaimConnSlot(int fd, uint32_t worker_index);
  void ReleaseConnSlot(uint32_t slot);

  /// Config::completion_callback target: writes the final status of a
  /// pending op into the Status slot its user_context points at. Runs on
  /// the issuing worker inside CompletePending, so no synchronization.
  static void PendingCompletion(Store::UserOp op, Status result,
                                void* user_context);

  ServerOptions options_;
  std::unique_ptr<MemoryDevice> device_;
  std::unique_ptr<Store> store_;
  std::vector<std::unique_ptr<Worker>> workers_;
  NetStats stats_;
  bool ok_ = false;
  std::string error_;
  uint16_t port_ = 0;
  // order: acq_rel CAS in Shutdown claims the drain exactly once; acquire
  // loads in the worker loops observe it and begin draining.
  std::atomic<bool> stopping_{false};
  // order: release store after workers are joined; acquire load in
  // Shutdown makes second callers wait-free and idempotent.
  std::atomic<bool> stopped_{false};
  // order: relaxed fetch_add/load — a monotone command tally for tests,
  // INFO and net.commands; no data is published through it.
  std::atomic<uint64_t> commands_{0};
  ConnSlot conn_slots_[kMaxConnSlots];
};

}  // namespace net
}  // namespace faster

#endif  // FASTER_NET_SERVER_H_
