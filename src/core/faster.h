#ifndef FASTER_CORE_FASTER_H_
#define FASTER_CORE_FASTER_H_

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "core/address.h"
#include "core/annotations.h"
#include "core/epoch.h"
#include "core/epoch_check.h"
#include "core/functions.h"
#include "core/hash_index.h"
#include "core/hybrid_log.h"
#include "core/key_hash.h"
#include "core/record.h"
#include "core/status.h"
#include "core/thread.h"
#include "device/device.h"
#include "obs/clock.h"
#include "obs/flight_recorder.h"
#include "obs/log.h"
#include "obs/stats.h"
#include "obs/trace.h"

namespace faster {

/// FasterKv: the FASTER concurrent key-value store (the paper's primary
/// contribution), combining the latch-free hash index (Sec. 3), the
/// HybridLog record allocator (Sec. 5-6), and the epoch protection
/// framework (Sec. 2.3) into a store supporting Read, Upsert (blind
/// update), RMW (read-modify-write), and Delete with data larger than
/// memory.
///
/// `F` is the user's Functions policy (see functions.h / Appendix E);
/// `Hasher` maps keys to 64-bit hashes.
///
/// Threading model (Sec. 2.5): each thread calls `StartSession()` before
/// issuing operations and `StopSession()` when done. Operations refresh
/// the thread's epoch automatically every `Config::refresh_interval` ops;
/// threads should call `CompletePending()` periodically to process
/// operations that returned `Status::kPending` (asynchronous storage reads
/// and fuzzy-region RMW retries, Sec. 6.2-6.3).
template <class F, class Hasher = DefaultKeyHasher<typename F::Key>>
class FasterKv {
 public:
  using Key = typename F::Key;
  using Value = typename F::Value;
  using Input = typename F::Input;
  using Output = typename F::Output;
  using RecordT = Record<Key, Value>;

  static constexpr bool kMergeable = IsMergeable<F>;

  /// Kinds of user operations, reported to the completion callback.
  enum class UserOp : uint8_t { kRead, kRmw };

  /// Appendix E: FASTER invokes CompletionCallback with the user-provided
  /// context associated with a pending operation, when completed. The
  /// callback runs on the issuing thread, inside CompletePending().
  using CompletionCallback = void (*)(UserOp op, Status result,
                                      void* user_context);

  struct Config {
    /// Number of hash buckets (rounded to a power of two). The paper sizes
    /// this at #keys/2 (each bucket holds 7 entries).
    uint64_t table_size = uint64_t{1} << 16;
    /// HybridLog sizing: in-memory buffer and mutable-region fraction.
    LogConfig log;
    /// If true, disable in-place updates entirely: every update appends to
    /// the tail (the Sec. 5 append-only strawman; used for Fig. 11).
    bool force_rcu = false;
    /// Refresh the epoch every this many operations (Sec. 2.5 uses 256).
    uint32_t refresh_interval = 256;
    /// Tag width in the hash index (1..15 bits; Sec. 7.2.2).
    uint32_t tag_bits = 15;
    /// Enable the read cache for read-hot records (Appendix D): a second
    /// HybridLog instance, never flushed, holding copies of records read
    /// from storage; index entries may point into it (high address bit).
    /// Not supported for mergeable (CRDT) stores.
    bool enable_read_cache = false;
    /// Sizing of the read-cache log (memory_size_bytes and the mutable /
    /// read-only split, which controls the cache's second-chance degree).
    LogConfig read_cache;
    /// Invoked when an operation that returned kPending completes
    /// (Appendix E's CompletionCallback). May be null.
    CompletionCallback completion_callback = nullptr;
  };

  /// `device` must outlive the store.
  FasterKv(const Config& config, IDevice* device)
      : config_{config},
        epoch_{},
        index_{config.table_size, &epoch_, config.tag_bits},
        hlog_{config.log, device, &epoch_},
        thread_states_(Thread::kMaxThreads) {
    if (config_.enable_read_cache && !kMergeable) {
      LogConfig rc_cfg = config_.read_cache;
      rc_cfg.read_cache_mode = true;  // evict without flushing
      rc_log_ = std::make_unique<HybridLog>(rc_cfg, device, &epoch_);
      rc_log_->SetEvictionCallback(
          [this](Address from, Address to) { RcEvict(from, to); });
    }
  }

  ~FasterKv() {
    if (flight_attached_) obs::FlightRecorder::Instance().Detach(this);
    // Outstanding epoch trigger actions (page flush/close, safe-read-only
    // propagation) reference the log and index; run them before members
    // are destroyed. All sessions must have stopped by now.
    epoch_.Protect();
    epoch_.SpinWaitForSafety(epoch_.CurrentEpoch() - 1);
    epoch_.Unprotect();
    // Make sure no device callback can touch thread_states_ afterwards.
    hlog_.device()->Drain();
  }

  FasterKv(const FasterKv&) = delete;
  FasterKv& operator=(const FasterKv&) = delete;

  // -------------------------------------------------------------------
  // Sessions (Sec. 2.5).
  // -------------------------------------------------------------------

  /// Registers the calling thread with the epoch protection framework.
  void StartSession() FASTER_ACQUIRES_EPOCH() { epoch_.Protect(); }

  /// Completes outstanding work for this thread and deregisters it.
  void StopSession() FASTER_RELEASES_EPOCH() {
    CompletePending(/*wait=*/true);
    epoch_.Unprotect();
  }

  /// Moves the calling thread to the current epoch and runs ready trigger
  /// actions. Called automatically every `refresh_interval` operations.
  void Refresh() FASTER_REQUIRES_EPOCH() { epoch_.Refresh(); }

  /// RAII session bracket: StartSession() on construction, StopSession()
  /// (which drains this thread's pending work) on destruction. The
  /// scoped-capability annotation lets `clang++ -Wthread-safety` verify
  /// epoch bracketing through long-lived holders — e.g. the network
  /// server's worker threads, which hold one Session for their lifetime
  /// and serve every connection mapped to them under it (net/server.cc).
  class FASTER_SCOPED_EPOCH Session {
   public:
    explicit Session(FasterKv& store) FASTER_ACQUIRES_EPOCH() : store_{store} {
      store_.StartSession();
    }
    ~Session() FASTER_RELEASES_EPOCH() { store_.StopSession(); }

    Session(const Session&) = delete;
    Session& operator=(const Session&) = delete;

   private:
    FasterKv& store_;
  };

  // -------------------------------------------------------------------
  // Operations (Sec. 2.2; Algorithms 2-4).
  // -------------------------------------------------------------------

  /// Reads the value for `key` into `*output` (via F::SingleReader or
  /// F::ConcurrentReader depending on the record's region, Alg. 2).
  /// Returns kPending if the record lives on storage; `output` must then
  /// stay valid until the operation completes via CompletePending(),
  /// which reports `user_context` through the completion callback
  /// (Appendix E).
  Status Read(const Key& key, const Input& input, Output* output,
              void* user_context = nullptr) FASTER_REQUIRES_EPOCH() {
    return RunSingle(
        OpRef{OpKind::kRead, key, &input, nullptr, output, user_context});
  }

  /// Blind upsert (Alg. 3): replaces the value for `key`, in place if the
  /// newest record is in the mutable region, otherwise by appending a new
  /// record. Never performs storage reads. Always completes synchronously.
  Status Upsert(const Key& key, const Value& value) FASTER_REQUIRES_EPOCH() {
    return RunSingle(
        OpRef{OpKind::kUpsert, key, nullptr, &value, nullptr, nullptr});
  }

  /// Read-modify-write (Alg. 4): updates the value using F's updaters.
  /// May return kPending (storage read, or deferred retry when the record
  /// falls in the fuzzy region, Sec. 6.2-6.3); completion is reported via
  /// the completion callback with `user_context` (Appendix E).
  Status Rmw(const Key& key, const Input& input,
             void* user_context = nullptr) FASTER_REQUIRES_EPOCH() {
    return RunSingle(
        OpRef{OpKind::kRmw, key, &input, nullptr, nullptr, user_context});
  }

  /// Deletes `key` (Sec. 4 / Sec. 5.3): sets the tombstone bit in place in
  /// the mutable region, otherwise appends a tombstone record.
  Status Delete(const Key& key) FASTER_REQUIRES_EPOCH() {
    return RunSingle(
        OpRef{OpKind::kDelete, key, nullptr, nullptr, nullptr, nullptr});
  }

  // -------------------------------------------------------------------
  // Batched operations (software pipelining / group prefetching; see
  // DESIGN.md "Batched pipeline"). Each chunk of up to kBatchChunk ops is
  // processed in three stages: (1) hash every key and prefetch its hash
  // bucket, (2) resolve all index entries against one stable-table
  // snapshot and prefetch the head records, (3) Apply each op to its
  // resolution against the now-warm lines — the Apply single ops use. An
  // op that cannot use its resolution re-resolves like a single op, so
  // results are identical to executing the ops one at a time in order.
  // Storage reads found in stage 3 go to the device as one submission.
  // One epoch refresh check covers the whole chunk.
  // -------------------------------------------------------------------

  /// Largest number of ops processed per pipeline pass; bigger batches are
  /// split. 64 keeps the per-chunk stack state small while exceeding the
  /// memory-level parallelism of current cores.
  static constexpr size_t kBatchChunk = 64;

  /// One operation in a mixed batch. For reads, `output` must be non-null
  /// and (like the single-op API) stay valid until the op completes if its
  /// status comes back kPending.
  struct BatchOp {
    enum class Kind : uint8_t { kRead, kUpsert, kRmw };
    Kind kind = Kind::kRead;
    Key key{};
    Input input{};            // read input / RMW operand
    Value value{};            // upsert payload
    Output* output = nullptr; // reads only
    void* user_context = nullptr;
    Status status = Status::kOk;  // result, per op
  };

  /// Executes `count` mixed ops with the staged pipeline, filling each
  /// op's `status`. Results are identical to calling Read/Upsert/Rmw
  /// sequentially on the same thread in array order.
  void ExecuteBatch(BatchOp* ops, size_t count) FASTER_REQUIRES_EPOCH() {
    size_t done = 0;
    while (done < count) {
      size_t n = std::min(count - done, kBatchChunk);
      ExecuteChunk(ops + done, n);
      done += n;
    }
  }

  /// Batched reads: outputs[i] receives the value for keys[i] and
  /// statuses[i] the per-op result (kPending completes via
  /// CompletePending, reporting user_contexts[i] if provided).
  void ReadBatch(const Key* keys, const Input* inputs, Output* outputs,
                 Status* statuses, size_t count,
                 void* const* user_contexts = nullptr)
      FASTER_REQUIRES_EPOCH() {
    ExecuteTyped(statuses, count, [&](BatchOp& op, size_t i) {
      op.kind = BatchOp::Kind::kRead;
      op.key = keys[i];
      op.input = inputs[i];
      op.output = &outputs[i];
      if (user_contexts != nullptr) op.user_context = user_contexts[i];
    });
  }

  /// Batched blind upserts; always complete synchronously.
  void UpsertBatch(const Key* keys, const Value* values, Status* statuses,
                   size_t count) FASTER_REQUIRES_EPOCH() {
    ExecuteTyped(statuses, count, [&](BatchOp& op, size_t i) {
      op.kind = BatchOp::Kind::kUpsert;
      op.key = keys[i];
      op.value = values[i];
    });
  }

  /// Batched RMWs; kPending statuses complete via CompletePending.
  void RmwBatch(const Key* keys, const Input* inputs, Status* statuses,
                size_t count, void* const* user_contexts = nullptr)
      FASTER_REQUIRES_EPOCH() {
    ExecuteTyped(statuses, count, [&](BatchOp& op, size_t i) {
      op.kind = BatchOp::Kind::kRmw;
      op.key = keys[i];
      op.input = inputs[i];
      if (user_contexts != nullptr) op.user_context = user_contexts[i];
    });
  }

  /// Processes this thread's pending work: storage-read completions and
  /// fuzzy-region RMW retries. If `wait`, blocks (refreshing the epoch)
  /// until everything this thread issued has completed. Returns true if
  /// nothing remains pending.
  bool CompletePending(bool wait = false) FASTER_REQUIRES_EPOCH() {
    assert(epoch_.IsProtected());
    ThreadState& ts = thread_states_[Thread::Id()];
    for (;;) {
      // Completion polling (DESIGN.md §13): on a polling device this
      // executes and reaps this thread's queued I/O right here — the
      // callbacks push into ts.completions with no cross-thread hop. On
      // thread-pool devices it returns 0 and completions arrive from the
      // pool as before.
      hlog_.device()->Poll();
      ProcessRetries(ts);
      ProcessCompletions(ts);
      bool done = ts.outstanding_ios == 0 && ts.retries.empty();
      if (done || !wait) return done;
      epoch_.Refresh();
      std::this_thread::yield();
    }
  }

  // -------------------------------------------------------------------
  // Checkpointing and recovery (Sec. 6.5).
  // -------------------------------------------------------------------

  /// Takes a fuzzy checkpoint into `dir` (created if needed): records the
  /// tail t1, snapshots the index without locks, records t2, then moves
  /// the read-only offset to the tail and waits for the flush. Requires an
  /// active session; other threads may keep operating (the checkpoint does
  /// not quiesce the store).
  Status Checkpoint(const std::string& dir) FASTER_REQUIRES_EPOCH() {
    assert(epoch_.IsProtected());
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    obs_stats_.checkpoints.Inc();
    trace_.Emit(obs::Ev::kCheckpointBegin);
    uint64_t t0 = 0;
    if constexpr (obs::kStatsEnabled) t0 = obs::NowNs();
    Address t1 = hlog_.tail_address();
    int fd = ::open((dir + "/index.dat").c_str(),
                    O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) {
      trace_.Emit(obs::Ev::kCheckpointEnd, 1);
      return Status::kIoError;
    }
    HashIndex::EntryTransform transform;
    if (rc_log_ != nullptr) {
      // Appendix D: persisted index entries must point at the primary log,
      // so cached addresses are swung back to the address they displaced.
      transform = [this](const std::atomic<uint64_t>& slot) -> uint64_t {
        // Runs inside WriteCheckpoint on the checkpointing thread, which
        // holds an active session (lambdas are analyzed in isolation).
        AssertEpochProtected(epoch_);
        for (;;) {
          HashBucketEntry e{slot.load(std::memory_order_acquire)};
          if (e.tentative()) return 0;
          Address a = e.address();
          if (!InReadCache(a)) return e.control();
          Address rc = StripRc(a);
          if (rc >= rc_log_->head_address()) {
            Address prev = RcRecordAt(rc)->info().previous_address();
            return HashBucketEntry{prev, e.tag(), false}.control();
          }
          // Eviction redirect in flight: drive the epoch and re-read.
          epoch_.Refresh();
          std::this_thread::yield();
        }
      };
    }
    Status s;
    {
      obs::StageScope stage{obs::Stage::kCkptIndex};
      s = index_.WriteCheckpoint(fd, transform);
    }
    ::close(fd);
    if constexpr (obs::kStatsEnabled) {
      obs_stats_.checkpoint_index_ns.Record(obs::NowNs() - t0);
    }
    if (s != Status::kOk) {
      trace_.Emit(obs::Ev::kCheckpointEnd, 1);
      return s;
    }
    Address t2 = hlog_.tail_address();
    // Flush the log through t2 (and beyond, to the current tail).
    if constexpr (obs::kStatsEnabled) t0 = obs::NowNs();
    {
      obs::StageScope stage{obs::Stage::kCkptFlush};
      hlog_.ShiftReadOnlyToTail(/*wait=*/true);
    }
    if constexpr (obs::kStatsEnabled) {
      obs_stats_.checkpoint_flush_ns.Record(obs::NowNs() - t0);
    }
    if (hlog_.io_error()) {
      trace_.Emit(obs::Ev::kCheckpointEnd, 1);
      return Status::kIoError;
    }
    CheckpointMetadata meta{kCheckpointMagic, t1.control(), t2.control(),
                            hlog_.begin_address().control(),
                            RecordT::size()};
    fd = ::open((dir + "/meta.dat").c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                0644);
    if (fd < 0) {
      trace_.Emit(obs::Ev::kCheckpointEnd, 1);
      return Status::kIoError;
    }
    bool ok = ::write(fd, &meta, sizeof(meta)) == sizeof(meta);
    ::close(fd);
    trace_.Emit(obs::Ev::kCheckpointEnd, ok ? 0 : 1);
    return ok ? Status::kOk : Status::kIoError;
  }

  /// Recovers a freshly constructed store from a checkpoint in `dir`. The
  /// device must contain the flushed log. Restores the fuzzy index, then
  /// repairs it by scanning log records in [t1, t2) in order (Sec. 6.5).
  /// Must be called before any session starts.
  Status Recover(const std::string& dir) FASTER_EXCLUDES_EPOCH() {
    CheckpointMetadata meta;
    int fd = ::open((dir + "/meta.dat").c_str(), O_RDONLY);
    if (fd < 0) return Status::kIoError;
    bool ok = ::read(fd, &meta, sizeof(meta)) == sizeof(meta);
    ::close(fd);
    if (!ok) return Status::kIoError;
    if (meta.magic != kCheckpointMagic || meta.record_size != RecordT::size()) {
      return Status::kCorruption;
    }
    fd = ::open((dir + "/index.dat").c_str(), O_RDONLY);
    if (fd < 0) return Status::kIoError;
    Status s = index_.ReadCheckpoint(fd);
    ::close(fd);
    if (s != Status::kOk) return s;

    Address t1{meta.t1}, t2{meta.t2}, begin{meta.begin};
    hlog_.RecoverTo(begin, t2);

    // Repair pass: every index update during the fuzzy snapshot interval
    // corresponds to a record in [t1, t2); replaying them in order leaves
    // each entry pointing at the newest record below t2 for its tag.
    Status scan_status = Status::kOk;
    epoch_.Protect();
    ScanDiskRange(t1, t2, [&](Address addr, const RecordT& rec) {
      // Bracketed by the Protect/Unprotect above; the lambda body is
      // analyzed in isolation, so re-establish the capability here.
      AssertEpochProtected(epoch_);
      if (rec.info().invalid()) return;
      KeyHash hash = Hasher{}(rec.key);
      typename HashIndex::OpScope scope{index_, hash};
      HashIndex::FindResult fr;
      index_.FindOrCreateEntry(scope, hash, &fr);
      while (fr.entry.address() < addr) {
        if (index_.TryUpdateEntry(&fr, addr)) break;
      }
    });
    epoch_.Unprotect();
    return scan_status;
  }

  // -------------------------------------------------------------------
  // Log management.
  // -------------------------------------------------------------------

  /// Expiration-based garbage collection (Appendix C): truncates the log
  /// below `new_begin`. Stale index entries are deleted lazily as
  /// operations encounter them.
  bool ShiftBeginAddress(Address new_begin) {
    return hlog_.ShiftBeginAddress(new_begin);
  }

  /// Doubles the hash index on-line (Appendix B). Requires an active
  /// session; all live sessions must keep issuing operations (or Refresh)
  /// for the grow to complete. Returns kOutOfMemory, with the index
  /// unchanged, if the doubled table cannot be mapped.
  Status GrowIndex() FASTER_REQUIRES_EPOCH() {
    assert(epoch_.IsProtected());
    if constexpr (obs::kStatsEnabled) {
      trace_.Emit(obs::Ev::kGrowBegin,
                  static_cast<uint32_t>(std::bit_width(index_.size()) - 1));
    }
    HashIndex::EntryRebase rebase;
    if (rc_log_ != nullptr) {
      // Grow points both children of a bucket at its chain, but RcEvict
      // redirects only the child the cached record's key hashes to; the
      // other would keep the evicted address. So migration swings cached
      // addresses back to the primary log, as checkpoints do (Appendix D).
      rebase = [this](uint64_t control) -> uint64_t {
        // Runs inside MigrateChunk, whose callers hold an active session.
        AssertEpochProtected(epoch_);
        HashBucketEntry e{control};
        if (!InReadCache(e.address())) return control;
        // The frame is intact even below the cache's head: RcEvict looks
        // the record's key up first, which migrates this chunk, before the
        // frame can be recycled.
        auto* rec = reinterpret_cast<RecordT*>(
            rc_log_->GetEvicted(StripRc(e.address())));
        return HashBucketEntry{rec->info().previous_address(), e.tag(), false}
            .control();
      };
    }
    Status s = index_.Grow(rebase);
    if constexpr (obs::kStatsEnabled) {
      trace_.Emit(obs::Ev::kGrowEnd,
                  static_cast<uint32_t>(std::bit_width(index_.size()) - 1));
    }
    return s;
  }

  /// Roll-to-tail log compaction (Appendix C): scans [begin, until),
  /// copies records that are still the newest version of their key to the
  /// tail, then truncates the log below `until`. Safe against concurrent
  /// operations (copies install via compare-and-swap and retry if the key
  /// is updated mid-copy). Records carrying the overwrite bit skip the
  /// liveness check entirely — the common case for hot-then-cold data.
  /// Requires an active session. Not supported for mergeable stores
  /// (deltas cannot be relocated independently).
  struct CompactionStats {
    uint64_t scanned = 0;
    uint64_t dead_by_overwrite_bit = 0;
    uint64_t dead_by_trace = 0;
    uint64_t copied = 0;
  };
  Status CompactLog(Address until, CompactionStats* stats = nullptr)
      FASTER_REQUIRES_EPOCH() {
    assert(epoch_.IsProtected());
    static_assert(!kMergeable || sizeof(F) >= 0);
    if constexpr (kMergeable) {
      return Status::kInvalid;
    }
    CompactionStats local;
    Address begin = hlog_.begin_address();
    until = std::min(until, hlog_.safe_read_only_address());
    if (until <= begin) return Status::kOk;
    Status result = Status::kOk;
    // Each record is copied into a local buffer before processing: the
    // copy step below may refresh the epoch (page rollover), after which
    // pointers into log frames can dangle (frames recycle under us).
    alignas(8) uint8_t buf[sizeof(RecordT)];
    Address addr = begin;
    for (uint64_t step = 1; addr < until; ++step) {
      // Keep the epoch moving: a long pass would otherwise hold back every
      // epoch trigger (page evictions, flushes) until it ends.
      if (step % 1024 == 0) epoch_.Refresh();
      if (addr.offset() + RecordT::size() > Address::kPageSize) {
        addr = addr.NextPageStart();
        continue;
      }
      if (addr >= hlog_.head_address()) {
        std::memcpy(buf, RecordAt(addr), RecordT::size());
      } else if (hlog_.ReadFromDiskSync(addr, RecordT::size(), buf) !=
                 Status::kOk) {
        result = Status::kIoError;
        break;
      }
      const RecordT& rec = *reinterpret_cast<const RecordT*>(buf);
      RecordInfo info = rec.info();
      if (!info.in_use()) {
        addr = addr.NextPageStart();  // page padding
        continue;
      }
      ++local.scanned;
      if (!info.invalid() && !info.tombstone()) {
        if (info.overwritten()) {
          ++local.dead_by_overwrite_bit;
        } else if (CompactOneRecord(addr, rec)) {
          ++local.copied;
        } else {
          ++local.dead_by_trace;
        }
      }
      addr = addr + RecordT::size();
    }
    hlog_.ShiftBeginAddress(until);
    if (stats != nullptr) *stats = local;
    return result;
  }

  /// Scans log records in [from, to) in log order (Appendix F), invoking
  /// `fn(Address, const RecordT&)` for every in-use record, including
  /// invalid and tombstone records (callers filter via RecordInfo).
  /// Requires an active session.
  template <class Fn>
  void ScanLog(Address from, Address to, Fn&& fn) FASTER_REQUIRES_EPOCH() {
    assert(epoch_.IsProtected());
    Address begin = std::max(from, hlog_.begin_address());
    Address end = std::min(to, hlog_.tail_address());
    Address head = hlog_.head_address();
    if (begin < head) {
      ScanDiskRange(begin, std::min(end, head), fn);
    }
    // In-memory portion.
    Address addr = std::max(begin, head);
    while (addr < end) {
      if (addr.offset() + RecordT::size() > Address::kPageSize) {
        addr = addr.NextPageStart();
        continue;
      }
      const RecordT* rec = RecordAt(addr);
      if (!rec->info().in_use()) {
        // Zero header: page padding; skip to the next page.
        addr = addr.NextPageStart();
        continue;
      }
      fn(addr, *rec);
      addr = addr + RecordT::size();
    }
  }

  // -------------------------------------------------------------------
  // Introspection.
  // -------------------------------------------------------------------

  /// Aggregated operation statistics across all threads.
  struct Stats {
    uint64_t reads = 0, upserts = 0, rmws = 0, deletes = 0;
    uint64_t fuzzy_rmws = 0;       // RMWs deferred in the fuzzy region
    uint64_t pending_ios = 0;      // storage reads issued
    uint64_t completed_pending = 0;
    uint64_t appended_records = 0;
    uint64_t read_cache_hits = 0;  // reads served by the read cache
  };
  Stats GetStats() const {
    Stats s;
    for (const ThreadState& ts : thread_states_) {
      s.reads += ts.ops[static_cast<size_t>(OpKind::kRead)].get();
      s.upserts += ts.ops[static_cast<size_t>(OpKind::kUpsert)].get();
      s.rmws += ts.ops[static_cast<size_t>(OpKind::kRmw)].get();
      s.deletes += ts.ops[static_cast<size_t>(OpKind::kDelete)].get();
      s.fuzzy_rmws += ts.fuzzy_rmws.get();
      s.pending_ios += ts.ios_issued.get();
      s.completed_pending += ts.completed.get();
      s.appended_records += ts.appended_records.get();
      s.read_cache_hits += ts.rc_hits.get();
    }
    return s;
  }

  /// Observability (compiled out unless FASTER_STATS): per-region operation
  /// mix, pending-operation health, checkpoint durations, read cache.
  struct ObsStats {
    // Reads by the HybridLog region that served them (Sec. 6.1).
    obs::StatCounter read_mutable;
    obs::StatCounter read_fuzzy;
    obs::StatCounter read_readonly;  // in memory, below safe read-only
    obs::StatCounter read_stable;    // went to storage
    obs::StatCounter read_rc;        // served by the read cache
    obs::StatCounter read_miss;
    obs::StatCounter tag_false_positives;  // index tag hit, key absent
    // Updates by execution strategy (Table 2).
    obs::StatCounter upsert_inplace;
    obs::StatCounter upsert_append;
    obs::StatCounter rmw_inplace;
    obs::StatCounter rmw_copy;
    obs::StatCounter rmw_initial;
    obs::StatCounter rmw_delta;
    obs::StatCounter rmw_fuzzy_deferred;
    obs::StatCounter delete_inplace;
    obs::StatCounter delete_append;
    // Read cache (Appendix D).
    obs::StatCounter rc_inserts;
    obs::StatCounter rc_second_chance;
    obs::StatCounter rc_evictions;
    // Pending machinery (Sec. 5.3 / 6.2).
    obs::StatGauge pending_ios;        // storage reads in flight
    obs::StatGauge pending_retries;    // fuzzy RMWs awaiting retry
    obs::StatHistogram pending_io_ns;  // issue -> done, incl. chain hops
    // Checkpoints (Sec. 6.5).
    obs::StatCounter checkpoints;
    obs::StatHistogram checkpoint_index_ns;
    obs::StatHistogram checkpoint_flush_ns;
    // Batched pipeline (group prefetching). Prefetch-hit ratio =
    // batch_fast / (batch_fast + batch_fallback).
    obs::StatHistogram batch_sizes;    // ops per executed chunk
    obs::StatCounter batch_fast;       // ops applied to their stage-2 entry
    obs::StatCounter batch_fallback;   // ops that re-resolved instead
    obs::StatHistogram batch_io_group_size;  // reads per coalesced submit
  };
  const ObsStats& obs_stats() const { return obs_stats_; }

  /// Registers every metric the store and its components expose, plus the
  /// legacy GetStats() tallies as precomputed scalars.
  void CollectStats(obs::StatRegistry& reg) {
    Stats s = GetStats();
    reg.AddValue("store.reads", s.reads);
    reg.AddValue("store.upserts", s.upserts);
    reg.AddValue("store.rmws", s.rmws);
    reg.AddValue("store.deletes", s.deletes);
    reg.AddValue("store.fuzzy_rmws", s.fuzzy_rmws);
    reg.AddValue("store.ios_issued", s.pending_ios);
    reg.AddValue("store.completed_pending", s.completed_pending);
    reg.AddValue("store.appended_records", s.appended_records);
    reg.AddValue("store.read_cache_hits", s.read_cache_hits);
    reg.Add("store.read_mutable", &obs_stats_.read_mutable);
    reg.Add("store.read_fuzzy", &obs_stats_.read_fuzzy);
    reg.Add("store.read_readonly", &obs_stats_.read_readonly);
    reg.Add("store.read_stable", &obs_stats_.read_stable);
    reg.Add("store.read_rc", &obs_stats_.read_rc);
    reg.Add("store.read_miss", &obs_stats_.read_miss);
    reg.Add("store.tag_false_positives", &obs_stats_.tag_false_positives);
    reg.Add("store.upsert_inplace", &obs_stats_.upsert_inplace);
    reg.Add("store.upsert_append", &obs_stats_.upsert_append);
    reg.Add("store.rmw_inplace", &obs_stats_.rmw_inplace);
    reg.Add("store.rmw_copy", &obs_stats_.rmw_copy);
    reg.Add("store.rmw_initial", &obs_stats_.rmw_initial);
    reg.Add("store.rmw_delta", &obs_stats_.rmw_delta);
    reg.Add("store.rmw_fuzzy_deferred", &obs_stats_.rmw_fuzzy_deferred);
    reg.Add("store.delete_inplace", &obs_stats_.delete_inplace);
    reg.Add("store.delete_append", &obs_stats_.delete_append);
    reg.Add("store.rc_inserts", &obs_stats_.rc_inserts);
    reg.Add("store.rc_second_chance", &obs_stats_.rc_second_chance);
    reg.Add("store.rc_evictions", &obs_stats_.rc_evictions);
    reg.Add("store.pending_ios", &obs_stats_.pending_ios);
    reg.Add("store.pending_retries", &obs_stats_.pending_retries);
    reg.Add("store.pending_io_ns", &obs_stats_.pending_io_ns);
    reg.Add("store.checkpoints", &obs_stats_.checkpoints);
    reg.Add("store.checkpoint_index_ns", &obs_stats_.checkpoint_index_ns);
    reg.Add("store.checkpoint_flush_ns", &obs_stats_.checkpoint_flush_ns);
    reg.Add("store.batch_sizes", &obs_stats_.batch_sizes);
    reg.Add("store.batch_fast", &obs_stats_.batch_fast);
    reg.Add("store.batch_fallback", &obs_stats_.batch_fallback);
    reg.Add("store.batch_io_group_size", &obs_stats_.batch_io_group_size);
    index_.RegisterStats(reg, "index");
    hlog_.RegisterStats(reg, "hlog");
    epoch_.RegisterStats(reg, "epoch");
    hlog_.device()->RegisterStats(reg, "device");
    if (rc_log_ != nullptr) rc_log_->RegisterStats(reg, "rc_log");
  }

  /// Human-readable (or JSON) dump of every metric. With stats compiled
  /// out, returns a one-line notice (an empty JSON object).
  std::string DumpStats(bool json = false) {
    obs::StatRegistry reg;
    CollectStats(reg);
    return json ? reg.Json() : reg.Text();
  }

  /// Recent trace events, oldest first (empty when compiled out).
  std::vector<obs::TraceEvent> TraceEvents() const {
    return trace_.Snapshot();
  }

  /// Prometheus text exposition 0.0.4 of every metric (a one-line notice
  /// when stats are compiled out). The /metrics handler.
  std::string DumpPrometheus() {
    obs::StatRegistry reg;
    CollectStats(reg);
    return reg.Prometheus();
  }

  /// Writes recorded spans and trace events as Chrome trace-event JSON
  /// (loadable by Perfetto and chrome://tracing; see
  /// tools/trace2perfetto.py). An empty-but-valid trace when stats are
  /// compiled out.
  void DumpTrace(std::ostream& os) const {
    obs::WriteChromeTrace(os, obs::SnapshotSpans(), trace_.Snapshot());
  }

  // -------------------------------------------------------------------
  // Live /debug inspectors (DESIGN.md §12): cheap read-only JSON
  // snapshots of internal state, served by the exporter's /debug routes.
  // -------------------------------------------------------------------

  /// /debug/index: bucket-occupancy and hash-chain-length histograms from
  /// a bounded sample of the active table. Runs under epoch protection;
  /// chains are walked only through log frames pinned by that protection
  /// (clamped at the head observed after protecting — frame recycling is
  /// epoch-deferred, so those frames stay intact until this thread
  /// refreshes; GetEvicted reads them without the current-head assert,
  /// which may legitimately advance mid-walk). Reports {"resizing":true}
  /// without sampling while a grow is in flight.
  std::string DebugIndexJson(uint64_t max_buckets = 4096) {
    bool was_protected = epoch_.IsProtected();
    if (!was_protected) epoch_.Protect();
    AssertEpochProtected(epoch_);
    Address h0 = hlog_.head_address();
    Address rc_h0 = rc_log_ != nullptr ? rc_log_->head_address() : Address{0};
    constexpr uint32_t kMaxChainWalk = 32;
    constexpr uint32_t kOccBuckets = 16;  // live entries 0..14, then 15+
    constexpr uint32_t kLenBuckets = 17;  // chain length 0..15, then 16+
    uint64_t occupancy[kOccBuckets] = {};
    uint64_t chain_len[kLenBuckets] = {};
    uint64_t sampled_buckets = 0;
    uint64_t sampled_entries = 0;
    uint64_t overflow_buckets = 0;
    uint64_t chains_truncated = 0;
    bool ok = index_.SampleBuckets(
        max_buckets,
        [&](uint32_t live, uint32_t overflow) {
          ++sampled_buckets;
          overflow_buckets += overflow;
          ++occupancy[live < kOccBuckets ? live : kOccBuckets - 1];
        },
        [&](HashBucketEntry e) {
          AssertEpochProtected(epoch_);
          ++sampled_entries;
          uint32_t len = 0;
          bool truncated = false;
          Address addr = e.address();
          for (uint32_t hops = 0; hops < kMaxChainWalk; ++hops) {
            if (addr.control() == 0) break;  // end of chain
            if (InReadCache(addr)) {
              // Cache copies are not primary-chain records: hop through.
              Address rc = StripRc(addr);
              if (rc_log_ == nullptr || rc < rc_h0) {
                truncated = true;
                break;
              }
              const RecordT* rec =
                  reinterpret_cast<const RecordT*>(rc_log_->GetEvicted(rc));
              addr = rec->info().previous_address();
              continue;
            }
            if (addr < h0) {  // chain continues on disk
              truncated = true;
              break;
            }
            ++len;
            const RecordT* rec =
                reinterpret_cast<const RecordT*>(hlog_.GetEvicted(addr));
            addr = rec->info().previous_address();
          }
          if (addr.control() != 0 && !truncated) truncated = true;  // cap hit
          ++chain_len[len < kLenBuckets ? len : kLenBuckets - 1];
          if (truncated) ++chains_truncated;
        });
    uint64_t table_size = index_.size();
    uint32_t tag_bits = index_.tag_bits();
    if (!was_protected) epoch_.Unprotect();
    char buf[256];
    std::string out;
    if (!ok) {
      std::snprintf(buf, sizeof(buf),
                    "{\"resizing\":true,\"table_size\":%llu,\"tag_bits\":%u}\n",
                    static_cast<unsigned long long>(table_size), tag_bits);
      return buf;
    }
    std::snprintf(
        buf, sizeof(buf),
        "{\"resizing\":false,\"table_size\":%llu,\"tag_bits\":%u,"
        "\"sampled_buckets\":%llu,\"sampled_entries\":%llu,"
        "\"overflow_buckets\":%llu,\"chains_truncated\":%llu,"
        "\"max_chain_walk\":%u,",
        static_cast<unsigned long long>(table_size), tag_bits,
        static_cast<unsigned long long>(sampled_buckets),
        static_cast<unsigned long long>(sampled_entries),
        static_cast<unsigned long long>(overflow_buckets),
        static_cast<unsigned long long>(chains_truncated), kMaxChainWalk);
    out += buf;
    auto append_array = [&out, &buf](const char* name, const uint64_t* v,
                                     uint32_t n) {
      std::snprintf(buf, sizeof(buf), "\"%s\":[", name);
      out += buf;
      for (uint32_t i = 0; i < n; ++i) {
        std::snprintf(buf, sizeof(buf), "%s%llu", i == 0 ? "" : ",",
                      static_cast<unsigned long long>(v[i]));
        out += buf;
      }
      out += "]";
    };
    append_array("bucket_occupancy", occupancy, kOccBuckets);
    out += ",";
    append_array("chain_length", chain_len, kLenBuckets);
    out += "}\n";
    return out;
  }

  /// /debug/log: hybrid-log region addresses, page occupancy, and flush
  /// backlog. The snapshot's markers are loaded smallest-first, so
  /// begin <= head <= read_only <= tail holds within the reply even while
  /// the log advances underneath (see HybridLog::SnapshotRegions).
  std::string DebugLogJson() {
    std::string out = "{\"log\":";
    out += RegionJson(hlog_);
    if (rc_log_ != nullptr) {
      out += ",\"read_cache\":";
      out += RegionJson(*rc_log_);
    }
    out += "}\n";
    return out;
  }

  /// /debug/epochs: the shared epoch counters plus every protected
  /// thread's published local epoch and its lag behind the current epoch.
  /// Relaxed per-slot reads — a monitoring snapshot needs no ordering.
  std::string DebugEpochsJson() {
    uint64_t current = epoch_.CurrentEpoch();
    uint64_t safe = epoch_.SafeToReclaimEpoch();
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "{\"current_epoch\":%llu,\"safe_epoch\":%llu,"
                  "\"outstanding_actions\":%u,\"threads\":[",
                  static_cast<unsigned long long>(current),
                  static_cast<unsigned long long>(safe),
                  epoch_.NumOutstandingActions());
    std::string out = buf;
    uint32_t listed = 0;
    for (uint32_t tid = 0; tid < Thread::kMaxThreads; ++tid) {
      uint64_t local = epoch_.LocalEpochOf(tid);
      if (local == LightEpoch::kUnprotected) continue;
      uint64_t lag = current > local ? current - local : 0;
      std::snprintf(buf, sizeof(buf),
                    "%s{\"tid\":%u,\"local_epoch\":%llu,\"lag\":%llu}",
                    listed == 0 ? "" : ",", tid,
                    static_cast<unsigned long long>(local),
                    static_cast<unsigned long long>(lag));
      out += buf;
      ++listed;
    }
    std::snprintf(buf, sizeof(buf), "],\"protected_threads\":%u}\n", listed);
    out += buf;
    return out;
  }

  /// Registers this store's diagnostics (epoch table, event ring, metric
  /// pointers) and, once per process, the global span, log and slow-op
  /// rings with the process-wide crash flight recorder and arms it
  /// (fatal-signal handlers + the FASTER_EPOCH_CHECK hook). The destructor
  /// detaches. Metric names are copied at attach time; legacy kValue
  /// tallies are snapshot then and marked "(at attach)" in the dump.
  void AttachFlightRecorder() {
    obs::FlightRecorder& rec = obs::FlightRecorder::Instance();
    rec.Install();
    rec.AttachEpoch(this, &epoch_);
    rec.AttachEventRing(this, "store", &trace_);
    if constexpr (obs::kStatsEnabled) rec.AttachProcessRings();
    obs::StatRegistry reg;
    CollectStats(reg);
    rec.AttachMetrics(this, reg);
    flight_attached_ = true;
  }

  HybridLog& hlog() { return hlog_; }
  HashIndex& index() { return index_; }
  LightEpoch& epoch() { return epoch_; }
  const Config& config() const { return config_; }

 private:
  /// JSON object for one log's region markers (DebugLogJson).
  static std::string RegionJson(HybridLog& log) {
    HybridLog::RegionSnapshot s = log.SnapshotRegions();
    uint64_t in_memory = s.tail.control() - s.head.control();
    uint64_t mut = s.tail.control() - s.read_only.control();
    uint64_t backlog = s.read_only.control() > s.flushed_until.control()
                           ? s.read_only.control() - s.flushed_until.control()
                           : 0;
    char buf[768];
    std::snprintf(
        buf, sizeof(buf),
        "{\"begin\":%llu,\"head\":%llu,\"safe_read_only\":%llu,"
        "\"flushed_until\":%llu,\"read_only\":%llu,\"tail\":%llu,"
        "\"head_page\":%llu,\"tail_page\":%llu,\"tail_page_offset\":%llu,"
        "\"page_size\":%llu,\"buffer_pages\":%llu,"
        "\"in_memory_bytes\":%llu,\"mutable_bytes\":%llu,"
        "\"flush_backlog_bytes\":%llu,\"io_error\":%s}",
        static_cast<unsigned long long>(s.begin.control()),
        static_cast<unsigned long long>(s.head.control()),
        static_cast<unsigned long long>(s.safe_read_only.control()),
        static_cast<unsigned long long>(s.flushed_until.control()),
        static_cast<unsigned long long>(s.read_only.control()),
        static_cast<unsigned long long>(s.tail.control()),
        static_cast<unsigned long long>(s.head.page()),
        static_cast<unsigned long long>(s.tail.page()),
        static_cast<unsigned long long>(s.tail.offset()),
        static_cast<unsigned long long>(Address::kPageSize),
        static_cast<unsigned long long>(log.buffer_pages()),
        static_cast<unsigned long long>(in_memory),
        static_cast<unsigned long long>(mut),
        static_cast<unsigned long long>(backlog),
        log.io_error() ? "true" : "false");
    return buf;
  }

  /// The store's op kinds (the slowlog's vocabulary); a BatchOp::Kind
  /// converts by value.
  using OpKind = obs::SlowOpKind;
  static_assert(static_cast<OpKind>(BatchOp::Kind::kRead) == OpKind::kRead &&
                static_cast<OpKind>(BatchOp::Kind::kUpsert) ==
                    OpKind::kUpsert &&
                static_cast<OpKind>(BatchOp::Kind::kRmw) == OpKind::kRmw);

  /// One op as Resolve and Apply see it. It refers to the caller's
  /// arguments (or BatchOp fields), so a single-op Upsert never copies its
  /// value.
  struct OpRef {
    OpKind kind;
    const Key& key;
    const Input* input;  // reads and RMWs
    const Value* value;  // upserts
    Output* output;      // reads
    void* user_context;  // reads and RMWs
    obs::StatOpClock* clock = nullptr;  // set by the op's entry
  };

  enum class DiskState : uint8_t { kNone, kValue, kAbsent };

  /// Context carried by an operation that went pending (Sec. 5.3): enough
  /// to resume after the asynchronous storage read (or fuzzy retry).
  struct PendingContext {
    // `o` by value: a reference escaping into this (out-of-line)
    // constructor would keep the compiler from folding the op kind.
    PendingContext(FasterKv* s, OpRef o, KeyHash h)
        : store{s}, op{o.kind}, key{o.key}, hash{h}, input{*o.input},
          output{o.output}, user_context{o.user_context},
          owner{Thread::Id()}, clock{*o.clock} {}

    FasterKv* store;
    OpKind op;
    Key key;
    KeyHash hash;
    Input input;
    Output* output;
    void* user_context;
    uint32_t owner;
    Address address = Address::Invalid();     // record being read
    Address chain_bottom = Address::Invalid();  // first disk address of chain
    Status io_status = Status::kOk;
    // The op's clock, moved in as it went asynchronous: continuations on
    // any thread mark it and resume its trace (empty without stats).
    [[no_unique_address]] obs::StatOpClock clock;
    // CRDT read reconciliation state (Sec. 6.3).
    Value merge_acc{};
    bool merge_found = false;
    alignas(8) uint8_t buffer[sizeof(RecordT)];

    const RecordT* record() const {
      return reinterpret_cast<const RecordT*>(buffer);
    }
  };

  /// Owner-thread tally: written only by the slot's tenant (plain
  /// load+store, never an RMW — same codegen as a bare uint64_t), but
  /// atomic so a concurrent GetStats()/DumpStats() reads it race-free.
  struct RelaxedTally {
    // order: relaxed load+store by the owner thread, relaxed load in
    // GetStats — a per-thread counter; no data is published through it.
    std::atomic<uint64_t> v{0};
    RelaxedTally& operator++() {
      v.store(v.load(std::memory_order_relaxed) + 1,
              std::memory_order_relaxed);
      return *this;
    }
    uint64_t get() const { return v.load(std::memory_order_relaxed); }
  };

  struct alignas(64) ThreadState {
    // Completion queue, filled by device I/O threads.
    std::mutex mutex;
    std::vector<PendingContext*> completions;
    // Fuzzy-region RMW retries (owner thread only).
    std::vector<PendingContext*> retries;
    uint64_t outstanding_ios = 0;
    uint32_t ops_since_refresh = 0;
    // Statistics.
    RelaxedTally ops[4];  // by OpKind
    RelaxedTally fuzzy_rmws, ios_issued, completed;
    RelaxedTally appended_records;
    RelaxedTally rc_hits;
  };

  RecordT* RecordAt(Address addr) const FASTER_REQUIRES_EPOCH() {
    return reinterpret_cast<RecordT*>(hlog_.Get(addr));
  }

  // -------------------------------------------------------------------
  // Read cache (Appendix D). Cached records live in a second HybridLog;
  // index entries pointing into it carry the high address bit. A cache
  // record's `previous_address` preserves the primary-log chain head it
  // displaced.
  // -------------------------------------------------------------------

  static constexpr uint64_t kRcBit = uint64_t{1} << 47;
  static bool InReadCache(Address a) { return (a.control() & kRcBit) != 0; }
  static Address StripRc(Address a) { return Address{a.control() & ~kRcBit}; }
  static Address TagRc(Address a) { return Address{a.control() | kRcBit}; }

  RecordT* RcRecordAt(Address addr) const FASTER_REQUIRES_EPOCH() {
    return reinterpret_cast<RecordT*>(rc_log_->Get(addr));
  }

  /// Resolves an index entry to the primary-log chain start, surfacing the
  /// resident read-cache record if the entry points into the cache.
  /// Returns false if the cache page was evicted but the entry has not
  /// been redirected yet (caller refreshes and restarts).
  bool ResolveEntry(const HashIndex::FindResult& fr, Address* start,
                    RecordT** rc_rec) const FASTER_REQUIRES_EPOCH() {
    *rc_rec = nullptr;
    Address a = fr.entry.address();
    if (rc_log_ == nullptr || !InReadCache(a)) {
      *start = a;
      return true;
    }
    Address rc = StripRc(a);
    if (rc < rc_log_->head_address()) {
      return false;  // eviction redirect in flight
    }
    RecordT* rec = RcRecordAt(rc);
    *rc_rec = rec;
    *start = rec->info().previous_address();
    return true;
  }

  /// Allocates one record in the read cache; a single page-rollover retry,
  /// then gives up (cache insertion is best-effort).
  Address TryAllocateRcRecord() FASTER_REQUIRES_EPOCH() {
    for (int attempt = 0; attempt < 2; ++attempt) {
      uint64_t closed_page = 0;
      Address addr = rc_log_->Allocate(RecordT::size(), &closed_page);
      if (addr.IsValid()) return addr;
      if (!rc_log_->NewPage(closed_page)) {
        epoch_.Refresh();
        return Address::Invalid();
      }
    }
    return Address::Invalid();
  }

  /// Inserts a value read from storage into the read cache (best-effort).
  void TryInsertToCache(const Key& key, KeyHash hash, const Value& value)
      FASTER_REQUIRES_EPOCH() {
    typename HashIndex::OpScope scope{index_, hash};
    HashIndex::FindResult fr;
    if (!index_.FindEntry(scope, hash, &fr)) return;
    Address a = fr.entry.address();
    if (InReadCache(a)) return;            // someone cached it already
    if (!a.IsValid() || a >= hlog_.head_address()) return;  // newer in memory
    Address rc_addr = TryAllocateRcRecord();
    if (!rc_addr.IsValid()) return;
    RecordT* rec = RcRecordAt(rc_addr);
    rec->key = key;
    rec->value = value;
    rec->set_info(RecordInfo{a, false, false, false, /*read_cache=*/true});
    if (index_.TryUpdateEntry(&fr, TagRc(rc_addr))) {
      obs_stats_.rc_inserts.Inc();
    } else {
      rec->SetInvalid();
    }
  }

  /// Second chance (Appendix D): a cache hit in the cache's read-only
  /// region copies the record to the cache tail, exactly like the primary
  /// HybridLog's shaping behaviour.
  void RcSecondChance(const Key& key, RecordT* rc_rec,
                      const HashIndex::FindResult& fr)
      FASTER_REQUIRES_EPOCH() {
    // Skip a copy whose CAS is bound to fail: the entry already moved on
    // since `fr` was resolved (say, an earlier read of the key in the same
    // batch made the copy).
    if (fr.slot->load(std::memory_order_acquire) != fr.entry.control()) {
      return;
    }
    Address new_addr = TryAllocateRcRecord();
    if (!new_addr.IsValid()) return;
    RecordT* rec = RcRecordAt(new_addr);
    rec->key = key;
    rec->value = rc_rec->value;
    rec->set_info(RecordInfo{rc_rec->info().previous_address(), false, false,
                             false, /*read_cache=*/true});
    HashIndex::FindResult mutable_fr = fr;
    if (index_.TryUpdateEntry(&mutable_fr, TagRc(new_addr))) {
      obs_stats_.rc_second_chance.Inc();
    } else {
      rec->SetInvalid();
    }
  }

  /// Eviction redirect: runs under epoch safety when cache pages fall off
  /// the cache's head; swings index entries pointing at evicted cache
  /// records back to the primary-log addresses they displaced.
  void RcEvict(Address from, Address to) {
    // Invoked through the eviction std::function from an epoch trigger
    // action; the running thread is protected, but the analysis cannot see
    // through the type-erased callback, so re-establish the capability.
    AssertEpochProtected(epoch_);
    // The cache's first page starts with the log's reserved bytes, whose
    // zero header would read as padding and skip the page's records.
    Address addr = std::max(from, rc_log_->begin_address());
    while (addr < to) {
      if (addr.offset() + RecordT::size() > Address::kPageSize) {
        addr = addr.NextPageStart();
        continue;
      }
      // The addresses are already below the cache's head (the frames
      // survive until this trigger returns), which Get() would reject.
      auto* rec = reinterpret_cast<RecordT*>(rc_log_->GetEvicted(addr));
      if (!rec->info().in_use()) {
        addr = addr.NextPageStart();  // page padding
        continue;
      }
      if (!rec->info().invalid()) {
        KeyHash hash = Hasher{}(rec->key);
        typename HashIndex::OpScope scope{index_, hash};
        HashIndex::FindResult fr;
        if (index_.FindEntry(scope, hash, &fr) &&
            fr.entry.address() == TagRc(addr)) {
          if (index_.TryUpdateEntry(&fr, rec->info().previous_address())) {
            obs_stats_.rc_evictions.Inc();
          }
        }
      }
      addr = addr + RecordT::size();
    }
  }

  /// Counts `ops` toward the refresh interval, refreshing when it is due.
  ThreadState& AutoRefresh(uint32_t ops) FASTER_REQUIRES_EPOCH() {
    ThreadState& ts = thread_states_[Thread::Id()];
    ts.ops_since_refresh += ops;
    if (ts.ops_since_refresh >= config_.refresh_interval) {
      ts.ops_since_refresh = 0;
      epoch_.Refresh();
    }
    return ts;
  }

  /// Walks the in-memory record chain from `from` (>= `min_mem`) looking
  /// for `key`. On match sets `*rec` and returns the record's address; on
  /// miss returns the first address below `min_mem` (or invalid).
  Address TraceBack(const Key& key, Address from, Address min_mem,
                    RecordT** rec) const FASTER_REQUIRES_EPOCH() {
    Address addr = from;
    while (addr.IsValid() && addr >= min_mem) {
      RecordT* r = RecordAt(addr);
      if (r->key == key) {
        *rec = r;
        return addr;
      }
      addr = r->info().previous_address();
    }
    *rec = nullptr;
    return addr;
  }

  /// Synchronously finds the newest record address for `key` starting at
  /// `start`, following the chain through memory and storage (used by
  /// compaction's liveness check). Returns the invalid address if the key
  /// has no record at or above `begin`; sets `*tombstone` accordingly.
  Address TraceNewestSync(const Key& key, Address start, bool* tombstone)
      FASTER_REQUIRES_EPOCH() {
    Address begin = hlog_.begin_address();
    Address head = hlog_.head_address();
    Address addr = start;
    alignas(8) uint8_t buf[sizeof(RecordT)];
    while (addr.IsValid() && addr >= begin) {
      const RecordT* rec;
      if (addr >= head) {
        rec = RecordAt(addr);
      } else {
        if (hlog_.ReadFromDiskSync(addr, RecordT::size(), buf) !=
            Status::kOk) {
          break;
        }
        rec = reinterpret_cast<const RecordT*>(buf);
      }
      if (rec->key == key) {
        *tombstone = rec->info().tombstone();
        return addr;
      }
      addr = rec->info().previous_address();
    }
    *tombstone = false;
    return Address::Invalid();
  }

  /// Copies a (potentially live) record to the tail if it is still the
  /// newest version of its key; returns true if a copy was installed,
  /// false if the record turned out to be dead.
  bool CompactOneRecord(Address addr, const RecordT& rec)
      FASTER_REQUIRES_EPOCH() {
    KeyHash hash = Hasher{}(rec.key);
    for (;;) {
      typename HashIndex::OpScope scope{index_, hash};
      HashIndex::FindResult fr;
      if (!index_.FindEntry(scope, hash, &fr)) return false;
      Address start;
      RecordT* rc_rec = nullptr;
      if (!ResolveEntry(fr, &start, &rc_rec)) {
        epoch_.Refresh();
        continue;
      }
      (void)rc_rec;  // liveness is decided on the primary chain below
      bool tombstone = false;
      Address newest = TraceNewestSync(rec.key, start, &tombstone);
      if (newest != addr || tombstone) return false;  // dead (or deleted)
      Address new_addr = TryAllocateRecord();
      if (!new_addr.IsValid()) continue;  // epoch refreshed; re-verify
      RecordT* new_rec = RecordAt(new_addr);
      new_rec->key = rec.key;
      new_rec->value = rec.value;
      new_rec->set_info(RecordInfo{start, false, false});
      if (index_.TryUpdateEntry(&fr, new_addr)) return true;
      new_rec->SetInvalid();  // raced with an update; re-verify liveness
    }
  }

  /// One-shot allocation (Alg. 1 wrapper). Returns an invalid address if
  /// the epoch had to be refreshed (page rollover); the caller must
  /// restart its operation, since any record pointers it held may have
  /// been invalidated by the refresh.
  Address TryAllocateRecord() FASTER_REQUIRES_EPOCH() {
    uint64_t closed_page = 0;
    Address addr = hlog_.Allocate(RecordT::size(), &closed_page);
    if (addr.IsValid()) return addr;
    while (!hlog_.NewPage(closed_page)) {
      // Next frame not recyclable yet: drive the epoch (and flushes).
      epoch_.Refresh();
      std::this_thread::yield();
    }
    epoch_.Refresh();
    return Address::Invalid();
  }

  // -------------------------------------------------------------------
  // The op engine (Alg. 2-4, Tables 1-2). Every op is Resolve + Apply:
  // Resolve hashes the key and finds its index entry; Apply runs the
  // region dispatch on that entry. Single ops resolve under an OpScope
  // (Resolve below); batch stages 1-2 resolve a whole chunk at once and
  // stage 3 calls the same Apply. Apply returns false when the op must
  // re-resolve: a lost CAS, a page rollover, a read-cache eviction
  // redirect in flight, or — on a stage-2 resolution — a write to a key
  // with no index entry yet. Otherwise it sets `*status`. The engine is
  // forced inline, so each entry point compiles to straight-line code for
  // its op kind (out-of-line calls cost 5-20% per op on a cache-resident
  // store; EXPERIMENTS.md "One op engine").
  // -------------------------------------------------------------------

  /// What a batch chunk lends to Apply: stage 2's append extent and the
  /// storage reads to submit as one group. Only a stage-2 resolution gets
  /// it: one that predates the extent, so a record placed there lands
  /// above the version it supersedes (DESIGN.md §8 "Append extents").
  struct ChunkRes {
    Address extent = Address::Invalid();
    uint32_t extent_left = 0;
    PendingContext* ios[kBatchChunk];
    size_t num_ios = 0;
  };

  /// The single-op entry. The whole op is one execute segment (the batch
  /// pipeline attributes hash/resolve separately); nested scopes (io_queue
  /// at submit) pause this one, so counters never double-count.
  [[gnu::always_inline]]
  Status RunSingle(const OpRef& op) FASTER_REQUIRES_EPOCH() {
    ThreadState& ts = AutoRefresh(1);
    ++ts.ops[static_cast<size_t>(op.kind)];
    obs::StageScope entry{obs::Stage::kExecute, obs::SpanKindOf(op.kind)};
    KeyHash hash = Hasher{}(op.key);
    obs::StatOpClock clock{op.kind, hash.control()};
    Status status = Resolve(
        ts,
        OpRef{op.kind, op.key, op.input, op.value, op.output, op.user_context,
              &clock},
        hash);
    // A pending op took the clock with it.
    if (status != Status::kPending) clock.Finish();
    return status;
  }

  /// Resolve for single ops and for the batch ops stage 3 hands back:
  /// finds the key's index entry under an OpScope — creating it for
  /// upserts and RMWs — and applies the op, until Apply completes it.
  [[gnu::always_inline]]
  Status Resolve(ThreadState& ts, const OpRef& op, KeyHash hash)
      FASTER_REQUIRES_EPOCH() {
    for (;;) {
      typename HashIndex::OpScope scope{index_, hash};
      HashIndex::FindResult fr;
      bool has_entry = true;
      if (op.kind == OpKind::kUpsert || op.kind == OpKind::kRmw) {
        index_.FindOrCreateEntry(scope, hash, &fr);
      } else {
        has_entry = index_.FindEntry(scope, hash, &fr);
      }
      Status status = Status::kOk;
      if (Apply(ts, op, hash, has_entry, fr, nullptr, &status)) return status;
    }
  }

  [[gnu::always_inline]]
  bool Apply(ThreadState& ts, const OpRef& op, KeyHash hash, bool has_entry,
             HashIndex::FindResult& fr, ChunkRes* chunk, Status* status)
      FASTER_REQUIRES_EPOCH() {
    switch (op.kind) {
      case OpKind::kRead:
        return ApplyRead(ts, op, hash, has_entry, fr, chunk, status);
      case OpKind::kUpsert:
        return ApplyUpsert(ts, op, has_entry, fr, chunk, status);
      case OpKind::kRmw:
        return ApplyRmw(ts, op, hash, has_entry, fr, chunk, status);
      case OpKind::kDelete:
        return ApplyDelete(ts, op, has_entry, fr, status);
    }
    return false;  // unreachable
  }

  /// Read (Alg. 2): a read-cache hit, else the newest in-memory record
  /// through the reader its region allows, else a storage read.
  [[gnu::always_inline]]
  bool ApplyRead(ThreadState& ts, const OpRef& op, KeyHash hash,
                 bool has_entry, HashIndex::FindResult& fr, ChunkRes* chunk,
                 Status* status) FASTER_REQUIRES_EPOCH() {
    *status = Status::kNotFound;
    if (!has_entry) {
      obs_stats_.read_miss.Inc();
      return true;
    }
    Address addr;
    RecordT* rc_rec = nullptr;
    if (!ResolveEntry(fr, &addr, &rc_rec)) {
      // The cache page was evicted but the entry is not yet redirected;
      // drive the epoch and retry (Appendix D).
      epoch_.Refresh();
      return false;
    }
    if (rc_rec != nullptr && rc_rec->key == op.key) {
      // Read-cache hit. A hit in the cache's read-only region earns the
      // record a second chance at the cache tail (Appendix D); read first,
      // since the copy may refresh the epoch.
      F::SingleReader(op.key, *op.input, rc_rec->value, *op.output);
      if (StripRc(fr.entry.address()) < rc_log_->read_only_address()) {
        RcSecondChance(op.key, rc_rec, fr);
      }
      ++ts.rc_hits;
      obs_stats_.read_rc.Inc();
      *status = Status::kOk;
      return true;
    }
    Address begin = hlog_.begin_address();
    if (!addr.IsValid() || addr < begin) {
      if (rc_rec == nullptr) {
        // Stale entry left behind by log truncation (Appendix C).
        index_.TryDeleteEntry(&fr);
      }
      obs_stats_.read_miss.Inc();
      return true;
    }
    if constexpr (kMergeable) {
      *status = MergeableRead(ts, op, hash, addr, chunk);
      return true;
    }
    Address head = hlog_.head_address();
    RecordT* rec = nullptr;
    addr = TraceBack(op.key, addr, std::max(head, begin), &rec);
    if (rec != nullptr) {
      if (rec->info().tombstone()) {
        obs_stats_.read_miss.Inc();
        return true;
      }
      if (addr < hlog_.safe_read_only_address()) {
        obs_stats_.read_readonly.Inc();
        F::SingleReader(op.key, *op.input, rec->value, *op.output);
      } else {
        if constexpr (obs::kStatsEnabled) {
          // Classification only; avoid the extra load when compiled out.
          if (addr >= hlog_.read_only_address()) {
            obs_stats_.read_mutable.Inc();
          } else {
            obs_stats_.read_fuzzy.Inc();
          }
        }
        F::ConcurrentReader(op.key, *op.input, rec->value, *op.output);
      }
      *status = Status::kOk;
      return true;
    }
    if (!addr.IsValid() || addr < begin) {
      // The index tag matched but no record carried the key: a tag
      // false positive (Sec. 3.2) or a truncated chain.
      obs_stats_.tag_false_positives.Inc();
      obs_stats_.read_miss.Inc();
      return true;
    }
    // The chain continues on storage: go asynchronous (Sec. 5.3).
    obs_stats_.read_stable.Inc();
    *status =
        StartPendingIo(ts, new PendingContext(this, op, hash), addr, chunk);
    return true;
  }

  /// Blind upsert (Alg. 3): in place in the mutable region; every other
  /// region (read-only, fuzzy, on disk, absent, or behind a read-cache
  /// entry) appends a new record — blind updates need not read the old
  /// value (Table 2).
  [[gnu::always_inline]]
  bool ApplyUpsert(ThreadState& ts, const OpRef& op, bool has_entry,
                   HashIndex::FindResult& fr, ChunkRes* chunk,
                   Status* status) FASTER_REQUIRES_EPOCH() {
    if (!has_entry) return false;  // Resolve creates the entry
    Address addr;
    RecordT* rc_rec = nullptr;
    if (!ResolveEntry(fr, &addr, &rc_rec)) {
      epoch_.Refresh();
      return false;
    }
    *status = Status::kOk;
    Address begin = hlog_.begin_address();
    Address head = hlog_.head_address();
    RecordT* rec = nullptr;
    if (rc_rec == nullptr && addr.IsValid() && addr >= begin &&
        addr >= head) {
      Address found = TraceBack(op.key, addr, std::max(head, begin), &rec);
      if (rec != nullptr && !rec->info().tombstone() && !config_.force_rcu &&
          found >= hlog_.read_only_address()) {
        // Mutable region: in-place update (Table 1 row 4).
        hlog_.VerifyMutableAddress(found);
        F::ConcurrentWriter(op.key, *op.value, rec->value);
        obs_stats_.upsert_inplace.Inc();
        return true;
      }
    }
    // The new record's chain skips any cache record (its copy lives on
    // the primary log already).
    Address new_addr;
    if (chunk != nullptr && chunk->extent_left > 0) {
      new_addr = chunk->extent;
      chunk->extent = chunk->extent + RecordT::size();
      --chunk->extent_left;
    } else {
      new_addr = TryAllocateRecord();
      if (!new_addr.IsValid()) return false;  // epoch refreshed
    }
    RecordT* new_rec = RecordAt(new_addr);
    new_rec->key = op.key;
    F::SingleWriter(op.key, *op.value, new_rec->value);
    new_rec->set_info(RecordInfo{addr, false, false});
    if (index_.TryUpdateEntry(&fr, new_addr)) {
      ++ts.appended_records;
      obs_stats_.upsert_append.Inc();
      // Appendix C: flag the superseded in-memory version for GC.
      if (rec != nullptr) rec->SetOverwritten();
      return true;
    }
    new_rec->SetInvalid();  // Lost the CAS; record is garbage.
    return false;
  }

  /// RMW (Alg. 4) as a fresh op: the region dispatch, then a storage read
  /// or a fuzzy-region deferral for the outcomes that go pending.
  [[gnu::always_inline]]
  bool ApplyRmw(ThreadState& ts, const OpRef& op, KeyHash hash,
                bool has_entry, HashIndex::FindResult& fr, ChunkRes* chunk,
                Status* status) FASTER_REQUIRES_EPOCH() {
    RmwOutcome oc;
    if (!has_entry || !DispatchRmw(ts, op.key, *op.input, fr, DiskState::kNone,
                                   nullptr, Address::Invalid(), &oc)) {
      return false;
    }
    if (oc.kind == RmwOutcome::kDone) {
      *status = Status::kOk;
      return true;
    }
    auto* ctx = new PendingContext(this, op, hash);
    if (oc.kind == RmwOutcome::kIo) {
      *status = StartPendingIo(ts, ctx, oc.io_address, chunk);
      return true;
    }
    DeferFuzzyRmw(ts, ctx);
    *status = Status::kPending;
    return true;
  }

  /// Fuzzy region (Sec. 6.2): parks an RMW on the retry list, which
  /// CompletePending retries once the safe read-only offset catches up.
  /// The wait on the list is io_complete time.
  void DeferFuzzyRmw(ThreadState& ts, PendingContext* ctx) {
    ctx->clock.Mark(obs::Stage::kIoComplete);
    ++ts.fuzzy_rmws;
    obs_stats_.rmw_fuzzy_deferred.Inc();
    obs_stats_.pending_retries.Inc();
    trace_.Emit(obs::Ev::kFuzzyRmwDeferred, ctx->owner);
    ts.retries.push_back(ctx);
  }

  /// Delete: a tombstone in place in the mutable region, otherwise a
  /// tombstone record appended blind.
  [[gnu::always_inline]]
  bool ApplyDelete(ThreadState& ts, const OpRef& op, bool has_entry,
                   HashIndex::FindResult& fr, Status* status)
      FASTER_REQUIRES_EPOCH() {
    *status = Status::kNotFound;
    if (!has_entry) return true;
    Address addr;
    RecordT* rc_rec = nullptr;
    if (!ResolveEntry(fr, &addr, &rc_rec)) {
      epoch_.Refresh();
      return false;
    }
    Address begin = hlog_.begin_address();
    if (!addr.IsValid() || addr < begin) {
      if (rc_rec != nullptr) {
        // The cached key's only version was truncated away.
        index_.TryUpdateEntry(&fr, addr);
      } else {
        index_.TryDeleteEntry(&fr);
      }
      return true;
    }
    Address head = hlog_.head_address();
    RecordT* rec = nullptr;
    Address found = addr;  // a chain that starts on disk
    if (addr >= head) {
      found = TraceBack(op.key, addr, std::max(head, begin), &rec);
    }
    if (rec != nullptr) {
      if (rec->info().tombstone()) return true;
      if (!config_.force_rcu && found >= hlog_.read_only_address()) {
        hlog_.VerifyMutableAddress(found);
        rec->SetTombstone();
        obs_stats_.delete_inplace.Inc();
        *status = Status::kOk;
        return true;
      }
    } else if (!found.IsValid() || found < begin) {
      return true;  // key definitely absent in memory & log
    }
    // Read-only / fuzzy / on-disk: append a tombstone record (blind).
    Address new_addr = TryAllocateRecord();
    if (!new_addr.IsValid()) return false;
    RecordT* new_rec = RecordAt(new_addr);
    new_rec->key = op.key;
    new_rec->value = Value{};
    new_rec->set_info(RecordInfo{addr, false, /*tombstone=*/true});
    if (index_.TryUpdateEntry(&fr, new_addr)) {
      ++ts.appended_records;
      obs_stats_.delete_append.Inc();
      if (rec != nullptr) rec->SetOverwritten();  // Appendix C
      *status = Status::kOk;
      return true;
    }
    new_rec->SetInvalid();
    return false;
  }

  struct RmwOutcome {
    enum Kind { kDone, kIo, kFuzzy } kind = kDone;
    Address io_address = Address::Invalid();
  };

  /// The RMW region dispatch (Alg. 4) on a resolved entry, shared by fresh
  /// ops and continuations. `disk_state`/`disk_value` carry the result of
  /// a completed storage read for chain bottom `disk_bottom`
  /// (continuation path); kNone on the initial attempt. Returns false if
  /// the op must re-resolve.
  [[gnu::always_inline]]
  bool DispatchRmw(ThreadState& ts, const Key& key, const Input& input,
                   HashIndex::FindResult& fr, DiskState disk_state,
                   const Value* disk_value, Address disk_bottom,
                   RmwOutcome* oc) FASTER_REQUIRES_EPOCH() {
    *oc = RmwOutcome{};
    Address addr;
    RecordT* rc_rec = nullptr;
    if (!ResolveEntry(fr, &addr, &rc_rec)) {
      epoch_.Refresh();
      return false;
    }
    if (rc_rec != nullptr && rc_rec->key == key) {
      // Read-cache hit (Appendix D): the cached copy is the newest
      // version, so RMW can copy-update from it without a storage read.
      return AppendRecord(ts, key, input, &fr, RecordKind::kCopy,
                          &rc_rec->value, addr);
    }
    Address begin = hlog_.begin_address();
    Address head = hlog_.head_address();
    RecordT* rec = nullptr;
    Address found = Address::Invalid();
    if (addr.IsValid() && addr >= begin) {
      if (addr >= head) {
        found = TraceBack(key, addr, std::max(head, begin), &rec);
      } else {
        found = addr;  // chain starts on disk
      }
    }
    if (rec != nullptr && !rec->info().tombstone()) {
      if (!config_.force_rcu && found >= hlog_.read_only_address()) {
        // Mutable region: in-place update (Table 2 bottom row).
        hlog_.VerifyMutableAddress(found);
        F::InPlaceUpdater(key, input, rec->value);
        obs_stats_.rmw_inplace.Inc();
        return true;
      }
      if (!config_.force_rcu && found >= hlog_.safe_read_only_address()) {
        // Fuzzy region (Sec. 6.2): an in-place update elsewhere could be
        // lost if we copied now. (In force_rcu mode no update is ever
        // in-place, so the lost-update anomaly cannot occur and RCU is
        // safe anywhere — the Sec. 5 append-only strawman.)
        if constexpr (kMergeable) {
          // CRDT (Sec. 6.3): append a delta record instead of waiting.
          return AppendRecord(ts, key, input, &fr, RecordKind::kDelta,
                              nullptr, addr);
        }
        oc->kind = RmwOutcome::kFuzzy;
        return true;
      }
      // Safe read-only region: read-copy-update to the tail.
      if (!AppendRecord(ts, key, input, &fr,
                        kMergeable ? RecordKind::kDelta : RecordKind::kCopy,
                        &rec->value, addr)) {
        return false;
      }
      if constexpr (!kMergeable) rec->SetOverwritten();  // Appendix C
      return true;
    }
    if (rec != nullptr) {
      // Newest record is a tombstone: treat the key as absent.
      return AppendRecord(ts, key, input, &fr, RecordKind::kInitial, nullptr,
                          addr);
    }
    if (found.IsValid() && found >= begin) {
      // Chain bottoms out on storage.
      if constexpr (kMergeable) {
        // CRDTs never read the old value: append a delta (Table 2).
        return AppendRecord(ts, key, input, &fr, RecordKind::kDelta, nullptr,
                            addr);
      }
      if (disk_state != DiskState::kNone && found == disk_bottom) {
        // Continuation: we already resolved this chain bottom.
        return disk_state == DiskState::kValue
                   ? AppendRecord(ts, key, input, &fr, RecordKind::kCopy,
                                  disk_value, addr)
                   : AppendRecord(ts, key, input, &fr, RecordKind::kInitial,
                                  nullptr, addr);
      }
      oc->kind = RmwOutcome::kIo;
      oc->io_address = found;
      return true;
    }
    // Key absent: create the initial record.
    return AppendRecord(ts, key, input, &fr, RecordKind::kInitial, nullptr,
                        addr);
  }

  /// RMW continuations (a completed storage read, a fuzzy-region retry)
  /// re-resolve like a single op and run the same dispatch.
  RmwOutcome RmwInMemory(ThreadState& ts, const Key& key, KeyHash hash,
                         const Input& input, DiskState disk_state,
                         const Value* disk_value, Address disk_bottom)
      FASTER_REQUIRES_EPOCH() {
    RmwOutcome oc;
    for (;;) {
      typename HashIndex::OpScope scope{index_, hash};
      HashIndex::FindResult fr;
      index_.FindOrCreateEntry(scope, hash, &fr);
      if (DispatchRmw(ts, key, input, fr, disk_state, disk_value,
                      disk_bottom, &oc)) {
        return oc;
      }
    }
  }

  enum class RecordKind : uint8_t { kInitial, kCopy, kDelta };

  /// Allocates and links a new RMW record at the tail, after `prev` (the
  /// primary-log chain start: a read-cache record is skipped). Returns
  /// false if the operation must restart (allocation refreshed the epoch,
  /// or the index CAS failed). `old_value` is required for kCopy.
  bool AppendRecord(ThreadState& ts, const Key& key, const Input& input,
                    HashIndex::FindResult* fr, RecordKind kind,
                    const Value* old_value, Address prev)
      FASTER_REQUIRES_EPOCH() {
    Address new_addr = TryAllocateRecord();
    if (!new_addr.IsValid()) return false;
    RecordT* new_rec = RecordAt(new_addr);
    new_rec->key = key;
    switch (kind) {
      case RecordKind::kInitial:
      case RecordKind::kDelta:
        new_rec->value = Value{};
        F::InitialUpdater(key, input, new_rec->value);
        break;
      case RecordKind::kCopy:
        F::CopyUpdater(key, input, *old_value, new_rec->value);
        break;
    }
    new_rec->set_info(
        RecordInfo{prev, false, false, kind == RecordKind::kDelta});
    if (index_.TryUpdateEntry(fr, new_addr)) {
      ++ts.appended_records;
      switch (kind) {
        case RecordKind::kInitial: obs_stats_.rmw_initial.Inc(); break;
        case RecordKind::kCopy: obs_stats_.rmw_copy.Inc(); break;
        case RecordKind::kDelta: obs_stats_.rmw_delta.Inc(); break;
      }
      return true;
    }
    new_rec->SetInvalid();
    return false;
  }

  // -------------------------------------------------------------------
  // Pending-operation machinery (Sec. 5.3).
  // -------------------------------------------------------------------

  /// Starts a fresh op's storage read (Sec. 5.3). In a batch chunk the
  /// submission is deferred so the chunk's reads reach the device as one
  /// group; the op's io_queue stage covers that wait too.
  Status StartPendingIo(ThreadState& ts, PendingContext* ctx, Address addr,
                        ChunkRes* chunk) {
    ctx->address = addr;
    ctx->chain_bottom = addr;
    ctx->clock.Mark(obs::Stage::kIoQueue);
    ++ts.outstanding_ios;
    ++ts.ios_issued;
    obs_stats_.pending_ios.Inc();
    trace_.Emit(obs::Ev::kPendingIoIssued, ctx->owner);
    if (chunk != nullptr) {
      chunk->ios[chunk->num_ios++] = ctx;
    } else {
      SubmitIo(ctx);
    }
    return Status::kPending;
  }

  /// Re-issues a follow-the-chain read for an already-pending context.
  void ReissueIo(PendingContext* ctx, Address addr) {
    ctx->address = addr;
    ThreadState& ts = thread_states_[ctx->owner];
    ++ts.ios_issued;
    ctx->clock.Mark(obs::Stage::kIoQueue);
    SubmitIo(ctx);
  }

  void SubmitIo(PendingContext* ctx) {
    // Submission work (and any inline execution a polling device runs
    // under it) is io_queue; device paths nest io_exec inside.
    obs::StageScope stage{obs::Stage::kIoQueue};
    hlog_.AsyncGetFromDisk(ctx->address, RecordT::size(), ctx->buffer,
                           &FasterKv::IoCallback, ctx);
  }

  // -------------------------------------------------------------------
  // Batched pipeline internals (see the public batch API above).
  // -------------------------------------------------------------------

  /// The typed batch wrappers: runs the `count` ops that `fill(op, i)`
  /// describes, a chunk at a time, and copies out their statuses.
  template <class Fill>
  void ExecuteTyped(Status* statuses, size_t count, Fill&& fill)
      FASTER_REQUIRES_EPOCH() {
    BatchOp ops[kBatchChunk];
    for (size_t done = 0; done < count; done += kBatchChunk) {
      size_t n = std::min(count - done, kBatchChunk);
      for (size_t i = 0; i < n; ++i) {
        ops[i] = BatchOp{};
        fill(ops[i], done + i);
      }
      ExecuteChunk(ops, n);
      for (size_t i = 0; i < n; ++i) statuses[done + i] = ops[i].status;
    }
  }

  /// The three-stage pipeline over one chunk of at most kBatchChunk ops.
  void ExecuteChunk(BatchOp* ops, size_t n) FASTER_REQUIRES_EPOCH() {
    if (n == 0) return;
    assert(n <= kBatchChunk);
    assert(epoch_.IsProtected());
    // One refresh check covers the chunk (amortized epoch bookkeeping).
    ThreadState& ts = AutoRefresh(static_cast<uint32_t>(n));
    obs_stats_.batch_sizes.Record(n);
    // The chunk is one trace: the three stages appear as child spans, and
    // any pending-I/O continuation lands under the same trace id.
    obs::StatSpan chunk_span{obs::SpanKind::kBatchChunk,
                             static_cast<uint32_t>(n)};
    // Stages 1 and 2 are chunk-level, so the chunk's clock shares their
    // cost evenly across its ops; stage 3 times each op on its own clock.
    obs::StatOpClock chunk_clock{obs::Stage::kHash};

    // ---- Stage 1: hash every key; prefetch its hash bucket. ----
    KeyHash hashes[kBatchChunk];
    bool dep[kBatchChunk] = {};
    {
      obs::StageScope stage{obs::Stage::kHash};
      for (size_t i = 0; i < n; ++i) {
        hashes[i] = Hasher{}(ops[i].key);
        index_.PrefetchBucket(hashes[i]);
      }
      // Intra-batch dependencies: an op must observe the effects of every
      // earlier write in the same chunk, but stage-2 resolutions are all
      // taken before any of the chunk executes. Conservatively (by hash, so
      // tag collisions are covered too) make any op that follows a write
      // with an equal hash re-resolve when its turn comes.
      size_t write_idx[kBatchChunk];
      size_t num_writes = 0;
      for (size_t i = 0; i < n; ++i) {
        for (size_t w = 0; w < num_writes; ++w) {
          if (hashes[write_idx[w]] == hashes[i]) {
            dep[i] = true;
            break;
          }
        }
        if (ops[i].kind != BatchOp::Kind::kRead) write_idx[num_writes++] = i;
      }
    }
    chunk_clock.Mark(obs::Stage::kResolve);

    // ---- Stage 2: resolve index entries; prefetch head records. ----
    // BatchScope pins the validity of everything resolved here: if this
    // thread refreshes its epoch mid-chunk (page rollover, a re-resolved
    // op), all remaining resolutions are discarded.
    LightEpoch::BatchScope batch_scope{epoch_};
    HashIndex::FindResult frs[kBatchChunk];
    bool entry_found[kBatchChunk];
    bool stable;
    ChunkRes chunk;
    {
      obs::StageScope stage{obs::Stage::kResolve};
      stable = index_.TryFindEntriesStable(hashes, dep, n, frs, entry_found);
      if (stable) {
        Address begin = hlog_.begin_address();
        Address head = hlog_.head_address();
        Address read_only = hlog_.read_only_address();
        uint32_t predicted_appends = 0;
        for (size_t i = 0; i < n; ++i) {
          if (dep[i] || !entry_found[i]) continue;
          Address a = frs[i].entry.address();
          bool in_cache = rc_log_ != nullptr && InReadCache(a);
          bool in_mem = !in_cache && a.IsValid() && a >= begin && a >= head;
          if (in_mem) {
            hlog_.Prefetch(a, static_cast<uint32_t>(RecordT::size()));
          } else if (in_cache && StripRc(a) >= rc_log_->head_address()) {
            rc_log_->Prefetch(StripRc(a),
                              static_cast<uint32_t>(RecordT::size()));
          }
          if (ops[i].kind == BatchOp::Kind::kUpsert &&
              !(in_mem && a >= read_only)) {
            // Likely an append (chain head immutable, on disk, invalid,
            // or a read-cache copy).
            ++predicted_appends;
          }
        }
        if (predicted_appends >= 2) {
          chunk.extent = hlog_.AllocateExtent(
              static_cast<uint32_t>(RecordT::size()), predicted_appends);
          if (chunk.extent.IsValid()) {
            chunk.extent_left = predicted_appends;
            // Give every reserved slot a dead header now: log scans treat
            // an all-zero slot as page padding and would skip the rest of
            // the page. A slot is made live only while this thread has not
            // refreshed (BatchScope), i.e. before any flush of this range
            // can have been issued, so the dead header is never persisted
            // for a slot that later becomes live.
            for (uint32_t s = 0; s < predicted_appends; ++s) {
              RecordAt(chunk.extent + s * RecordT::size())
                  ->set_info(
                      RecordInfo{Address::Invalid(), /*invalid=*/true, false});
            }
          }
        }
      }
    }
    chunk_clock.Mark(obs::Stage::kExecute);

    // ---- Stage 3: Apply each op to its stage-2 resolution. ----
    // Perf attribution is per-chunk, not per-op; pending submissions nest
    // io_queue.
    obs::StageScope exec_stage{obs::Stage::kExecute};
    for (size_t i = 0; i < n; ++i) {
      BatchOp& op = ops[i];
      auto kind = static_cast<OpKind>(op.kind);
      obs::StatOpClock clock = chunk_clock.ForOp(
          kind, hashes[i].control(), static_cast<uint32_t>(n));
      OpRef ref{kind,      op.key,          &op.input, &op.value,
                op.output, op.user_context, &clock};
      ++ts.ops[static_cast<size_t>(kind)];
      if (stable && !dep[i] && !batch_scope.interrupted() &&
          Apply(ts, ref, hashes[i], entry_found[i], frs[i], &chunk,
                &op.status)) {
        obs_stats_.batch_fast.Inc();
      } else {
        obs_stats_.batch_fallback.Inc();
        op.status = Resolve(ts, ref, hashes[i]);
      }
      // A pending op took the clock with it.
      if (op.status != Status::kPending) clock.Finish();
    }
    // Unused extent slots keep the dead headers written at reservation.

    // Coalesced submission of every disk read stage 3 discovered.
    size_t num_ios = chunk.num_ios;
    if (num_ios > 0) {
      IoReadRequest reqs[kBatchChunk];
      for (size_t i = 0; i < num_ios; ++i) {
        PendingContext* c = chunk.ios[i];
        reqs[i] = IoReadRequest{c->address.control(), c->buffer,
                                static_cast<uint32_t>(RecordT::size()),
                                &FasterKv::IoCallback, c};
      }
      obs_stats_.batch_io_group_size.Record(num_ios);
      uint32_t accepted = 0;
      obs::StageScope submit{obs::Stage::kIoQueue};
      Status s = hlog_.AsyncGetFromDiskBatch(
          reqs, static_cast<uint32_t>(num_ios), &accepted);
      if (s != Status::kOk) {
        // Rejected requests ([accepted, num_ios)) never reach the device
        // and never fire callbacks; fail them through the normal
        // completion machinery so each still completes exactly once.
        for (size_t k = accepted; k < num_ios; ++k) {
          IoCallback(chunk.ios[k], Status::kIoError, 0);
        }
      }
    }
  }

  static void IoCallback(void* context, Status result, uint32_t /*bytes*/) {
    auto* ctx = static_cast<PendingContext*>(context);
    ctx->io_status = result;
    // Everything from here to the owner processing the completion is
    // io_complete: the cross-thread hand-off wait.
    ctx->clock.MarkIoDone();
    ThreadState& ts = ctx->store->thread_states_[ctx->owner];
    std::lock_guard<std::mutex> lock{ts.mutex};
    ts.completions.push_back(ctx);
  }

  void FinishPending(ThreadState& ts, PendingContext* ctx, Status result) {
    ++ts.completed;
    --ts.outstanding_ios;
    obs_stats_.pending_ios.Dec();
    ctx->clock.Finish(&obs_stats_.pending_io_ns);
    trace_.Emit(obs::Ev::kPendingIoDone, ctx->owner);
    NotifyCompletion(ctx, result);
    delete ctx;
  }

  void NotifyCompletion(PendingContext* ctx, Status result) {
    if (config_.completion_callback != nullptr) {
      config_.completion_callback(
          ctx->op == OpKind::kRead ? UserOp::kRead : UserOp::kRmw, result,
          ctx->user_context);
    }
  }

  void ProcessCompletions(ThreadState& ts) FASTER_REQUIRES_EPOCH() {
    std::vector<PendingContext*> ready;
    {
      std::lock_guard<std::mutex> lock{ts.mutex};
      ready.swap(ts.completions);
    }
    if (ready.empty()) return;
    // Gated on non-empty so the CompletePending polling loop stays free
    // of counter reads between completions.
    obs::StageScope stage{obs::Stage::kIoComplete};
    for (PendingContext* ctx : ready) {
      // Re-establish the operation's trace around everything this
      // completion does synchronously (chain reissue, cache insert, RMW
      // continuation) — inactive when the operation was not sampled.
      obs::StatSpan span{obs::Stage::kIoComplete, ctx->clock.trace()};
      if (ctx->io_status != Status::kOk) {
        FinishPending(ts, ctx, Status::kIoError);
        continue;
      }
      const RecordT* rec = ctx->record();
      RecordInfo info = rec->info();
      Address begin = hlog_.begin_address();
      if (!info.in_use() || info.invalid()) {
        // Invalid record (lost CAS) or padding: follow the chain.
        Address prev = info.in_use() ? info.previous_address()
                                     : Address::Invalid();
        if (prev.IsValid() && prev >= begin) {
          ReissueIo(ctx, prev);
        } else {
          CompleteChainMiss(ts, ctx);
        }
        continue;
      }
      if (!(rec->key == ctx->key)) {
        Address prev = info.previous_address();
        if (prev.IsValid() && prev >= begin) {
          ReissueIo(ctx, prev);
        } else {
          CompleteChainMiss(ts, ctx);
        }
        continue;
      }
      // Key matched on storage.
      if (ctx->op == OpKind::kRead) {
        if constexpr (kMergeable) {
          CompleteMergeStep(ts, ctx, rec);
          continue;
        }
        if (info.tombstone()) {
          FinishPending(ts, ctx, Status::kNotFound);
        } else {
          F::SingleReader(ctx->key, ctx->input, rec->value, *ctx->output);
          if (rc_log_ != nullptr) {
            // Read-hot records earn a spot in the read cache (Appendix D).
            TryInsertToCache(ctx->key, ctx->hash, rec->value);
          }
          FinishPending(ts, ctx, Status::kOk);
        }
        continue;
      }
      // RMW continuation.
      DiskState state =
          info.tombstone() ? DiskState::kAbsent : DiskState::kValue;
      RmwContinue(ts, ctx, state, &rec->value);
    }
  }

  /// The disk chain ran out without finding the key.
  void CompleteChainMiss(ThreadState& ts, PendingContext* ctx)
      FASTER_REQUIRES_EPOCH() {
    if (ctx->op == OpKind::kRead) {
      if constexpr (kMergeable) {
        CompleteMergeFinal(ts, ctx);
        return;
      }
      FinishPending(ts, ctx, Status::kNotFound);
      return;
    }
    RmwContinue(ts, ctx, DiskState::kAbsent, nullptr);
  }

  void RmwContinue(ThreadState& ts, PendingContext* ctx, DiskState state,
                   const Value* disk_value) FASTER_REQUIRES_EPOCH() {
    RmwOutcome oc = RmwInMemory(ts, ctx->key, ctx->hash, ctx->input, state,
                                disk_value, ctx->chain_bottom);
    switch (oc.kind) {
      case RmwOutcome::kDone:
        FinishPending(ts, ctx, Status::kOk);
        return;
      case RmwOutcome::kIo:
        // The chain bottom changed while we were reading; chase it.
        ctx->chain_bottom = oc.io_address;
        ReissueIo(ctx, oc.io_address);
        return;
      case RmwOutcome::kFuzzy:
        // The record migrated into the fuzzy region; fall back to the
        // retry list (the context stops being an outstanding I/O).
        --ts.outstanding_ios;
        obs_stats_.pending_ios.Dec();
        ctx->chain_bottom = Address::Invalid();
        DeferFuzzyRmw(ts, ctx);
        return;
    }
  }

  void ProcessRetries(ThreadState& ts) FASTER_REQUIRES_EPOCH() {
    if (ts.retries.empty()) return;
    std::vector<PendingContext*> work;
    work.swap(ts.retries);
    for (PendingContext* ctx : work) {
      obs::StatSpan span{obs::SpanKind::kRetryFuzzy, ctx->clock.trace()};
      RmwOutcome oc = RmwInMemory(ts, ctx->key, ctx->hash, ctx->input,
                                  DiskState::kNone, nullptr,
                                  Address::Invalid());
      switch (oc.kind) {
        case RmwOutcome::kDone:
          ++ts.completed;
          obs_stats_.pending_retries.Dec();
          ctx->clock.Finish();  // bypasses FinishPending
          NotifyCompletion(ctx, Status::kOk);
          delete ctx;
          break;
        case RmwOutcome::kIo:
          ctx->chain_bottom = oc.io_address;
          ++ts.outstanding_ios;
          obs_stats_.pending_retries.Dec();
          obs_stats_.pending_ios.Inc();
          ReissueIo(ctx, oc.io_address);
          break;
        case RmwOutcome::kFuzzy:
          ts.retries.push_back(ctx);  // still fuzzy; try again later
          break;
      }
    }
  }

  // -------------------------------------------------------------------
  // Mergeable (CRDT) reads: reconcile all delta records (Sec. 6.3).
  // -------------------------------------------------------------------

  Status MergeableRead(ThreadState& ts, OpRef op, KeyHash hash, Address addr,
                       ChunkRes* chunk) FASTER_REQUIRES_EPOCH() {
    static_assert(!kMergeable || std::is_same_v<Value, Output>,
                  "mergeable stores require Output == Value");
    Value acc{};
    bool found = false;
    Address begin = hlog_.begin_address();
    Address head = hlog_.head_address();
    Address min_mem = std::max(head, begin);
    // Merge every matching in-memory record, newest to oldest.
    while (addr.IsValid() && addr >= min_mem) {
      RecordT* r = RecordAt(addr);
      if (r->key == op.key) {
        if (r->info().tombstone()) {
          // Older records are dead; finish with what we have.
          if (found) {
            *op.output = acc;
            return Status::kOk;
          }
          return Status::kNotFound;
        }
        F::Merge(acc, r->value);
        found = true;
      }
      addr = r->info().previous_address();
    }
    if (!addr.IsValid() || addr < begin) {
      if (!found) return Status::kNotFound;
      *op.output = acc;
      return Status::kOk;
    }
    // Continue reconciliation on storage.
    auto* ctx = new PendingContext(this, op, hash);
    ctx->merge_acc = acc;
    ctx->merge_found = found;
    return StartPendingIo(ts, ctx, addr, chunk);
  }

  void CompleteMergeStep(ThreadState& ts, PendingContext* ctx,
                         const RecordT* rec) FASTER_REQUIRES_EPOCH() {
    RecordInfo info = rec->info();
    if (info.tombstone()) {
      CompleteMergeFinal(ts, ctx);
      return;
    }
    F::Merge(ctx->merge_acc, rec->value);
    ctx->merge_found = true;
    Address prev = info.previous_address();
    if (prev.IsValid() && prev >= hlog_.begin_address()) {
      ReissueIo(ctx, prev);
      return;
    }
    CompleteMergeFinal(ts, ctx);
  }

  void CompleteMergeFinal(ThreadState& ts, PendingContext* ctx) {
    if constexpr (kMergeable) {
      if (ctx->merge_found) {
        *ctx->output = ctx->merge_acc;
        FinishPending(ts, ctx, Status::kOk);
        return;
      }
    }
    FinishPending(ts, ctx, Status::kNotFound);
  }

  // -------------------------------------------------------------------
  // Disk scanning (recovery repair pass and Appendix F log analytics).
  // -------------------------------------------------------------------

  template <class Fn>
  void ScanDiskRange(Address from, Address to, Fn&& fn) {
    std::vector<uint8_t> page(Address::kPageSize);
    Address addr = from;
    uint64_t loaded_page = UINT64_MAX;
    while (addr < to) {
      if (addr.offset() + RecordT::size() > Address::kPageSize) {
        addr = addr.NextPageStart();
        continue;
      }
      if (addr.page() != loaded_page) {
        if (hlog_.ReadFromDiskSync(addr.PageStart(), Address::kPageSize,
                                   page.data()) != Status::kOk) {
          return;
        }
        loaded_page = addr.page();
      }
      const auto* rec =
          reinterpret_cast<const RecordT*>(page.data() + addr.offset());
      if (!rec->info().in_use()) {
        addr = addr.NextPageStart();  // padding
        continue;
      }
      fn(addr, *rec);
      addr = addr + RecordT::size();
    }
  }

  struct CheckpointMetadata {
    uint64_t magic;
    uint64_t t1;
    uint64_t t2;
    uint64_t begin;
    uint32_t record_size;
  };
  static constexpr uint64_t kCheckpointMagic = 0xFA57C8EC4B01ULL;

  Config config_;
  LightEpoch epoch_;
  HashIndex index_;
  HybridLog hlog_;
  std::unique_ptr<HybridLog> rc_log_;  // read cache (Appendix D), optional
  std::vector<ThreadState> thread_states_;
  mutable ObsStats obs_stats_;
  mutable obs::StatEventRing trace_;
  bool flight_attached_ = false;
};

}  // namespace faster

#endif  // FASTER_CORE_FASTER_H_
