#ifndef FASTER_CORE_FASTER_H_
#define FASTER_CORE_FASTER_H_

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cassert>
#include <cstring>
#include <filesystem>
#include <memory>
#include <new>
#include <string>
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
#include "core/wait.h"
#include "device/device.h"
#include "obs/clock.h"
#include "obs/stats.h"
#include "obs/store_view.h"

namespace faster {

/// FasterKv: the FASTER concurrent key-value store (the paper's primary
/// contribution), combining the latch-free hash index (Sec. 3), the
/// HybridLog record allocator (Sec. 5-6), and the epoch protection
/// framework (Sec. 2.3) into a store supporting Read, Upsert (blind
/// update), RMW (read-modify-write), and Delete with data larger than
/// memory.
///
/// `F` is the user's Functions policy (see functions.h / Appendix E); its
/// record layout (core/record.h) fixes how records are sized and keyed:
/// fixed-size by default, byte strings with ByteStringFunctions. `Hasher`
/// maps keys to 64-bit hashes.
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
  using Layout = LayoutOf<F>;
  using RecordT = typename Layout::RecordT;

  static constexpr bool kMergeable = IsMergeable<F>;
  /// Variable-length records: no RMW or read cache.
  static constexpr bool kVarLen = Layout::kFixedSize == 0;
  static constexpr bool kReadCache = !kMergeable && !kVarLen;
  static_assert(!(kMergeable && kVarLen),
                "mergeable stores need fixed-size records");

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
    /// Not supported for mergeable (CRDT) or variable-length stores.
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
    for (uint32_t i = 0; i < thread_states_.size(); ++i) {
      thread_states_[i].slot = i;
    }
    if (config_.enable_read_cache && kReadCache) {
      LogConfig rc_cfg = config_.read_cache;
      rc_cfg.read_cache_mode = true;  // evict without flushing
      rc_log_ = std::make_unique<HybridLog>(rc_cfg, device, &epoch_);
      rc_log_->SetEvictionCallback(
          [this](Address from, Address to) { RcEvict(from, to); });
    }
  }

  ~FasterKv() {
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

  /// Read-modify-write (Alg. 4): updates the value using F's updaters
  /// (dropping the value they report; a BatchOp keeps it). May return
  /// kPending (storage read, or deferred retry when the record falls in
  /// the fuzzy region, Sec. 6.2-6.3); completion is reported via the
  /// completion callback with `user_context` (Appendix E).
  Status Rmw(const Key& key, const Input& input,
             void* user_context = nullptr) FASTER_REQUIRES_EPOCH() {
    static_assert(!kVarLen, "variable-length stores have no RMW");
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
  // Batched operations (group prefetching; see DESIGN.md "Batched
  // pipeline"). Each chunk of up to kBatchChunk ops is processed in two
  // stages: (1) hash every key and prefetch its hash bucket, (2) run each
  // op in array order through the single-op engine (Resolve + Apply)
  // against the now-warm buckets, so results are identical to executing
  // the ops one at a time in order. One epoch refresh check covers the
  // whole chunk.
  // -------------------------------------------------------------------

  /// Largest number of ops processed per pipeline pass; bigger batches are
  /// split. 64 keeps the per-chunk stack state small while exceeding the
  /// memory-level parallelism of current cores.
  static constexpr size_t kBatchChunk = 64;

  /// One operation in a mixed batch. `output` receives a read's value or
  /// the value an RMW wrote (not a mergeable store's); it must be non-null
  /// for reads and (like the single-op API) stay valid until the op
  /// completes if its status comes back kPending.
  struct BatchOp {
    enum class Kind : uint8_t { kRead, kUpsert, kRmw, kDelete };
    Kind kind = Kind::kRead;
    Key key{};
    Input input{};            // read input / RMW operand
    Value value{};            // upsert payload
    Output* output = nullptr; // reads and RMWs
    void* user_context = nullptr;
    Status status = Status::kOk;  // result, per op
  };

  /// Executes `count` mixed ops with the staged pipeline, filling each
  /// op's `status`. Results are identical to calling Read/Upsert/Rmw/
  /// Delete sequentially on the same thread in array order.
  void ExecuteBatch(BatchOp* ops, size_t count) FASTER_REQUIRES_EPOCH() {
    static_assert(!kVarLen, "variable-length stores have no RMW");
    for (size_t done = 0; done < count; done += kBatchChunk) {
      ExecuteChunk(ops + done, std::min(count - done, kBatchChunk));
    }
  }

  /// Batched reads: outputs[i] receives the value for keys[i] and
  /// statuses[i] the per-op result (kPending completes via
  /// CompletePending, reporting user_contexts[i] if provided).
  void ReadBatch(const Key* keys, const Input* inputs, Output* outputs,
                 Status* statuses, size_t count,
                 void* const* user_contexts = nullptr)
      FASTER_REQUIRES_EPOCH() {
    BatchOp ops[kBatchChunk];
    for (size_t done = 0; done < count; done += kBatchChunk) {
      size_t n = std::min(count - done, kBatchChunk);
      for (size_t i = 0; i < n; ++i) {
        ops[i] = BatchOp{};
        ops[i].key = keys[done + i];
        ops[i].input = inputs[done + i];
        ops[i].output = &outputs[done + i];
        if (user_contexts != nullptr) {
          ops[i].user_context = user_contexts[done + i];
        }
      }
      ExecuteChunk(ops, n);
      for (size_t i = 0; i < n; ++i) statuses[done + i] = ops[i].status;
    }
  }

  /// Processes this thread's pending work: storage-read completions and
  /// fuzzy-region RMW retries. If `wait`, blocks (refreshing the epoch)
  /// until everything this thread issued has completed. Returns true if
  /// nothing remains pending.
  bool CompletePending(bool wait = false) FASTER_REQUIRES_EPOCH() {
    assert(epoch_.IsProtected());
    ThreadState& ts = thread_states_[Thread::Id()];
    auto done = [&]() FASTER_REQUIRES_EPOCH() {
      // Completion polling (DESIGN.md §13): on io_uring, reaps this
      // thread's ring right here — the callbacks push onto ts.ready with
      // no cross-thread hop. A synchronous device ran them at submit.
      hlog_.device()->Poll();
      ProcessReady(ts);
      return ts.counters.Get(Ctr::kPendingIos) == 0 && ts.ready.Empty();
    };
    if (!wait) return done();
    WaitUntil<kWaitCompletePending>(done, &epoch_);
    return true;
  }

  // -------------------------------------------------------------------
  // Checkpointing and recovery (Sec. 6.5).
  // -------------------------------------------------------------------

  /// Takes a fuzzy checkpoint into `dir` (created if needed): records the
  /// tail t1, snapshots the index without locks, records t2, then moves
  /// the read-only offset to the tail and waits for the flush. Requires an
  /// active session; other threads may keep operating (the checkpoint does
  /// not quiesce the store).
  /// Records one checkpoint span (arg 0 ok / 1 error), whatever the
  /// sampling period, with the index write and log flush nested under it.
  Status Checkpoint(const std::string& dir) FASTER_REQUIRES_EPOCH() {
    obs::StatSpan span{obs::SpanKind::kCheckpoint, obs::EveryCall{}};
    Status s = TakeCheckpoint(dir);
    span.set_arg(s == Status::kOk ? 0 : 1);
    return s;
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
    if (meta.magic != kCheckpointMagic ||
        meta.record_size != Layout::kFixedSize) {
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
    // each entry pointing at the newest record below t2 for its tag. No
    // memory for an entry, a failed read or a torn page stops the pass.
    epoch_.Protect();  // everything below t2, the head, is on storage
    s = WalkLog(t1, t2, InMemory::kInPlace, [&](Address addr,
                                                const RecordT& rec) {
      AssertEpochProtected(epoch_);  // lambdas are analyzed alone
      if (rec.info().invalid()) return Status::kOk;
      KeyHash hash = Hasher{}(Layout::KeyOf(rec));
      for (;;) {
        typename HashIndex::OpScope scope{index_, hash};
        HashIndex::FindResult fr;
        Status found = index_.FindSlot(scope, hash, &fr);
        if (found != Status::kOk || fr.entry.address() >= addr ||
            index_.TryPublish(&fr, addr)) {
          return found;
        }
      }
    });
    epoch_.Unprotect();
    return s;
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
  /// unchanged, if the doubled table cannot be mapped. Records one grow
  /// span (arg = the new table's log2 size, 0 on failure) on every call.
  Status GrowIndex() FASTER_REQUIRES_EPOCH() {
    assert(epoch_.IsProtected());
    obs::StatSpan span{obs::SpanKind::kGrow, obs::EveryCall{}};
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
    span.set_arg(s == Status::kOk ? std::bit_width(index_.size()) - 1 : 0);
    return s;
  }

  /// Roll-to-tail log compaction (Appendix C): scans [begin, until),
  /// copies records that are still the newest version of their key to the
  /// tail, then truncates the log below `until`. Safe against concurrent
  /// operations (copies install via compare-and-swap and retry if the key
  /// is updated mid-copy). Records carrying the overwrite bit skip the
  /// liveness check entirely — the common case for hot-then-cold data.
  /// Every other candidate is a compaction op (ApplyCompact): at most
  /// kBatchChunk are in flight, and the pass waits for its own ops only,
  /// all of them before it truncates. Reads each storage page of the range
  /// once, and chain hops only above a candidate. A failed read ends the
  /// pass with its status, a torn record with kCorruption; either
  /// truncates only below the lowest candidate the pass did not finish.
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
    if constexpr (kMergeable) return Status::kInvalid;
    ThreadState& ts = thread_states_[Thread::Id()];
    Address begin = hlog_.begin_address();
    until = std::min(until, hlog_.safe_read_only_address());
    if (until <= begin) return Status::kOk;
    CompactPass pass{.keep = until};
    static const Input kNoInput{};  // a compaction op's context copies it
    // Continues this thread's ready contexts, its caller's pending ops
    // too, until at most `most` of the pass's ops are in flight.
    auto drain = [&](uint32_t most) FASTER_REQUIRES_EPOCH() {
      WaitUntil<kWaitCompact>([&]() FASTER_REQUIRES_EPOCH() {
        hlog_.device()->Poll();  // this thread's io_uring completions
        ProcessReady(ts);
        return pass.in_flight <= most;
      }, &epoch_);
    };
    uint64_t step = 0;
    Address examined = begin;  // the end of the last record examined
    // Pages are copied: the pass refreshes its epoch (below, as it drains,
    // and on a page rollover), which may recycle their frames.
    Status walked = WalkLog(begin, until, InMemory::kCopied, [&](Address addr,
                                                             const RecordT& rec) {
      AssertEpochProtected(epoch_);  // lambdas are analyzed alone
      // Keep the epoch moving: a long pass would otherwise hold back every
      // epoch trigger (page evictions, flushes) until it ends.
      if (++step % 1024 == 0) epoch_.Refresh();
      RecordInfo info = rec.info();
      if (info.invalid() || info.tombstone()) {
        // Nothing to copy.
      } else if (info.overwritten()) {
        ++pass.stats.dead_by_overwrite_bit;
      } else {
        pass.at = addr;
        pass.rec = &rec;
        ++pass.in_flight;
        const Key& key = Layout::KeyOf(rec);
        obs::StatOpClock clock{obs::Stage::kExecute, 0};  // untimed
        OpRef op{OpKind::kCompact, key, &kNoInput, nullptr, nullptr, &pass,
                 &clock};
        Status s = Resolve(ts, op, Hasher{}(key)).status;
        if (s != Status::kPending) pass.Finish(addr, s);
        if (pass.in_flight == kBatchChunk) drain(kBatchChunk - 1);
      }
      ++pass.stats.scanned;
      examined = addr + Layout::Size(rec);
      return Status::kOk;
    });
    drain(0);
    if (walked != Status::kOk) pass.keep = std::min(pass.keep, examined);
    hlog_.ShiftBeginAddress(pass.keep);
    if (stats != nullptr) *stats = pass.stats;
    return walked != Status::kOk ? walked : pass.status;
  }

  /// Scans log records in [from, to) in log order (Appendix F), invoking
  /// `fn(Address, const RecordT&)` for every in-use record, including
  /// invalid and tombstone records (callers filter via RecordInfo).
  /// Requires an active session. Reads each storage page once and walks
  /// memory in place. A failed storage read ends the scan with its
  /// status, and a torn page with kCorruption.
  template <class Fn>
  Status ScanLog(Address from, Address to, Fn&& fn) FASTER_REQUIRES_EPOCH() {
    assert(epoch_.IsProtected());
    return WalkLog(std::max(from, hlog_.begin_address()),
                   std::min(to, hlog_.tail_address()), InMemory::kInPlace,
                   [&](Address addr, const RecordT& rec) {
                     fn(addr, rec);
                     return Status::kOk;
                   });
  }

  // -------------------------------------------------------------------
  // Introspection. Stats, Prometheus, trace and /debug rendering live in
  // src/obs/store_view.h, as functions over view().
  // -------------------------------------------------------------------

  /// Operation totals across all threads (sums over the counter blocks).
  using Stats = obs::StoreStats;
  Stats GetStats() const { return obs::Totals(counters()); }

  /// Every thread's counter block: one obs::StoreCounter per event.
  obs::CounterTable counters() const {
    return {&thread_states_[0].counters, sizeof(ThreadState),
            Thread::kMaxThreads};
  }

  /// What src/obs renders from (obs::DumpStats, obs::DebugLogJson, ...).
  obs::StoreView view() {
    return {this,   counters(), histograms_, &epoch_,
            &index_, &hlog_,    rc_log_.get()};
  }

  HybridLog& hlog() { return hlog_; }
  HashIndex& index() { return index_; }
  LightEpoch& epoch() { return epoch_; }
  const Config& config() const { return config_; }

 private:
  using Ctr = obs::StoreCounter;

  /// Checkpoint's steps (Sec. 6.5).
  Status TakeCheckpoint(const std::string& dir) FASTER_REQUIRES_EPOCH() {
    assert(epoch_.IsProtected());
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    thread_states_[Thread::Id()].counters.Add(Ctr::kCheckpoints);
    Address t1 = hlog_.tail_address();
    int fd = ::open((dir + "/index.dat").c_str(),
                    O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) return Status::kIoError;
    HashIndex::EntryTransform transform;
    if (rc_log_ != nullptr) {
      // Appendix D: persisted index entries must point at the primary log,
      // so cached addresses are swung back to the address they displaced.
      transform = [this](const std::atomic<uint64_t>& slot) -> uint64_t {
        // Runs inside WriteCheckpoint on the checkpointing thread, which
        // holds an active session (lambdas are analyzed in isolation).
        AssertEpochProtected(epoch_);
        uint64_t control;
        WaitUntil<kWaitCheckpointRedirect>([&]() FASTER_REQUIRES_EPOCH() {
          HashBucketEntry e{slot.load(std::memory_order_acquire)};
          control = e.tentative() ? 0 : e.control();
          if (e.tentative() || !InReadCache(e.address())) return true;
          Address rc = StripRc(e.address());
          // Eviction redirect in flight: drive the epoch and re-read.
          if (rc < rc_log_->head_address()) return false;
          Address prev = RcRecordAt(rc)->info().previous_address();
          control = HashBucketEntry{prev, e.tag(), false}.control();
          return true;
        }, &epoch_);
        return control;
      };
    }
    Status s;
    {
      obs::StatTimer timer{Hist(obs::StoreHistogram::kCheckpointIndexNs)};
      obs::StageScope stage{obs::Stage::kCkptIndex};
      s = index_.WriteCheckpoint(fd, transform);
    }
    ::close(fd);
    if (s != Status::kOk) return s;
    Address t2 = hlog_.tail_address();
    // Flush the log through t2 (and beyond, to the current tail).
    {
      obs::StatTimer timer{Hist(obs::StoreHistogram::kCheckpointFlushNs)};
      obs::StageScope stage{obs::Stage::kCkptFlush};
      hlog_.ShiftReadOnlyToTail(/*wait=*/true);
    }
    if (hlog_.io_error()) return Status::kIoError;
    CheckpointMetadata meta{kCheckpointMagic, t1.control(), t2.control(),
                            hlog_.begin_address().control(),
                            Layout::kFixedSize};
    fd = ::open((dir + "/meta.dat").c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                0644);
    if (fd < 0) return Status::kIoError;
    bool ok = ::write(fd, &meta, sizeof(meta)) == sizeof(meta);
    ::close(fd);
    return ok ? Status::kOk : Status::kIoError;
  }

  obs::StatHistogram& Hist(obs::StoreHistogram h) {
    return histograms_[static_cast<size_t>(h)];
  }

  /// The store's op kinds (the slowlog's vocabulary); a BatchOp::Kind
  /// converts by value.
  using OpKind = obs::SlowOpKind;
  static_assert(static_cast<OpKind>(BatchOp::Kind::kRead) == OpKind::kRead &&
                static_cast<OpKind>(BatchOp::Kind::kUpsert) ==
                    OpKind::kUpsert &&
                static_cast<OpKind>(BatchOp::Kind::kRmw) == OpKind::kRmw &&
                static_cast<OpKind>(BatchOp::Kind::kDelete) ==
                    OpKind::kDelete);

  struct PendingContext;

  /// One op as Resolve and Apply see it. It refers to the caller's
  /// arguments (or BatchOp fields), so a single-op Upsert never copies its
  /// value. A resumed op names its own context, which it waits in again.
  struct OpRef {
    OpKind kind;
    const Key& key;
    const Input* input;  // reads and RMWs
    // Upserts; a resumed RMW: the value its storage read found (null: the
    // key is absent on storage).
    const Value* value;
    Output* output;      // reads and RMWs (null: an RMW's value is dropped)
    // Reads and RMWs: the user's context; a fresh compaction op: its
    // CompactPass; a resumed op (no clock): its PendingContext, whose clock
    // it runs on.
    void* user_context;
    obs::StatOpClock* clock = nullptr;  // a fresh op's, set by its entry

    /// A resumed op's own context, which it waits in again; null for a
    /// fresh op. Not a field of its own: a 64-byte OpRef costs each batch
    /// op 5 more instructions (EXPERIMENTS.md "One pending-op path").
    PendingContext* resumed() const {
      return clock != nullptr ? nullptr
                              : static_cast<PendingContext*>(user_context);
    }
  };

  /// What a pending context waits on. Only Await changes it, and with it
  /// the level that counts the context.
  enum class Wait : uint8_t { kNothing, kRead, kRetry };

  /// Context carried by an operation that went pending (Sec. 5.3): enough
  /// to resume after the asynchronous storage read (or fuzzy retry).
  /// Contexts are recycled on their owner's free list (NewContext).
  struct PendingContext {
    // `o` by value: a reference escaping into this (out-of-line)
    // constructor would keep the compiler from folding the op kind.
    PendingContext(FasterKv* s, OpRef o, KeyHash h)
        : store{s}, op{o.kind}, key{o.key}, hash{h}, input{*o.input},
          output{o.output}, user_context{o.user_context},
          owner{Thread::Id()}, clock{*o.clock} {}

    FasterKv* store;
    OpKind op;
    typename Layout::KeyStore key;
    KeyHash hash;
    Input input;
    Output* output;
    void* user_context;
    uint32_t owner;
    PendingContext* next = nullptr;  // on ThreadState::ready or ::free
    uint32_t read_len = Layout::kFixedSize;    // bytes the read fetches
    Address address = Address::Invalid();     // record being read
    Address chain_bottom = Address::Invalid();  // first disk address of chain
    Address target;  // a compaction op's candidate
    Status io_status = Status::kOk;  // the last storage read's result
    Wait wait = Wait::kNothing;
    // The op's clock, moved in as it went asynchronous: continuations on
    // any thread mark it and resume its trace (empty without stats).
    [[no_unique_address]] obs::StatOpClock clock;
    // CRDT read reconciliation state (Sec. 6.3).
    Value merge_acc{};
    bool merge_found = false;
    alignas(8) uint8_t buffer[Layout::kReadBlock];
    // A variable-length record longer than `buffer` is reread, whole, here.
    [[no_unique_address]] std::conditional_t<
        kVarLen, std::vector<uint8_t>, std::array<uint8_t, 0>> whole;

    uint8_t* dst() { return whole.empty() ? buffer : whole.data(); }
    const RecordT* record() const {
      return reinterpret_cast<const RecordT*>(whole.empty() ? buffer
                                                            : whole.data());
    }
  };

  struct alignas(64) ThreadState {
    // This thread's counters, written by this thread only; kPendingIos is
    // its storage reads in flight. First, so the op outcomes sit at short
    // offsets from the ThreadState pointer.
    obs::CounterBlock counters;
    // Contexts CompletePending continues: reads done, pushed by whichever
    // thread ran or reaped the read, and this thread's fuzzy RMW retries.
    TakeAllList<PendingContext> ready;
    PendingContext* free = nullptr;  // recycled contexts; this thread only
    uint32_t ops_since_refresh = 0;
    uint32_t slot = 0;  // the Thread::Id() its ops record statistics under

    ~ThreadState() {
      for (PendingContext* c : {free, ready.TakeAll()}) {
        while (c != nullptr) delete std::exchange(c, c->next);
      }
    }
  };

  RecordT* RecordAt(Address addr) const FASTER_REQUIRES_EPOCH() {
    return reinterpret_cast<RecordT*>(hlog_.Get(addr));
  }

  // -------------------------------------------------------------------
  // Read cache (Appendix D). Cached records live in a second HybridLog;
  // index entries pointing into it carry the high address bit (TagRc,
  // core/record.h). A cache
  // record's `previous_address` preserves the primary-log chain head it
  // displaced.
  // -------------------------------------------------------------------

  RecordT* RcRecordAt(Address addr) const FASTER_REQUIRES_EPOCH() {
    return reinterpret_cast<RecordT*>(rc_log_->Get(addr));
  }

  /// Resolves an index entry to the primary-log chain start, surfacing the
  /// resident read-cache record if the entry points into the cache.
  /// Returns false if the cache page was evicted but the entry has not
  /// been redirected yet (caller refreshes and restarts).
  [[gnu::always_inline]] bool ResolveEntry(const HashIndex::FindResult& fr,
                                           Address* start,
                                           RecordT** rc_rec) const
      FASTER_REQUIRES_EPOCH() {
    *rc_rec = nullptr;
    Address a = fr.entry.address();
    if (!kReadCache || rc_log_ == nullptr || !InReadCache(a)) {
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
  /// then gives up (cache insertion is best-effort). Never refreshes: its
  /// callers hold an OpScope.
  Address TryAllocateRcRecord(uint32_t size) FASTER_REQUIRES_EPOCH() {
    for (int attempt = 0; attempt < 2; ++attempt) {
      uint64_t closed_page = 0;
      Address addr = rc_log_->Allocate(size, &closed_page);
      if (addr.IsValid()) return addr;
      if (!rc_log_->NewPage(closed_page)) return Address::Invalid();
    }
    return Address::Invalid();
  }

  /// Inserts a record read from storage into the read cache (best-effort).
  void TryInsertToCache(ThreadState& ts, KeyHash hash, const RecordT& src)
      FASTER_REQUIRES_EPOCH() {
    typename HashIndex::OpScope scope{index_, hash};
    HashIndex::FindResult fr;
    if (!index_.FindEntry(scope, hash, &fr)) return;
    Address a = fr.entry.address();
    if (InReadCache(a)) return;            // someone cached it already
    if (!a.IsValid() || a >= hlog_.head_address()) return;  // newer in memory
    Address rc_addr = TryAllocateRcRecord(Layout::Size(src));
    if (!rc_addr.IsValid()) return;
    RecordT* rec = RcRecordAt(rc_addr);
    CopyBody(rec, src);
    rec->set_info(RecordInfo{a, false, false, false, /*read_cache=*/true});
    if (index_.TryPublish(&fr, TagRc(rc_addr))) {
      ts.counters.Add(Ctr::kRcInserts);
    } else {
      rec->SetInvalid();
    }
  }

  /// True when the index slot no longer holds the entry `fr` read.
  static bool EntryMoved(const HashIndex::FindResult& fr) {
    return fr.slot->load(std::memory_order_acquire) != fr.entry.control();
  }

  /// Read-cache hit (Appendix D): reads the cached copy, and a hit in the
  /// cache's read-only region earns the record a second chance — a copy
  /// at the cache tail, exactly like the primary HybridLog's shaping
  /// behaviour. Out of line: a rare path that would otherwise be inlined
  /// into every read.
  [[gnu::noinline]] void ReadCacheHit(ThreadState& ts, const Key& key,
                                      const Input& input, Output* output,
                                      RecordT* rc_rec,
                                      const HashIndex::FindResult& fr)
      FASTER_REQUIRES_EPOCH() {
    F::SingleReader(key, input, Layout::ValueOf(*rc_rec), *output);
    if (StripRc(fr.entry.address()) >= rc_log_->read_only_address()) return;
    // Skip a copy whose CAS is bound to fail: the entry already moved on
    // since `fr` was resolved (say, another thread's read of the key made
    // the copy).
    if (EntryMoved(fr)) return;
    Address new_addr = TryAllocateRcRecord(Layout::Size(*rc_rec));
    if (!new_addr.IsValid()) return;
    RecordT* rec = RcRecordAt(new_addr);
    CopyBody(rec, *rc_rec);
    rec->set_info(RecordInfo{rc_rec->info().previous_address(), false, false,
                             false, /*read_cache=*/true});
    HashIndex::FindResult mutable_fr = fr;
    if (index_.TryPublish(&mutable_fr, TagRc(new_addr))) {
      ts.counters.Add(Ctr::kRcSecondChance);
    } else {
      rec->SetInvalid();
    }
  }

  /// An entry whose chain starts below the begin address. Compaction may
  /// have moved the key and truncated since `fr` was read: then the op
  /// re-resolves (false). Otherwise a primary-log entry is a stale one log
  /// truncation left behind (Appendix C), and is dropped. Out of line,
  /// like ReadCacheHit.
  [[gnu::noinline]] bool DropStaleEntry(HashIndex::FindResult& fr,
                                        bool primary) FASTER_REQUIRES_EPOCH() {
    if (EntryMoved(fr)) return false;
    if (primary) index_.TryDeleteEntry(&fr);
    return true;
  }

  /// Eviction redirect: runs under epoch safety when cache pages fall off
  /// the cache's head; swings index entries pointing at evicted cache
  /// records back to the primary-log addresses they displaced.
  void RcEvict(Address from, Address to) {
    // Run by an epoch trigger action, through a std::function the analysis
    // cannot see through: the thread is protected.
    AssertEpochProtected(epoch_);
    // The cache's first page starts with the log's reserved bytes, whose
    // zero header would read as padding and skip the page's records.
    (void)WalkLog(std::max(from, rc_log_->begin_address()), to,
                  InMemory::kEvicted, [this](Address addr, const RecordT& rec) {
      AssertEpochProtected(epoch_);  // lambdas are analyzed alone
      if (rec.info().invalid()) return Status::kOk;
      KeyHash hash = Hasher{}(Layout::KeyOf(rec));
      typename HashIndex::OpScope scope{index_, hash};
      HashIndex::FindResult fr;
      if (index_.FindEntry(scope, hash, &fr) &&
          fr.entry.address() == TagRc(addr) &&
          index_.TryPublish(&fr, rec.info().previous_address())) {
        // Counted on the thread running the eviction trigger.
        thread_states_[Thread::Id()].counters.Add(Ctr::kRcEvictions);
      }
      return Status::kOk;
    });
  }

  /// Counts `ops` toward the refresh interval of the calling thread, in
  /// `slot`, refreshing when it is due.
  [[gnu::always_inline]] ThreadState& AutoRefresh(uint32_t slot, uint32_t ops)
      FASTER_REQUIRES_EPOCH() {
    ThreadState& ts = thread_states_[slot];
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
  [[gnu::always_inline]] Address TraceBack(const Key& key, Address from,
                                           Address min_mem, RecordT** rec) const
      FASTER_REQUIRES_EPOCH() {
    Address addr = from;
    while (addr.IsValid() && addr >= min_mem) {
      RecordT* r = RecordAt(addr);
      if (Layout::KeyEquals(*r, key)) {
        *rec = r;
        return addr;
      }
      addr = r->info().previous_address();
    }
    *rec = nullptr;
    return addr;
  }

  /// Copies `src`'s key and value, all but its header, into `dst`.
  static void CopyBody(RecordT* dst, const RecordT& src) {
    constexpr size_t kHeader = sizeof(RecordInfo);
    std::memcpy(reinterpret_cast<uint8_t*>(dst) + kHeader,
                reinterpret_cast<const uint8_t*>(&src) + kHeader,
                Layout::Size(src) - kHeader);
  }

  /// The one check of a record the pending walk read from storage at
  /// `addr`, whose first `len` bytes are at `rec`: kOk, with `*whole` the
  /// record's size if those bytes cut it short (a variable-length record
  /// longer than the first block, to reread whole), else 0; kCorruption if
  /// its size overruns its page (a torn record). Page padding passes as it
  /// is.
  static Status CheckRead(Address addr, const RecordT& rec, uint32_t len,
                          uint32_t* whole) {
    *whole = 0;
    if (!kVarLen || !rec.info().in_use()) return Status::kOk;
    uint32_t size = Layout::Size(rec);
    if (size <= len) return Status::kOk;
    if (addr.offset() + size > Address::kPageSize) return Status::kCorruption;
    *whole = size;
    return Status::kOk;
  }

  /// One-shot allocation (Alg. 1 wrapper). Returns an invalid address on
  /// a page rollover: the caller must release its OpScope, refresh the
  /// epoch (which drives the flushes and evictions the next frame may be
  /// waiting for) and restart its operation. It never refreshes itself: a
  /// trigger action the refresh runs may wait on the caller's chunk pin.
  [[gnu::always_inline]] Address TryAllocateRecord(uint32_t size)
      FASTER_REQUIRES_EPOCH() {
    uint64_t closed_page = 0;
    Address addr = hlog_.Allocate(size, &closed_page);
    if (addr.IsValid()) return addr;
    if (!hlog_.NewPage(closed_page)) thread_yield();
    return Address::Invalid();
  }

  /// The one append (Alg. 1; Sec. 3.2): allocates `size` bytes at the
  /// tail, lets `fill(RecordT*)` write the key and value and return the
  /// header, writes that header and publishes the record into `fr`. Once
  /// it is published, the superseded in-memory record `old`, if any, is
  /// flagged overwritten (Appendix C). Returns false, the op to
  /// re-resolve, on a page rollover or a lost CAS, whose record is
  /// invalidated.
  template <class Fill>
  [[gnu::always_inline]] bool Append(HashIndex::FindResult& fr, uint32_t size,
                                     RecordT* old, Fill&& fill)
      FASTER_REQUIRES_EPOCH() {
    Address new_addr = TryAllocateRecord(size);
    if (!new_addr.IsValid()) return false;
    RecordT* rec = RecordAt(new_addr);
    rec->set_info(fill(rec));
    if (!index_.TryPublish(&fr, new_addr)) {
      rec->SetInvalid();
      return false;
    }
    if (old != nullptr) old->SetOverwritten();
    return true;
  }

  // -------------------------------------------------------------------
  // The op engine (Alg. 2-4, Tables 1-2). Every op is Resolve + Apply:
  // Resolve hashes the key and finds its index entry; Apply runs the
  // region dispatch on that entry. Single ops and batch ops alike resolve
  // under an OpScope (Resolve below); a batch only hashes and prefetches
  // its chunk's buckets first. Apply returns false when the op must
  // re-resolve: a lost CAS, a page rollover or a read-cache eviction
  // redirect in flight. Apply never refreshes the epoch; Resolve
  // does, after its OpScope closes (DESIGN.md §4: no refresh under an
  // OpScope). Otherwise Apply sets `*out`: the op's status and
  // the counter of its outcome, which the entry point counts — once per
  // op. The engine is forced inline, so each entry point compiles to
  // straight-line code for its op kind (out-of-line calls cost 5-20% per
  // op on a cache-resident store; EXPERIMENTS.md "One op engine").
  // -------------------------------------------------------------------

  /// A completed op: its status and the counter of the outcome that
  /// completed it (obs::StoreCounter's op partition).
  struct Outcome {
    Status status;
    Ctr counter;
  };

  /// The single-op entry. The whole op is one execute segment (the batch
  /// pipeline attributes hash separately), timed by its one clock,
  /// which also carries the thread slot to the op's statistics.
  [[gnu::always_inline]]
  Status RunSingle(const OpRef& op) FASTER_REQUIRES_EPOCH() {
    uint32_t slot = Thread::Id();
    ThreadState& ts = AutoRefresh(slot, 1);
    KeyHash hash = Hasher{}(op.key);
    obs::StatOpClock clock{op.kind, hash.control()};
    Outcome out = Resolve(
        ts,
        OpRef{op.kind, op.key, op.input, op.value, op.output, op.user_context,
              &clock},
        hash);
    ts.counters.Add(out.counter);
    // A pending op took a copy of the clock, which finishes it.
    clock.Leave(out.status != Status::kPending, ts.slot);
    return out.status;
  }

  /// Resolve for single ops and for each batch op: finds the key's index
  /// entry under an OpScope — or, for upserts and RMWs, the free slot a
  /// new key's record is published into — and applies the op, refreshing
  /// between attempts, until Apply completes it.
  [[gnu::always_inline]]
  Outcome Resolve(ThreadState& ts, const OpRef& op, KeyHash hash)
      FASTER_REQUIRES_EPOCH() {
    Outcome out;
    for (;; RefreshToRetry()) {
      typename HashIndex::OpScope scope{index_, hash, ts.slot};
      HashIndex::FindResult fr;
      bool has_entry;
      if (op.kind == OpKind::kUpsert || op.kind == OpKind::kRmw) {
        has_entry = index_.FindSlot(scope, hash, &fr) == Status::kOk;
      } else {
        has_entry = index_.FindEntry(scope, hash, &fr);
      }
      if (Apply(ts, op, hash, has_entry, fr, &out)) break;
    }
    return out;
  }

  /// Resolve's refresh between attempts. Out of line and cold, so an op
  /// body keeps only the call: inlined, GCC kept `&epoch_` in a stack
  /// slot across every op (EXPERIMENTS.md "One pending-op path").
  [[gnu::noinline, gnu::cold]] void RefreshToRetry() FASTER_REQUIRES_EPOCH() {
    epoch_.Refresh();
  }

  [[gnu::always_inline]]
  bool Apply(ThreadState& ts, const OpRef& op, KeyHash hash, bool has_entry,
             HashIndex::FindResult& fr, Outcome* out) FASTER_REQUIRES_EPOCH() {
    if constexpr (kVarLen) {
      // A record must fit one log page. Kept off the counters (kCount
      // counts nothing): the op did not run.
      if (op.kind != OpKind::kRead &&
          Layout::SizeFor(op.key, op.value ? *op.value : Value{}) >
              Address::kPageSize) {
        *out = {Status::kInvalid, Ctr::kCount};
        return true;
      }
    }
    if (!has_entry && (op.kind == OpKind::kUpsert || op.kind == OpKind::kRmw)) {
      // FindSlot found no room for the new key's entry: the op fails,
      // having changed nothing.
      *out = {Status::kOutOfMemory, Ctr::kCount};
      return true;
    }
    if constexpr (!kMergeable) {
      if (op.kind == OpKind::kCompact) {
        return ApplyCompact(ts, op, hash, has_entry, fr, out);
      }
    }
    switch (op.kind) {
      case OpKind::kRead:
        return ApplyRead(ts, op, hash, has_entry, fr, out);
      case OpKind::kUpsert:
        return ApplyUpsert(op, fr, out);
      case OpKind::kRmw:
        // No entry point makes an RMW on a variable-length store.
        if constexpr (!kVarLen) {
          return ApplyRmw(ts, op, hash, fr, out);
        }
        break;
      case OpKind::kDelete:
        return ApplyDelete(op, has_entry, fr, out);
      case OpKind::kCompact:  // dispatched above: a case here costs
        break;                // Upsert 16 bytes (GCC's register choice)
    }
    return false;  // unreachable
  }

  /// Read (Alg. 2): a read-cache hit, else the newest in-memory record
  /// through the reader its region allows, else a storage read.
  [[gnu::always_inline]]
  bool ApplyRead(ThreadState& ts, const OpRef& op, KeyHash hash,
                 bool has_entry, HashIndex::FindResult& fr, Outcome* out)
      FASTER_REQUIRES_EPOCH() {
    *out = {Status::kNotFound, Ctr::kReadMiss};
    if (!has_entry) return true;
    Address addr;
    RecordT* rc_rec = nullptr;
    if (!ResolveEntry(fr, &addr, &rc_rec)) {
      // The cache page was evicted but the entry is not yet redirected;
      // retry after a refresh (Appendix D).
      return false;
    }
    if (rc_rec != nullptr && Layout::KeyEquals(*rc_rec, op.key)) {
      ReadCacheHit(ts, op.key, *op.input, op.output, rc_rec, fr);
      *out = {Status::kOk, Ctr::kReadRc};
      return true;
    }
    Address begin = hlog_.begin_address();
    if (!addr.IsValid() || addr < begin) {
      return DropStaleEntry(fr, /*primary=*/rc_rec == nullptr);
    }
    if constexpr (kMergeable) {
      *out = MergeableRead(ts, op, hash, addr);
      return true;
    }
    Address head = hlog_.head_address();
    RecordT* rec = nullptr;
    addr = TraceBack(op.key, addr, std::max(head, begin), &rec);
    if (rec != nullptr) {
      if (rec->info().tombstone()) return true;
      if (addr < hlog_.safe_read_only_address()) {
        *out = {Status::kOk, Ctr::kReadReadOnly};
        F::SingleReader(op.key, *op.input, Layout::ValueOf(*rec),
                        *op.output);
      } else {
        // Telling fuzzy from mutable costs a load: stats builds only.
        *out = {Status::kOk,
                obs::kStatsEnabled && addr < hlog_.read_only_address()
                    ? Ctr::kReadFuzzy
                    : Ctr::kReadMutable};
        F::ConcurrentReader(op.key, *op.input, Layout::ValueOf(*rec),
                            *op.output);
      }
      return true;
    }
    if (!addr.IsValid() || addr < begin) {
      if (EntryMoved(fr)) return false;  // as above
      // The index tag matched but no record carried the key: a tag
      // false positive (Sec. 3.2) or a truncated chain. The stats-only
      // false-positive count refines the miss; it is no op outcome.
      ts.counters.Add(Ctr::kTagFalsePositives);
      return true;
    }
    // The chain continues on storage: go asynchronous (Sec. 5.3).
    Status s = GoPending(ts, op, hash, addr);
    *out = {s, s == Status::kPending ? Ctr::kReadStable : Ctr::kCount};
    return true;
  }

  /// Blind upsert (Alg. 3): in place in the mutable region when the value
  /// fits; every other region (read-only, fuzzy, on disk, absent, or
  /// behind a read-cache entry) appends a new record — blind updates need
  /// not read the old value (Table 2).
  [[gnu::always_inline]]
  bool ApplyUpsert(const OpRef& op, HashIndex::FindResult& fr, Outcome* out)
      FASTER_REQUIRES_EPOCH() {
    Address addr;
    RecordT* rc_rec = nullptr;
    if (!ResolveEntry(fr, &addr, &rc_rec)) return false;
    RecordT* rec = nullptr;
    // A new key's free slot has no address: no region loads.
    if (rc_rec == nullptr && addr.IsValid()) {
      Address min_mem =
          std::max(hlog_.head_address(), hlog_.begin_address());
      Address found = Address::Invalid();
      if (addr >= min_mem) found = TraceBack(op.key, addr, min_mem, &rec);
      if (rec != nullptr && !rec->info().tombstone() && !config_.force_rcu &&
          found >= hlog_.read_only_address() &&
          (!kVarLen || Layout::Fits(*rec, *op.value))) {
        // Mutable region: in-place update (Table 1 row 4).
        hlog_.VerifyMutableAddress(found);
        F::ConcurrentWriter(op.key, *op.value, Layout::ValueOf(*rec));
        *out = {Status::kOk, Ctr::kUpsertInPlace};
        return true;
      }
    }
    // The new record's chain skips any cache record (its copy lives on
    // the primary log already).
    *out = {Status::kOk, Ctr::kUpsertAppend};
    return Append(
        fr, static_cast<uint32_t>(Layout::SizeFor(op.key, *op.value)), rec,
        [&](RecordT* r) {
          Layout::Init(r, op.key, *op.value);
          F::SingleWriter(op.key, *op.value, Layout::ValueOf(*r));
          return RecordInfo{addr, false, false};
        });
  }

  /// Parks an op that must wait: a storage read of the record at `addr`
  /// (Sec. 5.3) or, with an invalid `addr`, an RMW's fuzzy-region retry.
  /// kPending. A fresh op gets a context (ParkNew); a resumed one waits in
  /// its own, unless it is a restarted read that finds the chain bottom it
  /// walked: truncation ended that chain, so the key is absent (kNotFound).
  [[gnu::always_inline]] Status GoPending(ThreadState& ts, const OpRef& op,
                                          KeyHash hash, Address addr) {
    PendingContext* ctx = op.resumed();
    if (ctx == nullptr) return ParkNew(ts, op, hash, addr);
    if (addr.IsValid() && addr == ctx->chain_bottom) return Status::kNotFound;
    Await(ts, ctx, addr.IsValid() ? Wait::kRead : Wait::kRetry, addr);
    return Status::kPending;
  }

  /// A fresh op's GoPending: kOutOfMemory, with nothing changed, if it got
  /// no context. Out of line, context constructor and all: op bodies keep
  /// only the call.
  [[gnu::noinline]] Status ParkNew(ThreadState& ts, OpRef op, KeyHash hash,
                                   Address addr) {
    PendingContext* ctx = NewContext(ts, op, hash);
    if (ctx == nullptr) return Status::kOutOfMemory;
    Await(ts, ctx, addr.IsValid() ? Wait::kRead : Wait::kRetry, addr);
    return Status::kPending;
  }

  /// Delete: a tombstone in place in the mutable region, otherwise a
  /// tombstone record appended blind.
  [[gnu::always_inline]]
  bool ApplyDelete(const OpRef& op, bool has_entry, HashIndex::FindResult& fr,
                   Outcome* out) FASTER_REQUIRES_EPOCH() {
    *out = {Status::kNotFound, Ctr::kDeleteMiss};
    if (!has_entry) return true;
    Address addr;
    RecordT* rc_rec = nullptr;
    if (!ResolveEntry(fr, &addr, &rc_rec)) return false;
    Address begin = hlog_.begin_address();
    if (!addr.IsValid() || addr < begin) {
      if (EntryMoved(fr)) return false;  // moved by compaction: ApplyRead
      if (rc_rec != nullptr) {
        // The cached key's only version was truncated away.
        index_.TryPublish(&fr, addr);
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
        *out = {Status::kOk, Ctr::kDeleteInPlace};
        return true;
      }
    } else if (!found.IsValid() || found < begin) {
      // The key is absent in memory and on the log, unless it moved.
      return !EntryMoved(fr);
    }
    // Read-only / fuzzy / on-disk: append a tombstone record (blind).
    *out = {Status::kOk, Ctr::kDeleteAppend};
    return Append(fr, static_cast<uint32_t>(Layout::SizeFor(op.key, Value{})),
                  rec, [&](RecordT* r) {
                    Layout::Init(r, op.key, Value{});
                    return RecordInfo{addr, false, /*tombstone=*/true};
                  });
  }

  /// Where an updater reports its value: `*output`, or, when it is null or
  /// the store mergeable (its updaters report deltas), `discard`, a local
  /// the compiler drops.
  [[gnu::always_inline]] static Output& OutputOr(Output* output,
                                                 Output& discard) {
    return kMergeable || output == nullptr ? discard : *output;
  }

  /// RMW (Alg. 4): the region dispatch on a resolved entry; fixed-size
  /// records only. The updater reports its value to `op.output`. A resumed
  /// RMW (op.resumed()) has read its chain bottom from storage: `op.value` is
  /// the value found there. Every outcome that writes a new record
  /// (kRmwCopy, kRmwInitial or kRmwDelta) ends in the one append, after
  /// the primary-log chain start (a read-cache record is skipped); a
  /// restart reruns its updater, which overwrites `output` again. A
  /// storage read (kRmwStable) or a fuzzy-region retry (kRmwFuzzyDeferred)
  /// goes pending.
  [[gnu::always_inline]]
  bool ApplyRmw(ThreadState& ts, const OpRef& op, KeyHash hash,
                HashIndex::FindResult& fr, Outcome* out) FASTER_REQUIRES_EPOCH() {
    Address addr;
    RecordT* rc_rec = nullptr;
    if (!ResolveEntry(fr, &addr, &rc_rec)) return false;
    // The append: copy-update from `old_value` (kRmwCopy), superseding the
    // in-memory record `old` if there is one; else an initial value
    // (kRmwInitial), or a mergeable store's delta (kRmwDelta).
    Ctr kind = Ctr::kRmwInitial;
    const Value* old_value = nullptr;
    RecordT* old = nullptr;
    Address io = Address::Invalid();  // kRmwStable: the record to read
    if (rc_rec != nullptr && rc_rec->key == op.key) {
      // Read-cache hit (Appendix D): the cached copy is the newest
      // version, so RMW can copy-update from it without a storage read.
      kind = Ctr::kRmwCopy;
      old_value = &rc_rec->value;
    } else {
      Address begin = hlog_.begin_address();
      Address head = hlog_.head_address();
      RecordT* rec = nullptr;
      Address found = Address::Invalid();
      if (addr.IsValid() && addr >= begin) {
        if (addr >= head) {
          found = TraceBack(op.key, addr, std::max(head, begin), &rec);
        } else {
          found = addr;  // chain starts on disk
        }
      }
      if (rec != nullptr && !rec->info().tombstone()) {
        if (!config_.force_rcu && found >= hlog_.read_only_address()) {
          // Mutable region: in-place update (Table 2 bottom row).
          hlog_.VerifyMutableAddress(found);
          Output discard{};
          F::InPlaceUpdater(op.key, *op.input, rec->value,
                            OutputOr(op.output, discard));
          *out = {Status::kOk, Ctr::kRmwInPlace};
          return true;
        }
        if constexpr (kMergeable) {
          // CRDT (Sec. 6.3): a delta, in the fuzzy region too.
          kind = Ctr::kRmwDelta;
        } else if (!config_.force_rcu &&
                   found >= hlog_.safe_read_only_address()) {
          // Fuzzy region (Sec. 6.2): an in-place update elsewhere could be
          // lost if we copied now. (In force_rcu mode no update is ever
          // in-place, so the lost-update anomaly cannot occur and RCU is
          // safe anywhere — the Sec. 5 append-only strawman.)
          kind = Ctr::kRmwFuzzyDeferred;
        } else {
          // Safe read-only region: read-copy-update to the tail.
          kind = Ctr::kRmwCopy;
          old_value = &rec->value;
          old = rec;  // Appendix C
        }
      } else if (rec == nullptr && found.IsValid() && found >= begin) {
        // Chain bottoms out on storage. CRDTs never read the old value:
        // they append a delta (Table 2).
        if constexpr (kMergeable) {
          kind = Ctr::kRmwDelta;
        } else if (op.resumed() == nullptr ||
                   found != op.resumed()->chain_bottom) {
          kind = Ctr::kRmwStable;
          io = found;
        } else if (op.value != nullptr) {
          // Resumed: its storage read resolved this chain bottom.
          kind = Ctr::kRmwCopy;
          old_value = op.value;
        }
      }
      // Otherwise the newest record is a tombstone, or the key is absent:
      // the initial record.
    }
    if (kind >= Ctr::kRmwFuzzyDeferred) {
      Status s = GoPending(ts, op, hash, io);
      *out = {s, s == Status::kPending ? kind : Ctr::kCount};
      return true;
    }
    *out = {Status::kOk, kind};
    return AppendRmw(op.key, *op.input, op.output, fr, old_value, addr, old,
                     kind == Ctr::kRmwDelta);
  }

  /// ApplyRmw's append, out of line: the in-place path stays short.
  [[gnu::noinline]] bool AppendRmw(const Key& key, const Input& input,
                                   Output* output, HashIndex::FindResult& fr,
                                   const Value* old_value, Address prev,
                                   RecordT* old, bool delta)
      FASTER_REQUIRES_EPOCH() {
    return Append(fr, Layout::kFixedSize, old, [&](RecordT* r) {
      r->key = key;
      Output discard{};
      Output& out = OutputOr(output, discard);
      if (old_value != nullptr) {
        F::CopyUpdater(key, input, *old_value, r->value, out);
      } else {
        r->value = Value{};
        F::InitialUpdater(key, input, r->value, out);
      }
      return RecordInfo{prev, false, false, delta};
    });
  }

  /// One CompactLog pass, its compaction ops' user context: the fresh
  /// op's candidate (at `at`; `rec`, WalkLog's copy), the ops in flight,
  /// what they found, and the address the pass truncates below.
  struct CompactPass {
    Address at{};
    const RecordT* rec = nullptr;
    uint32_t in_flight = 0;
    CompactionStats stats{};
    Status status = Status::kOk;  // the first failed op's
    Address keep;

    /// The op of the candidate at `candidate` ended with `s`.
    void Finish(Address candidate, Status s) {
      --in_flight;
      if (s == Status::kOk || s == Status::kNotFound) {
        ++(s == Status::kOk ? stats.copied : stats.dead_by_trace);
        return;
      }
      if (status == Status::kOk) status = s;
      keep = std::min(keep, candidate);
    }
  };

  /// Compaction's conditional copy (Appendix C), decided by address: the
  /// candidate at `at` is live iff the walk from its key's index entry
  /// reaches `at` with no record of the key above it; then it is copied to
  /// the tail (kOk), else it is dead (kNotFound). A walk that continues on
  /// storage above `at` goes pending; it ends at the key's first record
  /// there or at the first hop below `at`, and resumes if that record is
  /// the candidate, to copy it once its chain bottom has not moved (as a
  /// resumed RMW's). No op outcome counts it.
  [[gnu::always_inline]]
  bool ApplyCompact(ThreadState& ts, const OpRef& op, KeyHash hash,
                    bool has_entry, HashIndex::FindResult& fr, Outcome* out)
      FASTER_REQUIRES_EPOCH() {
    *out = {Status::kNotFound, Ctr::kCount};
    if (!has_entry) return true;
    Address start;
    RecordT* rc_rec = nullptr;  // liveness is decided on the primary chain
    if (!ResolveEntry(fr, &start, &rc_rec)) return false;
    PendingContext* ctx = op.resumed();
    auto* pass = static_cast<CompactPass*>(op.user_context);
    Address at = ctx != nullptr ? ctx->target : pass->at;
    if (at < hlog_.begin_address()) return true;  // truncated meanwhile
    RecordT* rec = nullptr;
    Address bottom =
        TraceBack(op.key, start, std::max(hlog_.head_address(), at + 1), &rec);
    if (rec != nullptr || !bottom.IsValid() || bottom < at) return true;
    if (bottom != at && (ctx == nullptr || bottom != ctx->chain_bottom)) {
      if (ctx == nullptr && (ctx = NewContext(ts, op, hash)) == nullptr) {
        *out = {Status::kOutOfMemory, Ctr::kCount};
        return true;
      }
      ctx->target = at;
      Await(ts, ctx, Wait::kRead, bottom);
      *out = {Status::kPending, Ctr::kCount};
      return true;
    }
    const RecordT& body = ctx != nullptr ? *ctx->record() : *pass->rec;
    *out = {Status::kOk, Ctr::kCount};
    return Append(fr, Layout::Size(body), nullptr, [&](RecordT* r) {
      CopyBody(r, body);
      return RecordInfo{start, false, false};
    });
  }

  // -------------------------------------------------------------------
  // Pending-operation machinery (Sec. 5.3).
  // -------------------------------------------------------------------

  /// The one function that changes what a pending context waits on, and
  /// so the only one that moves the pending levels (DESIGN.md §13): a
  /// storage read of the record at `addr`, the chain's new bottom; with an
  /// invalid `addr` the fuzzy retry list, which CompletePending retries
  /// until the safe read-only offset catches up (Sec. 6.2, io_complete
  /// time); or nothing, as the op completes (FinishPending).
  void Await(ThreadState& ts, PendingContext* ctx, Wait wait,
             Address addr = Address::Invalid()) {
    Wait was = std::exchange(ctx->wait, wait);
    if (was == Wait::kRead) ts.counters.Sub(Ctr::kPendingIos);
    if (was == Wait::kRetry) ts.counters.Sub(Ctr::kPendingRetries);
    if (wait == Wait::kRead) {
      ts.counters.Add(Ctr::kPendingIos);
      ctx->chain_bottom = addr;
      IssueIo(ctx, addr);
    } else if (wait == Wait::kRetry) {
      ts.counters.Add(Ctr::kPendingRetries);
      ctx->chain_bottom = Address::Invalid();
      if (was != Wait::kRetry) ctx->clock.Mark(obs::Stage::kIoComplete);
      ts.ready.Push(ctx);
    }
  }

  /// Reads the record at `addr` (a chain hop), or, with `whole_size`, all
  /// of a variable-length record the first block cut short. A first block
  /// stops at the page end and at the head (below it, all is on storage).
  void IssueIo(PendingContext* ctx, Address addr, uint32_t whole_size = 0) {
    ctx->address = addr;
    if constexpr (kVarLen) {
      ctx->whole.resize(whole_size);
      Address end = std::min(addr.NextPageStart(), hlog_.head_address());
      ctx->read_len = whole_size != 0
                          ? whole_size
                          : static_cast<uint32_t>(std::min<uint64_t>(
                                Layout::kReadBlock, end - addr));
    }
    thread_states_[ctx->owner].counters.Add(Ctr::kIosIssued);
    ctx->clock.Mark(obs::Stage::kIoQueue);
    // Submission work (and the execution a synchronous device runs under
    // it) is io_queue; device paths nest io_exec inside.
    obs::StatPerfScope perf{obs::Stage::kIoQueue};
    Status s = hlog_.AsyncGetFromDisk(ctx->address, ctx->read_len, ctx->dst(),
                                      &FasterKv::IoCallback, ctx);
    // A rejected read never fires its callback: fail it through the
    // completion machinery, so the op still completes exactly once.
    if (s != Status::kOk) IoCallback(ctx, Status::kIoError, 0);
  }

  // -------------------------------------------------------------------
  // Batched pipeline internals (see the public batch API above).
  // -------------------------------------------------------------------

  /// The two-stage pipeline over one chunk of at most kBatchChunk ops.
  void ExecuteChunk(BatchOp* ops, size_t n) FASTER_REQUIRES_EPOCH() {
    if (n == 0) return;
    assert(n <= kBatchChunk);
    assert(epoch_.IsProtected());
    // One refresh check covers the chunk (amortized epoch bookkeeping).
    uint32_t slot = Thread::Id();
    ThreadState& ts = AutoRefresh(slot, static_cast<uint32_t>(n));
    Hist(obs::StoreHistogram::kBatchSizes).Record(n, slot);
    // The chunk is one trace: the two stages appear as child spans, and
    // any pending-I/O continuation lands under the same trace id.
    obs::StatSpan chunk_span{obs::SpanKind::kBatchChunk,
                             static_cast<uint32_t>(n)};
    // Stage 1 is chunk-level, so the chunk's clock shares its cost evenly
    // across its ops; stage 2 times each op on its own clock.
    obs::StatOpClock chunk_clock =
        obs::StatOpClock::ForChunk(obs::Stage::kHash);

    // ---- Stage 1: hash every key; prefetch its hash bucket. ----
    KeyHash hashes[kBatchChunk];
    {
      obs::StageScope stage{obs::Stage::kHash};
      for (size_t i = 0; i < n; ++i) {
        hashes[i] = Hasher{}(ops[i].key);
        index_.PrefetchBucket(hashes[i]);
      }
    }
    chunk_clock.Mark(obs::Stage::kExecute);

    // ---- Stage 2: each op in array order, as a single op runs. ----
    // Perf attribution is per-chunk, not per-op; pending submissions nest
    // io_queue.
    obs::StageScope exec_stage{obs::Stage::kExecute};
    for (size_t i = 0; i < n; ++i) {
      BatchOp& op = ops[i];
      auto kind = static_cast<OpKind>(op.kind);
      // A batch op is no compaction op: Apply drops that dispatch.
      if (kind > OpKind::kDelete) __builtin_unreachable();
      obs::StatOpClock clock = chunk_clock.ForOp(
          kind, hashes[i].control(), static_cast<uint32_t>(n));
      Outcome out = Resolve(ts,
                            OpRef{kind, op.key, &op.input, &op.value, op.output,
                                  op.user_context, &clock},
                            hashes[i]);
      ts.counters.Add(out.counter);
      op.status = out.status;
      // A pending op took a copy of the clock, which finishes it.
      if (op.status != Status::kPending) clock.Finish(nullptr, slot);
    }
  }

  /// Out of line: the device calls it through a pointer, and the op paths
  /// only to fail a rejected read.
  [[gnu::noinline]] static void IoCallback(void* context, Status result,
                                           uint32_t /*bytes*/) {
    auto* ctx = static_cast<PendingContext*>(context);
    ctx->io_status = result;
    // Everything from here to the owner processing the completion is
    // io_complete: the cross-thread hand-off wait.
    ctx->clock.MarkIoDone();
    ctx->store->thread_states_[ctx->owner].ready.Push(ctx);
  }

  /// A context for `op`, recycled from this thread's free list or else
  /// from the heap; nullptr if the heap fails.
  [[gnu::always_inline]] PendingContext* NewContext(ThreadState& ts,
                                                    OpRef op, KeyHash hash) {
    void* mem = ContextMemory(ts);
    return mem == nullptr ? nullptr : new (mem) PendingContext(this, op, hash);
  }
  [[gnu::noinline]] static void* ContextMemory(ThreadState& ts) {
    static_assert(alignof(PendingContext) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
    PendingContext* ctx = ts.free;
    if (ctx == nullptr) {
      return ::operator new(sizeof(PendingContext), std::nothrow);
    }
    ts.free = ctx->next;
    ctx->~PendingContext();
    return ctx;
  }

  /// Completes a pending op and recycles its context. A compaction op
  /// reports to its pass: no completion callback or count sees it.
  void FinishPending(ThreadState& ts, PendingContext* ctx, Status result) {
    bool read = ctx->wait == Wait::kRead;
    Await(ts, ctx, Wait::kNothing);
    if (ctx->op == OpKind::kCompact) {
      static_cast<CompactPass*>(ctx->user_context)->Finish(ctx->target, result);
    } else {
      ts.counters.Add(Ctr::kCompleted);
      ctx->clock.Finish(
          read ? &Hist(obs::StoreHistogram::kPendingIoNs) : nullptr, ts.slot);
      NotifyCompletion(ctx, result);
    }
    ctx->next = ts.free;
    ts.free = ctx;
  }

  void NotifyCompletion(PendingContext* ctx, Status result) {
    if (config_.completion_callback != nullptr) {
      config_.completion_callback(
          ctx->op == OpKind::kRead ? UserOp::kRead : UserOp::kRmw, result,
          ctx->user_context);
    }
  }

  /// Continues every context on this thread's ready list, in push order:
  /// a fuzzy retry resumes; a storage read's record ends the op, resumes
  /// it, or leads one hop down the chain. One that goes pending again
  /// waits for a later call.
  void ProcessReady(ThreadState& ts) FASTER_REQUIRES_EPOCH() {
    PendingContext* next = ts.ready.TakeAll();
    if (next == nullptr) return;
    // Gated on non-empty so the CompletePending polling loop stays free
    // of counter reads between completions.
    obs::StageScope stage{obs::Stage::kIoComplete};
    while (next != nullptr) {
      PendingContext* ctx = std::exchange(next, next->next);
      if (ctx->wait == Wait::kRetry) {
        if constexpr (!kVarLen) Resume<OpKind::kRmw>(ts, ctx, nullptr);
        continue;
      }
      const RecordT* rec = ctx->record();
      uint32_t whole = 0;
      Status s = ctx->io_status != Status::kOk
                     ? Status::kIoError
                     : CheckRead(ctx->address, *rec, ctx->read_len, &whole);
      if (s != Status::kOk) {
        FinishPending(ts, ctx, s);
        continue;
      }
      if (whole != 0) {
        IssueIo(ctx, ctx->address, whole);  // the first block cut it short
        continue;
      }
      RecordInfo info = rec->info();
      if (info.in_use() && !info.invalid() &&
          Layout::KeyEquals(*rec, ctx->key)) {
        // Key matched on storage.
        if (ctx->op == OpKind::kRmw) {
          if constexpr (!kVarLen) {
            Resume<OpKind::kRmw>(ts, ctx,
                                 info.tombstone() ? nullptr : &rec->value);
          }
          continue;
        }
        if (ctx->op == OpKind::kCompact) {
          // The key's newest record: live if it is the candidate itself.
          if (ctx->address == ctx->target) {
            Resume<OpKind::kCompact>(ts, ctx, nullptr);
          } else {
            FinishPending(ts, ctx, Status::kNotFound);
          }
          continue;
        }
        if (info.tombstone()) {
          EndChain(ts, ctx, /*truncated=*/false);
          continue;
        }
        if constexpr (kMergeable) {
          // CRDT reads reconcile every delta record (Sec. 6.3).
          F::Merge(ctx->merge_acc, rec->value);
          ctx->merge_found = true;
        } else {
          F::SingleReader(ctx->key, ctx->input, Layout::ValueOf(*rec),
                          *ctx->output);
          if (rc_log_ != nullptr) {
            // Read-hot records earn a spot in the read cache (Appendix D).
            TryInsertToCache(ts, ctx->hash, *rec);
          }
          FinishPending(ts, ctx, Status::kOk);
          continue;
        }
      }
      // One hop down the chain: past padding, an invalid record (a lost
      // CAS), another key's record or a merged delta. A compaction op's
      // walk ends below its candidate.
      Address prev =
          info.in_use() ? info.previous_address() : Address::Invalid();
      if (prev.IsValid() &&
          prev >= std::max(hlog_.begin_address(), ctx->target)) {
        IssueIo(ctx, prev);
      } else {
        EndChain(ts, ctx, /*truncated=*/prev.IsValid());
      }
    }
  }

  /// A storage walk that found no record of the key to use ended: at a
  /// tombstone or the chain's end or, if `truncated`, below the begin
  /// address (a compaction op's: below its candidate). An RMW resumes (it
  /// chases a chain bottom that moved). A read that truncation cut short
  /// restarts from the index: a compaction may have moved its key to the
  /// tail (Appendix C). A mergeable read reports what it merged; otherwise
  /// the key is absent, and a compaction op's candidate dead.
  void EndChain(ThreadState& ts, PendingContext* ctx, bool truncated)
      FASTER_REQUIRES_EPOCH() {
    if (ctx->op == OpKind::kRmw) {
      if constexpr (!kVarLen) Resume<OpKind::kRmw>(ts, ctx, nullptr);
      return;
    }
    if constexpr (kMergeable) {
      if (ctx->merge_found) {
        *ctx->output = ctx->merge_acc;
        FinishPending(ts, ctx, Status::kOk);
        return;
      }
    } else if (truncated && ctx->op == OpKind::kRead) {
      Resume<OpKind::kRead>(ts, ctx, nullptr);
      return;
    }
    FinishPending(ts, ctx, Status::kNotFound);
  }

  /// Resumes a pending op of kind `kKind` through the op engine, in its
  /// own context: an RMW after its fuzzy retry or its storage read
  /// (`disk_value`: the value found, null if the key is absent on
  /// storage), a read whose storage walk truncation cut short, or a
  /// compaction op whose walk read its candidate. Going
  /// pending again, it waits in the same context; otherwise it completes.
  /// It was counted as it started.
  template <OpKind kKind>
  [[gnu::noinline]] void Resume(ThreadState& ts, PendingContext* ctx,
                                const Value* disk_value)
      FASTER_REQUIRES_EPOCH() {
    Key key = ctx->key;
    Outcome out = Resolve(ts,
                          OpRef{kKind, key, &ctx->input, disk_value,
                                ctx->output, ctx, nullptr},
                          ctx->hash);
    if (out.status == Status::kPending) return;
    if (kKind == OpKind::kRmw && out.status == Status::kOk &&
        out.counter != Ctr::kRmwInPlace) {
      ts.counters.Add(Ctr::kRmwPendingAppend);
    }
    FinishPending(ts, ctx, out.status);
  }

  // -------------------------------------------------------------------
  // Mergeable (CRDT) reads: reconcile all delta records (Sec. 6.3).
  // -------------------------------------------------------------------

  Outcome MergeableRead(ThreadState& ts, OpRef op, KeyHash hash, Address addr)
      FASTER_REQUIRES_EPOCH() {
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
            return {Status::kOk, Ctr::kReadMerged};
          }
          return {Status::kNotFound, Ctr::kReadMiss};
        }
        F::Merge(acc, r->value);
        found = true;
      }
      addr = r->info().previous_address();
    }
    if (!addr.IsValid() || addr < begin) {
      if (!found) return {Status::kNotFound, Ctr::kReadMiss};
      *op.output = acc;
      return {Status::kOk, Ctr::kReadMerged};
    }
    // Continue reconciliation on storage.
    PendingContext* ctx = NewContext(ts, op, hash);
    if (ctx == nullptr) return {Status::kOutOfMemory, Ctr::kCount};
    ctx->merge_acc = acc;
    ctx->merge_found = found;
    Await(ts, ctx, Wait::kRead, addr);
    return {Status::kPending, Ctr::kReadStable};
  }

  // -------------------------------------------------------------------
  // The log page format (DESIGN.md §8): recovery's repair pass, ScanLog,
  // CompactLog and read-cache eviction all read log pages through WalkLog.
  // -------------------------------------------------------------------

  /// How WalkLog reads a page in memory. A page below the head is read
  /// from storage, once, into the walk's buffer.
  enum class InMemory {
    kInPlace,  // the walk never refreshes its epoch
    kCopied,   // into the buffer first: the walk refreshes
    kEvicted,  // read-cache frames the cache's head just passed, in place
  };

  /// Walks the records that start in [from, to) in log order, calling
  /// `fn(Address, const RecordT&) -> Status` for each in-use one; a status
  /// other than kOk, or a failed storage read, ends the walk with it. The
  /// page format: a record never spans a page; a zero header, or a page
  /// tail too short for a record (Layout::kMinSize), ends the page; a
  /// record whose size overruns the page, or the bytes stored of it, is a
  /// torn page, which ends the walk with kCorruption.
  template <class Fn>
  Status WalkLog(Address from, Address to, InMemory mode, Fn&& fn)
      FASTER_REQUIRES_EPOCH() {
    std::vector<uint8_t> buffer;
    const uint8_t* data = nullptr;
    Address start = from, end = from;  // `data` holds [start, end)
    for (Address addr = from; addr < to;) {
      if (addr.offset() + Layout::kMinSize > Address::kPageSize) {
        addr = addr.NextPageStart();
        continue;
      }
      if (addr >= end) {
        // The bytes up to the page end, or to a record boundary before it:
        // the head, below which all is on storage, or for a copy the safe
        // read-only offset, below which only header flag bits change.
        Address head = hlog_.head_address();
        start = addr;
        end = addr.NextPageStart();
        if (mode == InMemory::kEvicted) {
          data = rc_log_->GetEvicted(addr);
        } else if (addr >= head && mode == InMemory::kInPlace) {
          data = hlog_.Get(addr);
        } else {
          buffer.resize(Address::kPageSize);
          data = buffer.data();
          if (addr < head) {
            end = std::min(end, head);
            Status s = hlog_.ReadFromDiskSync(
                addr, static_cast<uint32_t>(end - addr), buffer.data());
            if (s != Status::kOk) return s;
          } else {
            end = std::min(end, hlog_.safe_read_only_address());
            [[maybe_unused]] TsanIgnoreScope hide;  // atomic flag bits
            std::memcpy(buffer.data(), hlog_.Get(addr), end - addr);
          }
        }
      }
      if (addr + Layout::kMinSize > end) return Status::kCorruption;
      const auto* rec = reinterpret_cast<const RecordT*>(data + (addr - start));
      if (!rec->info().in_use()) {
        addr = addr.NextPageStart();
        continue;
      }
      uint32_t size = Layout::Size(*rec);
      if (addr + size > end) return Status::kCorruption;
      Status s = fn(addr, *rec);
      if (s != Status::kOk) return s;
      addr = addr + size;
    }
    return Status::kOk;
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
  obs::StatHistogram
      histograms_[static_cast<size_t>(obs::StoreHistogram::kCount)];
};

}  // namespace faster

#endif  // FASTER_CORE_FASTER_H_
