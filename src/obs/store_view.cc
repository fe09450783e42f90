#include "obs/store_view.h"

#include <ostream>

#include "core/epoch.h"
#include "core/epoch_check.h"
#include "core/hash_index.h"
#include "core/record.h"
#include "device/device.h"
#include "obs/flight_recorder.h"
#include "obs/span.h"

namespace faster {
namespace obs {

StoreStats Totals(const CounterTable& t) {
  using C = StoreCounter;
  // Sums a run of StoreCounter entries, first to last (enum order).
  auto sum = [&t](C first, C last) {
    uint64_t total = 0;
    for (auto i = static_cast<size_t>(first); i <= static_cast<size_t>(last);
         ++i) {
      total += t.Sum(static_cast<C>(i));
    }
    return total;
  };
  StoreStats s;
  s.reads = sum(C::kReadMutable, C::kReadMerged) + t.Sum(C::kReadFuzzy);
  s.upserts = sum(C::kUpsertInPlace, C::kUpsertAppend);
  s.rmws = sum(C::kRmwInPlace, C::kRmwStable);
  s.deletes = sum(C::kDeleteInPlace, C::kDeleteMiss);
  s.fuzzy_rmws = t.Sum(C::kRmwFuzzyDeferred);
  s.pending_ios = t.Sum(C::kIosIssued);
  s.completed_pending = t.Sum(C::kCompleted);
  s.appended_records = t.Sum(C::kUpsertAppend) +
                       sum(C::kRmwCopy, C::kRmwDelta) +
                       t.Sum(C::kDeleteAppend) + t.Sum(C::kRmwPendingAppend);
  s.read_cache_hits = t.Sum(C::kReadRc);
  return s;
}

void CollectStats(const StoreView& v, Registry& reg) {
  // The totals are sums of the counters below; they keep their historic
  // names (and their GetStats() meaning) as precomputed scalars.
  StoreStats s = Totals(v.counters);
  reg.AddValue("store.reads", s.reads);
  reg.AddValue("store.upserts", s.upserts);
  reg.AddValue("store.rmws", s.rmws);
  reg.AddValue("store.deletes", s.deletes);
  reg.AddValue("store.fuzzy_rmws", s.fuzzy_rmws);
  reg.AddValue("store.appended_records", s.appended_records);
  reg.AddValue("store.read_cache_hits", s.read_cache_hits);
  for (size_t i = 0; i < std::size(kStoreCounterNames); ++i) {
    auto c = static_cast<StoreCounter>(i);
    reg.Add(kStoreCounterNames[i],
            IsLevel(c) ? Registry::Kind::kGauge : Registry::Kind::kCounter,
            v.counters.slots(c));
  }
  for (size_t i = 0; i < std::size(kStoreHistogramNames); ++i) {
    reg.Add(kStoreHistogramNames[i], &v.histograms[i]);
  }
  v.index->RegisterStats(reg, "index");
  v.hlog->RegisterStats(reg, "hlog");
  v.epoch->RegisterStats(reg, "epoch");
  v.hlog->device()->RegisterStats(reg, "device");
  if (v.rc_log != nullptr) v.rc_log->RegisterStats(reg, "rc_log");
}

std::string DumpStats(const StoreView& v) {
  Registry reg;
  CollectStats(v, reg);
  return reg.Json();
}

std::string DumpPrometheus(const StoreView& v) {
  Registry reg;
  CollectStats(v, reg);
  return reg.Prometheus();
}

void DumpTrace(const StoreView&, std::ostream& os) {
  WriteChromeTrace(os, SnapshotSpans());
}

std::string& JsonClose(std::string* out, const char* close) {
  if (!out->empty() && out->back() == ',') out->pop_back();
  *out += close;
  return *out;
}

void JsonField(std::string* out, const char* key, uint64_t v) {
  *out += '"';
  *out += key;
  *out += "\":";
  *out += std::to_string(v);
  *out += ',';
}

namespace {

void Array(std::string* out, const char* key, const uint64_t* v, size_t n) {
  *out += '"';
  *out += key;
  *out += "\":[";
  for (size_t i = 0; i < n; ++i) {
    *out += std::to_string(v[i]);
    *out += ',';
  }
  JsonClose(out, "],");
}

}  // namespace

std::string DebugIndexJson(const StoreView& v, uint64_t max_buckets) {
  LightEpoch& epoch = *v.epoch;
  bool was_protected = epoch.IsProtected();
  if (!was_protected) epoch.Protect();
  AssertEpochProtected(epoch);
  Address h0 = v.hlog->head_address();
  Address rc_h0 = v.rc_log != nullptr ? v.rc_log->head_address() : Address{0};
  constexpr uint32_t kMaxChainWalk = 32;
  constexpr uint32_t kOccBuckets = 16;  // live entries 0..14, then 15+
  constexpr uint32_t kLenBuckets = 17;  // chain length 0..15, then 16+
  uint64_t occupancy[kOccBuckets] = {};
  uint64_t chain_len[kLenBuckets] = {};
  uint64_t sampled_buckets = 0;
  uint64_t sampled_entries = 0;
  uint64_t overflow_buckets = 0;
  uint64_t chains_truncated = 0;
  bool ok = v.index->SampleBuckets(
      max_buckets,
      [&](uint32_t live, uint32_t overflow) {
        ++sampled_buckets;
        overflow_buckets += overflow;
        ++occupancy[live < kOccBuckets ? live : kOccBuckets - 1];
      },
      [&](HashBucketEntry e) {
        AssertEpochProtected(epoch);
        ++sampled_entries;
        uint32_t len = 0;
        Address addr = e.address();
        for (uint32_t hops = 0; hops < kMaxChainWalk && addr.control() != 0;
             ++hops) {
          // Cache copies are not primary-chain records: hop through them.
          // The walk stops where the chain continues on disk or in an
          // evicted cache page.
          bool cached = InReadCache(addr);
          Address a = cached ? StripRc(addr) : addr;
          if (cached ? v.rc_log == nullptr || a < rc_h0 : a < h0) break;
          if (!cached) ++len;
          HybridLog* log = cached ? v.rc_log : v.hlog;
          addr = RecordInfoAt(log->GetEvicted(a)).previous_address();
        }
        ++chain_len[len < kLenBuckets ? len : kLenBuckets - 1];
        // Stopped early, or hit the walk cap.
        if (addr.control() != 0) ++chains_truncated;
      });
  uint64_t table_size = v.index->size();
  uint32_t tag_bits = v.index->tag_bits();
  if (!was_protected) epoch.Unprotect();
  std::string out = ok ? "{\"resizing\":false," : "{\"resizing\":true,";
  JsonField(&out, "table_size", table_size);
  JsonField(&out, "tag_bits", tag_bits);
  if (ok) {
    JsonField(&out, "sampled_buckets", sampled_buckets);
    JsonField(&out, "sampled_entries", sampled_entries);
    JsonField(&out, "overflow_buckets", overflow_buckets);
    JsonField(&out, "chains_truncated", chains_truncated);
    JsonField(&out, "max_chain_walk", kMaxChainWalk);
    Array(&out, "bucket_occupancy", occupancy, kOccBuckets);
    Array(&out, "chain_length", chain_len, kLenBuckets);
  }
  return JsonClose(&out, "}\n");
}

namespace {

/// JSON object for one log's region markers (DebugLogJson).
void AppendRegions(std::string* out, const HybridLog& log) {
  HybridLog::RegionSnapshot s = log.SnapshotRegions();
  uint64_t ro = s.read_only.control();
  uint64_t flushed = s.flushed_until.control();
  *out += '{';
  JsonField(out, "begin", s.begin.control());
  JsonField(out, "head", s.head.control());
  JsonField(out, "safe_read_only", s.safe_read_only.control());
  JsonField(out, "flushed_until", flushed);
  JsonField(out, "read_only", ro);
  JsonField(out, "tail", s.tail.control());
  JsonField(out, "head_page", s.head.page());
  JsonField(out, "tail_page", s.tail.page());
  JsonField(out, "tail_page_offset", s.tail.offset());
  JsonField(out, "page_size", Address::kPageSize);
  JsonField(out, "buffer_pages", log.buffer_pages());
  JsonField(out, "in_memory_bytes", s.tail.control() - s.head.control());
  JsonField(out, "mutable_bytes", s.tail.control() - ro);
  JsonField(out, "flush_backlog_bytes", ro > flushed ? ro - flushed : 0);
  *out += log.io_error() ? "\"io_error\":true}" : "\"io_error\":false}";
}

}  // namespace

std::string DebugLogJson(const StoreView& v) {
  std::string out = "{\"log\":";
  AppendRegions(&out, *v.hlog);
  if (v.rc_log != nullptr) {
    out += ",\"read_cache\":";
    AppendRegions(&out, *v.rc_log);
  }
  out += "}\n";
  return out;
}

EpochsSnapshot SnapshotEpochs(const StoreView& v) {
  const LightEpoch& epoch = *v.epoch;
  EpochsSnapshot s;
  s.current = epoch.CurrentEpoch();
  s.safe = epoch.SafeToReclaimEpoch();
  s.outstanding_actions = epoch.NumOutstandingActions();
  for (uint32_t tid = 0; tid < Thread::kMaxThreads; ++tid) {
    uint64_t local = epoch.LocalEpochOf(tid);
    if (local == LightEpoch::kUnprotected) continue;
    s.threads.push_back({tid, local});
  }
  return s;
}

std::string DebugEpochsJson(const StoreView& v) {
  EpochsSnapshot s = SnapshotEpochs(v);
  std::string out = "{";
  JsonField(&out, "current_epoch", s.current);
  JsonField(&out, "safe_epoch", s.safe);
  JsonField(&out, "outstanding_actions", s.outstanding_actions);
  out += "\"threads\":[";
  for (const EpochsSnapshot::ThreadEpoch& t : s.threads) {
    out += '{';
    JsonField(&out, "tid", t.tid);
    JsonField(&out, "local_epoch", t.local_epoch);
    JsonField(&out, "lag", s.current > t.local_epoch ? s.current - t.local_epoch
                                                  : 0);
    JsonClose(&out, "},");
  }
  JsonClose(&out, "],");
  JsonField(&out, "protected_threads", s.threads.size());
  return JsonClose(&out, "}\n");
}

void FlightDetach::operator()(const void* owner) const {
  FlightRecorder::Instance().Detach(owner);
}

FlightAttachment AttachFlightRecorder(const StoreView& v) {
  FlightRecorder& rec = FlightRecorder::Instance();
  rec.Install();
  rec.AttachEpoch(v.owner, v.epoch);
  if constexpr (kStatsEnabled) rec.AttachProcessRings();
  Registry reg;
  CollectStats(v, reg);
  rec.AttachMetrics(v.owner, reg);
  return FlightAttachment{v.owner};
}

}  // namespace obs
}  // namespace faster
