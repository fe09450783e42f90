#include "obs/slowlog.h"

#include <time.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace faster {
namespace obs {

namespace {

uint64_t WallNs() {
  timespec ts;
  clock_gettime(CLOCK_REALTIME, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

}  // namespace

void SlowLog::set_threshold_ns(uint64_t ns) {
  threshold_ns_.store(ns, std::memory_order_relaxed);
  if (this == &GlobalSlowLog()) {
    SetSinks(kSinkSlowLog, armed() ? kSinkSlowLog : 0);
  }
}

void SlowLog::MaybeRecord(SlowOpKind kind, uint64_t key_hash,
                          uint64_t total_ns,
                          const uint64_t stage_ns[kNumOpStages],
                          bool pending, uint32_t tid) {
  uint64_t threshold = threshold_ns_.load(std::memory_order_relaxed);
  if (threshold == kDisabled || total_ns < threshold) return;
  Entry e{};
  e.wall_ns = WallNs();
  e.key_hash = key_hash;
  e.total_ns = total_ns;
  std::copy(stage_ns, stage_ns + kNumOpStages, e.stage_ns);
  e.kind = kind;
  e.pending = pending;
  e.tid = tid;
  ring_.Push(e);
}

std::vector<SlowLog::Entry> SlowLog::Snapshot(uint64_t max_entries) const {
  std::vector<Entry> out;
  ring_.ForEach(kCapacity, [&out](uint64_t seq, const Entry& e) {
    out.push_back(e);
    out.back().id = seq;
  });
  std::reverse(out.begin(), out.end());
  if (out.size() > max_entries) out.resize(static_cast<size_t>(max_entries));
  return out;
}

std::string SlowLog::Json() const {
  std::vector<Entry> entries = Snapshot();
  std::string out;
  out.reserve(256 + entries.size() * 256);
  char buf[256];
  std::string threshold = armed() ? std::to_string(threshold_ns()) : "null";
  std::snprintf(buf, sizeof(buf),
                "{\"threshold_ns\":%s,\"len\":%" PRIu64
                ",\"total_recorded\":%" PRIu64 ",\"entries\":[",
                threshold.c_str(), Len(), TotalRecorded());
  out.append(buf);
  for (size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    if (i != 0) out.push_back(',');
    std::snprintf(buf, sizeof(buf),
                  "{\"id\":%" PRIu64 ",\"wall_ns\":%" PRIu64
                  ",\"op\":\"%s\",\"key_hash\":\"%016" PRIx64
                  "\",\"total_ns\":%" PRIu64 ",\"pending\":%s,\"tid\":%u,"
                  "\"stages_ns\":{",
                  e.id, e.wall_ns, SlowOpKindName(e.kind), e.key_hash,
                  e.total_ns, e.pending ? "true" : "false", e.tid);
    out.append(buf);
    for (uint32_t s = 0; s < kNumOpStages; ++s) {
      std::snprintf(buf, sizeof(buf), "%s\"%s\":%" PRIu64, s != 0 ? "," : "",
                    StageName(static_cast<Stage>(s)), e.stage_ns[s]);
      out.append(buf);
    }
    out.append("}}");
  }
  out.append("]}");
  return out;
}

SlowLog& GlobalSlowLog() {
  static constinit SlowLog slowlog;
  return slowlog;
}

}  // namespace obs
}  // namespace faster
