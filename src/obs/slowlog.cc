#include "obs/slowlog.h"

#include <time.h>

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

void SlowLog::MaybeRecord(SlowOpKind kind, uint64_t key_hash,
                          uint64_t total_ns,
                          const uint64_t stage_ns[kNumSlowStages],
                          bool pending, uint32_t tid) {
  uint64_t threshold = threshold_ns_.load(std::memory_order_relaxed);
  if (threshold == kDisabled || total_ns < threshold) return;
  uint64_t seq = next_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[seq % kCapacity];
  // Seqlock write side. Claim the slot by swinging its tag to kBusy; a
  // writer that finds it busy (a lapping writer is mid-store) or already
  // holding a newer entry — both tags above `seq` — drops this one rather
  // than interleave with it.
  uint64_t tag = slot.commit.load(std::memory_order_relaxed);
  if (tag > seq ||
      !slot.commit.compare_exchange_strong(tag, kBusy,
                                           std::memory_order_acquire,
                                           std::memory_order_relaxed)) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // Release field stores order the kBusy claim before each of them: a
  // reader whose acquire load sees any of them then sees the tag moved.
  slot.wall_ns.store(WallNs(), std::memory_order_release);
  slot.key_hash.store(key_hash, std::memory_order_release);
  slot.total_ns.store(total_ns, std::memory_order_release);
  for (uint32_t i = 0; i < kNumSlowStages; ++i) {
    slot.stage_ns[i].store(stage_ns[i], std::memory_order_release);
  }
  slot.meta.store(static_cast<uint64_t>(kind) |
                      (pending ? (uint64_t{1} << 8) : 0) |
                      (static_cast<uint64_t>(tid) << 16),
                  std::memory_order_release);
  slot.commit.store(seq + 1, std::memory_order_release);
}

void SlowLog::Reset() {
  reset_floor_.store(next_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
}

uint64_t SlowLog::Len() const {
  uint64_t end = next_.load(std::memory_order_relaxed);
  uint64_t lo = end > kCapacity ? end - kCapacity : 0;
  uint64_t floor = reset_floor_.load(std::memory_order_relaxed);
  if (floor > lo) lo = floor;
  return end - lo;
}

std::vector<SlowLog::Entry> SlowLog::Snapshot(uint64_t max_entries) const {
  uint64_t end = next_.load(std::memory_order_relaxed);
  uint64_t lo = end > kCapacity ? end - kCapacity : 0;
  uint64_t floor = reset_floor_.load(std::memory_order_relaxed);
  if (floor > lo) lo = floor;
  std::vector<Entry> out;
  out.reserve(static_cast<size_t>(end - lo));
  for (uint64_t seq = end; seq > lo && out.size() < max_entries; --seq) {
    const Slot& slot = slots_[(seq - 1) % kCapacity];
    // Seqlock read side. Acquire pairs with the writer's release commit; a
    // mismatched tag means the slot is mid-overwrite by a newer entry.
    if (slot.commit.load(std::memory_order_acquire) != seq) continue;
    Entry e;
    CopyFields(slot, seq - 1, &e);
    // A writer that lapped the ring during the copy moved the tag before
    // any store the copy's acquire loads can have seen: drop the copy.
    if (slot.commit.load(std::memory_order_relaxed) != seq) continue;
    out.push_back(e);
  }
  return out;
}

bool SlowLog::ReadEntryRaw(uint64_t seq, Entry* out) const {
  const Slot& slot = slots_[seq % kCapacity];
  if (slot.commit.load(std::memory_order_relaxed) != seq + 1) return false;
  CopyFields(slot, seq, out);
  return true;
}

void SlowLog::CopyFields(const Slot& slot, uint64_t id, Entry* out) {
  out->id = id;
  out->wall_ns = slot.wall_ns.load(std::memory_order_acquire);
  out->key_hash = slot.key_hash.load(std::memory_order_acquire);
  out->total_ns = slot.total_ns.load(std::memory_order_acquire);
  for (uint32_t i = 0; i < kNumSlowStages; ++i) {
    out->stage_ns[i] = slot.stage_ns[i].load(std::memory_order_acquire);
  }
  uint64_t meta = slot.meta.load(std::memory_order_acquire);
  out->kind = static_cast<SlowOpKind>(meta & 0xff);
  out->pending = ((meta >> 8) & 0xff) != 0;
  out->tid = static_cast<uint32_t>(meta >> 16);
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
    for (uint32_t s = 0; s < kNumSlowStages; ++s) {
      std::snprintf(buf, sizeof(buf), "%s\"%s\":%" PRIu64, s != 0 ? "," : "",
                    SlowStageName(static_cast<SlowStage>(s)), e.stage_ns[s]);
      out.append(buf);
    }
    out.append("}}");
  }
  out.append("]}");
  return out;
}

SlowLog& GlobalSlowLog() {
  static SlowLog slowlog;
  return slowlog;
}

}  // namespace obs
}  // namespace faster
