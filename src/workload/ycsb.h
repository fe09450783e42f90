#ifndef FASTER_WORKLOAD_YCSB_H_
#define FASTER_WORKLOAD_YCSB_H_

#include <cstdint>
#include <memory>
#include <random>
#include <string>

#include "workload/keygen.h"

namespace faster {

/// Operation kinds in the extended YCSB-A workload of Sec. 7.1: reads,
/// blind updates (upserts), and read-modify-writes. A workload "R:BU"
/// means R% reads and BU% blind updates; "0:100 RMW" replaces the blind
/// updates with RMWs.
enum class OpKind : uint8_t { kRead, kUpsert, kRmw };

/// An extended YCSB-A workload mix (Sec. 7.1).
struct WorkloadSpec {
  uint64_t num_keys = uint64_t{1} << 20;
  Distribution distribution = Distribution::kUniform;
  double read_fraction = 0.5;  // fraction of ops that are reads
  double rmw_fraction = 0.0;   // fraction of ops that are RMWs
  // remainder are blind updates (upserts)

  std::string Name() const {
    int reads = static_cast<int>(read_fraction * 100 + 0.5);
    int rmws = static_cast<int>(rmw_fraction * 100 + 0.5);
    std::string mix = rmws > 0 ? std::to_string(reads) + ":" +
                                     std::to_string(rmws) + "RMW"
                               : std::to_string(reads) + ":" +
                                     std::to_string(100 - reads);
    return mix + "/" + DistributionName(distribution);
  }

  static WorkloadSpec Ycsb(double reads, double rmws, Distribution d,
                           uint64_t keys) {
    WorkloadSpec s;
    s.read_fraction = reads;
    s.rmw_fraction = rmws;
    s.distribution = d;
    s.num_keys = keys;
    return s;
  }
};

/// Per-thread operation stream for a workload spec.
class OpGenerator {
 public:
  struct Op {
    OpKind kind;
    uint64_t key;
  };

  OpGenerator(const WorkloadSpec& spec, uint64_t seed)
      : spec_{spec},
        keys_{MakeKeyGenerator(spec.distribution, spec.num_keys, seed)},
        rng_{seed ^ 0x9e3779b97f4a7c15ull} {}

  Op Next() {
    double p = static_cast<double>(rng_() >> 11) * (1.0 / 9007199254740992.0);
    OpKind kind;
    if (p < spec_.read_fraction) {
      kind = OpKind::kRead;
    } else if (p < spec_.read_fraction + spec_.rmw_fraction) {
      kind = OpKind::kRmw;
    } else {
      kind = OpKind::kUpsert;
    }
    return {kind, keys_->Next()};
  }

 private:
  WorkloadSpec spec_;
  std::unique_ptr<KeyGenerator> keys_;
  std::mt19937_64 rng_;
};

/// Computes the exact fraction of operations of each kind for validation.
struct MixCounts {
  uint64_t reads = 0, upserts = 0, rmws = 0;
};
MixCounts CountMix(const WorkloadSpec& spec, uint64_t samples, uint64_t seed);

}  // namespace faster

#endif  // FASTER_WORKLOAD_YCSB_H_
