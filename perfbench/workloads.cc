#include "workloads.h"

#include <algorithm>
#include <cmath>

#include "catalog/generator.h"

namespace perfbench {

const std::vector<WorkloadSpec>& AllWorkloads() {
  static const std::vector<WorkloadSpec> workloads = [] {
    std::vector<WorkloadSpec> w(3);
    // The scalar worker DP is almost the whole arrival.
    w[0].name = "linear16_miss";
    w[0].tables = 16;
    w[0].nominal_qps = 26;
    w[0].warmup_arrivals = 40;
    w[0].serial_checks = 2;
    // Small DP: master finalize, pool dispatch, and the plan cache.
    w[1].name = "small8_mix_async";
    w[1].tables = 8;
    w[1].clients = 2;
    w[1].repeats = true;
    w[1].nominal_qps = 5000;
    w[1].warmup_arrivals = 7500;
    w[1].serial_checks = 16;
    // The same arrival stream over the wire.
    w[2] = w[1];
    w[2].name = "small8_mix_rpc";
    w[2].backend = BackendChoice::kRpc;
    w[2].nominal_qps = 2600;
    w[2].warmup_arrivals = 3900;
    return w;
  }();
  return workloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : AllWorkloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

mpqopt::MpqOptions OptionsFor(const WorkloadSpec& spec) {
  mpqopt::MpqOptions options;
  options.num_workers = kPartitions;
  return options;
}

int64_t ArrivalCount(const WorkloadSpec& spec, int seconds) {
  const auto nominal =
      static_cast<int64_t>(std::llround(spec.nominal_qps * seconds));
  return std::max(kMinArrivals, nominal);
}

int64_t RepeatSource(const WorkloadSpec& spec, int64_t i) {
  if (!spec.repeats || i % 8 < 6 || i < kReuseDistance) return -1;
  return i - kReuseDistance;
}

namespace {

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

mpqopt::Query QueryForArrival(const WorkloadSpec& spec, uint64_t seed,
                              Stream stream, int64_t i) {
  const int64_t source = RepeatSource(spec, i);
  if (source >= 0) return QueryForArrival(spec, seed, stream, source);
  const uint64_t query_seed = SplitMix64(
      SplitMix64(SplitMix64(seed) ^ static_cast<uint64_t>(stream)) ^
      static_cast<uint64_t>(i));
  mpqopt::GeneratorOptions generator;
  generator.shape = mpqopt::JoinGraphShape::kStar;
  return mpqopt::QueryGenerator(generator, query_seed).Generate(spec.tables);
}

}  // namespace perfbench
