// Copyright 2026 mpqopt authors.

#include "optimizer/pqo.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "cost/cardinality.h"
#include "optimizer/partition_dp.h"

namespace mpqopt {
namespace {

/// Product of two affine costs where at most one side actually depends on
/// theta (join operands are disjoint table sets, so this always holds).
AffineCost AffineMul(const AffineCost& x, const AffineCost& y) {
  MPQOPT_DCHECK(x.slope == 0 || y.slope == 0);
  if (x.slope == 0) return {x.constant * y.constant, x.constant * y.slope};
  return {x.constant * y.constant, x.slope * y.constant};
}

/// Candidate evaluation points: 0, 1, and midpoints between consecutive
/// pairwise crossings inside (0, 1). Within each resulting region the
/// argmin line is constant, so evaluating the regions' midpoints finds
/// every line that is minimal somewhere.
std::vector<double> RegionProbes(const std::vector<AffineCost>& lines) {
  std::vector<double> cuts = {0.0, 1.0};
  for (size_t i = 0; i < lines.size(); ++i) {
    for (size_t j = i + 1; j < lines.size(); ++j) {
      const double denom = lines[i].slope - lines[j].slope;
      if (denom == 0) continue;
      const double theta = (lines[j].constant - lines[i].constant) / denom;
      if (theta > 0 && theta < 1) cuts.push_back(theta);
    }
  }
  std::sort(cuts.begin(), cuts.end());
  std::vector<double> probes;
  probes.push_back(0.0);
  for (size_t i = 0; i + 1 < cuts.size(); ++i) {
    probes.push_back(0.5 * (cuts[i] + cuts[i + 1]));
  }
  probes.push_back(1.0);
  return probes;
}

size_t ArgMinAt(const std::vector<AffineCost>& lines, double theta) {
  size_t best = 0;
  for (size_t i = 1; i < lines.size(); ++i) {
    if (lines[i].At(theta) < lines[best].At(theta)) best = i;
  }
  return best;
}

/// One kept plan of a parametric memo slot.
struct PqoRef {
  AffineCost cost;
  uint64_t left_bits = 0;
  uint32_t left_idx = 0;
  uint32_t right_idx = 0;
  JoinAlgorithm alg = JoinAlgorithm::kScan;
};

struct PqoEntry {
  AffineCost card;
  std::vector<PqoRef> plans;
};

/// Drops plans that are nowhere minimal over [0, 1].
void EnvelopePrune(std::vector<PqoRef>* plans) {
  if (plans->size() <= 1) return;
  std::vector<AffineCost> lines;
  lines.reserve(plans->size());
  for (const PqoRef& p : *plans) lines.push_back(p.cost);
  std::vector<size_t> keep = LowerEnvelope(lines);
  std::vector<PqoRef> pruned;
  pruned.reserve(keep.size());
  for (size_t idx : keep) pruned.push_back((*plans)[idx]);
  plans->swap(pruned);
}

class ParametricDp {
 public:
  /// The set under construction: its affine cardinality and the plans
  /// kept so far.
  using State = PqoEntry;

  ParametricDp(const Query& query, const PartitionIndex& index,
               const PqoConfig& config)
      : query_(query),
        config_(config),
        memo_(static_cast<size_t>(index.size())),
        scan_entries_(query.num_tables()) {
    for (int t = 0; t < query.num_tables(); ++t) {
      PqoEntry& e = scan_entries_[t];
      e.card = TableCard(t);
      e.plans.push_back({e.card, 0, 0, 0, JoinAlgorithm::kScan});
      const int64_t rank = index.Rank(TableSet::Single(t));
      if (rank >= 0) memo_[static_cast<size_t>(rank)] = e;
    }
  }

  State Begin(TableSet u, double product) const {
    return {SetCard(u, product), {}};
  }

  void Join(State* entry, TableSet left, int64_t /*left_rank*/,
            const PqoEntry& le, const PqoEntry& re) const {
    const CostModelOptions& opts = config_.cost_options;
    for (uint32_t li = 0; li < le.plans.size(); ++li) {
      for (uint32_t ri = 0; ri < re.plans.size(); ++ri) {
        const AffineCost base = le.plans[li].cost.Plus(re.plans[ri].cost);
        const AffineCost out = entry->card.Scaled(opts.output_cost_factor);
        const auto offer = [&](const AffineCost& cost, JoinAlgorithm alg) {
          entry->plans.push_back({cost, left.bits(), li, ri, alg});
        };
        // Block nested loop (smooth block model: |L| + |L||R|/B + out).
        offer(base.Plus(le.card)
                  .Plus(AffineMul(le.card.Scaled(1.0 / opts.block_size),
                                  re.card))
                  .Plus(out),
              JoinAlgorithm::kBlockNestedLoop);
        // Hash join: c_h * (|L| + |R|) + out.
        offer(base.Plus(le.card.Plus(re.card).Scaled(opts.hash_constant))
                  .Plus(out),
              JoinAlgorithm::kHashJoin);
        if (entry->plans.size() > 64) EnvelopePrune(&entry->plans);
      }
    }
  }

  void End(State* entry, int64_t rank) {
    EnvelopePrune(&entry->plans);
    MPQOPT_CHECK(!entry->plans.empty());
    memo_[static_cast<size_t>(rank)] = std::move(*entry);
  }

  const PqoEntry& Entry(int64_t rank) const {
    return memo_[static_cast<size_t>(rank)];
  }
  const PqoEntry& Scan(int t) const { return scan_entries_[t]; }
  /// PlanNode cost convention in PQO results: metric 0 = the affine
  /// constant, metric 1 = the slope; cardinality is taken at theta = 0.5.
  DpNode Node(const PqoEntry& e, uint32_t idx) const {
    const PqoRef& p = e.plans[idx];
    return {e.card.At(0.5),
            CostVector::TimeBuffer(p.cost.constant, p.cost.slope),
            p.alg,
            TableSet(p.left_bits),
            p.left_idx,
            p.right_idx};
  }
  DpNode Node(int64_t rank, uint32_t idx) const {
    return Node(Entry(rank), idx);
  }

 private:
  AffineCost TableCard(int t) const {
    const double base = query_.table(t).cardinality;
    if (t == config_.parametric_table) {
      return {base, base * config_.variability};
    }
    return AffineCost::Constant(base);
  }

  /// Affine cardinality of a table set from its unclamped product (no
  /// one-row clamping — clamping would break affinity; parametric costs
  /// may therefore dip below one row for extremely selective queries,
  /// which only shifts envelopes), with the parametric factor on top.
  AffineCost SetCard(TableSet s, double product) const {
    AffineCost card = AffineCost::Constant(product);
    if (s.Contains(config_.parametric_table)) {
      card.slope = product * config_.variability;
    }
    return card;
  }

  const Query& query_;
  const PqoConfig& config_;
  std::vector<PqoEntry> memo_;
  std::vector<PqoEntry> scan_entries_;
};

/// Converts an envelope of (plan, line) pairs into interval-annotated
/// PqoPlans ordered by theta.
std::vector<PqoPlan> IntervalsFromEnvelope(
    const std::vector<PlanId>& plans, const std::vector<AffineCost>& lines) {
  MPQOPT_CHECK_EQ(plans.size(), lines.size());
  std::vector<double> probes = RegionProbes(lines);
  std::vector<PqoPlan> out;
  // Region boundaries: reconstruct cut points from the probes (probes are
  // 0, midpoints, 1; the winning line changes only at cuts).
  std::vector<std::pair<double, size_t>> winners;  // (probe, argmin)
  for (double theta : probes) {
    winners.push_back({theta, ArgMinAt(lines, theta)});
  }
  size_t i = 0;
  while (i < winners.size()) {
    size_t j = i;
    while (j + 1 < winners.size() &&
           winners[j + 1].second == winners[i].second) {
      ++j;
    }
    PqoPlan plan;
    const size_t idx = winners[i].second;
    plan.plan = plans[idx];
    plan.cost = lines[idx];
    // Interval endpoints: exact crossings with the neighbouring winners.
    plan.theta_begin = out.empty() ? 0.0 : out.back().theta_end;
    if (j + 1 < winners.size()) {
      const AffineCost& a = lines[idx];
      const AffineCost& b = lines[winners[j + 1].second];
      const double denom = a.slope - b.slope;
      const double crossing = denom == 0 ? winners[j + 1].first
                                         : (b.constant - a.constant) / denom;
      // The winner changes between probes j and j + 1, so the crossing
      // lies between them; rounding can put it outside (two lines with
      // the same constant and slopes one rounding apart cross at 0). The
      // interval's begin is at most probe i's theta, so clamped into the
      // bracket the interval never runs backwards.
      plan.theta_end =
          std::clamp(crossing, winners[j].first, winners[j + 1].first);
    } else {
      plan.theta_end = 1.0;
    }
    out.push_back(plan);
    i = j + 1;
  }
  return out;
}

}  // namespace

std::vector<size_t> LowerEnvelope(const std::vector<AffineCost>& lines) {
  std::vector<size_t> keep;
  if (lines.empty()) return keep;
  const std::vector<double> probes = RegionProbes(lines);
  std::vector<bool> marked(lines.size(), false);
  for (double theta : probes) {
    marked[ArgMinAt(lines, theta)] = true;
  }
  for (size_t i = 0; i < lines.size(); ++i) {
    if (marked[i]) keep.push_back(i);
  }
  return keep;
}

StatusOr<PqoResult> RunParametricDp(const Query& query,
                                    const ConstraintSet& constraints,
                                    const PqoConfig& config) {
  if (config.parametric_table < 0 ||
      config.parametric_table >= query.num_tables()) {
    return Status::InvalidArgument("parametric table out of range");
  }
  if (config.variability < 0) {
    return Status::InvalidArgument("variability must be non-negative");
  }
  const PartitionIndex* opened = nullptr;
  Status s = OpenPartition(query, constraints, config.space,
                           config.max_memo_entries, &opened);
  if (!s.ok()) return s;
  const PartitionIndex& index = *opened;

  PqoResult result;
  result.admissible_sets = index.size();
  const auto start = std::chrono::steady_clock::now();
  ParametricDp dp(query, index, config);
  if (query.num_tables() == 1) {
    const double card = query.table(0).cardinality;
    PqoPlan plan;
    plan.plan = result.arena.MakeScan(
        0, card, CostVector::TimeBuffer(card, 0));
    plan.cost = {card, config.parametric_table == 0
                           ? card * config.variability
                           : 0};
    plan.theta_begin = 0;
    plan.theta_end = 1;
    result.plans.push_back(plan);
  } else {
    result.splits_tried = WalkPartition(query, index, &dp);
    const TableSet all = query.all_tables();
    const std::vector<PqoRef>& envelope = dp.Entry(index.Rank(all)).plans;
    std::vector<PlanId> plans;
    std::vector<AffineCost> lines;
    for (uint32_t i = 0; i < envelope.size(); ++i) {
      plans.push_back(BuildPlan(index, dp, all, i, &result.arena));
      lines.push_back(envelope[i].cost);
    }
    result.plans = IntervalsFromEnvelope(plans, lines);
  }
  const auto end = std::chrono::steady_clock::now();
  result.seconds = std::chrono::duration<double>(end - start).count();
  return result;
}

StatusOr<PqoResult> ParallelParametricOptimize(const Query& query,
                                               uint64_t num_partitions,
                                               const PqoConfig& config) {
  if (!IsPowerOfTwo(num_partitions)) {
    return Status::InvalidArgument("partition count must be a power of two");
  }
  PqoResult merged;
  std::vector<PlanId> plans;
  std::vector<AffineCost> lines;
  for (uint64_t part = 0; part < num_partitions; ++part) {
    StatusOr<ConstraintSet> constraints = ConstraintSet::FromPartitionId(
        query.num_tables(), config.space, part, num_partitions);
    if (!constraints.ok()) return constraints.status();
    StatusOr<PqoResult> result =
        RunParametricDp(query, constraints.value(), config);
    if (!result.ok()) return result.status();
    merged.admissible_sets =
        std::max(merged.admissible_sets, result.value().admissible_sets);
    merged.splits_tried += result.value().splits_tried;
    merged.seconds += result.value().seconds;
    // Re-materialize the partition's envelope plans into the master arena
    // (mirrors the master-side deserialization of worker responses).
    for (const PqoPlan& plan : result.value().plans) {
      plans.push_back(CopyPlan(result.value().arena, plan.plan,
                               &merged.arena));
      lines.push_back(plan.cost);
    }
  }
  // Master final prune: global lower envelope over partition envelopes.
  const std::vector<size_t> keep = LowerEnvelope(lines);
  std::vector<PlanId> kept_plans;
  std::vector<AffineCost> kept_lines;
  for (size_t idx : keep) {
    kept_plans.push_back(plans[idx]);
    kept_lines.push_back(lines[idx]);
  }
  merged.plans = IntervalsFromEnvelope(kept_plans, kept_lines);
  return merged;
}

}  // namespace mpqopt
