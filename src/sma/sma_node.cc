// Copyright 2026 mpqopt authors.

#include "sma/sma_node.h"

#include <utility>

#include "common/serialize.h"

namespace mpqopt {
namespace {

/// Joins the splits of `u` with `dp`'s kernels in SMA's own order:
/// ascending inner table for linear plans, SubsetEnumerator's order for
/// bushy ones. The memo is addressed by bit pattern.
template <typename Dp>
typename Dp::State JoinSplits(Dp* dp, PlanSpace space, TableSet u) {
  typename Dp::State state = dp->Begin(u);
  if (space == PlanSpace::kLinear) {
    for (int t : u) {
      const TableSet left = u.Without(t);
      dp->Join(&state, left, dp->Entry(left.bits()), dp->Scan(t));
    }
  } else {
    SubsetEnumerator subsets(u);
    while (subsets.Next()) {
      const TableSet left = subsets.current();
      dp->Join(&state, left, dp->Entry(left.bits()),
               dp->Entry(u.Minus(left).bits()));
    }
  }
  return state;
}

Status NotInReplica() {
  return Status::Corruption(
      "assignment references a set whose sub-plans are not in the "
      "replica yet (level stepped out of order?)");
}

/// The rules every broadcast plan obeys, so that plan extraction
/// terminates: a join whose left operand is a non-empty proper subset of
/// the set (for linear plans, all but one table) and whose operands are
/// `installed`.
template <typename Installed>
Status CheckJoin(uint64_t set, uint64_t left, JoinAlgorithm alg,
                 PlanSpace space, const Installed& installed) {
  const TableSet right(set & ~left);
  if (alg < JoinAlgorithm::kBlockNestedLoop ||
      alg > JoinAlgorithm::kSortMergeJoin) {
    return Status::Corruption("broadcast entry is not a join");
  }
  if (left == 0 || (left & ~set) != 0 || right.IsEmpty() ||
      (space == PlanSpace::kLinear && right.Count() != 1)) {
    return Status::Corruption("broadcast entry does not split its set");
  }
  if (!installed(left, right.bits())) {
    return Status::Corruption("broadcast operand not installed");
  }
  return Status::OK();
}

}  // namespace

SmaNode::SmaNode(Query query, const SmaNodeOptions& options)
    : query_(std::move(query)),
      options_(options),
      model_(options.objective, options.cost_options),
      index_(query_.num_tables(), ConstraintSet::None(options.space)) {
  if (Scalar()) {
    scalar_.emplace(query_, index_, model_);
  } else {
    pareto_.emplace(query_, index_, model_, options_.alpha);
  }
}

std::vector<uint8_t> SmaNode::BuildOpenRequest(const Query& query,
                                               const SmaNodeOptions& options) {
  ByteWriter writer;
  query.Serialize(&writer);
  writer.WriteU8(static_cast<uint8_t>(options.space));
  writer.WriteU8(static_cast<uint8_t>(options.objective));
  writer.WriteDouble(options.alpha);
  writer.WriteDouble(options.cost_options.block_size);
  writer.WriteDouble(options.cost_options.hash_constant);
  writer.WriteDouble(options.cost_options.output_cost_factor);
  writer.WriteDouble(options.cost_options.sorted_scan_factor);
  return writer.Release();
}

StatusOr<std::unique_ptr<SmaNode>> SmaNode::FromOpenRequest(
    const std::vector<uint8_t>& request) {
  ByteReader reader(request);
  StatusOr<Query> query = Query::Deserialize(&reader);
  if (!query.ok()) return query.status();
  SmaNodeOptions options;
  uint8_t space_raw = 0;
  uint8_t objective_raw = 0;
  Status s;
  if (!(s = reader.ReadU8(&space_raw)).ok()) return s;
  if (!(s = reader.ReadU8(&objective_raw)).ok()) return s;
  if (!(s = reader.ReadDouble(&options.alpha)).ok()) return s;
  if (!(s = reader.ReadDouble(&options.cost_options.block_size)).ok()) {
    return s;
  }
  if (!(s = reader.ReadDouble(&options.cost_options.hash_constant)).ok()) {
    return s;
  }
  if (!(s = reader.ReadDouble(&options.cost_options.output_cost_factor))
           .ok()) {
    return s;
  }
  if (!(s = reader.ReadDouble(&options.cost_options.sorted_scan_factor))
           .ok()) {
    return s;
  }
  options.space = static_cast<PlanSpace>(space_raw);
  options.objective = static_cast<Objective>(objective_raw);
  Status valid = query.value().Validate();
  if (!valid.ok()) return valid;
  return std::make_unique<SmaNode>(std::move(query).value(), options);
}

StatusOr<std::vector<uint8_t>> SmaNode::HandleStep(
    const std::vector<uint8_t>& request) {
  if (request.empty()) {
    return Status::Corruption("empty SMA step request");
  }
  const uint8_t op = request[0];
  const uint8_t* body = request.data() + 1;
  const size_t body_size = request.size() - 1;
  switch (op) {
    case kSmaComputeChunkOp:
      return ComputeChunk(body, body_size);
    case kSmaApplyBroadcastOp: {
      Status s = ApplyBroadcast(body, body_size);
      if (!s.ok()) return s;
      return std::vector<uint8_t>();
    }
    default:
      return Status::Corruption("unknown SMA step op " + std::to_string(op));
  }
}

StatusOr<std::vector<uint8_t>> SmaNode::ComputeChunk(const uint8_t* data,
                                                     size_t size) {
  ByteReader reader(data, size);
  uint32_t count = 0;
  Status s = reader.ReadU32(&count);
  if (!s.ok()) return s;
  ByteWriter writer;
  writer.WriteU32(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint64_t bits = 0;
    if (!(s = reader.ReadU64(&bits)).ok()) return s;
    // Range-check before indexing the memo: this request may arrive over
    // a real socket, and a corrupt set must fail the step, not the node
    // (singleton sets are base cases, never assignments).
    if (bits >= static_cast<uint64_t>(index_.size()) ||
        TableSet(bits).Count() < 2) {
      return Status::Corruption("assignment set out of range");
    }
    // A sub-plan missing from the replica costs kInfiniteCost or has no
    // plans, so it never yields a candidate.
    if (Scalar()) {
      const ScalarDp::State state =
          JoinSplits(&*scalar_, options_.space, TableSet(bits));
      if (!(state.cost < kInfiniteCost)) return NotInReplica();
      writer.WriteU64(bits);
      writer.WriteU8(static_cast<uint8_t>(state.alg));
      writer.WriteU64(state.left_bits);
      writer.WriteDouble(state.out_card);
      writer.WriteDouble(state.cost);
    } else {
      const ParetoDp::State state =
          JoinSplits(&*pareto_, options_.space, TableSet(bits));
      const std::vector<ParetoPlanRef>& frontier = pareto_->frontier();
      if (frontier.empty()) return NotInReplica();
      writer.WriteU64(bits);
      writer.WriteDouble(state.out_card);
      writer.WriteU32(static_cast<uint32_t>(frontier.size()));
      for (const ParetoPlanRef& p : frontier) {
        p.cost.Serialize(&writer);
        writer.WriteU64(p.left_bits);
        writer.WriteU32(p.left_idx);
        writer.WriteU32(p.right_idx);
        writer.WriteU8(static_cast<uint8_t>(p.alg));
      }
    }
  }
  return writer.Release();
}

Status SmaNode::ApplyBroadcast(const uint8_t* data, size_t size) {
  ByteReader reader(data, size);
  std::vector<ParetoPlanRef> frontier;  // reused across entries
  while (!reader.AtEnd()) {
    uint32_t count = 0;
    Status s = reader.ReadU32(&count);
    if (!s.ok()) return s;
    for (uint32_t i = 0; i < count; ++i) {
      uint64_t bits = 0;
      if (!(s = reader.ReadU64(&bits)).ok()) return s;
      if (bits >= static_cast<uint64_t>(index_.size())) {
        return Status::Corruption("broadcast set out of range");
      }
      double card = 0;
      if (Scalar()) {
        ScalarEntry e;
        uint8_t alg = 0;
        if (!(s = reader.ReadU8(&alg)).ok()) return s;
        if (!(s = reader.ReadU64(&e.left_bits)).ok()) return s;
        if (!(s = reader.ReadDouble(&card)).ok()) return s;
        if (!(s = reader.ReadDouble(&e.cost)).ok()) return s;
        e.alg = static_cast<JoinAlgorithm>(alg);
        const auto installed = [&](uint64_t set) {
          return scalar_->Entry(set).cost < kInfiniteCost;
        };
        if (installed(bits)) {
          return Status::Corruption("broadcast set already installed");
        }
        s = CheckJoin(bits, e.left_bits, e.alg, options_.space,
                      [&](uint64_t l, uint64_t r) {
                        return installed(l) && installed(r);
                      });
        if (!s.ok()) return s;
        scalar_->Store(bits, card, e);
        continue;
      }
      uint32_t num_plans = 0;
      if (!(s = reader.ReadDouble(&card)).ok()) return s;
      if (!(s = reader.ReadU32(&num_plans)).ok()) return s;
      // Bound the peer's count by the bytes left before sizing the
      // frontier: a plan is at least a one-metric cost vector, its left
      // set, two child indices and the algorithm tag.
      constexpr size_t kMinPlanBytes = sizeof(uint8_t) + sizeof(double) +
                                       sizeof(uint64_t) +
                                       2 * sizeof(uint32_t) + sizeof(uint8_t);
      if (num_plans > reader.remaining() / kMinPlanBytes) {
        return Status::Corruption("broadcast plan count exceeds the payload");
      }
      if (num_plans == 0) {
        return Status::Corruption("broadcast frontier is empty");
      }
      if (pareto_->Entry(bits).num_plans > 0) {
        return Status::Corruption("broadcast set already installed");
      }
      frontier.resize(num_plans);
      for (ParetoPlanRef& p : frontier) {
        StatusOr<CostVector> cost = CostVector::Deserialize(&reader);
        if (!cost.ok()) return cost.status();
        p.cost = cost.value();
        uint8_t alg = 0;
        if (!(s = reader.ReadU64(&p.left_bits)).ok()) return s;
        if (!(s = reader.ReadU32(&p.left_idx)).ok()) return s;
        if (!(s = reader.ReadU32(&p.right_idx)).ok()) return s;
        if (!(s = reader.ReadU8(&alg)).ok()) return s;
        p.alg = static_cast<JoinAlgorithm>(alg);
        s = CheckJoin(bits, p.left_bits, p.alg, options_.space,
                      [&](uint64_t l, uint64_t r) {
                        return p.left_idx < pareto_->Entry(l).num_plans &&
                               p.right_idx < pareto_->Entry(r).num_plans;
                      });
        if (!s.ok()) return s;
      }
      pareto_->Store(bits, card, frontier.data(), frontier.size());
    }
  }
  return Status::OK();
}

size_t SmaNode::ApproxBytes() const {
  return sizeof(SmaNode) +
         (Scalar() ? scalar_->ApproxBytes() : pareto_->ApproxBytes());
}

Status SmaNode::BuildBest(PlanArena* arena, std::vector<PlanId>* best) const {
  const TableSet all = query_.all_tables();
  if (Scalar()) {
    if (!(scalar_->Entry(all.bits()).cost < kInfiniteCost)) {
      return Status::Corruption("the full query has no plan installed");
    }
    best->push_back(BuildPlan(index_, *scalar_, all, 0, arena));
    return Status::OK();
  }
  const uint32_t frontier = pareto_->Entry(all.bits()).num_plans;
  if (frontier == 0) {
    return Status::Corruption("the full query has no plan installed");
  }
  for (uint32_t i = 0; i < frontier; ++i) {
    best->push_back(BuildPlan(index_, *pareto_, all, i, arena));
  }
  return Status::OK();
}

}  // namespace mpqopt
