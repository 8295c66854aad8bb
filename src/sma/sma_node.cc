// Copyright 2026 mpqopt authors.

#include "sma/sma_node.h"

#include <utility>

#include "common/serialize.h"
#include "optimizer/pruning.h"

namespace mpqopt {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

SmaNode::SmaNode(Query query, const SmaNodeOptions& options)
    : query_(std::move(query)),
      options_(options),
      model_(options.objective, options.cost_options),
      estimator_(query_),
      n_(query_.num_tables()) {
  const size_t slots = size_t{1} << n_;
  if (Scalar()) {
    memo_.assign(slots, Entry());
  } else {
    mo_memo_.assign(slots, MoEntry());
  }
  for (int t = 0; t < n_; ++t) {
    const double card = query_.table(t).cardinality;
    const uint64_t bits = uint64_t{1} << t;
    if (Scalar()) {
      memo_[bits] = {model_.ScanCost(card).time(), card, 0,
                     JoinAlgorithm::kScan};
    } else {
      MoEntry& e = mo_memo_[bits];
      e.card = card;
      e.plans.push_back(
          {model_.ScanCost(card), 0, 0, 0, JoinAlgorithm::kScan});
    }
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
    if (bits >= (uint64_t{1} << n_) || TableSet(bits).Count() < 2) {
      return Status::Corruption("assignment set out of range");
    }
    if (Scalar()) {
      StatusOr<Entry> entry = ComputeScalar(TableSet(bits));
      if (!entry.ok()) return entry.status();
      const Entry& e = entry.value();
      writer.WriteU64(bits);
      writer.WriteU8(static_cast<uint8_t>(e.alg));
      writer.WriteU64(e.left_bits);
      writer.WriteDouble(e.card);
      writer.WriteDouble(e.cost);
    } else {
      StatusOr<MoEntry> entry = ComputeMo(TableSet(bits));
      if (!entry.ok()) return entry.status();
      const MoEntry& e = entry.value();
      writer.WriteU64(bits);
      writer.WriteDouble(e.card);
      writer.WriteU32(static_cast<uint32_t>(e.plans.size()));
      for (const MoPlan& p : e.plans) {
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
  while (!reader.AtEnd()) {
    uint32_t count = 0;
    Status s = reader.ReadU32(&count);
    if (!s.ok()) return s;
    for (uint32_t i = 0; i < count; ++i) {
      uint64_t bits = 0;
      if (!(s = reader.ReadU64(&bits)).ok()) return s;
      if (bits >= (uint64_t{1} << n_)) {
        return Status::Corruption("broadcast set out of range");
      }
      if (Scalar()) {
        Entry e;
        uint8_t alg = 0;
        if (!(s = reader.ReadU8(&alg)).ok()) return s;
        if (!(s = reader.ReadU64(&e.left_bits)).ok()) return s;
        if (!(s = reader.ReadDouble(&e.card)).ok()) return s;
        if (!(s = reader.ReadDouble(&e.cost)).ok()) return s;
        e.alg = static_cast<JoinAlgorithm>(alg);
        memo_[bits] = e;
      } else {
        MoEntry e;
        uint32_t num_plans = 0;
        if (!(s = reader.ReadDouble(&e.card)).ok()) return s;
        if (!(s = reader.ReadU32(&num_plans)).ok()) return s;
        // Bound the peer's count by the bytes left before sizing the
        // frontier: a plan is at least a one-metric cost vector, its left
        // set, two child indices and the algorithm tag.
        constexpr size_t kMinPlanBytes = sizeof(uint8_t) + sizeof(double) +
                                         sizeof(uint64_t) +
                                         2 * sizeof(uint32_t) +
                                         sizeof(uint8_t);
        if (num_plans > reader.remaining() / kMinPlanBytes) {
          return Status::Corruption("broadcast plan count exceeds the payload");
        }
        e.plans.resize(num_plans);
        for (MoPlan& p : e.plans) {
          StatusOr<CostVector> cost = CostVector::Deserialize(&reader);
          if (!cost.ok()) return cost.status();
          p.cost = cost.value();
          uint8_t alg = 0;
          if (!(s = reader.ReadU64(&p.left_bits)).ok()) return s;
          if (!(s = reader.ReadU32(&p.left_idx)).ok()) return s;
          if (!(s = reader.ReadU32(&p.right_idx)).ok()) return s;
          if (!(s = reader.ReadU8(&alg)).ok()) return s;
          p.alg = static_cast<JoinAlgorithm>(alg);
        }
        mo_memo_[bits] = std::move(e);
      }
    }
  }
  return Status::OK();
}

size_t SmaNode::ApproxBytes() const {
  size_t bytes = sizeof(SmaNode);
  bytes += memo_.capacity() * sizeof(Entry);
  bytes += mo_memo_.capacity() * sizeof(MoEntry);
  for (const MoEntry& e : mo_memo_) {
    bytes += e.plans.capacity() * sizeof(MoPlan);
  }
  return bytes;
}

PlanId SmaNode::Build(TableSet s, PlanArena* arena) const {
  const Entry& e = memo_[s.bits()];
  if (s.Count() == 1) {
    return arena->MakeScan(s.Lowest(), e.card, CostVector::Scalar(e.cost));
  }
  const TableSet left(e.left_bits);
  const PlanId lid = Build(left, arena);
  const PlanId rid = Build(s.Minus(left), arena);
  return arena->MakeJoin(e.alg, lid, rid, e.card, CostVector::Scalar(e.cost));
}

size_t SmaNode::FrontierSize(TableSet s) const {
  return mo_memo_[s.bits()].plans.size();
}

PlanId SmaNode::BuildMo(TableSet s, uint32_t idx, PlanArena* arena) const {
  const MoEntry& e = mo_memo_[s.bits()];
  const MoPlan& p = e.plans[idx];
  if (s.Count() == 1) {
    return arena->MakeScan(s.Lowest(), e.card, p.cost);
  }
  const TableSet left(p.left_bits);
  const PlanId lid = BuildMo(left, p.left_idx, arena);
  const PlanId rid = BuildMo(s.Minus(left), p.right_idx, arena);
  return arena->MakeJoin(p.alg, lid, rid, e.card, p.cost);
}

StatusOr<SmaNode::Entry> SmaNode::ComputeScalar(TableSet u) const {
  Entry best;
  best.card = estimator_.Cardinality(u);
  const auto consider = [&](TableSet left, TableSet right) {
    const Entry& le = memo_[left.bits()];
    const Entry& re = memo_[right.bits()];
    // Missing sub-plans are kInf; the inf propagates and never wins, so
    // an out-of-order chunk surfaces as "no candidate" below.
    const double base = le.cost + re.cost;
    for (JoinAlgorithm alg : kJoinAlgorithms) {
      const double cost =
          base + model_.LocalJoinTime(alg, le.card, re.card, best.card);
      if (cost < best.cost) {
        best.cost = cost;
        best.left_bits = left.bits();
        best.alg = alg;
      }
    }
  };
  if (options_.space == PlanSpace::kLinear) {
    for (int t : u) consider(u.Without(t), TableSet::Single(t));
  } else {
    SubsetEnumerator subsets(u);
    while (subsets.Next()) {
      consider(subsets.current(), u.Minus(subsets.current()));
    }
  }
  if (!(best.cost < kInf)) {
    return Status::Corruption(
        "assignment references a set whose sub-plans are not in the "
        "replica yet (level stepped out of order?)");
  }
  return best;
}

StatusOr<SmaNode::MoEntry> SmaNode::ComputeMo(TableSet u) const {
  MoEntry entry;
  entry.card = estimator_.Cardinality(u);
  const auto cost_of = [](const MoPlan& p) -> const CostVector& {
    return p.cost;
  };
  const auto consider = [&](TableSet left, TableSet right) {
    const MoEntry& le = mo_memo_[left.bits()];
    const MoEntry& re = mo_memo_[right.bits()];
    for (uint32_t li = 0; li < le.plans.size(); ++li) {
      for (uint32_t ri = 0; ri < re.plans.size(); ++ri) {
        for (JoinAlgorithm alg : kJoinAlgorithms) {
          MoPlan cand;
          cand.cost =
              model_.JoinCost(alg, le.plans[li].cost, re.plans[ri].cost,
                              le.card, re.card, entry.card);
          cand.left_bits = left.bits();
          cand.left_idx = li;
          cand.right_idx = ri;
          cand.alg = alg;
          ParetoInsert(&entry.plans, cand, cost_of, options_.alpha);
        }
      }
    }
  };
  if (options_.space == PlanSpace::kLinear) {
    for (int t : u) consider(u.Without(t), TableSet::Single(t));
  } else {
    SubsetEnumerator subsets(u);
    while (subsets.Next()) {
      consider(subsets.current(), u.Minus(subsets.current()));
    }
  }
  if (entry.plans.empty()) {
    // An empty frontier means the sub-frontiers were empty: the lower
    // levels have not been broadcast into this replica.
    return Status::Corruption(
        "assignment references a set whose sub-plans are not in the "
        "replica yet (level stepped out of order?)");
  }
  return entry;
}

}  // namespace mpqopt
