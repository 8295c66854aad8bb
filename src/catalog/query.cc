// Copyright 2026 mpqopt authors.

#include "catalog/query.h"

#include <cmath>
#include <cstdio>

namespace mpqopt {
namespace {

/// Wire size of one predicate: four u32 indices and the selectivity.
constexpr size_t kPredicateBytes = 4 * sizeof(uint32_t) + sizeof(double);

std::string CountError(const char* what, uint32_t count,
                       const ByteReader& reader) {
  return std::string(what) + " count " + std::to_string(count) +
         " exceeds the " + std::to_string(reader.remaining()) +
         " bytes left";
}

}  // namespace

const char* JoinGraphShapeName(JoinGraphShape shape) {
  switch (shape) {
    case JoinGraphShape::kChain:
      return "chain";
    case JoinGraphShape::kStar:
      return "star";
    case JoinGraphShape::kCycle:
      return "cycle";
    case JoinGraphShape::kClique:
      return "clique";
  }
  return "unknown";
}

Status Query::Validate() const {
  if (tables_.empty()) {
    return Status::InvalidArgument("query has no tables");
  }
  if (num_tables() > kMaxTables) {
    return Status::InvalidArgument("query exceeds kMaxTables tables");
  }
  for (const TableInfo& t : tables_) {
    if (!(t.cardinality > 0 && std::isfinite(t.cardinality))) {
      return Status::InvalidArgument(
          "table cardinality must be positive and finite");
    }
    for (double d : t.attribute_domains) {
      if (!(d >= 1)) {
        return Status::InvalidArgument("attribute domain must be >= 1");
      }
    }
  }
  for (const JoinPredicate& p : predicates_) {
    if (p.left_table < 0 || p.left_table >= num_tables() ||
        p.right_table < 0 || p.right_table >= num_tables()) {
      return Status::InvalidArgument("predicate table index out of range");
    }
    if (p.left_table == p.right_table) {
      return Status::InvalidArgument("self-join predicate not supported");
    }
    const auto& lt = tables_[p.left_table];
    const auto& rt = tables_[p.right_table];
    if (p.left_attribute < 0 ||
        p.left_attribute >= static_cast<int>(lt.attribute_domains.size()) ||
        p.right_attribute < 0 ||
        p.right_attribute >= static_cast<int>(rt.attribute_domains.size())) {
      return Status::InvalidArgument("predicate attribute index out of range");
    }
    if (!(p.selectivity > 0.0 && p.selectivity <= 1.0)) {
      return Status::InvalidArgument("selectivity must be in (0, 1]");
    }
  }
  return Status::OK();
}

void Query::Serialize(ByteWriter* writer) const {
  writer->WriteU32(static_cast<uint32_t>(tables_.size()));
  for (const TableInfo& t : tables_) {
    writer->WriteDouble(t.cardinality);
    writer->WriteU32(static_cast<uint32_t>(t.attribute_domains.size()));
    for (double d : t.attribute_domains) writer->WriteDouble(d);
    writer->WriteString(t.name);
  }
  writer->WriteU32(static_cast<uint32_t>(predicates_.size()));
  for (const JoinPredicate& p : predicates_) {
    writer->WriteU32(static_cast<uint32_t>(p.left_table));
    writer->WriteU32(static_cast<uint32_t>(p.left_attribute));
    writer->WriteU32(static_cast<uint32_t>(p.right_table));
    writer->WriteU32(static_cast<uint32_t>(p.right_attribute));
    writer->WriteDouble(p.selectivity);
  }
}

StatusOr<Query> Query::Deserialize(ByteReader* reader) {
  uint32_t num_tables = 0;
  Status s = reader->ReadU32(&num_tables);
  if (!s.ok()) return s;
  if (num_tables > static_cast<uint32_t>(kMaxTables)) {
    return Status::Corruption("table count exceeds kMaxTables");
  }
  std::vector<TableInfo> tables(num_tables);
  for (TableInfo& t : tables) {
    if (!(s = reader->ReadDouble(&t.cardinality)).ok()) return s;
    uint32_t num_attrs = 0;
    if (!(s = reader->ReadU32(&num_attrs)).ok()) return s;
    // Bound every count by the bytes left before allocating for it.
    if (num_attrs > reader->remaining() / sizeof(double)) {
      return Status::Corruption(CountError("attribute", num_attrs, *reader));
    }
    t.attribute_domains.resize(num_attrs);
    for (double& d : t.attribute_domains) {
      if (!(s = reader->ReadDouble(&d)).ok()) return s;
    }
    if (!(s = reader->ReadString(&t.name)).ok()) return s;
  }
  uint32_t num_preds = 0;
  if (!(s = reader->ReadU32(&num_preds)).ok()) return s;
  if (num_preds > reader->remaining() / kPredicateBytes) {
    return Status::Corruption(CountError("predicate", num_preds, *reader));
  }
  std::vector<JoinPredicate> preds(num_preds);
  for (JoinPredicate& p : preds) {
    uint32_t lt = 0, la = 0, rt = 0, ra = 0;
    if (!(s = reader->ReadU32(&lt)).ok()) return s;
    if (!(s = reader->ReadU32(&la)).ok()) return s;
    if (!(s = reader->ReadU32(&rt)).ok()) return s;
    if (!(s = reader->ReadU32(&ra)).ok()) return s;
    if (!(s = reader->ReadDouble(&p.selectivity)).ok()) return s;
    p.left_table = static_cast<int>(lt);
    p.left_attribute = static_cast<int>(la);
    p.right_table = static_cast<int>(rt);
    p.right_attribute = static_cast<int>(ra);
  }
  Query query(std::move(tables), std::move(preds));
  s = query.Validate();
  if (!s.ok()) return Status::Corruption("invalid query: " + s.message());
  return query;
}

std::vector<std::pair<std::string, double>> Query::TableStatistics() const {
  std::vector<std::pair<std::string, double>> stats;
  stats.reserve(tables_.size());
  for (const TableInfo& t : tables_) stats.emplace_back(t.name, t.cardinality);
  return stats;
}

std::string Query::ToString() const {
  std::string out = "Query with " + std::to_string(num_tables()) + " tables\n";
  char buf[128];
  for (int i = 0; i < num_tables(); ++i) {
    const TableInfo& t = tables_[i];
    std::snprintf(buf, sizeof(buf), "  [%d] %s card=%.0f attrs=%zu\n", i,
                  t.name.empty() ? "?" : t.name.c_str(), t.cardinality,
                  t.attribute_domains.size());
    out += buf;
  }
  for (const JoinPredicate& p : predicates_) {
    std::snprintf(buf, sizeof(buf), "  T%d.a%d = T%d.a%d (sel=%.3g)\n",
                  p.left_table, p.left_attribute, p.right_table,
                  p.right_attribute, p.selectivity);
    out += buf;
  }
  return out;
}

}  // namespace mpqopt
