// Copyright 2026 mpqopt authors.

#include "catalog/query.h"

#include <gtest/gtest.h>

#include <limits>

#include "common/serialize.h"

namespace mpqopt {
namespace {

Query MakeValidQuery() {
  std::vector<TableInfo> tables(3);
  for (int i = 0; i < 3; ++i) {
    tables[i].cardinality = 100.0 * (i + 1);
    tables[i].attribute_domains = {10.0, 20.0};
    tables[i].name = "R" + std::to_string(i);
  }
  std::vector<JoinPredicate> preds;
  preds.push_back({0, 0, 1, 1, 0.05});
  preds.push_back({1, 0, 2, 0, 0.1});
  return Query(std::move(tables), std::move(preds));
}

TEST(QueryTest, ValidQueryValidates) {
  EXPECT_TRUE(MakeValidQuery().Validate().ok());
}

TEST(QueryTest, EmptyQueryRejected) {
  Query q;
  EXPECT_FALSE(q.Validate().ok());
}

TEST(QueryTest, NonPositiveCardinalityRejected) {
  std::vector<TableInfo> tables(1);
  tables[0].cardinality = 0;
  Query q(std::move(tables), {});
  EXPECT_FALSE(q.Validate().ok());
}

TEST(QueryTest, NonFiniteCardinalityRejected) {
  for (double card : {std::numeric_limits<double>::infinity(),
                      std::numeric_limits<double>::quiet_NaN()}) {
    std::vector<TableInfo> tables(1);
    tables[0].cardinality = card;
    Query q(std::move(tables), {});
    EXPECT_EQ(q.Validate().code(), StatusCode::kInvalidArgument) << card;
  }
}

TEST(QueryTest, PredicateTableOutOfRangeRejected) {
  std::vector<TableInfo> tables(2);
  tables[0].cardinality = tables[1].cardinality = 10;
  tables[0].attribute_domains = tables[1].attribute_domains = {5.0};
  std::vector<JoinPredicate> preds = {{0, 0, 7, 0, 0.5}};
  Query q(std::move(tables), std::move(preds));
  EXPECT_FALSE(q.Validate().ok());
}

TEST(QueryTest, SelfJoinPredicateRejected) {
  std::vector<TableInfo> tables(2);
  tables[0].cardinality = tables[1].cardinality = 10;
  tables[0].attribute_domains = tables[1].attribute_domains = {5.0};
  std::vector<JoinPredicate> preds = {{1, 0, 1, 0, 0.5}};
  Query q(std::move(tables), std::move(preds));
  EXPECT_FALSE(q.Validate().ok());
}

TEST(QueryTest, SelectivityOutOfRangeRejected) {
  std::vector<TableInfo> tables(2);
  tables[0].cardinality = tables[1].cardinality = 10;
  tables[0].attribute_domains = tables[1].attribute_domains = {5.0};
  std::vector<JoinPredicate> preds = {{0, 0, 1, 0, 1.5}};
  Query q(std::move(tables), std::move(preds));
  EXPECT_FALSE(q.Validate().ok());
}

TEST(QueryTest, AttributeIndexOutOfRangeRejected) {
  std::vector<TableInfo> tables(2);
  tables[0].cardinality = tables[1].cardinality = 10;
  tables[0].attribute_domains = tables[1].attribute_domains = {5.0};
  std::vector<JoinPredicate> preds = {{0, 3, 1, 0, 0.5}};
  Query q(std::move(tables), std::move(preds));
  EXPECT_FALSE(q.Validate().ok());
}

TEST(QueryTest, SerializationRoundTrips) {
  const Query q = MakeValidQuery();
  ByteWriter w;
  q.Serialize(&w);
  ByteReader r(w.buffer());
  StatusOr<Query> back = Query::Deserialize(&r);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  const Query& q2 = back.value();
  ASSERT_EQ(q2.num_tables(), q.num_tables());
  for (int i = 0; i < q.num_tables(); ++i) {
    EXPECT_DOUBLE_EQ(q2.table(i).cardinality, q.table(i).cardinality);
    EXPECT_EQ(q2.table(i).attribute_domains, q.table(i).attribute_domains);
    EXPECT_EQ(q2.table(i).name, q.table(i).name);
  }
  ASSERT_EQ(q2.predicates().size(), q.predicates().size());
  for (size_t i = 0; i < q.predicates().size(); ++i) {
    EXPECT_EQ(q2.predicates()[i].left_table, q.predicates()[i].left_table);
    EXPECT_EQ(q2.predicates()[i].right_table, q.predicates()[i].right_table);
    EXPECT_DOUBLE_EQ(q2.predicates()[i].selectivity,
                     q.predicates()[i].selectivity);
  }
  EXPECT_TRUE(r.AtEnd());
}

TEST(QueryTest, DeserializeTruncatedIsCorruption) {
  const Query q = MakeValidQuery();
  ByteWriter w;
  q.Serialize(&w);
  std::vector<uint8_t> truncated(w.buffer().begin(),
                                 w.buffer().begin() + w.size() / 2);
  ByteReader r(truncated);
  StatusOr<Query> back = Query::Deserialize(&r);
  EXPECT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kCorruption);
}

TEST(QueryTest, DeserializeGarbageIsCorruptionNotCrash) {
  std::vector<uint8_t> garbage(64, 0xAB);
  ByteReader r(garbage);
  StatusOr<Query> back = Query::Deserialize(&r);
  EXPECT_FALSE(back.ok());
}

TEST(QueryTest, DeserializeRejectsCountsBeyondTheBytesLeft) {
  // A few dozen bytes may declare 2^20 predicates or attributes; the
  // decoder must refuse before it allocates for them, naming the count.
  constexpr uint32_t kHuge = 1u << 20;
  {
    ByteWriter w;
    w.WriteU32(1);  // one table, no attributes, named "R0"
    w.WriteDouble(100);
    w.WriteU32(0);
    w.WriteString("R0");
    w.WriteU32(kHuge);  // predicates
    w.WriteU32(0);      // and the first four bytes of one
    ByteReader r(w.buffer());
    StatusOr<Query> back = Query::Deserialize(&r);
    ASSERT_FALSE(back.ok());
    EXPECT_EQ(back.status().code(), StatusCode::kCorruption);
    EXPECT_NE(back.status().message().find("predicate count 1048576"),
              std::string::npos)
        << back.status().ToString();
  }
  {
    ByteWriter w;
    w.WriteU32(1);
    w.WriteDouble(100);
    w.WriteU32(kHuge);  // attributes
    w.WriteDouble(10);
    ByteReader r(w.buffer());
    StatusOr<Query> back = Query::Deserialize(&r);
    ASSERT_FALSE(back.ok());
    EXPECT_EQ(back.status().code(), StatusCode::kCorruption);
    EXPECT_NE(back.status().message().find("attribute count 1048576"),
              std::string::npos)
        << back.status().ToString();
  }
}

TEST(QueryTest, AllTablesSet) {
  EXPECT_EQ(MakeValidQuery().all_tables(), TableSet::AllTables(3));
}

TEST(QueryTest, ToStringMentionsTables) {
  const std::string s = MakeValidQuery().ToString();
  EXPECT_NE(s.find("3 tables"), std::string::npos);
  EXPECT_NE(s.find("R0"), std::string::npos);
}

TEST(JoinGraphShapeTest, Names) {
  EXPECT_STREQ(JoinGraphShapeName(JoinGraphShape::kChain), "chain");
  EXPECT_STREQ(JoinGraphShapeName(JoinGraphShape::kStar), "star");
  EXPECT_STREQ(JoinGraphShapeName(JoinGraphShape::kCycle), "cycle");
  EXPECT_STREQ(JoinGraphShapeName(JoinGraphShape::kClique), "clique");
}

}  // namespace
}  // namespace mpqopt
