// Copyright 2026 mpqopt authors.
//
// Plan-cache subsystem correctness (acceptance gate of the plan-cache
// PR): a hit returns a plan equal to a fresh optimization; full-key
// equality rejects forced hash collisions; TTL, byte-budget, and
// statistics-epoch evictions fire; InvalidateWhere evicts exactly the
// dependent entries; and concurrent misses on one fingerprint optimize
// exactly once (single-flight).

#include "plancache/plan_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "catalog/generator.h"
#include "cluster/async_batch_backend.h"
#include "plancache/fingerprint.h"
#include "service/optimizer_service.h"

namespace mpqopt {
namespace {

Query MakeQuery(int tables, uint64_t seed,
                JoinGraphShape shape = JoinGraphShape::kStar) {
  GeneratorOptions opts;
  opts.shape = shape;
  QueryGenerator gen(opts, seed);
  return gen.Generate(tables);
}

/// A tiny one-node plan with a recognizable cardinality, for direct
/// PlanCache tests that never run the optimizer.
CachedPlan MakeMarkerPlan(double cardinality) {
  CachedPlan plan;
  plan.best.push_back(
      plan.arena.MakeScan(0, cardinality, CostVector::Scalar(cardinality)));
  return plan;
}

PlanCacheKey MakeRawKey(std::vector<uint8_t> bytes) {
  PlanCacheKey key;
  key.bytes = std::move(bytes);
  key.hash_hi = HashBytes64(key.bytes.data(), key.bytes.size(), 1);
  key.hash_lo = HashBytes64(key.bytes.data(), key.bytes.size(), 2);
  return key;
}

// ------------------------------------------------------------ fingerprint

TEST(FingerprintTest, DeterministicAndSensitive) {
  const Query query = MakeQuery(8, 11);
  MpqOptions opts;
  opts.num_workers = 8;

  const PlanCacheKey a = FingerprintQuery(query, opts);
  const PlanCacheKey b = FingerprintQuery(query, opts);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash_hi, b.hash_hi);
  EXPECT_EQ(a.hash_lo, b.hash_lo);

  // Every plan-affecting option must perturb the fingerprint.
  MpqOptions changed = opts;
  changed.space = PlanSpace::kBushy;
  EXPECT_NE(FingerprintQuery(query, changed), a);
  changed = opts;
  changed.objective = Objective::kTimeAndBuffer;
  EXPECT_NE(FingerprintQuery(query, changed), a);
  changed = opts;
  changed.alpha = 2.0;
  EXPECT_NE(FingerprintQuery(query, changed), a);
  changed = opts;
  changed.interesting_orders = true;
  EXPECT_NE(FingerprintQuery(query, changed), a);
  changed = opts;
  changed.num_workers = 16;
  EXPECT_NE(FingerprintQuery(query, changed), a);
  changed = opts;
  changed.cost_options.hash_constant = 7.5;
  EXPECT_NE(FingerprintQuery(query, changed), a);
  changed = opts;
  changed.cost_options.block_size = 64;
  EXPECT_NE(FingerprintQuery(query, changed), a);
  changed = opts;
  changed.cost_options.output_cost_factor = 0.5;
  EXPECT_NE(FingerprintQuery(query, changed), a);
  changed = opts;
  changed.max_memo_entries = int64_t{1} << 20;
  EXPECT_NE(FingerprintQuery(query, changed), a);

  // Only the interesting-orders DP prices sorted scans, so the factor
  // splits keys with interesting orders on and not with them off.
  MpqOptions orders = opts;
  orders.interesting_orders = true;
  changed = orders;
  changed.cost_options.sorted_scan_factor = 3.0;
  EXPECT_NE(FingerprintQuery(query, changed), FingerprintQuery(query, orders));
  changed = opts;
  changed.cost_options.sorted_scan_factor = 3.0;
  EXPECT_EQ(FingerprintQuery(query, changed), a);

  // Execution-only knobs must NOT perturb it: the same plan serves any
  // backend or thread count.
  changed = opts;
  changed.backend = std::make_shared<AsyncBatchBackend>(1);
  changed.network.latency_s = 123.0;
  EXPECT_EQ(FingerprintQuery(query, changed), a);

  // A different query (same generator, next draw) must differ.
  GeneratorOptions gen_opts;
  QueryGenerator gen(gen_opts, 11);
  gen.Generate(8);  // skip the first draw == `query`
  const Query other = gen.Generate(8);
  EXPECT_NE(FingerprintQuery(other, opts), a);
}

// ------------------------------------------- hit equals fresh optimization

TEST(PlanCacheServiceTest, HitReturnsPlanEqualToFreshOptimization) {
  const Query query = MakeQuery(10, 42);
  MpqOptions opts;
  opts.num_workers = 16;

  MpqOptimizer fresh_optimizer(opts);
  StatusOr<MpqResult> fresh = fresh_optimizer.Optimize(query);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();

  ServiceOptions service_opts;
  service_opts.enable_plan_cache = true;
  OptimizerService service(service_opts);
  ASSERT_NE(service.plan_cache(), nullptr);

  StatusOr<MpqResult> miss = service.Optimize(query, opts);
  ASSERT_TRUE(miss.ok()) << miss.status().ToString();
  EXPECT_FALSE(miss.value().from_plan_cache);

  StatusOr<MpqResult> hit = service.Optimize(query, opts);
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  EXPECT_TRUE(hit.value().from_plan_cache);

  // Same structure and same cost as the fresh run.
  EXPECT_EQ(PlanToString(hit.value().arena, hit.value().best[0]),
            PlanToString(fresh.value().arena, fresh.value().best[0]));
  EXPECT_DOUBLE_EQ(hit.value().arena.node(hit.value().best[0]).cost.time(),
                   fresh.value().arena.node(fresh.value().best[0]).cost.time());
  // A hit never crosses the (simulated) wire.
  EXPECT_EQ(hit.value().network_bytes, 0u);
  EXPECT_EQ(hit.value().network_messages, 0u);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.queries_completed, 2u);
}

TEST(PlanCacheServiceTest, MultiObjectiveFrontierRoundTripsThroughCache) {
  const Query query = MakeQuery(8, 43);
  MpqOptions opts;
  opts.num_workers = 8;
  opts.objective = Objective::kTimeAndBuffer;
  opts.alpha = 2.0;

  ServiceOptions service_opts;
  service_opts.enable_plan_cache = true;
  OptimizerService service(service_opts);

  StatusOr<MpqResult> miss = service.Optimize(query, opts);
  ASSERT_TRUE(miss.ok()) << miss.status().ToString();
  StatusOr<MpqResult> hit = service.Optimize(query, opts);
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  EXPECT_TRUE(hit.value().from_plan_cache);
  ASSERT_EQ(hit.value().best.size(), miss.value().best.size());
  for (size_t i = 0; i < hit.value().best.size(); ++i) {
    EXPECT_EQ(PlanToString(hit.value().arena, hit.value().best[i]),
              PlanToString(miss.value().arena, miss.value().best[i]));
  }
}

// --------------------------------------------------------- collision safety

TEST(PlanCacheTest, ForcedHashCollisionIsMissNotWrongPlan) {
  PlanCacheOptions opts;
  opts.num_shards = 1;
  PlanCache cache(opts);

  // Two keys with identical hashes but different bytes: a forced 128-bit
  // collision, far beyond what the real hash would ever produce.
  PlanCacheKey a = MakeRawKey({1, 2, 3, 4});
  PlanCacheKey b = MakeRawKey({9, 9, 9, 9, 9});
  b.hash_hi = a.hash_hi;
  b.hash_lo = a.hash_lo;
  ASSERT_NE(a, b);

  const CachedPlan plan_a = MakeMarkerPlan(111.0);
  cache.Insert(a, {{"T", 1.0}}, plan_a.arena, plan_a.best);

  // The colliding key must miss — full-key equality rejects it.
  EXPECT_FALSE(cache.Lookup(b) != nullptr);
  ASSERT_TRUE(cache.Lookup(a) != nullptr);

  // Both colliding keys can be cached side by side and still resolve to
  // their own plans.
  const CachedPlan plan_b = MakeMarkerPlan(222.0);
  cache.Insert(b, {{"T", 1.0}}, plan_b.arena, plan_b.best);
  std::shared_ptr<const CachedPlan> got_a = cache.Lookup(a);
  std::shared_ptr<const CachedPlan> got_b = cache.Lookup(b);
  ASSERT_TRUE(got_a != nullptr);
  ASSERT_TRUE(got_b != nullptr);
  EXPECT_DOUBLE_EQ(got_a->arena.node(got_a->best[0]).cardinality, 111.0);
  EXPECT_DOUBLE_EQ(got_b->arena.node(got_b->best[0]).cardinality, 222.0);
}

// ------------------------------------------------------------------- TTL

TEST(PlanCacheTest, TtlEvictsExpiredEntries) {
  // Injected clock: no sleeps, no flakiness.
  std::chrono::steady_clock::time_point fake_now{};
  PlanCacheOptions opts;
  opts.ttl_seconds = 10.0;
  opts.num_shards = 1;
  opts.clock = [&fake_now] { return fake_now; };
  PlanCache cache(opts);

  const PlanCacheKey key = MakeRawKey({1});
  const CachedPlan plan = MakeMarkerPlan(1.0);
  cache.Insert(key, {{"T", 1.0}}, plan.arena, plan.best);

  fake_now += std::chrono::seconds(9);
  EXPECT_TRUE(cache.Lookup(key) != nullptr);

  fake_now += std::chrono::seconds(2);  // now 11s after insert
  EXPECT_FALSE(cache.Lookup(key) != nullptr);
  const PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions_ttl, 1u);
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes_in_use, 0u);
}

// ------------------------------------------------------------ byte budget

TEST(PlanCacheTest, ByteBudgetEvictsLeastRecentlyUsed) {
  PlanCacheOptions opts;
  opts.num_shards = 1;
  opts.capacity_bytes = 4096;
  PlanCache cache(opts);

  // Insert until the budget forces evictions.
  const int kEntries = 64;
  for (int i = 0; i < kEntries; ++i) {
    const PlanCacheKey key = MakeRawKey({static_cast<uint8_t>(i)});
    const CachedPlan plan = MakeMarkerPlan(static_cast<double>(i));
    std::string name("T");
    name += std::to_string(i);
    cache.Insert(key, {{std::move(name), 1.0}}, plan.arena, plan.best);
  }
  const PlanCacheStats stats = cache.stats();
  EXPECT_GT(stats.evictions_capacity, 0u);
  EXPECT_LE(stats.bytes_in_use, 4096u);
  EXPECT_LT(stats.entries, static_cast<uint64_t>(kEntries));

  // LRU order: the newest entry must have survived, the oldest must not.
  EXPECT_TRUE(
      cache.Lookup(MakeRawKey({static_cast<uint8_t>(kEntries - 1)}))
           != nullptr);
  EXPECT_FALSE(cache.Lookup(MakeRawKey({0})) != nullptr);
}

TEST(PlanCacheTest, OversizedEntryIsNotCached) {
  PlanCacheOptions opts;
  opts.num_shards = 1;
  opts.capacity_bytes = 64;  // smaller than any entry's fixed overhead
  PlanCache cache(opts);
  const PlanCacheKey key = MakeRawKey({1});
  const CachedPlan plan = MakeMarkerPlan(1.0);
  cache.Insert(key, {{"T", 1.0}}, plan.arena, plan.best);
  EXPECT_FALSE(cache.Lookup(key) != nullptr);
  EXPECT_EQ(cache.stats().inserts, 0u);
}

// ----------------------------------------- statistics-sensitive invalidation

TEST(PlanCacheTest, StatisticsEpochInvalidatesOlderEntries) {
  PlanCacheOptions opts;
  PlanCache cache(opts);
  const PlanCacheKey k1 = MakeRawKey({1});
  const PlanCacheKey k2 = MakeRawKey({2});
  const CachedPlan plan = MakeMarkerPlan(1.0);
  cache.Insert(k1, {{"A", 10.0}}, plan.arena, plan.best);
  cache.Insert(k2, {{"B", 20.0}}, plan.arena, plan.best);
  EXPECT_EQ(cache.stats().entries, 2u);

  EXPECT_EQ(cache.statistics_epoch(), 0u);
  cache.BumpStatisticsEpoch();
  EXPECT_EQ(cache.statistics_epoch(), 1u);

  EXPECT_FALSE(cache.Lookup(k1) != nullptr);
  EXPECT_FALSE(cache.Lookup(k2) != nullptr);
  const PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions_invalidated, 2u);
  EXPECT_EQ(stats.entries, 0u);

  // Entries inserted under the new epoch serve normally.
  cache.Insert(k1, {{"A", 12.0}}, plan.arena, plan.best);
  EXPECT_TRUE(cache.Lookup(k1) != nullptr);

  // A plan computed before a bump but inserted after it (the in-flight
  // optimization race) is born stale and never served: the bump fences
  // it even though the insert physically happened later.
  const uint64_t before_bump = cache.statistics_epoch();
  cache.BumpStatisticsEpoch();
  cache.Insert(k2, {{"B", 21.0}}, plan.arena, plan.best, before_bump);
  EXPECT_FALSE(cache.Lookup(k2) != nullptr);
}

TEST(PlanCacheTest, InvalidateWhereEvictsExactlyDependentEntries) {
  PlanCacheOptions opts;
  PlanCache cache(opts);
  const CachedPlan plan = MakeMarkerPlan(1.0);
  // Three entries: two depend on table "R3", one does not.
  cache.Insert(MakeRawKey({1}), {{"R1", 5.0}, {"R3", 100.0}}, plan.arena,
               plan.best);
  cache.Insert(MakeRawKey({2}), {{"R3", 100.0}}, plan.arena, plan.best);
  cache.Insert(MakeRawKey({3}), {{"R7", 9.0}}, plan.arena, plan.best);

  EXPECT_EQ(cache.InvalidateTable("R3"), 2u);
  EXPECT_FALSE(cache.Lookup(MakeRawKey({1})) != nullptr);
  EXPECT_FALSE(cache.Lookup(MakeRawKey({2})) != nullptr);
  EXPECT_TRUE(cache.Lookup(MakeRawKey({3})) != nullptr);
  EXPECT_EQ(cache.stats().evictions_invalidated, 2u);

  // Predicate form: evict entries whose cardinality for R7 changed.
  const size_t evicted =
      cache.InvalidateWhere([](const PlanCacheEntryView& view) {
        for (const auto& [name, cardinality] : view.table_statistics) {
          if (name == "R7" && cardinality != 9.0) return true;
        }
        return false;
      });
  EXPECT_EQ(evicted, 0u);  // cardinality still matches — nothing to evict
  EXPECT_TRUE(cache.Lookup(MakeRawKey({3})) != nullptr);
}

TEST(PlanCacheServiceTest, EpochBumpForcesReoptimization) {
  const Query query = MakeQuery(9, 77);
  MpqOptions opts;
  opts.num_workers = 8;

  ServiceOptions service_opts;
  service_opts.enable_plan_cache = true;
  OptimizerService service(service_opts);

  ASSERT_TRUE(service.Optimize(query, opts).ok());
  StatusOr<MpqResult> hit = service.Optimize(query, opts);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit.value().from_plan_cache);

  service.plan_cache()->BumpStatisticsEpoch();
  StatusOr<MpqResult> after = service.Optimize(query, opts);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after.value().from_plan_cache);
  EXPECT_EQ(service.stats().cache_misses, 2u);
  EXPECT_GT(service.stats().cache.evictions(), 0u);
}

// ------------------------------------------------------------ single-flight

/// Counts the rounds that actually reach the wrapped backend.
class CountingBackend : public ExecutionBackend {
 public:
  explicit CountingBackend(std::shared_ptr<ExecutionBackend> inner)
      : inner_(std::move(inner)) {}

  StatusOr<RoundResult> RunRound(
      const std::vector<WorkerTask>& tasks,
      const std::vector<std::vector<uint8_t>>& requests) override {
    rounds_.fetch_add(1, std::memory_order_relaxed);
    return inner_->RunRound(tasks, requests);
  }
  const char* name() const override { return "counting"; }
  uint64_t rounds() const { return rounds_.load(std::memory_order_relaxed); }

 private:
  std::shared_ptr<ExecutionBackend> inner_;
  std::atomic<uint64_t> rounds_{0};
};

TEST(PlanCacheServiceTest, ConcurrentSameFingerprintMissesOptimizeOnce) {
  const Query query = MakeQuery(10, 99);
  MpqOptions opts;
  opts.num_workers = 16;

  auto counting = std::make_shared<CountingBackend>(
      std::make_shared<AsyncBatchBackend>(2));
  ServiceOptions service_opts;
  service_opts.backend = counting;
  service_opts.enable_plan_cache = true;
  OptimizerService service(service_opts);

  MpqOptimizer reference(opts);
  StatusOr<MpqResult> fresh = reference.Optimize(query);
  ASSERT_TRUE(fresh.ok());
  const double expected_cost =
      fresh.value().arena.node(fresh.value().best[0]).cost.time();

  const int kCallers = 8;
  std::vector<std::thread> callers;
  std::vector<double> costs(kCallers, -1.0);
  for (int i = 0; i < kCallers; ++i) {
    callers.emplace_back([&, i]() {
      StatusOr<MpqResult> r = service.Optimize(query, opts);
      if (r.ok()) {
        costs[static_cast<size_t>(i)] =
            r.value().arena.node(r.value().best[0]).cost.time();
      }
    });
  }
  for (std::thread& t : callers) t.join();

  // Exactly one optimization ran (one worker round), every caller got
  // the right plan, and the stats agree: 1 miss, kCallers - 1 hits.
  EXPECT_EQ(counting->rounds(), 1u);
  for (double cost : costs) EXPECT_DOUBLE_EQ(cost, expected_cost);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_hits, static_cast<uint64_t>(kCallers - 1));
  EXPECT_EQ(stats.queries_completed, static_cast<uint64_t>(kCallers));
}

}  // namespace
}  // namespace mpqopt
