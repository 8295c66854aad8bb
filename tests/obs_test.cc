// Copyright 2026 mpqopt authors.
//
// Observability subsystem tests: the shared percentile estimator, the
// metrics registry (histogram boundaries, bucket-interpolated
// percentiles, snapshot deltas, concurrent recording), the span tree
// (nesting, ordering, thread-context adoption), the worker spans a traced
// rpc round builds from its replies over real loopback mpqopt_worker
// subprocesses (one worker.serve per frame under its rpc.exchange, one
// worker.compute per task inside it, back to back in slot order; SMA's
// session frames get the same), and the invariant the whole subsystem
// hangs on: plan choices are byte-identical with tracing on or off, on
// every execution backend.

#include <gtest/gtest.h>

#include <cstdio>
#include <thread>
#include <vector>

#include "catalog/generator.h"
#include "cluster/task_registry.h"
#include "common/serialize.h"
#include "mpq/mpq.h"
#include "obs/metrics.h"
#include "obs/percentile.h"
#include "obs/trace.h"
#include "plan/plan_serde.h"
#include "sma/sma.h"
#include "tests/rpc_test_util.h"

namespace mpqopt {
namespace {

// ------------------------------------------------------------ percentile

TEST(PercentileTest, EmptyAndSingleton) {
  EXPECT_EQ(obs::Percentile({}, 50), 0);
  EXPECT_EQ(obs::Percentile({7.5}, 0), 7.5);
  EXPECT_EQ(obs::Percentile({7.5}, 99), 7.5);
}

TEST(PercentileTest, LinearInterpolationOverSortedRanks) {
  // Ranks over n=5 samples: p50 -> rank 2 exactly, p75 -> rank 3,
  // p90 -> rank 3.6 (interpolated between 40 and 50).
  const std::vector<double> values = {50, 10, 40, 30, 20};  // unsorted input
  EXPECT_DOUBLE_EQ(obs::Percentile(values, 0), 10);
  EXPECT_DOUBLE_EQ(obs::Percentile(values, 50), 30);
  EXPECT_DOUBLE_EQ(obs::Percentile(values, 75), 40);
  EXPECT_DOUBLE_EQ(obs::Percentile(values, 90), 46);
  EXPECT_DOUBLE_EQ(obs::Percentile(values, 100), 50);
}

// --------------------------------------------------------------- metrics

TEST(MetricsTest, LatencyBoundariesAreStrictlyIncreasing) {
  const std::vector<double> bounds = obs::Histogram::LatencyBoundariesMs();
  ASSERT_GE(bounds.size(), 30u);
  EXPECT_DOUBLE_EQ(bounds.front(), 0.01);
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]) << "boundary " << i;
  }
  // Wide enough for the slowest latency this repo plausibly measures.
  EXPECT_GT(bounds.back(), 60e3);  // > one minute, in ms
}

TEST(MetricsTest, HistogramCountsSumAndInterpolatedPercentiles) {
  obs::Histogram hist({1.0, 2.0, 4.0, 8.0});
  // 100 samples uniformly filling the (1, 2] bucket.
  for (int i = 1; i <= 100; ++i) {
    hist.Record(1.0 + static_cast<double>(i) / 100.0);
  }
  const obs::HistogramSnapshot snap = hist.Snapshot();
  EXPECT_EQ(snap.count, 100u);
  EXPECT_NEAR(snap.Mean(), 1.505, 1e-9);
  // Every sample is in bucket (1, 2]; interpolation maps quantile q to
  // roughly 1 + q within the bucket (exact rank placement differs by
  // one sample width, hence the 0.02 tolerance at n=100).
  EXPECT_NEAR(snap.Percentile(50), 1.5, 0.02);
  EXPECT_NEAR(snap.Percentile(95), 1.95, 0.02);
  // The overflow bucket pins to the last boundary instead of inventing
  // an upper bound.
  hist.Record(100.0);
  EXPECT_DOUBLE_EQ(hist.Snapshot().Percentile(100), 8.0);
}

TEST(MetricsTest, EmptyHistogramPercentileIsZero) {
  // An unrecorded histogram must answer 0, not divide by a zero count or
  // interpolate into garbage — /statz and the telemetry exposition render
  // snapshots of histograms that may never have been touched.
  obs::Histogram hist({1.0, 2.0});
  const obs::HistogramSnapshot snap = hist.Snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_DOUBLE_EQ(snap.Percentile(0), 0.0);
  EXPECT_DOUBLE_EQ(snap.Percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(snap.Percentile(100), 0.0);
  EXPECT_DOUBLE_EQ(snap.Mean(), 0.0);
  // A degenerate snapshot with no bounds at all is equally inert.
  obs::HistogramSnapshot empty;
  EXPECT_DOUBLE_EQ(empty.Percentile(99), 0.0);
}

TEST(MetricsTest, SnapshotSinceIsolatesAWindow) {
  obs::Histogram hist({1.0, 10.0});
  hist.Record(0.5);
  hist.Record(5.0);
  const obs::HistogramSnapshot before = hist.Snapshot();
  hist.Record(5.0);
  hist.Record(5.0);
  const obs::HistogramSnapshot delta = hist.Snapshot().Since(before);
  EXPECT_EQ(delta.count, 2u);
  EXPECT_DOUBLE_EQ(delta.sum, 10.0);
  // Both windowed samples sit in (1, 10].
  EXPECT_GT(delta.Percentile(50), 1.0);
}

TEST(MetricsTest, RegistryReturnsStableInstrumentsAndDumps) {
  obs::MetricsRegistry registry;
  obs::Counter* counter = registry.GetCounter("test.requests");
  EXPECT_EQ(counter, registry.GetCounter("test.requests"));
  counter->Add(3);
  registry.GetGauge("test.depth")->Set(-2);
  obs::Histogram* hist =
      registry.GetHistogram("test.ms", obs::Histogram::LatencyBoundariesMs());
  EXPECT_EQ(hist, registry.FindHistogram("test.ms"));
  EXPECT_EQ(registry.FindHistogram("nope"), nullptr);
  hist->Record(1.0);
  const std::string dump = registry.StatzDump();
  EXPECT_NE(dump.find("counter test.requests 3"), std::string::npos);
  EXPECT_NE(dump.find("gauge test.depth -2"), std::string::npos);
  EXPECT_NE(dump.find("histogram test.ms count=1"), std::string::npos);
}

TEST(MetricsTest, ConcurrentRecordingIsSafe) {
  // TSan checks this test for races: 8 threads hammer one counter and
  // one histogram through the sharded lock-free path.
  obs::MetricsRegistry registry;
  obs::Counter* counter = registry.GetCounter("c");
  obs::Histogram* hist = registry.GetHistogram("h", {1.0, 10.0, 100.0});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t]() {
      for (int i = 0; i < kPerThread; ++i) {
        counter->Add(1);
        hist->Record(static_cast<double>((t + i) % 120));
      }
    });
  }
  for (std::thread& t : pool) t.join();
  EXPECT_EQ(counter->Value(), uint64_t{kThreads} * kPerThread);
  EXPECT_EQ(hist->Snapshot().count, uint64_t{kThreads} * kPerThread);
}

// ----------------------------------------------------------------- spans

TEST(TraceTest, SpanNestingAndRestoredParents) {
  obs::QueryTrace trace(7, "unit");
  {
    obs::TraceContextScope scope(&trace, obs::kNoSpan);
    obs::Span root("root");
    EXPECT_EQ(root.trace(), &trace);
    {
      obs::Span child("child");
      obs::Span grandchild("grandchild");
      (void)grandchild;
      (void)child;
    }
    // After the nested spans closed, the next span is root's child
    // again — the thread context was restored.
    obs::Span sibling("sibling");
    (void)sibling;
  }
  const std::vector<obs::SpanRecord> spans = trace.Snapshot();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].name, "root");
  EXPECT_EQ(spans[0].parent, obs::kNoSpan);
  EXPECT_EQ(spans[1].name, "child");
  EXPECT_EQ(spans[1].parent, 0u);
  EXPECT_EQ(spans[2].name, "grandchild");
  EXPECT_EQ(spans[2].parent, 1u);
  EXPECT_EQ(spans[3].name, "sibling");
  EXPECT_EQ(spans[3].parent, 0u);
  for (const obs::SpanRecord& span : spans) {
    EXPECT_GT(span.end_ns, 0u) << span.name;
    EXPECT_GE(span.end_ns, span.start_ns) << span.name;
  }
  EXPECT_GT(trace.RootMillis(), 0);
}

TEST(TraceTest, SpanIsInertWithoutAContext) {
  // No TraceContextScope installed: the span must record nothing and
  // report itself inert.
  obs::Span span("orphan");
  EXPECT_EQ(span.trace(), nullptr);
  EXPECT_EQ(span.id(), obs::kNoSpan);
}

TEST(TraceTest, ThreadsAdoptTheSubmitterContext) {
  obs::QueryTrace trace(9, "threads");
  obs::TraceContextScope scope(&trace, obs::kNoSpan);
  obs::Span root("root");
  const obs::TraceContext ctx = obs::CurrentTraceContext();
  constexpr int kThreads = 4;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([ctx]() {
      obs::TraceContextScope adopt(ctx);
      obs::Span work("work");
      (void)work;
    });
  }
  for (std::thread& t : pool) t.join();
  const std::vector<obs::SpanRecord> spans = trace.Snapshot();
  ASSERT_EQ(spans.size(), 1u + kThreads);
  for (size_t i = 1; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].name, "work");
    EXPECT_EQ(spans[i].parent, root.id());
  }
}

TEST(TraceTest, BreakdownAndChromeExport) {
  obs::TraceCollectorOptions options;
  options.chrome_out_path = ::testing::TempDir() + "/obs_test_trace.json";
  obs::TraceCollector collector(options);
  std::unique_ptr<obs::QueryTrace> trace = collector.StartTrace("export");
  {
    obs::TraceContextScope scope(trace.get(), obs::kNoSpan);
    obs::Span root("service.optimize");
    obs::Span inner("mpq.round");
    (void)root;
    (void)inner;
  }
  const std::string breakdown = obs::FormatSpanBreakdown(*trace);
  EXPECT_NE(breakdown.find("service.optimize"), std::string::npos);
  EXPECT_NE(breakdown.find("  mpq.round"), std::string::npos);

  collector.Collect(std::move(trace));
  EXPECT_EQ(collector.collected(), 1u);
  ASSERT_TRUE(collector.WriteChromeTrace().ok());
  FILE* f = std::fopen(options.chrome_out_path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string content(1 << 12, '\0');
  content.resize(std::fread(content.data(), 1, content.size(), f));
  std::fclose(f);
  std::remove(options.chrome_out_path.c_str());
  EXPECT_EQ(content.front(), '[');
  EXPECT_NE(content.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(content.find("service.optimize"), std::string::npos);
  EXPECT_NE(content.find("\"label\":\"export\""), std::string::npos);
}

// ------------------------------------------------- rpc + plan invariants

Query MakeQuery(int n, uint64_t seed) {
  GeneratorOptions opts;
  opts.shape = JoinGraphShape::kStar;
  QueryGenerator gen(opts, seed);
  return gen.Generate(n);
}

std::vector<uint8_t> PlanBytes(const MpqResult& result) {
  ByteWriter writer;
  SerializePlanSet(result.arena, result.best, &writer);
  return writer.buffer();
}

TEST(TracedRpcTest, TraceIdJoinsWorkerSpansOverRealSockets) {
  RpcWorkerFarm farm;
  farm.Start(2);
  BackendOptions options;
  options.workers_addr = farm.workers_addr();
  StatusOr<std::shared_ptr<ExecutionBackend>> backend =
      MakeBackend(BackendKind::kRpc, options);
  ASSERT_TRUE(backend.ok());

  const Query query = MakeQuery(8, 902);
  MpqOptions opts;
  opts.space = PlanSpace::kLinear;
  opts.num_workers = 4;

  // Reference run with tracing off.
  MpqOptions untraced = opts;
  untraced.backend = backend.value();
  MpqOptimizer plain(untraced);
  StatusOr<MpqResult> reference = plain.Optimize(query);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  // Traced run over the same live workers.
  obs::QueryTrace trace(1234, "rpc");
  StatusOr<MpqResult> traced = Status::Internal("not run");
  {
    obs::TraceContextScope scope(&trace, obs::kNoSpan);
    obs::Span root("service.optimize");
    MpqOptions with_trace = opts;
    with_trace.backend = backend.value();
    MpqOptimizer optimizer(with_trace);
    traced = optimizer.Optimize(query);
  }
  ASSERT_TRUE(traced.ok()) << traced.status().ToString();

  // Same plan bytes with and without tracing.
  EXPECT_EQ(PlanBytes(traced.value()), PlanBytes(reference.value()));

  // The worker timings the replies carry became spans of this trace: per
  // frame, one worker.serve, and under it one worker.compute per task.
  const std::vector<obs::SpanRecord> spans = trace.Snapshot();
  size_t serve = 0, compute = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == "worker.serve") {
      ++serve;
      EXPECT_GE(spans[i].end_ns, spans[i].start_ns);
    } else if (spans[i].name == "worker.compute") {
      ++compute;
      ASSERT_NE(spans[i].parent, obs::kNoSpan);
      EXPECT_EQ(spans[spans[i].parent].name, "worker.serve");
    }
  }
  EXPECT_EQ(serve, 2u);
  EXPECT_EQ(compute, opts.num_workers);
  // Master-side: one rpc.exchange span per worker frame (4 tasks over 2
  // workers ship as 2 batch frames) under the scatter pass, and every
  // worker.serve grafted under the exchange that carried it.
  size_t exchanges = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == "rpc.exchange") {
      ++exchanges;
      ASSERT_NE(spans[i].parent, obs::kNoSpan);
      EXPECT_EQ(spans[spans[i].parent].name, "rpc.scatter_pass");
    } else if (spans[i].name == "worker.serve") {
      ASSERT_NE(spans[i].parent, obs::kNoSpan);
      EXPECT_EQ(spans[spans[i].parent].name, "rpc.exchange");
    }
  }
  EXPECT_EQ(exchanges, 2u);
}

TEST(TracedRpcTest, BatchFrameCarriesTracedSubtasks) {
  RpcWorkerFarm farm;
  farm.Start(1);
  BackendOptions options;
  options.workers_addr = farm.workers_addr();
  StatusOr<std::shared_ptr<ExecutionBackend>> backend =
      MakeBackend(BackendKind::kRpc, options);
  ASSERT_TRUE(backend.ok());

  obs::QueryTrace trace(77, "batched");
  std::vector<WorkerTask> tasks(3, WorkerTask(&EchoTaskMain));
  std::vector<std::vector<uint8_t>> requests = {{1}, {2, 2}, {3, 3, 3}};
  StatusOr<RoundResult> round = Status::Internal("not run");
  {
    obs::TraceContextScope scope(&trace, obs::kNoSpan);
    obs::Span root("round");
    round = backend.value()->RunRound(tasks, requests);
  }
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  for (size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(round.value().responses[i], requests[i]);
  }
  // The three subtasks rode one frame: one worker.serve for the frame,
  // one worker.compute per subtask.
  size_t serve = 0, compute = 0, exchanges = 0;
  for (const obs::SpanRecord& span : trace.Snapshot()) {
    serve += span.name == "worker.serve";
    compute += span.name == "worker.compute";
    exchanges += span.name == "rpc.exchange";
  }
  EXPECT_EQ(serve, 1u);
  EXPECT_EQ(compute, requests.size());
  EXPECT_EQ(exchanges, 1u);
  EXPECT_EQ(backend.value()->health().scatter_batches, 1u);
}

// Three 20 ms tasks in one frame: the frame's worker.serve covers all
// three computes, and their worker.compute spans run back to back inside
// it in slot order, the order the worker ran them.
TEST(TracedRpcTest, BatchFrameWorkerSpansRunBackToBack) {
  RpcWorkerFarm farm;
  farm.Start(1);
  BackendOptions options;
  options.workers_addr = farm.workers_addr();
  StatusOr<std::shared_ptr<ExecutionBackend>> backend =
      MakeBackend(BackendKind::kRpc, options);
  ASSERT_TRUE(backend.ok());

  constexpr uint32_t kTaskMs = 20;
  constexpr uint64_t kTaskNs = uint64_t{kTaskMs} * 1'000'000;
  obs::QueryTrace trace(78, "back-to-back");
  std::vector<WorkerTask> tasks(3, WorkerTask(&SleepEchoTaskMain));
  std::vector<std::vector<uint8_t>> requests;
  for (uint8_t k = 0; k < 3; ++k) {
    ByteWriter writer;
    writer.WriteU32(kTaskMs);
    writer.WriteU8(k);
    requests.push_back(writer.Release());
  }
  StatusOr<RoundResult> round = Status::Internal("not run");
  {
    obs::TraceContextScope scope(&trace, obs::kNoSpan);
    obs::Span root("round");
    round = backend.value()->RunRound(tasks, requests);
  }
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  EXPECT_EQ(backend.value()->health().scatter_batches, 1u);

  const std::vector<obs::SpanRecord> spans = trace.Snapshot();
  std::vector<uint32_t> exchanges, serves, computes;
  for (uint32_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == "rpc.exchange") exchanges.push_back(i);
    if (spans[i].name == "worker.serve") serves.push_back(i);
    if (spans[i].name == "worker.compute") computes.push_back(i);
  }
  ASSERT_EQ(exchanges.size(), 1u);
  ASSERT_EQ(serves.size(), 1u);
  ASSERT_EQ(computes.size(), 3u);
  const obs::SpanRecord& exchange = spans[exchanges[0]];
  const obs::SpanRecord& serve = spans[serves[0]];
  EXPECT_EQ(serve.parent, exchanges[0]);
  EXPECT_GE(serve.end_ns - serve.start_ns, 3 * kTaskNs);
  EXPECT_GE(serve.start_ns, exchange.start_ns);
  EXPECT_LE(serve.end_ns, exchange.end_ns);
  // Recorded in slot order, each starting where the one before ended.
  uint64_t at = serve.start_ns;
  for (const uint32_t c : computes) {
    const obs::SpanRecord& compute = spans[c];
    EXPECT_EQ(compute.parent, serves[0]);
    EXPECT_GE(compute.start_ns, at);
    EXPECT_GE(compute.end_ns - compute.start_ns, kTaskNs);
    EXPECT_LE(compute.end_ns, serve.end_ns);
    at = compute.end_ns;
  }
}

// SMA's session frames get their worker side from the reply as round
// frames do: every rpc.exchange of a session round holds exactly one
// worker.serve, within the exchange, with one worker.compute inside it.
TEST(TracedRpcTest, SessionFramesCarryWorkerSpans) {
  RpcWorkerFarm farm;
  farm.Start(2);
  BackendOptions options;
  options.workers_addr = farm.workers_addr();
  StatusOr<std::shared_ptr<ExecutionBackend>> backend =
      MakeBackend(BackendKind::kRpc, options);
  ASSERT_TRUE(backend.ok());

  SmaOptions opts;
  opts.space = PlanSpace::kLinear;
  opts.num_workers = 2;
  opts.backend = backend.value();
  obs::QueryTrace trace(79, "sma");
  StatusOr<SmaResult> result = Status::Internal("not run");
  {
    obs::TraceContextScope scope(&trace, obs::kNoSpan);
    obs::Span root("sma");
    result = SmaOptimize(MakeQuery(6, 903), opts);
  }
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const std::vector<obs::SpanRecord> spans = trace.Snapshot();
  std::vector<std::vector<uint32_t>> children(spans.size());
  for (uint32_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent != obs::kNoSpan) children[spans[i].parent].push_back(i);
  }
  size_t session_exchanges = 0;
  for (uint32_t i = 0; i < spans.size(); ++i) {
    const obs::SpanRecord& exchange = spans[i];
    if (exchange.name != "rpc.exchange" || exchange.parent == obs::kNoSpan ||
        spans[exchange.parent].name != "session.round") {
      continue;
    }
    ++session_exchanges;
    std::vector<uint32_t> serves;
    for (const uint32_t c : children[i]) {
      if (spans[c].name == "worker.serve") serves.push_back(c);
    }
    ASSERT_EQ(serves.size(), 1u) << "exchange " << i;
    const obs::SpanRecord& serve = spans[serves[0]];
    EXPECT_GE(serve.start_ns, exchange.start_ns);
    EXPECT_LE(serve.end_ns, exchange.end_ns);
    ASSERT_EQ(children[serves[0]].size(), 1u);
    EXPECT_EQ(spans[children[serves[0]][0]].name, "worker.compute");
  }
  // Six tables give five levels, each a step round and a broadcast round
  // over both nodes, and no recovery.
  EXPECT_EQ(session_exchanges, 5u * 2u * 2u);
}

class TracingBackendTest : public ::testing::TestWithParam<BackendKind> {
 protected:
  void SetUp() override {
    if (GetParam() == BackendKind::kRpc) farm_.Start(2);
  }
  std::shared_ptr<ExecutionBackend> MakeTestBackend() {
    BackendOptions options;
    options.max_threads = 2;
    options.workers_addr = farm_.workers_addr();
    StatusOr<std::shared_ptr<ExecutionBackend>> backend =
        MakeBackend(GetParam(), options);
    MPQOPT_CHECK(backend.ok());
    return std::move(backend).value();
  }
  RpcWorkerFarm farm_;
};

TEST_P(TracingBackendTest, PlanChoiceIsByteIdenticalTracingOnOrOff) {
  const Query query = MakeQuery(8, 321);
  MpqOptions opts;
  opts.space = PlanSpace::kLinear;
  opts.num_workers = 4;
  opts.backend = MakeTestBackend();
  MpqOptimizer optimizer(opts);

  StatusOr<MpqResult> off = optimizer.Optimize(query);
  ASSERT_TRUE(off.ok()) << off.status().ToString();

  obs::QueryTrace trace(5, "parity");
  StatusOr<MpqResult> on = Status::Internal("not run");
  {
    obs::TraceContextScope scope(&trace, obs::kNoSpan);
    obs::Span root("service.optimize");
    on = optimizer.Optimize(query);
  }
  ASSERT_TRUE(on.ok()) << on.status().ToString();

  EXPECT_EQ(PlanBytes(off.value()), PlanBytes(on.value()))
      << "tracing changed the chosen plan on "
      << BackendKindName(GetParam());
  // And tracing actually recorded the round: every backend contributes
  // at least the mpq phase spans under the root.
  const std::vector<obs::SpanRecord> spans = trace.Snapshot();
  size_t rounds = 0;
  for (const obs::SpanRecord& span : spans) {
    rounds += span.name == "mpq.round";
  }
  EXPECT_GE(rounds, 1u);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, TracingBackendTest,
                         ::testing::Values(BackendKind::kAsyncBatch,
                                           BackendKind::kRpc),
                         [](const ::testing::TestParamInfo<BackendKind>& info) {
                           return std::string(BackendKindName(info.param));
                         });

TEST(TraceTest, ConcurrentSpansOnOneTraceAreSafe) {
  // TSan coverage for the QueryTrace mutex: many threads open/close
  // spans and import complete spans on one shared trace.
  obs::QueryTrace trace(11, "tsan");
  obs::TraceContextScope scope(&trace, obs::kNoSpan);
  obs::Span root("root");
  const obs::TraceContext ctx = obs::CurrentTraceContext();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([ctx]() {
      obs::TraceContextScope adopt(ctx);
      for (int i = 0; i < kPerThread; ++i) {
        obs::Span span("work");
        ctx.trace->AddCompleteSpan("imported", span.id(),
                                   obs::MonotonicNanos(),
                                   obs::MonotonicNanos());
      }
    });
  }
  for (std::thread& t : pool) t.join();
  EXPECT_EQ(trace.Snapshot().size(), 1u + 2u * kThreads * kPerThread);
}

}  // namespace
}  // namespace mpqopt
