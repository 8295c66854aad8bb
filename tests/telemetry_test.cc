// Copyright 2026 mpqopt authors.
//
// Telemetry-plane tests: Prometheus exposition rendering (single header
// per family across fleet samples, cumulative buckets ending le="+Inf",
// name sanitization, label escaping), the kStatsPollTask wire round
// trip, the flight recorder's ring semantics, the stall watchdog, the
// standalone HTTP server's endpoints, and the fleet test the subsystem
// exists for: a scrape of a live rpc farm carries worker-labeled series,
// and /healthz tracks a SIGKILLed worker READY -> DEGRADED -> READY.

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "cluster/backend.h"
#include "cluster/task_registry.h"
#include "common/serialize.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/metrics_export.h"
#include "obs/telemetry_server.h"
#include "tests/rpc_test_util.h"

namespace mpqopt {
namespace {

size_t CountOccurrences(const std::string& haystack,
                        const std::string& needle) {
  size_t count = 0;
  for (size_t at = haystack.find(needle); at != std::string::npos;
       at = haystack.find(needle, at + needle.size())) {
    ++count;
  }
  return count;
}

// ------------------------------------------------------------ exposition

TEST(MetricsExportTest, PrometheusNameSanitizes) {
  EXPECT_EQ(obs::PrometheusName("service.latency_ms"), "service_latency_ms");
  EXPECT_EQ(obs::PrometheusName("obs.stalls_total"), "obs_stalls_total");
  EXPECT_EQ(obs::PrometheusName("a-b c"), "a_b_c");
  // A leading digit is not a legal exposition name start.
  EXPECT_EQ(obs::PrometheusName("9lives"), "_9lives");
}

TEST(MetricsExportTest, EscapeLabelValue) {
  EXPECT_EQ(obs::EscapeLabelValue("plain:1234"), "plain:1234");
  EXPECT_EQ(obs::EscapeLabelValue("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::EscapeLabelValue("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(obs::EscapeLabelValue("two\nlines"), "two\\nlines");
}

TEST(MetricsExportTest, OneHeaderPerFamilyAcrossFleetSamples) {
  obs::RegistrySample master;
  master.counters.emplace_back("service.requests", 3);
  obs::RegistrySample worker;
  worker.counters.emplace_back("service.requests", 7);

  const std::string text = obs::RenderPrometheus(
      {{"", master}, {"127.0.0.1:7001", worker}});
  // One TYPE/HELP header even though two samples carry the family —
  // Prometheus rejects repeated TYPE lines.
  EXPECT_EQ(CountOccurrences(text, "# TYPE service_requests counter"), 1u);
  EXPECT_EQ(CountOccurrences(text, "# HELP service_requests"), 1u);
  EXPECT_NE(text.find("service_requests 3"), std::string::npos);
  EXPECT_NE(text.find("service_requests{worker=\"127.0.0.1:7001\"} 7"),
            std::string::npos);
}

TEST(MetricsExportTest, HistogramRendersCumulativeBucketsEndingInf) {
  obs::HistogramSnapshot snap;
  snap.bounds = {1.0, 2.0};
  snap.counts = {1, 2, 3};  // per-bucket, overflow last
  snap.count = 6;
  snap.sum = 7.5;
  obs::RegistrySample sample;
  sample.histograms.emplace_back("svc.ms", snap);

  const std::string text = obs::RenderPrometheus({{"", sample}});
  EXPECT_NE(text.find("# TYPE svc_ms histogram"), std::string::npos);
  // Buckets are cumulative, and +Inf equals the total count.
  EXPECT_NE(text.find("svc_ms_bucket{le=\"1\"} 1"), std::string::npos);
  EXPECT_NE(text.find("svc_ms_bucket{le=\"2\"} 3"), std::string::npos);
  EXPECT_NE(text.find("svc_ms_bucket{le=\"+Inf\"} 6"), std::string::npos);
  EXPECT_NE(text.find("svc_ms_sum 7.5"), std::string::npos);
  EXPECT_NE(text.find("svc_ms_count 6"), std::string::npos);
}

TEST(MetricsExportTest, SerializeParseRoundTrip) {
  obs::RegistrySample sample;
  sample.counters.emplace_back("c.one", 41);
  sample.counters.emplace_back("c.two", 0);
  sample.gauges.emplace_back("g.depth", -5);
  obs::HistogramSnapshot snap;
  snap.bounds = {0.5, 4.0, 32.0};
  snap.counts = {0, 9, 1, 2};
  snap.count = 12;
  snap.sum = 55.25;
  sample.histograms.emplace_back("h.ms", snap);

  ByteWriter writer;
  obs::SerializeRegistrySample(sample, &writer);
  const std::vector<uint8_t> bytes = writer.Release();

  obs::RegistrySample parsed;
  ASSERT_TRUE(obs::ParseRegistrySample(bytes, &parsed).ok());
  ASSERT_EQ(parsed.counters.size(), 2u);
  EXPECT_EQ(parsed.counters[0].first, "c.one");
  EXPECT_EQ(parsed.counters[0].second, 41u);
  ASSERT_EQ(parsed.gauges.size(), 1u);
  EXPECT_EQ(parsed.gauges[0].second, -5);
  ASSERT_EQ(parsed.histograms.size(), 1u);
  EXPECT_EQ(parsed.histograms[0].first, "h.ms");
  EXPECT_EQ(parsed.histograms[0].second.bounds, snap.bounds);
  EXPECT_EQ(parsed.histograms[0].second.counts, snap.counts);
  EXPECT_EQ(parsed.histograms[0].second.count, 12u);
  EXPECT_DOUBLE_EQ(parsed.histograms[0].second.sum, 55.25);

  // Malformed frames report Corruption instead of crashing the master.
  obs::RegistrySample scratch;
  std::vector<uint8_t> truncated(bytes.begin(), bytes.end() - 3);
  EXPECT_FALSE(obs::ParseRegistrySample(truncated, &scratch).ok());
  std::vector<uint8_t> trailing = bytes;
  trailing.push_back(0xEE);
  EXPECT_FALSE(obs::ParseRegistrySample(trailing, &scratch).ok());
}

TEST(MetricsExportTest, CountBeyondTheFrameIsCorruption) {
  // A 4-byte stats-poll reply claiming 2^32 - 1 counters must fail the
  // parse before anything is reserved for them, not throw bad_alloc.
  ByteWriter writer;
  writer.WriteU32(0xFFFFFFFF);
  obs::RegistrySample parsed;
  EXPECT_EQ(obs::ParseRegistrySample(writer.Release(), &parsed).code(),
            StatusCode::kCorruption);
  // The gauge and histogram counts are bounded the same way.
  for (int empty_sections : {1, 2}) {
    ByteWriter later;
    for (int i = 0; i < empty_sections; ++i) later.WriteU32(0);
    later.WriteU32(0xFFFFFFFF);
    EXPECT_EQ(obs::ParseRegistrySample(later.Release(), &parsed).code(),
              StatusCode::kCorruption)
        << empty_sections;
  }
}

TEST(MetricsExportTest, StatsPollTaskServesTheGlobalRegistry) {
  obs::MetricsRegistry::Global().GetCounter("test.poll_marker")->Add(17);
  StatusOr<std::vector<uint8_t>> response = StatsPollTaskMain({});
  ASSERT_TRUE(response.ok());
  obs::RegistrySample parsed;
  ASSERT_TRUE(obs::ParseRegistrySample(response.value(), &parsed).ok());
  bool found = false;
  for (const auto& counter : parsed.counters) {
    if (counter.first == "test.poll_marker") {
      found = true;
      EXPECT_GE(counter.second, 17u);
    }
  }
  EXPECT_TRUE(found);
  // The request must be empty — the envelope carries no payload.
  EXPECT_FALSE(StatsPollTaskMain({1, 2, 3}).ok());
}

// -------------------------------------------------------- flight recorder

TEST(FlightRecorderTest, RingOverwritesOldestAndKeepsSeqOrder) {
  obs::FlightRecorder recorder(/*capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    recorder.Record(obs::FlightEventKind::kRoundFinish, "event %d", i);
  }
  EXPECT_EQ(recorder.total_recorded(), 10u);
  const std::vector<obs::FlightEvent> events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, 6u + i);  // oldest retained first
  }
  EXPECT_STREQ(events.back().detail, "event 9");
  const std::string dump = recorder.DumpText();
  EXPECT_NE(dump.find("10 events recorded"), std::string::npos);
  EXPECT_NE(dump.find("round-finish"), std::string::npos);
}

TEST(FlightRecorderTest, DetailTruncatesInsteadOfOverflowing) {
  obs::FlightRecorder recorder(2);
  const std::string longtext(500, 'x');
  recorder.Record(obs::FlightEventKind::kStall, "%s", longtext.c_str());
  const std::vector<obs::FlightEvent> events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_LT(std::string(events[0].detail).size(),
            sizeof(events[0].detail));
}

TEST(StallWatchdogTest, FlagsAnOperationPastTheThreshold) {
  obs::StallWatchdog& watchdog = obs::StallWatchdog::Global();
  watchdog.Configure(50);
  const uint64_t flagged_before = watchdog.flagged_total();
  obs::Counter* const stalls =
      obs::MetricsRegistry::Global().GetCounter(obs::kStallsCounter);
  const uint64_t counter_before = stalls->Value();
  {
    obs::StallWatchdog::Guard guard("test.slow_round");
    // Housekeeping ticks every 20 ms; 300 ms in flight is far past the
    // 50 ms threshold even on a loaded CI box.
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
  }
  EXPECT_GE(watchdog.flagged_total(), flagged_before + 1);
  EXPECT_GE(stalls->Value(), counter_before + 1);
  const std::string dump = obs::FlightRecorder::Global().DumpText();
  EXPECT_NE(dump.find("test.slow_round"), std::string::npos);
  // Disable again so later tests' rounds are not flagged.
  watchdog.Configure(0);
}

// ------------------------------------------------------------ http server

TEST(TelemetryServerTest, StandaloneEndpointsServeOverRealSockets) {
  obs::MetricsRegistry::Global()
      .GetHistogram(obs::kServiceLatencyHistogram,
                    obs::Histogram::LatencyBoundariesMs())
      ->Record(1.25);
  StatusOr<std::unique_ptr<obs::TelemetryServer>> server =
      obs::TelemetryServer::Start(obs::TelemetryOptions{});
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const std::string endpoint =
      "127.0.0.1:" + std::to_string(server.value()->port());

  StatusOr<obs::HttpResponse> metrics = obs::HttpGet(endpoint, "/metrics");
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_EQ(metrics.value().status, 200);
  EXPECT_NE(metrics.value().body.find("# TYPE service_latency_ms histogram"),
            std::string::npos);
  EXPECT_NE(metrics.value().body.find("le=\"+Inf\""), std::string::npos);

  StatusOr<obs::HttpResponse> health = obs::HttpGet(endpoint, "/healthz");
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health.value().status, 200);
  // Standalone (no backend): READY iff init is ok, no workers listed.
  EXPECT_NE(health.value().body.find("\"state\":\"READY\""),
            std::string::npos);
  EXPECT_NE(health.value().body.find("\"workers_total\":0"),
            std::string::npos);

  StatusOr<obs::HttpResponse> ready = obs::HttpGet(endpoint, "/readyz");
  ASSERT_TRUE(ready.ok());
  EXPECT_EQ(ready.value().status, 200);

  StatusOr<obs::HttpResponse> statz = obs::HttpGet(endpoint, "/statz");
  ASSERT_TRUE(statz.ok());
  EXPECT_EQ(statz.value().status, 200);
  EXPECT_NE(statz.value().body.find("histogram service.latency_ms"),
            std::string::npos);

  StatusOr<obs::HttpResponse> flight =
      obs::HttpGet(endpoint, "/debug/flightrecorder");
  ASSERT_TRUE(flight.ok());
  EXPECT_EQ(flight.value().status, 200);
  EXPECT_NE(flight.value().body.find("flightrecorder"), std::string::npos);

  StatusOr<obs::HttpResponse> missing = obs::HttpGet(endpoint, "/nope");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing.value().status, 404);
}

TEST(TelemetryServerTest, UnreadyWhenInitFails) {
  obs::TelemetryOptions options;
  options.init_status = [] {
    return Status::Internal("backend never came up");
  };
  StatusOr<std::unique_ptr<obs::TelemetryServer>> server =
      obs::TelemetryServer::Start(std::move(options));
  ASSERT_TRUE(server.ok());
  const std::string endpoint =
      "127.0.0.1:" + std::to_string(server.value()->port());
  StatusOr<obs::HttpResponse> ready = obs::HttpGet(endpoint, "/readyz");
  ASSERT_TRUE(ready.ok());
  EXPECT_EQ(ready.value().status, 503);
  EXPECT_NE(ready.value().body.find("\"state\":\"UNREADY\""),
            std::string::npos);
  // /healthz stays 200 — liveness, not readiness.
  StatusOr<obs::HttpResponse> health = obs::HttpGet(endpoint, "/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health.value().status, 200);
}

// ------------------------------------------------------------- fleet test

/// One echo round across the whole pool, to drive scatter (and redial).
Status RunEchoRound(ExecutionBackend* backend) {
  const std::vector<WorkerTask> tasks(2, WorkerTask(&EchoTaskMain));
  const std::vector<std::vector<uint8_t>> requests(2,
                                                   std::vector<uint8_t>{7});
  StatusOr<RoundResult> round = backend->RunRound(tasks, requests);
  return round.ok() ? Status::OK() : round.status();
}

TEST(TelemetryFleetTest, ScrapeCarriesWorkerSeriesAndHealthzTracksAKill) {
  RpcWorkerFarm farm;
  farm.Start(2);
  BackendOptions opts;
  opts.workers_addr = farm.workers_addr();
  StatusOr<std::shared_ptr<ExecutionBackend>> backend =
      MakeBackend(BackendKind::kRpc, opts);
  ASSERT_TRUE(backend.ok()) << backend.status().ToString();

  obs::TelemetryOptions topts;
  topts.backend = backend.value();
  topts.worker_poll_ttl_ms = 0;  // the transition test needs fresh polls
  StatusOr<std::unique_ptr<obs::TelemetryServer>> server =
      obs::TelemetryServer::Start(std::move(topts));
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const std::string endpoint =
      "127.0.0.1:" + std::to_string(server.value()->port());

  // Serve some traffic so worker-side instruments have values.
  ASSERT_TRUE(RunEchoRound(backend.value().get()).ok());

  // READY with both workers healthy, and the scrape re-exports each
  // worker's own registry under its endpoint label.
  StatusOr<obs::HttpResponse> health = obs::HttpGet(endpoint, "/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_NE(health.value().body.find("\"state\":\"READY\""),
            std::string::npos);
  StatusOr<obs::HttpResponse> metrics = obs::HttpGet(endpoint, "/metrics");
  ASSERT_TRUE(metrics.ok());
  for (const std::string& worker : farm.endpoints()) {
    EXPECT_NE(metrics.value().body.find("worker=\"" + worker + "\""),
              std::string::npos)
        << "no series labeled for " << worker;
  }
  EXPECT_NE(metrics.value().body.find("worker_requests_total"),
            std::string::npos);

  // Kill worker 0. The next scrape's stats poll fails against the dead
  // endpoint, which marks it SUSPECT — the scrape doubles as the health
  // probe — so /healthz degrades within one transition.
  farm.Kill(0);
  ASSERT_TRUE(obs::HttpGet(endpoint, "/metrics").ok());
  health = obs::HttpGet(endpoint, "/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_NE(health.value().body.find("\"state\":\"DEGRADED\""),
            std::string::npos)
      << health.value().body;
  EXPECT_NE(health.value().body.find("\"health\":\"suspect\""),
            std::string::npos);
  // One healthy worker left: still ready.
  StatusOr<obs::HttpResponse> ready = obs::HttpGet(endpoint, "/readyz");
  ASSERT_TRUE(ready.ok());
  EXPECT_EQ(ready.value().status, 200);

  // Restart on the original port; a round drives the supervisor's redial
  // and the roll-up recovers to READY.
  farm.Restart(0);
  bool recovered = false;
  for (int attempt = 0; attempt < 50 && !recovered; ++attempt) {
    RunEchoRound(backend.value().get()).ToString();  // best-effort
    health = obs::HttpGet(endpoint, "/healthz");
    ASSERT_TRUE(health.ok());
    recovered = health.value().body.find("\"state\":\"READY\"") !=
                std::string::npos;
    if (!recovered) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  }
  EXPECT_TRUE(recovered) << health.value().body;

  // The flight recorder kept the whole story.
  StatusOr<obs::HttpResponse> flight =
      obs::HttpGet(endpoint, "/debug/flightrecorder");
  ASSERT_TRUE(flight.ok());
  EXPECT_NE(flight.value().body.find("healthy -> suspect"),
            std::string::npos);
  EXPECT_NE(flight.value().body.find("-> healthy (redial ok)"),
            std::string::npos);
  EXPECT_NE(flight.value().body.find("round-start"), std::string::npos);
}

}  // namespace
}  // namespace mpqopt
