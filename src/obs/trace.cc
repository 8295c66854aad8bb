// Copyright 2026 mpqopt authors.

#include "obs/trace.h"

#include <chrono>
#include <cstdio>
#include <utility>

#include "obs/flight_recorder.h"

namespace mpqopt {
namespace obs {
namespace {

/// The thread's active context. A plain thread_local struct: reading it
/// on the disabled path is one TLS load, no guard variable (trivially
/// constructible).
thread_local TraceContext tls_context;

std::chrono::steady_clock::time_point ProcessEpoch() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

}  // namespace

uint64_t MonotonicNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - ProcessEpoch())
          .count());
}

QueryTrace::QueryTrace(uint64_t trace_id, std::string label)
    : trace_id_(trace_id), label_(std::move(label)) {
  spans_.reserve(32);
}

uint32_t QueryTrace::BeginSpan(const char* name, uint32_t parent) {
  const uint64_t now = MonotonicNanos();
  std::lock_guard<std::mutex> lock(mutex_);
  const uint32_t id = static_cast<uint32_t>(spans_.size());
  spans_.push_back(SpanRecord{name, parent, now, 0});
  return id;
}

void QueryTrace::EndSpan(uint32_t span) {
  const uint64_t now = MonotonicNanos();
  std::lock_guard<std::mutex> lock(mutex_);
  MPQOPT_CHECK_LT(span, spans_.size());
  spans_[span].end_ns = now;
}

uint32_t QueryTrace::AddCompleteSpan(const char* name, uint32_t parent,
                                     uint64_t start_ns, uint64_t end_ns) {
  std::lock_guard<std::mutex> lock(mutex_);
  const uint32_t id = static_cast<uint32_t>(spans_.size());
  spans_.push_back(SpanRecord{name, parent, start_ns, end_ns});
  return id;
}

std::vector<SpanRecord> QueryTrace::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

double QueryTrace::RootMillis() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (spans_.empty() || spans_[0].end_ns == 0) return 0;
  return static_cast<double>(spans_[0].end_ns - spans_[0].start_ns) / 1e6;
}

TraceContext CurrentTraceContext() { return tls_context; }

TraceContextScope::TraceContextScope(TraceContext ctx) : saved_(tls_context) {
  tls_context = ctx;
}

TraceContextScope::TraceContextScope(QueryTrace* trace, uint32_t parent)
    : TraceContextScope(trace == nullptr ? TraceContext{}
                                         : TraceContext{trace, parent}) {}

TraceContextScope::~TraceContextScope() { tls_context = saved_; }

Span::Span(const char* name) {
  const TraceContext ctx = tls_context;
  if (ctx.trace == nullptr) return;  // tracing off: branch, nothing else
  trace_ = ctx.trace;
  saved_parent_ = ctx.span;
  span_ = trace_->BeginSpan(name, ctx.span);
  tls_context.span = span_;
}

Span::~Span() {
  if (trace_ == nullptr) return;
  trace_->EndSpan(span_);
  tls_context.span = saved_parent_;
}

TraceCollector::TraceCollector(TraceCollectorOptions options)
    : options_(std::move(options)) {}

std::unique_ptr<QueryTrace> TraceCollector::StartTrace(std::string label) {
  return std::make_unique<QueryTrace>(
      next_trace_id_.fetch_add(1, std::memory_order_relaxed),
      std::move(label));
}

void TraceCollector::Collect(std::unique_ptr<QueryTrace> trace) {
  if (trace == nullptr) return;
  if (options_.slow_query_ms > 0 &&
      trace->RootMillis() >= options_.slow_query_ms) {
    const std::string breakdown = FormatSpanBreakdown(*trace);
    std::fprintf(stderr,
                 "SLOW QUERY trace=%llu label=%s took %.3f ms "
                 "(threshold %.3f ms)\n%s",
                 static_cast<unsigned long long>(trace->trace_id()),
                 trace->label().c_str(), trace->RootMillis(),
                 options_.slow_query_ms, breakdown.c_str());
    FlightRecorder::Global().Record(
        FlightEventKind::kSlowQuery,
        "trace=%llu label=%s took %.3f ms (threshold %.3f ms)",
        static_cast<unsigned long long>(trace->trace_id()),
        trace->label().c_str(), trace->RootMillis(), options_.slow_query_ms);
  }
  std::lock_guard<std::mutex> lock(mutex_);
  traces_.push_back(std::move(trace));
}

size_t TraceCollector::collected() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return traces_.size();
}

namespace {

void AppendJsonEscaped(std::string_view in, std::string* out) {
  for (const char c : in) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

/// One trace's spans as Chrome "X" (complete) events. Each trace gets
/// its own tid (= trace id), so chrome://tracing lays concurrent queries
/// out as parallel rows; nesting within a row comes from the timestamps.
void AppendChromeEvents(const QueryTrace& trace, bool* first,
                        std::string* out) {
  const std::vector<SpanRecord> spans = trace.Snapshot();
  for (const SpanRecord& span : spans) {
    const uint64_t end_ns =
        span.end_ns >= span.start_ns ? span.end_ns : span.start_ns;
    if (!*first) *out += ",\n";
    *first = false;
    *out += "{\"name\":\"";
    AppendJsonEscaped(span.name, out);
    char buf[192];
    std::snprintf(
        buf, sizeof(buf),
        "\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,\"ts\":%.3f,\"dur\":%.3f,"
        "\"args\":{\"trace_id\":%llu,\"label\":\"",
        static_cast<unsigned long long>(trace.trace_id()),
        static_cast<double>(span.start_ns) / 1e3,
        static_cast<double>(end_ns - span.start_ns) / 1e3,
        static_cast<unsigned long long>(trace.trace_id()));
    *out += buf;
    AppendJsonEscaped(trace.label(), out);
    *out += "\"}}";
  }
}

}  // namespace

Status TraceCollector::WriteChromeTrace() const {
  if (options_.chrome_out_path.empty()) return Status::OK();
  return WriteChromeTraceTo(options_.chrome_out_path);
}

Status TraceCollector::WriteChromeTraceTo(const std::string& path) const {
  std::string json = "[\n";
  {
    std::lock_guard<std::mutex> lock(mutex_);
    bool first = true;
    for (const std::unique_ptr<QueryTrace>& trace : traces_) {
      AppendChromeEvents(*trace, &first, &json);
    }
  }
  json += "\n]\n";
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return Status::Internal("cannot open trace output file: " + path);
  }
  const size_t written = std::fwrite(json.data(), 1, json.size(), out);
  const int close_rc = std::fclose(out);
  if (written != json.size() || close_rc != 0) {
    return Status::Internal("short write to trace output file: " + path);
  }
  return Status::OK();
}

std::string FormatSpanBreakdown(const QueryTrace& trace) {
  const std::vector<SpanRecord> spans = trace.Snapshot();
  // Children in recording order under each parent: one pass, since a
  // span's parent always has a smaller index.
  std::vector<std::vector<uint32_t>> children(spans.size());
  std::vector<uint32_t> roots;
  for (uint32_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent == kNoSpan) {
      roots.push_back(i);
    } else if (spans[i].parent < i) {
      children[spans[i].parent].push_back(i);
    }
  }
  std::string out;
  // Depth-first with an explicit stack of (span, depth).
  std::vector<std::pair<uint32_t, int>> stack;
  for (auto it = roots.rbegin(); it != roots.rend(); ++it) {
    stack.push_back({*it, 0});
  }
  while (!stack.empty()) {
    const auto [i, depth] = stack.back();
    stack.pop_back();
    const SpanRecord& span = spans[i];
    const uint64_t end_ns =
        span.end_ns >= span.start_ns ? span.end_ns : span.start_ns;
    char buf[160];
    std::snprintf(buf, sizeof(buf), "  %*s%-24.*s %10.3f ms\n", depth * 2,
                  "", static_cast<int>(span.name.size()), span.name.data(),
                  static_cast<double>(end_ns - span.start_ns) / 1e6);
    out += buf;
    for (auto it = children[i].rbegin(); it != children[i].rend(); ++it) {
      stack.push_back({*it, depth + 1});
    }
  }
  return out;
}

}  // namespace obs
}  // namespace mpqopt
