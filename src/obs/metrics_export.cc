// Copyright 2026 mpqopt authors.

#include "obs/metrics_export.h"

#include <cstdio>
#include <map>
#include <utility>

namespace mpqopt {
namespace obs {
namespace {

/// Formats a double the way the exposition examples do: shortest-ish
/// decimal, exponent form only for extreme magnitudes.
std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

/// `{worker="<w>"}`-style label block, or "" when unlabeled; `extra` is
/// an optional pre-rendered additional label ('le' for bucket rows).
std::string LabelBlock(const std::string& worker, const std::string& extra) {
  if (worker.empty() && extra.empty()) return "";
  std::string out = "{";
  if (!worker.empty()) {
    out += "worker=\"" + EscapeLabelValue(worker) + "\"";
    if (!extra.empty()) out += ",";
  }
  out += extra;
  out += "}";
  return out;
}

void AppendHeader(const std::string& prom_name, const std::string& raw_name,
                  const char* type, std::string* out) {
  *out += "# HELP " + prom_name + " mpqopt instrument " + raw_name + "\n";
  *out += "# TYPE " + prom_name + " " + type + "\n";
}

}  // namespace

std::string PrometheusName(const std::string& name) {
  std::string out;
  out.reserve(name.size() + 1);
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  if (!out.empty() && out[0] >= '0' && out[0] <= '9') {
    out.insert(out.begin(), '_');
  }
  return out;
}

std::string EscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

std::string RenderPrometheus(const std::vector<LabeledSample>& samples) {
  // Regroup per metric family first so each family renders under exactly
  // one header, no matter how many labeled samples carry it. The map key
  // is the RAW instrument name (two raw names could sanitize to the same
  // exposition name; last header wins, series still parse).
  std::map<std::string, std::vector<std::pair<const std::string*, uint64_t>>>
      counters;
  std::map<std::string, std::vector<std::pair<const std::string*, int64_t>>>
      gauges;
  std::map<std::string,
           std::vector<std::pair<const std::string*, const HistogramSnapshot*>>>
      histograms;
  for (const LabeledSample& labeled : samples) {
    for (const auto& [name, value] : labeled.sample.counters) {
      counters[name].emplace_back(&labeled.worker, value);
    }
    for (const auto& [name, value] : labeled.sample.gauges) {
      gauges[name].emplace_back(&labeled.worker, value);
    }
    for (const auto& [name, snapshot] : labeled.sample.histograms) {
      histograms[name].emplace_back(&labeled.worker, &snapshot);
    }
  }

  std::string out;
  char line[192];
  for (const auto& [name, series] : counters) {
    const std::string prom = PrometheusName(name);
    AppendHeader(prom, name, "counter", &out);
    for (const auto& [worker, value] : series) {
      std::snprintf(line, sizeof(line), " %llu\n",
                    static_cast<unsigned long long>(value));
      out += prom + LabelBlock(*worker, "") + line;
    }
  }
  for (const auto& [name, series] : gauges) {
    const std::string prom = PrometheusName(name);
    AppendHeader(prom, name, "gauge", &out);
    for (const auto& [worker, value] : series) {
      std::snprintf(line, sizeof(line), " %lld\n",
                    static_cast<long long>(value));
      out += prom + LabelBlock(*worker, "") + line;
    }
  }
  for (const auto& [name, series] : histograms) {
    const std::string prom = PrometheusName(name);
    AppendHeader(prom, name, "histogram", &out);
    for (const auto& [worker, snapshot] : series) {
      // Cumulative bucket rows; le="+Inf" is the running total itself,
      // so bucket monotonicity holds by construction even if the
      // lock-free shards were mid-record during the snapshot.
      uint64_t cumulative = 0;
      for (size_t b = 0; b < snapshot->counts.size(); ++b) {
        cumulative += snapshot->counts[b];
        const std::string le =
            b < snapshot->bounds.size() ? FormatDouble(snapshot->bounds[b])
                                        : "+Inf";
        std::snprintf(line, sizeof(line), " %llu\n",
                      static_cast<unsigned long long>(cumulative));
        out += prom + "_bucket" +
               LabelBlock(*worker, "le=\"" + le + "\"") + line;
      }
      out += prom + "_sum" + LabelBlock(*worker, "") + " " +
             FormatDouble(snapshot->sum) + "\n";
      std::snprintf(line, sizeof(line), " %llu\n",
                    static_cast<unsigned long long>(cumulative));
      out += prom + "_count" + LabelBlock(*worker, "") + line;
    }
  }
  return out;
}

void SerializeRegistrySample(const RegistrySample& sample,
                             ByteWriter* writer) {
  writer->WriteU32(static_cast<uint32_t>(sample.counters.size()));
  for (const auto& [name, value] : sample.counters) {
    writer->WriteString(name);
    writer->WriteU64(value);
  }
  writer->WriteU32(static_cast<uint32_t>(sample.gauges.size()));
  for (const auto& [name, value] : sample.gauges) {
    writer->WriteString(name);
    writer->WriteI64(value);
  }
  writer->WriteU32(static_cast<uint32_t>(sample.histograms.size()));
  for (const auto& [name, snapshot] : sample.histograms) {
    writer->WriteString(name);
    writer->WriteU32(static_cast<uint32_t>(snapshot.bounds.size()));
    for (const double bound : snapshot.bounds) writer->WriteDouble(bound);
    writer->WriteU32(static_cast<uint32_t>(snapshot.counts.size()));
    for (const uint64_t c : snapshot.counts) writer->WriteU64(c);
    writer->WriteU64(snapshot.count);
    writer->WriteDouble(snapshot.sum);
  }
}

Status ParseRegistrySample(const std::vector<uint8_t>& bytes,
                           RegistrySample* out) {
  *out = RegistrySample();
  ByteReader reader(bytes);
  // Reads an entry count and bounds it by the bytes left, so a peer's
  // count can never reserve more entries than the frame could hold.
  const auto read_count = [&reader](size_t min_entry_bytes,
                                    uint32_t* count) -> Status {
    Status s = reader.ReadU32(count);
    if (!s.ok()) return s;
    if (*count > reader.remaining() / min_entry_bytes) {
      return Status::Corruption("registry sample count exceeds the frame");
    }
    return Status::OK();
  };
  // Smallest encodings: a counter or gauge is an empty name and one
  // 8-byte value; a histogram is an empty name, two u32 lengths, its one
  // bucket, and the u64 count and f64 sum.
  constexpr size_t kMinValueBytes = sizeof(uint32_t) + sizeof(uint64_t);
  constexpr size_t kMinHistogramBytes =
      3 * sizeof(uint32_t) + 3 * sizeof(uint64_t);
  uint32_t n = 0;
  Status s = read_count(kMinValueBytes, &n);
  if (!s.ok()) return s;
  out->counters.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    std::string name;
    uint64_t value = 0;
    s = reader.ReadString(&name);
    if (s.ok()) s = reader.ReadU64(&value);
    if (!s.ok()) return s;
    out->counters.emplace_back(std::move(name), value);
  }
  s = read_count(kMinValueBytes, &n);
  if (!s.ok()) return s;
  out->gauges.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    std::string name;
    int64_t value = 0;
    s = reader.ReadString(&name);
    if (s.ok()) s = reader.ReadI64(&value);
    if (!s.ok()) return s;
    out->gauges.emplace_back(std::move(name), value);
  }
  s = read_count(kMinHistogramBytes, &n);
  if (!s.ok()) return s;
  out->histograms.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    std::string name;
    s = reader.ReadString(&name);
    if (!s.ok()) return s;
    HistogramSnapshot snapshot;
    uint32_t bounds_n = 0;
    s = reader.ReadU32(&bounds_n);
    if (!s.ok()) return s;
    if (bounds_n * sizeof(double) > reader.remaining()) {
      return Status::Corruption("histogram bounds exceed the sample frame");
    }
    snapshot.bounds.resize(bounds_n);
    for (double& bound : snapshot.bounds) {
      s = reader.ReadDouble(&bound);
      if (!s.ok()) return s;
    }
    uint32_t counts_n = 0;
    s = reader.ReadU32(&counts_n);
    if (!s.ok()) return s;
    if (counts_n != bounds_n + 1) {
      return Status::Corruption("histogram bucket count mismatches bounds");
    }
    snapshot.counts.resize(counts_n);
    for (uint64_t& c : snapshot.counts) {
      s = reader.ReadU64(&c);
      if (!s.ok()) return s;
    }
    s = reader.ReadU64(&snapshot.count);
    if (s.ok()) s = reader.ReadDouble(&snapshot.sum);
    if (!s.ok()) return s;
    out->histograms.emplace_back(std::move(name), std::move(snapshot));
  }
  if (!reader.AtEnd()) {
    return Status::Corruption("registry sample has trailing bytes");
  }
  return Status::OK();
}

}  // namespace obs
}  // namespace mpqopt
