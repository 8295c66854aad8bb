// Copyright 2026 mpqopt authors.

#include "workload/workload_spec.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/serialize.h"
#include "partition/constraints.h"
#include "plancache/fingerprint.h"

namespace mpqopt {
namespace {

/// Splits one line into whitespace-separated tokens, dropping everything
/// from the first '#' on.
std::vector<std::string> Tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::string current;
  for (const char c : line) {
    if (c == '#') break;
    if (c == ' ' || c == '\t' || c == '\r') {
      if (!current.empty()) tokens.push_back(std::move(current));
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  if (!current.empty()) tokens.push_back(std::move(current));
  return tokens;
}

Status SpecError(const std::string& source, int line, const std::string& msg) {
  return Status::InvalidArgument(source + ":" + std::to_string(line) + ": " +
                                 msg);
}

/// Strict non-negative integer parse; rejects trailing garbage so a typo
/// like "10x" cannot silently become 10.
bool ParseInt(const std::string& token, int64_t* out) {
  if (token.empty()) return false;
  char* end = nullptr;
  const long long v = std::strtoll(token.c_str(), &end, 10);
  if (end != token.c_str() + token.size() || v < 0) return false;
  *out = v;
  return true;
}

bool ParseDouble(const std::string& token, double* out) {
  if (token.empty()) return false;
  char* end = nullptr;
  const double v = std::strtod(token.c_str(), &end);
  if (end != token.c_str() + token.size()) return false;
  *out = v;
  return true;
}

/// One relation of the spec's catalog.
struct RelationDef {
  std::string name;
  TableInfo info;
};

/// Query under construction: table list as relation indices, plus the
/// option deltas seen so far.
struct QueryDraft {
  std::string name;
  int line = 0;  // the `query` directive's line, for end-of-block errors
  std::vector<int> relation_indices;
  std::vector<JoinPredicate> predicates;
  WorkloadVariant variant = WorkloadVariant::kMpq;
  MpqOptions options;
};

/// Resolves "<table>.<attr>" against the draft's table list. The table
/// part is a relation NAME (position in the query's `tables` directive);
/// the attribute part is an index into that relation's domain list.
Status ResolveEndpoint(const std::string& token, const QueryDraft& draft,
                       const std::vector<RelationDef>& relations,
                       int* table_index, int* attr_index) {
  const size_t dot = token.rfind('.');
  if (dot == std::string::npos || dot == 0 || dot + 1 >= token.size()) {
    return Status::InvalidArgument("edge endpoint '" + token +
                                   "' is not <table>.<attribute>");
  }
  const std::string table_name = token.substr(0, dot);
  int64_t attr = 0;
  if (!ParseInt(token.substr(dot + 1), &attr)) {
    return Status::InvalidArgument("edge endpoint '" + token +
                                   "' has a non-numeric attribute");
  }
  for (size_t i = 0; i < draft.relation_indices.size(); ++i) {
    const RelationDef& rel = relations[draft.relation_indices[i]];
    if (rel.name != table_name) continue;
    if (attr >= static_cast<int64_t>(rel.info.attribute_domains.size())) {
      return Status::InvalidArgument(
          "edge endpoint '" + token + "' exceeds the " +
          std::to_string(rel.info.attribute_domains.size()) +
          " attribute(s) of relation '" + table_name + "'");
    }
    *table_index = static_cast<int>(i);
    *attr_index = static_cast<int>(attr);
    return Status::OK();
  }
  return Status::InvalidArgument("edge references relation '" + table_name +
                                 "' which is not in this query's tables");
}

/// Finishes a query block: materializes the Query, validates it, and
/// checks the worker count against the chosen plan space.
Status FinishQuery(const QueryDraft& draft,
                   const std::vector<RelationDef>& relations,
                   const std::string& source, WorkloadQuery* out) {
  if (draft.relation_indices.empty()) {
    return SpecError(source, draft.line,
                     "query '" + draft.name + "' has no tables directive");
  }
  std::vector<TableInfo> tables;
  tables.reserve(draft.relation_indices.size());
  for (const int rel : draft.relation_indices) {
    tables.push_back(relations[rel].info);
  }
  Query query(std::move(tables), draft.predicates);
  Status valid = query.Validate();
  if (!valid.ok()) {
    return SpecError(source, draft.line,
                     "query '" + draft.name + "': " + valid.message());
  }
  if (draft.variant == WorkloadVariant::kMpq) {
    valid = ValidateNumWorkers(draft.options.num_workers, query.num_tables(),
                               draft.options.space);
    if (!valid.ok()) {
      return SpecError(source, draft.line,
                       "query '" + draft.name + "': " + valid.message());
    }
  } else if (draft.options.num_workers < 1) {
    return SpecError(source, draft.line,
                     "query '" + draft.name + "': workers must be >= 1");
  }
  out->name = draft.name;
  out->query = std::move(query);
  out->variant = draft.variant;
  out->options = draft.options;
  return Status::OK();
}

}  // namespace

std::vector<int> Workload::Arrivals(int repeat_cap) const {
  std::vector<int> arrivals;
  for (const ScheduleEntry& entry : schedule) {
    int reps = entry.repetitions;
    if (repeat_cap > 0 && reps > repeat_cap) reps = repeat_cap;
    for (int i = 0; i < reps; ++i) arrivals.push_back(entry.query_index);
  }
  return arrivals;
}

std::vector<Workload::TimedArrival> Workload::TimedArrivals(
    int repeat_cap) const {
  std::vector<TimedArrival> arrivals;
  for (const ScheduleEntry& entry : schedule) {
    int reps = entry.repetitions;
    if (repeat_cap > 0 && reps > repeat_cap) reps = repeat_cap;
    const int64_t start = entry.start_ms < 0 ? 0 : entry.start_ms;
    for (int i = 0; i < reps; ++i) {
      arrivals.push_back({entry.query_index, start + i * entry.spacing_ms});
    }
  }
  std::stable_sort(arrivals.begin(), arrivals.end(),
                   [](const TimedArrival& a, const TimedArrival& b) {
                     return a.at_ms < b.at_ms;
                   });
  return arrivals;
}

StatusOr<Workload> ParseWorkloadSpec(const std::string& text,
                                     const std::string& source) {
  Workload workload;
  workload.source = source;

  std::vector<RelationDef> relations;
  bool saw_version = false;
  bool in_query = false;
  QueryDraft draft;

  auto find_relation = [&relations](const std::string& name) {
    for (size_t i = 0; i < relations.size(); ++i) {
      if (relations[i].name == name) return static_cast<int>(i);
    }
    return -1;
  };
  auto find_query = [&workload](const std::string& name) {
    for (size_t i = 0; i < workload.queries.size(); ++i) {
      if (workload.queries[i].name == name) return static_cast<int>(i);
    }
    return -1;
  };

  std::istringstream lines(text);
  std::string line;
  int line_no = 0;
  while (std::getline(lines, line)) {
    ++line_no;
    const std::vector<std::string> tokens = Tokenize(line);
    if (tokens.empty()) continue;
    const std::string& directive = tokens[0];

    // The version header must precede every other directive, so an old
    // loader meeting a future format fails on the first word.
    if (!saw_version) {
      if (directive != "mbw") {
        return SpecError(source, line_no,
                         "expected 'mbw <version>' header, got '" +
                             directive + "'");
      }
      int64_t version = -1;
      if (tokens.size() != 2 || !ParseInt(tokens[1], &version)) {
        return SpecError(source, line_no, "malformed 'mbw <version>' header");
      }
      if (version != kWorkloadSpecVersion) {
        return SpecError(source, line_no,
                         "unsupported mbw version " + tokens[1] +
                             " (this loader reads version " +
                             std::to_string(kWorkloadSpecVersion) + ")");
      }
      saw_version = true;
      continue;
    }

    if (in_query) {
      if (directive == "tables") {
        if (tokens.size() < 2) {
          return SpecError(source, line_no, "tables directive names nothing");
        }
        if (!draft.relation_indices.empty()) {
          return SpecError(source, line_no,
                           "duplicate tables directive in query '" +
                               draft.name + "'");
        }
        for (size_t i = 1; i < tokens.size(); ++i) {
          const int rel = find_relation(tokens[i]);
          if (rel < 0) {
            return SpecError(source, line_no,
                             "unknown relation '" + tokens[i] + "'");
          }
          // The plan cache invalidates by table NAME, so one relation
          // cannot appear twice in a query (it would also be a
          // self-join, which the cost model does not support).
          if (std::find(draft.relation_indices.begin(),
                        draft.relation_indices.end(), rel) !=
              draft.relation_indices.end()) {
            return SpecError(source, line_no,
                             "relation '" + tokens[i] +
                                 "' listed twice in one query");
          }
          draft.relation_indices.push_back(rel);
        }
      } else if (directive == "edge") {
        if (tokens.size() != 3 && tokens.size() != 4) {
          return SpecError(
              source, line_no,
              "edge wants: edge <t>.<a> <t>.<a> [<selectivity>]");
        }
        JoinPredicate pred;
        Status s = ResolveEndpoint(tokens[1], draft, relations,
                                   &pred.left_table, &pred.left_attribute);
        if (!s.ok()) return SpecError(source, line_no, s.message());
        s = ResolveEndpoint(tokens[2], draft, relations, &pred.right_table,
                            &pred.right_attribute);
        if (!s.ok()) return SpecError(source, line_no, s.message());
        if (pred.left_table == pred.right_table) {
          return SpecError(source, line_no,
                           "edge joins a relation with itself");
        }
        if (tokens.size() == 4) {
          if (!ParseDouble(tokens[3], &pred.selectivity) ||
              !(pred.selectivity > 0.0 && pred.selectivity <= 1.0)) {
            return SpecError(source, line_no,
                             "explicit selectivity must be in (0, 1]");
          }
        } else {
          // Steinbrunn et al. equality-predicate default.
          const RelationDef& lt =
              relations[draft.relation_indices[pred.left_table]];
          const RelationDef& rt =
              relations[draft.relation_indices[pred.right_table]];
          pred.selectivity =
              1.0 / std::max(lt.info.attribute_domains[pred.left_attribute],
                             rt.info.attribute_domains[pred.right_attribute]);
        }
        draft.predicates.push_back(pred);
      } else if (directive == "space") {
        if (tokens.size() != 2 ||
            (tokens[1] != "linear" && tokens[1] != "bushy")) {
          return SpecError(source, line_no, "space wants linear|bushy");
        }
        draft.options.space =
            tokens[1] == "linear" ? PlanSpace::kLinear : PlanSpace::kBushy;
      } else if (directive == "objective") {
        if (tokens.size() != 2 || (tokens[1] != "time" && tokens[1] != "mo")) {
          return SpecError(source, line_no, "objective wants time|mo");
        }
        draft.options.objective = tokens[1] == "time"
                                      ? Objective::kTime
                                      : Objective::kTimeAndBuffer;
      } else if (directive == "alpha") {
        double alpha = 0;
        if (tokens.size() != 2 || !ParseDouble(tokens[1], &alpha) ||
            !(alpha >= 1.0)) {
          return SpecError(source, line_no, "alpha wants a value >= 1");
        }
        draft.options.alpha = alpha;
      } else if (directive == "workers") {
        int64_t workers = 0;
        if (tokens.size() != 2 || !ParseInt(tokens[1], &workers) ||
            workers < 1) {
          return SpecError(source, line_no, "workers wants an integer >= 1");
        }
        draft.options.num_workers = static_cast<uint64_t>(workers);
      } else if (directive == "interesting_orders") {
        if (tokens.size() != 2 || (tokens[1] != "on" && tokens[1] != "off")) {
          return SpecError(source, line_no, "interesting_orders wants on|off");
        }
        draft.options.interesting_orders = tokens[1] == "on";
      } else if (directive == "variant") {
        if (tokens.size() != 2 || (tokens[1] != "mpq" && tokens[1] != "sma")) {
          return SpecError(source, line_no, "variant wants mpq|sma");
        }
        draft.variant = tokens[1] == "mpq" ? WorkloadVariant::kMpq
                                           : WorkloadVariant::kSma;
      } else if (directive == "end") {
        if (tokens.size() != 1) {
          return SpecError(source, line_no, "end takes no arguments");
        }
        WorkloadQuery finished;
        const Status s = FinishQuery(draft, relations, source, &finished);
        if (!s.ok()) return s;
        workload.queries.push_back(std::move(finished));
        in_query = false;
      } else {
        return SpecError(source, line_no,
                         "unknown query directive '" + directive + "'");
      }
      continue;
    }

    if (directive == "workload") {
      if (tokens.size() != 2) {
        return SpecError(source, line_no, "workload wants exactly one name");
      }
      workload.name = tokens[1];
    } else if (directive == "relation") {
      if (tokens.size() < 4) {
        return SpecError(
            source, line_no,
            "relation wants: relation <name> <cardinality> <domain>...");
      }
      RelationDef rel;
      rel.name = tokens[1];
      if (find_relation(rel.name) >= 0) {
        return SpecError(source, line_no,
                         "duplicate relation '" + rel.name + "'");
      }
      int64_t cardinality = 0;
      if (!ParseInt(tokens[2], &cardinality) || cardinality < 1) {
        return SpecError(source, line_no,
                         "relation '" + rel.name +
                             "' cardinality must be a positive integer");
      }
      rel.info.cardinality = static_cast<double>(cardinality);
      rel.info.name = rel.name;
      for (size_t i = 3; i < tokens.size(); ++i) {
        int64_t domain = 0;
        if (!ParseInt(tokens[i], &domain) || domain < 1) {
          return SpecError(source, line_no,
                           "relation '" + rel.name +
                               "' domain must be a positive integer");
        }
        if (domain > cardinality) {
          // A join attribute cannot have more distinct values than the
          // table has rows (the generator enforces the same bound).
          return SpecError(source, line_no,
                           "relation '" + rel.name + "' domain " + tokens[i] +
                               " exceeds its cardinality");
        }
        rel.info.attribute_domains.push_back(static_cast<double>(domain));
      }
      relations.push_back(std::move(rel));
    } else if (directive == "query") {
      if (tokens.size() != 2) {
        return SpecError(source, line_no, "query wants exactly one name");
      }
      if (find_query(tokens[1]) >= 0) {
        return SpecError(source, line_no,
                         "duplicate query '" + tokens[1] + "'");
      }
      draft = QueryDraft();
      draft.name = tokens[1];
      draft.line = line_no;
      in_query = true;
    } else if (directive == "schedule") {
      int64_t reps = 0;
      if ((tokens.size() != 3 && tokens.size() != 4) ||
          !ParseInt(tokens[2], &reps) || reps < 1) {
        return SpecError(source, line_no,
                         "schedule wants: schedule <query> <count >= 1> "
                         "[@<start_ms>[+<spacing_ms>]]");
      }
      ScheduleEntry entry;
      if (tokens.size() == 4) {
        const std::string& at = tokens[3];
        int64_t start = 0;
        int64_t spacing = 0;
        bool ok = at.size() > 1 && at[0] == '@';
        if (ok) {
          const size_t plus = at.find('+');
          if (plus == std::string::npos) {
            ok = ParseInt(at.substr(1), &start);
          } else {
            ok = plus > 1 && plus + 1 < at.size() &&
                 ParseInt(at.substr(1, plus - 1), &start) &&
                 ParseInt(at.substr(plus + 1), &spacing);
          }
        }
        if (!ok) {
          return SpecError(source, line_no,
                           "arrival time '" + at +
                               "' is not @<start_ms> or "
                               "@<start_ms>+<spacing_ms>");
        }
        entry.start_ms = start;
        entry.spacing_ms = spacing;
      }
      if (!workload.schedule.empty() &&
          (workload.schedule.front().start_ms >= 0) !=
              (entry.start_ms >= 0)) {
        return SpecError(source, line_no,
                         "schedule mixes timed (@...) and serial entries; "
                         "use one style throughout");
      }
      const int index = find_query(tokens[1]);
      if (index < 0) {
        return SpecError(source, line_no,
                         "schedule references unknown query '" + tokens[1] +
                             "' (queries must be defined first)");
      }
      entry.query_index = index;
      entry.repetitions = static_cast<int>(std::min<int64_t>(reps, 1 << 20));
      workload.schedule.push_back(entry);
    } else if (directive == "end") {
      return SpecError(source, line_no, "end outside a query block");
    } else {
      return SpecError(source, line_no,
                       "unknown directive '" + directive + "'");
    }
  }

  if (!saw_version) {
    return Status::InvalidArgument(source +
                                   ": empty spec (missing 'mbw' header)");
  }
  if (in_query) {
    return SpecError(source, draft.line,
                     "query '" + draft.name + "' is missing its end");
  }
  if (workload.name.empty()) {
    return Status::InvalidArgument(source + ": missing workload name");
  }
  if (workload.queries.empty()) {
    return Status::InvalidArgument(source + ": workload defines no queries");
  }
  if (workload.schedule.empty()) {
    // Friendly default: every query arrives once, in definition order.
    for (size_t i = 0; i < workload.queries.size(); ++i) {
      workload.schedule.push_back({static_cast<int>(i), 1});
    }
  }
  return workload;
}

StatusOr<Workload> LoadWorkloadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound("cannot open workload spec " + path);
  }
  std::string text;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    return Status::NotFound("error reading workload spec " + path);
  }
  // Error messages and reports use the file name, not the full path, so
  // they are stable across checkouts.
  const size_t slash = path.find_last_of('/');
  return ParseWorkloadSpec(
      text, slash == std::string::npos ? path : path.substr(slash + 1));
}

std::string WorkloadFingerprint(const Workload& workload) {
  ByteWriter writer;
  writer.WriteU8(static_cast<uint8_t>(kWorkloadSpecVersion));
  writer.WriteString(workload.name);
  writer.WriteU32(static_cast<uint32_t>(workload.queries.size()));
  for (const WorkloadQuery& wq : workload.queries) {
    writer.WriteString(wq.name);
    writer.WriteU8(static_cast<uint8_t>(wq.variant));
    // The exact deterministic wire bytes workers receive...
    wq.query.Serialize(&writer);
    // ...plus the plan-affecting option fields, encoded exactly as the
    // plan-cache fingerprint encodes them (execution knobs excluded).
    writer.WriteU8(static_cast<uint8_t>(wq.options.space));
    writer.WriteU8(static_cast<uint8_t>(wq.options.objective));
    writer.WriteBool(wq.options.interesting_orders);
    writer.WriteDouble(wq.options.alpha);
    writer.WriteU64(wq.options.num_workers);
    writer.WriteDouble(wq.options.cost_options.block_size);
    writer.WriteDouble(wq.options.cost_options.hash_constant);
    writer.WriteDouble(wq.options.cost_options.output_cost_factor);
    writer.WriteDouble(wq.options.cost_options.sorted_scan_factor);
    writer.WriteU64(static_cast<uint64_t>(wq.options.max_memo_entries));
  }
  writer.WriteU32(static_cast<uint32_t>(workload.schedule.size()));
  for (const ScheduleEntry& entry : workload.schedule) {
    if (entry.start_ms < 0) {
      // Serial entries keep the original two-word encoding, so every
      // fingerprint pinned before timed schedules existed is unchanged.
      writer.WriteU32(static_cast<uint32_t>(entry.query_index));
      writer.WriteU32(static_cast<uint32_t>(entry.repetitions));
    } else {
      // Timed entries flag the index word (indices are tiny, the high
      // bit is always free) and append both offsets, so a timed entry
      // can never alias a serial one.
      writer.WriteU32(static_cast<uint32_t>(entry.query_index) | 0x80000000u);
      writer.WriteU32(static_cast<uint32_t>(entry.repetitions));
      writer.WriteU64(static_cast<uint64_t>(entry.start_ms));
      writer.WriteU64(static_cast<uint64_t>(entry.spacing_ms));
    }
  }
  const std::vector<uint8_t>& bytes = writer.buffer();
  const uint64_t hi =
      HashBytes64(bytes.data(), bytes.size(), /*seed=*/0x6d62772d6869ULL);
  const uint64_t lo =
      HashBytes64(bytes.data(), bytes.size(), /*seed=*/0x6d62772d6c6fULL);
  char out[64];
  std::snprintf(out, sizeof(out), "mbw%d-%016llx%016llx",
                kWorkloadSpecVersion, static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return out;
}

}  // namespace mpqopt
