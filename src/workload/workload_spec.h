// Copyright 2026 mpqopt authors.
//
// Deterministic macro-workload specifications (the `.mbw` format).
//
// Every figure bench synthesizes queries on the fly from the Steinbrunn
// generator; that is the right tool for sweeping one axis, but it cannot
// regress a *workload*: a fixed catalog of named relations, a fixed set
// of named queries over them, and a fixed arrival schedule whose
// repetition pattern exercises the plan cache and the session layer the
// way production traffic would. A WorkloadSpec is exactly that, checked
// into bench/workloads/*.mbw and version-tagged like the plan-cache
// fingerprint, so the whole CI can regress against byte-stable inputs
// (the ClickBench deterministic-query-file idiom).
//
// Format (line-oriented, '#' comments, whitespace-separated tokens):
//
//   mbw 1                      # required version header, first directive
//   workload <name>
//
//   # catalog: named relations with (skewed) cardinalities and the
//   # domain sizes of their join attributes
//   relation <name> <cardinality> <domain> [<domain>...]
//
//   # named queries; tables reference relations, edges reference
//   # <table>.<attribute> pairs. Multiple edges between the same table
//   # pair form a multi-condition join. Selectivity defaults to
//   # 1 / max(domain_l, domain_r) (Steinbrunn et al.); an explicit
//   # trailing value overrides it. The option directives are per-query
//   # MpqOptions deltas over the defaults.
//   query <name>
//     tables <relation> [<relation>...]
//     edge <table>.<attr> <table>.<attr> [<selectivity>]
//     space linear|bushy
//     objective time|mo
//     alpha <a>
//     workers <m>
//     interesting_orders on|off
//     variant mpq|sma
//   end
//
//   # arrival schedule: <count> back-to-back arrivals of <query>.
//   # Entries repeat freely; their order is the arrival order, so
//   # interleaving repeats with first sights is what drives plan-cache
//   # hit rates. Omitting the schedule runs each query once.
//   schedule <query> <count>
//
//   # timed variant: the first arrival happens <start_ms> milliseconds
//   # after replay begins, subsequent repetitions every <spacing_ms>
//   # (default 0 = simultaneous). A timed schedule is replayed
//   # OPEN-LOOP: arrivals fire at their offsets whether or not earlier
//   # queries have finished, which is what makes overload reproducible.
//   # A schedule is either all timed or all serial — mixing the two
//   # styles in one spec is an error.
//   schedule <query> <count> @<start_ms>[+<spacing_ms>]
//
// The loader turns a spec into real catalog/query.h Query objects plus
// per-query options, validates everything (unknown names, zero
// cardinalities, bad worker counts, ... are Status errors, never
// crashes), and fingerprints the loaded workload with the same canonical
// byte serialization the plan cache keys on — the golden-fingerprint
// test (tests/workload_spec_test.cc) pins each shipped .mbw file
// byte-stable across PRs.

#ifndef MPQOPT_WORKLOAD_WORKLOAD_SPEC_H_
#define MPQOPT_WORKLOAD_WORKLOAD_SPEC_H_

#include <string>
#include <vector>

#include "catalog/query.h"
#include "common/status.h"
#include "mpq/mpq.h"

namespace mpqopt {

/// Version tag of the .mbw format. A spec whose `mbw <version>` header
/// names any other version is rejected (InvalidArgument), and the
/// version byte leads the workload fingerprint — like the plan-cache
/// fingerprint, older layouts can never alias newer ones.
inline constexpr int kWorkloadSpecVersion = 1;

/// Which optimizer a workload query runs through. kMpq goes through
/// OptimizerService (and its plan cache); kSma runs the per-level
/// broadcast baseline through the session layer on the same shared
/// backend, exercising replica reuse.
enum class WorkloadVariant : uint8_t {
  kMpq = 0,
  kSma = 1,
};

/// One named query of a workload: the materialized Query (tables carry
/// the referenced relations' names, cardinalities, and domains) plus the
/// per-query option delta already applied over defaults.
struct WorkloadQuery {
  std::string name;
  Query query;
  WorkloadVariant variant = WorkloadVariant::kMpq;
  /// Plan-affecting fields only; execution knobs (backend, network,
  /// thread caps) stay at their defaults and are the runner's business.
  MpqOptions options;
};

/// One arrival-schedule entry: `repetitions` arrivals of
/// queries[query_index] — back-to-back when serial, or starting at
/// `start_ms` with one arrival every `spacing_ms` when timed.
struct ScheduleEntry {
  int query_index = 0;
  int repetitions = 1;
  /// Milliseconds after replay start of the first arrival; -1 marks a
  /// serial (untimed) entry. A parsed schedule is homogeneous: either
  /// every entry is timed or none is (Workload::timed()).
  int64_t start_ms = -1;
  /// Milliseconds between successive repetitions of a timed entry.
  int64_t spacing_ms = 0;
};

/// A loaded, validated macro workload.
struct Workload {
  std::string name;
  /// Source label used in error messages and reports (file name or the
  /// caller-provided tag for in-memory specs).
  std::string source;
  std::vector<WorkloadQuery> queries;
  std::vector<ScheduleEntry> schedule;

  /// The flattened arrival order: one queries[] index per arrival, in
  /// schedule order. `repeat_cap > 0` caps every entry's repetitions
  /// (macrobench --smoke runs the full query mix with a shortened
  /// schedule); 0 means uncapped.
  std::vector<int> Arrivals(int repeat_cap = 0) const;

  /// True when the schedule carries @<offset> arrival times (the parser
  /// guarantees all-or-nothing, so checking one entry suffices).
  bool timed() const {
    return !schedule.empty() && schedule.front().start_ms >= 0;
  }

  /// One arrival with its offset from replay start.
  struct TimedArrival {
    int query_index = 0;
    int64_t at_ms = 0;
  };

  /// The flattened arrivals of a timed schedule sorted by offset
  /// (stable: simultaneous arrivals keep schedule order), for open-loop
  /// replay. Serial entries are treated as @0. Same `repeat_cap`
  /// contract as Arrivals().
  std::vector<TimedArrival> TimedArrivals(int repeat_cap = 0) const;
};

/// Parses and validates one spec. `source` labels error messages
/// ("<source>:<line>: ..."). Every malformed input — bad version tag,
/// unknown relation in a table list or an edge, zero cardinality,
/// out-of-range attribute, invalid worker count, unknown directive —
/// returns an InvalidArgument Status; this function never crashes on
/// untrusted text.
StatusOr<Workload> ParseWorkloadSpec(const std::string& text,
                                     const std::string& source);

/// Reads `path` and parses it. NotFound when the file cannot be read.
StatusOr<Workload> LoadWorkloadFile(const std::string& path);

/// Canonical fingerprint of a loaded workload: the version tag, every
/// query's deterministic wire serialization (the exact bytes workers
/// receive), each query's plan-affecting options encoded exactly as the
/// plan-cache fingerprint encodes them, and the schedule — under the
/// same 128-bit hash construction as plancache/fingerprint.h, rendered
/// "mbw<version>-<32 hex digits>". Byte-stable across platforms and
/// PRs; tests/workload_spec_test.cc pins the shipped files' values.
std::string WorkloadFingerprint(const Workload& workload);

}  // namespace mpqopt

#endif  // MPQOPT_WORKLOAD_WORKLOAD_SPEC_H_
