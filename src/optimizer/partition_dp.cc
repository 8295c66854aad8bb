// Copyright 2026 mpqopt authors.

#include "optimizer/partition_dp.h"

#include <algorithm>
#include <memory>

namespace mpqopt {
namespace {

/// Partition indexes each thread keeps: every partition of two query
/// shapes at m = 16. An entry is a PartitionIndex (64 bytes), its groups
/// (248 bytes each) and its key: about 1.2 KiB for an 8-table query and
/// at most 9 KiB at 64 tables, so about 40 KiB per thread, 290 KiB at
/// most.
constexpr size_t kIndexCacheEntries = 32;

/// One partition index with the key it was built for.
struct CachedIndex {
  CachedIndex(int n, const ConstraintSet& c)
      : num_tables(n), constraints(c), index(n, c) {}

  int num_tables;
  ConstraintSet constraints;
  PartitionIndex index;
};

/// Finds or builds this thread's index for (num_tables, constraints).
/// Entries are kept most recently used first; a miss drops the least
/// recently used one once the cache is full.
const PartitionIndex& CachedPartitionIndex(int num_tables,
                                           const ConstraintSet& constraints) {
  thread_local std::vector<std::unique_ptr<CachedIndex>> cache;
  auto it = std::find_if(cache.begin(), cache.end(),
                         [&](const std::unique_ptr<CachedIndex>& e) {
                           return e->num_tables == num_tables &&
                                  e->constraints == constraints;
                         });
  if (it != cache.end()) {
    std::rotate(cache.begin(), it, it + 1);
  } else {
    if (cache.size() == kIndexCacheEntries) cache.pop_back();
    cache.insert(cache.begin(),
                 std::make_unique<CachedIndex>(num_tables, constraints));
  }
  return cache.front()->index;
}

}  // namespace

Status OpenPartition(const Query& query, const ConstraintSet& constraints,
                     PlanSpace space, int64_t max_memo_entries,
                     const PartitionIndex** index) {
  Status valid = query.Validate();
  if (!valid.ok()) return valid;
  if (constraints.space() != space) {
    return Status::InvalidArgument("constraint set is for the other space");
  }
  const PartitionIndex& opened =
      CachedPartitionIndex(query.num_tables(), constraints);
  if (opened.size() > max_memo_entries) {
    return Status::OutOfRange(
        "plan space partition too large; increase the number of workers");
  }
  *index = &opened;
  return Status::OK();
}

}  // namespace mpqopt
