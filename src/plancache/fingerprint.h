// Copyright 2026 mpqopt authors.
//
// Query fingerprinting for the plan cache (see plancache/plan_cache.h).
//
// A fingerprint is the canonical byte encoding of everything that can
// change which plan the optimizer returns: the query itself (tables,
// statistics, predicates, selectivities — reusing the deterministic
// wire serialization of catalog/query.h) plus the options as the workers
// receive them (MpqOptimizer::SerializeOptions), so the key holds
// exactly the request bytes after the partition id. Execution-only knobs
// (backend handle, thread caps, the network model) are not in the
// request — they change how fast a plan is found, never which plan is
// found.
//
// The 128-bit hash is only an index accelerator: the cache keeps the
// full key bytes and compares them on every probe, so even a forced
// hash collision can never serve the wrong plan (asserted by
// tests/plan_cache_test.cc).

#ifndef MPQOPT_PLANCACHE_FINGERPRINT_H_
#define MPQOPT_PLANCACHE_FINGERPRINT_H_

#include <cstdint>
#include <vector>

#include "catalog/query.h"
#include "mpq/mpq.h"

namespace mpqopt {

/// Cache key: canonical bytes plus a 128-bit hash of them.
struct PlanCacheKey {
  /// Canonical encoding of (query, plan-affecting options). Retained in
  /// full so that cache probes can reject hash collisions exactly.
  std::vector<uint8_t> bytes;
  uint64_t hash_hi = 0;
  uint64_t hash_lo = 0;

  /// Full-key equality: hashes first (cheap reject), then the bytes.
  bool operator==(const PlanCacheKey& other) const {
    return hash_hi == other.hash_hi && hash_lo == other.hash_lo &&
           bytes == other.bytes;
  }
  bool operator!=(const PlanCacheKey& other) const {
    return !(*this == other);
  }
};

/// Strong 64-bit mixing hash over a byte span (xxHash64-style avalanche;
/// public-domain construction). Different seeds give independent streams,
/// which is how the 128-bit fingerprint hash is assembled.
uint64_t HashBytes64(const uint8_t* data, size_t size, uint64_t seed);

/// Builds the canonical fingerprint of one (query, options) pair.
/// Deterministic: the same inputs produce byte-identical keys on every
/// platform (the serialization layer guarantees this; see
/// tests/serialize_determinism_test.cc).
PlanCacheKey FingerprintQuery(const Query& query, const MpqOptions& options);

}  // namespace mpqopt

#endif  // MPQOPT_PLANCACHE_FINGERPRINT_H_
