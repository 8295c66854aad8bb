// Copyright 2026 mpqopt authors.

#include "plancache/fingerprint.h"

#include "common/serialize.h"

namespace mpqopt {
namespace {

inline uint64_t Rotl64(uint64_t x, int r) {
  return (x << r) | (x >> (64 - r));
}

// xxHash64 primes.
constexpr uint64_t kPrime1 = 0x9e3779b185ebca87ULL;
constexpr uint64_t kPrime2 = 0xc2b2ae3d27d4eb4fULL;
constexpr uint64_t kPrime3 = 0x165667b19e3779f9ULL;
constexpr uint64_t kPrime4 = 0x85ebca77c2b2ae63ULL;
constexpr uint64_t kPrime5 = 0x27d4eb2f165667c5ULL;

inline uint64_t ReadU64LE(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline uint32_t ReadU32LE(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline uint64_t Round(uint64_t acc, uint64_t input) {
  acc += input * kPrime2;
  acc = Rotl64(acc, 31);
  return acc * kPrime1;
}

inline uint64_t MergeRound(uint64_t acc, uint64_t val) {
  acc ^= Round(0, val);
  return acc * kPrime1 + kPrime4;
}

/// Version tag of the fingerprint encoding. Bump whenever the canonical
/// byte layout below (or Query::Serialize, or
/// MpqOptimizer::SerializeOptions) changes so that persisted or
/// cross-process fingerprints from older layouts can never alias.
constexpr uint8_t kFingerprintVersion = 2;

}  // namespace

uint64_t HashBytes64(const uint8_t* data, size_t size, uint64_t seed) {
  const uint8_t* p = data;
  const uint8_t* const end = data + size;
  uint64_t h;
  if (size >= 32) {
    uint64_t v1 = seed + kPrime1 + kPrime2;
    uint64_t v2 = seed + kPrime2;
    uint64_t v3 = seed;
    uint64_t v4 = seed - kPrime1;
    const uint8_t* const limit = end - 32;
    do {
      v1 = Round(v1, ReadU64LE(p));
      v2 = Round(v2, ReadU64LE(p + 8));
      v3 = Round(v3, ReadU64LE(p + 16));
      v4 = Round(v4, ReadU64LE(p + 24));
      p += 32;
    } while (p <= limit);
    h = Rotl64(v1, 1) + Rotl64(v2, 7) + Rotl64(v3, 12) + Rotl64(v4, 18);
    h = MergeRound(h, v1);
    h = MergeRound(h, v2);
    h = MergeRound(h, v3);
    h = MergeRound(h, v4);
  } else {
    h = seed + kPrime5;
  }
  h += static_cast<uint64_t>(size);
  while (p + 8 <= end) {
    h ^= Round(0, ReadU64LE(p));
    h = Rotl64(h, 27) * kPrime1 + kPrime4;
    p += 8;
  }
  if (p + 4 <= end) {
    h ^= static_cast<uint64_t>(ReadU32LE(p)) * kPrime1;
    h = Rotl64(h, 23) * kPrime2 + kPrime3;
    p += 4;
  }
  while (p < end) {
    h ^= static_cast<uint64_t>(*p) * kPrime5;
    h = Rotl64(h, 11) * kPrime1;
    ++p;
  }
  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  h ^= h >> 32;
  return h;
}

PlanCacheKey FingerprintQuery(const Query& query, const MpqOptions& options) {
  ByteWriter writer;
  writer.WriteU8(kFingerprintVersion);
  // The query and the options exactly as every worker receives them
  // (minus the partition id): what the request says is what the plan is
  // computed from. The options carry num_workers, since the merged
  // multi-objective frontier depends on how the plan space was
  // partitioned, and max_memo_entries, since it decides success vs.
  // failure (only successes are cached, but a run that would fail fresh
  // must not be served from a larger-budget entry).
  query.Serialize(&writer);
  MpqOptimizer::SerializeOptions(options, &writer);

  PlanCacheKey key;
  key.bytes = writer.Release();
  key.hash_hi = HashBytes64(key.bytes.data(), key.bytes.size(),
                            /*seed=*/0x6d70716f70743031ULL);
  key.hash_lo = HashBytes64(key.bytes.data(), key.bytes.size(),
                            /*seed=*/0x706c616e63616368ULL);
  return key;
}

}  // namespace mpqopt
