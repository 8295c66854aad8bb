// Copyright 2026 mpqopt authors.
//
// Instrumentation for the zero-copy contract of the RPC hot path. The
// legacy payload builders (BuildRpcReplyPayload, BuildSessionOpenPayload,
// BuildSessionStepPayload) each assemble a frame payload by copying body
// bytes into a fresh vector; the span/gather path ships the same bytes
// through SendFrameV without touching them. Every legacy assembly copy
// reports here, so a test can assert that a full RPC round leaves the
// counter untouched — the proof that the hot path really is copy-free,
// not merely faster.
//
// The counter is a process-wide relaxed atomic: cheap enough to leave on
// in release builds, and the tests only ever compare deltas.

#ifndef MPQOPT_COMMON_COPY_PROBE_H_
#define MPQOPT_COMMON_COPY_PROBE_H_

#include <atomic>
#include <cstdint>

namespace mpqopt {

namespace internal {
inline std::atomic<uint64_t> g_payload_copies{0};
}  // namespace internal

/// Records one payload-assembly copy.
inline void CountPayloadCopy() {
  internal::g_payload_copies.fetch_add(1, std::memory_order_relaxed);
}

/// Number of payload-assembly copies since process start.
inline uint64_t PayloadCopiesSoFar() {
  return internal::g_payload_copies.load(std::memory_order_relaxed);
}

}  // namespace mpqopt

#endif  // MPQOPT_COMMON_COPY_PROBE_H_
