// Copyright 2026 mpqopt authors.

#include "cluster/session/stateful_task.h"

#include "sma/sma_node.h"

namespace mpqopt {
namespace {

// ---------------------------------------------------------------- SMA

/// The registered wrapper around sma/sma_node.h's replica.
class SmaSessionState : public SessionState {
 public:
  explicit SmaSessionState(std::unique_ptr<SmaNode> node)
      : node_(std::move(node)) {}
  size_t ApproxBytes() const override { return node_->ApproxBytes(); }
  SmaNode* node() const { return node_.get(); }

 private:
  std::unique_ptr<SmaNode> node_;
};

StatusOr<std::unique_ptr<SessionState>> SmaOpen(
    const std::vector<uint8_t>& request) {
  StatusOr<std::unique_ptr<SmaNode>> node = SmaNode::FromOpenRequest(request);
  if (!node.ok()) return node.status();
  return std::unique_ptr<SessionState>(
      std::make_unique<SmaSessionState>(std::move(node).value()));
}

StatusOr<std::vector<uint8_t>> SmaStep(SessionState* state,
                                       const std::vector<uint8_t>& request) {
  return static_cast<SmaSessionState*>(state)->node()->HandleStep(request);
}

// -------------------------------------------------------- accumulator

/// Diagnostic replica: a byte buffer. Lets the session tests (and the
/// byte-cap / TTL edge cases) drive real state across rounds without
/// involving an optimizer, the way echo/fail serve the stateless suite.
class AccumulatorState : public SessionState {
 public:
  explicit AccumulatorState(std::vector<uint8_t> initial)
      : buffer_(std::move(initial)) {}
  size_t ApproxBytes() const override {
    return sizeof(AccumulatorState) + buffer_.capacity();
  }
  std::vector<uint8_t>& buffer() { return buffer_; }

 private:
  std::vector<uint8_t> buffer_;
};

StatusOr<std::unique_ptr<SessionState>> AccumulatorOpen(
    const std::vector<uint8_t>& request) {
  return std::unique_ptr<SessionState>(
      std::make_unique<AccumulatorState>(request));
}

StatusOr<std::vector<uint8_t>> AccumulatorStep(
    SessionState* state, const std::vector<uint8_t>& request) {
  if (request.empty()) {
    return Status::Corruption("empty accumulator step request");
  }
  std::vector<uint8_t>& buffer =
      static_cast<AccumulatorState*>(state)->buffer();
  switch (request[0]) {
    case kAccumulatorPeekOp:
      return buffer;
    case kAccumulatorAppendOp:
      buffer.insert(buffer.end(), request.begin() + 1, request.end());
      return std::vector<uint8_t>();
    default:
      return Status::Corruption("unknown accumulator op " +
                                std::to_string(request[0]));
  }
}

// ------------------------------------------------------------ registry

constexpr StatefulTaskVtable kSmaVtable = {&SmaOpen, &SmaStep};
constexpr StatefulTaskVtable kAccumulatorVtable = {&AccumulatorOpen,
                                                   &AccumulatorStep};

}  // namespace

const char* StatefulTaskKindName(StatefulTaskKind kind) {
  switch (kind) {
    case StatefulTaskKind::kUnknownStateful:
      return "unknown";
    case StatefulTaskKind::kSmaNode:
      return "sma-node";
    case StatefulTaskKind::kAccumulator:
      return "accumulator";
  }
  return "unknown";
}

const StatefulTaskVtable* StatefulTaskForKind(StatefulTaskKind kind) {
  switch (kind) {
    case StatefulTaskKind::kUnknownStateful:
      return nullptr;
    case StatefulTaskKind::kSmaNode:
      return &kSmaVtable;
    case StatefulTaskKind::kAccumulator:
      return &kAccumulatorVtable;
  }
  return nullptr;
}

}  // namespace mpqopt
