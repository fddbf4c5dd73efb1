#ifndef ESHARP_CLUSTER_SHARD_H_
#define ESHARP_CLUSTER_SHARD_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "expert/detector.h"
#include "serving/engine.h"

namespace esharp::cluster {

/// \brief One scatter leg's request: the raw query plus the deadline the
/// router carved out of the client's budget for this shard attempt.
struct ShardRequest {
  std::string query;
  /// Milliseconds this attempt may spend, queue wait included; <= 0 means
  /// no deadline. Always explicit — the router's budget overrides any
  /// engine-side default, so one slow shard cannot ignore the client.
  double deadline_ms = 0;
  /// Distributed trace context of this attempt: the router's query trace
  /// id plus a per-attempt child span id. Crosses the wire as a header
  /// line so shard-side spans carry the router's trace id.
  obs::TraceContext trace{};
};

/// \brief One shard's answer: its partition's merged candidate evidence.
/// Counts are partition-local (see serving::EvidenceResponse); the router
/// sums them across shards before ranking once.
struct ShardEvidence {
  std::vector<expert::CandidateEvidence> evidence;  // sorted-unique by user
  uint64_t snapshot_version = 0;
  size_t terms = 0;
  double shard_ms = 0;  ///< Shard-side end-to-end latency, milliseconds.
  /// The trace context the shard served under (echoes the request's when
  /// valid — proof of cross-process adoption).
  obs::TraceContext trace{};
  /// Shard-side timing breakdown, piggybacked for the router's per-query
  /// profile: where shard_ms actually went.
  double queue_ms = 0;
  double expand_ms = 0;
  double detect_ms = 0;
};

/// \brief Transport seam between the router and one shard engine. Two
/// implementations: InProcessShard below (shards as objects in the router's
/// process) and HttpShardTransport (shards as separate processes behind
/// their debugz server; see cluster/transport_http.h). The router treats
/// both identically, so correctness tests run in-process and the same
/// router binary fronts remote shards unchanged.
///
/// Collect() must be thread-safe and must return (never hang): the router's
/// hedging and degraded modes rely on every attempt eventually resolving.
/// How the router runs an attempt depends on ReturnsByDeadline(): a
/// transport that may block past its deadline gets one pool task per
/// attempt (primary or hedge), so the router's caller can stop gathering
/// at the client deadline without it; one that returns by its deadline is
/// run by whichever thread claims it first, the router's caller included,
/// and is never hedged.
class ShardTransport {
 public:
  virtual ~ShardTransport() = default;

  /// Stable display name ("shard-3", "10.0.0.7:8080").
  virtual const std::string& name() const = 0;

  /// One collection attempt against this shard.
  virtual Result<ShardEvidence> Collect(const ShardRequest& request) = 0;

  /// True only when Collect() is guaranteed to return by
  /// ShardRequest::deadline_ms — synchronous work that enforces the
  /// deadline itself, with no network or other unbounded wait.
  virtual bool ReturnsByDeadline() const { return false; }

  /// Last known snapshot version of the shard, without an RPC — folded
  /// into the router's cluster-wide cache-validation version, so it must
  /// be cheap (an atomic load) and only as fresh as the last contact.
  virtual uint64_t VersionHint() const = 0;
};

/// \brief In-process transport: the shard is a ServingEngine in the same
/// process. The engine must outlive the transport. Collect() is a
/// synchronous QueryEvidence, which checks the deadline before expansion
/// and cooperatively inside detection, so it returns by the deadline.
class InProcessShard final : public ShardTransport {
 public:
  InProcessShard(std::string name, serving::ServingEngine* engine)
      : name_(std::move(name)), engine_(engine) {}

  const std::string& name() const override { return name_; }

  bool ReturnsByDeadline() const override { return true; }

  Result<ShardEvidence> Collect(const ShardRequest& request) override {
    serving::QueryRequest query;
    query.query = request.query;
    // 0 = explicitly none; never fall through to the engine default (-1).
    query.deadline_ms = request.deadline_ms > 0 ? request.deadline_ms : 0;
    query.trace = request.trace;
    Result<serving::EvidenceResponse> result =
        engine_->QueryEvidence(std::move(query));
    if (!result.ok()) return result.status();
    serving::EvidenceResponse response = result.MoveValueUnsafe();
    ShardEvidence evidence;
    evidence.evidence = std::move(response.evidence);
    evidence.snapshot_version = response.snapshot_version;
    evidence.terms = response.terms;
    evidence.shard_ms = response.total_ms;
    evidence.trace = response.trace;
    evidence.queue_ms = response.queue_ms;
    evidence.expand_ms = response.stages.expand_ms;
    evidence.detect_ms = response.stages.detect_ms;
    return evidence;
  }

  uint64_t VersionHint() const override {
    return engine_->snapshot_version();
  }

  serving::ServingEngine* engine() const { return engine_; }

 private:
  std::string name_;
  serving::ServingEngine* engine_;
};

}  // namespace esharp::cluster

#endif  // ESHARP_CLUSTER_SHARD_H_
