#ifndef ESHARP_ESHARP_PIPELINE_H_
#define ESHARP_ESHARP_PIPELINE_H_

#include <memory>

#include "common/result.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "community/store.h"
#include "expert/evidence_index.h"
#include "graph/builder.h"
#include "microblog/corpus.h"
#include "obs/trace.h"
#include "querylog/log.h"
#include "sqlengine/explain.h"

namespace esharp::core {

/// \brief Which implementation of the clustering phase to run.
enum class ClusteringBackend {
  /// Native in-memory implementation of the paper's parallel algorithm.
  kParallelNative,
  /// The same algorithm executed as relational plans on the SQL engine
  /// (Fig. 4) — slower, but it is the paper's actual deployment story.
  kSqlEngine,
};

/// \brief Options of the weekly offline job (§2: extraction + clustering).
struct OfflineOptions {
  /// Extraction stage knobs (§4.1).
  graph::SimilarityGraphOptions extraction;
  /// Clustering backend and iteration cap.
  ClusteringBackend backend = ClusteringBackend::kParallelNative;
  size_t max_iterations = 30;
  /// Parallelism: pool used by both stages when set.
  ThreadPool* pool = nullptr;
  size_t num_partitions = 8;
  /// Optional Table 9 accounting.
  ResourceMeter* meter = nullptr;
  /// Optional warm start for the weekly refresh (§6.3: "The offline part of
  /// our system runs weekly"): seed clustering with last week's communities;
  /// queries still present start in their previous community, new queries
  /// start as singletons. Only honored by the native backend.
  const community::CommunityStore* previous_store = nullptr;
  /// Optional tracing of the whole job: an "offline_pipeline" span under
  /// `trace_parent` with "extract" / "cluster" / "index" children; the
  /// clustering backend adds per-iteration spans with modularity
  /// annotations.
  obs::Tracer* tracer = nullptr;
  const obs::Span* trace_parent = nullptr;
  /// When set (kSqlEngine backend only), the first clustering iteration's
  /// main plan is profiled into this EXPLAIN ANALYZE tree.
  sql::ExplainStats* explain = nullptr;
  /// When set, the index stage also precomputes the per-term evidence
  /// index over this corpus (the serving fast path's snapshot artifact;
  /// see expert/evidence_index.h) into
  /// OfflineArtifacts::evidence_index, parallelized on `pool`.
  const microblog::TweetCorpus* corpus = nullptr;
};

/// \brief Everything the offline stage produces.
struct OfflineArtifacts {
  /// The term-similarity graph (kept for Fig. 7-style inspection).
  graph::Graph similarity_graph;
  /// Detection trace (Fig. 5 series).
  std::vector<size_t> communities_per_iteration;
  std::vector<double> modularity_per_iteration;
  /// The indexed collection of expertise domains.
  community::CommunityStore store;
  /// Precomputed per-term candidate pools for the serving fast path; null
  /// unless OfflineOptions::corpus was set. shared_ptr because serving
  /// snapshots co-own it with (and hot-swap it alongside) the store.
  std::shared_ptr<const expert::TermEvidenceIndex> evidence_index;
};

/// \brief Runs the offline pipeline of Fig. 1 over a query log: extract the
/// similarity graph, detect communities, index the result.
Result<OfflineArtifacts> RunOfflinePipeline(const querylog::QueryLog& log,
                                            const OfflineOptions& options);

/// \brief Maps a previous week's communities onto a new graph: vertices
/// whose query string existed last week inherit their old community
/// (renamed to the smallest member vertex id, as the detection's rename
/// rule requires); unseen queries start as singletons.
std::vector<community::CommunityId> WarmStartFromStore(
    const graph::Graph& g, const community::CommunityStore& previous);

}  // namespace esharp::core

#endif  // ESHARP_ESHARP_PIPELINE_H_
