#ifndef ESHARP_COMMUNITY_COMPONENT_CD_H_
#define ESHARP_COMMUNITY_COMPONENT_CD_H_

#include "common/result.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "community/parallel_cd.h"
#include "graph/graph.h"

namespace esharp::community {

/// \brief Options of the per-component decomposition.
struct ComponentCdOptions {
  /// Run each component through the SQL engine (DetectCommunitiesSql)
  /// instead of the native parallel heuristic.
  bool use_sql = false;
  size_t max_iterations = 30;
  /// Forwarded to the per-component runs (the components themselves are
  /// processed serially in ascending min-vertex order, for determinism).
  ThreadPool* pool = nullptr;
  size_t num_partitions = 8;
  ResourceMeter* meter = nullptr;
};

/// \brief Exact per-connected-component decomposition of modularity
/// clustering: runs detection on each connected component separately and
/// stitches the assignments back together.
///
/// The merge gain (Eq. 8) is globally coupled through the total graph
/// weight m_G, so clustering a subgraph naively changes every gain. But
/// within one run, merges never cross connected components — a community
/// only ever merges with a neighbor, and neighborhoods never span
/// components. So each component's merge trajectory depends only on its own
/// edges and degrees plus the scalar m_G. Running the component alone with
/// `total_weight_override = m_G` therefore reproduces the full run's
/// decisions on that component bit-for-bit, iteration by iteration
/// (including where the `max_iterations` cap bites: a converged component's
/// state is fixed, so stopping it early changes nothing).
///
/// Two details make the stitching exact rather than merely isomorphic:
///  - subgraph vertices are added in ascending global-id order, so local id
///    order equals global id order and the deterministic min-id rename rule
///    picks the same member either way;
///  - a community is named after its minimum member, so mapping a local
///    community name back through the vertex list yields exactly the global
///    name the full-graph run would have used.
///
/// The result's `assignment` is therefore bit-identical to
/// DetectCommunitiesParallel (or DetectCommunitiesSql) on the whole graph.
/// Isolated vertices stay singleton communities named after themselves.
/// The per-iteration trace series (`communities_per_iteration`,
/// `modularity_per_iteration`) are NOT populated — component runs converge
/// at different iterations, so there is no single meaningful global series;
/// `iterations` is the max across components and `converged` the
/// conjunction. The streaming ingest path (src/ingest) uses this to
/// re-cluster after a batch without paying the monolithic full-graph
/// inter-community scan.
Result<DetectionResult> DetectCommunitiesByComponent(
    const graph::Graph& g, const ComponentCdOptions& options = {});

}  // namespace esharp::community

#endif  // ESHARP_COMMUNITY_COMPONENT_CD_H_
