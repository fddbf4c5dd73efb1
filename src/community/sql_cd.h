#ifndef ESHARP_COMMUNITY_SQL_CD_H_
#define ESHARP_COMMUNITY_SQL_CD_H_

#include <array>
#include <string_view>

#include "common/result.h"
#include "community/parallel_cd.h"
#include "sqlengine/parser.h"
#include "sqlengine/plan.h"

namespace esharp::community {

/// \brief Options of the SQL-based detection.
struct SqlCdOptions {
  size_t max_iterations = 30;
  /// Execution knobs forwarded to the relational engine; `pool == nullptr`
  /// runs single-threaded, otherwise operators hash-partition across the
  /// pool, which is the paper's map-reduce parallelization (§4.2.3).
  ThreadPool* pool = nullptr;
  size_t num_partitions = 8;
  sql::JoinStrategy join_strategy = sql::JoinStrategy::kReplicated;
  ResourceMeter* meter = nullptr;
  /// Optional tracing: each rename iteration becomes an "iteration" span
  /// (annotated with community count and modularity) under `trace_parent`.
  obs::Tracer* tracer = nullptr;
  const obs::Span* trace_parent = nullptr;
  /// When set, the first iteration's "partitions" statement (join graph to
  /// communities, aggregate weights, ModulGain filter, argmax) is profiled
  /// into this EXPLAIN ANALYZE tree with exact per-operator row counts.
  sql::ExplainStats* explain = nullptr;
  /// When > 0, use this as the graph total weight m_G in the ModulGain UDF
  /// and the modularity trace instead of g.TotalWeight(). Set by the
  /// per-component decomposition (component_cd.h) so a component run is
  /// bit-identical to its slice of a full-graph run.
  double total_weight_override = 0;
};

/// \brief One statement of the Fig. 4 script. Its result is registered in
/// the catalog under `name`, where the statements after it read it.
struct SqlCdStatement {
  std::string_view name;
  std::string_view sql;
};

/// \brief The Fig. 4 script, in execution order:
///
///   degrees     = per community, the summed degree of its members;
///   partitions  = per community, argmax(gain) over its neighbors, where the
///                 neighbors (Fig. 4 "neighbors") are a derived table: join
///                 graph to communities on both endpoints, aggregate the
///                 inter-community weight, join the degrees, and keep pairs
///                 whose ModulGain is positive;
///   communities = rename each community to LEAST(itself, chosen target).
///
/// The statements read the base tables `graph(query1, query2, distance)`
/// and `communities(comm_name, query)` (SqlCdCatalog) and call the
/// `modulgain` and `least` UDFs (SqlCdFunctions).
extern const std::array<SqlCdStatement, 3> kSqlCdScript;

/// \brief The scalar UDFs the script calls: modulgain(d1, d2, w) =
/// w - d1*d2 / (2 m_G), Eq. 8/9 with m_G = `total_weight`; and least(a, b),
/// the smaller non-NULL argument.
sql::FunctionRegistry SqlCdFunctions(double total_weight);

/// \brief The script's base tables for `g`: `graph` holds both directions
/// of every edge, `communities` the singleton initialization. Vertices are
/// named by SqlVertexName. Both tables are converted to columnar form once,
/// so every scan is a copy-free handoff.
sql::Catalog SqlCdCatalog(const graph::Graph& g);

/// \brief The paper's SQL-based modularity maximization (Fig. 4): the
/// literal SQL of kSqlCdScript, compiled once by the bundled parser and run
/// on the relational engine every iteration. This is the closest rendering
/// of the paper's claim that the algorithm "can directly be implemented in
/// a SQL-like language such as Hive, Microsoft's SCOPE or Pig".
///
/// The LEAST canonicalization is the deterministic tie-break that makes the
/// rename cascade converge (mutual best pairs collapse onto the smaller
/// name instead of swapping forever); it corresponds to the "keep the
/// closest neighborhood" rule of §4.2.2 step 2 with a stable naming choice.
/// Vertex names are zero-padded ids so lexicographic order equals numeric
/// order; the result is then identical, community by community, to
/// DetectCommunitiesParallel.
Result<DetectionResult> DetectCommunitiesSql(const graph::Graph& g,
                                             const SqlCdOptions& options = {});

/// \brief Renders the zero-padded vertex name used inside the SQL tables.
std::string SqlVertexName(graph::VertexId v);

}  // namespace esharp::community

#endif  // ESHARP_COMMUNITY_SQL_CD_H_
