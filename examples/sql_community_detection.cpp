// The paper's core systems idea, step by step: community detection as
// literal SQL (Fig. 4 of the paper), compiled and executed on the bundled
// mini SQL engine.
//
// This example builds the paper's Fig. 3 toy graph, registers the `graph`
// and `communities` tables, then runs ONE iteration of the algorithm
// statement by statement — the very statements DetectCommunitiesSql runs —
// printing each statement's SQL, the plan the parser compiles from it
// (EXPLAIN) and its materialized result, so you can see exactly what the
// production pipeline ships to Hive/SCOPE. It then runs the full loop via
// DetectCommunitiesSql and cross-checks against the native implementation.

#include <cstdio>
#include <string>

#include "community/parallel_cd.h"
#include "community/sql_cd.h"
#include "community/store.h"

using namespace esharp;

namespace {

// The fictive graph of the paper's Fig. 3: {Football, NFL, 49ers} densely
// connected, {San Francisco, SF Bridge, California} densely connected, one
// weak link between the groups.
graph::Graph Fig3Graph() {
  graph::Graph g;
  auto football = g.AddVertex("football");
  auto nfl = g.AddVertex("nfl");
  auto niners = g.AddVertex("49ers");
  auto sf = g.AddVertex("san francisco");
  auto bridge = g.AddVertex("sf bridge");
  auto california = g.AddVertex("california");
  (void)g.AddEdge(football, nfl, 1.0);
  (void)g.AddEdge(football, niners, 0.9);
  (void)g.AddEdge(nfl, niners, 0.8);
  (void)g.AddEdge(sf, bridge, 1.0);
  (void)g.AddEdge(sf, california, 0.9);
  (void)g.AddEdge(bridge, california, 0.8);
  (void)g.AddEdge(niners, sf, 0.15);  // weak cross-topic link
  g.Finalize();
  return g;
}

}  // namespace

int main() {
  graph::Graph g = Fig3Graph();

  std::printf("--- vertex names in the SQL tables ---\n");
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    std::printf("%s = %s\n", community::SqlVertexName(v).c_str(),
                g.label(v).c_str());
  }

  // One iteration of the driver's own script, statement by statement.
  sql::Catalog catalog = community::SqlCdCatalog(g);
  const sql::FunctionRegistry functions =
      community::SqlCdFunctions(g.TotalWeight());
  const sql::Executor executor;
  for (const community::SqlCdStatement& statement : community::kSqlCdScript) {
    const std::string name(statement.name);
    Result<sql::Plan> plan = sql::ParseSql(statement.sql, functions);
    if (!plan.ok()) return 1;
    Result<sql::Table> result = executor.Execute(*plan, catalog);
    if (!result.ok()) return 1;
    std::printf("\n--- %s ---%.*s\n%s%s", name.c_str(),
                static_cast<int>(statement.sql.size()), statement.sql.data(),
                plan->Explain().c_str(), result->ToString(12).c_str());
    catalog.Register(name, std::move(result).ValueOrDie());
  }

  // Full loop, then cross-check against the native implementation.
  auto sql_result = community::DetectCommunitiesSql(g);
  auto native_result = community::DetectCommunitiesParallel(g);
  if (!sql_result.ok() || !native_result.ok()) return 1;

  std::printf("\n--- final communities (SQL engine) ---\n");
  community::CommunityStore store =
      community::CommunityStore::Build(g, sql_result->assignment);
  for (size_t c = 0; c < store.num_communities(); ++c) {
    std::printf("community %zu: ", c);
    for (const std::string& t : store.community(c).terms) {
      std::printf("[%s] ", t.c_str());
    }
    std::printf("\n");
  }
  bool identical = sql_result->assignment.size() ==
                   native_result->assignment.size();
  for (graph::VertexId v = 0; identical && v < g.num_vertices(); ++v) {
    for (graph::VertexId u = 0; u < v; ++u) {
      bool sql_same = sql_result->assignment[u] == sql_result->assignment[v];
      bool nat_same =
          native_result->assignment[u] == native_result->assignment[v];
      if (sql_same != nat_same) identical = false;
    }
  }
  std::printf("\nSQL and native detection agree: %s\n",
              identical ? "yes" : "NO (bug!)");
  return identical ? 0 : 1;
}
