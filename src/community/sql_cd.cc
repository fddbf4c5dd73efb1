#include "community/sql_cd.h"

#include "common/strings.h"
#include "common/timer.h"
#include "obs/obs.h"

namespace esharp::community {

namespace sqlns = esharp::sql;

// The algorithm of Fig. 4, written as the SQL a SCOPE/Hive deployment would
// actually submit. The driver chains the statements by registering each
// result under its name, exactly like a multi-statement script.
const std::array<SqlCdStatement, 3> kSqlCdScript = {{
    {"degrees", R"sql(
    SELECT c1.comm_name AS comm, sum(graph.distance) AS degree
    FROM graph
    INNER JOIN communities c1 ON graph.query1 = c1.query
    GROUP BY c1.comm_name
)sql"},
    {"partitions", R"sql(
    SELECT n.comm1 AS comm1, argmax(n.gain, n.comm2) AS best
    FROM (SELECT b.comm1 AS comm1, b.comm2 AS comm2,
                 modulgain(d1.degree, d2.degree, b.w12) AS gain
          FROM (SELECT c1.comm_name AS comm1, c2.comm_name AS comm2,
                       sum(graph.distance) AS w12
                FROM graph
                INNER JOIN communities c1 ON graph.query1 = c1.query
                INNER JOIN communities c2 ON graph.query2 = c2.query
                WHERE c1.comm_name <> c2.comm_name
                GROUP BY c1.comm_name, c2.comm_name) b
          INNER JOIN degrees d1 ON b.comm1 = d1.comm
          INNER JOIN degrees d2 ON b.comm2 = d2.comm
          WHERE modulgain(d1.degree, d2.degree, b.w12) > 0) n
    GROUP BY n.comm1
)sql"},
    {"communities", R"sql(
    SELECT least(p.best, c.comm_name) AS comm_name, c.query AS query
    FROM communities c
    LEFT OUTER JOIN partitions p ON c.comm_name = p.comm1
)sql"},
}};

std::string SqlVertexName(graph::VertexId v) {
  return StrFormat("v%09u", v);
}

sqlns::FunctionRegistry SqlCdFunctions(double total_weight) {
  sqlns::FunctionRegistry registry;
  registry.RegisterScalar(
      "modulgain",
      [total_weight](const std::vector<sqlns::Value>& args)
          -> Result<sqlns::Value> {
        if (args.size() != 3) {
          return Status::InvalidArgument("modulgain expects 3 arguments");
        }
        ESHARP_ASSIGN_OR_RETURN(double d1, args[0].AsDouble());
        ESHARP_ASSIGN_OR_RETURN(double d2, args[1].AsDouble());
        ESHARP_ASSIGN_OR_RETURN(double w, args[2].AsDouble());
        return sqlns::Value::Double(w - d1 * d2 / (2.0 * total_weight));
      });
  // least(candidate, self): candidate is NULL for communities with no
  // positive-gain neighbor (left outer join miss) — keep self then.
  registry.RegisterScalar(
      "least",
      [](const std::vector<sqlns::Value>& args) -> Result<sqlns::Value> {
        if (args.size() != 2) {
          return Status::InvalidArgument("least expects 2 arguments");
        }
        if (args[0].is_null()) return args[1];
        if (args[1].is_null()) return args[0];
        return args[0].Compare(args[1]) <= 0 ? args[0] : args[1];
      });
  return registry;
}

sqlns::Catalog SqlCdCatalog(const graph::Graph& g) {
  sqlns::TableBuilder graph_builder({{"query1", sqlns::DataType::kString},
                                     {"query2", sqlns::DataType::kString},
                                     {"distance", sqlns::DataType::kDouble}});
  for (const graph::Edge& e : g.edges()) {
    graph_builder.AddRow({sqlns::Value::String(SqlVertexName(e.u)),
                          sqlns::Value::String(SqlVertexName(e.v)),
                          sqlns::Value::Double(e.weight)});
    graph_builder.AddRow({sqlns::Value::String(SqlVertexName(e.v)),
                          sqlns::Value::String(SqlVertexName(e.u)),
                          sqlns::Value::Double(e.weight)});
  }
  sqlns::TableBuilder comm_builder({{"comm_name", sqlns::DataType::kString},
                                    {"query", sqlns::DataType::kString}});
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    comm_builder.AddRow({sqlns::Value::String(SqlVertexName(v)),
                         sqlns::Value::String(SqlVertexName(v))});
  }
  sqlns::Table graph_table = graph_builder.Build();
  sqlns::Table communities_table = comm_builder.Build();
  // String and double columns always have a columnar form.
  (void)graph_table.EnsureColumnar();
  (void)communities_table.EnsureColumnar();
  sqlns::Catalog catalog;
  catalog.Register("graph", std::move(graph_table));
  catalog.Register("communities", std::move(communities_table));
  return catalog;
}

namespace {

// Decodes the communities(comm_name, query) table into a dense assignment
// vector (names are SqlVertexName-padded ids).
Result<std::vector<CommunityId>> DecodeAssignment(const sqlns::Table& table,
                                                  size_t num_vertices) {
  std::vector<CommunityId> assignment(num_vertices, 0);
  ESHARP_ASSIGN_OR_RETURN(size_t comm_idx, table.schema().IndexOf("comm_name"));
  ESHARP_ASSIGN_OR_RETURN(size_t query_idx, table.schema().IndexOf("query"));
  for (const sqlns::Row& r : table.rows()) {
    graph::VertexId vertex = static_cast<graph::VertexId>(
        std::stoul(r[query_idx].string_value().substr(1)));
    if (vertex >= num_vertices) {
      return Status::Internal("vertex out of range in communities table");
    }
    assignment[vertex] = static_cast<CommunityId>(
        std::stoul(r[comm_idx].string_value().substr(1)));
  }
  return assignment;
}

}  // namespace

Result<DetectionResult> DetectCommunitiesSql(const graph::Graph& g,
                                             const SqlCdOptions& options) {
  if (g.num_vertices() == 0) {
    return Status::InvalidArgument("empty graph");
  }
  DetectionResult result;
  if (g.num_edges() == 0) {
    // All vertices are orphans; nothing to merge.
    result.assignment.resize(g.num_vertices());
    for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
      result.assignment[v] = static_cast<CommunityId>(v);
    }
    result.communities_per_iteration = {g.num_vertices()};
    result.modularity_per_iteration = {0.0};
    result.converged = true;
    return result;
  }
  Timer timer;

  const ModularityContext ctx =
      options.total_weight_override > 0
          ? ModularityContext(options.total_weight_override)
          : ModularityContext(g);

  // Compile the script once; every iteration re-runs the same plans.
  const sqlns::FunctionRegistry functions =
      SqlCdFunctions(ctx.total_weight());
  std::vector<sqlns::Plan> plans;
  for (const SqlCdStatement& statement : kSqlCdScript) {
    ESHARP_ASSIGN_OR_RETURN(sqlns::Plan plan,
                            sqlns::ParseSql(statement.sql, functions));
    plans.push_back(std::move(plan));
  }
  const sqlns::Plan& degrees = plans[0];
  const sqlns::Plan& partitions = plans[1];
  const sqlns::Plan& rename = plans[2];

  sqlns::Catalog catalog = SqlCdCatalog(g);
  sqlns::ExecutorOptions exec_options;
  exec_options.pool = options.pool;
  exec_options.num_partitions = options.num_partitions;
  exec_options.join_strategy = options.join_strategy;
  exec_options.meter = options.meter;
  exec_options.stage = "Clustering";
  const sqlns::Executor executor(exec_options);

  // Appends the current communities table's count and modularity to the
  // Fig. 5 trace series.
  auto record_state = [&]() -> Status {
    ESHARP_ASSIGN_OR_RETURN(const sqlns::Table* communities,
                            catalog.Get("communities"));
    ESHARP_ASSIGN_OR_RETURN(std::vector<CommunityId> assignment,
                            DecodeAssignment(*communities, g.num_vertices()));
    const Partition partition(g, std::move(assignment));
    result.communities_per_iteration.push_back(partition.NumCommunities());
    result.modularity_per_iteration.push_back(partition.TotalModularity(ctx));
    return Status::OK();
  };
  ESHARP_RETURN_NOT_OK(record_state());

  for (size_t iter = 0; iter < options.max_iterations; ++iter) {
    ESHARP_SPAN(iter_span, options.tracer, "iteration", options.trace_parent);
    ESHARP_SPAN_ANNOTATE(iter_span, "iteration", static_cast<int64_t>(iter));

    ESHARP_ASSIGN_OR_RETURN(sqlns::Table degrees_table,
                            executor.Execute(degrees, catalog));
    catalog.Register("degrees", std::move(degrees_table));
    // The first iteration's "partitions" doubles as the EXPLAIN ANALYZE
    // sample when the caller asked for one.
    ESHARP_ASSIGN_OR_RETURN(
        sqlns::Table partitions_table,
        executor.Execute(partitions, catalog,
                         iter == 0 ? options.explain : nullptr));
    catalog.Register("partitions", std::move(partitions_table));
    ESHARP_ASSIGN_OR_RETURN(sqlns::Table renamed,
                            executor.Execute(rename, catalog));

    // Convergence: did any membership change? Multiset equality over the
    // columnar payloads: no table copies, no row materialization.
    ESHARP_ASSIGN_OR_RETURN(const sqlns::Table* previous,
                            catalog.Get("communities"));
    ESHARP_ASSIGN_OR_RETURN(std::shared_ptr<const sqlns::ColumnTable> before,
                            previous->EnsureColumnar());
    ESHARP_ASSIGN_OR_RETURN(std::shared_ptr<const sqlns::ColumnTable> after,
                            renamed.EnsureColumnar());
    const bool changed = !sqlns::ColumnTablesEqualAsMultisets(*before, *after);
    catalog.Register("communities", std::move(renamed));
    if (!changed) {
      ESHARP_SPAN_ANNOTATE(iter_span, "converged", "true");
      result.converged = true;
      break;
    }
    ++result.iterations;
    ESHARP_RETURN_NOT_OK(record_state());
    ESHARP_SPAN_ANNOTATE(
        iter_span, "communities",
        static_cast<int64_t>(result.communities_per_iteration.back()));
    ESHARP_SPAN_ANNOTATE(iter_span, "modularity",
                         result.modularity_per_iteration.back());
  }

  ESHARP_ASSIGN_OR_RETURN(const sqlns::Table* final_table,
                          catalog.Get("communities"));
  ESHARP_ASSIGN_OR_RETURN(result.assignment,
                          DecodeAssignment(*final_table, g.num_vertices()));

  if (options.meter != nullptr) {
    options.meter->AddTime("Clustering", timer.ElapsedSeconds());
    ESHARP_ASSIGN_OR_RETURN(const sqlns::Table* graph_table,
                            catalog.Get("graph"));
    options.meter->AddIO("Clustering", graph_table->SizeBytes(),
                         final_table->SizeBytes());
    options.meter->SetParallelism(
        "Clustering", options.pool != nullptr ? options.num_partitions : 1);
  }
  return result;
}

}  // namespace esharp::community
