#ifndef ESHARP_SQLENGINE_PLAN_H_
#define ESHARP_SQLENGINE_PLAN_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "sqlengine/catalog.h"
#include "sqlengine/explain.h"
#include "sqlengine/parallel.h"

namespace esharp::sql {

/// \brief Node of a logical query plan.
///
/// The plan layer is what makes the engine "declarative": callers compose
/// scans, joins, filters, projections and aggregations as a tree; the
/// Executor chooses between single-threaded kernels and partitioned parallel
/// execution. This is precisely the property §4.2.2 of the paper claims for
/// its algorithm — it "can directly be implemented in a SQL-like language"
/// and parallelized "with standard map-reduce relational operators".
struct PlanNode {
  enum class Kind {
    kScan,       // read a named table from the catalog
    kValues,     // literal table embedded in the plan
    kFilter,
    kProject,
    kJoin,
    kAggregate,
    kDistinct,
    kSort,
    kLimit,
    kUnionAll,
    kAlias,  // expose child's columns as "alias.column"
  };

  Kind kind;
  std::vector<std::shared_ptr<const PlanNode>> children;

  // kScan
  std::string table_name;
  // kValues
  std::shared_ptr<const Table> literal_table;
  // kFilter
  ExprPtr predicate;
  // kProject
  std::vector<ProjectedColumn> projections;
  // kJoin
  std::vector<std::string> left_keys, right_keys;
  JoinType join_type = JoinType::kInner;
  // kAggregate
  std::vector<std::string> group_keys;
  std::vector<AggSpec> aggregates;
  // kSort
  std::vector<std::string> sort_keys;
  std::vector<bool> sort_ascending;
  // kLimit
  size_t limit = 0;
  // kAlias
  std::string alias;
};

/// \brief Fluent builder over PlanNode trees.
class Plan {
 public:
  /// Leaf: scan a catalog table.
  static Plan Scan(std::string table_name);

  /// Leaf: wrap a literal table (tests).
  static Plan Values(Table table);

  Plan Where(ExprPtr predicate) const;
  Plan Select(std::vector<ProjectedColumn> projections) const;
  Plan Join(const Plan& right, std::vector<std::string> left_keys,
            std::vector<std::string> right_keys,
            JoinType type = JoinType::kInner) const;
  Plan GroupBy(std::vector<std::string> keys,
               std::vector<AggSpec> aggregates) const;
  Plan Distinct() const;
  Plan OrderBy(std::vector<std::string> keys,
               std::vector<bool> ascending = {}) const;
  Plan Take(size_t n) const;
  Plan Union(const Plan& other) const;

  /// SQL table alias: renames every output column to "alias.column"
  /// (stripping any previous qualifier). Used by the text front end.
  Plan As(std::string alias) const;

  const std::shared_ptr<const PlanNode>& root() const { return root_; }

  /// Textual EXPLAIN of the plan tree.
  std::string Explain() const;

 private:
  explicit Plan(std::shared_ptr<const PlanNode> root) : root_(std::move(root)) {}
  std::shared_ptr<const PlanNode> root_;
};

/// \brief Options controlling plan execution.
struct ExecutorOptions {
  /// Thread pool; null executes single-threaded.
  ThreadPool* pool = nullptr;
  /// Hash-partition fan-out for parallel operators (the "VM count").
  size_t num_partitions = 8;
  /// Join strategy for parallel joins (§4.2.3 discusses both).
  JoinStrategy join_strategy = JoinStrategy::kReplicated;
  /// Optional resource accounting.
  ResourceMeter* meter = nullptr;
  std::string stage = "sql";
  /// Parallel operators execute on the vectorized columnar kernels (typed
  /// column batches, selection vectors, copy-free partitioning); the row
  /// kernels remain as reference and as the automatic fallback for inputs
  /// with no columnar form. Results are identical either way.
  bool use_columnar = true;
};

/// \brief Evaluates plans against a catalog.
class Executor {
 public:
  explicit Executor(ExecutorOptions options = {}) : options_(options) {}

  /// Executes a plan, materializing its result.
  Result<Table> Execute(const Plan& plan, const Catalog& catalog) const;

  /// Executes a plan while profiling every operator into `stats`
  /// (EXPLAIN ANALYZE): exact rows in/out, partition batch counts, and
  /// inclusive wall time, one ExplainStats node per plan node except
  /// aliases, which change no rows: an alias's input is profiled in its
  /// place. `stats` is cleared first; `stats->ToString()` renders the
  /// report.
  Result<Table> Execute(const Plan& plan, const Catalog& catalog,
                        ExplainStats* stats) const;

  const ExecutorOptions& options() const { return options_; }

 private:
  Result<Table> ExecuteNode(const PlanNode& node, const Catalog& catalog,
                            ExplainStats* stats) const;

  ExecutorOptions options_;
};

/// \brief One-line operator label shared by EXPLAIN and EXPLAIN ANALYZE,
/// e.g. "HashJoin(a = b)".
std::string DescribeNode(const PlanNode& node);

}  // namespace esharp::sql

#endif  // ESHARP_SQLENGINE_PLAN_H_
