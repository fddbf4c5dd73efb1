#include "sqlengine/plan.h"

#include "common/strings.h"
#include "common/timer.h"

namespace esharp::sql {

namespace {
std::shared_ptr<PlanNode> NewNode(PlanNode::Kind kind) {
  auto node = std::make_shared<PlanNode>();
  node->kind = kind;
  return node;
}
}  // namespace

Plan Plan::Scan(std::string table_name) {
  auto node = NewNode(PlanNode::Kind::kScan);
  node->table_name = std::move(table_name);
  return Plan(node);
}

Plan Plan::Values(Table table) {
  auto node = NewNode(PlanNode::Kind::kValues);
  node->literal_table = std::make_shared<const Table>(std::move(table));
  return Plan(node);
}

Plan Plan::Where(ExprPtr predicate) const {
  auto node = NewNode(PlanNode::Kind::kFilter);
  node->children = {root_};
  node->predicate = std::move(predicate);
  return Plan(node);
}

Plan Plan::Select(std::vector<ProjectedColumn> projections) const {
  auto node = NewNode(PlanNode::Kind::kProject);
  node->children = {root_};
  node->projections = std::move(projections);
  return Plan(node);
}

Plan Plan::Join(const Plan& right, std::vector<std::string> left_keys,
                std::vector<std::string> right_keys, JoinType type) const {
  auto node = NewNode(PlanNode::Kind::kJoin);
  node->children = {root_, right.root_};
  node->left_keys = std::move(left_keys);
  node->right_keys = std::move(right_keys);
  node->join_type = type;
  return Plan(node);
}

Plan Plan::GroupBy(std::vector<std::string> keys,
                   std::vector<AggSpec> aggregates) const {
  auto node = NewNode(PlanNode::Kind::kAggregate);
  node->children = {root_};
  node->group_keys = std::move(keys);
  node->aggregates = std::move(aggregates);
  return Plan(node);
}

Plan Plan::Distinct() const {
  auto node = NewNode(PlanNode::Kind::kDistinct);
  node->children = {root_};
  return Plan(node);
}

Plan Plan::OrderBy(std::vector<std::string> keys,
                   std::vector<bool> ascending) const {
  auto node = NewNode(PlanNode::Kind::kSort);
  node->children = {root_};
  node->sort_keys = std::move(keys);
  node->sort_ascending = std::move(ascending);
  return Plan(node);
}

Plan Plan::Take(size_t n) const {
  auto node = NewNode(PlanNode::Kind::kLimit);
  node->children = {root_};
  node->limit = n;
  return Plan(node);
}

Plan Plan::Union(const Plan& other) const {
  auto node = NewNode(PlanNode::Kind::kUnionAll);
  node->children = {root_, other.root_};
  return Plan(node);
}

Plan Plan::As(std::string alias) const {
  auto node = NewNode(PlanNode::Kind::kAlias);
  node->children = {root_};
  node->alias = std::move(alias);
  return Plan(node);
}

std::string DescribeNode(const PlanNode& node) {
  switch (node.kind) {
    case PlanNode::Kind::kScan:
      return "Scan(" + node.table_name + ")";
    case PlanNode::Kind::kValues:
      return StrFormat("Values(%zu rows)", node.literal_table->num_rows());
    case PlanNode::Kind::kFilter:
      return "Filter(" + node.predicate->ToString() + ")";
    case PlanNode::Kind::kProject: {
      std::string cols;
      for (size_t i = 0; i < node.projections.size(); ++i) {
        if (i > 0) cols += ", ";
        cols += node.projections[i].expr->ToString() + " AS " +
                node.projections[i].name;
      }
      return "Project(" + cols + ")";
    }
    case PlanNode::Kind::kJoin:
      return "HashJoin(" + Join(node.left_keys, ",") + " = " +
             Join(node.right_keys, ",") + ")";
    case PlanNode::Kind::kAggregate:
      return "Aggregate(by " + Join(node.group_keys, ",") + ")";
    case PlanNode::Kind::kDistinct:
      return "Distinct";
    case PlanNode::Kind::kSort:
      return "Sort(" + Join(node.sort_keys, ",") + ")";
    case PlanNode::Kind::kLimit:
      return StrFormat("Limit(%zu)", node.limit);
    case PlanNode::Kind::kUnionAll:
      return "UnionAll";
    case PlanNode::Kind::kAlias:
      return "Alias(" + node.alias + ")";
  }
  return "?";
}

namespace {
void ExplainNode(const PlanNode& node, int depth, std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  out->append(DescribeNode(node));
  out->push_back('\n');
  for (const auto& child : node.children) {
    ExplainNode(*child, depth + 1, out);
  }
}
}  // namespace

std::string Plan::Explain() const {
  std::string out;
  ExplainNode(*root_, 0, &out);
  return out;
}

Result<Table> Executor::Execute(const Plan& plan, const Catalog& catalog) const {
  return ExecuteNode(*plan.root(), catalog, nullptr);
}

Result<Table> Executor::Execute(const Plan& plan, const Catalog& catalog,
                                ExplainStats* stats) const {
  if (stats != nullptr) stats->Clear();
  return ExecuteNode(*plan.root(), catalog, stats);
}

namespace {

/// Profiles one operator: label and inclusive wall time always; exact
/// rows in/out for the serial kernels (the parallel kernels in parallel.cc
/// account rows and batch counts themselves through ExecContext::stats, so
/// Finish leaves already-recorded rows alone).
class NodeProfile {
 public:
  NodeProfile(ExplainStats* stats, const PlanNode& node) : stats_(stats) {
    if (stats_ != nullptr) stats_->op = DescribeNode(node);
  }

  ExplainStats* child() {
    return stats_ != nullptr ? stats_->AddChild() : nullptr;
  }

  void RecordRows(uint64_t rows_in, uint64_t rows_out) {
    if (stats_ == nullptr) return;
    stats_->rows_in = rows_in;
    stats_->rows_out = rows_out;
  }

  Result<Table> Finish(Result<Table> result) {
    if (stats_ != nullptr) {
      stats_->wall_ms = timer_.ElapsedMillis();
      if (result.ok() && stats_->rows_in == 0 && stats_->rows_out == 0) {
        stats_->rows_out = result.ValueOrDie().num_rows();
      }
    }
    return result;
  }

 private:
  ExplainStats* stats_;
  Timer timer_;
};

}  // namespace

Result<Table> Executor::ExecuteNode(const PlanNode& node,
                                    const Catalog& catalog,
                                    ExplainStats* stats) const {
  // An alias renames columns and changes no rows, so it opens no EXPLAIN
  // node: its input reports into `stats`, and the rename's time lands in
  // the parent's self time.
  NodeProfile profile(node.kind == PlanNode::Kind::kAlias ? nullptr : stats,
                      node);
  ExecContext ctx{options_.pool,  options_.num_partitions,
                  options_.meter, options_.stage,
                  stats,          options_.use_columnar};
  switch (node.kind) {
    case PlanNode::Kind::kScan: {
      ESHARP_ASSIGN_OR_RETURN(const Table* t, catalog.Get(node.table_name));
      profile.RecordRows(t->num_rows(), t->num_rows());
      // Columnar execution scans copy-free: the cached columnar payload is
      // shared instead of deep-copying every row. The conversion happens
      // once per catalog table and is reused across queries/iterations.
      if (options_.use_columnar) {
        Result<std::shared_ptr<const ColumnTable>> ct = t->EnsureColumnar();
        if (ct.ok()) {
          return profile.Finish(Table::FromColumnar(*ct));
        }
        if (!IsColumnarUnsupported(ct.status())) return ct.status();
      }
      return profile.Finish(*t);
    }
    case PlanNode::Kind::kValues:
      profile.RecordRows(node.literal_table->num_rows(),
                         node.literal_table->num_rows());
      if (options_.use_columnar) {
        Result<std::shared_ptr<const ColumnTable>> ct =
            node.literal_table->EnsureColumnar();
        if (ct.ok()) {
          return profile.Finish(Table::FromColumnar(*ct));
        }
        if (!IsColumnarUnsupported(ct.status())) return ct.status();
      }
      return profile.Finish(*node.literal_table);
    case PlanNode::Kind::kFilter: {
      ESHARP_ASSIGN_OR_RETURN(
          Table in, ExecuteNode(*node.children[0], catalog, profile.child()));
      if (options_.pool != nullptr) {
        return profile.Finish(ParallelFilter(ctx, in, node.predicate));
      }
      Result<Table> out = Filter(in, node.predicate);
      if (out.ok()) profile.RecordRows(in.num_rows(), out.ValueOrDie().num_rows());
      return profile.Finish(std::move(out));
    }
    case PlanNode::Kind::kProject: {
      ESHARP_ASSIGN_OR_RETURN(
          Table in, ExecuteNode(*node.children[0], catalog, profile.child()));
      if (options_.pool != nullptr) {
        return profile.Finish(ParallelProject(ctx, in, node.projections));
      }
      Result<Table> out = Project(in, node.projections);
      if (out.ok()) profile.RecordRows(in.num_rows(), out.ValueOrDie().num_rows());
      return profile.Finish(std::move(out));
    }
    case PlanNode::Kind::kJoin: {
      ESHARP_ASSIGN_OR_RETURN(
          Table left, ExecuteNode(*node.children[0], catalog, profile.child()));
      ESHARP_ASSIGN_OR_RETURN(
          Table right,
          ExecuteNode(*node.children[1], catalog, profile.child()));
      if (options_.pool != nullptr) {
        return profile.Finish(ParallelHashJoin(ctx, left, right,
                                               node.left_keys, node.right_keys,
                                               node.join_type,
                                               options_.join_strategy));
      }
      Result<Table> out = HashJoin(left, right, node.left_keys,
                                   node.right_keys, node.join_type);
      if (out.ok()) {
        profile.RecordRows(left.num_rows() + right.num_rows(),
                           out.ValueOrDie().num_rows());
      }
      return profile.Finish(std::move(out));
    }
    case PlanNode::Kind::kAggregate: {
      ESHARP_ASSIGN_OR_RETURN(
          Table in, ExecuteNode(*node.children[0], catalog, profile.child()));
      if (options_.pool != nullptr) {
        return profile.Finish(
            ParallelHashAggregate(ctx, in, node.group_keys, node.aggregates));
      }
      Result<Table> out = HashAggregate(in, node.group_keys, node.aggregates);
      if (out.ok()) profile.RecordRows(in.num_rows(), out.ValueOrDie().num_rows());
      return profile.Finish(std::move(out));
    }
    case PlanNode::Kind::kDistinct: {
      ESHARP_ASSIGN_OR_RETURN(
          Table in, ExecuteNode(*node.children[0], catalog, profile.child()));
      Result<Table> out = sql::Distinct(in);
      if (out.ok()) profile.RecordRows(in.num_rows(), out.ValueOrDie().num_rows());
      return profile.Finish(std::move(out));
    }
    case PlanNode::Kind::kSort: {
      ESHARP_ASSIGN_OR_RETURN(
          Table in, ExecuteNode(*node.children[0], catalog, profile.child()));
      Result<Table> out = SortBy(in, node.sort_keys, node.sort_ascending);
      if (out.ok()) profile.RecordRows(in.num_rows(), out.ValueOrDie().num_rows());
      return profile.Finish(std::move(out));
    }
    case PlanNode::Kind::kLimit: {
      ESHARP_ASSIGN_OR_RETURN(
          Table in, ExecuteNode(*node.children[0], catalog, profile.child()));
      Result<Table> out = sql::Limit(in, node.limit);
      if (out.ok()) profile.RecordRows(in.num_rows(), out.ValueOrDie().num_rows());
      return profile.Finish(std::move(out));
    }
    case PlanNode::Kind::kUnionAll: {
      ESHARP_ASSIGN_OR_RETURN(
          Table left, ExecuteNode(*node.children[0], catalog, profile.child()));
      ESHARP_ASSIGN_OR_RETURN(
          Table right,
          ExecuteNode(*node.children[1], catalog, profile.child()));
      Result<Table> out = UnionAll(left, right);
      if (out.ok()) {
        profile.RecordRows(left.num_rows() + right.num_rows(),
                           out.ValueOrDie().num_rows());
      }
      return profile.Finish(std::move(out));
    }
    case PlanNode::Kind::kAlias: {
      ESHARP_ASSIGN_OR_RETURN(Table in,
                              ExecuteNode(*node.children[0], catalog, stats));
      Schema renamed;
      for (const Column& c : in.schema().columns()) {
        // Strip any previous qualifier, then apply the new one.
        size_t dot = c.name.rfind('.');
        std::string base =
            dot == std::string::npos ? c.name : c.name.substr(dot + 1);
        renamed.AddColumn({node.alias + "." + base, c.type});
      }
      if (options_.use_columnar && in.columnar() != nullptr) {
        // Rename on the columnar payload: copies typed vectors, not Values.
        ColumnTable renamed_ct = *in.columnar();
        renamed_ct.mutable_schema() = renamed;
        return Table::FromColumnar(
            std::make_shared<const ColumnTable>(std::move(renamed_ct)));
      }
      return Table(renamed, in.rows());
    }
  }
  return Status::Internal("unhandled plan node kind");
}

}  // namespace esharp::sql
