#include <gtest/gtest.h>

#include "sqlengine/parser.h"

namespace esharp::sql {
namespace {

Catalog MakeCatalog() {
  Catalog cat;
  {
    TableBuilder b({{"name", DataType::kString},
                    {"age", DataType::kInt64},
                    {"score", DataType::kDouble}});
    b.AddRow({Value::String("ann"), Value::Int(30), Value::Double(1.5)});
    b.AddRow({Value::String("bob"), Value::Int(25), Value::Double(2.5)});
    b.AddRow({Value::String("cat"), Value::Int(30), Value::Double(0.5)});
    b.AddRow({Value::String("dan"), Value::Int(40), Value::Double(4.0)});
    cat.Register("people", b.Build());
  }
  {
    TableBuilder b({{"who", DataType::kString},
                    {"item", DataType::kString},
                    {"price", DataType::kDouble}});
    b.AddRow({Value::String("ann"), Value::String("book"), Value::Double(12)});
    b.AddRow({Value::String("ann"), Value::String("pen"), Value::Double(2)});
    b.AddRow({Value::String("dan"), Value::String("mug"), Value::Double(8)});
    cat.Register("orders", b.Build());
  }
  return cat;
}

Table RunSql(const std::string& sql, const Catalog& cat,
          const FunctionRegistry& registry = {}) {
  auto result = ExecuteSql(sql, cat, registry);
  EXPECT_TRUE(result.ok()) << sql << " -> " << result.status().ToString();
  if (!result.ok()) return Table();
  return std::move(result).MoveValueUnsafe();
}

// ----------------------------------------------------------- Basic SELECT --

TEST(ParserTest, SelectStar) {
  Catalog cat = MakeCatalog();
  Table out = RunSql("SELECT * FROM people", cat);
  EXPECT_EQ(out.num_rows(), 4u);
  EXPECT_EQ(out.num_columns(), 3u);
}

TEST(ParserTest, SelectColumnsWithAliases) {
  Catalog cat = MakeCatalog();
  Table out = RunSql("select name as who, age * 2 AS dbl from people", cat);
  EXPECT_EQ(out.schema().ToString(), "who:STRING, dbl:INT64");
  EXPECT_EQ(out.row(0)[1].int_value(), 60);
}

TEST(ParserTest, BareAliasWithoutAs) {
  Catalog cat = MakeCatalog();
  Table out = RunSql("select name who from people", cat);
  EXPECT_EQ(out.schema().column(0).name, "who");
}

TEST(ParserTest, WhereWithArithmeticAndLogic) {
  Catalog cat = MakeCatalog();
  Table out = RunSql(
      "SELECT name FROM people WHERE age + 5 >= 35 AND NOT (name = 'dan')",
      cat);
  ASSERT_EQ(out.num_rows(), 2u);
  EXPECT_EQ(out.row(0)[0].string_value(), "ann");
  EXPECT_EQ(out.row(1)[0].string_value(), "cat");
}

TEST(ParserTest, StringLiteralsWithEscapes) {
  Catalog cat = MakeCatalog();
  Table out = RunSql("SELECT 'it''s' AS s FROM people LIMIT 1", cat);
  EXPECT_EQ(out.row(0)[0].string_value(), "it's");
}

TEST(ParserTest, NumericLiteralsAndComparisons) {
  Catalog cat = MakeCatalog();
  Table out = RunSql("SELECT name FROM people WHERE score > 1.25", cat);
  EXPECT_EQ(out.num_rows(), 3u);
  Table out2 = RunSql("SELECT name FROM people WHERE age <> 30", cat);
  EXPECT_EQ(out2.num_rows(), 2u);
}

TEST(ParserTest, OrderByAndLimit) {
  Catalog cat = MakeCatalog();
  Table out =
      RunSql("SELECT name, age FROM people ORDER BY age DESC, name ASC LIMIT 2",
          cat);
  ASSERT_EQ(out.num_rows(), 2u);
  EXPECT_EQ(out.row(0)[0].string_value(), "dan");
  EXPECT_EQ(out.row(1)[0].string_value(), "ann");
}

TEST(ParserTest, DistinctDeduplicates) {
  Catalog cat = MakeCatalog();
  Table out = RunSql("SELECT DISTINCT age FROM people ORDER BY age", cat);
  ASSERT_EQ(out.num_rows(), 3u);
  EXPECT_EQ(out.row(0)[0].int_value(), 25);
}

// ----------------------------------------------------------------- Joins --

TEST(ParserTest, InnerJoinWithAliases) {
  Catalog cat = MakeCatalog();
  Table out = RunSql(
      "SELECT p.name, o.item FROM people p "
      "INNER JOIN orders o ON p.name = o.who",
      cat);
  EXPECT_EQ(out.num_rows(), 3u);
  EXPECT_EQ(out.schema().column(0).name, "p.name");
}

TEST(ParserTest, LeftJoinKeepsUnmatched) {
  Catalog cat = MakeCatalog();
  Table out = RunSql(
      "SELECT p.name, o.item FROM people p "
      "LEFT OUTER JOIN orders o ON p.name = o.who",
      cat);
  EXPECT_EQ(out.num_rows(), 5u);
}

TEST(ParserTest, SelfJoinWithTwoAliases) {
  // The exact shape Fig. 4 uses: the same table joined twice under two
  // aliases, disambiguated by qualified references.
  Catalog cat = MakeCatalog();
  Table out = RunSql(
      "SELECT a.name AS n1, b.name AS n2 FROM people a "
      "JOIN people b ON a.age = b.age WHERE a.name < b.name",
      cat);
  ASSERT_EQ(out.num_rows(), 1u);  // ann/cat share age 30
  EXPECT_EQ(out.row(0)[0].string_value(), "ann");
  EXPECT_EQ(out.row(0)[1].string_value(), "cat");
}

TEST(ParserTest, BareColumnResolvesThroughUniqueAlias) {
  Catalog cat = MakeCatalog();
  Table out = RunSql(
      "SELECT item FROM people p JOIN orders o ON p.name = o.who", cat);
  EXPECT_EQ(out.num_rows(), 3u);
}

TEST(ParserTest, AmbiguousBareColumnIsAnError) {
  Catalog cat = MakeCatalog();
  auto result = ExecuteSql(
      "SELECT name FROM people a JOIN people b ON a.age = b.age", cat);
  EXPECT_FALSE(result.ok());
}

// ------------------------------------------------------------ Aggregates --

TEST(ParserTest, GroupByWithCountSumAvg) {
  Catalog cat = MakeCatalog();
  Table out = RunSql(
      "SELECT age, count(*) AS n, sum(score) AS total, avg(score) AS mean "
      "FROM people GROUP BY age ORDER BY age",
      cat);
  ASSERT_EQ(out.num_rows(), 3u);
  EXPECT_EQ(out.row(1)[0].int_value(), 30);
  EXPECT_EQ(out.row(1)[1].int_value(), 2);
  EXPECT_DOUBLE_EQ(out.row(1)[2].double_value(), 2.0);
  EXPECT_DOUBLE_EQ(out.row(1)[3].double_value(), 1.0);
}

TEST(ParserTest, ArgMaxAggregate) {
  Catalog cat = MakeCatalog();
  Table out = RunSql(
      "SELECT age, argmax(score, name) AS best FROM people "
      "GROUP BY age ORDER BY age",
      cat);
  ASSERT_EQ(out.num_rows(), 3u);
  EXPECT_EQ(out.row(1)[1].string_value(), "ann");
}

TEST(ParserTest, GlobalAggregateWithoutGroupBy) {
  Catalog cat = MakeCatalog();
  Table out = RunSql("SELECT count(*) AS n, max(age) AS oldest FROM people", cat);
  ASSERT_EQ(out.num_rows(), 1u);
  EXPECT_EQ(out.row(0)[0].int_value(), 4);
  EXPECT_EQ(out.row(0)[1].int_value(), 40);
}

TEST(ParserTest, AggregateOverJoinWithQualifiedKeys) {
  Catalog cat = MakeCatalog();
  Table out = RunSql(
      "SELECT p.name, sum(o.price) AS spent FROM people p "
      "JOIN orders o ON p.name = o.who GROUP BY p.name ORDER BY p.name",
      cat);
  ASSERT_EQ(out.num_rows(), 2u);
  EXPECT_EQ(out.row(0)[0].string_value(), "ann");
  EXPECT_DOUBLE_EQ(out.row(0)[1].double_value(), 14.0);
}

TEST(ParserTest, NonAggregateSelectItemMustBeGrouped) {
  Catalog cat = MakeCatalog();
  auto result =
      ExecuteSql("SELECT name, count(*) AS n FROM people GROUP BY age", cat);
  EXPECT_FALSE(result.ok());
}

TEST(ParserTest, HavingFiltersGroups) {
  Catalog cat = MakeCatalog();
  Table out = RunSql(
      "SELECT age, count(*) AS n FROM people GROUP BY age "
      "HAVING n > 1 ORDER BY age",
      cat);
  ASSERT_EQ(out.num_rows(), 1u);
  EXPECT_EQ(out.row(0)[0].int_value(), 30);
  EXPECT_EQ(out.row(0)[1].int_value(), 2);
}

TEST(ParserTest, UnionAllConcatenates) {
  Catalog cat = MakeCatalog();
  Table out = RunSql(
      "SELECT name FROM people WHERE age = 25 "
      "UNION ALL SELECT name FROM people WHERE age = 40",
      cat);
  EXPECT_EQ(out.num_rows(), 2u);
}

TEST(ParserTest, UnionRequiresAll) {
  Catalog cat = MakeCatalog();
  EXPECT_FALSE(
      ExecuteSql("SELECT name FROM people UNION SELECT name FROM people", cat)
          .ok());
}

// ------------------------------------------------------------ Subqueries --

TEST(ParserTest, SubqueryInFrom) {
  Catalog cat = MakeCatalog();
  Table out = RunSql(
      "SELECT t.name FROM (SELECT name, age FROM people WHERE age = 30) t "
      "ORDER BY t.name",
      cat);
  ASSERT_EQ(out.num_rows(), 2u);
  EXPECT_EQ(out.row(0)[0].string_value(), "ann");
}

TEST(ParserTest, JoinAgainstSubquery) {
  Catalog cat = MakeCatalog();
  Table out = RunSql(
      "SELECT p.name, s.n FROM people p JOIN "
      "(SELECT who, count(*) AS n FROM orders GROUP BY who) s "
      "ON p.name = s.who ORDER BY p.name",
      cat);
  ASSERT_EQ(out.num_rows(), 2u);
  EXPECT_EQ(out.row(0)[1].int_value(), 2);  // ann has two orders
}

TEST(ParserTest, ExplainAnalyzeOpensNoNodeForAliases) {
  // A table alias renames columns and changes no rows: EXPLAIN ANALYZE
  // profiles its input in its place.
  Catalog cat = MakeCatalog();
  Result<Plan> plan =
      ParseSql("SELECT p.name FROM people p JOIN orders o ON p.name = o.who");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->Explain().find("Alias(p)"), std::string::npos);
  ExplainStats stats;
  ASSERT_TRUE(Executor().Execute(*plan, cat, &stats).ok());
  EXPECT_EQ(stats.NodeCount(), 4u);  // Project, HashJoin, two Scans
  ASSERT_EQ(stats.children.size(), 1u);
  const ExplainStats& join = *stats.children[0];
  EXPECT_EQ(join.rows_out, 3u);
  ASSERT_EQ(join.children.size(), 2u);
  EXPECT_EQ(join.children[0]->op, "Scan(people)");
  EXPECT_EQ(join.children[0]->rows_out, 4u);
  EXPECT_EQ(join.children[1]->op, "Scan(orders)");
  EXPECT_EQ(join.children[1]->rows_out, 3u);
}

// ------------------------------------------------------------------ UDFs --

TEST(ParserTest, ScalarUdfInWhereClause) {
  Catalog cat = MakeCatalog();
  FunctionRegistry registry;
  registry.RegisterScalar("half", [](const std::vector<Value>& args)
                                      -> Result<Value> {
    ESHARP_ASSIGN_OR_RETURN(double v, args[0].AsDouble());
    return Value::Double(v / 2);
  });
  Table out = RunSql("SELECT name FROM people WHERE half(age) > 14", cat,
                  registry);
  ASSERT_EQ(out.num_rows(), 3u);
}

TEST(ParserTest, UnknownFunctionIsAnError) {
  Catalog cat = MakeCatalog();
  auto result = ExecuteSql("SELECT mystery(age) FROM people", cat);
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("mystery"), std::string::npos);
}

// ----------------------------------------------------------------- Errors --

TEST(ParserTest, SyntaxErrorsAreReported) {
  Catalog cat = MakeCatalog();
  EXPECT_FALSE(ExecuteSql("SELECT FROM people", cat).ok());
  EXPECT_FALSE(ExecuteSql("SELECT * people", cat).ok());
  EXPECT_FALSE(ExecuteSql("SELECT * FROM people WHERE", cat).ok());
  EXPECT_FALSE(ExecuteSql("SELECT * FROM people LIMIT banana", cat).ok());
  EXPECT_FALSE(ExecuteSql("SELECT * FROM people extra junk here", cat).ok());
  EXPECT_FALSE(ExecuteSql("SELECT 'unterminated FROM people", cat).ok());
}

TEST(ParserTest, MissingTableSurfacesAtExecution) {
  Catalog cat = MakeCatalog();
  auto result = ExecuteSql("SELECT * FROM ghosts", cat);
  EXPECT_TRUE(result.status().IsNotFound());
}

TEST(ParserTest, AggregateOutsideSelectListRejected) {
  Catalog cat = MakeCatalog();
  EXPECT_FALSE(
      ExecuteSql("SELECT name FROM people WHERE count(*) > 1", cat).ok());
}

TEST(ParserTest, CommentsAreSkipped) {
  Catalog cat = MakeCatalog();
  Table out = RunSql(
      "SELECT name -- this is the select list\n"
      "FROM people -- and the source\n"
      "WHERE age = 40",
      cat);
  ASSERT_EQ(out.num_rows(), 1u);
}

// ------------------------------------------------ The Fig. 4 statements ---

TEST(ParserTest, Figure4NeighborsStatementParsesAndRuns) {
  // A miniature graph/communities pair in the paper's exact schema.
  Catalog cat;
  {
    TableBuilder b({{"query1", DataType::kString},
                    {"query2", DataType::kString},
                    {"distance", DataType::kDouble}});
    b.AddRow({Value::String("a"), Value::String("b"), Value::Double(1.0)});
    b.AddRow({Value::String("b"), Value::String("a"), Value::Double(1.0)});
    cat.Register("graph", b.Build());
  }
  {
    TableBuilder b({{"comm_name", DataType::kString},
                    {"query", DataType::kString}});
    b.AddRow({Value::String("a"), Value::String("a")});
    b.AddRow({Value::String("b"), Value::String("b")});
    cat.Register("communities", b.Build());
  }
  FunctionRegistry registry;
  registry.RegisterScalar(
      "modulgain", [](const std::vector<Value>& args) -> Result<Value> {
        ESHARP_ASSIGN_OR_RETURN(double d1, args[0].AsDouble());
        ESHARP_ASSIGN_OR_RETURN(double d2, args[1].AsDouble());
        ESHARP_ASSIGN_OR_RETURN(double w, args[2].AsDouble());
        return Value::Double(w - d1 * d2 / 2.0);  // m_G = 1
      });

  Table out = RunSql(
      "SELECT c1.comm_name AS comm1, c2.comm_name AS comm2, "
      "       sum(graph.distance) AS w12 "
      "FROM graph "
      "INNER JOIN communities c1 ON graph.query1 = c1.query "
      "INNER JOIN communities c2 ON graph.query2 = c2.query "
      "WHERE c1.comm_name <> c2.comm_name "
      "GROUP BY c1.comm_name, c2.comm_name "
      "ORDER BY comm1",
      cat, registry);
  ASSERT_EQ(out.num_rows(), 2u);
  EXPECT_EQ(out.row(0)[0].string_value(), "a");
  EXPECT_DOUBLE_EQ(out.row(0)[2].double_value(), 1.0);
}

}  // namespace
}  // namespace esharp::sql
