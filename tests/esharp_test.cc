#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "community/sql_cd.h"
#include "esharp/esharp.h"
#include "esharp/pipeline.h"
#include "microblog/generator.h"
#include "querylog/generator.h"

namespace esharp::core {
namespace {

// Shared small world for the end-to-end tests.
class ESharpTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    querylog::UniverseOptions uo;
    uo.num_categories = 3;
    uo.domains_per_category = 12;
    uo.seed = 301;
    universe_ = new querylog::TopicUniverse(
        *querylog::TopicUniverse::Generate(uo));

    querylog::GeneratorOptions go;
    go.seed = 302;
    go.head_impressions = 30000;
    log_ = new querylog::GeneratedLog(*GenerateQueryLog(*universe_, go));

    OfflineOptions offline;
    offline.extraction.min_similarity = 0.15;
    artifacts_ = new OfflineArtifacts(*RunOfflinePipeline(log_->log, offline));

    microblog::CorpusOptions co;
    co.seed = 303;
    co.casual_users = 300;
    co.spam_users = 30;
    corpus_ = new microblog::TweetCorpus(*GenerateCorpus(*universe_, co));
  }

  static void TearDownTestSuite() {
    delete universe_;
    delete log_;
    delete artifacts_;
    delete corpus_;
  }

  static querylog::TopicUniverse* universe_;
  static querylog::GeneratedLog* log_;
  static OfflineArtifacts* artifacts_;
  static microblog::TweetCorpus* corpus_;
};

querylog::TopicUniverse* ESharpTest::universe_ = nullptr;
querylog::GeneratedLog* ESharpTest::log_ = nullptr;
OfflineArtifacts* ESharpTest::artifacts_ = nullptr;
microblog::TweetCorpus* ESharpTest::corpus_ = nullptr;

// ---------------------------------------------------------------- Offline --

TEST_F(ESharpTest, OfflinePipelineProducesCommunities) {
  EXPECT_GT(artifacts_->store.num_communities(), 0u);
  EXPECT_LT(artifacts_->store.num_communities(),
            artifacts_->similarity_graph.num_vertices());
  // Convergence trace starts at singleton count and decreases.
  ASSERT_GE(artifacts_->communities_per_iteration.size(), 2u);
  EXPECT_EQ(artifacts_->communities_per_iteration[0],
            artifacts_->similarity_graph.num_vertices());
  EXPECT_LT(artifacts_->communities_per_iteration.back(),
            artifacts_->communities_per_iteration.front());
}

TEST_F(ESharpTest, CommunitiesGroupDomainSiblings) {
  // The head term's community should contain at least one sibling term or
  // variant of the same domain, for most head terms.
  size_t grouped = 0, considered = 0;
  for (const querylog::TopicDomain& dom : universe_->domains()) {
    auto found = artifacts_->store.Find(dom.terms[0]);
    if (!found.ok()) continue;
    ++considered;
    if ((*found)->terms.size() > 1) ++grouped;
  }
  ASSERT_GT(considered, 20u);
  EXPECT_GT(static_cast<double>(grouped) / static_cast<double>(considered),
            0.6);
}

TEST_F(ESharpTest, SqlBackendMatchesNativeBackend) {
  OfflineOptions native_options;
  native_options.extraction.min_similarity = 0.15;
  native_options.backend = ClusteringBackend::kParallelNative;
  OfflineArtifacts native = *RunOfflinePipeline(log_->log, native_options);

  OfflineOptions sql_options = native_options;
  sql_options.backend = ClusteringBackend::kSqlEngine;
  OfflineArtifacts sql = *RunOfflinePipeline(log_->log, sql_options);

  EXPECT_EQ(native.store.num_communities(), sql.store.num_communities());
  EXPECT_EQ(native.communities_per_iteration, sql.communities_per_iteration);
}

// Node-by-node equality of two EXPLAIN ANALYZE trees: same operators, same
// exact row counts and batch counts (wall time excluded).
void ExpectSameProfile(const sql::ExplainStats& a, const sql::ExplainStats& b) {
  EXPECT_EQ(a.op, b.op);
  EXPECT_EQ(a.rows_in, b.rows_in) << a.op;
  EXPECT_EQ(a.rows_out, b.rows_out) << a.op;
  EXPECT_EQ(a.batches, b.batches) << a.op;
  ASSERT_EQ(a.children.size(), b.children.size()) << a.op;
  for (size_t i = 0; i < a.children.size(); ++i) {
    ExpectSameProfile(*a.children[i], *b.children[i]);
  }
}

void CollectProfile(const sql::ExplainStats& node,
                    std::vector<const sql::ExplainStats*>* out) {
  out->push_back(&node);
  for (const auto& child : node.children) CollectProfile(*child, out);
}

TEST_F(ESharpTest, SqlBackendTracesIterationsAndExplainsPartitions) {
  ThreadPool pool(2);
  obs::Tracer tracer;
  sql::ExplainStats explain;
  OfflineOptions options;
  options.extraction.min_similarity = 0.15;
  options.backend = ClusteringBackend::kSqlEngine;
  options.pool = &pool;
  options.num_partitions = 2;
  options.tracer = &tracer;
  options.explain = &explain;
  OfflineArtifacts sql = *RunOfflinePipeline(log_->log, options);
  const graph::Graph& g = sql.similarity_graph;

#if !defined(ESHARP_OBS_OFF)
  // One "iteration" span per iteration, including the last one, which
  // finds nothing to rename; the others carry the Fig. 5 trace point.
  std::vector<obs::TraceEvent> spans;
  for (obs::TraceEvent& e : tracer.Events()) {
    if (e.name == "iteration") spans.push_back(std::move(e));
  }
  std::sort(spans.begin(), spans.end(),
            [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
              return a.start_us < b.start_us;
            });
  ASSERT_EQ(spans.size(), sql.communities_per_iteration.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    std::map<std::string, std::string> args(spans[i].args.begin(),
                                            spans[i].args.end());
    EXPECT_EQ(args["iteration"], std::to_string(i));
    if (i + 1 == spans.size()) {
      EXPECT_EQ(args["converged"], "true");
      continue;
    }
    EXPECT_EQ(args["communities"],
              std::to_string(sql.communities_per_iteration[i + 1]));
    ASSERT_TRUE(args.count("modularity")) << "iteration " << i;
    EXPECT_NEAR(std::stod(args["modularity"]),
                sql.modularity_per_iteration[i + 1],
                1e-5 * std::abs(sql.modularity_per_iteration[i + 1]));
  }
#endif

  // The EXPLAIN tree of the first "partitions" statement holds the five
  // operator kinds of Fig. 4 and no others (aliases are folded away).
  std::vector<const sql::ExplainStats*> nodes;
  CollectProfile(explain, &nodes);
  const std::set<std::string> kinds = {"Scan", "HashJoin", "Project", "Filter",
                                       "Aggregate"};
  size_t graph_scans = 0, community_scans = 0;
  for (const sql::ExplainStats* node : nodes) {
    EXPECT_TRUE(kinds.count(node->op.substr(0, node->op.find('('))))
        << node->op;
    if (node->op == "Scan(graph)") {
      ++graph_scans;
      EXPECT_EQ(node->rows_out, 2 * g.num_edges());
    }
    if (node->op == "Scan(communities)") {
      ++community_scans;
      EXPECT_EQ(node->rows_out, g.num_vertices());
    }
  }
  EXPECT_EQ(graph_scans, 1u);
  EXPECT_EQ(community_scans, 2u);

  // Exact output: one row per vertex with a positive-gain neighbor in the
  // singleton partition (the graph has at most one edge per vertex pair).
  community::Partition singletons(g);
  community::ModularityContext ctx(g);
  std::set<graph::VertexId> with_neighbor;
  for (const graph::Edge& e : g.edges()) {
    if (ctx.MergeGain(singletons.DegreeSum(e.u), singletons.DegreeSum(e.v),
                      e.weight) > 0) {
      with_neighbor.insert(e.u);
      with_neighbor.insert(e.v);
    }
  }
  EXPECT_EQ(explain.rows_out, with_neighbor.size());

  // The same statement on the reference row kernels and on the columnar
  // kernels profiles to the same tree and counts.
  sql::FunctionRegistry functions = community::SqlCdFunctions(g.TotalWeight());
  Result<sql::Plan> degrees =
      sql::ParseSql(community::kSqlCdScript[0].sql, functions);
  Result<sql::Plan> partitions =
      sql::ParseSql(community::kSqlCdScript[1].sql, functions);
  ASSERT_TRUE(degrees.ok() && partitions.ok());
  for (bool use_columnar : {true, false}) {
    sql::ExecutorOptions exec_options;
    exec_options.pool = &pool;
    exec_options.num_partitions = 2;
    exec_options.use_columnar = use_columnar;
    sql::Executor executor(exec_options);
    sql::Catalog catalog = community::SqlCdCatalog(g);
    catalog.Register("degrees", *executor.Execute(*degrees, catalog));
    sql::ExplainStats replay;
    ASSERT_TRUE(executor.Execute(*partitions, catalog, &replay).ok());
    SCOPED_TRACE(use_columnar ? "columnar" : "row");
    ExpectSameProfile(explain, replay);
  }
}

TEST(OfflinePipelineTest, EmptyLogFailsPrecondition) {
  querylog::QueryLog empty;
  OfflineOptions options;
  EXPECT_TRUE(RunOfflinePipeline(empty, options).status()
                  .IsFailedPrecondition());
}

// ----------------------------------------------------------------- Online --

TEST_F(ESharpTest, ExpansionMatchesCommunityTerms) {
  ESharp system(&artifacts_->store, corpus_);
  // A canonical head term must match its community.
  const querylog::TopicDomain& dom = universe_->domain(0);
  QueryExpansion expansion = system.Expand(dom.terms[0]);
  EXPECT_TRUE(expansion.matched);
  EXPECT_GE(expansion.terms.size(), 1u);
  EXPECT_EQ(expansion.terms[0], dom.terms[0]);
  // Unknown queries degrade gracefully.
  QueryExpansion none = system.Expand("zzz unknown query zzz");
  EXPECT_FALSE(none.matched);
  EXPECT_EQ(none.terms.size(), 1u);
}

TEST_F(ESharpTest, ExpansionIsCaseInsensitive) {
  ESharp system(&artifacts_->store, corpus_);
  const querylog::TopicDomain& dom = universe_->domain(0);
  std::string upper = dom.terms[0];
  for (char& c : upper) c = static_cast<char>(std::toupper(c));
  EXPECT_TRUE(system.Expand(upper).matched);
}

TEST_F(ESharpTest, MaxExpansionTermsRespected) {
  ESharpOptions options;
  options.max_expansion_terms = 2;
  ESharp system(&artifacts_->store, corpus_, options);
  for (const querylog::TopicDomain& dom : universe_->domains()) {
    QueryExpansion e = system.Expand(dom.terms[0]);
    EXPECT_LE(e.terms.size(), 2u);
  }
}

TEST_F(ESharpTest, ESharpNeverReturnsFewerCandidatesThanBaseline) {
  // By construction (union of per-term pools), e#'s candidate pool is a
  // superset of the baseline's — the paper's recall claim in its sharpest
  // form. Compare unthresholded pool sizes.
  ESharpOptions options;
  options.detector.min_z_score = -1e9;
  options.detector.max_experts = 100000;
  ESharp system(&artifacts_->store, corpus_, options);
  size_t esharp_wins = 0, queries = 0;
  for (const querylog::TopicDomain& dom : universe_->domains()) {
    for (const std::string& term : dom.terms) {
      ++queries;
      auto baseline = *system.detector().FindExperts(term);
      auto expanded = *system.FindExperts(term);
      EXPECT_GE(expanded.size(), baseline.size()) << "query " << term;
      if (expanded.size() > baseline.size()) ++esharp_wins;
    }
  }
  // Expansion must actually help on a meaningful share of queries.
  EXPECT_GT(static_cast<double>(esharp_wins) / static_cast<double>(queries),
            0.2);
}

TEST_F(ESharpTest, PhraseFallbackExpandsThroughFindExperts) {
  // End-to-end kPhraseFallback coverage: build a store where the queried
  // term exists only embedded inside a longer phrase ("<head> fan guide"),
  // next to a real sibling term. Exact match must miss; the phrase
  // fallback must land in the community and surface the sibling's experts
  // through FindExperts.
  // Pick an ordered pair of same-domain terms (queried, partner) where the
  // partner contributes at least one candidate the queried term alone does
  // not reach, so the expansion gain is certain.
  expert::ExpertDetector probe(corpus_);
  std::string head, sibling;
  for (const querylog::TopicDomain& d : universe_->domains()) {
    for (size_t a = 0; a < d.terms.size() && head.empty(); ++a) {
      std::set<microblog::UserId> a_users;
      for (const auto& c : probe.CollectCandidates(d.terms[a])) {
        a_users.insert(c.user);
      }
      for (size_t b = 0; b < d.terms.size(); ++b) {
        if (b == a) continue;
        for (const auto& c : probe.CollectCandidates(d.terms[b])) {
          if (a_users.count(c.user) == 0) {
            head = d.terms[a];
            sibling = d.terms[b];
            break;
          }
        }
        if (!head.empty()) break;
      }
    }
    if (!head.empty()) break;
  }
  ASSERT_FALSE(head.empty()) << "no term pair with an expansion gain";
  std::string tsv = "t\t0\t" + head + " fan guide\nt\t0\t" + sibling + "\n";
  auto store = community::CommunityStore::ParseTsv(tsv);
  ASSERT_TRUE(store.ok());

  ESharpOptions fallback_options;
  fallback_options.match_mode = MatchMode::kPhraseFallback;
  fallback_options.detector.min_z_score = -1e9;
  fallback_options.detector.max_experts = 100000;
  ESharp with_fallback(&*store, corpus_, fallback_options);

  ESharpOptions exact_options = fallback_options;
  exact_options.match_mode = MatchMode::kExactOnly;
  ESharp exact_only(&*store, corpus_, exact_options);

  // Exact-only misses the store entirely and degrades to the baseline...
  QueryExpansion exact = exact_only.Expand(head);
  EXPECT_FALSE(exact.matched);
  EXPECT_EQ(exact.terms.size(), 1u);
  // ...while the phrase fallback matches the community and pulls in both
  // the phrase term and the sibling.
  QueryExpansion phrase = with_fallback.Expand(head);
  EXPECT_TRUE(phrase.matched);
  EXPECT_GE(phrase.terms.size(), 3u);

  auto baseline = *exact_only.FindExperts(head);
  auto expanded = *with_fallback.FindExperts(head);
  // The union over the expanded pool can only grow the candidate set, and
  // the sibling is a canonical term of a domain with tweet traffic, so the
  // fallback must actually surface additional experts.
  EXPECT_GT(expanded.size(), baseline.size());
}

TEST_F(ESharpTest, ExpandedSearchFindsSiblingTermExperts) {
  // Find a domain with >= 2 canonical terms and at least one expert; a
  // query on a sibling term should surface experts reachable only through
  // expansion for at least one such domain.
  ESharpOptions options;
  options.detector.min_z_score = -1e9;
  options.detector.max_experts = 100000;
  ESharp system(&artifacts_->store, corpus_, options);
  bool found_gain = false;
  for (const querylog::TopicDomain& dom : universe_->domains()) {
    if (dom.terms.size() < 2) continue;
    for (size_t t = 1; t < dom.terms.size(); ++t) {
      auto baseline = *system.detector().FindExperts(dom.terms[t]);
      auto expanded = *system.FindExperts(dom.terms[t]);
      if (expanded.size() > baseline.size()) {
        found_gain = true;
        break;
      }
    }
    if (found_gain) break;
  }
  EXPECT_TRUE(found_gain);
}

}  // namespace
}  // namespace esharp::core
