#include <gtest/gtest.h>

#include <unordered_set>

#include "esharp/pipeline.h"
#include "eval/crowd.h"
#include "eval/harness.h"
#include "eval/metrics.h"
#include "eval/query_sets.h"
#include "microblog/generator.h"
#include "querylog/generator.h"

namespace esharp::eval {
namespace {

// ------------------------------------------------------------- QuerySets --

class QuerySetsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    querylog::UniverseOptions uo;
    uo.num_categories = 6;
    uo.domains_per_category = 15;
    uo.seed = 401;
    universe_ = std::make_unique<querylog::TopicUniverse>(
        *querylog::TopicUniverse::Generate(uo));
    querylog::GeneratorOptions go;
    go.seed = 402;
    log_ = std::make_unique<querylog::GeneratedLog>(
        *GenerateQueryLog(*universe_, go));
  }

  std::unique_ptr<querylog::TopicUniverse> universe_;
  std::unique_ptr<querylog::GeneratedLog> log_;
};

TEST_F(QuerySetsTest, BuildsSixSets) {
  QuerySetOptions options;
  options.per_category = 20;
  options.top_n = 50;
  auto sets = *BuildQuerySets(*universe_, log_->log, options);
  ASSERT_EQ(sets.size(), 6u);
  EXPECT_EQ(sets[0].name, "sports");
  EXPECT_EQ(sets[4].name, "wikipedia");
  EXPECT_EQ(sets[5].name, "top50");
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_LE(sets[i].queries.size(), 20u);
    EXPECT_GT(sets[i].queries.size(), 5u);
  }
  EXPECT_EQ(sets[5].queries.size(), 50u);
}

TEST_F(QuerySetsTest, CategorySetsContainOnlyTheirCategory) {
  auto sets = *BuildQuerySets(*universe_, log_->log);
  for (size_t cat = 0; cat < 5; ++cat) {
    for (const EvalQuery& q : sets[cat].queries) {
      ASSERT_NE(q.domain, querylog::kNoDomain);
      EXPECT_EQ(universe_->CategoryOf(q.domain), cat);
    }
  }
}

TEST_F(QuerySetsTest, SetsAreSortedByPopularity) {
  auto sets = *BuildQuerySets(*universe_, log_->log);
  const querylog::QueryLog& log = log_->log;
  for (const QuerySet& set : sets) {
    uint64_t prev = UINT64_MAX;
    for (const EvalQuery& q : set.queries) {
      uint64_t count = log.query(*log.FindQuery(q.text)).total_count;
      EXPECT_LE(count, prev);
      prev = count;
    }
  }
}

TEST_F(QuerySetsTest, TopSetIncludesVariants) {
  QuerySetOptions options;
  options.top_n = 250;
  auto sets = *BuildQuerySets(*universe_, log_->log, options);
  const QuerySet& top = sets.back();
  size_t variants = 0;
  for (const EvalQuery& q : top.queries) {
    auto id = log_->log.FindQuery(q.text);
    if (id.ok() && log_->log.query(*id).is_variant) ++variants;
  }
  EXPECT_GT(variants, 0u);
}

TEST_F(QuerySetsTest, InvalidOptionsRejected) {
  QuerySetOptions options;
  options.per_category = 0;
  EXPECT_FALSE(BuildQuerySets(*universe_, log_->log, options).ok());
}

// ----------------------------------------------------------------- Crowd --

microblog::TweetCorpus TinyCorpus() {
  microblog::TweetCorpus corpus;
  microblog::UserProfile expert;
  expert.id = 0;
  expert.kind = microblog::AccountKind::kExpert;
  expert.domain = 3;
  corpus.AddUser(expert);
  microblog::UserProfile casual;
  casual.id = 1;
  casual.kind = microblog::AccountKind::kCasual;
  corpus.AddUser(casual);
  return corpus;
}

TEST(CrowdTest, GroundTruthRelevance) {
  microblog::TweetCorpus corpus = TinyCorpus();
  EXPECT_TRUE(IsRelevant(corpus, 0, 3));
  EXPECT_FALSE(IsRelevant(corpus, 0, 4));  // wrong domain
  EXPECT_FALSE(IsRelevant(corpus, 1, 3));  // not an expert
  EXPECT_FALSE(IsRelevant(corpus, 0, querylog::kNoDomain));
}

TEST(CrowdTest, PerfectWorkersJudgeTruth) {
  microblog::TweetCorpus corpus = TinyCorpus();
  CrowdOptions options;
  options.accuracy_on_experts = 1.0;
  options.accuracy_on_nonexperts = 1.0;
  options.skip_probability = 0.0;
  SimulatedCrowd crowd(options);
  std::vector<expert::RankedExpert> experts(2);
  experts[0].user = 0;
  experts[1].user = 1;
  auto judged = crowd.Judge(corpus, 3, experts);
  ASSERT_EQ(judged.size(), 2u);
  EXPECT_TRUE(judged[0].judged_relevant);
  EXPECT_FALSE(judged[1].judged_relevant);
  EXPECT_TRUE(judged[0].relevant_truth);
  EXPECT_FALSE(judged[1].relevant_truth);
}

TEST(CrowdTest, MajorityVoteAbsorbsSingleError) {
  // With accuracy just below 1, a single erring worker is outvoted; the
  // empirical flip rate must be far below the single-worker error rate.
  microblog::TweetCorpus corpus = TinyCorpus();
  CrowdOptions options;
  options.accuracy_on_experts = 0.8;
  options.accuracy_on_nonexperts = 0.8;
  options.skip_probability = 0.0;
  options.seed = 5;
  SimulatedCrowd crowd(options);
  std::vector<expert::RankedExpert> experts(1);
  experts[0].user = 0;  // truly relevant
  int flips = 0;
  const int trials = 3000;
  for (int i = 0; i < trials; ++i) {
    auto judged = crowd.Judge(corpus, 3, experts);
    if (!judged[0].judged_relevant) ++flips;
  }
  // P(>=2 of 3 err) = 3*0.04*0.8 + 0.008 = 0.104 << 0.2.
  EXPECT_NEAR(flips / static_cast<double>(trials), 0.104, 0.03);
}

TEST(CrowdTest, DeterministicForSeed) {
  microblog::TweetCorpus corpus = TinyCorpus();
  CrowdOptions options;
  options.seed = 42;
  std::vector<expert::RankedExpert> experts(2);
  experts[0].user = 0;
  experts[1].user = 1;
  SimulatedCrowd a(options), b(options);
  for (int i = 0; i < 20; ++i) {
    auto ja = a.Judge(corpus, 3, experts);
    auto jb = b.Judge(corpus, 3, experts);
    for (size_t k = 0; k < ja.size(); ++k) {
      EXPECT_EQ(ja[k].judged_relevant, jb[k].judged_relevant);
    }
  }
}

// --------------------------------------------------------------- Metrics --

std::vector<expert::RankedExpert> MakeExperts(
    std::initializer_list<double> scores) {
  std::vector<expert::RankedExpert> out;
  microblog::UserId id = 0;
  for (double s : scores) {
    expert::RankedExpert e;
    e.user = id++;
    e.score = s;
    out.push_back(e);
  }
  return out;
}

SetRun MakeRun() {
  SetRun run;
  run.name = "synthetic";
  QueryRun q1;
  q1.query = {"a", 0};
  q1.baseline = MakeExperts({2.0, 0.5, -1.0});
  q1.esharp = MakeExperts({2.5, 1.0, 0.2, -0.5});
  QueryRun q2;
  q2.query = {"b", 1};
  q2.baseline = MakeExperts({});
  q2.esharp = MakeExperts({0.4});
  run.runs = {q1, q2};
  return run;
}

TEST(MetricsTest, ApplyThresholdFiltersAndCaps) {
  auto experts = MakeExperts({3.0, 1.0, -2.0});
  EXPECT_EQ(ApplyThreshold(experts, 0.0, 15).size(), 2u);
  EXPECT_EQ(ApplyThreshold(experts, -10.0, 2).size(), 2u);
  EXPECT_EQ(ApplyThreshold(experts, 10.0, 15).size(), 0u);
}

TEST(MetricsTest, AnsweredProportion) {
  SetRun run = MakeRun();
  EXPECT_DOUBLE_EQ(AnsweredProportion(run, Side::kBaseline), 0.5);
  EXPECT_DOUBLE_EQ(AnsweredProportion(run, Side::kESharp), 1.0);
  // A hard threshold starves both.
  EXPECT_DOUBLE_EQ(AnsweredProportion(run, Side::kBaseline, 5.0), 0.0);
}

TEST(MetricsTest, CumulativeCoverage) {
  SetRun run = MakeRun();
  auto curve = CumulativeCoverage(run, Side::kESharp, 4);
  ASSERT_EQ(curve.size(), 5u);
  EXPECT_DOUBLE_EQ(curve[0], 100.0);  // all queries have >= 0
  EXPECT_DOUBLE_EQ(curve[1], 100.0);  // both have >= 1 above z=0
  EXPECT_DOUBLE_EQ(curve[2], 50.0);   // only q1 has >= 2
  EXPECT_DOUBLE_EQ(curve[4], 0.0);
}

TEST(MetricsTest, AvgExpertsPerQueryTracksThreshold) {
  SetRun run = MakeRun();
  double loose = AvgExpertsPerQuery(run, Side::kESharp, -10.0);
  double tight = AvgExpertsPerQuery(run, Side::kESharp, 1.0);
  EXPECT_GT(loose, tight);
  EXPECT_DOUBLE_EQ(AvgExpertsPerQuery(run, Side::kBaseline, 0.0), 1.0);
}

TEST(MetricsTest, ImpurityCurveShrinksWithThreshold) {
  // Impurity of an empty result set is 0 by definition; as the threshold
  // loosens, more accounts (here: all irrelevant, domain mismatch) appear.
  microblog::TweetCorpus corpus = TinyCorpus();
  // MakeRun ranks users 0-3; the judges look every one of them up.
  for (microblog::UserId id = 2; id < 4; ++id) {
    microblog::UserProfile casual;
    casual.id = id;
    casual.kind = microblog::AccountKind::kCasual;
    corpus.AddUser(casual);
  }
  SetRun run = MakeRun();
  CrowdOptions crowd;
  crowd.accuracy_on_experts = 1.0;
  crowd.accuracy_on_nonexperts = 1.0;
  crowd.skip_probability = 0.0;
  auto curve = ImpurityCurve(run, Side::kESharp, corpus, {10.0, 0.0}, crowd);
  ASSERT_EQ(curve.size(), 2u);
  EXPECT_DOUBLE_EQ(curve[0].impurity, 0.0);
  EXPECT_GT(curve[1].avg_experts, 0.0);
  // Queries have domains 0/1 but the only expert's domain is 3: all
  // returned accounts are judged non-relevant by perfect workers.
  EXPECT_DOUBLE_EQ(curve[1].impurity, 1.0);
}

TEST(MetricsTest, PerfectClusteringScoresPerfectly) {
  // Two domains, two communities matching exactly.
  querylog::QueryLog log;
  uint32_t a = log.AddQuery("a1", 0, false);
  uint32_t b = log.AddQuery("a2", 0, false);
  uint32_t c = log.AddQuery("b1", 1, false);
  uint32_t d = log.AddQuery("b2", 1, false);
  (void)a; (void)b; (void)c; (void)d;
  graph::Graph g;
  g.AddVertex("a1");
  g.AddVertex("a2");
  g.AddVertex("b1");
  g.AddVertex("b2");
  g.Finalize();
  community::CommunityStore store =
      community::CommunityStore::Build(g, {0, 0, 1, 1});
  ClusterQuality q = EvaluateClustering(store, log);
  EXPECT_DOUBLE_EQ(q.purity, 1.0);
  EXPECT_NEAR(q.nmi, 1.0, 1e-9);
}

TEST(MetricsTest, MixedClusteringScoresLower) {
  querylog::QueryLog log;
  log.AddQuery("a1", 0, false);
  log.AddQuery("a2", 0, false);
  log.AddQuery("b1", 1, false);
  log.AddQuery("b2", 1, false);
  graph::Graph g;
  g.AddVertex("a1");
  g.AddVertex("a2");
  g.AddVertex("b1");
  g.AddVertex("b2");
  g.Finalize();
  // One community mixing both domains plus one pure community.
  community::CommunityStore store =
      community::CommunityStore::Build(g, {0, 0, 0, 1});
  ClusterQuality q = EvaluateClustering(store, log);
  EXPECT_LT(q.purity, 1.0);
  EXPECT_LT(q.nmi, 1.0);
  EXPECT_GT(q.nmi, 0.0);
}

TEST(MetricsTest, EmptyRunsAreZeroNotNan) {
  SetRun empty;
  EXPECT_EQ(AnsweredProportion(empty, Side::kBaseline), 0.0);
  EXPECT_EQ(AvgExpertsPerQuery(empty, Side::kESharp, 0.0), 0.0);
  auto curve = CumulativeCoverage(empty, Side::kESharp, 5);
  for (double v : curve) EXPECT_EQ(v, 0.0);
}

TEST(MetricsTest, CoverageCurveIsMonotoneNonIncreasing) {
  SetRun run = MakeRun();
  for (Side side : {Side::kBaseline, Side::kESharp}) {
    auto curve = CumulativeCoverage(run, side, 14, -10.0, 15);
    for (size_t n = 1; n < curve.size(); ++n) {
      EXPECT_LE(curve[n], curve[n - 1]);
    }
  }
}

TEST(MetricsTest, CapDominatesThreshold) {
  auto experts = MakeExperts({5, 4, 3, 2, 1});
  EXPECT_EQ(ApplyThreshold(experts, -100, 3).size(), 3u);
  // Threshold applied before the cap fills up.
  EXPECT_EQ(ApplyThreshold(experts, 3.5, 3).size(), 2u);
}

TEST(MetricsTest, ImpurityOfEmptyThresholdsIsEmpty) {
  microblog::TweetCorpus corpus = TinyCorpus();
  SetRun run = MakeRun();
  CrowdOptions crowd;
  EXPECT_TRUE(ImpurityCurve(run, Side::kESharp, corpus, {}, crowd).empty());
}

// --------------------------------------------------------------- Harness --

TEST(HarnessTest, EndToEndComparisonProducesRuns) {
  querylog::UniverseOptions uo;
  uo.num_categories = 2;
  uo.domains_per_category = 8;
  uo.seed = 411;
  querylog::TopicUniverse universe =
      *querylog::TopicUniverse::Generate(uo);
  querylog::GeneratorOptions go;
  go.seed = 412;
  querylog::GeneratedLog gen = *GenerateQueryLog(universe, go);
  core::OfflineOptions offline;
  core::OfflineArtifacts artifacts = *RunOfflinePipeline(gen.log, offline);
  microblog::CorpusOptions co;
  co.seed = 413;
  co.casual_users = 100;
  co.spam_users = 10;
  microblog::TweetCorpus corpus = *GenerateCorpus(universe, co);

  core::ESharp system(&artifacts.store, &corpus);
  QuerySetOptions qso;
  qso.per_category = 10;
  qso.top_n = 20;
  auto sets = *BuildQuerySets(universe, gen.log, qso);
  auto runs = *RunComparison(system, sets);
  ASSERT_EQ(runs.size(), sets.size());
  size_t total_queries = 0, matched = 0;
  for (const SetRun& run : runs) {
    for (const QueryRun& qr : run.runs) {
      ++total_queries;
      if (qr.expansion_matched) ++matched;
      // Stored lists are never thresholded away entirely by accident.
      EXPECT_GE(qr.esharp.size(), qr.baseline.size());
    }
  }
  EXPECT_GT(total_queries, 30u);
  EXPECT_GT(matched, total_queries / 2);
}

}  // namespace
}  // namespace esharp::eval
