#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>

#include "community/modularity.h"
#include "community/newman.h"
#include "community/parallel_cd.h"
#include "community/sql_cd.h"
#include "community/store.h"
#include "common/rng.h"

namespace esharp::community {
namespace {

// Two 4-cliques joined by one weak bridge: the canonical two-community graph.
graph::Graph TwoCliques() {
  graph::Graph g;
  for (int i = 0; i < 8; ++i) g.AddVertex("v" + std::to_string(i));
  auto edge = [&](int a, int b, double w) {
    ASSERT_TRUE(g.AddEdge(a, b, w).ok());
  };
  for (int a = 0; a < 4; ++a) {
    for (int b = a + 1; b < 4; ++b) edge(a, b, 1.0);
  }
  for (int a = 4; a < 8; ++a) {
    for (int b = a + 1; b < 8; ++b) edge(a, b, 1.0);
  }
  edge(3, 4, 0.1);  // bridge
  g.Finalize();
  return g;
}

// Planted-partition random graph: k groups, dense inside, sparse across.
graph::Graph PlantedPartition(size_t k, size_t group_size, double p_in,
                              double p_out, uint64_t seed) {
  Rng rng(seed);
  graph::Graph g;
  size_t n = k * group_size;
  for (size_t i = 0; i < n; ++i) g.AddVertex("v" + std::to_string(i));
  for (size_t a = 0; a < n; ++a) {
    for (size_t b = a + 1; b < n; ++b) {
      bool same = (a / group_size) == (b / group_size);
      double p = same ? p_in : p_out;
      if (rng.Bernoulli(p)) {
        double w = 0.2 + 0.8 * rng.NextDouble();
        EXPECT_TRUE(g.AddEdge(static_cast<graph::VertexId>(a),
                              static_cast<graph::VertexId>(b), w)
                        .ok());
      }
    }
  }
  g.Finalize();
  return g;
}

// Partition as a canonical set-of-sets, independent of community naming.
std::set<std::set<graph::VertexId>> AsPartition(
    const std::vector<CommunityId>& assignment) {
  std::map<CommunityId, std::set<graph::VertexId>> groups;
  for (graph::VertexId v = 0; v < assignment.size(); ++v) {
    groups[assignment[v]].insert(v);
  }
  std::set<std::set<graph::VertexId>> out;
  for (auto& [c, members] : groups) out.insert(std::move(members));
  return out;
}

// ------------------------------------------------------------ Modularity --

TEST(ModularityTest, MergeGainMatchesEq8ByHand) {
  // Graph: a-b (w=2), b-c (w=1). m_G = 3.
  graph::Graph g;
  g.AddVertex("a");
  g.AddVertex("b");
  g.AddVertex("c");
  ASSERT_TRUE(g.AddEdge(0, 1, 2.0).ok());
  ASSERT_TRUE(g.AddEdge(1, 2, 1.0).ok());
  g.Finalize();
  ModularityContext ctx(g);
  EXPECT_DOUBLE_EQ(ctx.total_weight(), 3.0);
  // Merge {a} and {b}: D_a = 2, D_b = 3, w_ab = 2.
  // DeltaMod = 2 - 2*3/(2*3) = 1.
  EXPECT_DOUBLE_EQ(ctx.MergeGain(2.0, 3.0, 2.0), 1.0);
  // Merge {a} and {c}: no edge: w = 0, gain negative.
  EXPECT_LT(ctx.MergeGain(2.0, 1.0, 0.0), 0.0);
}

TEST(ModularityTest, CommunityModularityMatchesEq6) {
  graph::Graph g = TwoCliques();
  ModularityContext ctx(g);
  // A 4-clique community: internal weight 6, degree sum: vertices 0,1,2
  // have degree 3, vertex 3 has 3 + 0.1.
  double internal = 6.0, degree_sum = 3 * 3 + 3.1;
  double m = g.TotalWeight();
  double expected = internal - m * std::pow(degree_sum / (2 * m), 2);
  EXPECT_NEAR(ctx.CommunityModularity(internal, degree_sum), expected, 1e-12);
}

TEST(ModularityTest, DiscretizedGainConvergesToWeightedGain) {
  graph::Graph g = TwoCliques();
  ModularityContext ctx(g);
  double weighted = ctx.MergeGain(3.0, 3.1, 1.0);
  double prev_err = 1e9;
  for (double scale : {10.0, 100.0, 1000.0, 100000.0}) {
    double approx = DiscretizedGain(3.0, 3.1, 1.0, g.TotalWeight(), scale);
    double err = std::abs(approx - weighted);
    EXPECT_LE(err, prev_err + 1e-12);
    prev_err = err;
  }
  EXPECT_LT(prev_err, 1e-3);
}

TEST(PartitionTest, SingletonBookkeeping) {
  graph::Graph g = TwoCliques();
  Partition p(g);
  EXPECT_EQ(p.NumCommunities(), 8u);
  EXPECT_DOUBLE_EQ(p.DegreeSum(0), 3.0);
  EXPECT_DOUBLE_EQ(p.DegreeSum(3), 3.1);
  EXPECT_DOUBLE_EQ(p.InternalWeight(0), 0.0);
  EXPECT_EQ(p.InterCommunityWeights().size(), g.num_edges());
}

TEST(PartitionTest, RelabelUpdatesBookkeeping) {
  graph::Graph g = TwoCliques();
  Partition p(g);
  // Merge the first clique into community 0.
  std::unordered_map<CommunityId, CommunityId> relabel = {
      {1, 0}, {2, 0}, {3, 0}};
  p.Relabel(relabel);
  EXPECT_EQ(p.NumCommunities(), 5u);
  EXPECT_DOUBLE_EQ(p.InternalWeight(0), 6.0);
  EXPECT_DOUBLE_EQ(p.DegreeSum(0), 12.1);
  EXPECT_EQ(p.Members(0).size(), 4u);
  // Bridge is now the only inter-community edge touching community 0.
  auto between = p.InterCommunityWeights();
  EXPECT_DOUBLE_EQ(between.at(Partition::PairKey(0, 4)), 0.1);
}

TEST(PartitionTest, TotalModularityImprovesWithGoodPartition) {
  graph::Graph g = TwoCliques();
  ModularityContext ctx(g);
  Partition singleton(g);
  Partition good(g);
  good.Relabel({{1, 0}, {2, 0}, {3, 0}, {5, 4}, {6, 4}, {7, 4}});
  EXPECT_GT(good.TotalModularity(ctx), singleton.TotalModularity(ctx));
}

// ----------------------------------------------------- Parallel detection --

TEST(ParallelCdTest, TwoCliquesSplitCorrectly) {
  graph::Graph g = TwoCliques();
  DetectionResult r = *DetectCommunitiesParallel(g);
  EXPECT_TRUE(r.converged);
  auto partition = AsPartition(r.assignment);
  std::set<std::set<graph::VertexId>> expected = {{0, 1, 2, 3}, {4, 5, 6, 7}};
  EXPECT_EQ(partition, expected);
}

TEST(ParallelCdTest, CommunityCountMonotonicallyDecreases) {
  graph::Graph g = PlantedPartition(6, 8, 0.8, 0.03, 31);
  DetectionResult r = *DetectCommunitiesParallel(g);
  for (size_t i = 1; i < r.communities_per_iteration.size(); ++i) {
    EXPECT_LE(r.communities_per_iteration[i],
              r.communities_per_iteration[i - 1]);
  }
  EXPECT_LT(r.communities_per_iteration.back(),
            r.communities_per_iteration.front());
}

TEST(ParallelCdTest, ModularityNeverDecreases) {
  graph::Graph g = PlantedPartition(5, 6, 0.8, 0.05, 37);
  DetectionResult r = *DetectCommunitiesParallel(g);
  for (size_t i = 1; i < r.modularity_per_iteration.size(); ++i) {
    EXPECT_GE(r.modularity_per_iteration[i],
              r.modularity_per_iteration[i - 1] - 1e-9);
  }
}

TEST(ParallelCdTest, RecoversPlantedPartition) {
  graph::Graph g = PlantedPartition(4, 10, 0.9, 0.01, 41);
  DetectionResult r = *DetectCommunitiesParallel(g);
  // The planted groups should be recovered (possibly with a stray vertex).
  auto partition = AsPartition(r.assignment);
  EXPECT_GE(partition.size(), 4u);
  EXPECT_LE(partition.size(), 6u);
  // Most pairs within a planted group share a community.
  size_t agree = 0, total = 0;
  for (graph::VertexId a = 0; a < 40; ++a) {
    for (graph::VertexId b = a + 1; b < 40; ++b) {
      if (a / 10 != b / 10) continue;
      ++total;
      if (r.assignment[a] == r.assignment[b]) ++agree;
    }
  }
  EXPECT_GT(static_cast<double>(agree) / static_cast<double>(total), 0.9);
}

TEST(ParallelCdTest, EdgelessGraphIsAllOrphans) {
  graph::Graph g;
  g.AddVertex("a");
  g.AddVertex("b");
  g.Finalize();
  DetectionResult r = *DetectCommunitiesParallel(g);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(AsPartition(r.assignment).size(), 2u);
}

TEST(ParallelCdTest, EmptyGraphRejected) {
  graph::Graph g;
  EXPECT_FALSE(DetectCommunitiesParallel(g).ok());
}

TEST(ParallelCdTest, MaxIterationsCapsWork) {
  graph::Graph g = PlantedPartition(6, 8, 0.8, 0.03, 43);
  ParallelCdOptions options;
  options.max_iterations = 1;
  DetectionResult r = *DetectCommunitiesParallel(g, options);
  EXPECT_LE(r.iterations, 1u);
}

TEST(ParallelCdTest, PoolDoesNotChangeResult) {
  graph::Graph g = PlantedPartition(5, 8, 0.8, 0.04, 47);
  DetectionResult serial = *DetectCommunitiesParallel(g);
  ThreadPool pool(4);
  ParallelCdOptions options;
  options.pool = &pool;
  options.num_partitions = 5;
  DetectionResult parallel = *DetectCommunitiesParallel(g, options);
  EXPECT_EQ(AsPartition(serial.assignment), AsPartition(parallel.assignment));
  EXPECT_EQ(serial.communities_per_iteration,
            parallel.communities_per_iteration);
}

TEST(BestMergeTargetsTest, MutualBestPairCollapsesOntoSmallerId) {
  // Single edge a-b: both pick each other; b must move to a.
  graph::Graph g;
  g.AddVertex("a");
  g.AddVertex("b");
  ASSERT_TRUE(g.AddEdge(0, 1, 1.0).ok());
  g.Finalize();
  Partition p(g);
  ModularityContext ctx(g);
  auto moves = BestMergeTargets(p, ctx, nullptr, 1);
  ASSERT_EQ(moves.size(), 1u);
  EXPECT_EQ(moves[0].first, 1u);
  EXPECT_EQ(moves[0].second, 0u);
}

// -------------------------------------------------------------- Newman ---

TEST(NewmanTest, TwoCliquesSplitCorrectly) {
  graph::Graph g = TwoCliques();
  DetectionResult r = *DetectCommunitiesNewman(g);
  auto partition = AsPartition(r.assignment);
  std::set<std::set<graph::VertexId>> expected = {{0, 1, 2, 3}, {4, 5, 6, 7}};
  EXPECT_EQ(partition, expected);
}

TEST(NewmanTest, ModularityTraceMatchesPartitionScore) {
  graph::Graph g = PlantedPartition(4, 6, 0.8, 0.05, 53);
  DetectionResult r = *DetectCommunitiesNewman(g);
  ModularityContext ctx(g);
  Partition p(g);
  std::unordered_map<CommunityId, CommunityId> relabel;
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    relabel[static_cast<CommunityId>(v)] = r.assignment[v];
  }
  p.Relabel(relabel);
  EXPECT_NEAR(r.modularity_per_iteration.back(), p.TotalModularity(ctx),
              1e-9);
}

TEST(NewmanTest, OneMergePerIteration) {
  graph::Graph g = TwoCliques();
  DetectionResult r = *DetectCommunitiesNewman(g);
  for (size_t i = 1; i < r.communities_per_iteration.size(); ++i) {
    EXPECT_EQ(r.communities_per_iteration[i - 1] -
                  r.communities_per_iteration[i],
              1u);
  }
}

TEST(NewmanTest, TargetCommunitiesStopsEarly) {
  graph::Graph g = PlantedPartition(6, 6, 0.9, 0.02, 59);
  NewmanOptions options;
  options.target_communities = 30;
  DetectionResult r = *DetectCommunitiesNewman(g, options);
  EXPECT_LE(r.communities_per_iteration.back(), 36u);
  EXPECT_GE(r.communities_per_iteration.back(), 30u);
}

TEST(NewmanTest, NewmanModularityAtLeastParallel) {
  // The sequential greedy is the quality reference; the parallel variant
  // trades a little modularity for parallelism. Allow small slack.
  for (uint64_t seed : {61, 67, 71}) {
    graph::Graph g = PlantedPartition(5, 8, 0.7, 0.05, seed);
    DetectionResult newman = *DetectCommunitiesNewman(g);
    DetectionResult par = *DetectCommunitiesParallel(g);
    EXPECT_GE(newman.modularity_per_iteration.back(),
              par.modularity_per_iteration.back() - 0.35)
        << "seed " << seed;
  }
}

// ------------------------------------------------- SQL == native equality --

class SqlEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SqlEquivalenceTest, SqlAndNativeProduceIdenticalPartitions) {
  graph::Graph g = PlantedPartition(4, 6, 0.75, 0.06, GetParam());
  DetectionResult native = *DetectCommunitiesParallel(g);
  DetectionResult sql = *DetectCommunitiesSql(g);
  EXPECT_EQ(AsPartition(native.assignment), AsPartition(sql.assignment));
  EXPECT_EQ(native.communities_per_iteration, sql.communities_per_iteration);
  ASSERT_EQ(native.modularity_per_iteration.size(),
            sql.modularity_per_iteration.size());
  for (size_t i = 0; i < native.modularity_per_iteration.size(); ++i) {
    EXPECT_NEAR(native.modularity_per_iteration[i],
                sql.modularity_per_iteration[i], 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SqlEquivalenceTest,
                         ::testing::Values(101, 103, 107, 109, 113, 211, 223,
                                           227));

TEST(SqlCdTest, TwoCliquesSplitCorrectly) {
  graph::Graph g = TwoCliques();
  DetectionResult r = *DetectCommunitiesSql(g);
  auto partition = AsPartition(r.assignment);
  std::set<std::set<graph::VertexId>> expected = {{0, 1, 2, 3}, {4, 5, 6, 7}};
  EXPECT_EQ(partition, expected);
  EXPECT_TRUE(r.converged);
}

TEST(SqlCdTest, EdgelessGraphIsAllOrphans) {
  graph::Graph g;
  for (int i = 0; i < 3; ++i) g.AddVertex("v" + std::to_string(i));
  g.Finalize();
  DetectionResult r = *DetectCommunitiesSql(g);
  EXPECT_EQ(r.assignment, (std::vector<CommunityId>{0, 1, 2}));
  EXPECT_TRUE(r.converged);
}

TEST(SqlCdTest, ParallelEngineMatchesSerialEngine) {
  graph::Graph g = PlantedPartition(3, 6, 0.8, 0.05, 127);
  DetectionResult serial = *DetectCommunitiesSql(g);
  ThreadPool pool(4);
  for (sql::JoinStrategy strategy :
       {sql::JoinStrategy::kReplicated, sql::JoinStrategy::kPartitioned}) {
    SqlCdOptions options;
    options.pool = &pool;
    options.num_partitions = 4;
    options.join_strategy = strategy;
    DetectionResult parallel = *DetectCommunitiesSql(g, options);
    EXPECT_EQ(AsPartition(serial.assignment),
              AsPartition(parallel.assignment));
  }
}

TEST(SqlCdTest, TotalWeightOverrideDrivesGainsAndTrace) {
  // One component of a larger graph, run alone under the full graph's
  // m_G, the way component_cd.cc runs it: both backends must make the same
  // merges and score them against the override, not the subgraph's weight.
  graph::Graph g = PlantedPartition(3, 8, 0.8, 0.04, 131);
  graph::Graph rest = PlantedPartition(2, 8, 0.8, 0.04, 137);
  const double full_weight = g.TotalWeight() + rest.TotalWeight();
  SqlCdOptions sql_options;
  sql_options.total_weight_override = full_weight;
  ParallelCdOptions native_options;
  native_options.total_weight_override = full_weight;
  DetectionResult native = *DetectCommunitiesParallel(g, native_options);
  DetectionResult sql = *DetectCommunitiesSql(g, sql_options);
  EXPECT_EQ(native.assignment, sql.assignment);
  EXPECT_EQ(native.communities_per_iteration, sql.communities_per_iteration);
  ASSERT_EQ(native.modularity_per_iteration.size(),
            sql.modularity_per_iteration.size());
  for (size_t i = 0; i < native.modularity_per_iteration.size(); ++i) {
    EXPECT_NEAR(native.modularity_per_iteration[i],
                sql.modularity_per_iteration[i], 1e-6);
  }
  // The override changes the trace: the subgraph's own m_G scores the same
  // final partition differently.
  Partition final_partition(g, sql.assignment);
  EXPECT_GT(std::abs(sql.modularity_per_iteration.back() -
                     final_partition.TotalModularity(ModularityContext(g))),
            1e-6);
}

TEST(SqlVertexNameTest, PaddedNamesOrderNumerically) {
  EXPECT_LT(SqlVertexName(2), SqlVertexName(10));
  EXPECT_LT(SqlVertexName(99), SqlVertexName(100));
}

// ----------------------------------------------------------------- Store --

TEST(StoreTest, BuildGroupsTermsByCommunity) {
  graph::Graph g = TwoCliques();
  DetectionResult r = *DetectCommunitiesParallel(g);
  CommunityStore store = CommunityStore::Build(g, r.assignment);
  EXPECT_EQ(store.num_communities(), 2u);
  const Community& c = **store.Find("v0");
  EXPECT_EQ(c.terms.size(), 4u);
  // Lookup is case-insensitive exact match.
  EXPECT_TRUE(store.Find("V0").ok());
  EXPECT_FALSE(store.Find("v99").ok());
}

TEST(StoreTest, SizeHistogramBuckets) {
  graph::Graph g;
  // 1 orphan, one community of 3, one of 12, one of 60.
  std::vector<CommunityId> assignment;
  int v = 0;
  auto add_group = [&](int size, CommunityId c) {
    for (int i = 0; i < size; ++i) {
      g.AddVertex("t" + std::to_string(v++));
      assignment.push_back(c);
    }
  };
  add_group(1, 0);
  add_group(3, 1);
  add_group(12, 2);
  add_group(60, 3);
  g.Finalize();
  CommunityStore store = CommunityStore::Build(g, assignment);
  SizeHistogram h = store.ComputeSizeHistogram();
  EXPECT_EQ(h.orphans, 1u);
  EXPECT_EQ(h.small, 1u);
  EXPECT_EQ(h.medium, 1u);
  EXPECT_EQ(h.large, 1u);
  EXPECT_EQ(h.total(), 4u);
}

TEST(StoreTest, ClosestCommunitiesOrderedByInterWeight) {
  graph::Graph g;
  for (int i = 0; i < 6; ++i) g.AddVertex("v" + std::to_string(i));
  // Communities {0,1}, {2,3}, {4,5}; strong link c0-c1, weak c0-c2.
  ASSERT_TRUE(g.AddEdge(0, 1, 1.0).ok());
  ASSERT_TRUE(g.AddEdge(2, 3, 1.0).ok());
  ASSERT_TRUE(g.AddEdge(4, 5, 1.0).ok());
  ASSERT_TRUE(g.AddEdge(1, 2, 0.9).ok());
  ASSERT_TRUE(g.AddEdge(1, 4, 0.2).ok());
  g.Finalize();
  std::vector<CommunityId> assignment = {0, 0, 1, 1, 2, 2};
  CommunityStore store = CommunityStore::Build(g, assignment);
  auto closest = store.ClosestCommunities(0, 3);
  ASSERT_EQ(closest.size(), 2u);
  EXPECT_EQ(closest[0].first, 1u);
  EXPECT_DOUBLE_EQ(closest[0].second, 0.9);
  EXPECT_EQ(closest[1].first, 2u);
}

TEST(StoreTest, SizeBytesPositive) {
  graph::Graph g = TwoCliques();
  DetectionResult r = *DetectCommunitiesParallel(g);
  CommunityStore store = CommunityStore::Build(g, r.assignment);
  EXPECT_GT(store.SizeBytes(), 0u);
}

}  // namespace
}  // namespace esharp::community
