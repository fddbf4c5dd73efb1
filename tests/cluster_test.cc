// The sharded-serving suite (ctest -L cluster): the router's scatter-
// gather + k-way merge + single rank step must be *bit-identical* to an
// unsharded engine over the union corpus, across partition counts — the
// PR's acceptance criterion — and the failure modes must degrade instead
// of failing: a dead shard yields annotated partial results, a slow shard
// triggers a hedge, lost quorum flips /readyz. The stress test at the
// bottom joins the serving label's TSan runs.

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/health.h"
#include "cluster/introspect.h"
#include "cluster/merge.h"
#include "cluster/partition.h"
#include "cluster/router.h"
#include "cluster/shard.h"
#include "cluster/transport_http.h"
#include "common/thread_pool.h"
#include "community/store.h"
#include "esharp/pipeline.h"
#include "expert/detector.h"
#include "microblog/corpus.h"
#include "microblog/generator.h"
#include "obs/debugz.h"
#include "querylog/generator.h"
#include "serving/engine.h"

namespace esharp {
namespace {

using expert::CandidateEvidence;
using expert::RankedExpert;

// ------------------------------------------------------------- helpers ----

void ExpectSameExperts(const std::vector<RankedExpert>& a,
                       const std::vector<RankedExpert>& b,
                       const std::string& context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  for (size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(context + " expert #" + std::to_string(i));
    EXPECT_EQ(a[i].user, b[i].user);
    // Exact equality on purpose: sharding must not perturb a single bit
    // of the ranking arithmetic.
    EXPECT_EQ(a[i].score, b[i].score);
    EXPECT_EQ(a[i].z_topical_signal, b[i].z_topical_signal);
    EXPECT_EQ(a[i].z_mention_impact, b[i].z_mention_impact);
    EXPECT_EQ(a[i].z_retweet_impact, b[i].z_retweet_impact);
    EXPECT_EQ(a[i].z_conversation, b[i].z_conversation);
    EXPECT_EQ(a[i].z_hashtag, b[i].z_hashtag);
    EXPECT_EQ(a[i].z_followers, b[i].z_followers);
  }
}

/// One randomized world: universe -> query log -> offline pipeline ->
/// corpus, small enough that a test builds several.
struct World {
  querylog::TopicUniverse universe;
  core::OfflineArtifacts artifacts;
  microblog::TweetCorpus corpus;
};

World MakeWorld(uint64_t seed) {
  querylog::UniverseOptions uo;
  uo.num_categories = 2;
  uo.domains_per_category = 6;
  uo.seed = seed;
  querylog::TopicUniverse universe = *querylog::TopicUniverse::Generate(uo);

  querylog::GeneratorOptions go;
  go.seed = seed + 1;
  go.head_impressions = 12000;
  querylog::GeneratedLog generated = *GenerateQueryLog(universe, go);

  microblog::CorpusOptions co;
  co.seed = seed + 2;
  co.casual_users = 180;
  co.spam_users = 15;
  microblog::TweetCorpus corpus = *GenerateCorpus(universe, co);

  core::OfflineOptions offline;
  offline.extraction.min_similarity = 0.15;
  offline.corpus = &corpus;
  core::OfflineArtifacts artifacts =
      *RunOfflinePipeline(generated.log, offline);

  return World{std::move(universe), std::move(artifacts), std::move(corpus)};
}

std::vector<std::string> QueryMix(const World& world) {
  std::vector<std::string> queries;
  for (const querylog::TopicDomain& dom : world.universe.domains()) {
    if (!dom.terms.empty()) queries.push_back(dom.terms[0]);
    if (dom.terms.size() > 2) queries.push_back(dom.terms[2]);
  }
  queries.push_back("no such topic anywhere");
  if (!queries.empty() && !queries[0].empty()) {
    std::string upper = queries[0];
    for (char& ch : upper) ch = static_cast<char>(std::toupper(ch));
    queries.push_back(upper);
    queries.push_back(queries[0] + " " + queries[0]);
  }
  return queries;
}

serving::ServingOptions ShardEngineOptions() {
  serving::ServingOptions o;
  o.num_threads = 2;
  o.enable_cache = false;  // the evidence path never consults it anyway
  o.enable_single_flight = false;
  return o;
}

/// Fault-injection transport: wraps a delegate and, per the knobs, fails,
/// sleeps, or passes through. All knobs are live (atomics) so tests flip
/// them mid-traffic.
class FaultShard final : public cluster::ShardTransport {
 public:
  FaultShard(std::string name,
             std::unique_ptr<cluster::ShardTransport> delegate)
      : name_(std::move(name)), delegate_(std::move(delegate)) {}

  const std::string& name() const override { return name_; }

  Result<cluster::ShardEvidence> Collect(
      const cluster::ShardRequest& request) override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    double sleep_ms = sleep_first_ms_.exchange(0.0) + sleep_every_ms_.load();
    if (sleep_ms > 0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(sleep_ms));
    }
    if (fail_.load(std::memory_order_relaxed)) {
      return Status::Unavailable("injected fault on ", name_);
    }
    if (timeout_.load(std::memory_order_relaxed)) {
      return Status::DeadlineExceeded("injected timeout on ", name_);
    }
    return delegate_->Collect(request);
  }

  uint64_t VersionHint() const override { return delegate_->VersionHint(); }

  void set_fail(bool fail) { fail_.store(fail, std::memory_order_relaxed); }
  void set_timeout(bool t) { timeout_.store(t, std::memory_order_relaxed); }
  /// The *next* Collect (only) sleeps this long before proceeding.
  void set_sleep_first_ms(double ms) { sleep_first_ms_.store(ms); }
  /// Every Collect sleeps this long (on top of any first-call sleep).
  void set_sleep_every_ms(double ms) { sleep_every_ms_.store(ms); }
  size_t calls() const { return calls_.load(std::memory_order_relaxed); }

 private:
  std::string name_;
  std::unique_ptr<cluster::ShardTransport> delegate_;
  std::atomic<bool> fail_{false};
  std::atomic<bool> timeout_{false};
  std::atomic<double> sleep_first_ms_{0.0};
  std::atomic<double> sleep_every_ms_{0.0};
  std::atomic<size_t> calls_{0};
};

/// One in-process cluster: partitioned corpus, per-shard snapshot managers
/// + engines (each building its own TermEvidenceIndex over its partition),
/// and a router ranking on the union corpus. The shared store shared_ptr
/// guarantees identical expansion on every shard.
struct TestCluster {
  cluster::PartitionedCorpus partition;
  std::shared_ptr<const community::CommunityStore> store;
  std::vector<std::unique_ptr<serving::SnapshotManager>> managers;
  std::vector<std::unique_ptr<serving::ServingEngine>> engines;
  std::unique_ptr<expert::ExpertDetector> union_detector;
  std::unique_ptr<cluster::ClusterRouter> router;
};

/// A TestCluster plus the raw pointers of its FaultShards, so tests can
/// inject faults after handing ownership over.
struct FaultyCluster {
  TestCluster base;
  std::vector<FaultShard*> faults;
};

/// Shards [0, num_faulty) talk through a FaultShard wrapping their
/// InProcessShard (a transport the router runs as one pool task per
/// attempt); the rest are bare InProcessShards (claimed help-first).
FaultyCluster MakeMixedCluster(
    const World& world, uint32_t num_shards,
    cluster::RouterOptions router_options, uint32_t num_faulty,
    serving::ServingOptions engine_options = ShardEngineOptions()) {
  FaultyCluster fc;
  TestCluster& tc = fc.base;
  tc.partition = cluster::PartitionCorpus(world.corpus, num_shards);
  tc.store = std::make_shared<const community::CommunityStore>(
      world.artifacts.store);
  std::vector<std::unique_ptr<cluster::ShardTransport>> transports;
  for (uint32_t s = 0; s < num_shards; ++s) {
    tc.managers.push_back(std::make_unique<serving::SnapshotManager>(
        tc.partition.shards[s].get()));
    tc.managers.back()->Publish(tc.store);
    tc.engines.push_back(std::make_unique<serving::ServingEngine>(
        tc.managers.back().get(), engine_options));
    std::string name = "shard-" + std::to_string(s);
    auto shard = std::make_unique<cluster::InProcessShard>(
        name, tc.engines.back().get());
    if (s < num_faulty) {
      auto fault = std::make_unique<FaultShard>(name, std::move(shard));
      fc.faults.push_back(fault.get());
      transports.push_back(std::move(fault));
    } else {
      transports.push_back(std::move(shard));
    }
  }
  tc.union_detector =
      std::make_unique<expert::ExpertDetector>(&world.corpus);
  tc.router = std::make_unique<cluster::ClusterRouter>(
      std::move(transports), tc.union_detector.get(), router_options);
  return fc;
}

TestCluster MakeCluster(const World& world, uint32_t num_shards,
                        cluster::RouterOptions router_options = {}) {
  return std::move(
      MakeMixedCluster(world, num_shards, router_options, /*num_faulty=*/0)
          .base);
}

FaultyCluster MakeFaultyCluster(const World& world, uint32_t num_shards,
                                cluster::RouterOptions router_options = {}) {
  return MakeMixedCluster(world, num_shards, router_options,
                          /*num_faulty=*/num_shards);
}

std::string FirstTopicQuery(const World& world) {
  for (const querylog::TopicDomain& dom : world.universe.domains()) {
    if (!dom.terms.empty()) return dom.terms[0];
  }
  return "tennis";
}

// ------------------------------------------------------ partition layer ----

TEST(PartitionTest, CoversDisjointlyAndSumsPerUserTotals) {
  World world = MakeWorld(1201);
  for (uint32_t n : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("shards " + std::to_string(n));
    cluster::PartitionedCorpus partition =
        cluster::PartitionCorpus(world.corpus, n);
    ASSERT_EQ(partition.num_shards(), n);
    size_t total_tweets = 0;
    for (const auto& shard : partition.shards) {
      ASSERT_EQ(shard->num_users(), world.corpus.num_users());
      total_tweets += shard->num_tweets();
    }
    // Tweets partition (disjoint + covering): counts sum exactly.
    EXPECT_EQ(total_tweets, world.corpus.num_tweets());
    // Per-user denominators sum exactly — the integer backbone of the
    // rank-equivalence argument.
    for (microblog::UserId u = 0; u < world.corpus.num_users(); ++u) {
      uint64_t tweets = 0, mentions = 0, retweets = 0;
      for (const auto& shard : partition.shards) {
        tweets += shard->TweetsByUser(u);
        mentions += shard->MentionsOfUser(u);
        retweets += shard->RetweetsOfUser(u);
      }
      ASSERT_EQ(tweets, world.corpus.TweetsByUser(u)) << "user " << u;
      ASSERT_EQ(mentions, world.corpus.MentionsOfUser(u)) << "user " << u;
      ASSERT_EQ(retweets, world.corpus.RetweetsOfUser(u)) << "user " << u;
    }
  }
}

TEST(PartitionTest, IsDeterministic) {
  World world = MakeWorld(1301);
  cluster::PartitionedCorpus a = cluster::PartitionCorpus(world.corpus, 4);
  cluster::PartitionedCorpus b = cluster::PartitionCorpus(world.corpus, 4);
  for (size_t s = 0; s < 4; ++s) {
    ASSERT_EQ(a.shards[s]->num_tweets(), b.shards[s]->num_tweets());
    for (uint32_t t = 0; t < a.shards[s]->num_tweets(); ++t) {
      ASSERT_EQ(a.shards[s]->tweet(t).text, b.shards[s]->tweet(t).text);
    }
  }
}

// ------------------------------------------- randomized rank equivalence --

TEST(ClusterTest, ShardedRankingBitIdenticalToUnshardedReference) {
  const uint64_t seeds[] = {1401, 1507};
  for (uint64_t seed : seeds) {
    World world = MakeWorld(seed);
    // Unsharded reference: one engine over the union corpus.
    auto store = std::make_shared<const community::CommunityStore>(
        world.artifacts.store);
    serving::SnapshotManager ref_manager(&world.corpus);
    ref_manager.Publish(store);
    serving::ServingEngine ref_engine(&ref_manager, ShardEngineOptions());

    std::vector<std::string> queries = QueryMix(world);
    for (uint32_t n : {1u, 2u, 4u, 8u}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " shards " +
                   std::to_string(n));
      cluster::RouterOptions ro;
      ro.enable_cache = false;
      ro.enable_hedging = false;
      TestCluster tc = MakeCluster(world, n, ro);
      for (const std::string& q : queries) {
        auto ref = ref_engine.Query({q});
        auto routed = tc.router->Query({q});
        ASSERT_TRUE(ref.ok()) << q << ": " << ref.status().ToString();
        ASSERT_TRUE(routed.ok()) << q << ": " << routed.status().ToString();
        EXPECT_EQ(routed->shards_answered, n);
        EXPECT_FALSE(routed->degraded);
        ExpectSameExperts(routed->experts, ref->experts,
                          "query '" + q + "'");
      }
    }
  }
}

// ------------------------------------------------------- fault injection --

TEST(ClusterTest, DeadShardDegradesToAnnotatedPartialResults) {
  World world = MakeWorld(1601);
  cluster::RouterOptions ro;
  ro.enable_cache = false;
  ro.enable_hedging = false;
  FaultyCluster fc = MakeFaultyCluster(world, 4, ro);
  const std::string query = FirstTopicQuery(world);

  fc.faults[2]->set_fail(true);
  for (int i = 0; i < 3; ++i) {
    auto routed = fc.base.router->Query({query});
    // The acceptance criterion: partial results, annotated, no failure.
    ASSERT_TRUE(routed.ok()) << routed.status().ToString();
    EXPECT_TRUE(routed->degraded);
    EXPECT_EQ(routed->shards_answered, 3u);
    EXPECT_EQ(routed->shards_total, 4u);
  }
  // Three consecutive failures (the default threshold) = kDown.
  EXPECT_EQ(fc.base.router->health().StateOf(2), cluster::ShardState::kDown);
  EXPECT_EQ(fc.base.router->health().healthy_shards(), 3u);

  // Recovery: the next success flips the shard straight back to healthy
  // and answers become complete again.
  fc.faults[2]->set_fail(false);
  auto routed = fc.base.router->Query({query});
  ASSERT_TRUE(routed.ok());
  EXPECT_FALSE(routed->degraded);
  EXPECT_EQ(routed->shards_answered, 4u);
  EXPECT_EQ(fc.base.router->health().StateOf(2),
            cluster::ShardState::kHealthy);
}

TEST(ClusterTest, ShardTimeoutAlsoDegrades) {
  World world = MakeWorld(1701);
  cluster::RouterOptions ro;
  ro.enable_cache = false;
  ro.enable_hedging = false;
  FaultyCluster fc = MakeFaultyCluster(world, 2, ro);
  fc.faults[1]->set_timeout(true);
  auto routed = fc.base.router->Query({FirstTopicQuery(world)});
  ASSERT_TRUE(routed.ok()) << routed.status().ToString();
  EXPECT_TRUE(routed->degraded);
  EXPECT_EQ(routed->shards_answered, 1u);
}

TEST(ClusterTest, AllShardsDownFailsTheQuery) {
  World world = MakeWorld(1801);
  cluster::RouterOptions ro;
  ro.enable_cache = false;
  ro.enable_hedging = false;
  FaultyCluster fc = MakeFaultyCluster(world, 2, ro);
  fc.faults[0]->set_fail(true);
  fc.faults[1]->set_fail(true);
  auto routed = fc.base.router->Query({FirstTopicQuery(world)});
  EXPECT_FALSE(routed.ok());
  EXPECT_TRUE(routed.status().IsUnavailable())
      << routed.status().ToString();
  EXPECT_GE(fc.base.router->metrics().Report().errors, 1u);
}

TEST(ClusterTest, MinShardsAnsweredEnforcesQuorumPerQuery) {
  World world = MakeWorld(1802);
  cluster::RouterOptions ro;
  ro.enable_cache = false;
  ro.enable_hedging = false;
  ro.min_shards_answered = 4;  // all-or-nothing
  FaultyCluster fc = MakeFaultyCluster(world, 4, ro);
  fc.faults[1]->set_fail(true);
  auto routed = fc.base.router->Query({FirstTopicQuery(world)});
  EXPECT_FALSE(routed.ok());
}

TEST(ClusterTest, SlowShardWithDeadlineYieldsPartialAnswer) {
  World world = MakeWorld(1901);
  cluster::RouterOptions ro;
  ro.enable_cache = false;
  ro.enable_hedging = false;
  FaultyCluster fc = MakeFaultyCluster(world, 2, ro);
  // Warm the engines once so the slow path below is the injected sleep,
  // not first-touch costs.
  ASSERT_TRUE(fc.base.router->Query({FirstTopicQuery(world)}).ok());

  fc.faults[0]->set_sleep_first_ms(400);
  serving::QueryRequest request;
  request.query = FirstTopicQuery(world);
  request.deadline_ms = 120;
  auto routed = fc.base.router->Query(request);
  ASSERT_TRUE(routed.ok()) << routed.status().ToString();
  EXPECT_TRUE(routed->degraded);
  EXPECT_EQ(routed->shards_answered, 1u);
  EXPECT_LT(routed->total_ms, 390.0);  // did not wait out the sleeper
}

TEST(ClusterTest, HedgeFiresForSlowShardAndFirstFinisherWins) {
  World world = MakeWorld(2001);
  cluster::RouterOptions ro;
  ro.enable_cache = false;
  ro.enable_hedging = true;
  ro.hedge_warmup = 8;
  ro.hedge_min_ms = 5.0;
  ro.hedge_percentile = 95;
  FaultyCluster fc = MakeFaultyCluster(world, 2, ro);
  const std::string query = FirstTopicQuery(world);

  // Warm the latency tracker past the hedge_warmup gate with fast
  // requests; the trigger then sits near their p95 (clamped to 5 ms).
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(fc.base.router->Query({query}).ok());
  }
  ASSERT_GE(fc.base.router->health().total_samples(), 8u);

  // One slow primary: the sleep flag clears after the first Collect, so
  // the hedge (second attempt on the same transport) runs full speed.
  size_t calls_before = fc.faults[0]->calls();
  fc.faults[0]->set_sleep_first_ms(500);
  auto routed = fc.base.router->Query({query});
  ASSERT_TRUE(routed.ok()) << routed.status().ToString();
  EXPECT_GE(routed->hedges_fired, 1u);
  EXPECT_EQ(routed->shards_answered, 2u);
  EXPECT_FALSE(routed->degraded);
  EXPECT_LT(routed->total_ms, 450.0);  // the hedge answered, not the sleeper
  EXPECT_GE(fc.faults[0]->calls(), calls_before + 2);  // primary + hedge
  EXPECT_GE(fc.base.router->health().StatusOf(0).hedges, 1u);
}

// ---------------------------------------------------- help-first scatter --

TEST(ClusterTest, InProcessScatterProgressesWithoutPoolCapacity) {
  World world = MakeWorld(2701);
  auto store = std::make_shared<const community::CommunityStore>(
      world.artifacts.store);
  serving::SnapshotManager ref_manager(&world.corpus);
  ref_manager.Publish(store);
  serving::ServingEngine ref_engine(&ref_manager, ShardEngineOptions());

  // One worker shared by the router and every shard engine, parked on a
  // latch for the whole test: only work the caller does itself can make
  // progress. Declared before the cluster, so the latch is released (and
  // the queued helpers drained) before anything they point at goes away.
  ThreadPool pool(1);
  std::promise<void> latch;
  std::shared_future<void> latch_open = latch.get_future().share();
  pool.Submit([latch_open] { latch_open.wait(); });

  cluster::RouterOptions ro;
  ro.pool = &pool;
  ro.enable_cache = false;
  ro.enable_hedging = false;
  serving::ServingOptions so = ShardEngineOptions();
  so.pool = &pool;
  FaultyCluster fc = MakeMixedCluster(world, 4, ro, /*num_faulty=*/0, so);

  // The watchdog opens the latch either way; it fails the test when the
  // queries had not returned on their own within a few seconds.
  std::promise<void> queries_done;
  std::future<void> done = queries_done.get_future();
  std::atomic<bool> watchdog_fired{false};
  std::thread watchdog([&] {
    if (done.wait_for(std::chrono::seconds(5)) ==
        std::future_status::timeout) {
      watchdog_fired.store(true);
    }
    latch.set_value();
  });
  // A lambda, so a failed ASSERT still reaches the join below.
  auto run_queries = [&] {
    for (const std::string& q : QueryMix(world)) {
      auto ref = ref_engine.Query({q});
      auto routed = fc.base.router->Query({q});
      ASSERT_TRUE(ref.ok()) << q << ": " << ref.status().ToString();
      ASSERT_TRUE(routed.ok()) << q << ": " << routed.status().ToString();
      EXPECT_EQ(routed->shards_answered, 4u);
      ExpectSameExperts(routed->experts, ref->experts, "query '" + q + "'");
    }
  };
  run_queries();
  queries_done.set_value();
  watchdog.join();
  EXPECT_FALSE(watchdog_fired.load())
      << "Query waited for the parked pool worker";
}

TEST(ClusterTest, InProcessShardsAreNeverHedged) {
  World world = MakeWorld(2801);
  auto store = std::make_shared<const community::CommunityStore>(
      world.artifacts.store);
  serving::SnapshotManager ref_manager(&world.corpus);
  ref_manager.Publish(store);
  serving::ServingEngine ref_engine(&ref_manager, ShardEngineOptions());

  // A trigger that would hedge every unfinished shard the moment the
  // gather starts.
  cluster::RouterOptions ro;
  ro.enable_cache = false;
  ro.enable_hedging = true;
  ro.hedge_warmup = 4;
  ro.hedge_min_ms = 0;
  ro.hedge_factor = 0;
  TestCluster tc = MakeCluster(world, 4, ro);
  std::vector<std::string> queries = QueryMix(world);
  for (int round = 0; round < 3; ++round) {
    for (const std::string& q : queries) {
      auto ref = ref_engine.Query({q});
      auto routed = tc.router->Query({q});
      ASSERT_TRUE(ref.ok()) << q << ": " << ref.status().ToString();
      ASSERT_TRUE(routed.ok()) << q << ": " << routed.status().ToString();
      EXPECT_EQ(routed->hedges_fired, 0u) << q;
      ExpectSameExperts(routed->experts, ref->experts, "query '" + q + "'");
    }
  }
  ASSERT_GE(tc.router->health().total_samples(), ro.hedge_warmup);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(tc.router->health().StatusOf(i).hedges, 0u) << "shard " << i;
  }
}

TEST(ClusterTest, MixedClusterHedgesAndTimesOutOnlyThePooledShard) {
  World world = MakeWorld(2901);
  cluster::RouterOptions ro;
  ro.enable_cache = false;
  ro.enable_hedging = true;
  ro.hedge_warmup = 4;
  ro.hedge_min_ms = 0;  // hedge every unfinished shard at once
  ro.hedge_factor = 0;
  FaultyCluster fc = MakeMixedCluster(world, 4, ro, /*num_faulty=*/1);
  const std::string query = FirstTopicQuery(world);
  // Warm the engines and arm the hedge trigger (4 samples).
  ASSERT_TRUE(fc.base.router->Query({query}).ok());

  // Shard 0 sleeps on every call, its hedge included; shards 1-3 are
  // in-process and answer at once.
  fc.faults[0]->set_sleep_every_ms(400);
  serving::QueryRequest request;
  request.query = query;
  request.deadline_ms = 120;
  auto routed = fc.base.router->Query(request);
  ASSERT_TRUE(routed.ok()) << routed.status().ToString();
  EXPECT_TRUE(routed->degraded);
  EXPECT_EQ(routed->shards_answered, 3u);
  EXPECT_LT(routed->total_ms, 390.0);  // did not wait out the sleeper
  EXPECT_EQ(routed->hedges_fired, 1u);
  EXPECT_EQ(fc.base.router->health().StatusOf(0).hedges, 1u);

  // The profile attributes the missing shard: both attempts (primary and
  // hedge) were still out when the deadline ended the gather. The claimed
  // shards ran once each and won.
  auto profile =
      fc.base.router->slow_queries().Find(routed->trace.TraceIdHex());
  ASSERT_NE(profile, nullptr);
  EXPECT_EQ(profile->outcome, "degraded");
  ASSERT_EQ(profile->lanes.size(), 4u);
  const obs::ProfileLane& slow = profile->lanes[0];
  EXPECT_EQ(slow.annotation, "no answer before deadline");
  ASSERT_EQ(slow.attempts.size(), 2u);
  EXPECT_FALSE(slow.attempts[0].hedge);
  EXPECT_TRUE(slow.attempts[1].hedge);
  for (const obs::LaneAttempt& attempt : slow.attempts) {
    EXPECT_EQ(attempt.outcome, "outstanding");
    EXPECT_GT(attempt.deadline_ms, 0.0);
    EXPECT_LE(attempt.deadline_ms, 120.0);
  }
  for (size_t i = 1; i < 4; ++i) {
    SCOPED_TRACE("lane " + std::to_string(i));
    const obs::ProfileLane& lane = profile->lanes[i];
    EXPECT_TRUE(lane.annotation.empty()) << lane.annotation;
    ASSERT_EQ(lane.attempts.size(), 1u);
    EXPECT_FALSE(lane.attempts[0].hedge);
    EXPECT_EQ(lane.attempts[0].outcome, "ok");
    EXPECT_TRUE(lane.attempts[0].won);
    EXPECT_EQ(fc.base.router->health().StatusOf(i).hedges, 0u);
  }
}

// ------------------------------------------------------- caching + swaps --

TEST(ClusterTest, CacheHitsAndInvalidatesWhenAnyShardPublishes) {
  World world = MakeWorld(2101);
  cluster::RouterOptions ro;
  ro.enable_hedging = false;
  TestCluster tc = MakeCluster(world, 2, ro);
  const std::string query = FirstTopicQuery(world);

  auto first = tc.router->Query({query});
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->from_cache);
  auto second = tc.router->Query({query});
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->from_cache);
  ExpectSameExperts(second->experts, first->experts, "cached");

  // A publish on one shard changes its version hint, hence the combined
  // cluster version, hence the cached entry fails validation.
  uint64_t before = tc.router->ClusterVersion();
  tc.managers[1]->Publish(tc.store);
  EXPECT_NE(tc.router->ClusterVersion(), before);
  auto third = tc.router->Query({query});
  ASSERT_TRUE(third.ok());
  EXPECT_FALSE(third->from_cache);
}

TEST(ClusterTest, DegradedAnswersAreNeverCached) {
  World world = MakeWorld(2201);
  cluster::RouterOptions ro;
  ro.enable_hedging = false;
  FaultyCluster fc = MakeFaultyCluster(world, 2, ro);
  const std::string query = FirstTopicQuery(world);

  fc.faults[0]->set_fail(true);
  auto degraded = fc.base.router->Query({query});
  ASSERT_TRUE(degraded.ok());
  EXPECT_TRUE(degraded->degraded);

  // Once the shard recovers, the next answer must be computed fresh (and
  // complete), not replayed from a partial cache entry.
  fc.faults[0]->set_fail(false);
  auto recovered = fc.base.router->Query({query});
  ASSERT_TRUE(recovered.ok());
  EXPECT_FALSE(recovered->from_cache);
  EXPECT_FALSE(recovered->degraded);
  auto cached = fc.base.router->Query({query});
  ASSERT_TRUE(cached.ok());
  EXPECT_TRUE(cached->from_cache);
}

// --------------------------------------------------------- introspection --

TEST(ClusterTest, QuorumReadinessTracksShardHealth) {
  World world = MakeWorld(2301);
  cluster::RouterOptions ro;
  ro.enable_cache = false;
  ro.enable_hedging = false;
  FaultyCluster fc = MakeFaultyCluster(world, 4, ro);
  obs::Probe probe = cluster::ClusterQuorumReadiness(fc.base.router.get());
  EXPECT_TRUE(probe().ok);

  const std::string query = FirstTopicQuery(world);
  // One shard down (3 failures): majority quorum (3 of 4) still holds,
  // /readyz stays green while answers are degraded.
  fc.faults[0]->set_fail(true);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(fc.base.router->Query({query}).ok());
  obs::ProbeResult one_down = probe();
  EXPECT_TRUE(one_down.ok);
  EXPECT_NE(one_down.detail.find("degraded"), std::string::npos);

  // Second shard down: quorum lost, /readyz flips.
  fc.faults[1]->set_fail(true);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(fc.base.router->Query({query}).ok());
  obs::ProbeResult two_down = probe();
  EXPECT_FALSE(two_down.ok);
  EXPECT_NE(two_down.detail.find("quorum lost"), std::string::npos);
}

TEST(ClusterTest, StatuszShardTableAndReadyzOverHttp) {
  World world = MakeWorld(2401);
  cluster::RouterOptions ro;
  ro.enable_cache = false;
  ro.enable_hedging = false;
  FaultyCluster fc = MakeFaultyCluster(world, 2, ro);
  ASSERT_TRUE(fc.base.router->Query({FirstTopicQuery(world)}).ok());

  obs::DebugServer server;
  cluster::ClusterIntrospectionOptions io;
  io.build_info = "cluster_test";
  cluster::MountClusterEndpoints(&server, fc.base.router.get(), io);
  ASSERT_TRUE(server.Start().ok());

  auto statusz = obs::HttpGet("127.0.0.1", server.port(), "/statusz");
  ASSERT_TRUE(statusz.ok());
  EXPECT_EQ(statusz->status, 200);
  EXPECT_NE(statusz->body.find("shard-0"), std::string::npos);
  EXPECT_NE(statusz->body.find("shard-1"), std::string::npos);
  EXPECT_NE(statusz->body.find("healthy"), std::string::npos);

  auto ready = obs::HttpGet("127.0.0.1", server.port(), "/readyz");
  ASSERT_TRUE(ready.ok());
  EXPECT_EQ(ready->status, 200);

  // Lose quorum (1 of 2 < majority 2): /readyz must flip to 503.
  fc.faults[1]->set_fail(true);
  const std::string query = FirstTopicQuery(world);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(fc.base.router->Query({query}).ok());
  auto not_ready = obs::HttpGet("127.0.0.1", server.port(), "/readyz");
  ASSERT_TRUE(not_ready.ok());
  EXPECT_EQ(not_ready->status, 503);
  server.Stop();
}

// ---------------------------------------------------------- HTTP transport --

TEST(ClusterTest, HttpTransportMatchesInProcessBitForBit) {
  World world = MakeWorld(2501);
  auto store = std::make_shared<const community::CommunityStore>(
      world.artifacts.store);
  serving::SnapshotManager manager(&world.corpus);
  manager.Publish(store);
  serving::ServingEngine engine(&manager, ShardEngineOptions());

  obs::DebugServer server;
  cluster::MountShardEndpoint(&server, &engine);
  ASSERT_TRUE(server.Start().ok());

  cluster::InProcessShard local("local", &engine);
  cluster::HttpShardTransport remote("remote", "127.0.0.1", server.port());
  EXPECT_EQ(remote.VersionHint(), 0u);  // no contact yet

  std::vector<std::string> queries = QueryMix(world);
  queries.push_back(FirstTopicQuery(world) + " extra words");
  for (const std::string& q : queries) {
    SCOPED_TRACE("query '" + q + "'");
    cluster::ShardRequest request;
    request.query = q;
    auto a = local.Collect(request);
    auto b = remote.Collect(request);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    ASSERT_EQ(a->evidence.size(), b->evidence.size());
    EXPECT_EQ(a->snapshot_version, b->snapshot_version);
    EXPECT_EQ(a->terms, b->terms);
    for (size_t i = 0; i < a->evidence.size(); ++i) {
      EXPECT_EQ(a->evidence[i].user, b->evidence[i].user);
      EXPECT_EQ(a->evidence[i].is_author, b->evidence[i].is_author);
      EXPECT_EQ(a->evidence[i].is_mentioned, b->evidence[i].is_mentioned);
      EXPECT_EQ(a->evidence[i].tweets_on_topic,
                b->evidence[i].tweets_on_topic);
      EXPECT_EQ(a->evidence[i].mentions_on_topic,
                b->evidence[i].mentions_on_topic);
      EXPECT_EQ(a->evidence[i].retweets_on_topic,
                b->evidence[i].retweets_on_topic);
      EXPECT_EQ(a->evidence[i].conversational_on_topic,
                b->evidence[i].conversational_on_topic);
      EXPECT_EQ(a->evidence[i].hashtag_on_topic,
                b->evidence[i].hashtag_on_topic);
    }
  }
  EXPECT_EQ(remote.VersionHint(), engine.snapshot_version());

  // Error mapping: empty query -> 400 -> InvalidArgument.
  cluster::ShardRequest empty;
  auto rejected = remote.Collect(empty);
  EXPECT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsInvalidArgument())
      << rejected.status().ToString();
  server.Stop();

  // Dead endpoint: connection refused resolves as Unavailable, not a hang.
  auto dead = remote.Collect({FirstTopicQuery(world), 0});
  EXPECT_FALSE(dead.ok());
  EXPECT_TRUE(dead.status().IsUnavailable()) << dead.status().ToString();
}

TEST(ClusterTest, WireFormatRoundTripsExactly) {
  cluster::ShardEvidence evidence;
  evidence.snapshot_version = 0xFFFFFFFFFFFFFFFFULL;
  evidence.terms = 17;
  evidence.shard_ms = 12.345678;
  CandidateEvidence a;
  a.user = 0;
  a.is_author = true;
  a.tweets_on_topic = 0xFFFFFFFFFFFFFFFFULL;  // extreme counts survive
  CandidateEvidence b;
  b.user = 4294967295u;
  b.is_mentioned = true;
  b.mentions_on_topic = 1;
  b.retweets_on_topic = 2;
  b.conversational_on_topic = 3;
  b.hashtag_on_topic = 4;
  evidence.evidence = {a, b};

  auto decoded =
      cluster::DecodeShardEvidence(cluster::EncodeShardEvidence(evidence));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->snapshot_version, evidence.snapshot_version);
  EXPECT_EQ(decoded->terms, evidence.terms);
  ASSERT_EQ(decoded->evidence.size(), 2u);
  EXPECT_EQ(decoded->evidence[0].user, a.user);
  EXPECT_EQ(decoded->evidence[0].is_author, a.is_author);
  EXPECT_EQ(decoded->evidence[0].tweets_on_topic, a.tweets_on_topic);
  EXPECT_EQ(decoded->evidence[1].user, b.user);
  EXPECT_EQ(decoded->evidence[1].is_mentioned, b.is_mentioned);
  EXPECT_EQ(decoded->evidence[1].hashtag_on_topic, b.hashtag_on_topic);

  EXPECT_FALSE(cluster::DecodeShardEvidence("garbage").ok());
  EXPECT_FALSE(
      cluster::DecodeShardEvidence("version=1 terms=1 candidates=2 ms=0\n"
                                   "1 0 0 0 0 0 0\n")
          .ok());  // truncated
}

TEST(ClusterTest, UrlEncodeEscapesReservedCharacters) {
  EXPECT_EQ(cluster::UrlEncode("tennis"), "tennis");
  EXPECT_EQ(cluster::UrlEncode("two words"), "two%20words");
  EXPECT_EQ(cluster::UrlEncode("a&b=c%"), "a%26b%3Dc%25");
}

// ------------------------------------------------------------ TSan stress --

TEST(ClusterTest, ConcurrentQueriesPublishesAndFaultsStayCoherent) {
  World world = MakeWorld(2601);
  cluster::RouterOptions ro;
  ro.enable_hedging = true;
  ro.hedge_warmup = 16;
  ro.hedge_min_ms = 0.5;
  FaultyCluster fc = MakeFaultyCluster(world, 4, ro);
  std::vector<std::string> queries = QueryMix(world);

  std::atomic<bool> stop{false};
  std::atomic<size_t> served{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < 60; ++i) {
        const std::string& q = queries[(t * 13 + i) % queries.size()];
        auto result = fc.base.router->Query({q});
        if (result.ok()) served.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::thread publisher([&] {
    while (!stop.load(std::memory_order_acquire)) {
      fc.base.managers[1]->Publish(fc.base.store);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  std::thread fault_flipper([&] {
    while (!stop.load(std::memory_order_acquire)) {
      fc.faults[3]->set_fail(true);
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
      fc.faults[3]->set_fail(false);
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
    }
  });
  for (std::thread& t : clients) t.join();
  stop.store(true, std::memory_order_release);
  publisher.join();
  fault_flipper.join();
  EXPECT_GT(served.load(), 0u);
  // Health invariants survived the churn.
  EXPECT_LE(fc.base.router->health().healthy_shards(), 4u);
  EXPECT_EQ(fc.base.router->health().num_shards(), 4u);
}

}  // namespace
}  // namespace esharp
