// Serving phases: set-up of the single-engine and 4-shard tiers, the
// closed-loop timed trials, the traced layer-by-layer replay and the answer
// checks.

#include <algorithm>
#include <barrier>
#include <cmath>
#include <cstdio>
#include <thread>

#include "bench.h"
#include "cluster/merge.h"
#include "cluster/partition.h"
#include "cluster/router.h"
#include "common/strings.h"
#include "oracle.h"
#include "serving/cache.h"
#include "serving/engine.h"
#include "serving/metrics.h"
#include "serving/snapshot.h"

namespace esharp::perfbench {

/// Operations attempted and failed by one client.
struct OpCount {
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

struct ServeTier {
  bool sharded = false;
  const World* world = nullptr;
  /// The corpus ranking runs over (the world's, or the refresh
  /// pipeline's last generation).
  const microblog::TweetCorpus* corpus = nullptr;
  std::shared_ptr<const microblog::TweetCorpus> owned_corpus;
  std::shared_ptr<const community::CommunityStore> store;
  /// Single engine: the manager it serves from (owned or borrowed).
  std::unique_ptr<serving::SnapshotManager> owned_manager;
  serving::SnapshotManager* manager = nullptr;
  std::unique_ptr<serving::ServingEngine> engine;
  /// Sharded tier.
  cluster::PartitionedCorpus parts;
  std::vector<std::unique_ptr<serving::SnapshotManager>> shard_managers;
  std::vector<std::unique_ptr<serving::ServingEngine>> shard_engines;
  std::unique_ptr<expert::ExpertDetector> union_detector;
  std::unique_ptr<cluster::ClusterRouter> router;
  std::vector<uint32_t> stream;

  const std::string& QueryAt(size_t i) const {
    return world->queries_by_rank[stream[i % stream.size()]];
  }

  /// One request through the tier's front door. Counts the query and, on
  /// the sharded tier, every shard call into `ops`.
  Result<std::vector<expert::RankedExpert>> Ask(const std::string& q,
                                                OpCount* ops) const {
    serving::QueryRequest request;
    request.query = q;
    ops->attempted += 1;
    if (sharded) {
      Result<cluster::ClusterResponse> r = router->Query(std::move(request));
      if (!r.ok()) {
        ops->failed += 1;
        return r.status();
      }
      ops->attempted += r->shards_total;
      ops->failed += r->shards_total - r->shards_answered;
      if (r->shards_answered != r->shards_total) {
        ops->failed += 1;
        return Status::Unavailable("degraded answer");
      }
      return std::move(r->experts);
    }
    Result<serving::QueryResponse> r = engine->Query(std::move(request));
    if (!r.ok()) ops->failed += 1;
    if (!r.ok()) return r.status();
    return std::move(r->experts);
  }
};

void ServeTierDeleter::operator()(ServeTier* tier) const { delete tier; }

namespace {

constexpr size_t kStreamLength = size_t{1} << 20;

serving::ServingOptions EngineOptions(ThreadPool* pool) {
  serving::ServingOptions o;  // production: cache, single-flight, index on
  o.pool = pool;
  return o;
}

}  // namespace

ServeTierPtr BuildServeTier(Context* ctx, bool sharded) {
  if (ctx->world == nullptr) {
    ctx->world = BuildWorld(ctx->sizes);
  }
  ServeTierPtr tier(new ServeTier);
  tier->sharded = sharded;
  tier->world = ctx->world.get();
  tier->corpus = &ctx->world->corpus;

  core::OfflineOptions offline =
      OfflineOptionsFor(ctx->pool, core::ClusteringBackend::kParallelNative);
  // The single engine serves the offline job's precomputed evidence index;
  // the shards build theirs over their own partitions at publish.
  if (!sharded) offline.corpus = tier->corpus;
  Result<core::OfflineArtifacts> artifacts =
      core::RunOfflinePipeline(ctx->world->generated.log, offline);
  ctx->report->Count(1, artifacts.ok() ? 0 : 1);
  if (!artifacts.ok()) Die("offline job", artifacts.status());
  tier->store = std::make_shared<const community::CommunityStore>(
      std::move(artifacts->store));

  if (!sharded) {
    tier->owned_manager =
        std::make_unique<serving::SnapshotManager>(tier->corpus);
    tier->manager = tier->owned_manager.get();
    int64_t p0 = NowNs();
    tier->manager->Publish(tier->store, core::ESharpOptions(),
                           artifacts->evidence_index);
    ctx->spans->Add("serving.publish", p0, NowNs(), -1, 0);
    ctx->report->Count(1);
    tier->engine = std::make_unique<serving::ServingEngine>(
        tier->manager, EngineOptions(ctx->pool));
  } else {
    int64_t p0 = NowNs();
    tier->parts = cluster::PartitionCorpus(
        *tier->corpus, static_cast<uint32_t>(ctx->sizes.shards));
    ctx->spans->Add("cluster.partition", p0, NowNs(), -1, 0);
    std::vector<std::unique_ptr<cluster::ShardTransport>> transports;
    for (size_t i = 0; i < tier->parts.num_shards(); ++i) {
      auto manager = std::make_unique<serving::SnapshotManager>(
          tier->parts.shards[i].get());
      manager->Publish(tier->store);
      ctx->report->Count(1);
      auto engine = std::make_unique<serving::ServingEngine>(
          manager.get(), EngineOptions(ctx->pool));
      transports.push_back(std::make_unique<cluster::InProcessShard>(
          "shard-" + std::to_string(i), engine.get()));
      tier->shard_managers.push_back(std::move(manager));
      tier->shard_engines.push_back(std::move(engine));
    }
    tier->union_detector =
        std::make_unique<expert::ExpertDetector>(tier->corpus);
    cluster::RouterOptions ro;
    ro.pool = ctx->pool;
    ro.enable_cache = false;  // every request scatters
    // Hedges fire on a wall-clock p95 trigger and each is a duplicate shard
    // call, so with hedging on the work per query would follow the host's
    // load rather than the router's cost.
    ro.enable_hedging = false;
    tier->router = std::make_unique<cluster::ClusterRouter>(
        std::move(transports), tier->union_detector.get(), ro);
  }
  tier->stream = ZipfStream(ctx->world->queries_by_rank.size(), kStreamLength,
                            ctx->options.seed + 11);
  return tier;
}

ServeTierPtr ServeTierFromGeneration(Context* ctx, const Generation& generation) {
  ServeTierPtr tier(new ServeTier);
  tier->world = ctx->world.get();
  tier->owned_corpus = generation.corpus;
  tier->corpus = generation.corpus.get();
  tier->store = generation.store;
  tier->owned_manager = std::make_unique<serving::SnapshotManager>();
  tier->manager = tier->owned_manager.get();
  int64_t p0 = NowNs();
  tier->manager->Publish(generation.store, generation.corpus,
                         core::ESharpOptions(), generation.evidence);
  ctx->spans->Add("serving.publish", p0, NowNs(), -1, 0);
  ctx->report->Count(1);
  tier->engine = std::make_unique<serving::ServingEngine>(
      tier->manager, EngineOptions(ctx->pool));
  tier->stream = ZipfStream(ctx->world->queries_by_rank.size(), kStreamLength,
                            ctx->options.seed + 11);
  return tier;
}

void RunServeTrials(Context* ctx, ServeTier* tier, double seconds) {
  const size_t trials = std::max<size_t>(
      1, static_cast<size_t>(std::lround(seconds / ctx->sizes.trial_seconds)));
  const double trial_s = seconds / static_cast<double>(trials);
  constexpr int kClients = 2;
  // Step 0 is the warm-up (fills the result cache); steps 1..trials time.
  const size_t steps = trials + 1;
  std::barrier sync(kClients);
  std::vector<std::vector<float>> latency_us(kClients);
  std::vector<OpCount> ops(kClients);
  std::vector<uint64_t> done(kClients);
  std::vector<size_t> cursor = {0, kStreamLength / 2};
  // One closed-loop client for one step, between the two barriers.
  auto run_step = [&](int id, double budget) {
    std::vector<float>& lat = latency_us[id];
    lat.clear();
    ops[id] = OpCount();
    done[id] = 0;
    const int64_t stop = NowNs() + static_cast<int64_t>(budget * 1e9);
    int64_t now = NowNs();
    while (now < stop) {
      Result<std::vector<expert::RankedExpert>> r =
          tier->Ask(tier->QueryAt(cursor[id]++), &ops[id]);
      int64_t end = NowNs();
      if (r.ok()) lat.push_back(static_cast<float>((end - now) * 1e-3));
      ++done[id];
      now = end;
    }
  };
  auto budget = [&](size_t step) {
    return step == 0 ? ctx->sizes.warmup_seconds : trial_s;
  };
  std::thread helper([&] {
    for (size_t step = 0; step < steps; ++step) {
      sync.arrive_and_wait();
      run_step(1, budget(step));
      sync.arrive_and_wait();
    }
  });

  struct Trial {
    double qps, p50, p99, cpu_us;
  };
  std::vector<Trial> results;
  // The main thread is client 0; it also reads the clocks around each step.
  for (size_t step = 0; step < steps; ++step) {
    serving::CacheStats cache0 = tier->engine ? tier->engine->cache_stats()
                                              : serving::CacheStats();
    sync.arrive_and_wait();
    const CpuTicks ticks0 = ReadCpuTicks();
    const int64_t cpu0 = CpuNs();
    const int64_t start = NowNs();
    run_step(0, budget(step));
    sync.arrive_and_wait();
    const double wall = (NowNs() - start) * 1e-9;
    const double cpu = (CpuNs() - cpu0) * 1e-9;
    const double steal = StealShare(ticks0, ReadCpuTicks());
    NoteThreads(ctx);
    if (step == 0) continue;  // warm-up: not counted
    std::vector<double> all;
    uint64_t n = 0;
    for (int c = 0; c < kClients; ++c) {
      all.insert(all.end(), latency_us[c].begin(), latency_us[c].end());
      n += done[c];
      ctx->report->Count(ops[c].attempted, ops[c].failed);
    }
    Trial t{n / wall, Percentile(all, 50), Percentile(all, 99),
            cpu * 1e6 / std::max<uint64_t>(n, 1)};
    double hit_ratio = 0;
    if (tier->engine) {
      serving::CacheStats c1 = tier->engine->cache_stats();
      uint64_t lookups = (c1.hits - cache0.hits) + (c1.misses - cache0.misses);
      hit_ratio = lookups ? double(c1.hits - cache0.hits) / lookups : 0;
    }
    std::printf("trial %zu: qps=%.1f p50_us=%.2f p99_us=%.2f cpu_us=%.2f "
                "samples=%zu hit_ratio=%.3f steal=%.1f%%\n",
                step, t.qps, t.p50, t.p99, t.cpu_us, all.size(), hit_ratio,
                100 * steal);
    results.push_back(t);
  }
  helper.join();

  std::vector<double> qps, p50, p99, cpu;
  for (const Trial& t : results) {
    qps.push_back(t.qps);
    p50.push_back(t.p50);
    p99.push_back(t.p99);
    cpu.push_back(t.cpu_us);
  }
  // Wall-clock figures are printed, not gated: they follow the host's CPU
  // steal (see README.md), the CPU cost per query does not.
  std::printf("serving medians over %zu trials: qps=%.1f query_p50_us=%.2f "
              "query_p99_us=%.2f cpu_us_per_query=%.2f\n",
              results.size(), Median(qps), Median(p50), Median(p99), Median(cpu));
  ctx->report->Set("cpu_us_per_query", Median(cpu), "us");
}

void RunServeTrace(Context* ctx, ServeTier* tier) {
  SpanLog* spans = ctx->spans;
  Report* report = ctx->report;
  const size_t n = ctx->sizes.traced_requests;
  // A warm-up pass, an untraced single-client pass and the traced pass, each
  // over its own segment of the stream: the wall-clock ratio of the last
  // two is the cost a traced run adds.
  size_t cursor = kStreamLength / 2;
  OpCount ops;
  for (size_t i = 0; i < n; ++i) tier->Ask(tier->QueryAt(cursor++), &ops);
  int64_t t0 = NowNs();
  for (size_t i = 0; i < n; ++i) tier->Ask(tier->QueryAt(cursor++), &ops);
  const double plain_s = (NowNs() - t0) * 1e-9;
  report->Count(ops.attempted, ops.failed);

  serving::ShardedResultCache cache;
  serving::ServingMetrics metrics;
  size_t hits = 0;
  std::vector<double> unattributed_us, fanout_us, terms, candidates, live;
  t0 = NowNs();
  for (size_t i = 0; i < n; ++i) {
    const uint64_t id = i + 1;
    const std::string& q = tier->QueryAt(cursor++);
    ScopedSpan root(spans, "request", -1, id);
    if (tier->sharded) {
      serving::QueryRequest request;
      request.query = q;
      int64_t a = NowNs();
      Result<cluster::ClusterResponse> r = tier->router->Query(request);
      int64_t b = NowNs();
      spans->Add("cluster.query", a, b, root.index(), id);
      report->Count(1, r.ok() ? 0 : 1);
      // The same scatter, made directly: each shard's QueryEvidence, then
      // the one merge-and-rank.
      ScopedSpan replay(spans, "replay", root.index(), id);
      std::vector<serving::EvidenceResponse> pools;
      int64_t slowest = 0;
      for (auto& engine : tier->shard_engines) {
        int64_t s0 = NowNs();
        Result<serving::EvidenceResponse> e = engine->QueryEvidence(request);
        int64_t s1 = NowNs();
        spans->Add("serving.evidence", s0, s1, replay.index(), id);
        report->Count(1, e.ok() ? 0 : 1);
        slowest = std::max(slowest, s1 - s0);
        if (e.ok()) pools.push_back(std::move(*e));
      }
      std::vector<const std::vector<expert::CandidateEvidence>*> views;
      for (const auto& p : pools) views.push_back(&p.evidence);
      int64_t m0 = NowNs();
      Result<std::vector<expert::RankedExpert>> ranked =
          cluster::MergeAndRank(*tier->union_detector, views);
      int64_t m1 = NowNs();
      spans->Add("cluster.merge_rank", m0, m1, replay.index(), id);
      fanout_us.push_back(((b - a) - slowest - (m1 - m0)) * 1e-3);
      continue;
    }

    serving::QueryRequest request;
    request.query = q;
    int64_t a = NowNs();
    Result<serving::QueryResponse> r = tier->engine->Query(request);
    int64_t b = NowNs();
    report->Count(1, r.ok() ? 0 : 1);
    if (!r.ok()) continue;
    const bool hit = r->from_cache;
    hits += hit;
    spans->Add(hit ? "serving.hit" : "serving.miss", a, b, root.index(), id);

    // Stand-alone cache and metrics, fed the same keys and outcomes.
    std::string key = ToLowerAscii(q);
    int64_t c0 = NowNs();
    std::optional<serving::CachedResult> cached = cache.Get(key, 1.0, 1);
    int64_t c1 = NowNs();
    spans->Add("serving.cache_get", c0, c1, root.index(), id);
    if (!cached) cache.Put(key, serving::CachedResult{r->experts, 1}, 1.0);
    int64_t r0 = NowNs();
    metrics.RecordRequest((b - a) * 1e-9, r->stages, hit, false);
    spans->Add("serving.record", r0, NowNs(), root.index(), id);
    if (hit) continue;

    const serving::StageTimings& st = r->stages;
    unattributed_us.push_back((b - a) * 1e-3 -
                              (st.expand_ms + st.detect_ms + st.rank_ms) * 1e3);
    // The miss, replayed layer by layer in the order the engine composes
    // them: expand -> tokenize -> index lookups -> live collection ->
    // merge -> rank.
    ScopedSpan replay(spans, "replay", root.index(), id);
    std::shared_ptr<const serving::ServingSnapshot> snap = tier->manager->Acquire();
    const core::ESharp& es = snap->esharp();
    const microblog::TweetCorpus* corpus = snap->corpus();
    core::QueryExpansion expansion;
    {
      ScopedSpan s(spans, "esharp.expand", replay.index(), id);
      expansion = es.Expand(q);
    }
    {
      ScopedSpan s(spans, "microblog.tokenize", replay.index(), id);
      std::vector<microblog::TokenId> tokens = corpus->TokenizeQuery(q);
      (void)tokens;
    }
    std::vector<const std::vector<expert::CandidateEvidence>*> views;
    std::vector<std::string> live_terms;
    {
      ScopedSpan s(spans, "expert.find", replay.index(), id);
      for (const std::string& term : expansion.terms) {
        const std::vector<expert::CandidateEvidence>* pool =
            snap->evidence() != nullptr ? snap->evidence()->Find(term) : nullptr;
        if (pool != nullptr) {
          views.push_back(pool);
        } else {
          live_terms.push_back(term);
        }
      }
    }
    std::vector<std::vector<expert::CandidateEvidence>> live_pools;
    live_pools.reserve(live_terms.size());
    for (const std::string& term : live_terms) {
      std::vector<microblog::TokenId> tokens = corpus->TokenizeNormalized(term);
      {
        ScopedSpan s(spans, "microblog.match", replay.index(), id);
        std::vector<uint32_t> matching = corpus->MatchTweets(tokens);
        (void)matching;
      }
      ScopedSpan s(spans, "expert.collect", replay.index(), id);
      live_pools.push_back(*es.detector().CollectCandidates(tokens));
    }
    for (const auto& p : live_pools) views.push_back(&p);
    std::vector<expert::CandidateEvidence> merged;
    {
      ScopedSpan s(spans, "expert.merge", replay.index(), id);
      merged = expert::MergeEvidenceViews(views);
    }
    {
      ScopedSpan s(spans, "expert.rank", replay.index(), id);
      Result<std::vector<expert::RankedExpert>> ranked =
          es.detector().RankCandidates(merged);
      (void)ranked;
    }
    terms.push_back(static_cast<double>(expansion.terms.size()));
    candidates.push_back(static_cast<double>(merged.size()));
    live.push_back(static_cast<double>(live_terms.size()));
  }
  const double traced_s = (NowNs() - t0) * 1e-9;

  if (tier->sharded) {
    report->Set("cluster.query_us", Median(spans->Durations("cluster.query", 1e3)), "us");
    report->Set("cluster.merge_rank_us",
                Median(spans->Durations("cluster.merge_rank", 1e3)), "us");
    report->Set("cluster.fanout_us", Median(fanout_us), "us");
    report->Set("serving.evidence_us",
                Median(spans->Durations("serving.evidence", 1e3)), "us");
    report->Set("cluster.partition_s",
                Median(spans->Durations("cluster.partition", 1e9)), "s");
    return;
  }
  report->Set("serving.hit_us", Median(spans->Durations("serving.hit", 1e3)), "us");
  report->Set("serving.miss_us", Median(spans->Durations("serving.miss", 1e3)), "us");
  report->Set("serving.hit_ratio", static_cast<double>(hits) / n, "ratio");
  report->Set("serving.cache_get_ns",
              Median(spans->Durations("serving.cache_get", 1.0)), "ns");
  report->Set("serving.record_ns", Median(spans->Durations("serving.record", 1.0)), "ns");
  report->Set("serving.unattributed_us", Median(unattributed_us), "us");
  report->Set("esharp.expand_us", Median(spans->Durations("esharp.expand", 1e3)), "us");
  report->Set("esharp.terms_per_query", Mean(terms), "count");
  report->Set("microblog.tokenize_us",
              Median(spans->Durations("microblog.tokenize", 1e3)), "us");
  report->Set("microblog.match_us", Median(spans->Durations("microblog.match", 1e3)), "us");
  report->Set("microblog.corpus_mb", tier->corpus->SizeBytes() / 1048576.0, "MB");
  report->Set("expert.find_us", Median(spans->Durations("expert.find", 1e3)), "us");
  report->Set("expert.collect_us", Median(spans->Durations("expert.collect", 1e3)), "us");
  report->Set("expert.merge_us", Median(spans->Durations("expert.merge", 1e3)), "us");
  report->Set("expert.rank_us", Median(spans->Durations("expert.rank", 1e3)), "us");
  report->Set("expert.candidates_per_query", Mean(candidates), "count");
  report->Set("expert.live_terms_per_query", Mean(live), "count");
  const expert::TermEvidenceIndex* index = tier->manager->Acquire()->evidence();
  report->Set("expert.index_mb",
              index != nullptr ? index->SizeBytes() / 1048576.0 : 0, "MB");
  report->Set("serving.publish_ms",
              Median(spans->Durations("serving.publish", 1e6)), "ms");
  report->Set("obs.trace_overhead_pct", 100.0 * (traced_s / plain_s - 1.0), "%");
}

void CheckServeTier(Context* ctx, ServeTier* tier) {
  Report* report = ctx->report;
  const World& world = *tier->world;
  // A fixed, seeded sample of the workload's own query stream.
  std::vector<uint32_t> draws = ZipfStream(world.queries_by_rank.size(),
                                           64 * ctx->sizes.oracle_queries,
                                           ctx->options.seed + 29);
  std::vector<uint32_t> sample;
  for (uint32_t d : draws) {
    if (sample.size() >= ctx->sizes.oracle_queries) break;
    if (std::find(sample.begin(), sample.end(), d) == sample.end()) {
      sample.push_back(d);
    }
  }
  Oracle oracle(*tier->store, *tier->corpus, core::ESharpOptions());
  core::ESharp reference(tier->store.get(), tier->corpus);
  bool corrupted = false;
  size_t answered = 0;
  for (uint32_t d : sample) {
    const std::string& q = world.queries_by_rank[d];
    OpCount ops;
    Result<std::vector<expert::RankedExpert>> got = tier->Ask(q, &ops);
    report->Count(ops.attempted, ops.failed);
    if (!got.ok()) {
      report->Fail("query \"" + q + "\" failed: " + got.status().ToString());
      continue;
    }
    std::vector<expert::RankedExpert> answer = *got;
    if (ctx->options.corrupt && !corrupted && !answer.empty()) {
      answer[0].score += 1e-6 * std::max(1.0, std::fabs(answer[0].score));
      corrupted = true;
    }
    answered += !answer.empty();
    std::string diff = oracle.Compare(q, answer);
    if (!diff.empty()) report->Fail("oracle: " + diff);
    for (size_t i = 1; i < answer.size(); ++i) {
      if (answer[i].score > answer[i - 1].score) {
        report->Fail("scores increase down the list for \"" + q + "\"");
        break;
      }
    }
    // §5: expansion never loses a candidate. Pools from src/ (the detector
    // per term, merged) against the oracle's scans.
    std::vector<uint32_t> base_want = oracle.PoolUsers(q, false);
    std::vector<uint32_t> esharp_want = oracle.PoolUsers(q, true);
    std::vector<uint32_t> base_got;
    for (const auto& c : reference.detector().CollectCandidates(q)) {
      base_got.push_back(c.user);
    }
    std::vector<std::vector<expert::CandidateEvidence>> pools;
    for (const std::string& term : reference.Expand(q).terms) {
      pools.push_back(reference.detector().CollectCandidates(term));
    }
    std::vector<uint32_t> esharp_got;
    for (const auto& c : expert::MergeEvidence(pools)) esharp_got.push_back(c.user);
    if (base_got != base_want) report->Fail("baseline pool differs for \"" + q + "\"");
    if (esharp_got != esharp_want) report->Fail("e# pool differs for \"" + q + "\"");
    if (!std::includes(esharp_got.begin(), esharp_got.end(), base_got.begin(),
                       base_got.end())) {
      report->Fail("e# pool is not a superset of the baseline for \"" + q + "\"");
    }
    if (tier->sharded) {
      Result<std::vector<expert::RankedExpert>> single = reference.FindExperts(q);
      bool same = single.ok() && single->size() == got->size();
      for (size_t i = 0; same && i < got->size(); ++i) {
        const expert::RankedExpert& x = (*got)[i];
        const expert::RankedExpert& y = (*single)[i];
        same = x.user == y.user && x.score == y.score &&
               x.z_topical_signal == y.z_topical_signal &&
               x.z_mention_impact == y.z_mention_impact &&
               x.z_retweet_impact == y.z_retweet_impact;
      }
      if (!same) report->Fail("sharded answer differs from one engine for \"" + q + "\"");
    }
  }
  if (answered == 0) report->Fail("no sampled query had an answer");
  std::printf("checked %zu serve answers against the oracle (%zu non-empty)\n",
              sample.size(), answered);
}

}  // namespace esharp::perfbench
