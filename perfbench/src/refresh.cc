// The refresh (write) phase: ingest bootstrap, offline jobs on both
// clustering backends, a stream of tweet-only and graph-changing delta
// publishes, and the checks that judge them apart from the incremental
// code.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "bench.h"
#include "common/rng.h"
#include "common/strings.h"
#include "community/component_cd.h"
#include "community/parallel_cd.h"
#include "community/sql_cd.h"
#include "graph/builder.h"
#include "ingest/ingest.h"
#include "oracle.h"
#include "serving/engine.h"
#include "serving/snapshot.h"

namespace esharp::perfbench {

struct RefreshState {
  /// Tweets held back from the bootstrap, replayed once each by the
  /// stream, and click triples held back for the graph-changing batches.
  std::vector<uint32_t> held_tweets;
  std::vector<size_t> held_clicks;  // indices into the log's records
  size_t next_tweet = 0;
  size_t next_click = 0;

  /// Every append, in order, so the checks can rebuild the accumulated
  /// inputs without the incremental code.
  std::vector<uint32_t> appended_tweets;  // world corpus tweet ids
  struct LogOp {
    bool searches;
    uint32_t query;  // world log query id
    uint32_t url;
    uint64_t count;
  };
  std::vector<LogOp> appended_log;

  std::unique_ptr<serving::SnapshotManager> manager;
  std::unique_ptr<ingest::IngestPipeline> pipeline;

  /// One probe per publish, checked after the stream.
  struct Probe {
    std::shared_ptr<const serving::ServingSnapshot> snapshot;
    std::string term;
    std::vector<uint32_t> authors;
  };
  std::vector<Probe> probes;

  bool have_offline = false;
  core::OfflineArtifacts native;
  core::OfflineArtifacts sql;
};

void RefreshStateDeleter::operator()(RefreshState* state) const { delete state; }

namespace {

constexpr size_t kProbedPublishes = 8;

ingest::IngestOptions PipelineOptions(ThreadPool* pool) {
  ingest::IngestOptions o;
  o.extraction = ExtractionOptions();
  o.pool = pool;
  o.num_partitions = pool->num_threads();
  return o;
}

void AppendTweet(const World& world, RefreshState* state, uint32_t id,
                 SpanLog* spans) {
  const microblog::Tweet& t = world.corpus.tweet(id);
  int64_t a = NowNs();
  state->pipeline->AppendTweet(t.author, t.text, t.mentions, t.retweet_count);
  // One append in 16 is kept: the bootstrap alone makes ~150k.
  if (state->appended_tweets.size() % 16 == 0) {
    spans->Add("ingest.append", a, NowNs(), -1, 0);
  }
  state->appended_tweets.push_back(id);
}

void AppendClick(const World& world, RefreshState* state, size_t record) {
  const querylog::ClickRecord& r = world.generated.log.records()[record];
  state->pipeline->AppendClicks(world.generated.log.query(r.query_id).text,
                                r.url_id, r.clicks);
  state->appended_log.push_back({false, r.query_id, r.url_id, r.clicks});
}

}  // namespace

RefreshStatePtr BootstrapRefresh(Context* ctx, size_t rounds) {
  if (ctx->world == nullptr) {
    ctx->world = BuildWorld(ctx->sizes);
  }
  const World& world = *ctx->world;
  const querylog::QueryLog& log = world.generated.log;
  RefreshStatePtr state(new RefreshState);
  Rng rng(ctx->options.seed + 41);

  std::vector<bool> held(world.corpus.num_tweets(), false);
  for (uint32_t i = 0; i < world.corpus.num_tweets(); ++i) {
    if (rng.NextDouble() < ctx->sizes.stream_share) {
      held[i] = true;
      state->held_tweets.push_back(i);
    }
  }
  // The corpus lists tweets user by user; a stream interleaves them.
  for (size_t i = state->held_tweets.size(); i > 1; --i) {
    std::swap(state->held_tweets[i - 1], state->held_tweets[rng.Uniform(i)]);
  }
  // Held-back clicks come from queries that pass the min-count filter, so
  // each graph batch moves vertices of the similarity graph.
  const uint64_t min_count = ExtractionOptions().min_query_count;
  std::vector<size_t> survivors;
  for (size_t i = 0; i < log.records().size(); ++i) {
    if (log.query(log.records()[i].query_id).total_count >= min_count) {
      survivors.push_back(i);
    }
  }
  // Each round publishes 2 x graph_every batches, two of them graph batches.
  const size_t stream_tweets = rounds * 2 * ctx->sizes.graph_every *
                               ctx->sizes.batch_tweets;
  const size_t want = rounds * 2 * ctx->sizes.click_triples_per_graph_batch;
  if (state->held_tweets.size() < stream_tweets || survivors.size() / 4 < want) {
    Die("refresh stream",
        Status::InvalidArgument(StrFormat(
            "%zu rounds need %zu held-back tweets and %zu click triples; the "
            "world holds back %zu tweets and can spare %zu triples",
            rounds, stream_tweets, want, state->held_tweets.size(),
            survivors.size() / 4)));
  }
  std::vector<bool> click_held(log.records().size(), false);
  while (state->held_clicks.size() < want) {
    size_t r = survivors[rng.Uniform(survivors.size())];
    if (click_held[r]) continue;
    click_held[r] = true;
    state->held_clicks.push_back(r);
  }

  state->manager = std::make_unique<serving::SnapshotManager>();
  state->pipeline = std::make_unique<ingest::IngestPipeline>(
      state->manager.get(), PipelineOptions(ctx->pool));
  for (microblog::UserId u = 0; u < world.corpus.num_users(); ++u) {
    state->pipeline->AppendUser(world.corpus.user(u));
  }
  for (uint32_t i = 0; i < world.corpus.num_tweets(); ++i) {
    if (!held[i]) AppendTweet(world, state.get(), i, ctx->spans);
  }
  for (uint32_t q = 0; q < log.num_queries(); ++q) {
    state->pipeline->AppendSearches(log.query(q).text, log.query(q).total_count);
    state->appended_log.push_back({true, q, 0, log.query(q).total_count});
  }
  for (size_t r = 0; r < log.records().size(); ++r) {
    if (!click_held[r]) AppendClick(world, state.get(), r);
  }
  int64_t a = NowNs();
  Result<ingest::PublishStats> stats = state->pipeline->Publish();
  ctx->spans->Add("ingest.bootstrap", a, NowNs(), -1, 0);
  ctx->report->Count(1, stats.ok() ? 0 : 1);
  if (!stats.ok()) Die("bootstrap publish", stats.status());
  return state;
}

void RunRefreshRounds(Context* ctx, RefreshState* state, size_t rounds) {
  const World& world = *ctx->world;
  Report* report = ctx->report;
  SpanLog* spans = ctx->spans;
  const bool trace = spans->enabled();
  std::vector<double> native_s, sql_s, tweets_ms, graph_ms;
  std::vector<double> dirty, reuse;
  std::map<std::string, std::pair<double, double>> op_totals;  // ms, rows
  size_t explained = 0;

  for (size_t round = 0; round < rounds; ++round) {
    // The weekly offline job, on both backends.
    for (core::ClusteringBackend backend :
         {core::ClusteringBackend::kParallelNative,
          core::ClusteringBackend::kSqlEngine}) {
      const bool sql = backend == core::ClusteringBackend::kSqlEngine;
      core::OfflineOptions options = OfflineOptionsFor(ctx->pool, backend);
      options.corpus = &world.corpus;  // the job's index stage
      sql::ExplainStats explain;
      if (sql && trace) options.explain = &explain;
      int64_t a = CpuNs();
      Result<core::OfflineArtifacts> job =
          core::RunOfflinePipeline(world.generated.log, options);
      int64_t b = CpuNs();
      report->Count(1, job.ok() ? 0 : 1);
      if (!job.ok()) continue;
      (sql ? sql_s : native_s).push_back((b - a) * 1e-9);
      if (sql && trace) {
        ++explained;
        // Self time and rows out per operator kind (label up to '(').
        std::vector<const sql::ExplainStats*> todo{&explain};
        while (!todo.empty()) {
          const sql::ExplainStats* node = todo.back();
          todo.pop_back();
          double self = node->wall_ms;
          for (const auto& child : node->children) {
            self -= child->wall_ms;
            todo.push_back(child.get());
          }
          std::string kind = node->op.substr(0, node->op.find('('));
          auto& total = op_totals[kind];
          total.first += self;
          total.second += static_cast<double>(node->rows_out);
        }
      }
      if (round == 0) (sql ? state->sql : state->native) = std::move(*job);
    }
    state->have_offline = true;

    if (trace) {
      // The offline job's layers, called directly.
      graph::SimilarityGraphOptions extraction = ExtractionOptions();
      extraction.pool = ctx->pool;
      extraction.num_partitions = ctx->pool->num_threads();
      int64_t a = NowNs();
      Result<graph::Graph> g = graph::BuildSimilarityGraph(world.generated.log,
                                                           extraction);
      spans->Add("graph.extract", a, NowNs(), -1, 0);
      if (g.ok()) {
        community::ParallelCdOptions cd;
        cd.pool = ctx->pool;
        cd.num_partitions = ctx->pool->num_threads();
        a = NowNs();
        Result<community::DetectionResult> d =
            community::DetectCommunitiesParallel(*g, cd);
        spans->Add("community.cluster", a, NowNs(), -1, 0);
        if (d.ok()) {
          report->Set("community.iterations", static_cast<double>(d->iterations), "count");
        }
        community::SqlCdOptions scd;
        scd.pool = ctx->pool;
        scd.num_partitions = ctx->pool->num_threads();
        a = NowNs();
        Result<community::DetectionResult> s = community::DetectCommunitiesSql(*g, scd);
        spans->Add("sqlengine.cluster", a, NowNs(), -1, 0);
        report->Set("graph.edges", static_cast<double>(g->num_edges()), "count");
      }
      std::vector<std::string> vocabulary;
      for (const community::Community& c : state->native.store.communities()) {
        for (const std::string& t : c.terms) vocabulary.push_back(ToLowerAscii(t));
      }
      expert::TermEvidenceIndex::BuildOptions bo;
      bo.pool = ctx->pool;
      a = NowNs();
      expert::TermEvidenceIndex index =
          expert::TermEvidenceIndex::Build(world.corpus, vocabulary, bo);
      spans->Add("expert.index_build", a, NowNs(), -1, 0);
    }

    // Two runs of graph_every batches; the last of each also carries
    // held-back click triples.
    for (size_t k = 0; k < 2 * ctx->sizes.graph_every; ++k) {
      const bool graph_batch = (k + 1) % ctx->sizes.graph_every == 0;
      std::unordered_set<std::string> dirty_terms;
      RefreshState::Probe probe;
      std::vector<std::pair<uint32_t, std::vector<std::string>>> batch;
      for (size_t i = 0; i < ctx->sizes.batch_tweets; ++i) {
        uint32_t id = state->held_tweets.at(state->next_tweet++);
        const microblog::Tweet& t = world.corpus.tweet(id);
        if (trace) {
          for (std::string& term : state->pipeline->DirtyTermsFor(t.text)) {
            dirty_terms.insert(std::move(term));
          }
        }
        batch.push_back({t.author, SplitWhitespace(ToLowerAscii(t.text))});
        AppendTweet(world, state, id, spans);
      }
      if (graph_batch) {
        for (size_t i = 0; i < ctx->sizes.click_triples_per_graph_batch; ++i) {
          AppendClick(world, state, state->held_clicks.at(state->next_click++));
        }
      }
      // Probe: the first token of the batch's first tweet must surface
      // every batch author whose tweet carries it.
      if (!batch.empty() && !batch[0].second.empty()) {
        probe.term = batch[0].second[0];
        for (const auto& [author, tokens] : batch) {
          if (std::find(tokens.begin(), tokens.end(), probe.term) != tokens.end()) {
            probe.authors.push_back(author);
          }
        }
      }
      std::shared_ptr<const expert::TermEvidenceIndex> previous =
          state->pipeline->published_evidence();
      int64_t a = CpuNs();
      Result<ingest::PublishStats> stats = state->pipeline->Publish();
      int64_t b = CpuNs();
      report->Count(1, stats.ok() ? 0 : 1);
      if (!stats.ok()) continue;
      (stats->graph_changed ? graph_ms : tweets_ms).push_back((b - a) * 1e-6);
      NoteThreads(ctx);
      // A bounded number of generations stay pinned for the checks, so
      // peak RSS does not grow with the number of rounds a run fits.
      if (state->probes.size() < kProbedPublishes) {
        probe.snapshot = state->manager->Acquire();
        state->probes.push_back(std::move(probe));
      }
      if (!trace) continue;
      dirty.push_back(static_cast<double>(stats->dirty_terms));
      size_t pools = stats->evidence_reused + stats->evidence_rebuilt;
      if (pools > 0) reuse.push_back(static_cast<double>(stats->evidence_reused) / pools);
      expert::TermEvidenceIndex::BuildOptions bo;
      bo.pool = ctx->pool;
      a = NowNs();
      expert::TermEvidenceIndex extended = expert::TermEvidenceIndex::Extend(
          previous.get(), *state->pipeline->published_corpus(),
          state->pipeline->published_vocabulary(), dirty_terms, bo);
      spans->Add("expert.index_extend", a, NowNs(), -1, 0);
      if (stats->graph_changed) {
        community::ComponentCdOptions cd;
        cd.pool = ctx->pool;
        cd.num_partitions = ctx->pool->num_threads();
        a = NowNs();
        Result<community::DetectionResult> d = community::DetectCommunitiesByComponent(
            *state->pipeline->published_graph(), cd);
        spans->Add("community.component", a, NowNs(), -1, 0);
      }
    }
  }

  report->Set("offline_s", Median(native_s), "s");
  report->Set("offline_sql_s", Median(sql_s), "s");
  report->Set("publish_tweets_ms", Median(tweets_ms), "ms");
  report->Set("publish_graph_ms", Median(graph_ms), "ms");
  auto print = [](const char* name, const std::vector<double>& values) {
    std::printf("%s (%zu, median %.4g):", name, values.size(), Median(values));
    for (double v : values) std::printf(" %.4g", v);
    std::printf("\n");
  };
  print("offline_s", native_s);
  print("offline_sql_s", sql_s);
  print("publish_tweets_ms", tweets_ms);
  print("publish_graph_ms", graph_ms);
  if (!trace) return;
  report->Set("graph.extract_s", Median(spans->Durations("graph.extract", 1e9)), "s");
  report->Set("community.cluster_s",
              Median(spans->Durations("community.cluster", 1e9)), "s");
  report->Set("community.component_ms",
              Median(spans->Durations("community.component", 1e6)), "ms");
  report->Set("sqlengine.cluster_s",
              Median(spans->Durations("sqlengine.cluster", 1e9)), "s");
  for (const auto& [kind, total] : op_totals) {
    report->Set("sqlengine.op_ms." + kind, total.first / explained, "ms");
    report->Set("sqlengine.op_rows." + kind, total.second / explained, "count");
  }
  report->Set("expert.index_build_s",
              Median(spans->Durations("expert.index_build", 1e9)), "s");
  report->Set("expert.index_extend_ms",
              Median(spans->Durations("expert.index_extend", 1e6)), "ms");
  report->Set("expert.pool_reuse_ratio", Median(reuse), "ratio");
  report->Set("ingest.dirty_terms_per_batch", Mean(dirty), "count");
  report->Set("ingest.bootstrap_s",
              Median(spans->Durations("ingest.bootstrap", 1e9)), "s");
  report->Set("ingest.append_us", Median(spans->Durations("ingest.append", 1e3)), "us");
}

namespace {

/// Each community as its sorted terms; the list sorted: a canonical form
/// of the partition that ignores community ids and order.
std::vector<std::vector<std::string>> CanonicalPartition(
    const community::CommunityStore& store) {
  std::vector<std::vector<std::string>> out;
  for (const community::Community& c : store.communities()) {
    std::vector<std::string> terms = c.terms;
    std::sort(terms.begin(), terms.end());
    out.push_back(std::move(terms));
  }
  std::sort(out.begin(), out.end());
  return out;
}

void CheckPartition(Report* report, const char* backend,
                    const core::OfflineArtifacts& art) {
  const graph::Graph& g = art.similarity_graph;
  std::unordered_map<std::string, uint32_t> community_of;
  size_t placements = 0;
  for (uint32_t c = 0; c < art.store.communities().size(); ++c) {
    for (const std::string& t : art.store.communities()[c].terms) {
      ++placements;
      if (!community_of.emplace(t, c).second) {
        report->Fail(std::string(backend) + ": term \"" + t +
                     "\" is in two communities");
      }
    }
  }
  std::vector<uint32_t> assignment(g.num_vertices());
  for (uint32_t v = 0; v < g.num_vertices(); ++v) {
    auto it = community_of.find(g.label(v));
    if (it == community_of.end()) {
      report->Fail(std::string(backend) + ": vertex \"" + g.label(v) +
                   "\" is in no community");
      return;
    }
    assignment[v] = it->second;
  }
  if (placements != g.num_vertices()) {
    report->Fail(std::string(backend) + ": communities hold " +
                 std::to_string(placements) + " terms for " +
                 std::to_string(g.num_vertices()) + " vertices");
  }
  // Modularity (Eq. 6 summed) from the graph and the final assignment.
  double m = 0;
  std::vector<double> internal(art.store.communities().size(), 0);
  std::vector<double> degree(art.store.communities().size(), 0);
  for (const graph::Edge& e : g.edges()) {
    m += e.weight;
    degree[assignment[e.u]] += e.weight;
    degree[assignment[e.v]] += e.weight;
    if (assignment[e.u] == assignment[e.v]) internal[assignment[e.u]] += e.weight;
  }
  double q = 0;
  for (size_t c = 0; c < internal.size(); ++c) {
    double frac = degree[c] / (2.0 * m);
    q += internal[c] - m * frac * frac;
  }
  const std::vector<double>& series = art.modularity_per_iteration;
  if (series.empty() ||
      std::fabs(series.back() - q) > 1e-9 * std::max(1.0, std::fabs(q))) {
    report->Fail(StrFormat("%s: modularity %.17g, job reports %.17g", backend, q,
                           series.empty() ? 0.0 : series.back()));
  }
  for (size_t i = 1; i < series.size(); ++i) {
    if (series[i] < series[i - 1] - 1e-12 * std::fabs(series[i - 1])) {
      report->Fail(StrFormat("%s: modularity falls at iteration %zu", backend, i));
    }
  }
}

bool SameRanked(const std::vector<expert::RankedExpert>& a,
                const std::vector<expert::RankedExpert>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].user != b[i].user || a[i].score != b[i].score ||
        a[i].z_topical_signal != b[i].z_topical_signal ||
        a[i].z_mention_impact != b[i].z_mention_impact ||
        a[i].z_retweet_impact != b[i].z_retweet_impact) {
      return false;
    }
  }
  return true;
}

}  // namespace

void CheckRefresh(Context* ctx, RefreshState* state) {
  Report* report = ctx->report;
  const World& world = *ctx->world;
  if (!state->have_offline) {
    report->Fail("refresh ran no offline job");
    return;
  }
  CheckPartition(report, "native", state->native);
  CheckPartition(report, "sql", state->sql);
  if (CanonicalPartition(state->native.store) != CanonicalPartition(state->sql.store)) {
    report->Fail("native and SQL backends give different communities");
  }

  size_t probes = 0;
  for (const RefreshState::Probe& p : state->probes) {
    if (p.term.empty()) continue;
    ++probes;
    std::vector<expert::CandidateEvidence> pool =
        p.snapshot->esharp().detector().CollectCandidates(p.term);
    for (uint32_t author : p.authors) {
      bool found = false;
      for (const auto& c : pool) found = found || (c.user == author && c.is_author);
      if (!found) {
        report->Fail(StrFormat("generation %llu: probe \"%s\" misses batch author %u",
                               static_cast<unsigned long long>(p.snapshot->version()),
                               p.term.c_str(), author));
        break;
      }
    }
  }

  // A fresh offline build over the accumulated inputs, replayed from the
  // benchmark's own record of every append.
  int64_t a = NowNs();
  querylog::QueryLog log;
  const querylog::QueryLog& source = world.generated.log;
  for (const RefreshState::LogOp& op : state->appended_log) {
    uint32_t id = log.AddQuery(source.query(op.query).text, querylog::kNoDomain, false);
    if (op.searches) {
      log.AddSearches(id, op.count);
    } else {
      log.AddClicks(id, op.url, op.count);
    }
  }
  microblog::TweetCorpus corpus;
  for (microblog::UserId u = 0; u < world.corpus.num_users(); ++u) {
    corpus.AddUser(world.corpus.user(u));
  }
  for (uint32_t id : state->appended_tweets) {
    const microblog::Tweet& t = world.corpus.tweet(id);
    corpus.AddTweet(t.author, t.text, t.mentions, t.retweet_count);
  }
  core::OfflineOptions options =
      OfflineOptionsFor(ctx->pool, core::ClusteringBackend::kParallelNative);
  options.corpus = &corpus;
  Result<core::OfflineArtifacts> fresh = core::RunOfflinePipeline(log, options);
  report->Count(1, fresh.ok() ? 0 : 1);
  if (!fresh.ok()) {
    report->Fail("fresh rebuild failed: " + fresh.status().ToString());
    return;
  }
  serving::SnapshotManager fresh_manager(&corpus);
  fresh_manager.Publish(std::move(fresh->store), core::ESharpOptions(),
                        fresh->evidence_index);
  if (ctx->spans->enabled()) {
    report->Set("ingest.rebuild_s", (NowNs() - a) * 1e-9, "s");
  }

  std::shared_ptr<const serving::ServingSnapshot> live = state->manager->Acquire();
  std::shared_ptr<const serving::ServingSnapshot> want = fresh_manager.Acquire();
  Oracle oracle(live->store(), *live->corpus(), core::ESharpOptions());
  Rng rng(ctx->options.seed + 53);
  std::vector<std::string> queries;
  for (size_t i = 0; i < ctx->sizes.oracle_queries; ++i) {
    queries.push_back(source.query(rng.Uniform(source.num_queries())).text);
  }
  for (size_t i = 0; i < state->probes.size() && i < 8; ++i) {
    if (!state->probes[i].term.empty()) queries.push_back(state->probes[i].term);
  }
  bool corrupted = false;
  for (const std::string& q : queries) {
    Result<std::vector<expert::RankedExpert>> got = live->esharp().FindExperts(q);
    Result<std::vector<expert::RankedExpert>> ref = want->esharp().FindExperts(q);
    if (!got.ok() || !ref.ok()) {
      report->Fail("probe \"" + q + "\" failed");
      continue;
    }
    std::vector<expert::RankedExpert> answer = *got;
    if (ctx->options.corrupt && !corrupted && !answer.empty()) {
      answer[0].score = std::nextafter(answer[0].score, 1e300);
      corrupted = true;
    }
    if (!SameRanked(answer, *ref)) {
      report->Fail("probe \"" + q + "\" differs from a fresh offline rebuild");
    }
    std::string diff = oracle.Compare(q, answer);
    if (!diff.empty()) report->Fail("oracle after refresh: " + diff);
  }
  std::printf("checked %zu publish probes and %zu refresh answers\n", probes,
              queries.size());
}

Generation LastGeneration(const RefreshState& state) {
  return Generation{state.pipeline->published_store(),
                    state.pipeline->published_corpus(),
                    state.pipeline->published_evidence()};
}

}  // namespace esharp::perfbench
