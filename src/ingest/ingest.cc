#include "ingest/ingest.h"

#include <algorithm>
#include <utility>

#include "common/strings.h"
#include "common/timer.h"
#include "community/component_cd.h"
#include "obs/event_log.h"
#include "obs/metrics.h"

namespace esharp::ingest {

namespace {

/// Distinct tokens of a lower-cased text, as a set for subset checks.
std::unordered_set<std::string> TokenSet(const std::string& lowered) {
  std::unordered_set<std::string> set;
  for (std::string& tok : SplitWhitespace(lowered)) set.insert(std::move(tok));
  return set;
}

}  // namespace

IngestPipeline::IngestPipeline(serving::SnapshotManager* manager,
                               IngestOptions options)
    : manager_(manager), options_(std::move(options)) {}

microblog::UserId IngestPipeline::AppendUser(microblog::UserProfile user) {
  microblog::UserId id = user.id;
  tail_.AddUser(std::move(user));
  NoteAppend();
  return id;
}

uint32_t IngestPipeline::AppendTweet(microblog::UserId author,
                                     std::string text,
                                     std::vector<microblog::UserId> mentions,
                                     uint32_t retweet_count) {
  // Dirty-term detection runs on token STRINGS (corpus-independent): a
  // tweet changes a term's pool exactly when it contains every token of
  // the term, which is MatchTweets membership stated without the token
  // dictionary — so it stays correct even when the tweet introduces the
  // very token that makes an out-of-dictionary term matchable.
  if (!vocabulary_.empty()) {
    std::unordered_set<std::string> tokens = TokenSet(ToLowerAscii(text));
    std::unordered_set<uint32_t> checked;
    for (const std::string& tok : tokens) {
      auto it = token_to_terms_.find(tok);
      if (it == token_to_terms_.end()) continue;
      for (uint32_t term : it->second) {
        if (!checked.insert(term).second) continue;
        const std::vector<std::string>& need = vocabulary_tokens_[term];
        bool all = true;
        for (const std::string& t : need) {
          if (tokens.count(t) == 0) {
            all = false;
            break;
          }
        }
        if (all) dirty_terms_.insert(vocabulary_[term]);
      }
    }
    dirty_term_count_.store(dirty_terms_.size(), std::memory_order_relaxed);
  }
  uint32_t id = tail_.AddTweet(author, std::move(text), std::move(mentions),
                               retweet_count);
  ++batch_tweets_;
  NoteAppend();
  return id;
}

std::vector<std::string> IngestPipeline::DirtyTermsFor(
    const std::string& text) const {
  std::vector<std::string> out;
  if (vocabulary_.empty()) return out;
  std::unordered_set<std::string> tokens = TokenSet(ToLowerAscii(text));
  std::unordered_set<uint32_t> checked;
  for (const std::string& tok : tokens) {
    auto it = token_to_terms_.find(tok);
    if (it == token_to_terms_.end()) continue;
    for (uint32_t term : it->second) {
      if (!checked.insert(term).second) continue;
      const std::vector<std::string>& need = vocabulary_tokens_[term];
      bool all = true;
      for (const std::string& t : need) {
        if (tokens.count(t) == 0) {
          all = false;
          break;
        }
      }
      if (all) out.push_back(vocabulary_[term]);
    }
  }
  return out;
}

uint32_t IngestPipeline::InternQuery(const std::string& query) {
  uint32_t qid = log_.AddQuery(query, querylog::kNoDomain, false);
  if (qid >= queries_.size()) queries_.resize(qid + 1);
  return qid;
}

void IngestPipeline::MarkQueryDirty(uint32_t qid) {
  dirty_queries_.insert(qid);
  graph_dirty_ = true;
}

void IngestPipeline::AddSurvivorUrl(uint32_t qid, uint32_t url) {
  UrlState& u = urls_[url];
  if (!u.clickers.insert(qid).second) return;
  if (!u.hub && u.clickers.size() > options_.extraction.max_url_fanout) {
    // The url just became a hub: it stops generating candidate pairs, so
    // every pair that was only discoverable through it loses its edge.
    // Fanout only grows (queries never un-survive, clicks never retract),
    // so a hub never flips back — one rescoring pass per flip suffices.
    u.hub = true;
    for (uint32_t clicker : u.clickers) MarkQueryDirty(clicker);
  }
}

void IngestPipeline::PromoteSurvivor(uint32_t qid) {
  QueryState& s = queries_[qid];
  s.survivor = true;
  s.vector_stale = true;
  for (const auto& [url, clicks] : s.clicks) {
    (void)clicks;
    AddSurvivorUrl(qid, url);
  }
  MarkQueryDirty(qid);
}

void IngestPipeline::AppendSearches(const std::string& query, uint64_t count) {
  uint32_t qid = InternQuery(query);
  log_.AddSearches(qid, count);
  if (!queries_[qid].survivor &&
      log_.query(qid).total_count >= options_.extraction.min_query_count) {
    PromoteSurvivor(qid);
  }
  NoteAppend();
}

void IngestPipeline::AppendClicks(const std::string& query, uint32_t url,
                                  uint64_t clicks) {
  // Zero-click triples are no-ops in QueryLog::AddClicks; mirroring that
  // here keeps the url's clicker set (and so hub fanout) identical to the
  // replayed log's postings.
  if (clicks == 0) return;
  uint32_t qid = InternQuery(query);
  log_.AddClicks(qid, url, clicks);
  QueryState& s = queries_[qid];
  s.clicks[url] += clicks;
  if (s.survivor) {
    s.vector_stale = true;
    AddSurvivorUrl(qid, url);
    MarkQueryDirty(qid);
  }
  NoteAppend();
}

void IngestPipeline::UpdateGraphState() {
  // Phase 0: refresh the materialized vectors of dirty queries. Built in
  // ascending url order from the accumulated totals, the canonical entries
  // — and hence Norm() and Dot() — are bitwise what BuildClickVectors
  // yields over the filtered log.
  for (uint32_t qid : dirty_queries_) {
    QueryState& s = queries_[qid];
    if (!s.vector_stale) continue;
    std::vector<std::pair<uint32_t, uint64_t>> sorted(s.clicks.begin(),
                                                      s.clicks.end());
    std::sort(sorted.begin(), sorted.end());
    SparseVector v;
    for (const auto& [url, clicks] : sorted) {
      v.Add(url, static_cast<double>(clicks));
    }
    s.norm = v.Norm();
    s.vector = std::move(v);
    s.vector_stale = false;
  }

  // Phase 1: drop every dirty query's edges (both directions) — its
  // vector, candidate set or hub exposure changed, so nothing it had is
  // trusted.
  for (uint32_t qid : dirty_queries_) {
    auto it = adj_.find(qid);
    if (it == adj_.end()) continue;
    for (const auto& [other, w] : it->second) {
      (void)w;
      auto oit = adj_.find(other);
      if (oit != adj_.end()) oit->second.erase(qid);
    }
    it->second.clear();
  }

  // Phase 2: re-score each dirty query against every candidate reachable
  // through a shared non-hub url — the builder's discovery rule. The full
  // sorted-merge Dot over all common dims is bitwise the builder's weight
  // in both of its cases (fused accumulation over non-hub commons when no
  // hub is shared; explicit full Dot when one is). Writes are symmetric,
  // so two dirty queries rescoring the same pair overwrite it with the
  // identical value.
  for (uint32_t qid : dirty_queries_) {
    const QueryState& s = queries_[qid];
    std::unordered_set<uint32_t> candidates;
    for (const auto& [url, clicks] : s.clicks) {
      (void)clicks;
      auto uit = urls_.find(url);
      if (uit == urls_.end() || uit->second.hub) continue;
      for (uint32_t c : uit->second.clickers) {
        if (c != qid) candidates.insert(c);
      }
    }
    for (uint32_t c : candidates) {
      const QueryState& o = queries_[c];
      double d = s.vector.Dot(o.vector);
      double sim =
          (s.norm == 0.0 || o.norm == 0.0) ? 0.0 : d / (s.norm * o.norm);
      if (sim >= options_.extraction.min_similarity) {
        adj_[qid][c] = sim;
        adj_[c][qid] = sim;
      }
    }
  }
  dirty_queries_.clear();
}

Result<graph::Graph> IngestPipeline::MaterializeGraph() const {
  // Vertices: survivors in ascending accumulated id — exactly the order
  // FilterByMinCount assigns dense filtered ids, so vertex v here IS
  // vertex v of BuildSimilarityGraph.
  graph::Graph g;
  std::unordered_map<uint32_t, graph::VertexId> vertex_of;
  std::vector<uint32_t> survivors;
  for (uint32_t qid = 0; qid < queries_.size(); ++qid) {
    if (!queries_[qid].survivor) continue;
    vertex_of.emplace(qid, g.AddVertex(log_.query(qid).text));
    survivors.push_back(qid);
  }
  // Edges in the builder's emission order: u ascending, then v ascending,
  // u < v — so the edge array, the adjacency and the TotalWeight
  // accumulation order (and thus its floating-point value) all match.
  std::vector<uint32_t> neighbors;
  for (uint32_t qid : survivors) {
    auto it = adj_.find(qid);
    if (it == adj_.end()) continue;
    neighbors.clear();
    for (const auto& [other, w] : it->second) {
      (void)w;
      if (other > qid) neighbors.push_back(other);
    }
    std::sort(neighbors.begin(), neighbors.end());
    for (uint32_t other : neighbors) {
      ESHARP_RETURN_NOT_OK(g.AddEdge(vertex_of.at(qid), vertex_of.at(other),
                                     it->second.at(other)));
    }
  }
  g.Finalize();
  return g;
}

void IngestPipeline::RebuildVocabularyRegistry() {
  vocabulary_tokens_.assign(vocabulary_.size(), {});
  token_to_terms_.clear();
  std::unordered_set<std::string> seen_terms;
  for (uint32_t i = 0; i < vocabulary_.size(); ++i) {
    if (!seen_terms.insert(vocabulary_[i]).second) continue;
    std::vector<std::string> tokens = SplitWhitespace(vocabulary_[i]);
    std::unordered_set<std::string> distinct;
    for (const std::string& tok : tokens) {
      if (distinct.insert(tok).second) token_to_terms_[tok].push_back(i);
    }
    vocabulary_tokens_[i] = std::move(tokens);
  }
}

Result<PublishStats> IngestPipeline::Publish() {
  Timer timer;
  PublishStats stats;
  stats.batch_appends = backlog_.load(std::memory_order_relaxed);
  stats.batch_tweets = batch_tweets_;
  stats.dirty_terms = dirty_terms_.size();

  // Freeze the tail as this generation's corpus and fork a fresh tail for
  // the appends that arrive while (and after) this publish runs.
  auto generation =
      std::make_shared<const microblog::TweetCorpus>(std::move(tail_));
  tail_ = generation->ExtendedCopy();

  const bool vocabulary_may_change = graph_dirty_;
  stats.graph_changed = graph_dirty_;
  if (graph_dirty_) {
    if (options_.incremental_graph) {
      UpdateGraphState();
      ESHARP_ASSIGN_OR_RETURN(graph::Graph g, MaterializeGraph());
      published_graph_ = std::make_shared<const graph::Graph>(std::move(g));
    } else {
      // Safety valve: full re-extraction from the accumulated log. Same
      // result, batch-independent cost.
      graph::SimilarityGraphOptions extraction = options_.extraction;
      extraction.pool = options_.pool;
      extraction.num_partitions = options_.num_partitions;
      ESHARP_ASSIGN_OR_RETURN(graph::Graph g,
                              BuildSimilarityGraph(log_, extraction));
      published_graph_ = std::make_shared<const graph::Graph>(std::move(g));
      dirty_queries_.clear();
    }

    community::DetectionResult detection;
    if (published_graph_->num_vertices() > 0) {
      community::ComponentCdOptions cd;
      cd.use_sql = options_.backend == core::ClusteringBackend::kSqlEngine;
      cd.max_iterations = options_.max_iterations;
      cd.pool = options_.pool;
      cd.num_partitions = options_.num_partitions;
      ESHARP_ASSIGN_OR_RETURN(
          detection, DetectCommunitiesByComponent(*published_graph_, cd));
    }

    published_store_ = std::make_shared<const community::CommunityStore>(
        community::CommunityStore::Build(*published_graph_,
                                         detection.assignment));

    // The expansion vocabulary is the new store's term set, normalized the
    // way the offline pipeline and Publish normalize it.
    vocabulary_.clear();
    for (const community::Community& c : published_store_->communities()) {
      for (const std::string& term : c.terms) {
        vocabulary_.push_back(ToLowerAscii(term));
      }
    }
    graph_dirty_ = false;
  } else if (published_graph_ == nullptr) {
    published_graph_ = std::make_shared<const graph::Graph>();
    published_store_ = std::make_shared<const community::CommunityStore>();
  }
  stats.graph_vertices = published_graph_->num_vertices();
  stats.graph_edges = published_graph_->num_edges();
  stats.communities = published_store_->num_communities();

  // Delta evidence: share every clean pool with the previous generation,
  // re-collect dirty and new terms against the frozen corpus.
  expert::TermEvidenceIndex::BuildOptions evidence_options;
  evidence_options.pool = options_.pool;
  expert::TermEvidenceIndex::ExtendStats extend_stats;
  auto evidence = std::make_shared<const expert::TermEvidenceIndex>(
      expert::TermEvidenceIndex::Extend(published_evidence_.get(), *generation,
                                        vocabulary_, dirty_terms_,
                                        evidence_options, &extend_stats));
  stats.evidence_reused = extend_stats.reused;
  stats.evidence_rebuilt = extend_stats.rebuilt;

  stats.version =
      manager_->Publish(published_store_, generation, options_.serving,
                        evidence);

  published_corpus_ = std::move(generation);
  published_evidence_ = std::move(evidence);
  if (vocabulary_may_change) RebuildVocabularyRegistry();
  dirty_terms_.clear();
  dirty_term_count_.store(0, std::memory_order_relaxed);
  backlog_.store(0, std::memory_order_relaxed);
  oldest_unpublished_seconds_.store(0, std::memory_order_relaxed);
  batch_tweets_ = 0;
  stats.publish_ms = timer.ElapsedMillis();
  RefreshGauges();

  obs::EventLog::Global().Add(
      obs::LogLevel::kINFO, "ingest", "delta generation published",
      {{"version", StrFormat("%llu",
                             static_cast<unsigned long long>(stats.version))},
       {"batch_appends", StrFormat("%zu", stats.batch_appends)},
       {"dirty_terms", StrFormat("%zu", stats.dirty_terms)},
       {"evidence_reused", StrFormat("%zu", stats.evidence_reused)},
       {"evidence_rebuilt", StrFormat("%zu", stats.evidence_rebuilt)},
       {"graph_changed", stats.graph_changed ? "true" : "false"},
       {"publish_ms", StrFormat("%.3f", stats.publish_ms)}});
  return stats;
}

double IngestPipeline::lag_ms() const {
  if (backlog_.load(std::memory_order_relaxed) == 0) return 0;
  double oldest = oldest_unpublished_seconds_.load(std::memory_order_relaxed);
  if (oldest == 0) return 0;
  return (obs::NowSeconds() - oldest) * 1e3;
}

void IngestPipeline::NoteAppend() {
  if (backlog_.fetch_add(1, std::memory_order_relaxed) == 0) {
    oldest_unpublished_seconds_.store(obs::NowSeconds(),
                                      std::memory_order_relaxed);
  }
  if (options_.metrics != nullptr) {
    options_.metrics->GetGauge("ingest.backlog")
        ->Set(static_cast<double>(backlog_.load(std::memory_order_relaxed)));
  }
}

void IngestPipeline::RefreshGauges() {
  if (options_.metrics == nullptr) return;
  options_.metrics->GetGauge("ingest.lag_ms")->Set(lag_ms());
  options_.metrics->GetGauge("ingest.backlog")
      ->Set(static_cast<double>(backlog_.load(std::memory_order_relaxed)));
  options_.metrics->GetGauge("ingest.dirty_terms")
      ->Set(static_cast<double>(
          dirty_term_count_.load(std::memory_order_relaxed)));
}

}  // namespace esharp::ingest
