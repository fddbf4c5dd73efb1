// Shared declarations of the repo benchmark (perfbench): run options, the
// generated world, the report every workload fills, and the span log of the
// traced run. See perfbench/README.md for the workloads and metrics.

#ifndef ESHARP_PERFBENCH_BENCH_H_
#define ESHARP_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "esharp/pipeline.h"
#include "microblog/corpus.h"
#include "querylog/generator.h"

namespace esharp::perfbench {

/// Command-line options of one run.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Tiny world and short phases: every workload with every check in a few
  /// seconds (the benchmark's own tests).
  bool tiny = false;
  /// Corrupts one checked answer before comparison; the run must fail.
  bool corrupt = false;
};

/// Sizes of the generated world and of each phase.
struct Sizes {
  size_t domains_per_category = 240;
  size_t casual_users = 4000;
  size_t spam_users = 320;
  /// Share of tweets held back from set-up and replayed by the stream:
  /// ~34k of ~170k, enough for the 8 rounds x 8 batches x 500 tweets of a
  /// 10 s refresh run.
  double stream_share = 0.2;
  size_t batch_tweets = 500;
  /// Every graph_every-th batch also carries held-back click triples.
  size_t graph_every = 4;
  size_t click_triples_per_graph_batch = 24;
  size_t shards = 4;
  size_t setups = 7;
  /// Trial length of the serving phases, seconds.
  double trial_seconds = 0.5;
  double warmup_seconds = 1.0;
  /// Refresh rounds per requested second. Each round appends to the
  /// corpus and the log, so publish cost drifts up along the stream: a run
  /// does a fixed number of rounds (~1.25 s each on 4 shared vCPUs) rather
  /// than as many as fit, so every run publishes the same batches.
  double refresh_rounds_per_second = 0.8;
  /// Serving trials of the refresh workload, seconds.
  double minor_serve_seconds = 3.0;
  /// Queries checked against the oracle.
  size_t oracle_queries = 40;
  /// Requests of each traced replay.
  size_t traced_requests = 4000;
};

Sizes SizesFor(bool tiny);

/// The paper-shaped world every workload starts from.
struct World {
  querylog::TopicUniverse universe;
  querylog::GeneratedLog generated;
  microblog::TweetCorpus corpus;
  /// Every log query, most searched first (the Zipf ranks).
  std::vector<std::string> queries_by_rank;
};

/// The world is the same for every --seed (generator seed 2016): the seed
/// drives the request stream, the refresh stream and the check samples.
/// Head-query cost differs so much between generated worlds that a world
/// per seed made qps spread by ~40% across seeds.
std::unique_ptr<World> BuildWorld(const Sizes& sizes);

/// Exits with status 2 after a set-up step failed (no result is printed).
[[noreturn]] void Die(const char* what, const Status& status);

/// Extraction options shared by the offline job, ingest and the rebuild.
graph::SimilarityGraphOptions ExtractionOptions();

/// Offline job options on `pool` (two partitions: the pool's width).
core::OfflineOptions OfflineOptionsFor(ThreadPool* pool,
                                       core::ClusteringBackend backend);

/// `count` Zipf(s = 1.05) draws over [0, n), deterministic in `seed`.
std::vector<uint32_t> ZipfStream(size_t n, size_t count, uint64_t seed);

/// Monotonic nanoseconds.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Process CPU time (every thread, user + system), nanoseconds. The batch
/// phases report it instead of wall time: on a shared 4-vCPU host the wall
/// time of a 2-thread job moved by +-25% from one repetition to the next,
/// its CPU time by +-6%.
int64_t CpuNs();
/// Host CPU time taken from this machine's CPUs (/proc/stat "steal") and
/// all CPU time, in ticks; their ratio over an interval is how much of the
/// interval the host gave to other guests.
struct CpuTicks {
  uint64_t steal = 0;
  uint64_t total = 0;
};
CpuTicks ReadCpuTicks();
double StealShare(const CpuTicks& from, const CpuTicks& to);
/// Peak resident set size of the process, MB.
double PeakRssMb();

double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);
/// Nearest-rank percentile, p in [0, 100].
double Percentile(std::vector<double> values, double p);

/// What one run reports.
struct Report {
  struct Metric {
    double value = 0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Marks the run incorrect and says why on stderr.
  void Fail(const std::string& why);
  /// Counts `n` operations, `failed_n` of which failed.
  void Count(uint64_t n, uint64_t failed_n = 0) {
    attempted += n;
    failed += failed_n;
  }
};

/// In-memory span log of the traced run: name, start, end, parent and
/// request id per span, written out when the run ends.
class SpanLog {
 public:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int32_t parent;  // index into spans(), -1 for a root
    uint64_t request;
  };

  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// Opens a span; returns its index (or -1 when disabled).
  int32_t Open(const char* name, int32_t parent, uint64_t request);
  void Close(int32_t index);
  /// Records a finished span of a known duration (for calls timed with
  /// their own clock pair).
  int32_t Add(const char* name, int64_t start_ns, int64_t end_ns,
              int32_t parent, uint64_t request);

  /// Durations of every span named `name`, in ns divided by `scale`
  /// (1e3 = us).
  std::vector<double> Durations(const std::string& name, double scale) const;

  /// Writes one JSON object per line; self times follow from the parent
  /// links.
  bool Write(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// Scoped span (inert when the log is disabled or null).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int32_t parent, uint64_t request)
      : log_(log),
        index_(log != nullptr ? log->Open(name, parent, request) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int32_t index() const { return index_; }

 private:
  SpanLog* log_;
  int32_t index_;
};

// ---- Phases (serve.cc, refresh.cc) ----------------------------------------

/// Shared state of one run: the options, the world, the one pool every
/// engine, router and offline job of the process dispatches onto, the
/// report and the span log.
struct Context {
  RunOptions options;
  Sizes sizes;
  std::unique_ptr<World> world;
  ThreadPool* pool = nullptr;
  Report* report = nullptr;
  SpanLog* spans = nullptr;
  /// Most threads seen in the process (the budget is 4: 2 clients and the
  /// 2-thread pool).
  size_t max_threads = 0;
};

/// Samples the process's thread count into ctx->max_threads.
void NoteThreads(Context* ctx);

/// Serving tier of a serve workload, kept alive from set-up to the checks.
struct ServeTier;
struct ServeTierDeleter {
  void operator()(ServeTier* tier) const;
};
using ServeTierPtr = std::unique_ptr<ServeTier, ServeTierDeleter>;

/// Builds the world plus a single engine (sharded = false) or the 4-shard
/// router (sharded = true, hedging off).
ServeTierPtr BuildServeTier(Context* ctx, bool sharded);

/// Closed-loop timed trials (2 clients) for `seconds`; sets qps,
/// query_p50_us, query_p99_us and cpu_us_per_query.
void RunServeTrials(Context* ctx, ServeTier* tier, double seconds);

/// Traced replay of the tier's stream, calling the layers directly; sets
/// the serving/esharp/microblog/expert (or cluster) per-layer metrics.
void RunServeTrace(Context* ctx, ServeTier* tier);

/// Answer checks of a serve tier: oracle, method properties, and for the
/// sharded tier bit-identity with a single engine.
void CheckServeTier(Context* ctx, ServeTier* tier);

/// The refresh phase: a bootstrapped ingest pipeline, offline jobs on both
/// backends and a stream of tweet-only and graph-changing publishes.
struct RefreshState;
struct RefreshStateDeleter {
  void operator()(RefreshState* state) const;
};
using RefreshStatePtr = std::unique_ptr<RefreshState, RefreshStateDeleter>;

/// Generates the world (unless ctx->world is set) and bootstraps the
/// pipeline; this is refresh's set-up. Exits (status 2) when the world does
/// not hold back enough tweets and click triples for `rounds` rounds, so the
/// stream never appends a tweet twice.
RefreshStatePtr BootstrapRefresh(Context* ctx, size_t rounds);

/// Runs `rounds` rounds (native job, SQL job, 2 x graph_every batches);
/// sets offline_s,
/// offline_sql_s, publish_tweets_ms and publish_graph_ms (and the traced
/// per-layer metrics of the write path).
void RunRefreshRounds(Context* ctx, RefreshState* state, size_t rounds);

/// The refresh pipeline's last published generation.
struct Generation {
  std::shared_ptr<const community::CommunityStore> store;
  std::shared_ptr<const microblog::TweetCorpus> corpus;
  std::shared_ptr<const expert::TermEvidenceIndex> evidence;
};
Generation LastGeneration(const RefreshState& state);

/// A single engine serving `generation`, published into its own manager.
ServeTierPtr ServeTierFromGeneration(Context* ctx, const Generation& generation);

/// Refresh checks: partition validity, modularity, backend agreement,
/// per-batch probes and equality with a fresh offline rebuild.
void CheckRefresh(Context* ctx, RefreshState* state);

}  // namespace esharp::perfbench

#endif  // ESHARP_PERFBENCH_BENCH_H_
