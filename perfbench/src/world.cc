// World generation, the Zipf query stream and the small utilities every
// phase shares (process CPU and RSS, medians, the report, the span log).

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/rng.h"
#include "microblog/generator.h"
#include "bench.h"

namespace esharp::perfbench {

Sizes SizesFor(bool tiny) {
  Sizes s;
  if (!tiny) return s;
  s.domains_per_category = 8;
  s.casual_users = 120;
  s.spam_users = 10;
  s.stream_share = 0.2;
  s.batch_tweets = 60;
  s.graph_every = 2;
  s.click_triples_per_graph_batch = 6;
  s.setups = 2;
  s.trial_seconds = 0.2;
  s.warmup_seconds = 0.1;
  s.minor_serve_seconds = 0.4;
  s.oracle_queries = 25;
  s.traced_requests = 300;
  return s;
}

void Die(const char* what, const Status& status) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what, status.ToString().c_str());
  std::exit(2);
}

template <typename T>
static T Unwrap(Result<T> result, const char* what) {
  if (!result.ok()) Die(what, result.status());
  return std::move(result).MoveValueUnsafe();
}

std::unique_ptr<World> BuildWorld(const Sizes& sizes) {
  constexpr uint64_t seed = 2016;
  querylog::UniverseOptions uo;
  uo.num_categories = 6;
  uo.domains_per_category = sizes.domains_per_category;
  uo.seed = seed;
  querylog::GeneratorOptions go;
  go.seed = seed + 1;
  microblog::CorpusOptions co;
  co.seed = seed + 2;
  co.casual_users = sizes.casual_users;
  co.spam_users = sizes.spam_users;

  auto world = std::make_unique<World>();
  world->universe = Unwrap(querylog::TopicUniverse::Generate(uo), "universe");
  world->generated = Unwrap(GenerateQueryLog(world->universe, go), "query log");
  world->corpus = Unwrap(GenerateCorpus(world->universe, co), "corpus");

  const querylog::QueryLog& log = world->generated.log;
  std::vector<uint32_t> ids(log.num_queries());
  for (uint32_t i = 0; i < ids.size(); ++i) ids[i] = i;
  std::stable_sort(ids.begin(), ids.end(), [&](uint32_t a, uint32_t b) {
    return log.query(a).total_count > log.query(b).total_count;
  });
  world->queries_by_rank.reserve(ids.size());
  for (uint32_t id : ids) world->queries_by_rank.push_back(log.query(id).text);
  return world;
}

graph::SimilarityGraphOptions ExtractionOptions() {
  graph::SimilarityGraphOptions o;
  o.min_similarity = 0.15;
  return o;
}

core::OfflineOptions OfflineOptionsFor(ThreadPool* pool,
                                       core::ClusteringBackend backend) {
  core::OfflineOptions o;
  o.extraction = ExtractionOptions();
  o.backend = backend;
  o.pool = pool;
  o.num_partitions = pool->num_threads();
  return o;
}

std::vector<uint32_t> ZipfStream(size_t n, size_t count, uint64_t seed) {
  std::vector<double> cdf(n);
  double total = 0;
  for (size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), 1.05);
    cdf[r] = total;
  }
  Rng rng(seed);
  std::vector<uint32_t> out(count);
  for (uint32_t& q : out) {
    double u = rng.NextDouble() * total;
    q = static_cast<uint32_t>(std::lower_bound(cdf.begin(), cdf.end(), u) -
                              cdf.begin());
    if (q >= n) q = static_cast<uint32_t>(n - 1);
  }
  return out;
}

int64_t CpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

CpuTicks ReadCpuTicks() {
  CpuTicks t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1],
                  &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (unsigned long long x : v) t.total += x;
    t.steal = v[7];
  }
  std::fclose(f);
  return t;
}

double StealShare(const CpuTicks& from, const CpuTicks& to) {
  uint64_t total = to.total - from.total;
  return total == 0 ? 0 : static_cast<double>(to.steal - from.steal) / total;
}

void NoteThreads(Context* ctx) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return;
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    unsigned long threads = 0;
    if (std::sscanf(line, "Threads: %lu", &threads) == 1) {
      ctx->max_threads = std::max<size_t>(ctx->max_threads, threads);
      break;
    }
  }
  std::fclose(f);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Mean(const std::vector<double>& values) {
  double sum = 0;
  for (double v : values) sum += v;
  return values.empty() ? 0 : sum / static_cast<double>(values.size());
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * values.size()));
  if (rank == 0) rank = 1;
  return values[std::min(rank, values.size()) - 1];
}

void Report::Fail(const std::string& why) {
  correct = false;
  std::fprintf(stderr, "CHECK FAILED: %s\n", why.c_str());
}

// ---- SpanLog ---------------------------------------------------------------

int32_t SpanLog::Open(const char* name, int32_t parent, uint64_t request) {
  if (!enabled_) return -1;
  spans_.push_back(Span{name, NowNs(), 0, parent, request});
  return static_cast<int32_t>(spans_.size() - 1);
}

void SpanLog::Close(int32_t index) {
  if (index >= 0) spans_[index].end_ns = NowNs();
}

int32_t SpanLog::Add(const char* name, int64_t start_ns, int64_t end_ns,
                     int32_t parent, uint64_t request) {
  if (!enabled_) return -1;
  spans_.push_back(Span{name, start_ns, end_ns, parent, request});
  return static_cast<int32_t>(spans_.size() - 1);
}

std::vector<double> SpanLog::Durations(const std::string& name,
                                       double scale) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(static_cast<double>(s.end_ns - s.start_ns) / scale);
  }
  return out;
}

bool SpanLog::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"parent\":%d,\"request\":%llu}\n",
                 s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<unsigned long long>(s.request));
  }
  return std::fclose(f) == 0;
}

}  // namespace esharp::perfbench
