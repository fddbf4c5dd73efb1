// perfbench: the repo benchmark. One process runs one workload:
//
//   perfbench --workload serve_zipf|serve_sharded|refresh --seed N
//             --seconds S --trace 0|1 [--tiny] [--corrupt]
//
// Every workload sets up (several times; the median is setup_s), runs its
// timed trials, runs the other workloads' phases so every metric exists on
// every workload, and then checks its answers. The last line of
// stdout is one JSON object: correct, attempted, failed and the metrics
// (end-to-end ones with --trace 0, per-layer ones with --trace 1). The
// traced run writes its spans to .bench_build/spans/<workload>-<seed>.jsonl
// under the working directory.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <algorithm>
#include <filesystem>
#include <set>

#include "bench.h"

namespace esharp::perfbench {
namespace {

const char* const kEndToEnd[] = {
    "setup_s",       "cpu_us_per_query",  "offline_s",        "offline_sql_s",
    "publish_tweets_ms", "publish_graph_ms", "peak_rss_mb",
};

const char* const kPerLayer[] = {
    "serving.hit_us", "serving.miss_us", "serving.hit_ratio",
    "serving.cache_get_ns", "serving.record_ns", "serving.unattributed_us",
    "serving.evidence_us", "serving.publish_ms", "esharp.expand_us",
    "esharp.terms_per_query", "microblog.tokenize_us", "microblog.match_us",
    "microblog.corpus_mb", "expert.find_us", "expert.collect_us",
    "expert.merge_us", "expert.rank_us", "expert.candidates_per_query",
    "expert.live_terms_per_query", "expert.index_build_s",
    "expert.index_extend_ms", "expert.pool_reuse_ratio", "expert.index_mb",
    "cluster.query_us", "cluster.merge_rank_us", "cluster.fanout_us",
    "cluster.partition_s", "graph.extract_s", "graph.edges",
    "community.cluster_s", "community.iterations", "community.component_ms",
    "sqlengine.cluster_s", "ingest.bootstrap_s", "ingest.append_us",
    "ingest.dirty_terms_per_batch", "ingest.rebuild_s",
    "obs.trace_overhead_pct",
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "serve_zipf|serve_sharded|refresh --seed N --seconds S "
               "--trace 0|1 [--tiny] [--corrupt]\n",
               why);
  std::exit(2);
}

RunOptions Parse(int argc, char** argv) {
  RunOptions o;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      o.trace = value() != "0";
    } else if (arg == "--tiny") {
      o.tiny = true;
    } else if (arg == "--corrupt") {
      o.corrupt = true;
    } else {
      Usage(("unknown argument " + arg).c_str());
    }
  }
  if (o.workload != "serve_zipf" && o.workload != "serve_sharded" &&
      o.workload != "refresh") {
    Usage("unknown workload");
  }
  if (!(o.seconds > 0)) Usage("--seconds must be positive");
  return o;
}

int Run(const RunOptions& options) {
  ThreadPool pool(2);  // + 2 clients = the 4 cores
  Report report;
  SpanLog spans(options.trace);
  Context ctx;
  ctx.options = options;
  ctx.sizes = SizesFor(options.tiny);
  ctx.pool = &pool;
  ctx.report = &report;
  ctx.spans = &spans;
  const Sizes& sizes = ctx.sizes;
  const bool refresh = options.workload == "refresh";
  const bool sharded = options.workload == "serve_sharded";
  const size_t traced = sizes.traced_requests;
  // Every workload publishes the same stream, so the write-side metrics
  // measure the same batches whichever workload reports them.
  const size_t refresh_rounds = std::max<size_t>(
      1, std::lround(options.seconds * sizes.refresh_rounds_per_second));

  // Set-up, several times; the last one's state is the one measured.
  std::vector<double> setup_s;
  ServeTierPtr tier;
  RefreshStatePtr state;
  for (size_t i = 0; i < sizes.setups; ++i) {
    tier.reset();
    state.reset();
    ctx.world.reset();
    int64_t t0 = CpuNs();
    if (refresh) {
      state = BootstrapRefresh(&ctx, refresh_rounds);
    } else {
      tier = BuildServeTier(&ctx, sharded);
    }
    setup_s.push_back((CpuNs() - t0) * 1e-9);
  }
  const World& world = *ctx.world;
  std::printf("world: %zu domains, %zu logged queries, %zu users, %zu tweets\n",
              world.universe.num_domains(), world.generated.log.num_queries(),
              world.corpus.num_users(), world.corpus.num_tweets());
  std::printf("setup_s:");
  for (double s : setup_s) std::printf(" %.3f", s);
  std::printf("\n");

  // Timed trials first; the other phases and the checks afterwards.
  ServeTierPtr other;
  if (refresh) {
    RunRefreshRounds(&ctx, state.get(), refresh_rounds);
    tier = ServeTierFromGeneration(&ctx, LastGeneration(*state));
    if (!options.trace) {
      RunServeTrials(&ctx, tier.get(), sizes.minor_serve_seconds);
    } else {
      RunServeTrace(&ctx, tier.get());
      ctx.sizes.traced_requests = traced / 4;
      other = BuildServeTier(&ctx, true);
      RunServeTrace(&ctx, other.get());
    }
  } else {
    if (!options.trace) {
      RunServeTrials(&ctx, tier.get(), options.seconds);
    } else {
      RunServeTrace(&ctx, tier.get());
      ctx.sizes.traced_requests = traced / 4;
      other = BuildServeTier(&ctx, !sharded);
      RunServeTrace(&ctx, other.get());
    }
    state = BootstrapRefresh(&ctx, refresh_rounds);
    RunRefreshRounds(&ctx, state.get(), refresh_rounds);
  }
  report.Set("setup_s", Median(setup_s), "s");
  report.Set("peak_rss_mb", PeakRssMb(), "MB");
  NoteThreads(&ctx);
  std::printf("threads: at most %zu\n", ctx.max_threads);
  if (ctx.max_threads > 4) {
    report.Fail("the process ran " + std::to_string(ctx.max_threads) +
                " threads; the budget is 4");
  }

  CheckServeTier(&ctx, tier.get());
  if (other != nullptr) CheckServeTier(&ctx, other.get());
  CheckRefresh(&ctx, state.get());

  if (options.trace) {
    const std::string dir = ".bench_build/spans";
    const std::string path =
        dir + "/" + options.workload + "-" + std::to_string(options.seed) + ".jsonl";
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec || !spans.Write(path)) report.Fail("cannot write spans to " + path);
  }

  // The result line: exactly the metrics of this mode.
  std::set<std::string> wanted;
  if (options.trace) {
    wanted.insert(std::begin(kPerLayer), std::end(kPerLayer));
    for (const auto& [name, metric] : report.metrics) {
      if (name.rfind("sqlengine.op_", 0) == 0) wanted.insert(name);
    }
  } else {
    wanted.insert(std::begin(kEndToEnd), std::end(kEndToEnd));
  }
  std::string json;
  for (const std::string& name : wanted) {
    auto it = report.metrics.find(name);
    if (it == report.metrics.end() || !std::isfinite(it->second.value)) {
      report.Fail("metric " + name + " was not measured");
      continue;
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  json.empty() ? "" : ", ", name.c_str(), it->second.value,
                  it->second.unit.c_str());
    json += buf;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed), json.c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}

}  // namespace
}  // namespace esharp::perfbench

int main(int argc, char** argv) {
  return esharp::perfbench::Run(esharp::perfbench::Parse(argc, argv));
}
