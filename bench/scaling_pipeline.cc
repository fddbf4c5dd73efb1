// Scaling: the offline pipeline as the simulated log grows.
//
// The paper's pipeline digests 998 GB with 65 VMs; this bench sweeps the
// simulated world size and the worker count, printing per-stage wall time
// so the scaling behavior (extraction ~linear in click records, clustering
// ~linear in edges x iterations; workers help both) is visible.
//
// A second sweep times the kSqlEngine clustering backend (the literal SQL
// of Fig. 4 on the engine's columnar kernels) at 8 partitions per world.
//
// Usage: scaling_pipeline [--json=PATH] [--smoke]
//
// --smoke shrinks both sweeps to one tiny world each (CI-speed; used by the
// `bench`-labelled ctest smoke runs).
//
// Every sweep point is also published as bench.pipeline.* gauges
// (labelled {workers=...,domains=...}, and {path=columnar,domains=...} for
// the SQL backend) into a bench-local MetricsRegistry and written as a
// JSON snapshot (default BENCH_pipeline.json; schema in EXPERIMENTS.md).

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/strings.h"
#include "esharp/pipeline.h"
#include "obs/obs.h"
#include "querylog/generator.h"

using namespace esharp;

namespace {

struct Row {
  size_t domains;
  size_t queries;
  size_t edges;
  double extraction_s;
  double clustering_s;
};

querylog::GeneratedLog MakeWorld(size_t domains_per_category,
                                 size_t* num_domains) {
  querylog::UniverseOptions uo;
  uo.num_categories = 6;
  uo.domains_per_category = domains_per_category;
  uo.seed = 42;
  querylog::TopicUniverse universe = *querylog::TopicUniverse::Generate(uo);
  *num_domains = universe.num_domains();
  querylog::GeneratorOptions go;
  go.seed = 43;
  return *GenerateQueryLog(universe, go);
}

ThreadPool& Pool() {
  static ThreadPool pool(8);
  return pool;
}

Row RunOne(size_t domains_per_category, size_t threads) {
  size_t num_domains = 0;
  querylog::GeneratedLog gen = MakeWorld(domains_per_category, &num_domains);

  ResourceMeter meter;
  core::OfflineOptions options;
  options.pool = threads > 1 ? &Pool() : nullptr;
  options.num_partitions = threads;
  options.meter = &meter;
  core::OfflineArtifacts artifacts = *RunOfflinePipeline(gen.log, options);

  Row row;
  row.domains = num_domains;
  row.queries = artifacts.similarity_graph.num_vertices();
  row.edges = artifacts.similarity_graph.num_edges();
  row.extraction_s = meter.Get("Extraction").seconds;
  row.clustering_s = meter.Get("Clustering").seconds;
  return row;
}

/// One kSqlEngine clustering run (8 partitions).
Row RunSqlOne(size_t domains_per_category) {
  size_t num_domains = 0;
  querylog::GeneratedLog gen = MakeWorld(domains_per_category, &num_domains);

  ResourceMeter meter;
  core::OfflineOptions options;
  options.backend = core::ClusteringBackend::kSqlEngine;
  options.pool = &Pool();
  options.num_partitions = 8;
  options.meter = &meter;
  core::OfflineArtifacts artifacts = *RunOfflinePipeline(gen.log, options);

  Row row;
  row.domains = num_domains;
  row.queries = artifacts.similarity_graph.num_vertices();
  row.edges = artifacts.similarity_graph.num_edges();
  row.extraction_s = meter.Get("Extraction").seconds;
  row.clustering_s = meter.Get("Clustering").seconds;
  return row;
}

/// Publishes one sweep point as bench.pipeline.<field>{workers=,domains=}.
void PublishRow(obs::MetricsRegistry& registry, size_t threads,
                const Row& row) {
  const obs::Labels point{{"workers", StrFormat("%zu", threads)},
                          {"domains", StrFormat("%zu", row.domains)}};
  registry.GetGauge("bench.pipeline.queries", point)
      ->Set(static_cast<double>(row.queries));
  registry.GetGauge("bench.pipeline.edges", point)
      ->Set(static_cast<double>(row.edges));
  registry.GetGauge("bench.pipeline.extraction_seconds", point)
      ->Set(row.extraction_s);
  registry.GetGauge("bench.pipeline.clustering_seconds", point)
      ->Set(row.clustering_s);
}

/// Publishes one SQL sweep point as
/// bench.pipeline.sql_clustering_seconds{path=columnar,domains=}.
void PublishSqlRow(obs::MetricsRegistry& registry, const Row& row) {
  const obs::Labels point{{"path", "columnar"},
                          {"domains", StrFormat("%zu", row.domains)}};
  registry.GetGauge("bench.pipeline.sql_clustering_seconds", point)
      ->Set(row.clustering_s);
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_pipeline.json";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) json_path = argv[i] + 7;
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const std::vector<size_t> thread_sweep =
      smoke ? std::vector<size_t>{8} : std::vector<size_t>{1, 8};
  const std::vector<size_t> dpc_sweep =
      smoke ? std::vector<size_t>{20} : std::vector<size_t>{20, 60, 120, 240};
  const std::vector<size_t> sql_dpc_sweep =
      smoke ? std::vector<size_t>{20} : std::vector<size_t>{20, 60};

  obs::MetricsRegistry registry;
  std::printf("\n=== Scaling: offline pipeline vs world size ===\n");
  std::printf("%-10s %-9s %-9s %-9s %-14s %-14s\n", "Workers", "Domains",
              "Queries", "Edges", "Extraction(s)", "Clustering(s)");
  for (size_t threads : thread_sweep) {
    for (size_t dpc : dpc_sweep) {
      Row row = RunOne(dpc, threads);
      std::printf("%-10zu %-9zu %-9zu %-9zu %-14.3f %-14.3f\n", threads,
                  row.domains, row.queries, row.edges, row.extraction_s,
                  row.clustering_s);
      PublishRow(registry, threads, row);
    }
  }
  std::printf(
      "\nShape to check: both stages grow roughly linearly with the world.\n"
      "On multi-core machines the worker pool cuts extraction wall time;\n"
      "clustering's native backend is bookkeeping-bound at this scale.\n");

  std::printf("\n=== kSqlEngine clustering (8 partitions) ===\n");
  std::printf("%-9s %-9s %-9s %-14s\n", "Domains", "Queries", "Edges",
              "Clustering(s)");
  for (size_t dpc : sql_dpc_sweep) {
    Row row = RunSqlOne(dpc);
    std::printf("%-9zu %-9zu %-9zu %-14.3f\n", row.domains, row.queries,
                row.edges, row.clustering_s);
    PublishSqlRow(registry, row);
  }

  Status written = registry.WriteJsonFile(json_path);
  if (!written.ok()) {
    ESHARP_LOG(WARN) << "could not write " << json_path << ": "
                     << written.ToString();
  } else {
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
