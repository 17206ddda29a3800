// Query-throughput shoot-out: legacy SpcIndex::Query vs the FlatSpcIndex
// packed arena, its batched driver, and the thread-parallel batch driver —
// all on the same graph and the same query set — plus a shard-count sweep
// (1/4/16 vertex-range shards) quantifying what the sharded serving
// layout costs the query path, and facade-vs-SpcService rows pricing the
// typed serving API (validation + consistency routing, DESIGN.md §9)
// against direct facade calls. Two hot-pair-cache rows (DESIGN.md §15)
// are measured regardless of --query-dist: under Zipf-skewed pairs, so
// the checked-in JSON always carries the cache hit rate skewed traffic
// would see, and under uniform pairs, which price the cache's miss path.
// Every queries/second figure is the median of kReps timed runs,
// reported with its quartiles. Emits a human table on stdout and
// machine-readable JSON (BENCH_query_throughput.json, override with
// argv[1]) for the repo's benchmark trajectory.

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "dspc/api/spc_service.h"
#include "dspc/common/label_codec.h"
#include "dspc/common/rng.h"
#include "dspc/common/stopwatch.h"
#include "dspc/core/dynamic_spc.h"
#include "dspc/core/flat_spc_index.h"
#include "dspc/core/hp_spc.h"
#include "dspc/core/parallel_build.h"
#include "dspc/graph/generators.h"
#include "dspc/graph/zipf_sampler.h"

namespace {

using namespace dspc;

/// Timed runs per driver. Back-to-back runs of one driver differ by up
/// to 1.5x on a shared host, so each row is a median with its quartiles.
constexpr size_t kReps = 5;

/// Queries/second of one driver over kReps runs.
struct Qps {
  double median;
  double q1;
  double q3;
};

template <typename Fn>
Qps MeasureQps(size_t queries, Fn&& driver) {
  std::vector<double> runs;
  for (size_t r = 0; r < kReps; ++r) {
    Stopwatch watch;
    driver();
    runs.push_back(static_cast<double>(queries) / watch.ElapsedSeconds());
  }
  std::sort(runs.begin(), runs.end());
  return {runs[kReps / 2], runs[kReps / 4], runs[3 * kReps / 4]};
}

/// `"name": {"median": m, "q1": a, "q3": b}` for the JSON report.
std::string QpsJson(const char* name, const Qps& q) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "\"%s\": {\"median\": %.0f, \"q1\": %.0f, \"q3\": %.0f}",
                name, q.median, q.q1, q.q3);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_query_throughput.json";
  std::string query_dist = "uniform";
  double zipf_s = 0.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--query-dist=", 0) == 0) {
      query_dist = arg.substr(13);
      if (query_dist.rfind("zipf:", 0) == 0) {
        zipf_s = std::stod(query_dist.substr(5));
        if (!(zipf_s > 0.0)) {
          std::fprintf(stderr, "zipf exponent must be > 0: %s\n",
                       arg.c_str());
          return 2;
        }
      } else if (query_dist != "uniform") {
        std::fprintf(stderr,
                     "unknown --query-dist (want uniform or zipf:<s>): %s\n",
                     arg.c_str());
        return 2;
      }
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr,
                   "usage: %s [json-path] [--query-dist=uniform|zipf:<s>]\n",
                   argv[0]);
      return 2;
    } else {
      json_path = arg;
    }
  }
  const size_t f = bench::ScaleFactor();

  // Mid-size heavy-tailed graph, matching the bench_micro fixture recipe.
  const size_t scale = 13;
  const size_t edges = 57000 * f;
  const Graph graph = GenerateRmat(scale, edges, 103);
  std::printf("graph: RMAT scale=%zu  n=%zu  m=%zu\n", scale,
              graph.NumVertices(), graph.NumEdges());

  // Build-thread sweep (DESIGN.md §12): the same construction at 1/2/4/8
  // threads under one shared ordering. The sequential row doubles as the
  // index every query driver below uses; every parallel result must be
  // label-identical to it (build_mismatches gates the exit code).
  struct BuildRow {
    unsigned threads;
    double seconds;
    double speedup;
  };
  std::vector<BuildRow> build_sweep;
  size_t build_mismatches = 0;
  const VertexOrdering build_order = BuildOrdering(graph);
  SpcIndex index;
  double build_s = 0.0;
  for (const unsigned bt : {1u, 2u, 4u, 8u}) {
    ParallelBuildOptions build_opts;
    build_opts.threads = bt;
    Stopwatch build_watch;
    SpcIndex built =
        bt == 1
            ? BuildSpcIndex(graph, VertexOrdering(build_order))
            : BuildSpcIndexParallel(graph, VertexOrdering(build_order),
                                    build_opts);
    const double seconds = build_watch.ElapsedSeconds();
    if (bt == 1) {
      build_s = seconds;
      index = std::move(built);
      build_sweep.push_back({bt, seconds, 1.0});
    } else {
      if (!(built == index)) ++build_mismatches;
      build_sweep.push_back({bt, seconds, build_s / seconds});
    }
  }

  Stopwatch snap_watch;
  const FlatSpcIndex flat(index);
  const double snapshot_s = snap_watch.ElapsedSeconds();

  const IndexSizeStats stats = index.SizeStats();
  std::printf(
      "index: %zu entries  wide=%.2f MB  arena=%.2f MB  overflow=%zu  "
      "build=%.2fs  snapshot=%.4fs\n",
      stats.total_entries, stats.wide_bytes / 1048576.0,
      flat.ArenaBytes() / 1048576.0, flat.OverflowEntries(), build_s,
      snapshot_s);

  const size_t queries = 200000 * f;
  Rng rng(7);
  std::vector<VertexPair> pairs(queries);
  if (zipf_s > 0.0) {
    // Skewed endpoints (satellite of DESIGN.md §14's serving story):
    // both sides of every pair drawn Zipf over degree-ranked vertices.
    ZipfVertexSampler zipf(graph, zipf_s);
    for (auto& p : pairs) {
      p.first = zipf.Sample(rng);
      p.second = zipf.Sample(rng);
    }
  } else {
    for (auto& p : pairs) {
      p.first = static_cast<Vertex>(rng.NextBounded(graph.NumVertices()));
      p.second = static_cast<Vertex>(rng.NextBounded(graph.NumVertices()));
    }
  }
  std::printf("query distribution: %s\n", query_dist.c_str());

  // Results accumulate into a sink so the loops cannot be optimized away.
  uint64_t sink = 0;

  // Sanity: every flat driver must agree with SpcIndex::Query on the
  // whole query set. Each driver's output is checked right after it is
  // timed, then overwritten with kUnwritten — a result no query returns —
  // so a slot the next driver leaves unwritten shows as a mismatch.
  std::vector<SpcResult> expected(pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    expected[i] = index.Query(pairs[i].first, pairs[i].second);
  }
  size_t mismatches = 0;
  size_t drivers_checked = 0;
  const SpcResult kUnwritten{0, 0};
  auto check = [&](std::vector<SpcResult>& out) {
    ++drivers_checked;
    for (size_t i = 0; i < pairs.size(); ++i) {
      mismatches += out[i] != expected[i];
    }
    std::fill(out.begin(), out.end(), kUnwritten);
  };
  auto check_single = [&](const FlatSpcIndex& f) {
    ++drivers_checked;
    for (size_t i = 0; i < pairs.size(); ++i) {
      mismatches += f.Query(pairs[i].first, pairs[i].second) != expected[i];
    }
  };

  const Qps legacy_qps = MeasureQps(queries, [&] {
    for (const auto& [s, t] : pairs) {
      const SpcResult r = index.Query(s, t);
      sink += r.dist + r.count;
    }
  });

  const Qps flat_qps = MeasureQps(queries, [&] {
    for (const auto& [s, t] : pairs) {
      const SpcResult r = flat.Query(s, t);
      sink += r.dist + r.count;
    }
  });
  check_single(flat);

  std::vector<SpcResult> batch_out(pairs.size(), kUnwritten);
  const Qps batch_qps = MeasureQps(queries, [&] {
    flat.QueryMany(pairs, batch_out.data());
    sink += batch_out.back().dist;
  });
  check(batch_out);

  // The parallel driver writes into a preallocated buffer: at 1 thread it
  // must match the batched loop instead of paying an allocation per call.
  const unsigned threads =
      std::max(1u, std::thread::hardware_concurrency());
  std::vector<SpcResult> parallel_out(pairs.size(), kUnwritten);
  const Qps parallel_qps = MeasureQps(queries, [&] {
    flat.QueryManyParallel(pairs, parallel_out.data(), threads);
    sink += parallel_out.front().dist;
  });
  check(parallel_out);

  // Shard sweep: the serving layout pays one extra indirection per query
  // endpoint; this row quantifies it per shard count.
  struct ShardRow {
    size_t shards;
    size_t effective;
    Qps flat_qps;
    Qps batch_qps;
    Qps parallel_qps;
  };
  std::vector<ShardRow> sweep;
  for (const size_t shards : {1u, 4u, 16u}) {
    const FlatSpcIndex sharded(index, shards);
    ShardRow row;
    row.shards = shards;
    row.effective = sharded.NumShards();
    row.flat_qps = MeasureQps(queries, [&] {
      for (const auto& [s, t] : pairs) {
        const SpcResult r = sharded.Query(s, t);
        sink += r.dist + r.count;
      }
    });
    check_single(sharded);
    row.batch_qps = MeasureQps(queries, [&] {
      sharded.QueryMany(pairs, batch_out.data());
      sink += batch_out.back().dist;
    });
    check(batch_out);
    row.parallel_qps = MeasureQps(queries, [&] {
      sharded.QueryManyParallel(pairs, parallel_out.data(), threads);
      sink += parallel_out.front().dist;
    });
    check(parallel_out);
    sweep.push_back(row);
  }

  // Serving through the dynamic facade and through the typed SpcService
  // on top of it (the real serving surface, DESIGN.md §9): adopt a copy
  // of the index and run the same batch under background refresh. The
  // facade row prices the epoch-guarded snapshot pin; the service row
  // adds request validation + consistency routing on top — the
  // service-layer overhead budget is <= 2% of the facade row.
  DynamicSpcOptions facade_options;
  facade_options.snapshot.refresh = RefreshPolicy::kBackground;
  SpcService service(graph, index, facade_options);
  const DynamicSpcIndex& dyn = service.engine();
  const Qps facade_qps = MeasureQps(queries, [&] {
    auto results = dyn.BatchQuery(pairs, threads);
    sink += results.front().dist;
  });
  ReadOptions service_read;  // kFresh: served from the warm snapshot
  service_read.threads = threads;
  const Qps service_qps = MeasureQps(queries, [&] {
    auto resp = service.QueryBatch(pairs, service_read);
    sink += resp.ok() ? resp->results.front().dist : 0;
  });
  const double service_overhead_pct =
      (facade_qps.median - service_qps.median) / facade_qps.median * 100.0;

  // Single-query service path (validation + routing per call, no batch
  // amortization) vs the facade's Query.
  const Qps facade_single_qps = MeasureQps(queries, [&] {
    for (const auto& [s, t] : pairs) {
      const SpcResult r = dyn.Query(s, t);
      sink += r.dist + r.count;
    }
  });
  const Qps service_single_qps = MeasureQps(queries, [&] {
    for (const auto& [s, t] : pairs) {
      const auto resp = service.Query(s, t);
      sink += resp.ok() ? resp->result.dist + resp->result.count : 0;
    }
  });

  // Hot-pair cache rows (DESIGN.md §15): snapshot-consistency single
  // reads, cache on vs off, each row on a fresh cached service, answers
  // cross-checked against the raw index. Each row keeps its own pair
  // distribution whatever --query-dist says, so the checked-in JSON
  // always carries both: Zipf-skewed pairs give the hit rate skewed
  // traffic would see. The uniform row prices the miss path: each timed
  // run reads its own slice of kReps * queries pairs, so a pair is seen
  // at most once (replaying one slice would let a 65536-entry cache hold
  // a third of a 200k-pair set between runs).
  const double cache_zipf_s = zipf_s > 0.0 ? zipf_s : 1.1;
  std::vector<VertexPair> zipf_pairs(queries);
  {
    ZipfVertexSampler zipf(graph, cache_zipf_s);
    Rng zipf_rng(11);
    for (auto& p : zipf_pairs) {
      p.first = zipf.Sample(zipf_rng);
      p.second = zipf.Sample(zipf_rng);
    }
  }
  std::vector<VertexPair> uniform_pairs(kReps * queries);
  {
    Rng uniform_rng(13);
    for (auto& p : uniform_pairs) {
      p.first =
          static_cast<Vertex>(uniform_rng.NextBounded(graph.NumVertices()));
      p.second =
          static_cast<Vertex>(uniform_rng.NextBounded(graph.NumVertices()));
    }
  }
  DynamicSpcOptions cached_options = facade_options;
  cached_options.pair_cache.enabled = true;
  cached_options.pair_cache.capacity = 1 << 16;
  ReadOptions snap_read;
  snap_read.consistency = Consistency::kSnapshot;
  struct CacheRow {
    Qps off;
    Qps on;
    MetricsSnapshot metrics;
    double hit_rate;
    size_t mismatches;
  };
  // Timed run r reads slice r (mod the slice count) of `cache_pairs`.
  auto measure_cache = [&](const std::vector<VertexPair>& cache_pairs) {
    CacheRow row{};
    SpcService cached_service(graph, index, cached_options);
    for (size_t i = 0; i < cache_pairs.size(); i += 97) {
      const auto [s, t] = cache_pairs[i];
      const auto resp = cached_service.Query(s, t, snap_read);
      if (!resp.ok() || !(resp->result == index.Query(s, t))) {
        ++row.mismatches;
      }
    }
    const size_t slices = cache_pairs.size() / queries;
    auto timed = [&](const SpcService& svc) {
      size_t run = 0;
      return MeasureQps(queries, [&] {
        const size_t base = (run++ % slices) * queries;
        for (size_t i = base; i < base + queries; ++i) {
          const auto [s, t] = cache_pairs[i];
          const auto resp = svc.Query(s, t, snap_read);
          sink += resp.ok() ? resp->result.dist + resp->result.count : 0;
        }
      });
    };
    row.off = timed(service);
    row.on = timed(cached_service);
    row.metrics = cached_service.Metrics();
    const uint64_t lookups =
        row.metrics.pair_cache_hits + row.metrics.pair_cache_misses;
    row.hit_rate = lookups != 0
                       ? static_cast<double>(row.metrics.pair_cache_hits) /
                             static_cast<double>(lookups)
                       : 0.0;
    return row;
  };
  const CacheRow zipf_cache = measure_cache(zipf_pairs);
  const CacheRow uniform_cache = measure_cache(uniform_pairs);
  const size_t cache_mismatches =
      zipf_cache.mismatches + uniform_cache.mismatches;

  // Each row: median queries/s, its speedup over the legacy median, and
  // the quartiles of the kReps runs.
  const double legacy = legacy_qps.median;
  auto print_row = [&](const char* label, const Qps& q, const char* note) {
    std::printf("%-22s %14.0f %9.2fx  [%.0f, %.0f]%s\n", label, q.median,
                q.median / legacy, q.q1, q.q3, note);
  };
  std::printf("\n%-22s %14s %10s  %s\n", "driver", "queries/s", "speedup",
              "[q1, q3]");
  bench::PrintRule(5);
  print_row("legacy SpcIndex", legacy_qps, "");
  print_row("flat arena", flat_qps, "");
  print_row("flat batched", batch_qps, "");
  const std::string parallel_note =
      "  (" + std::to_string(threads) + " threads)";
  print_row("flat batched parallel", parallel_qps, parallel_note.c_str());
  print_row("dynamic facade batch", facade_qps, "  (snapshot pin)");
  char note[64];
  std::snprintf(note, sizeof(note), "  (overhead %.2f%%)",
                service_overhead_pct);
  print_row("SpcService batch", service_qps, note);
  print_row("dynamic facade single", facade_single_qps, "");
  std::snprintf(note, sizeof(note), "  (overhead %.2f%%)",
                (facade_single_qps.median - service_single_qps.median) /
                    facade_single_qps.median * 100.0);
  print_row("SpcService single", service_single_qps, note);
  for (const ShardRow& row : sweep) {
    std::printf("%-16s (%2zu) %14.0f %9.2fx  (batch %.0f, parallel %.0f)\n",
                "sharded arena", row.shards, row.flat_qps.median,
                row.flat_qps.median / legacy, row.batch_qps.median,
                row.parallel_qps.median);
  }

  auto print_cache = [](const char* title, const CacheRow& row) {
    std::printf("\n%-22s %14s %10s\n", title, "queries/s", "speedup");
    bench::PrintRule(4);
    std::printf("%-22s %14.0f %9.2fx  [%.0f, %.0f]\n",
                "service single (off)", row.off.median, 1.0, row.off.q1,
                row.off.q3);
    std::printf(
        "%-22s %14.0f %9.2fx  [%.0f, %.0f]  (hit rate %.1f%%, insertions "
        "%llu, evictions %llu)\n",
        "service single (on)", row.on.median, row.on.median / row.off.median,
        row.on.q1, row.on.q3, 100.0 * row.hit_rate,
        static_cast<unsigned long long>(row.metrics.pair_cache_insertions),
        static_cast<unsigned long long>(row.metrics.pair_cache_evictions));
  };
  print_cache("pair cache (zipf)", zipf_cache);
  print_cache("pair cache (uniform)", uniform_cache);
  const unsigned hardware_threads = std::thread::hardware_concurrency();
  std::printf("\n%-22s %14s %10s\n", "build threads", "seconds", "speedup");
  bench::PrintRule(4);
  for (const BuildRow& row : build_sweep) {
    std::printf("%-22u %14.4f %9.2fx\n", row.threads, row.seconds,
                row.speedup);
  }
  std::printf("(hardware threads: %u; parallel builds label-identical: %s)\n",
              hardware_threads, build_mismatches == 0 ? "yes" : "NO");

  std::printf("\nequivalence: %zu mismatches on %zu queries x %zu drivers, "
              "%zu cached-read mismatches (sink %llu)\n",
              mismatches, queries, drivers_checked, cache_mismatches,
              static_cast<unsigned long long>(sink));

  // The SLO counter surface the service accumulated over the runs above
  // (per-mode counts, served-from split, staleness, batch sizes) — the
  // exposition an operator would scrape (DESIGN.md §10).
  std::printf("\n%s", service.Metrics().PrometheusText().c_str());

  std::FILE* json = std::fopen(json_path.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(json,
               "{\n"
               "  \"bench\": \"query_throughput\",\n"
               "  \"graph\": {\"generator\": \"rmat\", \"scale\": %zu, "
               "\"vertices\": %zu, \"edges\": %zu},\n"
               "  \"index\": {\"entries\": %zu, \"wide_bytes\": %zu, "
               "\"arena_bytes\": %zu, \"overflow_entries\": %zu,\n"
               "            \"build_seconds\": %.4f, "
               "\"snapshot_seconds\": %.6f},\n"
               "  \"queries\": %zu,\n"
               "  \"query_dist\": \"%s\",\n"
               "  \"zipf_s\": %.3f,\n"
               "  \"threads\": %u,\n"
               "  \"reps\": %zu,\n"
               "  %s,\n"
               "  %s,\n"
               "  %s,\n"
               "  %s,\n"
               "  %s,\n"
               "  %s,\n"
               "  \"service_batch_overhead_pct\": %.3f,\n"
               "  %s,\n"
               "  %s,\n"
               "  \"flat_speedup\": %.3f,\n"
               "  \"flat_batch_speedup\": %.3f,\n"
               "  \"flat_parallel_speedup\": %.3f,\n"
               "  \"facade_batch_speedup\": %.3f,\n"
               "  \"mismatches\": %zu,\n"
               "  \"build_mismatches\": %zu,\n"
               "  \"hardware_threads\": %u,\n"
               "  \"cpu_flags\": \"%s\",\n"
               "  \"build_thread_sweep\": [\n",
               scale, graph.NumVertices(), graph.NumEdges(),
               stats.total_entries, stats.wide_bytes, flat.ArenaBytes(),
               flat.OverflowEntries(), build_s, snapshot_s, queries,
               query_dist.c_str(), zipf_s, threads, kReps,
               QpsJson("legacy_qps", legacy_qps).c_str(),
               QpsJson("flat_qps", flat_qps).c_str(),
               QpsJson("flat_batch_qps", batch_qps).c_str(),
               QpsJson("flat_parallel_qps", parallel_qps).c_str(),
               QpsJson("facade_batch_qps", facade_qps).c_str(),
               QpsJson("service_batch_qps", service_qps).c_str(),
               service_overhead_pct,
               QpsJson("facade_single_qps", facade_single_qps).c_str(),
               QpsJson("service_single_qps", service_single_qps).c_str(),
               flat_qps.median / legacy, batch_qps.median / legacy,
               parallel_qps.median / legacy, facade_qps.median / legacy,
               mismatches, build_mismatches, hardware_threads,
               bench::CpuFlags().c_str());
  for (size_t i = 0; i < build_sweep.size(); ++i) {
    const BuildRow& row = build_sweep[i];
    std::fprintf(json,
                 "    %s{\"threads\": %u, \"build_seconds\": %.4f, "
                 "\"speedup\": %.3f}\n",
                 i == 0 ? "" : ",", row.threads, row.seconds, row.speedup);
  }
  std::fprintf(json,
               "  ],\n"
               "  \"shard_sweep\": [\n");
  for (size_t i = 0; i < sweep.size(); ++i) {
    const ShardRow& row = sweep[i];
    std::fprintf(json,
                 "    %s{\"shards\": %zu, \"effective_shards\": %zu,\n"
                 "      %s,\n      %s,\n      %s}\n",
                 i == 0 ? "" : ",", row.shards, row.effective,
                 QpsJson("flat_qps", row.flat_qps).c_str(),
                 QpsJson("batch_qps", row.batch_qps).c_str(),
                 QpsJson("parallel_qps", row.parallel_qps).c_str());
  }
  // `"name": {...}` for one cache row; the Zipf row also names its
  // exponent.
  auto cache_json = [&](const char* name, const char* extra,
                        const CacheRow& row) {
    std::fprintf(
        json,
        "  \"%s\": {%s\"capacity\": %zu, \"hits\": %llu, "
        "\"misses\": %llu, \"hit_rate\": %.4f,\n"
        "                 \"insertions\": %llu, \"evictions\": %llu,\n"
        "                 %s,\n"
        "                 %s,\n"
        "                 \"speedup\": %.3f, \"mismatches\": %zu}",
        name, extra, static_cast<size_t>(cached_options.pair_cache.capacity),
        static_cast<unsigned long long>(row.metrics.pair_cache_hits),
        static_cast<unsigned long long>(row.metrics.pair_cache_misses),
        row.hit_rate,
        static_cast<unsigned long long>(row.metrics.pair_cache_insertions),
        static_cast<unsigned long long>(row.metrics.pair_cache_evictions),
        QpsJson("cached_single_qps", row.on).c_str(),
        QpsJson("uncached_single_qps", row.off).c_str(),
        row.on.median / row.off.median, row.mismatches);
  };
  char zipf_field[48];
  std::snprintf(zipf_field, sizeof(zipf_field), "\"zipf_s\": %.3f, ",
                cache_zipf_s);
  std::fprintf(json, "  ],\n");
  cache_json("pair_cache", zipf_field, zipf_cache);
  std::fprintf(json, ",\n");
  cache_json("pair_cache_uniform", "", uniform_cache);
  std::fprintf(json, "\n}\n");
  std::fclose(json);
  std::printf("wrote %s\n", json_path.c_str());
  return mismatches == 0 && build_mismatches == 0 && cache_mismatches == 0
             ? 0
             : 1;
}
