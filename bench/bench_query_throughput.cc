// Query-throughput shoot-out: legacy SpcIndex::Query vs the FlatSpcIndex
// packed arena, its batched driver, and the thread-parallel batch driver —
// all on the same graph and the same query set — plus a shard-count sweep
// (1/4/16 vertex-range shards) quantifying what the sharded serving
// layout costs the query path, and facade-vs-SpcService rows pricing the
// typed serving API (validation + consistency routing, DESIGN.md §9)
// against direct facade calls. Two performance-layer sweeps ride along
// (DESIGN.md §15): a merge-kernel tier sweep (scalar / AVX2, each
// forced explicitly, on full queries and on a synthetic tail-only
// intersection) and a hot-pair-cache row measured under Zipf-skewed
// pairs regardless of --query-dist, so the checked-in JSON always
// carries the cache hit rate skewed traffic would see. Emits a human
// table on stdout and machine-readable JSON (BENCH_query_throughput.json,
// override with argv[1]) for the repo's benchmark trajectory.

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
#include "dspc/core/merge_kernel.h"
#include "dspc/core/parallel_build.h"
#include "dspc/graph/generators.h"
#include "dspc/graph/zipf_sampler.h"

namespace {

using namespace dspc;

/// Best-of-`reps` queries/second for one driver.
template <typename Fn>
double MeasureQps(size_t queries, int reps, Fn&& driver) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    Stopwatch watch;
    driver();
    const double qps = static_cast<double>(queries) / watch.ElapsedSeconds();
    if (qps > best) best = qps;
  }
  return best;
}

// ZipfVertexSampler moved to dspc/graph/zipf_sampler.h (PR 10) so its
// inverse CDF is unit-tested instead of shipping untested in a bench.

/// Synthetic tail-only intersection workload for the per-tier merge
/// kernels: two packed word ranges shaped like the low-rank tail the
/// dense directory does NOT absorb (hubs >= 512), with a controlled
/// overlap. Isolates the kernel the tier sweep is about — full queries
/// dilute it behind the bitmap-AND dense part.
struct TailWorkload {
  std::vector<uint64_t> a;
  std::vector<uint64_t> b;

  TailWorkload(size_t per_side, double overlap, Rng& rng) {
    std::vector<Rank> hubs_a;
    std::vector<Rank> hubs_b;
    Rank hub = 512;
    for (size_t i = 0; i < per_side; ++i) {
      hub += 1 + static_cast<Rank>(rng.NextBounded(7));
      hubs_a.push_back(hub);
      if (rng.NextDouble() < overlap) {
        hubs_b.push_back(hub);
      } else {
        // Non-matching b hubs land either just past the a hub or far
        // away (bimodal), so the kernel sees both dense interleaving
        // and window-skip stretches. The +1 keeps them non-matching.
        hubs_b.push_back(hub + 1u +
                         (rng.NextBounded(2) != 0 ? 1u : 0u) * 4096u);
      }
    }
    std::sort(hubs_b.begin(), hubs_b.end());
    hubs_b.erase(std::unique(hubs_b.begin(), hubs_b.end()), hubs_b.end());
    for (const Rank h : hubs_a) {
      a.push_back(PackLabel(h, 1 + h % 6, 1 + h % 9));
    }
    for (const Rank h : hubs_b) {
      b.push_back(PackLabel(h, 1 + h % 5, 1 + h % 7));
    }
  }
};

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
  const int reps = 3;

  const double legacy_qps = MeasureQps(queries, reps, [&] {
    for (const auto& [s, t] : pairs) {
      const SpcResult r = index.Query(s, t);
      sink += r.dist + r.count;
    }
  });

  const double flat_qps = MeasureQps(queries, reps, [&] {
    for (const auto& [s, t] : pairs) {
      const SpcResult r = flat.Query(s, t);
      sink += r.dist + r.count;
    }
  });

  // Merge-kernel tier sweep (DESIGN.md §15): every tier forced
  // explicitly — not just whatever the host dispatches — on (a) the full
  // flat single-query driver and (b) a synthetic tail-only intersection
  // that isolates the kernel from the dense bitmap part. Unsupported
  // tiers (AVX2 on older hosts) report supported=false and no numbers.
  struct KernelRow {
    MergeKernelTier tier;
    bool supported;
    double flat_qps;
    double tail_merges_per_sec;
  };
  std::vector<KernelRow> kernel_sweep;
  {
    Rng tail_rng(19);
    const TailWorkload tail(192, 0.25, tail_rng);
    const size_t tail_reps = 200000 * f;
    for (const MergeKernelTier tier :
         {MergeKernelTier::kScalar, MergeKernelTier::kAvx2}) {
      KernelRow row{tier, false, 0.0, 0.0};
      if (MergeKernelTierSupported(tier) && SetMergeKernelTier(tier)) {
        row.supported = true;
        row.flat_qps = MeasureQps(queries, reps, [&] {
          for (const auto& [s, t] : pairs) {
            const SpcResult r = flat.Query(s, t);
            sink += r.dist + r.count;
          }
        });
        const PackedMergeFn kernel = PackedMergeForTier(tier);
        row.tail_merges_per_sec = MeasureQps(tail_reps, reps, [&] {
          for (size_t i = 0; i < tail_reps; ++i) {
            SpcResult r;
            kernel(tail.a.data(), tail.a.data() + tail.a.size(), nullptr,
                   tail.b.data(), tail.b.data() + tail.b.size(), nullptr,
                   &r);
            sink += r.dist + r.count;
          }
        });
      }
      kernel_sweep.push_back(row);
    }
    ResetMergeKernelTier();  // headline rows ran at the auto tier
  }

  std::vector<SpcResult> batch_out(pairs.size());
  const double batch_qps = MeasureQps(queries, reps, [&] {
    flat.QueryMany(pairs, batch_out.data());
    sink += batch_out.back().dist;
  });

  // The parallel driver writes into a preallocated buffer: at 1 thread it
  // must match the batched loop instead of paying an allocation per call.
  const unsigned threads =
      std::max(1u, std::thread::hardware_concurrency());
  std::vector<SpcResult> parallel_out(pairs.size());
  const double parallel_qps = MeasureQps(queries, reps, [&] {
    flat.QueryManyParallel(pairs, parallel_out.data(), threads);
    sink += parallel_out.front().dist;
  });

  // Shard sweep: the serving layout pays one extra indirection per query
  // endpoint; this row quantifies it per shard count.
  struct ShardRow {
    size_t shards;
    size_t effective;
    double flat_qps;
    double batch_qps;
    double parallel_qps;
  };
  std::vector<ShardRow> sweep;
  for (const size_t shards : {1u, 4u, 16u}) {
    const FlatSpcIndex sharded(index, shards);
    ShardRow row;
    row.shards = shards;
    row.effective = sharded.NumShards();
    row.flat_qps = MeasureQps(queries, reps, [&] {
      for (const auto& [s, t] : pairs) {
        const SpcResult r = sharded.Query(s, t);
        sink += r.dist + r.count;
      }
    });
    row.batch_qps = MeasureQps(queries, reps, [&] {
      sharded.QueryMany(pairs, batch_out.data());
      sink += batch_out.back().dist;
    });
    row.parallel_qps = MeasureQps(queries, reps, [&] {
      sharded.QueryManyParallel(pairs, parallel_out.data(), threads);
      sink += parallel_out.front().dist;
    });
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
  const double facade_qps = MeasureQps(queries, reps, [&] {
    auto results = dyn.BatchQuery(pairs, threads);
    sink += results.front().dist;
  });
  ReadOptions service_read;  // kFresh: served from the warm snapshot
  service_read.threads = threads;
  const double service_qps = MeasureQps(queries, reps, [&] {
    auto resp = service.QueryBatch(pairs, service_read);
    sink += resp.ok() ? resp->results.front().dist : 0;
  });
  const double service_overhead_pct =
      facade_qps > 0.0 ? (facade_qps - service_qps) / facade_qps * 100.0
                       : 0.0;

  // Single-query service path (validation + routing per call, no batch
  // amortization) vs the facade's Query.
  const double facade_single_qps = MeasureQps(queries, reps, [&] {
    for (const auto& [s, t] : pairs) {
      const SpcResult r = dyn.Query(s, t);
      sink += r.dist + r.count;
    }
  });
  const double service_single_qps = MeasureQps(queries, reps, [&] {
    for (const auto& [s, t] : pairs) {
      const auto resp = service.Query(s, t);
      sink += resp.ok() ? resp->result.dist + resp->result.count : 0;
    }
  });

  // Hot-pair cache row (DESIGN.md §15): always measured under
  // Zipf-skewed pairs — even when the headline rows ran uniform — so the
  // checked-in JSON carries the hit rate skewed production traffic would
  // see. Snapshot-consistency single reads, cache on vs off, answers
  // cross-checked against the raw index.
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
  DynamicSpcOptions cached_options = facade_options;
  cached_options.pair_cache.enabled = true;
  cached_options.pair_cache.capacity = 1 << 16;
  SpcService cached_service(graph, index, cached_options);
  ReadOptions snap_read;
  snap_read.consistency = Consistency::kSnapshot;
  size_t cache_mismatches = 0;
  for (size_t i = 0; i < zipf_pairs.size(); i += 97) {
    const auto resp =
        cached_service.Query(zipf_pairs[i].first, zipf_pairs[i].second,
                             snap_read);
    if (!resp.ok() ||
        !(resp->result ==
          index.Query(zipf_pairs[i].first, zipf_pairs[i].second))) {
      ++cache_mismatches;
    }
  }
  const double uncached_single_qps = MeasureQps(queries, reps, [&] {
    for (const auto& [s, t] : zipf_pairs) {
      const auto resp = service.Query(s, t, snap_read);
      sink += resp.ok() ? resp->result.dist + resp->result.count : 0;
    }
  });
  const double cached_single_qps = MeasureQps(queries, reps, [&] {
    for (const auto& [s, t] : zipf_pairs) {
      const auto resp = cached_service.Query(s, t, snap_read);
      sink += resp.ok() ? resp->result.dist + resp->result.count : 0;
    }
  });
  const MetricsSnapshot cache_metrics = cached_service.Metrics();
  const uint64_t cache_lookups =
      cache_metrics.pair_cache_hits + cache_metrics.pair_cache_misses;
  const double cache_hit_rate =
      cache_lookups != 0 ? static_cast<double>(cache_metrics.pair_cache_hits) /
                               static_cast<double>(cache_lookups)
                         : 0.0;

  // Sanity: the drivers must agree on the whole query set.
  size_t mismatches = 0;
  for (size_t i = 0; i < pairs.size(); ++i) {
    if (batch_out[i] != index.Query(pairs[i].first, pairs[i].second)) {
      ++mismatches;
    }
  }

  std::printf("\n%-22s %14s %10s\n", "driver", "queries/s", "speedup");
  bench::PrintRule(4);
  std::printf("%-22s %14.0f %9.2fx\n", "legacy SpcIndex", legacy_qps, 1.0);
  std::printf("%-22s %14.0f %9.2fx\n", "flat arena", flat_qps,
              flat_qps / legacy_qps);
  std::printf("%-22s %14.0f %9.2fx\n", "flat batched", batch_qps,
              batch_qps / legacy_qps);
  std::printf("%-22s %14.0f %9.2fx  (%u threads)\n", "flat batched parallel",
              parallel_qps, parallel_qps / legacy_qps, threads);
  std::printf("%-22s %14.0f %9.2fx  (snapshot pin)\n", "dynamic facade batch",
              facade_qps, facade_qps / legacy_qps);
  std::printf("%-22s %14.0f %9.2fx  (overhead %.2f%%)\n", "SpcService batch",
              service_qps, service_qps / legacy_qps, service_overhead_pct);
  std::printf("%-22s %14.0f %9.2fx\n", "dynamic facade single",
              facade_single_qps, facade_single_qps / legacy_qps);
  std::printf("%-22s %14.0f %9.2fx  (overhead %.2f%%)\n", "SpcService single",
              service_single_qps, service_single_qps / legacy_qps,
              facade_single_qps > 0.0
                  ? (facade_single_qps - service_single_qps) /
                        facade_single_qps * 100.0
                  : 0.0);
  for (const ShardRow& row : sweep) {
    std::printf("%-16s (%2zu) %14.0f %9.2fx  (batch %.0f, parallel %.0f)\n",
                "sharded arena", row.shards, row.flat_qps,
                row.flat_qps / legacy_qps, row.batch_qps, row.parallel_qps);
  }

  const double scalar_tail = kernel_sweep[0].tail_merges_per_sec;
  const double scalar_flat = kernel_sweep[0].flat_qps;
  std::printf("\n%-22s %14s %10s %14s %10s\n", "merge kernel",
              "queries/s", "speedup", "tail merges/s", "speedup");
  bench::PrintRule(5);
  for (const KernelRow& row : kernel_sweep) {
    if (!row.supported) {
      std::printf("%-22s %14s\n", MergeKernelTierName(row.tier),
                  "(unsupported)");
      continue;
    }
    std::printf("%-22s %14.0f %9.2fx %14.0f %9.2fx\n",
                MergeKernelTierName(row.tier), row.flat_qps,
                scalar_flat > 0.0 ? row.flat_qps / scalar_flat : 0.0,
                row.tail_merges_per_sec,
                scalar_tail > 0.0 ? row.tail_merges_per_sec / scalar_tail
                                  : 0.0);
  }
  std::printf("(active tier: %s)\n",
              MergeKernelTierName(ActiveMergeKernelTier()));

  std::printf("\n%-22s %14s %10s\n", "pair cache (zipf)", "queries/s",
              "speedup");
  bench::PrintRule(4);
  std::printf("%-22s %14.0f %9.2fx\n", "service single (off)",
              uncached_single_qps, 1.0);
  std::printf("%-22s %14.0f %9.2fx  (hit rate %.1f%%, evictions %llu)\n",
              "service single (on)", cached_single_qps,
              uncached_single_qps > 0.0
                  ? cached_single_qps / uncached_single_qps
                  : 0.0,
              100.0 * cache_hit_rate,
              static_cast<unsigned long long>(
                  cache_metrics.pair_cache_evictions));
  const unsigned hardware_threads = std::thread::hardware_concurrency();
  std::printf("\n%-22s %14s %10s\n", "build threads", "seconds", "speedup");
  bench::PrintRule(4);
  for (const BuildRow& row : build_sweep) {
    std::printf("%-22u %14.4f %9.2fx\n", row.threads, row.seconds,
                row.speedup);
  }
  std::printf("(hardware threads: %u; parallel builds label-identical: %s)\n",
              hardware_threads, build_mismatches == 0 ? "yes" : "NO");

  std::printf("\nequivalence: %zu mismatches on %zu queries, %zu cached-read "
              "mismatches (sink %llu)\n",
              mismatches, queries, cache_mismatches,
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
               "  \"legacy_qps\": %.0f,\n"
               "  \"flat_qps\": %.0f,\n"
               "  \"flat_batch_qps\": %.0f,\n"
               "  \"flat_parallel_qps\": %.0f,\n"
               "  \"facade_batch_qps\": %.0f,\n"
               "  \"service_batch_qps\": %.0f,\n"
               "  \"service_batch_overhead_pct\": %.3f,\n"
               "  \"facade_single_qps\": %.0f,\n"
               "  \"service_single_qps\": %.0f,\n"
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
               query_dist.c_str(), zipf_s, threads,
               legacy_qps, flat_qps, batch_qps, parallel_qps, facade_qps,
               service_qps, service_overhead_pct, facade_single_qps,
               service_single_qps, flat_qps / legacy_qps,
               batch_qps / legacy_qps, parallel_qps / legacy_qps,
               facade_qps / legacy_qps, mismatches, build_mismatches,
               hardware_threads, bench::CpuFlags().c_str());
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
                 "    %s{\"shards\": %zu, \"effective_shards\": %zu, "
                 "\"flat_qps\": %.0f, \"batch_qps\": %.0f, "
                 "\"parallel_qps\": %.0f}\n",
                 i == 0 ? "" : ",", row.shards, row.effective, row.flat_qps,
                 row.batch_qps, row.parallel_qps);
  }
  std::fprintf(json,
               "  ],\n"
               "  \"kernel_tier_sweep\": [\n");
  for (size_t i = 0; i < kernel_sweep.size(); ++i) {
    const KernelRow& row = kernel_sweep[i];
    std::fprintf(
        json,
        "    %s{\"tier\": \"%s\", \"supported\": %s, \"flat_qps\": %.0f, "
        "\"tail_merges_per_sec\": %.0f, \"tail_speedup_vs_scalar\": %.3f}\n",
        i == 0 ? "" : ",", MergeKernelTierName(row.tier),
        row.supported ? "true" : "false", row.flat_qps,
        row.tail_merges_per_sec,
        row.supported && scalar_tail > 0.0
            ? row.tail_merges_per_sec / scalar_tail
            : 0.0);
  }
  std::fprintf(
      json,
      "  ],\n"
      "  \"pair_cache\": {\"zipf_s\": %.3f, \"capacity\": %zu, "
      "\"hits\": %llu, \"misses\": %llu, \"hit_rate\": %.4f,\n"
      "                 \"insertions\": %llu, \"evictions\": %llu, "
      "\"cached_single_qps\": %.0f, \"uncached_single_qps\": %.0f,\n"
      "                 \"speedup\": %.3f, \"mismatches\": %zu}\n"
      "}\n",
      cache_zipf_s, static_cast<size_t>(cached_options.pair_cache.capacity),
      static_cast<unsigned long long>(cache_metrics.pair_cache_hits),
      static_cast<unsigned long long>(cache_metrics.pair_cache_misses),
      cache_hit_rate,
      static_cast<unsigned long long>(cache_metrics.pair_cache_insertions),
      static_cast<unsigned long long>(cache_metrics.pair_cache_evictions),
      cached_single_qps, uncached_single_qps,
      uncached_single_qps > 0.0 ? cached_single_qps / uncached_single_qps
                                : 0.0,
      cache_mismatches);
  std::fclose(json);
  std::printf("wrote %s\n", json_path.c_str());
  return mismatches == 0 && build_mismatches == 0 && cache_mismatches == 0
             ? 0
             : 1;
}
