// Micro benchmarks (google-benchmark): query latency of SpcQUERY (legacy
// merge-scan vs the FlatSpcIndex packed arena, single / batched /
// batched-parallel) vs the online baselines, HP-SPC build throughput,
// flat-snapshot construction, the snapshot pin of a served read, and
// single-update latency. Complements the table/figure harnesses with
// statistically-stable per-operation numbers on one mid-size dataset.
// Run with
//   --benchmark_out=BENCH_micro.json --benchmark_out_format=json
// for machine-readable output; bench_query_throughput emits the curated
// legacy-vs-flat JSON comparison.

#include <benchmark/benchmark.h>

#include <utility>
#include <vector>

#include "bench_util.h"
#include "dspc/baseline/bfs_counting.h"
#include "dspc/baseline/bibfs_counting.h"
#include "dspc/common/rng.h"
#include "dspc/core/dynamic_spc.h"
#include "dspc/core/flat_spc_index.h"
#include "dspc/core/hp_spc.h"
#include "dspc/graph/generators.h"
#include "dspc/graph/update_stream.h"

namespace {

using namespace dspc;

/// One shared mid-size graph + index (legacy and flat) for the query
/// benchmarks.
struct QueryFixture {
  QueryFixture()
      : graph(GenerateRmat(13, 57000, 103)),
        index(BuildSpcIndex(graph)),
        flat(index) {}

  /// A fixed random query workload over the fixture graph.
  std::vector<VertexPair> MakePairs(size_t count) const {
    Rng rng(1);
    std::vector<VertexPair> pairs(count);
    for (auto& p : pairs) {
      p.first = static_cast<Vertex>(rng.NextBounded(graph.NumVertices()));
      p.second = static_cast<Vertex>(rng.NextBounded(graph.NumVertices()));
    }
    return pairs;
  }

  Graph graph;
  SpcIndex index;
  FlatSpcIndex flat;
};

QueryFixture& Fixture() {
  static QueryFixture fixture;
  return fixture;
}

void BM_SpcQuery(benchmark::State& state) {
  const QueryFixture& f = Fixture();
  Rng rng(1);
  const size_t n = f.graph.NumVertices();
  for (auto _ : state) {
    const auto s = static_cast<Vertex>(rng.NextBounded(n));
    const auto t = static_cast<Vertex>(rng.NextBounded(n));
    benchmark::DoNotOptimize(f.index.Query(s, t));
  }
}
BENCHMARK(BM_SpcQuery);

void BM_FlatQuery(benchmark::State& state) {
  const QueryFixture& f = Fixture();
  Rng rng(1);
  const size_t n = f.graph.NumVertices();
  for (auto _ : state) {
    const auto s = static_cast<Vertex>(rng.NextBounded(n));
    const auto t = static_cast<Vertex>(rng.NextBounded(n));
    benchmark::DoNotOptimize(f.flat.Query(s, t));
  }
}
BENCHMARK(BM_FlatQuery);

void BM_FlatQueryBatch(benchmark::State& state) {
  const QueryFixture& f = Fixture();
  const std::vector<VertexPair> pairs = f.MakePairs(4096);
  std::vector<SpcResult> out(pairs.size());
  for (auto _ : state) {
    f.flat.QueryMany(pairs, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(pairs.size()));
}
BENCHMARK(BM_FlatQueryBatch);

void BM_FlatQueryBatchParallel(benchmark::State& state) {
  const QueryFixture& f = Fixture();
  const std::vector<VertexPair> pairs = f.MakePairs(65536);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.flat.QueryManyParallel(pairs));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(pairs.size()));
}
BENCHMARK(BM_FlatQueryBatchParallel)->Unit(benchmark::kMillisecond);

void BM_FlatSnapshotBuild(benchmark::State& state) {
  const QueryFixture& f = Fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(FlatSpcIndex(f.index));
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations()) *
      static_cast<int64_t>(f.index.SizeStats().total_entries));
}
BENCHMARK(BM_FlatSnapshotBuild)->Unit(benchmark::kMillisecond);

// The snapshot pin a served read takes before it queries: Acquire on a
// current snapshot (one atomic load plus the pin's refcount traffic).
void BM_SnapshotAcquire(benchmark::State& state) {
  const QueryFixture& f = Fixture();
  const DynamicSpcIndex dyn(f.graph, f.index);
  for (auto _ : state) {
    const SnapshotManager::Pinned pin = dyn.AcquireSnapshot(1);
    benchmark::DoNotOptimize(pin.snapshot.get());
  }
}
BENCHMARK(BM_SnapshotAcquire);

void BM_BiBfsQuery(benchmark::State& state) {
  const QueryFixture& f = Fixture();
  BiBfsCounter counter(f.graph);
  Rng rng(1);
  const size_t n = f.graph.NumVertices();
  for (auto _ : state) {
    const auto s = static_cast<Vertex>(rng.NextBounded(n));
    const auto t = static_cast<Vertex>(rng.NextBounded(n));
    benchmark::DoNotOptimize(counter.Query(s, t));
  }
}
BENCHMARK(BM_BiBfsQuery);

void BM_BfsPairQuery(benchmark::State& state) {
  const QueryFixture& f = Fixture();
  Rng rng(1);
  const size_t n = f.graph.NumVertices();
  for (auto _ : state) {
    const auto s = static_cast<Vertex>(rng.NextBounded(n));
    const auto t = static_cast<Vertex>(rng.NextBounded(n));
    benchmark::DoNotOptimize(BfsCountPair(f.graph, s, t));
  }
}
BENCHMARK(BM_BfsPairQuery)->Iterations(50);

void BM_HpSpcBuild(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  const Graph g = GenerateBarabasiAlbert(n, 2, 9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildSpcIndex(g));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(g.NumEdges()));
}
BENCHMARK(BM_HpSpcBuild)->Arg(1000)->Arg(4000)->Arg(16000)
    ->Unit(benchmark::kMillisecond);

void BM_IncSpcInsert(benchmark::State& state) {
  const QueryFixture& f = Fixture();
  DynamicSpcIndex dyn(f.graph, f.index);
  const std::vector<Edge> pool = SampleNonEdges(f.graph, 4096, 11);
  size_t i = 0;
  for (auto _ : state) {
    const Edge& e = pool[i++ % pool.size()];
    // Alternate insert/delete of the same fresh edge keeps the graph
    // stable while exercising IncSPC every iteration; pause the timer for
    // the compensating deletion.
    benchmark::DoNotOptimize(dyn.InsertEdge(e.u, e.v));
    state.PauseTiming();
    dyn.RemoveEdge(e.u, e.v);
    state.ResumeTiming();
  }
}
BENCHMARK(BM_IncSpcInsert)->Iterations(30)->Unit(benchmark::kMillisecond);

void BM_DecSpcRemove(benchmark::State& state) {
  const QueryFixture& f = Fixture();
  DynamicSpcIndex dyn(f.graph, f.index);
  const std::vector<Edge> pool = SampleEdges(f.graph, 4096, 12);
  size_t i = 0;
  for (auto _ : state) {
    const Edge& e = pool[i++ % pool.size()];
    benchmark::DoNotOptimize(dyn.RemoveEdge(e.u, e.v));
    state.PauseTiming();
    dyn.InsertEdge(e.u, e.v);
    state.ResumeTiming();
  }
}
BENCHMARK(BM_DecSpcRemove)->Iterations(10)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
