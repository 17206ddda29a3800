// Stress and failure-injection tests: larger graphs with spot-checked
// queries (all-pairs would be too slow), long mixed streams, a
// mid-stream index image round trip, and scratch-reuse hygiene across
// many updates.

#include <gtest/gtest.h>

#include <string>

#include "dspc/baseline/bfs_counting.h"
#include "dspc/common/rng.h"
#include "dspc/core/dynamic_spc.h"
#include "dspc/core/flat_spc_index.h"
#include "dspc/core/hp_spc.h"
#include "dspc/graph/generators.h"
#include "dspc/graph/update_stream.h"
#include "test_util.h"

namespace dspc {
namespace {

/// Spot-checks `samples` random pairs against BFS (per-source BFS reuse).
void SpotCheck(const Graph& g, const DynamicSpcIndex& dyn, size_t samples,
               uint64_t seed) {
  Rng rng(seed);
  for (size_t i = 0; i < samples; ++i) {
    const auto s = static_cast<Vertex>(rng.NextBounded(g.NumVertices()));
    const auto t = static_cast<Vertex>(rng.NextBounded(g.NumVertices()));
    const SpcResult got = dyn.Query(s, t);
    const SpcResult want = BfsCountPair(g, s, t);
    ASSERT_EQ(got.dist, want.dist) << "s=" << s << " t=" << t;
    ASSERT_EQ(got.count, want.count) << "s=" << s << " t=" << t;
  }
}

TEST(StressTest, MediumBaGraphLongStream) {
  Graph g = GenerateBarabasiAlbert(1500, 2, 21);
  DynamicSpcIndex dyn(std::move(g));
  Rng rng(22);
  const size_t n = dyn.graph().NumVertices();
  for (int step = 0; step < 120; ++step) {
    if (rng.NextBool(0.7)) {
      const auto u = static_cast<Vertex>(rng.NextBounded(n));
      const auto v = static_cast<Vertex>(rng.NextBounded(n));
      if (u != v && !dyn.graph().HasEdge(u, v)) dyn.InsertEdge(u, v);
    } else {
      const auto edges = SampleEdges(dyn.graph(), 1, 1000 + step);
      if (!edges.empty()) dyn.RemoveEdge(edges[0].u, edges[0].v);
    }
    if (step % 30 == 29) SpotCheck(dyn.graph(), dyn, 40, step);
  }
  ASSERT_TRUE(dyn.index().ValidateStructure().ok());
  SpotCheck(dyn.graph(), dyn, 200, 99);
}

TEST(StressTest, MediumRmatGraphDeletionHeavy) {
  Graph g = GenerateRmat(10, 4000, 23);
  DynamicSpcIndex dyn(std::move(g));
  for (const Edge& e : SampleEdges(dyn.graph(), 40, 24)) {
    dyn.RemoveEdge(e.u, e.v);
  }
  ASSERT_TRUE(dyn.index().ValidateStructure().ok());
  SpotCheck(dyn.graph(), dyn, 300, 25);
}

TEST(StressTest, RepeatedInsertDeleteSameEdgeIsStable) {
  // Oscillating the same edge exercises scratch reset and stale-label
  // handling hard: any leak compounds over iterations.
  Graph g = GenerateWattsStrogatz(200, 2, 0.2, 26);
  DynamicSpcIndex dyn(std::move(g));
  const size_t entries_start = dyn.index().SizeStats().total_entries;
  for (int i = 0; i < 50; ++i) {
    dyn.InsertEdge(5, 150);
    dyn.RemoveEdge(5, 150);
  }
  ASSERT_TRUE(dyn.index().ValidateStructure().ok());
  SpotCheck(dyn.graph(), dyn, 150, 27);
  // The index must not grow without bound under oscillation.
  EXPECT_LE(dyn.index().SizeStats().total_entries, entries_start + 400);
}

TEST(StressTest, DisconnectReconnectComponents) {
  // Two communities joined by one bridge; repeatedly cut and re-add it.
  Graph g(60);
  Graph a = GenerateErdosRenyi(30, 80, 28);
  Graph b = GenerateErdosRenyi(30, 80, 29);
  for (const Edge& e : a.Edges()) g.AddEdge(e.u, e.v);
  for (const Edge& e : b.Edges()) {
    g.AddEdge(e.u + 30, e.v + 30);
  }
  g.AddEdge(7, 37);
  DynamicSpcIndex dyn(std::move(g));
  for (int i = 0; i < 6; ++i) {
    dyn.RemoveEdge(7, 37);
    ASSERT_EQ(dyn.Query(0, 59).dist, kInfDistance) << "cut " << i;
    dyn.InsertEdge(7, 37);
    ASSERT_NE(dyn.Query(0, 59).dist, kInfDistance) << "rejoin " << i;
  }
  SpotCheck(dyn.graph(), dyn, 200, 30);
}

TEST(StressTest, VertexChurn) {
  Graph g = GenerateBarabasiAlbert(300, 2, 31);
  DynamicSpcIndex dyn(std::move(g));
  Rng rng(32);
  for (int round = 0; round < 10; ++round) {
    const Vertex v = dyn.AddVertex();
    // Attach to three random existing vertices, then delete an old vertex.
    for (int j = 0; j < 3; ++j) {
      dyn.InsertEdge(v, static_cast<Vertex>(rng.NextBounded(300)));
    }
    dyn.RemoveVertex(static_cast<Vertex>(rng.NextBounded(300)));
  }
  ASSERT_TRUE(dyn.index().ValidateStructure().ok());
  SpotCheck(dyn.graph(), dyn, 200, 33);
}

TEST(SerializationFuzzTest, MaintainedIndexRoundTripsMidStream) {
  // Serialize after a stream of updates (IncSPC's retained stale labels
  // included); the reloaded index must adopt the current graph and keep
  // answering + updating correctly.
  Graph g = GenerateRmat(8, 700, 37);
  DynamicSpcIndex dyn(g);
  for (const Edge& e : SampleNonEdges(dyn.graph(), 20, 38)) {
    dyn.InsertEdge(e.u, e.v);
  }
  for (const Edge& e : SampleEdges(dyn.graph(), 5, 39)) {
    dyn.RemoveEdge(e.u, e.v);
  }
  const auto mapped = testing::ArenaRoundTrip(FlatSpcIndex(dyn.index()));
  ASSERT_NE(mapped, nullptr);
  SpcIndex loaded = mapped->Unpack();
  EXPECT_TRUE(loaded == dyn.index());

  DynamicSpcIndex dyn2(dyn.graph(), std::move(loaded));
  dyn2.InsertEdge(1, 2);
  dyn.InsertEdge(1, 2);
  SpotCheck(dyn2.graph(), dyn2, 150, 40);
  EXPECT_TRUE(dyn2.index() == dyn.index());
}

}  // namespace
}  // namespace dspc
