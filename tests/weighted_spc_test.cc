// Weighted DSPC (Appendix C.2): Dijkstra-based build, weighted queries,
// insertion/deletion and weight increase/decrease maintenance, verified
// against Dijkstra-with-counting ground truth.

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "dspc/baseline/dijkstra_counting.h"
#include "dspc/common/label_codec.h"
#include "dspc/common/rng.h"
#include "dspc/core/weighted_spc.h"
#include "dspc/graph/generators.h"

namespace dspc {
namespace {

void ExpectMatchesDijkstra(const WeightedGraph& g,
                           const DynamicWeightedSpcIndex& index,
                           const std::string& context = "") {
  for (Vertex s = 0; s < g.NumVertices(); ++s) {
    const SsspCounts truth = DijkstraCount(g, s);
    for (Vertex t = 0; t < g.NumVertices(); ++t) {
      const SpcResult got = index.Query(s, t);
      ASSERT_EQ(got.dist, truth.dist[t])
          << context << " dist mismatch s=" << s << " t=" << t;
      ASSERT_EQ(got.count, truth.count[t])
          << context << " count mismatch s=" << s << " t=" << t;
    }
  }
}

TEST(WeightedBuild, TriangleWithUnequalWeights) {
  WeightedGraph g(3);
  g.AddEdge(0, 1, 1);
  g.AddEdge(1, 2, 1);
  g.AddEdge(0, 2, 3);
  DynamicWeightedSpcIndex index(g);
  // 0->2: direct edge costs 3, the two-hop path costs 2.
  EXPECT_EQ(index.Query(0, 2).dist, 2u);
  EXPECT_EQ(index.Query(0, 2).count, 1u);
  ExpectMatchesDijkstra(g, index);
}

TEST(WeightedBuild, ParallelShortestPathsCounted) {
  // Two disjoint paths of equal total weight.
  WeightedGraph g(4);
  g.AddEdge(0, 1, 2);
  g.AddEdge(1, 3, 2);
  g.AddEdge(0, 2, 1);
  g.AddEdge(2, 3, 3);
  DynamicWeightedSpcIndex index(g);
  EXPECT_EQ(index.Query(0, 3).dist, 4u);
  EXPECT_EQ(index.Query(0, 3).count, 2u);
}

class WeightedBuildPropertyTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, uint64_t>> {};

TEST_P(WeightedBuildPropertyTest, MatchesDijkstra) {
  const auto [n, m, seed] = GetParam();
  const Graph base = GenerateErdosRenyi(n, m, seed);
  const WeightedGraph g = AttachRandomWeights(base, 1, 4, seed ^ 0x11u);
  DynamicWeightedSpcIndex index(g);
  ASSERT_TRUE(index.ValidateStructure().ok());
  ExpectMatchesDijkstra(g, index);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WeightedBuildPropertyTest,
    ::testing::Values(std::make_tuple(8, 14, 1), std::make_tuple(12, 24, 2),
                      std::make_tuple(16, 32, 3), std::make_tuple(20, 60, 4),
                      std::make_tuple(24, 48, 5), std::make_tuple(32, 80, 6),
                      std::make_tuple(15, 105, 7)));

class WeightedDynamicPropertyTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, uint64_t>> {};

TEST_P(WeightedDynamicPropertyTest, AllFourUpdateKindsStayExact) {
  const auto [n, m, seed] = GetParam();
  const Graph base = GenerateErdosRenyi(n, m, seed);
  WeightedGraph g = AttachRandomWeights(base, 1, 4, seed ^ 0x22u);
  DynamicWeightedSpcIndex index(std::move(g));
  Rng rng(seed ^ 0x33u);
  for (int step = 0; step < 28; ++step) {
    const double dice = rng.NextDouble();
    if (dice < 0.3) {
      // Insert a fresh edge.
      const auto u = static_cast<Vertex>(rng.NextBounded(n));
      const auto v = static_cast<Vertex>(rng.NextBounded(n));
      if (u != v && !index.graph().HasEdge(u, v)) {
        index.InsertEdge(u, v, static_cast<Weight>(1 + rng.NextBounded(4)));
      }
    } else if (dice < 0.55) {
      // Delete an existing edge.
      const auto edges = index.graph().Edges();
      if (edges.empty()) continue;
      const WeightedEdge e = edges[rng.NextBounded(edges.size())];
      index.RemoveEdge(e.u, e.v);
    } else if (dice < 0.8) {
      // Decrease a weight.
      const auto edges = index.graph().Edges();
      if (edges.empty()) continue;
      const WeightedEdge e = edges[rng.NextBounded(edges.size())];
      if (e.w > 1) {
        index.DecreaseWeight(e.u, e.v,
                             static_cast<Weight>(1 + rng.NextBounded(e.w - 1)));
      }
    } else {
      // Increase a weight.
      const auto edges = index.graph().Edges();
      if (edges.empty()) continue;
      const WeightedEdge e = edges[rng.NextBounded(edges.size())];
      index.IncreaseWeight(e.u, e.v,
                           static_cast<Weight>(e.w + 1 + rng.NextBounded(3)));
    }
    ASSERT_TRUE(index.ValidateStructure().ok()) << "step " << step;
    ExpectMatchesDijkstra(index.graph(), index,
                          "step " + std::to_string(step));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WeightedDynamicPropertyTest,
    ::testing::Values(std::make_tuple(8, 16, 1), std::make_tuple(12, 24, 2),
                      std::make_tuple(16, 36, 3), std::make_tuple(20, 44, 4),
                      std::make_tuple(24, 60, 5), std::make_tuple(30, 66, 6),
                      std::make_tuple(12, 60, 7), std::make_tuple(36, 80, 8)));

TEST(WeightedDynamic, DecreaseCreatingTie) {
  // 0-1-3 costs 4; decrease direct 0-3 from 9 to exactly 4: counts merge.
  WeightedGraph g(4);
  g.AddEdge(0, 1, 2);
  g.AddEdge(1, 3, 2);
  g.AddEdge(0, 3, 9);
  DynamicWeightedSpcIndex index(std::move(g));
  EXPECT_EQ(index.Query(0, 3).dist, 4u);
  EXPECT_EQ(index.Query(0, 3).count, 1u);
  const UpdateStats stats = index.DecreaseWeight(0, 3, 4);
  EXPECT_TRUE(stats.applied);
  EXPECT_EQ(index.Query(0, 3).dist, 4u);
  EXPECT_EQ(index.Query(0, 3).count, 2u);
  ExpectMatchesDijkstra(index.graph(), index);
}

TEST(WeightedDynamic, IncreasePushesPathsElsewhere) {
  WeightedGraph g(4);
  g.AddEdge(0, 1, 1);
  g.AddEdge(1, 3, 1);
  g.AddEdge(0, 2, 2);
  g.AddEdge(2, 3, 2);
  DynamicWeightedSpcIndex index(std::move(g));
  EXPECT_EQ(index.Query(0, 3).dist, 2u);
  index.IncreaseWeight(1, 3, 5);
  EXPECT_EQ(index.Query(0, 3).dist, 4u);
  EXPECT_EQ(index.Query(0, 3).count, 1u);
  ExpectMatchesDijkstra(index.graph(), index);
}

TEST(WeightedDynamic, DeletionDisconnects) {
  WeightedGraph g(3);
  g.AddEdge(0, 1, 2);
  g.AddEdge(1, 2, 3);
  DynamicWeightedSpcIndex index(std::move(g));
  index.RemoveEdge(1, 2);
  EXPECT_EQ(index.Query(0, 2).dist, kInfDistance);
  EXPECT_EQ(index.Query(0, 2).count, 0u);
  EXPECT_EQ(index.Query(2, 2).count, 1u);
}

TEST(WeightedDynamic, InvalidOperationsAreNoops) {
  WeightedGraph g(3);
  g.AddEdge(0, 1, 2);
  DynamicWeightedSpcIndex index(std::move(g));
  EXPECT_FALSE(index.InsertEdge(0, 1, 5).applied);    // duplicate
  EXPECT_FALSE(index.InsertEdge(1, 1, 1).applied);    // self loop
  EXPECT_FALSE(index.InsertEdge(0, 2, 0).applied);    // zero weight
  EXPECT_FALSE(index.DecreaseWeight(0, 1, 2).applied);  // not a decrease
  EXPECT_FALSE(index.DecreaseWeight(0, 1, 3).applied);  // increase via wrong API
  EXPECT_FALSE(index.IncreaseWeight(0, 1, 2).applied);  // not an increase
  EXPECT_FALSE(index.RemoveEdge(0, 2).applied);          // absent edge
  EXPECT_EQ(index.Query(0, 1).dist, 2u);
}

TEST(WeightedDynamic, VertexInsertion) {
  const Graph base = GenerateErdosRenyi(8, 14, 10);
  WeightedGraph g = AttachRandomWeights(base, 1, 3, 5);
  DynamicWeightedSpcIndex index(std::move(g));
  const Vertex v = index.AddVertex();
  EXPECT_EQ(index.Query(v, 0).dist, kInfDistance);
  index.InsertEdge(v, 2, 2);
  index.InsertEdge(v, 5, 1);
  ExpectMatchesDijkstra(index.graph(), index);
}

TEST(WeightedDynamic, UnitWeightsAgreeWithUnweighted) {
  // With all weights 1 the weighted index must agree with BFS semantics.
  const Graph base = GenerateBarabasiAlbert(20, 2, 12);
  WeightedGraph g = AttachRandomWeights(base, 1, 1, 1);
  DynamicWeightedSpcIndex index(std::move(g));
  ExpectMatchesDijkstra(index.graph(), index);
}

// Weighted distances outgrow the packed 25/10/29-bit budget quickly; the
// flat arena keeps such entries in its wide side table, and SizeStats must
// charge for them.
TEST(WeightedDynamic, SizeStatsCountsOverflowSideTable) {
  const Graph base = GenerateErdosRenyi(30, 70, 12);
  DynamicWeightedSpcIndex index(AttachRandomWeights(base, 1, 1u << 24, 12));
  size_t entries = 0;
  size_t overflow = 0;
  for (Vertex v = 0; v < base.NumVertices(); ++v) {
    for (const LabelEntry& e : index.Labels(v)) {
      ++entries;
      if (!FitsFlatInline(e.hub, e.dist, e.count)) ++overflow;
    }
  }
  ASSERT_GT(overflow, 0u);
  const IndexSizeStats stats = index.SizeStats();
  EXPECT_EQ(stats.total_entries, entries);
  EXPECT_EQ(stats.overflow_entries, overflow);
  EXPECT_EQ(stats.packed_bytes, entries * sizeof(uint64_t) +
                                    overflow * sizeof(LabelEntry));
}

}  // namespace
}  // namespace dspc
