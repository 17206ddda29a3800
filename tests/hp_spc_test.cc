// Unit and property tests for HP-SPC construction: exactness against BFS,
// canonical/non-canonical labels, behavior under different orderings,
// structural minimality properties, and the pinned work of the pruned
// searches.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "dspc/baseline/bfs_counting.h"
#include "dspc/core/directed_spc.h"
#include "dspc/core/dynamic_spc.h"
#include "dspc/core/hp_spc.h"
#include "dspc/core/parallel_build.h"
#include "dspc/core/weighted_spc.h"
#include "dspc/graph/digraph.h"
#include "dspc/graph/generators.h"
#include "dspc/graph/update_stream.h"
#include "test_util.h"

namespace dspc {
namespace {

using testing::ExpectIndexMatchesBfs;
using testing::RandomGraph;

class HpSpcBuildPropertyTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, uint64_t>> {};

TEST_P(HpSpcBuildPropertyTest, ExactOnRandomGraphs) {
  const auto [n, m, seed] = GetParam();
  const Graph g = RandomGraph(n, m, seed);
  const SpcIndex index = BuildSpcIndex(g);
  ASSERT_TRUE(index.ValidateStructure().ok());
  ExpectIndexMatchesBfs(g, index);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HpSpcBuildPropertyTest,
    ::testing::Values(std::make_tuple(10, 15, 1), std::make_tuple(20, 30, 2),
                      std::make_tuple(30, 60, 3), std::make_tuple(40, 100, 4),
                      std::make_tuple(50, 75, 5), std::make_tuple(60, 200, 6),
                      std::make_tuple(25, 300, 7), std::make_tuple(80, 120, 8)));

TEST(HpSpcTest, StructuredGraphs) {
  for (const Graph& g :
       {GenerateGrid(5, 5), GenerateCycle(17), GeneratePath(20),
        GenerateStar(15), GenerateComplete(10),
        GenerateCompleteBipartite(4, 6), GenerateWattsStrogatz(40, 2, 0.2, 1),
        GenerateBarabasiAlbert(40, 2, 2)}) {
    const SpcIndex index = BuildSpcIndex(g);
    ASSERT_TRUE(index.ValidateStructure().ok());
    ExpectIndexMatchesBfs(g, index);
  }
}

TEST(HpSpcTest, DisconnectedComponents) {
  Graph g(8);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(4, 5);
  g.AddEdge(5, 6);
  // vertices 3 and 7 isolated
  const SpcIndex index = BuildSpcIndex(g);
  ExpectIndexMatchesBfs(g, index);
  EXPECT_EQ(index.Query(0, 4).dist, kInfDistance);
  EXPECT_EQ(index.Query(3, 7).count, 0u);
  EXPECT_EQ(index.Query(3, 3).count, 1u);
}

TEST(HpSpcTest, EmptyAndTinyGraphs) {
  EXPECT_EQ(BuildSpcIndex(Graph(0)).NumVertices(), 0u);
  const SpcIndex one = BuildSpcIndex(Graph(1));
  EXPECT_EQ(one.Query(0, 0).count, 1u);
  Graph two(2);
  two.AddEdge(0, 1);
  const SpcIndex pair = BuildSpcIndex(two);
  EXPECT_EQ(pair.Query(0, 1).dist, 1u);
  EXPECT_EQ(pair.Query(0, 1).count, 1u);
}

TEST(HpSpcTest, NonCanonicalLabelsArePresentWhenNeeded) {
  // Diamond: 0-1, 0-2, 1-3, 2-3 with identity order. spc(1,2) = 2 (via 0
  // and via 3) but hub 0 only covers the path through 0; vertex 1 must
  // also appear as hub of 2 or 3 to cover the second path.
  Graph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(0, 2);
  g.AddEdge(1, 3);
  g.AddEdge(2, 3);
  OrderingOptions options;
  options.strategy = OrderingStrategy::kIdentity;
  const SpcIndex index = BuildSpcIndex(g, options);
  EXPECT_EQ(index.Query(1, 2).dist, 2u);
  EXPECT_EQ(index.Query(1, 2).count, 2u);
  // The path 1-3-2 is covered by hub 1 (highest on it): labels (1,*) in
  // L(3) and L(2).
  ASSERT_NE(index.FindLabel(3, 1), nullptr);
  ASSERT_NE(index.FindLabel(2, 1), nullptr);
  EXPECT_EQ(index.FindLabel(2, 1)->dist, 2u);
}

TEST(HpSpcTest, HigherRankedHubsPruneLowerSearches) {
  // On a star, every pair is covered by the center: leaves should have
  // exactly two labels (center + self).
  const Graph g = GenerateStar(10);
  const SpcIndex index = BuildSpcIndex(g);
  for (Vertex v = 1; v < 10; ++v) {
    EXPECT_EQ(index.Labels(v).size(), 2u) << "leaf " << v;
  }
}

TEST(HpSpcTest, OrderingAffectsSizeNotCorrectness) {
  const Graph g = GenerateBarabasiAlbert(60, 2, 9);
  OrderingOptions degree;
  OrderingOptions random;
  random.strategy = OrderingStrategy::kRandom;
  random.seed = 123;
  const SpcIndex by_degree = BuildSpcIndex(g, degree);
  const SpcIndex by_random = BuildSpcIndex(g, random);
  ExpectIndexMatchesBfs(g, by_degree);
  ExpectIndexMatchesBfs(g, by_random);
  // Degree ordering is the paper's heuristic precisely because it prunes
  // more: it should never produce a (non-trivially) larger index.
  EXPECT_LE(by_degree.SizeStats().total_entries,
            by_random.SizeStats().total_entries);
}

TEST(HpSpcTest, LabelCountsAreSigmaNotSpc) {
  // Paper Example 2.2: sigma counts only paths where the hub is the
  // highest-ranked vertex. Verify on the diamond that the center hub's
  // label in L(3) counts both 0-1-3 and 0-2-3 (canonical), while the
  // non-canonical (1,.) in L(2) counts only 1-3-2.
  Graph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(0, 2);
  g.AddEdge(1, 3);
  g.AddEdge(2, 3);
  OrderingOptions options;
  options.strategy = OrderingStrategy::kIdentity;
  const SpcIndex index = BuildSpcIndex(g, options);
  ASSERT_NE(index.FindLabel(3, 0), nullptr);
  EXPECT_EQ(index.FindLabel(3, 0)->count, 2u);  // canonical: both paths
  ASSERT_NE(index.FindLabel(2, 1), nullptr);
  EXPECT_EQ(index.FindLabel(2, 1)->count, 1u);  // non-canonical: one path
}

TEST(HpSpcTest, CountsGrowExponentiallyAndStayExact) {
  // A chain of diamonds doubles the path count per stage: spc(entry_0,
  // entry_k) = 2^k. Counts this large stress the count arithmetic.
  const size_t stages = 20;
  // Vertex layout per stage i: entry = 3i, mids = 3i+1, 3i+2, next entry
  // = 3(i+1).
  Graph g(3 * stages + 1);
  for (size_t i = 0; i < stages; ++i) {
    const auto entry = static_cast<Vertex>(3 * i);
    const auto mid1 = static_cast<Vertex>(3 * i + 1);
    const auto mid2 = static_cast<Vertex>(3 * i + 2);
    const auto exit = static_cast<Vertex>(3 * i + 3);
    g.AddEdge(entry, mid1);
    g.AddEdge(entry, mid2);
    g.AddEdge(mid1, exit);
    g.AddEdge(mid2, exit);
  }
  const SpcIndex index = BuildSpcIndex(g);
  const SsspCounts truth = BfsCount(g, 0);
  for (Vertex t = 0; t < g.NumVertices(); ++t) {
    const SpcResult got = index.Query(0, t);
    ASSERT_EQ(got.dist, truth.dist[t]) << "t=" << t;
    ASSERT_EQ(got.count, truth.count[t]) << "t=" << t;
  }
  const SpcResult end = index.Query(0, static_cast<Vertex>(3 * stages));
  EXPECT_EQ(end.dist, 2 * stages);
  EXPECT_EQ(end.count, 1ULL << stages);
}

TEST(HpSpcTest, RebuildIdempotent) {
  const Graph g = RandomGraph(30, 60, 12);
  const SpcIndex a = BuildSpcIndex(g);
  const SpcIndex b = BuildSpcIndex(g);
  EXPECT_TRUE(a == b);
}

// --- Pinned label digests --------------------------------------------------
//
// Both builders run one pruned BFS, so comparing them with each other
// cannot catch a label that moves in both. These digests come from an
// independent implementation: the vertex-space builder that the rank-space
// one replaced. Any label that moves changes them.

/// FNV-1a-64 over (v, hub, dist, count) of every entry of every L(v), in
/// vertex order, each field little-endian at its own width.
uint64_t LabelDigest(const SpcIndex& index) {
  uint64_t h = 14695981039346656037ULL;
  const auto mix = [&h](uint64_t x, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      h ^= (x >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  for (Vertex v = 0; v < index.NumVertices(); ++v) {
    for (const LabelEntry& e : index.Labels(v)) {
      mix(v, 4);
      mix(e.hub, 4);
      mix(e.dist, 4);
      mix(e.count, 8);
    }
  }
  return h;
}

/// Two components plus isolated vertices, under an explicit ordering that
/// scrambles the ids and puts isolated vertex 17 at rank 0.
std::pair<Graph, VertexOrdering> TwoComponentsWithIsolated() {
  constexpr size_t kN = 40;
  Graph g(kN);
  for (Vertex v = 1; v < 15; ++v) g.AddEdge(v, v + 1);  // path 1..15
  g.AddEdge(15, 1);                                     // closes a cycle
  g.AddEdge(3, 9);
  g.AddEdge(5, 12);
  const Graph grid = GenerateGrid(4, 4);  // 20..35
  for (const Edge& e : grid.Edges()) {
    g.AddEdge(static_cast<Vertex>(20 + e.u), static_cast<Vertex>(20 + e.v));
  }
  g.AddEdge(20, 35);
  // Isolated: 0, 16..19, 36..39.
  VertexOrdering order;
  order.vertex_of.push_back(17);
  for (size_t i = 0; i < kN; ++i) {
    const auto v = static_cast<Vertex>((13 * i + 5) % kN);
    if (v != 17) order.vertex_of.push_back(v);
  }
  order.rank_of.assign(kN, 0);
  for (Rank r = 0; r < kN; ++r) order.rank_of[order.vertex_of[r]] = r;
  return {std::move(g), std::move(order)};
}

TEST(HpSpcTest, LabelsMatchParentDigest) {
  struct Case {
    const char* name;
    Graph graph;
    VertexOrdering order;
    uint64_t digest;
  };
  std::vector<Case> cases;
  {
    Graph g = GenerateRmat(12, 16384, 7001);
    VertexOrdering order = BuildOrdering(g, OrderingOptions{});
    cases.push_back({"rmat12/degree", std::move(g), std::move(order),
                     0xc76dbe8c1d1c9ea8ULL});
  }
  {
    Graph g = GenerateBarabasiAlbert(400, 3, 11);
    OrderingOptions random;
    random.strategy = OrderingStrategy::kRandom;
    random.seed = 99;
    VertexOrdering order = BuildOrdering(g, random);
    cases.push_back(
        {"ba/random", std::move(g), std::move(order), 0x3e1c32b65450a505ULL});
  }
  {
    auto [g, order] = TwoComponentsWithIsolated();
    ASSERT_TRUE(order.IsValid());
    ASSERT_EQ(g.Degree(order.vertex_of[0]), 0u);
    cases.push_back(
        {"isolated/explicit", std::move(g), std::move(order),
         0xd0b2e4d32b4be257ULL});
  }
  for (const Case& c : cases) {
    const SpcIndex seq = BuildSpcIndex(c.graph, c.order);
    ASSERT_TRUE(seq.ValidateStructure().ok()) << c.name;
    EXPECT_EQ(LabelDigest(seq), c.digest)
        << c.name << ": 0x" << std::hex << LabelDigest(seq);
    for (const unsigned threads : {1u, 2u, 4u, 8u}) {
      for (const BuildBatchStrategy strategy :
           {BuildBatchStrategy::kAuto, BuildBatchStrategy::kRankWindow,
            BuildBatchStrategy::kFrontier}) {
        ParallelBuildOptions opts;
        opts.threads = threads;
        opts.batch_strategy = strategy;
        EXPECT_EQ(LabelDigest(BuildSpcIndexParallel(c.graph, c.order, opts)),
                  c.digest)
            << c.name << " threads=" << threads
            << " strategy=" << static_cast<int>(strategy);
      }
    }
  }
}

TEST(HpSpcTest, RankGraphIsThePermutedGraphSortedDescending) {
  auto [g, order] = TwoComponentsWithIsolated();
  const internal::RankGraph rg(g, order);
  ASSERT_EQ(rg.NumVertices(), g.NumVertices());
  size_t slots = 0;
  for (Rank r = 0; r < rg.NumVertices(); ++r) {
    const Vertex v = order.vertex_of[r];
    const std::span<const Rank> adj = rg.Neighbors(r);
    ASSERT_EQ(rg.Degree(r), g.Degree(v)) << "r=" << r;
    ASSERT_EQ(adj.size(), g.Degree(v)) << "r=" << r;
    EXPECT_TRUE(std::is_sorted(adj.begin(), adj.end(), std::greater<Rank>()))
        << "r=" << r;
    for (const Rank w : adj) {
      EXPECT_TRUE(g.HasEdge(v, order.vertex_of[w])) << "r=" << r << " w=" << w;
    }
    if (g.Degree(v) == 0) {
      EXPECT_TRUE(adj.empty()) << "isolated r=" << r;
    }
    slots += adj.size();
  }
  EXPECT_EQ(slots, 2 * g.NumEdges());
  EXPECT_TRUE(rg.Neighbors(0).empty());  // vertex 17, isolated, at rank 0
  EXPECT_EQ(internal::RankGraph(Graph(0), VertexOrdering{}).NumVertices(), 0u);
}

// --- Pinned work counters --------------------------------------------------
//
// The prune test decides which vertices every pruned BFS labels and
// expands, so one changed prune decision moves at least one of the counts
// below. They were recorded from the builder and maintenance code as it
// stood before HubCache::Covers replaced Query(...).dist < D as the prune
// test; a change that keeps them keeps every decision.

/// A stream's work: label entries after the build and after the stream,
/// and the summed UpdateStats of its inserts and of its deletes, each as
/// {affected_hubs, visited_vertices, renew_count, renew_dist, inserted,
/// removed}.
struct StreamWork {
  size_t build_entries = 0;
  size_t final_entries = 0;
  std::array<size_t, 6> inc{};
  std::array<size_t, 6> dec{};

  void Add(const Update& u, const UpdateStats& s) {
    std::array<size_t, 6>& w = u.kind == Update::Kind::kInsert ? inc : dec;
    const std::array<size_t, 6> add = {s.affected_hubs, s.visited_vertices,
                                       s.renew_count,   s.renew_dist,
                                       s.inserted,      s.removed};
    for (size_t i = 0; i < w.size(); ++i) w[i] += add[i];
  }
};

void ExpectWork(const StreamWork& got, const StreamWork& pinned) {
  EXPECT_EQ(got.build_entries, pinned.build_entries);
  EXPECT_EQ(got.final_entries, pinned.final_entries);
  EXPECT_EQ(got.inc, pinned.inc);
  EXPECT_EQ(got.dec, pinned.dec);
}

TEST(PruneWorkTest, UndirectedCountersArePinned) {
  const Graph g = GenerateRmat(10, 8192, 3);
  const std::vector<Update> stream = MakeHybridStream(g, 200, 20, 5);
  DynamicSpcIndex dyn(g);
  StreamWork work;
  work.build_entries = dyn.index().SizeStats().total_entries;
  for (const Update& u : stream) work.Add(u, dyn.Apply(u));
  work.final_entries = dyn.index().SizeStats().total_entries;
  ExpectWork(work, {.build_entries = 50796,
                    .final_entries = 55822,
                    .inc = {16031, 49215, 2795, 337, 5013, 0},
                    .dec = {565, 161569, 453, 25, 42, 29}});
}

// The directed and weighted variants each carry their own copies of the
// three pruned searches; they replay the same stream on the same edges.
TEST(PruneWorkTest, DirectedAndWeightedCountersArePinned) {
  const Graph g = GenerateRmat(9, 2048, 3);
  const std::vector<Update> stream = MakeHybridStream(g, 100, 10, 5);

  DynamicDirectedSpcIndex directed(Digraph(g.NumVertices(), g.Edges()));
  StreamWork dwork;
  dwork.build_entries = directed.SizeStats().total_entries;
  for (const Update& u : stream) {
    const auto [a, b] = u.edge;
    if (u.kind == Update::Kind::kInsert) {
      dwork.Add(u, directed.InsertArc(a, b));
    } else if (directed.graph().HasArc(a, b)) {
      dwork.Add(u, directed.RemoveArc(a, b));
    } else {
      dwork.Add(u, directed.RemoveArc(b, a));
    }
  }
  dwork.final_entries = directed.SizeStats().total_entries;
  ExpectWork(dwork, {.build_entries = 7533,
                     .final_entries = 11690,
                     .inc = {1716, 10871, 570, 498, 4177, 0},
                     .dec = {936, 23663, 54, 12, 7, 27}});

  DynamicWeightedSpcIndex weighted(AttachRandomWeights(g, 1, 8, 3));
  StreamWork wwork;
  wwork.build_entries = weighted.SizeStats().total_entries;
  for (const Update& u : stream) {
    const auto [a, b] = u.edge;
    wwork.Add(u, u.kind == Update::Kind::kInsert
                     ? weighted.InsertEdge(a, b, 1 + (a + b) % 8)
                     : weighted.RemoveEdge(a, b));
  }
  wwork.final_entries = weighted.SizeStats().total_entries;
  ExpectWork(wwork, {.build_entries = 6129,
                     .final_entries = 7110,
                     .inc = {2005, 4585, 60, 144, 918, 0},
                     .dec = {581, 26364, 150, 79, 103, 40}});
}

}  // namespace
}  // namespace dspc
