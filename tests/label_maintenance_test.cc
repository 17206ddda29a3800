// The shared maintenance core (core/label_maintenance.h) seen from its
// three instantiations: a unit-weight weighted index and a symmetric
// digraph must replay the undirected engine label for label and counter
// for counter, and the directed and weighted labels are pinned by digest.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "dspc/core/directed_spc.h"
#include "dspc/core/dynamic_spc.h"
#include "dspc/core/weighted_spc.h"
#include "dspc/graph/digraph.h"
#include "dspc/graph/generators.h"
#include "dspc/graph/update_stream.h"

namespace dspc {
namespace {

/// FNV-1a over (v, hub, dist, count) of every entry of `labels(v)`, for v
/// in id order, folded into `h`.
template <typename LabelsOf>
uint64_t FoldDigest(uint64_t h, size_t n, LabelsOf labels) {
  const auto mix = [&h](uint64_t x, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      h ^= (x >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  for (Vertex v = 0; v < n; ++v) {
    for (const LabelEntry& e : labels(v)) {
      mix(v, 4);
      mix(e.hub, 4);
      mix(e.dist, 4);
      mix(e.count, 8);
    }
  }
  return h;
}

constexpr uint64_t kFnvBasis = 14695981039346656037ULL;

/// In-labels, then out-labels.
uint64_t Digest(const DynamicDirectedSpcIndex& index) {
  const size_t n = index.graph().NumVertices();
  const uint64_t in =
      FoldDigest(kFnvBasis, n, [&](Vertex v) -> const LabelSet& {
        return index.InLabels(v);
      });
  return FoldDigest(
      in, n, [&](Vertex v) -> const LabelSet& { return index.OutLabels(v); });
}

uint64_t Digest(const DynamicWeightedSpcIndex& index) {
  return FoldDigest(
      kFnvBasis, index.graph().NumVertices(),
      [&](Vertex v) -> const LabelSet& { return index.Labels(v); });
}

// The PruneWorkTest graph and stream (hp_spc_test.cc), replayed on the
// directed and weighted indexes; the digests were recorded from the three
// separate maintenance copies that the shared core replaced.
TEST(MaintenanceCoreTest, DirectedAndWeightedLabelsMatchParentDigest) {
  const Graph g = GenerateRmat(9, 2048, 3);
  const std::vector<Update> stream = MakeHybridStream(g, 100, 10, 5);

  DynamicDirectedSpcIndex directed(Digraph(g.NumVertices(), g.Edges()));
  EXPECT_EQ(Digest(directed), 0x91013ce2c2c10b32ULL)
      << "directed build: 0x" << std::hex << Digest(directed);
  for (const Update& u : stream) {
    const auto [a, b] = u.edge;
    if (u.kind == Update::Kind::kInsert) {
      directed.InsertArc(a, b);
    } else if (directed.graph().HasArc(a, b)) {
      directed.RemoveArc(a, b);
    } else {
      directed.RemoveArc(b, a);
    }
  }
  EXPECT_EQ(Digest(directed), 0xca80c5f2e1fb8555ULL)
      << "directed stream: 0x" << std::hex << Digest(directed);

  DynamicWeightedSpcIndex weighted(AttachRandomWeights(g, 1, 8, 3));
  EXPECT_EQ(Digest(weighted), 0xb39c9d76cf934caeULL)
      << "weighted build: 0x" << std::hex << Digest(weighted);
  for (const Update& u : stream) {
    const auto [a, b] = u.edge;
    if (u.kind == Update::Kind::kInsert) {
      weighted.InsertEdge(a, b, 1 + (a + b) % 8);
    } else {
      weighted.RemoveEdge(a, b);
    }
  }
  EXPECT_EQ(Digest(weighted), 0x17ba167db5af7989ULL)
      << "weighted stream: 0x" << std::hex << Digest(weighted);
}

/// Equal label sets at every vertex, with the first difference named.
template <typename LabelsA, typename LabelsB>
void ExpectSameLabels(size_t n, LabelsA a, LabelsB b, const char* what) {
  for (Vertex v = 0; v < n; ++v) {
    ASSERT_EQ(a(v), b(v)) << what << " differ at v" << v;
  }
}

// With every weight 1 the Dijkstra instantiation is the BFS one, and a
// digraph holding both arcs of every edge has in-labels = out-labels =
// the undirected labels. The §3.2.3 fast path is off, because only the
// undirected index has it.
TEST(MaintenanceCoreTest, UnitWeightsReplayTheUndirectedEngine) {
  for (const uint64_t seed : {3u, 7u, 11u}) {
    SCOPED_TRACE(seed);
    const Graph g = GenerateRmat(9, 2048, seed);
    const std::vector<Update> stream = MakeHybridStream(g, 100, 10, seed);
    DynamicSpcOptions options;
    options.dec.enable_isolated_vertex_opt = false;
    options.build.threads = 1;
    DynamicSpcIndex undirected(g, options);
    DynamicWeightedSpcIndex weighted(AttachRandomWeights(g, 1, 1, seed));
    const size_t n = g.NumVertices();
    const auto undirected_labels = [&](Vertex v) -> const LabelSet& {
      return undirected.index().Labels(v);
    };

    ASSERT_EQ(weighted.ordering().rank_of,
              undirected.index().ordering().rank_of);
    ExpectSameLabels(
        n, [&](Vertex v) -> const LabelSet& { return weighted.Labels(v); },
        undirected_labels, "built labels");

    std::vector<Edge> arcs;
    for (const Edge& e : g.Edges()) {
      arcs.push_back(e);
      arcs.push_back(Edge{e.v, e.u});
    }
    const DynamicDirectedSpcIndex symmetric(Digraph(n, arcs));
    ASSERT_EQ(symmetric.ordering().rank_of,
              undirected.index().ordering().rank_of);
    ExpectSameLabels(
        n, [&](Vertex v) -> const LabelSet& { return symmetric.InLabels(v); },
        undirected_labels, "symmetric in-labels");
    ExpectSameLabels(
        n, [&](Vertex v) -> const LabelSet& { return symmetric.OutLabels(v); },
        undirected_labels, "symmetric out-labels");

    for (size_t i = 0; i < stream.size(); ++i) {
      const Update& u = stream[i];
      const auto [a, b] = u.edge;
      const UpdateStats want = undirected.Apply(u);
      const UpdateStats got = u.kind == Update::Kind::kInsert
                                  ? weighted.InsertEdge(a, b, 1)
                                  : weighted.RemoveEdge(a, b);
      ASSERT_TRUE(want.applied) << "update " << i;
      EXPECT_EQ(got.affected_hubs, want.affected_hubs) << "update " << i;
      EXPECT_EQ(got.visited_vertices, want.visited_vertices) << "update " << i;
      EXPECT_EQ(got.renew_count, want.renew_count) << "update " << i;
      EXPECT_EQ(got.renew_dist, want.renew_dist) << "update " << i;
      EXPECT_EQ(got.inserted, want.inserted) << "update " << i;
      EXPECT_EQ(got.removed, want.removed) << "update " << i;
      EXPECT_EQ(got.applied, want.applied) << "update " << i;
    }
    ExpectSameLabels(
        n, [&](Vertex v) -> const LabelSet& { return weighted.Labels(v); },
        undirected_labels, "labels after the stream");
  }
}

}  // namespace
}  // namespace dspc
