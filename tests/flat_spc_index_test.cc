// Tests for FlatSpcIndex, the read-optimized packed-arena snapshot:
// query equivalence against the mutable index and BFS ground truth on
// several graph families under Inc/Dec update streams, the batched and
// parallel drivers, the overflow side table, and the round trip through
// the on-disk snapshot arena image.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dspc/common/label_codec.h"
#include "dspc/core/dynamic_spc.h"
#include "dspc/core/flat_spc_index.h"
#include "dspc/core/hp_spc.h"
#include "dspc/graph/generators.h"
#include "dspc/graph/update_stream.h"
#include "dspc/persist/snapshot_arena.h"
#include "test_util.h"

namespace dspc {
namespace {

using dspc::testing::ArenaRoundTrip;
using dspc::testing::RandomGraph;

/// Asserts flat == legacy == BFS for every pair, and flat.PreQuery ==
/// legacy.PreQuery.
void ExpectFlatMatchesLegacy(const Graph& graph, const SpcIndex& index,
                             const std::string& context) {
  const FlatSpcIndex flat(index);
  ASSERT_EQ(flat.NumVertices(), graph.NumVertices()) << context;
  ASSERT_EQ(flat.TotalEntries(), index.SizeStats().total_entries) << context;
  for (Vertex s = 0; s < graph.NumVertices(); ++s) {
    const SsspCounts truth = BfsCount(graph, s);
    for (Vertex t = 0; t < graph.NumVertices(); ++t) {
      const SpcResult legacy = index.Query(s, t);
      const SpcResult got = flat.Query(s, t);
      ASSERT_EQ(got.dist, truth.dist[t])
          << context << " flat/BFS dist mismatch s=" << s << " t=" << t;
      ASSERT_EQ(got.count, truth.count[t])
          << context << " flat/BFS count mismatch s=" << s << " t=" << t;
      ASSERT_EQ(got, legacy)
          << context << " flat/legacy mismatch s=" << s << " t=" << t;
      ASSERT_EQ(flat.PreQuery(s, t), index.PreQuery(s, t))
          << context << " PreQuery mismatch s=" << s << " t=" << t;
    }
  }
}

/// Runs a hybrid update stream through a DynamicSpcIndex, re-checking the
/// flat snapshot equivalence every few updates.
void RunUpdateStreamEquivalence(Graph graph, const std::string& family) {
  DynamicSpcIndex dyn(graph);
  ExpectFlatMatchesLegacy(dyn.graph(), dyn.index(), family + " initial");
  const std::vector<Update> stream = MakeHybridStream(graph, 12, 6, 77);
  size_t applied = 0;
  for (const Update& u : stream) {
    dyn.Apply(u);
    if (++applied % 3 == 0) {
      ExpectFlatMatchesLegacy(dyn.graph(), dyn.index(),
                              family + " after update " +
                                  std::to_string(applied));
    }
  }
  ExpectFlatMatchesLegacy(dyn.graph(), dyn.index(), family + " final");
}

TEST(FlatSpcIndexEquivalence, ErdosRenyiWithUpdates) {
  RunUpdateStreamEquivalence(GenerateErdosRenyi(48, 100, 11), "ER");
}

TEST(FlatSpcIndexEquivalence, BarabasiAlbertWithUpdates) {
  RunUpdateStreamEquivalence(GenerateBarabasiAlbert(56, 2, 12), "BA");
}

TEST(FlatSpcIndexEquivalence, WattsStrogatzWithUpdates) {
  RunUpdateStreamEquivalence(GenerateWattsStrogatz(48, 4, 0.1, 13), "WS");
}

TEST(FlatSpcIndexEquivalence, RmatWithUpdates) {
  RunUpdateStreamEquivalence(GenerateRmat(6, 160, 14), "RMAT");
}

TEST(FlatSpcIndexTest, SelfAndDisconnectedPairs) {
  Graph g(5);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);  // 3 and 4 isolated
  const SpcIndex index = BuildSpcIndex(g);
  const FlatSpcIndex flat(index);
  EXPECT_EQ(flat.Query(0, 0), (SpcResult{0, 1}));
  EXPECT_EQ(flat.Query(0, 2), (SpcResult{2, 1}));
  EXPECT_EQ(flat.Query(0, 3), (SpcResult{kInfDistance, 0}));
  EXPECT_EQ(flat.Query(3, 4), (SpcResult{kInfDistance, 0}));
}

TEST(FlatSpcIndexTest, QueryManyMatchesSingleAndParallel) {
  const Graph g = RandomGraph(80, 200, 21);
  const SpcIndex index = BuildSpcIndex(g);
  const FlatSpcIndex flat(index);
  std::vector<VertexPair> pairs;
  for (Vertex s = 0; s < g.NumVertices(); ++s) {
    for (Vertex t = 0; t < g.NumVertices(); t += 7) {
      pairs.emplace_back(s, t);
    }
  }
  const std::vector<SpcResult> serial = flat.QueryMany(pairs);
  ASSERT_EQ(serial.size(), pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    ASSERT_EQ(serial[i], index.Query(pairs[i].first, pairs[i].second))
        << "pair " << i;
  }
  const std::vector<SpcResult> parallel = flat.QueryManyParallel(pairs, 4);
  EXPECT_EQ(parallel, serial);
  // Degenerate batches.
  EXPECT_TRUE(flat.QueryMany(std::span<const VertexPair>{}).empty());
  EXPECT_TRUE(flat.QueryManyParallel(std::span<const VertexPair>{}, 8).empty());
}

TEST(FlatSpcIndexTest, OverflowEntriesUseSideTable) {
  // dist == kPackedDistMax is the overflow marker and counts beyond 29
  // bits never fit, so both must route through the side table and still
  // answer exactly.
  SpcIndex index(BuildOrdering(GenerateComplete(4)));
  const Rank h0 = 0;
  index.InsertLabel(index.VertexOf(1), LabelEntry{h0, 7, (1ULL << 40) + 3});
  index.InsertLabel(index.VertexOf(2),
                    LabelEntry{h0, static_cast<Distance>(kPackedDistMax), 5});
  index.InsertLabel(index.VertexOf(3), LabelEntry{h0, 2, 9});
  const FlatSpcIndex flat(index);
  EXPECT_FALSE(flat.wide_mode());
  EXPECT_EQ(flat.OverflowEntries(), 2u);
  const Vertex v1 = index.VertexOf(1);
  const Vertex v2 = index.VertexOf(2);
  const Vertex v3 = index.VertexOf(3);
  EXPECT_EQ(flat.Query(v1, v3), index.Query(v1, v3));
  EXPECT_EQ(flat.Query(v2, v3), index.Query(v2, v3));
  EXPECT_EQ(flat.Query(v1, v2), index.Query(v1, v2));
  EXPECT_EQ(flat.Query(v1, v3).count, ((1ULL << 40) + 3) * 9);
  EXPECT_EQ(flat.Query(v2, v3).dist, kPackedDistMax + 2);
}

TEST(FlatSpcIndexTest, UnpackRoundTripsExactly) {
  const Graph g = RandomGraph(40, 90, 31);
  const SpcIndex index = BuildSpcIndex(g);
  const FlatSpcIndex flat(index);
  const SpcIndex back = flat.Unpack();
  EXPECT_TRUE(back == index);
  EXPECT_TRUE(back.ValidateStructure().ok());
}

TEST(FlatSpcIndexTest, ArenaBytesBelowWideBytes) {
  const Graph g = RandomGraph(60, 150, 41);
  const SpcIndex index = BuildSpcIndex(g);
  const FlatSpcIndex flat(index);
  const IndexSizeStats stats = index.SizeStats();
  // The arena carries offsets + ranks on top of the packed entries, but on
  // any real label distribution still undercuts 16-byte entries.
  EXPECT_LT(flat.ArenaBytes(),
            stats.wide_bytes + stats.num_vertices * sizeof(uint64_t));
  EXPECT_EQ(flat.TotalEntries(), stats.total_entries);
}

TEST(FlatSpcIndexSerialization, ArenaRoundTrip) {
  const Graph g = RandomGraph(50, 120, 51);
  const SpcIndex index = BuildSpcIndex(g);
  const FlatSpcIndex flat(index);
  const auto loaded = ArenaRoundTrip(flat);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->TotalEntries(), flat.TotalEntries());
  EXPECT_EQ(loaded->OverflowEntries(), flat.OverflowEntries());
  for (Vertex s = 0; s < g.NumVertices(); ++s) {
    for (Vertex t = 0; t < g.NumVertices(); ++t) {
      ASSERT_EQ(loaded->Query(s, t), index.Query(s, t));
    }
  }
  EXPECT_TRUE(loaded->Unpack() == index);
}

TEST(FlatSpcIndexSerialization, ArenaRoundTripWithOverflow) {
  SpcIndex index(BuildOrdering(GeneratePath(3)));
  index.InsertLabel(index.VertexOf(1), LabelEntry{0, 4, (1ULL << 35)});
  const FlatSpcIndex flat(index);
  ASSERT_EQ(flat.OverflowEntries(), 1u);
  const auto loaded = ArenaRoundTrip(flat);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->OverflowEntries(), 1u);
  const Vertex v1 = index.VertexOf(1);
  const Vertex v0 = index.VertexOf(0);
  EXPECT_EQ(loaded->Query(v0, v1), index.Query(v0, v1));
  EXPECT_TRUE(loaded->Unpack() == index);
}

TEST(FlatSpcIndexSerialization, LoadRejectsCorruption) {
  auto image = std::make_shared<std::vector<uint8_t>>();
  ASSERT_TRUE(EncodeSnapshotArena(FlatSpcIndex(BuildSpcIndex(GeneratePath(9))),
                                  1, 0, image.get())
                  .ok());
  const auto load = [&](uint64_t size) {
    return MappedArena::FromBytes(image->data(), size, image, "test")
        .status();
  };
  ASSERT_TRUE(load(image->size()).ok());
  // Well-formed header, truncated body.
  EXPECT_TRUE(load(kSnapshotArenaAlign + 8).IsCorruption());
  // Bad magic.
  (*image)[0] ^= 0xFF;
  EXPECT_TRUE(load(image->size()).IsCorruption());
}

}  // namespace
}  // namespace dspc
