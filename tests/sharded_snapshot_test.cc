// Shard-boundary correctness and the delta-rebuild protocol of the
// vertex-range-sharded FlatSpcIndex (DESIGN.md §8): every shard count
// must answer exactly like the unsharded snapshot and the mutable index
// (including endpoints in different shards and hubs in a third), clean
// shards must be adopted across snapshot generations by shared_ptr,
// zero-dirty refreshes must short-circuit to pure adoption, and layout
// changes (vertex additions, reorderings) must force a full rebuild.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dspc/common/label_codec.h"
#include "dspc/common/rng.h"
#include "dspc/common/thread_pool.h"
#include "dspc/core/dynamic_spc.h"
#include "dspc/core/flat_spc_index.h"
#include "dspc/core/hp_spc.h"
#include "dspc/core/snapshot_manager.h"
#include "dspc/graph/generators.h"
#include "dspc/graph/update_stream.h"
#include "test_util.h"

namespace dspc {
namespace {

using dspc::testing::ArenaRoundTrip;

TEST(ShardLayoutTest, PowerOfTwoWidthsCoverAllVertices) {
  EXPECT_EQ(FlatSpcIndex::ComputeShardLayout(0, 4).count, 0u);
  for (const size_t n : {1u, 5u, 48u, 100u, 4096u, 4100u}) {
    for (const size_t requested : {1u, 2u, 7u, 16u, 64u, 5000u}) {
      const FlatSpcIndex::ShardLayout layout =
          FlatSpcIndex::ComputeShardLayout(n, requested);
      ASSERT_GE(layout.count, 1u);
      ASSERT_LE(layout.count, n);
      // Contiguous, gap-free cover of [0, n).
      ASSERT_EQ(layout.BeginOf(0), 0u);
      for (size_t i = 0; i < layout.count; ++i) {
        ASSERT_LT(layout.BeginOf(i), layout.EndOf(i, n)) << "empty shard";
        if (i + 1 < layout.count) {
          ASSERT_EQ(layout.EndOf(i, n), layout.BeginOf(i + 1));
        }
      }
      ASSERT_EQ(layout.EndOf(layout.count - 1, n), n);
    }
  }
  // 16 shards over 4096 vertices is exactly 16 x 256.
  const auto even = FlatSpcIndex::ComputeShardLayout(4096, 16);
  EXPECT_EQ(even.count, 16u);
  EXPECT_EQ(even.shift, 8u);
}

TEST(ShardedFlatIndexTest, EveryShardCountMatchesMutableIndex) {
  const Graph g = GenerateBarabasiAlbert(96, 3, 17);
  const SpcIndex index = BuildSpcIndex(g);
  const FlatSpcIndex unsharded(index);
  for (const size_t shards : {1u, 2u, 3u, 7u, 16u, 64u, 96u, 1000u}) {
    const FlatSpcIndex flat(index, shards);
    ASSERT_EQ(flat.TotalEntries(), unsharded.TotalEntries());
    ASSERT_EQ(flat.NumVertices(), index.NumVertices());
    for (Vertex s = 0; s < g.NumVertices(); ++s) {
      for (Vertex t = 0; t < g.NumVertices(); ++t) {
        ASSERT_EQ(flat.Query(s, t), index.Query(s, t))
            << "shards=" << shards << " s=" << s << " t=" << t;
        ASSERT_EQ(flat.PreQuery(s, t), index.PreQuery(s, t))
            << "shards=" << shards << " s=" << s << " t=" << t;
      }
    }
  }
}

TEST(ShardedFlatIndexTest, CrossShardEndpointsWithHubInThirdShard) {
  // 12 vertices in 3 shards of 4. Vertex 5 is the highest-degree hub
  // (degree 4), so it takes rank 0; the 0--9 shortest path crosses from
  // shard 0 to shard 2 through the hub in shard 1.
  Graph g(12);
  g.AddEdge(0, 5);
  g.AddEdge(9, 5);
  g.AddEdge(1, 5);
  g.AddEdge(2, 5);
  const SpcIndex index = BuildSpcIndex(g);
  const FlatSpcIndex flat(index, 3);
  ASSERT_EQ(flat.NumShards(), 3u);
  ASSERT_EQ(flat.RankOf(5), 0u);
  ASSERT_NE(flat.ShardOf(0), flat.ShardOf(9));
  ASSERT_NE(flat.ShardOf(5), flat.ShardOf(0));
  ASSERT_NE(flat.ShardOf(5), flat.ShardOf(9));
  EXPECT_EQ(flat.Query(0, 9), (SpcResult{2, 1}));
  EXPECT_EQ(flat.Query(0, 2), (SpcResult{2, 1}));
  EXPECT_EQ(flat.Query(0, 11), (SpcResult{kInfDistance, 0}));
  // Two disjoint shortest paths via vertices in different shards.
  g.AddEdge(0, 8);
  g.AddEdge(8, 9);
  const SpcIndex index2 = BuildSpcIndex(g);
  const FlatSpcIndex flat2(index2, 3);
  EXPECT_EQ(flat2.Query(0, 9), (SpcResult{2, 2}));
}

TEST(ShardedFlatIndexTest, OverflowSideTableIsShardLocal) {
  // Overflow entries (dist at the marker, count beyond 29 bits) land in
  // per-shard side tables; cross-shard queries must chase each side's
  // own table, and the monolithic arena image must rebase the slots.
  SpcIndex index(BuildOrdering(GenerateComplete(8)));
  const Rank h0 = 0;
  index.InsertLabel(index.VertexOf(1), LabelEntry{h0, 7, (1ULL << 40) + 3});
  index.InsertLabel(index.VertexOf(7),
                    LabelEntry{h0, static_cast<Distance>(kPackedDistMax), 5});
  const FlatSpcIndex flat(index, 4);
  ASSERT_EQ(flat.NumShards(), 4u);
  ASSERT_FALSE(flat.wide_mode());
  ASSERT_EQ(flat.OverflowEntries(), 2u);
  for (Vertex s = 0; s < 8; ++s) {
    for (Vertex t = 0; t < 8; ++t) {
      ASSERT_EQ(flat.Query(s, t), index.Query(s, t)) << s << "," << t;
    }
  }
  const auto loaded = ArenaRoundTrip(flat);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->OverflowEntries(), 2u);
  for (Vertex s = 0; s < 8; ++s) {
    for (Vertex t = 0; t < 8; ++t) {
      ASSERT_EQ(loaded->Query(s, t), flat.Query(s, t)) << s << "," << t;
    }
  }
  EXPECT_TRUE(loaded->Unpack() == index);
}

TEST(ShardedFlatIndexTest, ShardedSaveLoadRoundTrip) {
  // Overflow entries in several shards: the image must rebase each
  // shard's local slots onto its one global side table.
  const Graph g = GenerateBarabasiAlbert(64, 2, 23);
  SpcIndex index = BuildSpcIndex(g);
  const FlatSpcIndex::ShardLayout layout =
      FlatSpcIndex::ComputeShardLayout(g.NumVertices(), 7);
  std::vector<size_t> overflow_shards;
  for (Vertex v = 0; v < g.NumVertices(); v += 3) {
    LabelEntry* top = index.FindLabel(v, 0);
    if (index.RankOf(v) == 0 || top == nullptr) continue;
    top->count = (uint64_t{1} << 40) + v;
    overflow_shards.push_back(v >> layout.shift);
  }
  const FlatSpcIndex flat(index, 7);
  ASSERT_GT(flat.NumShards(), 1u);
  ASSERT_EQ(flat.OverflowEntries(), overflow_shards.size());
  ASSERT_NE(overflow_shards.front(), overflow_shards.back());

  const auto loaded = ArenaRoundTrip(flat);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->NumShards(), 1u);  // persistence is shard-agnostic
  EXPECT_EQ(loaded->TotalEntries(), flat.TotalEntries());
  EXPECT_EQ(loaded->OverflowEntries(), flat.OverflowEntries());
  for (Vertex s = 0; s < g.NumVertices(); ++s) {
    for (Vertex t = 0; t < g.NumVertices(); ++t) {
      ASSERT_EQ(loaded->Query(s, t), flat.Query(s, t)) << s << "," << t;
    }
  }
  EXPECT_TRUE(loaded->Unpack() == index);
}

TEST(DeltaRebuildTest, CleanShardsAreAdoptedAcrossRefreshes) {
  DynamicSpcOptions options;
  options.snapshot.refresh = RefreshPolicy::kManual;
  options.snapshot.shards = 8;
  DynamicSpcIndex dyn(GenerateBarabasiAlbert(256, 2, 31), options);
  const auto pin1 = dyn.WaitForFreshSnapshot();
  ASSERT_TRUE(static_cast<bool>(pin1));
  const size_t shards = pin1->NumShards();
  ASSERT_GE(shards, 2u);
  // Every shard was packed from the full build at the same generation.
  for (size_t i = 0; i < shards; ++i) {
    EXPECT_EQ(pin1->ShardGeneration(i), pin1.generation);
  }

  // One local update: a leaf-to-leaf edge touches few label sets, so most
  // shards stay clean and must be adopted, not repacked.
  const Edge e = SampleNonEdges(dyn.graph(), 1, 5).at(0);
  ASSERT_TRUE(dyn.InsertEdge(e.u, e.v).applied);
  const auto pin2 = dyn.WaitForFreshSnapshot();
  ASSERT_TRUE(static_cast<bool>(pin2));
  ASSERT_GT(pin2.generation, pin1.generation);

  size_t adopted = 0;
  size_t repacked = 0;
  for (size_t i = 0; i < shards; ++i) {
    if (pin2->SharesShardWith(*pin1, i)) {
      ++adopted;
      EXPECT_EQ(pin2->ShardGeneration(i), pin1.generation);
    } else {
      ++repacked;
      EXPECT_EQ(pin2->ShardGeneration(i), pin2.generation);
    }
  }
  // The inserted edge's endpoints were certainly touched...
  EXPECT_FALSE(pin2->SharesShardWith(*pin1, pin2->ShardOf(e.u)));
  EXPECT_GE(repacked, 1u);
  // ...and a one-edge change must not dirty the whole 256-vertex index.
  EXPECT_GE(adopted, 1u);
  EXPECT_EQ(dyn.snapshots()->ShardsRepacked(), shards + repacked);
  EXPECT_EQ(dyn.snapshots()->ShardsAdopted(), adopted);

  // Both snapshots keep answering for their own generation, and the new
  // one reflects the insert.
  EXPECT_EQ(pin2->Query(e.u, e.v), (SpcResult{1, 1}));
  EXPECT_NE(pin1->Query(e.u, e.v), (SpcResult{1, 1}));
}

TEST(DeltaRebuildTest, ZeroDirtyRefreshShortCircuitsToAdoption) {
  // Driven directly through SnapshotManager with a scripted source: the
  // second refresh reports a newer generation with no dirty shard, which
  // must publish by adoption — same arenas, no repack, generation moves.
  const Graph g = GenerateBarabasiAlbert(64, 2, 41);
  const SpcIndex base = BuildSpcIndex(g);
  const size_t kShards = 4;
  uint64_t generation = 1;
  SnapshotManager mgr(
      [&](const FlatSpcIndex* prev) {
        FlatSpcIndex::IndexDelta delta;
        delta.generation = generation;
        delta.layout_stamp = 7;
        delta.num_vertices = base.NumVertices();
        delta.num_shards = kShards;
        if (prev == nullptr) {
          delta.full = true;
          delta.ordering = base.ordering();
          const auto layout = FlatSpcIndex::ComputeShardLayout(
              base.NumVertices(), kShards);
          for (size_t i = 0; i < layout.count; ++i) {
            delta.dirty.push_back(
                {i, base.CopyLabelRange(layout.BeginOf(i),
                                        layout.EndOf(i, base.NumVertices()))});
          }
        }
        return delta;
      },
      RefreshPolicy::kManual, 1);

  const auto pin1 = mgr.RefreshNow(generation);
  ASSERT_TRUE(static_cast<bool>(pin1));
  EXPECT_EQ(mgr.AdoptionPublishes(), 0u);

  generation = 2;
  const auto pin2 = mgr.RefreshNow(generation);
  ASSERT_TRUE(static_cast<bool>(pin2));
  EXPECT_EQ(pin2.generation, 2u);
  EXPECT_EQ(mgr.PublishedGeneration(), 2u);
  EXPECT_EQ(mgr.AdoptionPublishes(), 1u);
  EXPECT_EQ(mgr.ShardsAdopted(), pin1->NumShards());
  ASSERT_EQ(pin2->NumShards(), pin1->NumShards());
  for (size_t i = 0; i < pin1->NumShards(); ++i) {
    EXPECT_TRUE(pin2->SharesShardWith(*pin1, i)) << "shard " << i;
  }
  for (Vertex s = 0; s < g.NumVertices(); s += 3) {
    for (Vertex t = 0; t < g.NumVertices(); t += 5) {
      ASSERT_EQ(pin2->Query(s, t), base.Query(s, t));
    }
  }
}

TEST(DeltaRebuildTest, VertexAdditionForcesFullLayoutRebuild) {
  DynamicSpcOptions options;
  options.snapshot.refresh = RefreshPolicy::kManual;
  options.snapshot.shards = 4;
  DynamicSpcIndex dyn(GenerateBarabasiAlbert(63, 2, 47), options);
  const auto pin1 = dyn.WaitForFreshSnapshot();
  ASSERT_TRUE(static_cast<bool>(pin1));

  const Vertex v = dyn.AddVertex();
  ASSERT_TRUE(dyn.InsertEdge(v, 0).applied);
  const auto pin2 = dyn.WaitForFreshSnapshot();
  ASSERT_TRUE(static_cast<bool>(pin2));
  EXPECT_EQ(pin2->NumVertices(), pin1->NumVertices() + 1);
  EXPECT_NE(pin2->LayoutStamp(), pin1->LayoutStamp());
  EXPECT_EQ(pin2->Query(v, 0), (SpcResult{1, 1}));
  // Adoption across a layout change would serve truncated label runs;
  // the stamp mismatch must force every shard to repack.
  for (size_t i = 0; i < pin2->NumShards(); ++i) {
    EXPECT_FALSE(pin2->SharesShardWith(*pin1, i)) << "shard " << i;
    EXPECT_EQ(pin2->ShardGeneration(i), pin2.generation);
  }
}

TEST(DeltaRebuildTest, PublishedGenerationIsMonotone) {
  DynamicSpcOptions options;
  options.snapshot.refresh = RefreshPolicy::kManual;
  options.snapshot.shards = 8;
  DynamicSpcIndex dyn(GenerateBarabasiAlbert(96, 2, 53), options);
  uint64_t last = 0;
  for (int step = 0; step < 12; ++step) {
    const auto edges = SampleNonEdges(dyn.graph(), 1, 100 + step);
    ASSERT_TRUE(dyn.InsertEdge(edges[0].u, edges[0].v).applied);
    const auto pin = dyn.WaitForFreshSnapshot();
    ASSERT_TRUE(static_cast<bool>(pin));
    ASSERT_GT(pin.generation, last);
    last = pin.generation;
    ASSERT_EQ(dyn.snapshots()->PublishedGeneration(), last);
  }
}

TEST(ShardedServingTest, ParallelRepackMatchesSerial) {
  // The same delta packed over a 4-thread pool and serially must produce
  // identical answers (shard packing is deterministic).
  const Graph g = GenerateRmat(8, 700, 59);
  const SpcIndex index = BuildSpcIndex(g);
  ThreadPool pool(4);
  const FlatSpcIndex serial(index, 16);
  const FlatSpcIndex parallel(index, 16, &pool);
  ASSERT_EQ(serial.NumShards(), parallel.NumShards());
  ASSERT_EQ(serial.TotalEntries(), parallel.TotalEntries());
  for (Vertex s = 0; s < g.NumVertices(); s += 2) {
    for (Vertex t = 0; t < g.NumVertices(); t += 3) {
      ASSERT_EQ(serial.Query(s, t), parallel.Query(s, t)) << s << "," << t;
    }
  }
}

TEST(ShardedServingTest, FacadeServesExactlyUnderShardedBackground) {
  // End-to-end: background policy, sharded snapshots, a stream of
  // updates; after quiescing, the snapshot must agree with the mutable
  // index everywhere.
  DynamicSpcOptions options;
  options.snapshot.refresh = RefreshPolicy::kBackground;
  options.snapshot.rebuild_after_queries = 2;
  options.snapshot.shards = 7;
  options.snapshot.rebuild_threads = 2;
  DynamicSpcIndex dyn(GenerateBarabasiAlbert(80, 2, 61), options);
  Rng rng(61);
  for (int step = 0; step < 25; ++step) {
    if (step % 5 == 4) {
      const auto edges = dyn.graph().Edges();
      const Edge e = edges[rng.NextBounded(edges.size())];
      dyn.RemoveEdge(e.u, e.v);
    } else {
      const auto candidates = SampleNonEdges(dyn.graph(), 1, 200 + step);
      if (!candidates.empty()) {
        dyn.InsertEdge(candidates[0].u, candidates[0].v);
      }
    }
    for (int q = 0; q < 3; ++q) {
      dyn.Query(static_cast<Vertex>(rng.NextBounded(80)),
                static_cast<Vertex>(rng.NextBounded(80)));
    }
  }
  const auto pin = dyn.WaitForFreshSnapshot();
  ASSERT_TRUE(static_cast<bool>(pin));
  ASSERT_EQ(pin.generation, dyn.Generation());
  for (Vertex s = 0; s < 80; ++s) {
    for (Vertex t = 0; t < 80; ++t) {
      ASSERT_EQ(pin->Query(s, t), dyn.index().Query(s, t))
          << "s=" << s << " t=" << t;
    }
  }
  // No adoption assertion here: on a graph this small a burst of updates
  // between two background rebuilds can legitimately dirty every shard.
  // Adoption is pinned down deterministically in DeltaRebuildTest.
}

}  // namespace
}  // namespace dspc
