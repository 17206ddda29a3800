// Tests for the DynamicSpcIndex facade features beyond single updates:
// batch application with inverse-pair cancellation, parallel batch
// queries, the §6 lazy rebuild policy, and index adoption.

#include <gtest/gtest.h>

#include <string>

#include "dspc/core/dynamic_spc.h"
#include "dspc/core/flat_spc_index.h"
#include "dspc/core/hp_spc.h"
#include "dspc/graph/generators.h"
#include "dspc/graph/update_stream.h"
#include "test_util.h"

namespace dspc {
namespace {

using testing::ExpectIndexMatchesBfs;
using testing::RandomGraph;

TEST(ApplyBatchTest, EquivalentToSequential) {
  Graph g = RandomGraph(20, 36, 1);
  DynamicSpcIndex batched(g);
  DynamicSpcIndex sequential(g);
  const std::vector<Update> stream = MakeHybridStream(g, 15, 5, 2);
  batched.ApplyBatch(stream);
  for (const Update& u : stream) sequential.Apply(u);
  EXPECT_EQ(batched.graph().Edges(), sequential.graph().Edges());
  ExpectIndexMatchesBfs(batched.graph(), batched.index(), "batched");
}

TEST(ApplyBatchTest, CancelsInverseUpdatePairs) {
  Graph g = RandomGraph(16, 30, 3);
  DynamicSpcIndex dyn(g);
  // Find a non-edge.
  Vertex u = 0;
  Vertex v = 0;
  [&] {
    for (u = 0; u < 16; ++u) {
      for (v = u + 1; v < 16; ++v) {
        if (!dyn.graph().HasEdge(u, v)) return;
      }
    }
  }();
  const std::vector<Update> batch = {Update::Insert(u, v),
                                     Update::Delete(u, v)};
  const UpdateStats stats = dyn.ApplyBatch(batch);
  // Fully cancelled: nothing was applied, the graph is unchanged.
  EXPECT_FALSE(stats.applied);
  EXPECT_FALSE(dyn.graph().HasEdge(u, v));
  ExpectIndexMatchesBfs(dyn.graph(), dyn.index());
}

TEST(ApplyBatchTest, InterleavedPairsKeepNetEffect) {
  Graph g(6);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  DynamicSpcIndex dyn(g);
  // I-D-I on the same edge nets out to one insert.
  const std::vector<Update> batch = {
      Update::Insert(3, 4), Update::Delete(3, 4), Update::Insert(3, 4),
      Update::Delete(0, 1), Update::Insert(0, 1)};  // delete+reinsert cancels
  dyn.ApplyBatch(batch);
  EXPECT_TRUE(dyn.graph().HasEdge(3, 4));
  EXPECT_TRUE(dyn.graph().HasEdge(0, 1));
  ExpectIndexMatchesBfs(dyn.graph(), dyn.index());
}

TEST(BatchQueryTest, ParallelMatchesSerial) {
  const Graph g = GenerateBarabasiAlbert(300, 2, 5);
  DynamicSpcIndex dyn(g);
  Rng rng(6);
  std::vector<std::pair<Vertex, Vertex>> pairs(500);
  for (auto& p : pairs) {
    p.first = static_cast<Vertex>(rng.NextBounded(300));
    p.second = static_cast<Vertex>(rng.NextBounded(300));
  }
  const auto serial = dyn.BatchQuery(pairs, 1);
  const auto parallel = dyn.BatchQuery(pairs, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "i=" << i;
  }
  // Spot check against direct queries.
  for (size_t i = 0; i < pairs.size(); i += 37) {
    EXPECT_EQ(serial[i], dyn.Query(pairs[i].first, pairs[i].second));
  }
}

// Regression: out-of-range vertex ids used to index past the label and
// shard arrays (UB). The core layer answers them as disconnected; the
// service layer (spc_service_test.cc) rejects them as kInvalidArgument.
TEST(BatchQueryTest, OutOfRangeVertexIdsAnswerDisconnected) {
  const Graph g = GenerateBarabasiAlbert(40, 2, 8);
  const size_t n = g.NumVertices();
  DynamicSpcIndex dyn(g);
  const auto oob = static_cast<Vertex>(n + 3);
  const SpcResult disconnected{kInfDistance, 0};

  EXPECT_EQ(dyn.Query(oob, 0), disconnected);
  EXPECT_EQ(dyn.Query(0, oob), disconnected);
  EXPECT_EQ(dyn.Query(oob, kInvalidVertex), disconnected);
  EXPECT_EQ(dyn.QueryLive(oob, 0), disconnected);

  // Mixed batches answer valid pairs exactly and invalid ones as
  // disconnected, on both the serial and the pool-parallel fallback.
  std::vector<std::pair<Vertex, Vertex>> pairs(200, {oob, 1});
  for (size_t i = 0; i < pairs.size(); i += 3) {
    pairs[i] = {static_cast<Vertex>(i % n), static_cast<Vertex>((i * 7) % n)};
  }
  for (const unsigned threads : {1u, 4u}) {
    const auto results = dyn.BatchQuery(pairs, threads);
    ASSERT_EQ(results.size(), pairs.size());
    for (size_t i = 0; i < pairs.size(); ++i) {
      const auto [s, t] = pairs[i];
      const SpcResult want = (s < n && t < n)
                                 ? dyn.Query(s, t)
                                 : disconnected;
      EXPECT_EQ(results[i], want) << "threads=" << threads << " i=" << i;
    }
  }

  // Updates never invalidate the guarantee.
  const Edge e = SampleNonEdges(dyn.graph(), 1, 4).at(0);
  ASSERT_TRUE(dyn.InsertEdge(e.u, e.v).applied);
  EXPECT_EQ(dyn.Query(oob, oob), disconnected);
}

TEST(BatchQueryTest, LiveFallbackUsesSharedPool) {
  // Under kManual with nothing published every batch takes the live
  // path; exercising it twice ensures the lazily-spawned ThreadPool is
  // reused rather than respawned, and answers stay exact.
  DynamicSpcOptions options;
  options.snapshot.refresh = RefreshPolicy::kManual;
  const Graph g = GenerateBarabasiAlbert(200, 2, 12);
  DynamicSpcIndex dyn(g, options);
  Rng rng(13);
  std::vector<std::pair<Vertex, Vertex>> pairs(400);
  for (auto& p : pairs) {
    p.first = static_cast<Vertex>(rng.NextBounded(200));
    p.second = static_cast<Vertex>(rng.NextBounded(200));
  }
  const auto first = dyn.BatchQuery(pairs, 4);
  const auto second = dyn.BatchQuery(pairs, 4);
  ASSERT_EQ(first.size(), pairs.size());
  EXPECT_EQ(first, second);
  for (size_t i = 0; i < pairs.size(); i += 29) {
    EXPECT_EQ(first[i], dyn.Query(pairs[i].first, pairs[i].second));
  }
}

TEST(AdoptIndexTest, LoadedIndexServesUpdates) {
  const Graph g = RandomGraph(22, 44, 12);
  const SpcIndex built = BuildSpcIndex(g);
  const auto mapped = testing::ArenaRoundTrip(FlatSpcIndex(built));
  ASSERT_NE(mapped, nullptr);
  SpcIndex loaded = mapped->Unpack();
  EXPECT_TRUE(loaded == built);

  DynamicSpcIndex dyn(g, std::move(loaded));
  dyn.InsertEdge(0, 21);
  dyn.RemoveEdge(dyn.graph().Edges().front().u,
                 dyn.graph().Edges().front().v);
  ExpectIndexMatchesBfs(dyn.graph(), dyn.index());
}

TEST(FlatSnapshotTest, GenerationInvalidationAndLazyRebuild) {
  Graph g = RandomGraph(24, 50, 14);
  DynamicSpcOptions options;
  options.snapshot.rebuild_after_queries = 1;  // rebuild on first query
  DynamicSpcIndex dyn(g, options);

  // No snapshot yet; the first query builds it.
  EXPECT_FALSE(dyn.SnapshotFresh());
  EXPECT_EQ(dyn.SnapshotRebuilds(), 0u);
  const SpcResult before = dyn.Query(0, 23);
  EXPECT_TRUE(dyn.SnapshotFresh());
  EXPECT_EQ(dyn.SnapshotRebuilds(), 1u);
  EXPECT_EQ(before, dyn.index().Query(0, 23));

  // Further queries ride the snapshot without rebuilding.
  dyn.Query(1, 2);
  dyn.Query(3, 4);
  EXPECT_EQ(dyn.SnapshotRebuilds(), 1u);

  // An applied update invalidates; the next query rebuilds and agrees
  // with ground truth.
  const Edge fresh = SampleNonEdges(dyn.graph(), 1, 99).at(0);
  const uint64_t gen = dyn.Generation();
  ASSERT_TRUE(dyn.InsertEdge(fresh.u, fresh.v).applied);
  EXPECT_GT(dyn.Generation(), gen);
  EXPECT_FALSE(dyn.SnapshotFresh());
  const SpcResult after = dyn.Query(fresh.u, fresh.v);
  EXPECT_EQ(dyn.SnapshotRebuilds(), 2u);
  EXPECT_EQ(after, (SpcResult{1, 1}));
  ExpectIndexMatchesBfs(dyn.graph(), dyn.index());

  // A rejected duplicate insert does not invalidate.
  dyn.InsertEdge(fresh.u, fresh.v);
  EXPECT_TRUE(dyn.SnapshotFresh());
}

TEST(FlatSnapshotTest, StaleQueryThresholdAmortizesRebuilds) {
  Graph g = RandomGraph(20, 40, 15);
  DynamicSpcOptions options;
  options.snapshot.rebuild_after_queries = 3;
  DynamicSpcIndex dyn(g, options);
  // Two stale queries stay on the mutable index (and answer correctly);
  // the third pays the refresh.
  const SsspCounts truth = BfsCount(dyn.graph(), 0);
  EXPECT_EQ(dyn.Query(0, 5).dist, truth.dist[5]);
  EXPECT_EQ(dyn.Query(0, 6).dist, truth.dist[6]);
  EXPECT_EQ(dyn.SnapshotRebuilds(), 0u);
  EXPECT_FALSE(dyn.SnapshotFresh());
  EXPECT_EQ(dyn.Query(0, 7).dist, truth.dist[7]);
  EXPECT_EQ(dyn.SnapshotRebuilds(), 1u);
  EXPECT_TRUE(dyn.SnapshotFresh());
}

TEST(FlatSnapshotTest, BatchQueryRefreshesOnceAndMatchesLegacy) {
  Graph g = RandomGraph(40, 90, 16);
  DynamicSpcIndex dyn(g);
  dyn.InsertEdge(0, 39);
  std::vector<std::pair<Vertex, Vertex>> pairs;
  for (Vertex s = 0; s < 40; ++s) {
    for (Vertex t = 0; t < 40; t += 5) pairs.emplace_back(s, t);
  }
  const auto results = dyn.BatchQuery(pairs, 2);
  EXPECT_EQ(dyn.SnapshotRebuilds(), 1u);
  for (size_t i = 0; i < pairs.size(); ++i) {
    ASSERT_EQ(results[i], dyn.index().Query(pairs[i].first, pairs[i].second))
        << "pair " << i;
  }
  // A second batch on an unchanged graph reuses the snapshot.
  dyn.BatchQuery(pairs, 2);
  EXPECT_EQ(dyn.SnapshotRebuilds(), 1u);
}

TEST(FlatSnapshotTest, FlatSnapshotAccessorServesConcurrently) {
  Graph g = RandomGraph(30, 60, 17);
  DynamicSpcIndex dyn(g);
  const std::shared_ptr<const FlatSpcIndex> flat = dyn.FlatSnapshot();
  EXPECT_TRUE(dyn.SnapshotFresh());
  for (Vertex s = 0; s < 30; s += 3) {
    for (Vertex t = 0; t < 30; t += 3) {
      ASSERT_EQ(flat->Query(s, t), dyn.index().Query(s, t));
    }
  }
  // A held snapshot outlives later rebuilds: update, force a new
  // snapshot, and the old one still answers for its own generation.
  const SpcResult before = flat->Query(0, 29);
  const Edge fresh = SampleNonEdges(dyn.graph(), 1, 55).at(0);
  ASSERT_TRUE(dyn.InsertEdge(fresh.u, fresh.v).applied);
  const auto flat2 = dyn.FlatSnapshot();
  EXPECT_NE(flat.get(), flat2.get());
  EXPECT_EQ(flat->Query(0, 29), before);
}

TEST(FlatSnapshotTest, DisabledSnapshotStaysOnMutableIndex) {
  Graph g = RandomGraph(20, 40, 18);
  // kManual publishes only on an explicit refresh, so no query builds one.
  DynamicSpcOptions options;
  options.snapshot.refresh = RefreshPolicy::kManual;
  DynamicSpcIndex dyn(g, options);
  const SsspCounts truth = BfsCount(dyn.graph(), 0);
  for (Vertex t = 0; t < 20; ++t) {
    ASSERT_EQ(dyn.Query(0, t).dist, truth.dist[t]);
  }
  dyn.BatchQuery({{0, 1}, {2, 3}});
  EXPECT_EQ(dyn.SnapshotRebuilds(), 0u);
}

TEST(ManualRebuildTest, ResetsCountersAndStaysExact) {
  Graph g = RandomGraph(18, 30, 13);
  DynamicSpcIndex dyn(std::move(g));
  dyn.InsertEdge(0, 17);
  dyn.Rebuild();
  ExpectIndexMatchesBfs(dyn.graph(), dyn.index());
  // Rebuild also compacts away redundant labels accumulated by IncSPC.
  const SpcIndex fresh = BuildSpcIndex(dyn.graph());
  EXPECT_EQ(dyn.index().SizeStats().total_entries,
            fresh.SizeStats().total_entries);
}

}  // namespace
}  // namespace dspc
