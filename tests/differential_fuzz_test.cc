// Differential fuzz for dynamic maintenance + snapshot serving: seeded
// randomized mixed insert/delete/query streams on small BA / R-MAT
// graphs, with every answer cross-checked against the BiBFS baseline on
// the current graph AND (periodically) against a from-scratch rebuilt
// index. Queries are deliberately landed exactly on the snapshot
// staleness boundary (budget-1 stale rides vs. the budget-crossing query
// that pays or schedules the rebuild), for every RefreshPolicy.
//
// Under RefreshPolicy::kBackground answers are bounded-stale, so the
// check is generation-aware: a full graph history (generation -> graph)
// is replayed alongside the index, un-quiesced answers must match BiBFS
// on *some* recorded generation, and pinned snapshots must match BiBFS on
// exactly the generation they claim.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <unordered_map>
#include <vector>

#include "dspc/api/spc_service.h"
#include "dspc/baseline/bfs_counting.h"
#include "dspc/baseline/bibfs_counting.h"
#include "dspc/baseline/dijkstra_counting.h"
#include "dspc/common/rng.h"
#include "dspc/core/directed_spc.h"
#include "dspc/core/dynamic_spc.h"
#include "dspc/core/flat_spc_index.h"
#include "dspc/core/hp_spc.h"
#include "dspc/core/parallel_build.h"
#include "dspc/core/weighted_spc.h"
#include "dspc/graph/generators.h"
#include "dspc/graph/update_stream.h"

namespace dspc {
namespace {

constexpr size_t kStaleBudget = 3;

/// Drives one randomized stream and checks every answer differentially.
class DifferentialStream {
 public:
  DifferentialStream(const Graph& start, RefreshPolicy policy, uint64_t seed,
                     size_t snapshot_shards = 0,
                     ParallelBuildOptions build = {},
                     size_t rebuild_every = 0)
      : policy_(policy), build_(build), rebuild_every_(rebuild_every),
        rng_(seed) {
    DynamicSpcOptions options;
    options.snapshot.refresh = policy;
    options.snapshot.rebuild_after_queries = kStaleBudget;
    options.snapshot.shards = snapshot_shards;
    options.build = build;
    dyn_ = std::make_unique<DynamicSpcIndex>(start, options);
    history_.emplace(dyn_->Generation(), dyn_->graph());
  }

  void Run(int steps) {
    for (int step = 0; step < steps && !::testing::Test::HasFatalFailure();
         ++step) {
      const double dice = rng_.NextDouble();
      if (dice < 0.40) {
        InsertRandomNonEdge();
      } else if (dice < 0.65) {
        DeleteRandomEdge();
      } else if (dice < 0.70) {
        AddAndConnectVertex();
      } else {
        QueryBurst("burst step " + std::to_string(step));
      }
      if (step % 30 == 29) CrossCheckAgainstRebuild(step);
    }
    ASSERT_TRUE(dyn_->index().ValidateStructure().ok());
    CrossCheckAgainstRebuild(steps);
  }

 private:
  size_t NumVertices() const { return dyn_->graph().NumVertices(); }

  Vertex RandomVertex() {
    return static_cast<Vertex>(rng_.NextBounded(NumVertices()));
  }

  void RecordGeneration() {
    history_.emplace(dyn_->Generation(), dyn_->graph());
  }

  /// Records an applied edge update; every rebuild_every_-th one is
  /// followed by a full Rebuild() (a new generation over the same graph).
  void RecordAppliedUpdate() {
    RecordGeneration();
    if (rebuild_every_ != 0 && ++applied_updates_ % rebuild_every_ == 0) {
      dyn_->Rebuild();
      RecordGeneration();
    }
  }

  /// Checks one query answer differentially against BiBFS. Sync/manual
  /// answers must match the current graph exactly. Background answers are
  /// validated twice: the pinned snapshot against the generation it
  /// claims, and the facade Query against the recorded history
  /// (membership: the answer belongs to some real generation).
  void CheckQuery(Vertex s, Vertex t, const std::string& ctx) {
    if (policy_ != RefreshPolicy::kBackground) {
      const SpcResult got = dyn_->Query(s, t);
      const SpcResult want = BiBfsCountPair(dyn_->graph(), s, t);
      ASSERT_EQ(got.dist, want.dist) << ctx << " s=" << s << " t=" << t;
      ASSERT_EQ(got.count, want.count) << ctx << " s=" << s << " t=" << t;
      return;
    }

    // Pinned snapshot: answers must be exact for the claimed generation.
    if (const auto pin = dyn_->PinSnapshot();
        pin && s < pin->NumVertices() && t < pin->NumVertices()) {
      const auto it = history_.find(pin.generation);
      ASSERT_NE(it, history_.end())
          << ctx << " pinned unknown generation " << pin.generation;
      const SpcResult got = pin->Query(s, t);
      const SpcResult want = BiBfsCountPair(it->second, s, t);
      ASSERT_EQ(got.dist, want.dist)
          << ctx << " pinned gen=" << pin.generation << " s=" << s
          << " t=" << t;
      ASSERT_EQ(got.count, want.count)
          << ctx << " pinned gen=" << pin.generation << " s=" << s
          << " t=" << t;
    }

    // Facade query: bounded-stale, so membership over the history.
    const SpcResult got = dyn_->Query(s, t);
    for (const auto& [gen, graph] : history_) {
      if (s >= graph.NumVertices() || t >= graph.NumVertices()) continue;
      if (BiBfsCountPair(graph, s, t) == got) return;
    }
    FAIL() << ctx << " background answer {" << got.dist << "," << got.count
           << "} for s=" << s << " t=" << t
           << " matches no recorded generation";
  }

  /// Lands queries exactly on the staleness boundary: after an update the
  /// snapshot is stale, so the first budget-1 queries ride the old state
  /// (mutable index under sync/manual, stale snapshot under background)
  /// and the budget-th query crosses the threshold and pays/schedules the
  /// rebuild. Every one of them is answer-checked.
  void BoundaryProbe(const std::string& ctx) {
    for (size_t q = 0; q + 1 < kStaleBudget; ++q) {
      CheckQuery(RandomVertex(), RandomVertex(),
                 ctx + " stale-ride " + std::to_string(q));
      if (::testing::Test::HasFatalFailure()) return;
    }
    CheckQuery(RandomVertex(), RandomVertex(), ctx + " budget-crossing");
  }

  void InsertRandomNonEdge() {
    const Vertex u = RandomVertex();
    const Vertex v = RandomVertex();
    if (u == v || dyn_->graph().HasEdge(u, v)) return;
    ASSERT_TRUE(dyn_->InsertEdge(u, v).applied);
    RecordAppliedUpdate();
    BoundaryProbe("after insert");
  }

  void DeleteRandomEdge() {
    const std::vector<Edge> edges = dyn_->graph().Edges();
    if (edges.empty()) return;
    const Edge e = edges[rng_.NextBounded(edges.size())];
    ASSERT_TRUE(dyn_->RemoveEdge(e.u, e.v).applied);
    RecordAppliedUpdate();
    BoundaryProbe("after delete");
  }

  /// Vertex addition makes stale snapshots *narrower* than the graph —
  /// queries on the new vertex must fall through to the mutable index.
  void AddAndConnectVertex() {
    const Vertex v = dyn_->AddVertex();
    RecordGeneration();
    const Vertex u = static_cast<Vertex>(rng_.NextBounded(v));
    CheckQuery(v, u, "fresh isolated vertex");
    if (::testing::Test::HasFatalFailure()) return;
    ASSERT_TRUE(dyn_->InsertEdge(v, u).applied);
    RecordAppliedUpdate();
    BoundaryProbe("after vertex attach");
  }

  void QueryBurst(const std::string& ctx) {
    for (int q = 0; q < 4; ++q) {
      CheckQuery(RandomVertex(), RandomVertex(), ctx);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }

  /// The incremental index vs. reconstruction: quiesce the snapshot, then
  /// compare facade answers, the (sharded) flat snapshot, an unsharded
  /// snapshot of the same rebuilt index, and a from-scratch HP-SPC build
  /// on a sample of pairs (plus BiBFS as the independent referee).
  void CrossCheckAgainstRebuild(int step) {
    const auto pin = dyn_->WaitForFreshSnapshot();
    ASSERT_TRUE(static_cast<bool>(pin));
    ASSERT_EQ(pin.generation, dyn_->Generation());
    const SpcIndex rebuilt = BuildSpcIndex(dyn_->graph());
    // The parallel builder must reproduce the sequential rebuild label
    // for label on the evolved graph, whatever this stream's options.
    const SpcIndex parallel =
        BuildSpcIndexParallel(dyn_->graph(), OrderingOptions{}, build_);
    ASSERT_TRUE(parallel == rebuilt)
        << "parallel rebuild diverged from sequential at step " << step;
    const FlatSpcIndex unsharded(rebuilt);
    for (int i = 0; i < 40; ++i) {
      const Vertex s = RandomVertex();
      const Vertex t = RandomVertex();
      const SpcResult truth = BiBfsCountPair(dyn_->graph(), s, t);
      const SpcResult from_scratch = rebuilt.Query(s, t);
      const SpcResult maintained = dyn_->Query(s, t);
      const SpcResult snapshot = pin->Query(s, t);
      ASSERT_EQ(from_scratch, truth)
          << "rebuild disagrees with BiBFS at step " << step << " s=" << s
          << " t=" << t;
      ASSERT_EQ(maintained, truth)
          << "maintained index disagrees with BiBFS at step " << step
          << " s=" << s << " t=" << t;
      ASSERT_EQ(snapshot, truth)
          << "fresh snapshot disagrees with BiBFS at step " << step
          << " s=" << s << " t=" << t;
      ASSERT_EQ(unsharded.Query(s, t), truth)
          << "unsharded snapshot disagrees with BiBFS at step " << step
          << " s=" << s << " t=" << t;
    }
  }

  const RefreshPolicy policy_;
  const ParallelBuildOptions build_;
  const size_t rebuild_every_;
  size_t applied_updates_ = 0;
  Rng rng_;
  std::unique_ptr<DynamicSpcIndex> dyn_;
  /// Graph state at every generation the index has passed through.
  std::unordered_map<uint64_t, Graph> history_;
};

// (policy, seed, snapshot shard count). The shard sweep covers the
// monolithic layout (1), uneven small counts (2, 7), and more shards
// than some test graphs have vertices (64); every answer is checked
// against BiBFS and the unsharded snapshot of a from-scratch rebuild.
using FuzzParam = std::tuple<RefreshPolicy, uint64_t, size_t>;

class DifferentialFuzzTest : public ::testing::TestWithParam<FuzzParam> {};

std::string FuzzParamName(const ::testing::TestParamInfo<FuzzParam>& info) {
  const RefreshPolicy policy = std::get<0>(info.param);
  std::string name = policy == RefreshPolicy::kSync         ? "Sync"
                     : policy == RefreshPolicy::kBackground ? "Background"
                                                            : "Manual";
  return name + "Seed" + std::to_string(std::get<1>(info.param)) + "Shards" +
         std::to_string(std::get<2>(info.param));
}

TEST_P(DifferentialFuzzTest, BaStream) {
  const auto [policy, seed, shards] = GetParam();
  DifferentialStream stream(GenerateBarabasiAlbert(48, 2, seed), policy, seed,
                            shards);
  stream.Run(90);
}

TEST_P(DifferentialFuzzTest, RmatStream) {
  const auto [policy, seed, shards] = GetParam();
  DifferentialStream stream(GenerateRmat(6, 150, seed), policy, seed, shards);
  stream.Run(90);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DifferentialFuzzTest,
    ::testing::Combine(::testing::Values(RefreshPolicy::kSync,
                                         RefreshPolicy::kBackground,
                                         RefreshPolicy::kManual),
                       ::testing::Values(1001u, 2002u),
                       ::testing::Values(1u, 2u, 7u, 64u)),
    FuzzParamName);

// Parallel-build fuzz sweep: the same randomized update streams, but
// every 6 applied updates the stream calls Rebuild(), and every full
// rebuild — construction included — runs through the parallel builder at the
// sweep's thread count and batch strategy. Every answer is still checked
// bit-for-bit against BiBFS, and every periodic cross-check asserts the
// parallel rebuild is label-identical to a sequential one on the evolved
// graph (which by then has grown vertices and drifted far from the
// seed graph).
using ParallelFuzzParam = std::tuple<unsigned, BuildBatchStrategy, uint64_t>;

class ParallelBuildFuzzTest
    : public ::testing::TestWithParam<ParallelFuzzParam> {};

std::string ParallelFuzzParamName(
    const ::testing::TestParamInfo<ParallelFuzzParam>& info) {
  const char* strategy = std::get<1>(info.param) == BuildBatchStrategy::kAuto
                             ? "Auto"
                         : std::get<1>(info.param) ==
                                 BuildBatchStrategy::kRankWindow
                             ? "RankWindow"
                             : "Frontier";
  return std::string(strategy) + "T" + std::to_string(std::get<0>(info.param)) +
         "Seed" + std::to_string(std::get<2>(info.param));
}

TEST_P(ParallelBuildFuzzTest, SyncRmatStream) {
  const auto [threads, strategy, seed] = GetParam();
  ParallelBuildOptions build;
  build.threads = threads;
  build.batch_strategy = strategy;
  DifferentialStream stream(GenerateRmat(6, 150, seed), RefreshPolicy::kSync,
                            seed, /*snapshot_shards=*/2, build,
                            /*rebuild_every=*/6);
  stream.Run(70);
}

TEST_P(ParallelBuildFuzzTest, BackgroundBaStream) {
  const auto [threads, strategy, seed] = GetParam();
  ParallelBuildOptions build;
  build.threads = threads;
  build.batch_strategy = strategy;
  DifferentialStream stream(GenerateBarabasiAlbert(48, 2, seed),
                            RefreshPolicy::kBackground, seed,
                            /*snapshot_shards=*/7, build,
                            /*rebuild_every=*/6);
  stream.Run(70);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ParallelBuildFuzzTest,
    ::testing::Combine(::testing::Values(3u, 8u),
                       ::testing::Values(BuildBatchStrategy::kAuto,
                                         BuildBatchStrategy::kRankWindow,
                                         BuildBatchStrategy::kFrontier),
                       ::testing::Values(11u)),
    ParallelFuzzParamName);

// --- directed and weighted streams (paper Appendix C) ----------------------
//
// The maintenance core (core/label_maintenance.h) behind the directed and
// weighted indexes, on seeded random streams: the label structure is
// checked after every update, all pairs against a BFS or Dijkstra oracle
// every kOracleEvery updates, and at the end every answer against a
// Rebuild() of the evolved graph.

constexpr int kAppendixSteps = 300;
constexpr int kOracleEvery = 25;

template <typename Index, typename Oracle>
void ExpectAllPairs(const Index& index, Oracle oracle, const std::string& ctx) {
  const size_t n = index.graph().NumVertices();
  for (Vertex s = 0; s < n; ++s) {
    for (Vertex t = 0; t < n; ++t) {
      ASSERT_EQ(index.Query(s, t), oracle(s, t))
          << ctx << " s=" << s << " t=" << t;
    }
  }
}

/// Rebuilds `index` from its graph and expects every answer unchanged.
template <typename Index>
void ExpectRebuildAgrees(Index* index) {
  const size_t n = index->graph().NumVertices();
  std::vector<SpcResult> maintained;
  for (Vertex s = 0; s < n; ++s) {
    for (Vertex t = 0; t < n; ++t) maintained.push_back(index->Query(s, t));
  }
  index->Rebuild();
  ASSERT_TRUE(index->ValidateStructure().ok());
  for (Vertex s = 0; s < n; ++s) {
    for (Vertex t = 0; t < n; ++t) {
      ASSERT_EQ(maintained[s * n + t], index->Query(s, t))
          << "maintained vs rebuilt s=" << s << " t=" << t;
    }
  }
}

class DirectedDifferentialFuzzTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DirectedDifferentialFuzzTest, RmatStream) {
  const uint64_t seed = GetParam();
  DynamicDirectedSpcIndex index(GenerateRmatDigraph(6, 200, seed));
  Rng rng(seed ^ 0xD16Au);
  const auto random_vertex = [&] {
    return static_cast<Vertex>(rng.NextBounded(index.graph().NumVertices()));
  };
  for (int step = 1; step <= kAppendixSteps; ++step) {
    const std::string ctx = "step " + std::to_string(step);
    const double dice = rng.NextDouble();
    if (dice < 0.45) {
      const Vertex u = random_vertex();
      const Vertex v = random_vertex();
      if (u != v && !index.graph().HasArc(u, v)) {
        ASSERT_TRUE(index.InsertArc(u, v).applied) << ctx;
      }
    } else if (dice < 0.88) {
      const std::vector<Edge> arcs = index.graph().Arcs();
      if (arcs.empty()) continue;
      const Edge e = arcs[rng.NextBounded(arcs.size())];
      ASSERT_TRUE(index.RemoveArc(e.u, e.v).applied) << ctx;
    } else if (dice < 0.94) {
      // A new vertex, wired in both directions.
      const Vertex v = index.AddVertex();
      ASSERT_TRUE(
          index.InsertArc(v, static_cast<Vertex>(rng.NextBounded(v))).applied)
          << ctx;
      ASSERT_TRUE(
          index.InsertArc(static_cast<Vertex>(rng.NextBounded(v)), v).applied)
          << ctx;
    } else {
      index.RemoveVertex(random_vertex());
    }
    const Status status = index.ValidateStructure();
    ASSERT_TRUE(status.ok()) << ctx << ": " << status.ToString();
    if (step % kOracleEvery == 0) {
      ExpectAllPairs(
          index,
          [&](Vertex s, Vertex t) { return BfsCountPair(index.graph(), s, t); },
          ctx);
      if (HasFatalFailure()) return;
    }
  }
  ExpectRebuildAgrees(&index);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DirectedDifferentialFuzzTest,
                         ::testing::Values(1u, 2u, 3u, 4u));

class WeightedDifferentialFuzzTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WeightedDifferentialFuzzTest, RmatStream) {
  const uint64_t seed = GetParam();
  DynamicWeightedSpcIndex index(
      AttachRandomWeights(GenerateRmat(6, 160, seed), 1, 8, seed));
  Rng rng(seed ^ 0x3E16u);
  const auto random_weight = [&] {
    return static_cast<Weight>(1 + rng.NextBounded(8));
  };
  for (int step = 1; step <= kAppendixSteps; ++step) {
    const std::string ctx = "step " + std::to_string(step);
    const size_t n = index.graph().NumVertices();
    const std::vector<WeightedEdge> edges = index.graph().Edges();
    const double dice = rng.NextDouble();
    if (dice < 0.30 || edges.empty()) {
      const auto u = static_cast<Vertex>(rng.NextBounded(n));
      const auto v = static_cast<Vertex>(rng.NextBounded(n));
      if (u != v && !index.graph().HasEdge(u, v)) {
        ASSERT_TRUE(index.InsertEdge(u, v, random_weight()).applied) << ctx;
      }
    } else if (dice < 0.95) {
      const WeightedEdge e = edges[rng.NextBounded(edges.size())];
      if (dice < 0.55) {
        ASSERT_TRUE(index.RemoveEdge(e.u, e.v).applied) << ctx;
      } else if (dice < 0.75) {
        if (e.w == 1) continue;
        const auto w = static_cast<Weight>(1 + rng.NextBounded(e.w - 1));
        ASSERT_TRUE(index.DecreaseWeight(e.u, e.v, w).applied) << ctx;
      } else {
        ASSERT_TRUE(index.IncreaseWeight(e.u, e.v, e.w + random_weight())
                        .applied)
            << ctx;
      }
    } else {
      const Vertex v = index.AddVertex();
      ASSERT_TRUE(index
                      .InsertEdge(v, static_cast<Vertex>(rng.NextBounded(v)),
                                  random_weight())
                      .applied)
          << ctx;
    }
    const Status status = index.ValidateStructure();
    ASSERT_TRUE(status.ok()) << ctx << ": " << status.ToString();
    if (step % kOracleEvery == 0) {
      ExpectAllPairs(
          index,
          [&](Vertex s, Vertex t) {
            return DijkstraCountPair(index.graph(), s, t);
          },
          ctx);
      if (HasFatalFailure()) return;
    }
  }
  ExpectRebuildAgrees(&index);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WeightedDifferentialFuzzTest,
                         ::testing::Values(1u, 2u, 3u, 4u));

// The boundary bookkeeping itself, deterministically: exactly budget-1
// stale queries ride without a rebuild, the budget-th rebuilds (sync) or
// schedules (background), and manual never rebuilds on its own.
TEST(SnapshotBoundaryTest, SyncRebuildLandsExactlyOnBudget) {
  DynamicSpcOptions options;
  options.snapshot.rebuild_after_queries = kStaleBudget;
  DynamicSpcIndex dyn(GenerateBarabasiAlbert(40, 2, 7), options);
  // Warm a fresh snapshot, then invalidate it.
  ASSERT_NE(dyn.FlatSnapshot(), nullptr);
  const size_t warm = dyn.SnapshotRebuilds();
  const Edge e = SampleNonEdges(dyn.graph(), 1, 8).at(0);
  ASSERT_TRUE(dyn.InsertEdge(e.u, e.v).applied);

  for (size_t q = 0; q + 1 < kStaleBudget; ++q) {
    dyn.Query(0, 1);
    EXPECT_EQ(dyn.SnapshotRebuilds(), warm) << "stale ride " << q;
    EXPECT_FALSE(dyn.SnapshotFresh());
  }
  dyn.Query(0, 1);  // the budget-crossing query pays the rebuild
  EXPECT_EQ(dyn.SnapshotRebuilds(), warm + 1);
  EXPECT_TRUE(dyn.SnapshotFresh());
}

TEST(SnapshotBoundaryTest, ManualNeverRebuildsOnQueries) {
  DynamicSpcOptions options;
  options.snapshot.refresh = RefreshPolicy::kManual;
  options.snapshot.rebuild_after_queries = 1;
  DynamicSpcIndex dyn(GenerateBarabasiAlbert(30, 2, 9), options);
  for (int i = 0; i < 10; ++i) dyn.Query(0, static_cast<Vertex>(i));
  EXPECT_EQ(dyn.SnapshotRebuilds(), 0u);
  // Explicit refresh publishes; queries then serve it untouched.
  ASSERT_NE(dyn.FlatSnapshot(), nullptr);
  EXPECT_EQ(dyn.SnapshotRebuilds(), 1u);
  EXPECT_TRUE(dyn.SnapshotFresh());
  dyn.Query(1, 2);
  EXPECT_EQ(dyn.SnapshotRebuilds(), 1u);
}

TEST(SnapshotBoundaryTest, BackgroundPublishesWithoutBlockingQueries) {
  DynamicSpcOptions options;
  options.snapshot.refresh = RefreshPolicy::kBackground;
  options.snapshot.rebuild_after_queries = 1;
  DynamicSpcIndex dyn(GenerateBarabasiAlbert(40, 2, 11), options);
  // Eager initial publish.
  EXPECT_GE(dyn.SnapshotRebuilds(), 1u);
  const auto pin0 = dyn.PinSnapshot();
  ASSERT_TRUE(static_cast<bool>(pin0));
  EXPECT_EQ(pin0.generation, dyn.Generation());

  const Edge e = SampleNonEdges(dyn.graph(), 1, 12).at(0);
  ASSERT_TRUE(dyn.InsertEdge(e.u, e.v).applied);
  // Queries keep answering immediately from the retired-or-current
  // snapshot; the publish catches up asynchronously.
  for (int i = 0; i < 5; ++i) dyn.Query(0, 1);
  const auto fresh = dyn.WaitForFreshSnapshot();
  ASSERT_TRUE(static_cast<bool>(fresh));
  EXPECT_EQ(fresh.generation, dyn.Generation());
  EXPECT_EQ(fresh->Query(e.u, e.v), (SpcResult{1, 1}));
  // The old pin still answers for its own (pre-insert) generation.
  EXPECT_NE(pin0->Query(e.u, e.v), (SpcResult{1, 1}));
}

// --- service-layer token fuzz (DESIGN.md §9) --------------------------------
//
// Randomized interleaving of ApplyUpdates (WriteTokens) and reads across
// the whole consistency lattice under RefreshPolicy::kBackground, where
// the background worker publishes snapshots at arbitrary moments. Every
// response is generation-tagged, so the check is exact, not membership:
// the answer must equal BiBFS on precisely the graph recorded for
// response.generation, and the response generation must honor the read's
// min_generation / max_lag / freshness constraints.
class ServiceTokenFuzz {
 public:
  ServiceTokenFuzz(Graph start, uint64_t seed, size_t shards,
                   bool cached = false)
      : rng_(seed), cached_(cached) {
    DynamicSpcOptions options;
    options.snapshot.refresh = RefreshPolicy::kBackground;
    options.snapshot.rebuild_after_queries = 2;
    options.snapshot.shards = shards;
    if (cached) {
      // Small capacity so the stream also exercises eviction and
      // supersede paths, not just clean hits.
      options.pair_cache.enabled = true;
      options.pair_cache.capacity = 512;
    }
    service_ = std::make_unique<SpcService>(std::move(start), options);
    history_.emplace(service_->Generation(), service_->engine().graph());
    tokens_.push_back({service_->Generation()});
  }

  void Run(int steps) {
    for (int step = 0; step < steps && !::testing::Test::HasFatalFailure();
         ++step) {
      const double dice = rng_.NextDouble();
      if (dice < 0.30) {
        ApplySingle(Kind::kInsert);
      } else if (dice < 0.50) {
        ApplySingle(Kind::kDelete);
      } else if (dice < 0.65) {
        ApplyInsertBatch(step);
      } else if (dice < 0.70) {
        AddVertex();
      } else {
        ReadProbes("step " + std::to_string(step));
      }
    }
    // Final barrier: the newest token must be waitable, and a kSnapshot
    // read with it must then serve exactly the final graph.
    const WriteToken last = tokens_.back();
    ASSERT_TRUE(service_->WaitForSnapshot(last).ok());
    ReadOptions snap;
    snap.consistency = Consistency::kSnapshot;
    snap.min_generation = last.generation;
    for (int i = 0; i < 10; ++i) {
      const Vertex s = RandomVertex();
      const Vertex t = RandomVertex();
      const auto resp = service_->Query(s, t, snap);
      ASSERT_TRUE(resp.ok()) << resp.status().ToString();
      CheckExact(*resp, s, t, "final barrier");
    }
    if (cached_) CheckCachedAgainstUncached(snap);
  }

 private:
  using Kind = Update::Kind;

  size_t NumVertices() const { return service_->NumVertices(); }

  Vertex RandomVertex() {
    return static_cast<Vertex>(rng_.NextBounded(NumVertices()));
  }

  void Record(WriteToken token) {
    history_.emplace(token.generation, service_->engine().graph());
    tokens_.push_back(token);
  }

  void ApplySingle(Kind kind) {
    Update update;
    if (kind == Kind::kInsert) {
      const Vertex u = RandomVertex();
      const Vertex v = RandomVertex();
      if (u == v) return;
      if (service_->engine().graph().HasEdge(u, v)) {
        // Duplicate insert: the WriteReport must say no-op and the
        // generation (and therefore the token) must not advance.
        const uint64_t before = service_->Generation();
        const Update dup = Update::Insert(u, v);
        const auto resp = service_->ApplyUpdates({&dup, 1});
        ASSERT_TRUE(resp.ok()) << resp.status().ToString();
        ASSERT_EQ(resp->reports.size(), 1u);
        ASSERT_EQ(resp->reports[0].outcome, WriteReport::Outcome::kNoOp);
        ASSERT_EQ(resp->applied, 0u);
        ASSERT_EQ(service_->Generation(), before);
        return;
      }
      update = Update::Insert(u, v);
    } else {
      const std::vector<Edge> edges = service_->engine().graph().Edges();
      if (edges.empty()) return;
      const Edge e = edges[rng_.NextBounded(edges.size())];
      update = Update::Delete(e.u, e.v);
    }
    const uint64_t before = service_->Generation();
    const auto resp = service_->ApplyUpdates({&update, 1});
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    ASSERT_TRUE(resp->stats.applied);
    // Report cross-check: exactly the applied count advanced the
    // generation, and the report's own generation is the token's.
    ASSERT_EQ(resp->applied, 1u);
    ASSERT_EQ(resp->reports.size(), 1u);
    ASSERT_EQ(resp->reports[0].generation, before + 1);
    ASSERT_EQ(service_->Generation() - before, resp->applied);
    Record(resp->token);
    ReadProbes(update.kind == Kind::kInsert ? "after insert" : "after delete");
  }

  /// A no-op-free multi-update batch: each update bumps the generation by
  /// exactly one, so every intermediate state can be recorded by local
  /// replay (a stale pin may land on any of them).
  void ApplyInsertBatch(int step) {
    const std::vector<Edge> fresh = SampleNonEdges(
        service_->engine().graph(), 1 + rng_.NextBounded(3), 1000 + step);
    if (fresh.empty()) return;
    std::vector<Update> batch;
    for (const Edge& e : fresh) batch.push_back(Update::Insert(e.u, e.v));

    const uint64_t before = service_->Generation();
    Graph replay = service_->engine().graph();
    const auto resp = service_->ApplyUpdates(batch);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    ASSERT_EQ(resp->token.generation, before + batch.size());
    // One report per input update; the applied count must equal the
    // generation distance this batch moved the index.
    ASSERT_EQ(resp->reports.size(), batch.size());
    ASSERT_EQ(resp->applied, batch.size());
    ASSERT_EQ(resp->rejected, 0u);
    ASSERT_EQ(resp->token.generation - before, resp->applied);
    for (size_t i = 0; i < batch.size(); ++i) {
      ASSERT_EQ(resp->reports[i].outcome, WriteReport::Outcome::kApplied);
      ASSERT_EQ(resp->reports[i].generation, before + i + 1);
    }
    for (size_t i = 0; i < batch.size(); ++i) {
      ASSERT_TRUE(replay.AddEdge(batch[i].edge.u, batch[i].edge.v));
      history_.emplace(before + i + 1, replay);
    }
    tokens_.push_back(resp->token);
    ReadProbes("after batch");
  }

  void AddVertex() {
    const AddVertexResponse added = service_->AddVertex();
    Record(added.token);
    // Read-your-writes on the brand-new id: a kFresh read with the token
    // must serve (live, since no snapshot covers the vertex yet).
    ReadOptions read;
    read.min_generation = added.token.generation;
    const auto resp = service_->Query(added.vertex, 0, read);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    ASSERT_EQ(resp->result.count, 0u) << "fresh vertex not isolated";
  }

  WriteToken RandomToken() {
    return tokens_[rng_.NextBounded(tokens_.size())];
  }

  /// Cached-mode epilogue: the stream must actually have exercised the
  /// cache, and the cached service must agree bit for bit with a
  /// cache-off index built for exactly the generation the responses
  /// claim.
  void CheckCachedAgainstUncached(const ReadOptions& snap) {
    const MetricsSnapshot metrics = service_->Metrics();
    ASSERT_GT(metrics.pair_cache_hits + metrics.pair_cache_misses, 0u)
        << "cached fuzz stream never reached the pair cache";
    ASSERT_GT(metrics.pair_cache_insertions, 0u);

    // Reads repeat pairs so both cache outcomes occur on this stream.
    std::vector<std::pair<Vertex, Vertex>> probes;
    for (int i = 0; i < 40; ++i) {
      probes.emplace_back(RandomVertex(), RandomVertex());
    }
    probes.insert(probes.end(), probes.begin(), probes.begin() + 20);

    std::vector<QueryResponse> responses;
    for (const auto& [s, t] : probes) {
      const auto resp = service_->Query(s, t, snap);
      ASSERT_TRUE(resp.ok()) << resp.status().ToString();
      ASSERT_EQ(resp->served_from, ServedFrom::kSnapshot);
      responses.push_back(*resp);
    }
    ASSERT_GT(service_->Metrics().pair_cache_hits, metrics.pair_cache_hits)
        << "repeated probes produced no cache hits";

    // Cache-off reference at the claimed generation.
    const auto it = history_.find(responses.front().generation);
    ASSERT_NE(it, history_.end());
    DynamicSpcIndex reference(it->second);
    const FlatSpcIndex flat(reference.index());
    for (size_t i = 0; i < probes.size(); ++i) {
      const auto [s, t] = probes[i];
      ASSERT_EQ(responses[i].generation, responses.front().generation)
          << "post-barrier snapshot reads changed generation";
      ASSERT_EQ(responses[i].result, flat.Query(s, t))
          << "cached vs uncached mismatch s=" << s << " t=" << t
          << " gen=" << responses[i].generation;
    }
  }

  /// The exactness check: response.generation names the graph the answer
  /// must match, bit for bit.
  void CheckExact(const QueryResponse& resp, Vertex s, Vertex t,
                  const std::string& ctx) {
    const auto it = history_.find(resp.generation);
    ASSERT_NE(it, history_.end())
        << ctx << " response claims unrecorded generation "
        << resp.generation;
    if (s >= it->second.NumVertices() || t >= it->second.NumVertices()) {
      // Only live serving can answer ids newer than the claimed graph,
      // and live responses are tagged with the admission generation while
      // the index may already be newer; just require disconnected-or-real.
      return;
    }
    const SpcResult want = BiBfsCountPair(it->second, s, t);
    ASSERT_EQ(resp.result, want)
        << ctx << " gen=" << resp.generation << " s=" << s << " t=" << t
        << " served_from="
        << (resp.served_from == ServedFrom::kSnapshot ? "snapshot" : "live");
  }

  void ReadProbes(const std::string& ctx) {
    const uint64_t gen = service_->Generation();
    const Vertex s = RandomVertex();
    const Vertex t = RandomVertex();

    // kFresh with the newest token: must reflect the current graph.
    {
      ReadOptions read;
      read.min_generation = tokens_.back().generation;
      const auto resp = service_->Query(s, t, read);
      ASSERT_TRUE(resp.ok()) << ctx << ": " << resp.status().ToString();
      ASSERT_GE(resp->generation, read.min_generation) << ctx;
      ASSERT_EQ(resp->generation, gen) << ctx << " kFresh served stale";
      CheckExact(*resp, s, t, ctx + " kFresh+token");
    }

    // kBoundedStaleness with a random older token and random lag.
    {
      const WriteToken token = RandomToken();
      ReadOptions read;
      read.consistency = Consistency::kBoundedStaleness;
      read.min_generation = token.generation;
      read.max_lag = rng_.NextBounded(6);
      const auto resp = service_->Query(s, t, read);
      ASSERT_TRUE(resp.ok()) << ctx << ": " << resp.status().ToString();
      ASSERT_GE(resp->generation, token.generation)
          << ctx << " bounded read ignored min_generation";
      ASSERT_LE(gen - std::min(resp->generation, gen), read.max_lag)
          << ctx << " bounded read exceeded max_lag";
      CheckExact(*resp, s, t, ctx + " kBounded+token");
    }

    // kSnapshot with a random token: either refuses (Unavailable — the
    // snapshot trails the token) or serves a generation >= the token.
    {
      const WriteToken token = RandomToken();
      ReadOptions read;
      read.consistency = Consistency::kSnapshot;
      read.min_generation = token.generation;
      const auto resp = service_->Query(s, t, read);
      if (resp.ok()) {
        ASSERT_GE(resp->generation, token.generation) << ctx;
        ASSERT_EQ(resp->served_from, ServedFrom::kSnapshot) << ctx;
        CheckExact(*resp, s, t, ctx + " kSnapshot+token");
      } else {
        ASSERT_TRUE(resp.status().IsUnavailable())
            << ctx << ": " << resp.status().ToString();
      }
    }
  }

  Rng rng_;
  bool cached_ = false;
  std::unique_ptr<SpcService> service_;
  /// Graph state at every generation the engine has passed through.
  std::unordered_map<uint64_t, Graph> history_;
  /// Every token issued so far (generation 1 = the initial build).
  std::vector<WriteToken> tokens_;
};

using ServiceFuzzParam = std::tuple<uint64_t, size_t>;

class ServiceTokenFuzzTest
    : public ::testing::TestWithParam<ServiceFuzzParam> {};

TEST_P(ServiceTokenFuzzTest, BaStream) {
  const auto [seed, shards] = GetParam();
  ServiceTokenFuzz fuzz(GenerateBarabasiAlbert(48, 2, seed), seed, shards);
  fuzz.Run(80);
}

TEST_P(ServiceTokenFuzzTest, RmatStream) {
  const auto [seed, shards] = GetParam();
  ServiceTokenFuzz fuzz(GenerateRmat(6, 150, seed), seed, shards);
  fuzz.Run(80);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ServiceTokenFuzzTest,
    ::testing::Combine(::testing::Values(31u, 47u),
                       ::testing::Values(1u, 7u)),
    [](const ::testing::TestParamInfo<ServiceFuzzParam>& info) {
      return "Seed" + std::to_string(std::get<0>(info.param)) + "Shards" +
             std::to_string(std::get<1>(info.param));
    });

// The same token fuzz with the hot-pair cache enabled: every
// generation-exact BiBFS check above now runs against cache-served
// answers, and the epilogue cross-checks the stream's final snapshot bit
// for bit against a cache-off index. Suite name keeps the
// ServiceTokenFuzz prefix so the TSan CI filter runs it too.
class ServiceTokenFuzzCachedTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ServiceTokenFuzzCachedTest, CachedBaStream) {
  const uint64_t seed = GetParam();
  ServiceTokenFuzz fuzz(GenerateBarabasiAlbert(48, 2, seed), seed,
                        /*shards=*/3, /*cached=*/true);
  fuzz.Run(80);
}

TEST_P(ServiceTokenFuzzCachedTest, CachedRmatStream) {
  const uint64_t seed = GetParam();
  ServiceTokenFuzz fuzz(GenerateRmat(6, 150, seed), seed,
                        /*shards=*/1, /*cached=*/true);
  fuzz.Run(80);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ServiceTokenFuzzCachedTest,
                         ::testing::Values(61u, 89u),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "Seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace dspc
