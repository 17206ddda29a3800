// Build-equivalence harness for the parallel HP-SPC constructor
// (core/parallel_build.h, DESIGN.md §12).
//
// The contract under test is strong: BuildSpcIndexParallel is
// label-identical to BuildSpcIndex under the same ordering — not merely
// query-equivalent — for every graph family, thread count, and batch
// strategy. Label identity is what keeps v2 serializations byte-identical
// (recovery_test.cc compares checkpoints bit-for-bit), so the determinism
// tests below check serialized bytes, not just query answers.

#include <cstddef>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "dspc/common/binary_io.h"
#include "dspc/common/thread_pool.h"
#include "dspc/core/dynamic_spc.h"
#include "dspc/core/flat_spc_index.h"
#include "dspc/core/hp_spc.h"
#include "dspc/core/parallel_build.h"
#include "dspc/graph/generators.h"
#include "dspc/persist/snapshot_arena.h"
#include "test_util.h"

namespace dspc {
namespace {

struct Family {
  const char* name;
  Graph graph;
};

// Several components of different shapes plus isolated vertices, so the
// batched merge crosses component boundaries (a component head's BFS
// floods its whole component — the worst case for window independence).
Graph DisconnectedGraph() {
  const Graph a = GenerateRmat(6, 140, 5);
  const Graph b = GeneratePath(17);
  const Graph c = GenerateCycle(9);
  const size_t na = a.NumVertices();
  const size_t nb = b.NumVertices();
  Graph g(na + nb + c.NumVertices() + 3);  // +3 isolated vertices
  for (const Edge& e : a.Edges()) g.AddEdge(e.u, e.v);
  for (const Edge& e : b.Edges()) {
    g.AddEdge(static_cast<Vertex>(na + e.u), static_cast<Vertex>(na + e.v));
  }
  for (const Edge& e : c.Edges()) {
    g.AddEdge(static_cast<Vertex>(na + nb + e.u),
              static_cast<Vertex>(na + nb + e.v));
  }
  return g;
}

// Every vertex of a random base graph gets a twin with the identical
// neighborhood (self-loop-free duplicates): maximal equal-distance ties,
// so path counts — not just distances — must survive the parallel merge.
// Each edge is inserted twice to exercise the duplicate-edge rejection.
Graph TwinGraph() {
  const Graph base = testing::RandomGraph(40, 90, 77);
  const size_t n = base.NumVertices();
  Graph g(2 * n);
  for (const Edge& e : base.Edges()) {
    const Vertex us[] = {e.u, static_cast<Vertex>(e.u + n)};
    const Vertex vs[] = {e.v, static_cast<Vertex>(e.v + n)};
    for (const Vertex u : us) {
      for (const Vertex v : vs) {
        EXPECT_TRUE(g.AddEdge(u, v));
        EXPECT_FALSE(g.AddEdge(u, v));  // duplicates must be rejected
      }
    }
  }
  return g;
}

std::vector<Family> Families() {
  std::vector<Family> fams;
  fams.push_back({"rmat", GenerateRmat(8, 1400, 19)});
  fams.push_back({"path", GeneratePath(97)});
  fams.push_back({"star", GenerateStar(64)});
  fams.push_back({"disconnected", DisconnectedGraph()});
  fams.push_back({"twins", TwinGraph()});
  return fams;
}

// Structural invariants of a finished index: ValidateStructure plus the
// canonical label-set shape — hubs strictly ascending by rank, every
// non-self hub outranking the owner, and the self label (rank(v), 0, 1)
// last.
void CheckInvariants(const SpcIndex& index, const char* context) {
  const Status st = index.ValidateStructure();
  ASSERT_TRUE(st.ok()) << context << ": " << st.message();
  for (Vertex v = 0; v < index.NumVertices(); ++v) {
    const LabelSet& ls = index.Labels(v);
    ASSERT_FALSE(ls.empty()) << context << " v=" << v;
    for (size_t i = 0; i + 1 < ls.size(); ++i) {
      EXPECT_LT(ls[i].hub, ls[i + 1].hub) << context << " v=" << v;
      EXPECT_LT(ls[i].hub, index.RankOf(v)) << context << " v=" << v;
    }
    EXPECT_EQ(ls.back().hub, index.RankOf(v)) << context << " v=" << v;
    EXPECT_EQ(ls.back().dist, 0u) << context << " v=" << v;
    EXPECT_EQ(ls.back().count, 1u) << context << " v=" << v;
  }
}

void ExpectSamePairAnswers(const SpcIndex& parallel, const SpcIndex& seq,
                           const char* context) {
  const size_t n = seq.NumVertices();
  for (Vertex s = 0; s < n; ++s) {
    for (Vertex t = 0; t < n; ++t) {
      const SpcResult got = parallel.Query(s, t);
      const SpcResult want = seq.Query(s, t);
      ASSERT_EQ(got.dist, want.dist) << context << " s=" << s << " t=" << t;
      ASSERT_EQ(got.count, want.count) << context << " s=" << s << " t=" << t;
    }
  }
}

using BuildParam = std::tuple<unsigned, BuildBatchStrategy>;

std::string BuildParamName(const ::testing::TestParamInfo<BuildParam>& info) {
  const char* strategy = "Auto";
  switch (std::get<1>(info.param)) {
    case BuildBatchStrategy::kAuto:
      strategy = "Auto";
      break;
    case BuildBatchStrategy::kRankWindow:
      strategy = "RankWindow";
      break;
    case BuildBatchStrategy::kFrontier:
      strategy = "Frontier";
      break;
  }
  return std::string(strategy) + "T" + std::to_string(std::get<0>(info.param));
}

class ParallelBuildEquivalenceTest
    : public ::testing::TestWithParam<BuildParam> {};

// The headline contract: for every family, the parallel build is
// label-identical to the sequential build and answers every (s, t) pair
// identically.
TEST_P(ParallelBuildEquivalenceTest, MatchesSequentialOnEveryFamily) {
  const auto [threads, strategy] = GetParam();
  ParallelBuildOptions opts;
  opts.threads = threads;
  opts.batch_strategy = strategy;
  for (const Family& fam : Families()) {
    const SpcIndex seq = BuildSpcIndex(fam.graph);
    const SpcIndex parallel =
        BuildSpcIndexParallel(fam.graph, OrderingOptions{}, opts);
    CheckInvariants(parallel, fam.name);
    EXPECT_TRUE(parallel == seq) << fam.name << ": label sets differ";
    ExpectSamePairAnswers(parallel, seq, fam.name);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ParallelBuildEquivalenceTest,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 8u),
                       ::testing::Values(BuildBatchStrategy::kAuto,
                                         BuildBatchStrategy::kRankWindow,
                                         BuildBatchStrategy::kFrontier)),
    BuildParamName);

// Ground truth, not just cross-implementation agreement: the parallel
// index must answer like all-pairs BFS counting.
TEST(ParallelBuildTest, MatchesBfsGroundTruth) {
  ParallelBuildOptions opts;
  opts.threads = 3;
  for (const Family& fam : Families()) {
    const SpcIndex parallel =
        BuildSpcIndexParallel(fam.graph, OrderingOptions{}, opts);
    testing::ExpectIndexMatchesBfs(fam.graph, parallel, fam.name);
  }
}

// Degenerate window sizes force every batching edge case: window = 1 is
// pure hub-at-a-time batching (no mates, no suspects), tiny windows
// maximize suspect re-runs, and a window larger than the graph is a
// single batch.
TEST(ParallelBuildTest, WindowSizeSweep) {
  const Graph g = GenerateRmat(7, 600, 31);
  const SpcIndex seq = BuildSpcIndex(g);
  for (const size_t window : {size_t{1}, size_t{2}, size_t{3}, size_t{7},
                              size_t{64}, size_t{100000}}) {
    ParallelBuildOptions opts;
    opts.threads = 4;
    opts.batch_strategy = BuildBatchStrategy::kRankWindow;
    opts.rank_window = window;
    const SpcIndex parallel = BuildSpcIndexParallel(g, OrderingOptions{}, opts);
    EXPECT_TRUE(parallel == seq) << "window=" << window;
  }
}

// An externally owned pool is reusable across builds and honored for the
// thread count.
TEST(ParallelBuildTest, ReusesCallerPool) {
  ThreadPool pool(3);
  const Graph g = GenerateRmat(7, 600, 47);
  const SpcIndex seq = BuildSpcIndex(g);
  for (int rep = 0; rep < 2; ++rep) {
    const SpcIndex parallel =
        BuildSpcIndexParallel(g, OrderingOptions{}, {}, &pool);
    EXPECT_TRUE(parallel == seq) << "rep=" << rep;
  }
}

// Edge cases the batching loops must not trip over: empty graph, all
// vertices isolated, a single vertex, and a single edge — under explicit
// thread counts so the parallel path (not the small-graph fallback) runs.
TEST(ParallelBuildTest, DegenerateGraphs) {
  const Family degenerate[] = {
      {"empty", Graph()},
      {"isolated", Graph(5)},
      {"single", Graph(1)},
      {"one_edge", Graph(2, {{0, 1}})},
  };
  for (const Family& fam : degenerate) {
    for (const BuildBatchStrategy strategy :
         {BuildBatchStrategy::kAuto, BuildBatchStrategy::kRankWindow,
          BuildBatchStrategy::kFrontier}) {
      ParallelBuildOptions opts;
      opts.threads = 8;
      opts.batch_strategy = strategy;
      const SpcIndex seq = BuildSpcIndex(fam.graph);
      const SpcIndex parallel =
          BuildSpcIndexParallel(fam.graph, OrderingOptions{}, opts);
      EXPECT_TRUE(parallel == seq) << fam.name;
    }
  }
}

// Determinism: repeated parallel builds — across repetitions, thread
// counts, and strategies — produce snapshot arena images byte-identical
// to the sequential build's (at a fixed generation and wal_seq), so
// checkpoint digests never depend on scheduling.
TEST(ParallelBuildDeterminismTest, ByteIdenticalArenaImages) {
  const Graph g = GenerateRmat(8, 1400, 23);
  const auto image = [](const SpcIndex& index) {
    std::vector<uint8_t> bytes;
    EXPECT_TRUE(EncodeSnapshotArena(FlatSpcIndex(index), /*generation=*/3,
                                    /*wal_seq=*/2, &bytes)
                    .ok());
    return bytes;
  };
  const std::vector<uint8_t> want = image(BuildSpcIndex(g));
  const uint32_t want_crc = Crc32(want.data(), want.size());
  for (int rep = 0; rep < 3; ++rep) {
    for (const unsigned threads : {2u, 3u, 8u}) {
      for (const BuildBatchStrategy strategy :
           {BuildBatchStrategy::kAuto, BuildBatchStrategy::kRankWindow,
            BuildBatchStrategy::kFrontier}) {
        ParallelBuildOptions opts;
        opts.threads = threads;
        opts.batch_strategy = strategy;
        const std::vector<uint8_t> got =
            image(BuildSpcIndexParallel(g, OrderingOptions{}, opts));
        ASSERT_EQ(Crc32(got.data(), got.size()), want_crc)
            << "rep=" << rep << " threads=" << threads;
        ASSERT_EQ(got, want) << "rep=" << rep << " threads=" << threads;
      }
    }
  }
}

// The image also round-trips: an index built in parallel, encoded, and
// validated back still equals the sequential build.
TEST(ParallelBuildDeterminismTest, RoundTripsThroughArenaImage) {
  const Graph g = GenerateRmat(7, 600, 29);
  ParallelBuildOptions opts;
  opts.threads = 8;
  const SpcIndex parallel = BuildSpcIndexParallel(g, OrderingOptions{}, opts);
  const auto reloaded = testing::ArenaRoundTrip(FlatSpcIndex(parallel));
  ASSERT_NE(reloaded, nullptr);
  EXPECT_TRUE(reloaded->Unpack() == BuildSpcIndex(g));
}

// Engine integration: an engine configured with build.threads uses the
// parallel builder for construction and Rebuild(), and its state matches
// a sequentially built engine after identical updates.
TEST(ParallelBuildEngineTest, RebuildStaysExact) {
  const Graph start = GenerateRmat(7, 500, 9);
  DynamicSpcOptions par_opts;
  par_opts.build.threads = 3;
  DynamicSpcOptions seq_opts;
  seq_opts.build.threads = 1;
  DynamicSpcIndex par(start, par_opts);
  DynamicSpcIndex seq(start, seq_opts);
  EXPECT_TRUE(par.index() == seq.index());
  const Edge updates[] = {{3, 97}, {15, 101}, {44, 63}, {2, 120}};
  for (const Edge& e : updates) {
    par.InsertEdge(e.u, e.v);
    seq.InsertEdge(e.u, e.v);
  }
  par.Rebuild();
  seq.Rebuild();
  EXPECT_TRUE(par.index() == seq.index());
  testing::ExpectIndexMatchesBfs(par.graph(), par.index(),
                                 "parallel rebuild");
}

}  // namespace
}  // namespace dspc
