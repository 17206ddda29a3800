// Build-equivalence harness for the parallel HP-SPC constructor
// (core/parallel_build.h, DESIGN.md §12).
//
// The contract under test is strong: BuildSpcIndexParallel is
// label-identical to BuildSpcIndex under the same ordering — not merely
// query-equivalent — for every graph family, ordering and thread count.
// Label identity is what keeps v2 serializations byte-identical
// (recovery_test.cc compares checkpoints bit-for-bit), so the determinism
// tests below check serialized bytes, not just query answers.

#include <algorithm>
#include <cstddef>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "dspc/common/binary_io.h"
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

using BuildParam = std::tuple<unsigned, testing::SweepOrdering>;

std::string BuildParamName(const ::testing::TestParamInfo<BuildParam>& info) {
  return std::string(testing::SweepOrderingName(std::get<1>(info.param)))
      .append("T")
      .append(std::to_string(std::get<0>(info.param)));
}

class ParallelBuildEquivalenceTest
    : public ::testing::TestWithParam<BuildParam> {};

// The headline contract: for every family, the parallel build is
// label-identical to the sequential build under the same ordering and
// answers every (s, t) pair identically.
TEST_P(ParallelBuildEquivalenceTest, MatchesSequentialOnEveryFamily) {
  const auto [threads, sweep_ordering] = GetParam();
  const OrderingOptions ordering = testing::SweepOrderingOptions(sweep_ordering);
  ParallelBuildOptions opts;
  opts.threads = threads;
  for (const Family& fam : Families()) {
    const SpcIndex seq = BuildSpcIndex(fam.graph, ordering);
    const SpcIndex parallel = BuildSpcIndexParallel(fam.graph, ordering, opts);
    CheckInvariants(parallel, fam.name);
    EXPECT_TRUE(parallel == seq) << fam.name << ": label sets differ";
    ExpectSamePairAnswers(parallel, seq, fam.name);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ParallelBuildEquivalenceTest,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 8u),
                       ::testing::Values(testing::SweepOrdering::kDegreeJitter,
                                         testing::SweepOrdering::kDegree,
                                         testing::SweepOrdering::kRandom)),
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

// Graphs sized around the window, max(32, 8 * threads) hubs: 32 at 2-4
// threads and 64 at 8. Fewer vertices than a window and exactly one
// window are a single batch, one vertex more leaves a one-hub last
// window, and a graph many windows long carries labels across window
// boundaries. The top ranks of a degree-ordered BA graph are adjacent,
// so the first window has suspects to re-run.
TEST(ParallelBuildTest, WindowSizeSweep) {
  struct Sweep {
    unsigned threads;
    size_t n;
  };
  std::vector<Sweep> sweeps;
  for (const unsigned threads : {2u, 3u, 4u}) {
    for (const size_t n : {size_t{20}, size_t{32}, size_t{33}, size_t{300}}) {
      sweeps.push_back({threads, n});
    }
  }
  sweeps.push_back({8, 64});
  sweeps.push_back({8, 65});
  for (const Sweep& sw : sweeps) {
    const Graph g = GenerateBarabasiAlbert(sw.n, 2, 31 + sw.n);
    ASSERT_EQ(g.NumVertices(), sw.n);
    ParallelBuildOptions opts;
    opts.threads = sw.threads;
    EXPECT_TRUE(BuildSpcIndexParallel(g, OrderingOptions{}, opts) ==
                BuildSpcIndex(g))
        << "threads=" << sw.threads << " n=" << sw.n;
  }
}

// Adjacent hubs g = 0 and h = 1 in one rank window (identity ordering).
// h's phase-A run prunes at depth 3 on the neighbour mark, which sees
// window-mate g where the prefix labels do not, and prunes too little at
// depth 4, where the prefix lacks g's labels. Both are discarded: g labels
// h at distance 1, so h is suspect and re-runs against the exact prefix
// (DESIGN.md §2, "The shallow prune tests").
TEST(ParallelBuildTest, AdjacentWindowHubIsRerun) {
  // A 5-cycle g-h-a-b-v and a 6-cycle g-h-c-d-e-x through the edge g-h.
  const Graph g(9, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0},
                    {1, 5}, {5, 6}, {6, 7}, {7, 8}, {8, 0}});
  OrderingOptions identity;
  identity.strategy = OrderingStrategy::kIdentity;
  const VertexOrdering order = BuildOrdering(g, identity);
  const internal::RankGraph rg(g, order);
  const size_t n = g.NumVertices();

  // Sequential: g's labels are in place when h runs, and they label h.
  internal::RankLabels labels(n);
  internal::BfsScratch ws(n);
  std::vector<internal::PendingLabel> g_out;
  std::vector<internal::PendingLabel> h_out;
  internal::RunPrunedHubBfs(rg, 0, labels, ws, &g_out);
  EXPECT_TRUE(std::any_of(g_out.begin(), g_out.end(),
                          [](const internal::PendingLabel& e) {
                            return e.r == 1 && e.dist == 1;
                          }));
  labels.Append(0, g_out);
  internal::RunPrunedHubBfs(rg, 1, labels, ws, &h_out);

  // Phase A: h against the window's empty prefix.
  const internal::RankLabels prefix(n);
  internal::HubPruneTest prune(n);
  prune.Start(rg, prefix, 1);
  EXPECT_TRUE(prune.Prunes(4, 3));  // v: g is a common neighbour
  EXPECT_FALSE(prune.cache().Covers(prefix.HubDists(4), 3));
  prune.Finish();
  std::vector<internal::PendingLabel> phase_a;
  internal::RunPrunedHubBfs(rg, 1, prefix, ws, &phase_a);
  const auto ranks = [](const std::vector<internal::PendingLabel>& out) {
    std::vector<Rank> r;
    for (const internal::PendingLabel& e : out) r.push_back(e.r);
    return r;
  };
  EXPECT_EQ(ranks(h_out), (std::vector<Rank>{5, 2, 6, 3, 7}));
  EXPECT_EQ(ranks(phase_a), (std::vector<Rank>{5, 2, 6, 3, 7, 8}));

  const SpcIndex seq = BuildSpcIndex(g, order);
  testing::ExpectIndexMatchesBfs(g, seq, "adjacent");
  // All 9 hubs share one window (32 hubs at 2 threads, 64 at 8).
  for (const unsigned threads : {2u, 8u}) {
    ParallelBuildOptions opts;
    opts.threads = threads;
    EXPECT_TRUE(BuildSpcIndexParallel(g, order, opts) == seq)
        << "threads=" << threads;
  }
}

// Edge cases the batching loops must not trip over: empty graph, all
// vertices isolated, a single vertex, and a single edge — under explicit
// thread counts so the parallel path (not the sequential default) runs.
TEST(ParallelBuildTest, DegenerateGraphs) {
  const Family degenerate[] = {
      {"empty", Graph()},
      {"isolated", Graph(5)},
      {"single", Graph(1)},
      {"one_edge", Graph(2, {{0, 1}})},
  };
  for (const Family& fam : degenerate) {
    for (const unsigned threads : {2u, 8u}) {
      ParallelBuildOptions opts;
      opts.threads = threads;
      const SpcIndex seq = BuildSpcIndex(fam.graph);
      const SpcIndex parallel =
          BuildSpcIndexParallel(fam.graph, OrderingOptions{}, opts);
      EXPECT_TRUE(parallel == seq) << fam.name << " threads=" << threads;
    }
  }
}

// Determinism: repeated parallel builds — across repetitions and thread
// counts — produce snapshot arena images byte-identical
// to the sequential build's (at a fixed generation and wal_seq), so
// checkpoint digests never depend on scheduling.
TEST(ParallelBuildDeterminismTest, ByteIdenticalArenaImages) {
  const Graph g = GenerateRmat(8, 1400, 23);
  const auto image = [](const SpcIndex& index) {
    std::vector<uint8_t> bytes;
    EXPECT_TRUE(EncodeSnapshotArena(FlatSpcIndex(index), /*edges=*/{},
                                    /*generation=*/3,
                                    /*wal_seq=*/2, &bytes)
                    .ok());
    return bytes;
  };
  const std::vector<uint8_t> want = image(BuildSpcIndex(g));
  const uint32_t want_crc = Crc32(want.data(), want.size());
  for (int rep = 0; rep < 3; ++rep) {
    for (const unsigned threads : {2u, 3u, 8u}) {
      ParallelBuildOptions opts;
      opts.threads = threads;
      const std::vector<uint8_t> got =
          image(BuildSpcIndexParallel(g, OrderingOptions{}, opts));
      ASSERT_EQ(Crc32(got.data(), got.size()), want_crc)
          << "rep=" << rep << " threads=" << threads;
      ASSERT_EQ(got, want) << "rep=" << rep << " threads=" << threads;
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
