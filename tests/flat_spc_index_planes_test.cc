// Differential tests of the flat query's dense part (DESIGN.md §5): the
// distance bit-planes let FlatSpcIndex decode only the common dense hubs
// at the smallest exact sum plus the hubs coded "other", so every Query
// and PreQuery answer must still equal SpcIndex::Query / PreQuery on the
// source index. Covered on grid and
// path graphs (distances >= 4 are coded "other"), the 20x20 grid whose
// corner counts overflow into the side table, rows on the shared zero
// plane row, RMAT under updates, PreQuery rank limits around the 64-bit
// word and dense-directory boundaries, endpoints in different shards,
// view shards adopted from an arena image, and synthetic label sets that
// put every code, including overflow entries, on coded distances.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "dspc/common/rng.h"
#include "dspc/core/dynamic_spc.h"
#include "dspc/core/flat_spc_index.h"
#include "dspc/core/hp_spc.h"
#include "dspc/graph/generators.h"
#include "dspc/graph/update_stream.h"
#include "test_util.h"

namespace dspc {
namespace {

using dspc::testing::ArenaRoundTrip;

/// The PreQuery sources: vertices whose rank (the rank limit) sits on
/// either side of a bitmap-word edge and of the dense-directory edge.
std::vector<Vertex> LimitSources(const SpcIndex& index) {
  std::vector<Vertex> sources;
  for (const Rank r : {0u, 1u, 63u, 64u, 65u, 511u, 512u, 513u, 700u}) {
    if (r < index.NumVertices()) sources.push_back(index.VertexOf(r));
  }
  const auto last = static_cast<Rank>(index.NumVertices() - 1);
  sources.push_back(index.VertexOf(last));
  return sources;
}

/// Asserts Query and PreQuery of `flat` equal the source index's on the
/// limit sources against every vertex, and on `random_pairs` random
/// pairs.
void ExpectMatchesIndex(const SpcIndex& index, const FlatSpcIndex& flat,
                        const std::string& context,
                        size_t random_pairs = 4000) {
  const size_t n = index.NumVertices();
  ASSERT_EQ(flat.NumVertices(), n) << context;
  auto check = [&](Vertex s, Vertex t) {
    ASSERT_EQ(flat.Query(s, t), index.Query(s, t))
        << context << " Query s=" << s << " t=" << t;
    ASSERT_EQ(flat.PreQuery(s, t), index.PreQuery(s, t))
        << context << " PreQuery s=" << s << " rank=" << index.RankOf(s)
        << " t=" << t;
  };
  for (const Vertex s : LimitSources(index)) {
    for (Vertex t = 0; t < n; ++t) {
      check(s, t);
      check(t, s);
    }
  }
  Rng rng(n * 31 + 7);
  for (size_t i = 0; i < random_pairs; ++i) {
    check(static_cast<Vertex>(rng.NextBounded(n)),
          static_cast<Vertex>(rng.NextBounded(n)));
  }
}

/// Checks one index as a single-shard snapshot, a sharded snapshot whose
/// endpoints mostly sit in different shards, and the view snapshot
/// adopted from its arena image.
void ExpectEveryLayoutMatches(const SpcIndex& index,
                              const std::string& context) {
  const FlatSpcIndex flat(index);
  ExpectMatchesIndex(index, flat, context + " 1 shard");
  const FlatSpcIndex sharded(index, 8);
  ASSERT_GT(sharded.NumShards(), 1u) << context;
  EXPECT_EQ(sharded.PlaneRows(), flat.PlaneRows()) << context;
  ExpectMatchesIndex(index, sharded, context + " 8 shards");
  const auto view = ArenaRoundTrip(flat);
  ASSERT_NE(view, nullptr) << context;
  EXPECT_EQ(view->PlaneRows(), flat.PlaneRows()) << context;
  ExpectMatchesIndex(index, *view, context + " view");
}

TEST(FlatSpcIndexPlanes, GridCodesLongDistancesOtherAndOverflows) {
  // 20x20 grid: corner-to-corner counts reach C(38,19) ~ 3.5e10, past the
  // 29-bit count field, and most label distances are >= 4.
  const SpcIndex index = BuildSpcIndex(GenerateGrid(20, 20));
  const FlatSpcIndex flat(index);
  EXPECT_GT(flat.OverflowEntries(), 0u);
  EXPECT_GT(flat.PlaneRows(), 0u);
  EXPECT_LT(flat.PlaneRows(), index.NumVertices());
  ExpectEveryLayoutMatches(index, "grid20x20");
}

TEST(FlatSpcIndexPlanes, PathAndSmallGridMixPlanedAndZeroRows) {
  // A path's degree ties give long label sets at long distances, so most
  // rows own planes whose codes are mostly "other"; in the small grid
  // most rows are short and read the shared zero plane row.
  for (const auto& [name, graph] :
       {std::pair<std::string, Graph>{"path600", GeneratePath(600)},
        std::pair<std::string, Graph>{"grid6x7", GenerateGrid(6, 7)}}) {
    const SpcIndex index = BuildSpcIndex(graph);
    const size_t planed = FlatSpcIndex(index).PlaneRows();
    EXPECT_GT(planed, 0u) << name;
    EXPECT_LT(planed, index.NumVertices()) << name;
    ExpectEveryLayoutMatches(index, name);
  }
}

TEST(FlatSpcIndexPlanes, RmatWithUpdates) {
  const Graph graph = GenerateRmat(10, 6000, 29);
  DynamicSpcIndex dyn(graph);
  const std::vector<Update> stream = MakeHybridStream(graph, 30, 15, 31);
  for (size_t i = 0; i < stream.size(); ++i) {
    dyn.Apply(stream[i]);
    if ((i + 1) % 15 == 0) {
      const FlatSpcIndex flat(dyn.index(), 8);
      ASSERT_GT(flat.PlaneRows(), 0u);
      ExpectMatchesIndex(dyn.index(), flat,
                         "rmat after update " + std::to_string(i + 1),
                         /*random_pairs=*/2000);
    }
  }
  ExpectEveryLayoutMatches(dyn.index(), "rmat final");
}

TEST(FlatSpcIndexPlanes, SyntheticLabelsCoverEveryCode) {
  // Label sets that need not come from a graph: every vertex holds its
  // self label plus random higher-ranked hubs at distances 1..6 (codes
  // 1-3 and "other"), some with counts past the 29-bit field (overflow
  // entries on coded distances). Every 7th vertex keeps few entries and
  // stays on the zero plane row. The flat answer must equal the merge of
  // the same label sets.
  const size_t n = 900;
  VertexOrdering ordering;
  ordering.rank_of.resize(n);
  ordering.vertex_of.resize(n);
  for (size_t v = 0; v < n; ++v) {
    ordering.rank_of[v] = static_cast<Rank>(v);
    ordering.vertex_of[v] = static_cast<Vertex>(v);
  }
  Rng rng(97);
  std::vector<LabelSet> labels(n);
  for (size_t v = 0; v < n; ++v) {
    const bool sparse = v % 7 == 0;  // keeps hubs 0..2 only
    const uint64_t keep_in_8 = sparse ? 0 : 1 + rng.NextBounded(5);
    for (Rank h = 0; h < v; ++h) {
      if (rng.NextBounded(8) >= keep_in_8 && !(sparse && h < 3)) continue;
      const Distance dist = static_cast<Distance>(1 + rng.NextBounded(6));
      const PathCount count = rng.NextBounded(16) == 0
                                  ? (PathCount{1} << 33) + rng.NextBounded(99)
                                  : 1 + rng.NextBounded(50);
      labels[v].push_back(LabelEntry{h, dist, count});
    }
    labels[v].push_back(LabelEntry{static_cast<Rank>(v), 0, 1});
  }
  const SpcIndex index(ordering, std::move(labels));
  const FlatSpcIndex flat(index);
  EXPECT_GT(flat.OverflowEntries(), 0u);
  EXPECT_GT(flat.PlaneRows(), n / 2);
  EXPECT_LT(flat.PlaneRows(), n);
  ExpectEveryLayoutMatches(index, "synthetic");
}

}  // namespace
}  // namespace dspc
