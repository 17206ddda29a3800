// Unit tests for the SPC-Index container itself: query semantics,
// PreQuery, label mutation, hub occurrences, validation, serialization,
// and the HubCache (Query and the Covers prune test).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "dspc/common/label_codec.h"
#include "dspc/core/flat_spc_index.h"
#include "dspc/core/hp_spc.h"
#include "dspc/core/merge_kernel.h"
#include "dspc/core/spc_index.h"
#include "dspc/core/weighted_spc.h"
#include "dspc/graph/generators.h"
#include "test_util.h"

namespace dspc {
namespace {

using testing::ArenaRoundTrip;
using testing::ExpectIndexMatchesBfs;
using testing::RandomGraph;

VertexOrdering IdentityOrdering(size_t n) {
  OrderingOptions options;
  options.strategy = OrderingStrategy::kIdentity;
  return BuildOrderingFromDegrees(std::vector<size_t>(n, 0), options);
}

TEST(SpcIndexTest, FreshIndexHasSelfLabelsOnly) {
  SpcIndex index(IdentityOrdering(4));
  for (Vertex v = 0; v < 4; ++v) {
    ASSERT_EQ(index.Labels(v).size(), 1u);
    EXPECT_EQ(index.Labels(v)[0], (LabelEntry{v, 0, 1}));
    EXPECT_EQ(index.Query(v, v).dist, 0u);
    EXPECT_EQ(index.Query(v, v).count, 1u);
  }
  EXPECT_TRUE(index.ValidateStructure().ok());
}

TEST(SpcIndexTest, QueryPicksMinimumDistanceHubs) {
  SpcIndex index(IdentityOrdering(3));
  // Hub 0 covers pair (1,2) at distance 2+2, count 3*4; a second hub 1
  // at total distance 3 must win.
  index.InsertLabel(1, LabelEntry{0, 2, 3});
  index.InsertLabel(2, LabelEntry{0, 2, 4});
  index.InsertLabel(2, LabelEntry{1, 3, 5});
  EXPECT_EQ(index.Query(1, 2).dist, 3u);
  EXPECT_EQ(index.Query(1, 2).count, 5u);  // via hub 1 (self in L(1))
}

TEST(SpcIndexTest, QueryAccumulatesTies) {
  SpcIndex index(IdentityOrdering(4));
  index.InsertLabel(2, LabelEntry{0, 1, 2});
  index.InsertLabel(3, LabelEntry{0, 1, 3});
  index.InsertLabel(2, LabelEntry{1, 1, 5});
  index.InsertLabel(3, LabelEntry{1, 1, 7});
  // Both hubs give distance 2: counts 2*3 + 5*7 = 41.
  EXPECT_EQ(index.Query(2, 3).dist, 2u);
  EXPECT_EQ(index.Query(2, 3).count, 41u);
}

TEST(SpcIndexTest, PreQueryExcludesSelfAndLower) {
  SpcIndex index(IdentityOrdering(4));
  index.InsertLabel(2, LabelEntry{0, 1, 1});
  index.InsertLabel(3, LabelEntry{0, 1, 1});
  index.InsertLabel(3, LabelEntry{2, 1, 1});
  // Query(2,3) can use hub 2 itself: distance 1.
  EXPECT_EQ(index.Query(2, 3).dist, 1u);
  // PreQuery(2,3) may only use hubs ranked above 2: hub 0 gives 2.
  EXPECT_EQ(index.PreQuery(2, 3).dist, 2u);
}

TEST(SpcIndexTest, DisconnectedQuery) {
  SpcIndex index(IdentityOrdering(2));
  EXPECT_EQ(index.Query(0, 1).dist, kInfDistance);
  EXPECT_EQ(index.Query(0, 1).count, 0u);
}

TEST(SpcIndexTest, FindInsertRemoveLabel) {
  SpcIndex index(IdentityOrdering(3));
  EXPECT_EQ(index.FindLabel(2, 0), nullptr);
  index.InsertLabel(2, LabelEntry{0, 5, 7});
  LabelEntry* e = index.FindLabel(2, 0);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->dist, 5u);
  e->count = 9;  // in-place mutation is allowed
  EXPECT_EQ(index.FindLabel(2, 0)->count, 9u);
  EXPECT_TRUE(index.RemoveLabel(2, 0));
  EXPECT_FALSE(index.RemoveLabel(2, 0));
  EXPECT_TRUE(index.ValidateStructure().ok());
}

TEST(SpcIndexTest, LabelsKeptSortedByHub) {
  SpcIndex index(IdentityOrdering(5));
  index.InsertLabel(4, LabelEntry{2, 1, 1});
  index.InsertLabel(4, LabelEntry{0, 1, 1});
  index.InsertLabel(4, LabelEntry{3, 1, 1});
  const LabelSet& set = index.Labels(4);
  ASSERT_EQ(set.size(), 4u);
  EXPECT_EQ(set[0].hub, 0u);
  EXPECT_EQ(set[1].hub, 2u);
  EXPECT_EQ(set[2].hub, 3u);
  EXPECT_EQ(set[3].hub, 4u);  // self label last
}

TEST(SpcIndexTest, HubOccurrencesTracked) {
  SpcIndex index(IdentityOrdering(4));
  EXPECT_EQ(index.HubOccurrences(0), 0u);  // self labels don't count
  index.InsertLabel(1, LabelEntry{0, 1, 1});
  index.InsertLabel(2, LabelEntry{0, 1, 1});
  index.InsertLabel(2, LabelEntry{1, 1, 1});
  EXPECT_EQ(index.HubOccurrences(0), 2u);
  EXPECT_EQ(index.HubOccurrences(1), 1u);
  index.RemoveLabel(1, 0);
  EXPECT_EQ(index.HubOccurrences(0), 1u);
  EXPECT_EQ(index.ClearToSelfLabel(2), 2u);
  EXPECT_EQ(index.HubOccurrences(0), 0u);
  EXPECT_EQ(index.HubOccurrences(1), 0u);
}

TEST(SpcIndexTest, AddVertexGetsLowestRankAndSelfLabel) {
  SpcIndex index(IdentityOrdering(3));
  const Vertex v = index.AddVertex();
  EXPECT_EQ(v, 3u);
  EXPECT_EQ(index.RankOf(v), 3u);
  EXPECT_EQ(index.Labels(v).size(), 1u);
  EXPECT_TRUE(index.ValidateStructure().ok());
}

TEST(SpcIndexTest, ValidateCatchesViolations) {
  {
    SpcIndex index(IdentityOrdering(3));
    index.InsertLabel(1, LabelEntry{2, 1, 1});  // hub outranked by owner
    EXPECT_FALSE(index.ValidateStructure().ok());
  }
  {
    SpcIndex index(IdentityOrdering(3));
    index.InsertLabel(2, LabelEntry{0, 1, 0});  // zero count
    EXPECT_FALSE(index.ValidateStructure().ok());
  }
  {
    SpcIndex index(IdentityOrdering(3));
    index.RemoveLabel(1, 1);  // strip the self label
    EXPECT_FALSE(index.ValidateStructure().ok());
  }
}

TEST(SpcIndexTest, SizeStats) {
  const Graph g = RandomGraph(20, 40, 3);
  const SpcIndex index = BuildSpcIndex(g);
  const IndexSizeStats stats = index.SizeStats();
  EXPECT_EQ(stats.num_vertices, 20u);
  EXPECT_GE(stats.total_entries, 20u);  // at least the self labels
  EXPECT_GE(stats.max_label_size, 1u);
  EXPECT_DOUBLE_EQ(stats.avg_label_size,
                   static_cast<double>(stats.total_entries) / 20.0);
  EXPECT_EQ(stats.wide_bytes, stats.total_entries * sizeof(LabelEntry));
  EXPECT_EQ(stats.overflow_entries, 0u);  // tiny graph: everything packs
  EXPECT_EQ(stats.packed_bytes, stats.total_entries * 8);
}

TEST(SpcIndexTest, SizeStatsCountsOverflowSideTable) {
  // Entries exceeding the packed budgets cost an arena word plus a wide
  // side-table record; packed_bytes must account for both.
  SpcIndex index(IdentityOrdering(3));
  index.InsertLabel(1, LabelEntry{0, 1, kPackedCountMax + 1});
  index.InsertLabel(2, LabelEntry{0, static_cast<Distance>(kPackedDistMax), 1});
  const IndexSizeStats stats = index.SizeStats();
  EXPECT_EQ(stats.total_entries, 5u);
  EXPECT_EQ(stats.overflow_entries, 2u);
  EXPECT_EQ(stats.packed_bytes, 5 * 8 + 2 * sizeof(LabelEntry));
}

TEST(SpcIndexSerialization, RoundTripPreservesEverything) {
  const Graph g = RandomGraph(25, 60, 5);
  const SpcIndex index = BuildSpcIndex(g);
  const auto mapped = ArenaRoundTrip(FlatSpcIndex(index));
  ASSERT_NE(mapped, nullptr);
  const SpcIndex loaded = mapped->Unpack();
  ExpectIndexMatchesBfs(g, loaded, "loaded index");
  EXPECT_TRUE(loaded == index);
}

TEST(SpcIndexSerialization, WideEntriesSurviveRoundTrip) {
  // A count beyond the 29-bit packed field lives in the overflow section.
  SpcIndex index(IdentityOrdering(2));
  index.InsertLabel(1, LabelEntry{0, 3, (1ULL << 40) + 17});
  const auto mapped = ArenaRoundTrip(FlatSpcIndex(index));
  ASSERT_NE(mapped, nullptr);
  EXPECT_EQ(mapped->OverflowEntries(), 1u);
  const SpcIndex loaded = mapped->Unpack();
  ASSERT_NE(loaded.FindLabel(1, 0), nullptr);
  EXPECT_EQ(loaded.FindLabel(1, 0)->count, (1ULL << 40) + 17);
  EXPECT_TRUE(loaded == index);
}

TEST(SpcIndexSerialization, LoadRejectsGarbage) {
  // Too short for a header, then a full page with a bad magic.
  for (const size_t size : {size_t{4}, size_t{8192}}) {
    auto garbage = std::make_shared<std::vector<uint8_t>>(size, 0xAB);
    const auto arena = MappedArena::FromBytes(garbage->data(), size, garbage,
                                              "garbage");
    EXPECT_TRUE(arena.status().IsCorruption()) << arena.status().ToString();
  }
}

// --- HubCache -------------------------------------------------------------------

TEST(HubCacheTest, QueryEquivalentToIndexQuery) {
  const Graph g = RandomGraph(30, 70, 8);
  const SpcIndex index = BuildSpcIndex(g);
  HubCache cache(g.NumVertices());
  for (Vertex h = 0; h < 10; ++h) {
    cache.Load(index.Labels(h));
    for (Vertex v = 0; v < g.NumVertices(); ++v) {
      const SpcResult expect = index.Query(h, v);
      const SpcResult got = cache.Query(index.Labels(v));
      ASSERT_EQ(got.dist, expect.dist) << "h=" << h << " v=" << v;
      ASSERT_EQ(got.count, expect.count) << "h=" << h << " v=" << v;
    }
  }
}

// Checks HubCache::Covers against a reference distance for every loaded
// hub h, every vertex v, both cuts (rank(h), the PreQUERY cut, and none,
// the SpcQUERY one) and every bound in `bounds`:
//   Covers(L(v), bound, cut) == (reference(h, v, cut) < bound).
template <typename LabelsOf, typename ReferenceDist>
void ExpectCoversMatchesReference(size_t n, const VertexOrdering& order,
                                  const LabelsOf& labels_of,
                                  const ReferenceDist& reference,
                                  const std::vector<Distance>& bounds) {
  HubCache cache(n);
  for (Vertex h = 0; h < n; ++h) {
    cache.Load(labels_of(h));
    for (const Rank cut : {order.rank_of[h], kInvalidRank}) {
      for (Vertex v = 0; v < n; ++v) {
        const Distance expect = reference(h, v, cut);
        for (const Distance bound : bounds) {
          ASSERT_EQ(cache.Covers(labels_of(v), bound, cut), expect < bound)
              << "h=" << h << " v=" << v << " cut=" << cut
              << " bound=" << bound << " reference=" << expect;
        }
      }
    }
  }
}

TEST(HubCacheTest, CoversMatchesQueryAtEveryBound) {
  // Unweighted: every bound in [0, maxdist + 1].
  for (const uint64_t seed : {9u, 10u, 11u}) {
    const Graph g = RandomGraph(30, 45 + 10 * seed, seed);
    const SpcIndex index = BuildSpcIndex(g);
    const auto reference = [&](Vertex h, Vertex v, Rank cut) {
      return cut == kInvalidRank ? index.Query(h, v).dist
                                 : index.PreQuery(h, v).dist;
    };
    Distance maxdist = 0;
    for (Vertex s = 0; s < g.NumVertices(); ++s) {
      for (Vertex t = 0; t < g.NumVertices(); ++t) {
        const Distance d = index.Query(s, t).dist;
        if (d != kInfDistance) maxdist = std::max(maxdist, d);
      }
    }
    std::vector<Distance> bounds;
    for (Distance b = 0; b <= maxdist + 1; ++b) bounds.push_back(b);
    ExpectCoversMatchesReference(
        g.NumVertices(), index.ordering(),
        [&](Vertex v) -> const LabelSet& { return index.Labels(v); },
        reference, bounds);
  }

  // Weighted with weights up to 2^24: distances reach tens of millions,
  // so the bounds are 0, kInfDistance and every reference distance d with
  // d - 1 and d + 1 — each point where the answer can change. The cut
  // reference truncates both sets at the cut, as SpcIndex::PreQuery does.
  for (const uint64_t seed : {12u, 13u}) {
    const DynamicWeightedSpcIndex index(AttachRandomWeights(
        RandomGraph(30, 70, seed), 1, Weight{1} << 24, seed));
    const size_t n = index.graph().NumVertices();
    const auto reference = [&](Vertex h, Vertex v, Rank cut) {
      if (cut == kInvalidRank) return index.Query(h, v).dist;
      const LabelSet& a = index.Labels(h);
      const LabelSet& b = index.Labels(v);
      const LabelEntry* a_end =
          WideLowerBound(a.data(), a.data() + a.size(), cut);
      const LabelEntry* b_end =
          WideLowerBound(b.data(), b.data() + b.size(), cut);
      SpcResult pre;
      MergeWideScalar(a.data(), a_end, b.data(), b_end, &pre);
      return pre.dist;
    };
    std::vector<Distance> bounds = {0, kInfDistance};
    for (Vertex h = 0; h < n; ++h) {
      for (Vertex v = 0; v < n; ++v) {
        for (const Rank cut : {index.ordering().rank_of[h], kInvalidRank}) {
          const Distance d = reference(h, v, cut);
          if (d == kInfDistance) continue;
          bounds.insert(bounds.end(), {d, d + 1});
          if (d > 0) bounds.push_back(d - 1);
        }
      }
    }
    std::sort(bounds.begin(), bounds.end());
    bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
    ExpectCoversMatchesReference(
        n, index.ordering(),
        [&](Vertex v) -> const LabelSet& { return index.Labels(v); },
        reference, bounds);
  }
}

// Covers tests blocks of 8 entries without branches, then the tail: a
// certifying hub at every position of sets of every length up to 3 blocks
// plus a tail, read as LabelSet and as the builders' (hub, dist) column,
// under every cut, against a one-entry reference.
template <typename Entry>
void ExpectBlockedCoversMatchesReference() {
  constexpr size_t kN = 64;
  HubCache cache(kN);
  for (size_t size = 0; size <= 27; ++size) {
    std::vector<Entry> labels;
    for (size_t i = 0; i < size; ++i) {
      Entry e{};
      e.hub = static_cast<Rank>(2 * i);
      e.dist = static_cast<Distance>(1 + i % 5);
      labels.push_back(e);
    }
    // Nothing loaded: an unloaded hub's dist is kInfDistance, and its sum
    // with e.dist wraps below kInfDistance; the mask must reject it.
    cache.Clear();
    EXPECT_FALSE(cache.Covers(labels, kInfDistance)) << "size=" << size;
    for (size_t p = 0; p < size; ++p) {
      Entry loaded{};
      loaded.hub = static_cast<Rank>(2 * p);
      loaded.dist = 3;
      cache.Load(std::vector<Entry>{loaded});
      const Distance through = 3 + labels[p].dist;
      for (const Rank cut : {kInvalidRank, Rank{0}, loaded.hub,
                             loaded.hub + 1, static_cast<Rank>(2 * size)}) {
        for (Distance bound = 0; bound <= 10; ++bound) {
          const bool expect = loaded.hub < cut && through < bound;
          ASSERT_EQ(cache.Covers(labels, bound, cut), expect)
              << "size=" << size << " p=" << p << " cut=" << cut
              << " bound=" << bound;
        }
      }
    }
  }
}

TEST(HubCacheTest, BlockedScanMatchesReferenceForEveryEntryType) {
  ExpectBlockedCoversMatchesReference<LabelEntry>();
  ExpectBlockedCoversMatchesReference<internal::HubDist>();
}

TEST(HubCacheTest, ReloadClearsPreviousHub) {
  SpcIndex index(IdentityOrdering(3));
  index.InsertLabel(2, LabelEntry{0, 1, 1});
  index.InsertLabel(2, LabelEntry{1, 1, 1});
  HubCache cache(3);
  cache.Load(index.Labels(0));
  EXPECT_EQ(cache.DistOf(0), 0u);
  cache.Load(index.Labels(1));
  // Hub 0's residue must be gone: L(1) = {(1,0,1)} only.
  EXPECT_EQ(cache.DistOf(0), kInfDistance);
  EXPECT_EQ(cache.DistOf(1), 0u);
}

}  // namespace
}  // namespace dspc
