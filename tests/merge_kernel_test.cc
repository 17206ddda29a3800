// Differential harness for the label merges (DESIGN.md §15): the packed
// and wide two-pointer loops must produce bit-identical {dist, count} to
// an independent naive reference on exhaustive small shapes (empty /
// disjoint / identical / single-overlap ranges, overflow-reference words
// on one or both sides, rank limits landing exactly on a hub) and on a
// randomized fuzz sweep over short, long and lopsided ranges.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <string>
#include <vector>

#include "dspc/baseline/bfs_counting.h"
#include "dspc/common/label_codec.h"
#include "dspc/common/rng.h"
#include "dspc/core/merge_kernel.h"

namespace dspc {
namespace {

/// One side of a packed intersection: arena words + overflow side table.
struct PackedSide {
  std::vector<uint64_t> words;
  std::vector<LabelEntry> overflow;

  const uint64_t* begin() const { return words.data(); }
  const uint64_t* end() const { return words.data() + words.size(); }
};

/// Builds a packed side from strictly ascending hubs; each entry goes
/// out-of-line with probability `overflow_p`.
PackedSide MakeSide(const std::vector<Rank>& hubs, double overflow_p,
                    Rng& rng) {
  PackedSide side;
  for (const Rank h : hubs) {
    if (rng.NextBool(overflow_p)) {
      const uint64_t slot = side.overflow.size();
      // Out-of-line entries carry values the inline fields cannot: a
      // count above 2^29 (and occasionally a big distance).
      side.overflow.push_back(LabelEntry{
          h, static_cast<Distance>(1 + rng.NextBounded(2000)),
          (rng.Next() | (1ULL << 40))});
      side.words.push_back(PackFlatOverflowRef(h, slot));
    } else {
      side.words.push_back(
          PackLabel(h, static_cast<Distance>(1 + rng.NextBounded(500)),
                    1 + rng.NextBounded(kPackedCountMax - 1)));
    }
  }
  return side;
}

/// Test-local decode, independent of the kernel's internals.
void NaiveDecode(uint64_t word, const std::vector<LabelEntry>& overflow,
                 Distance* dist, PathCount* count) {
  if (IsFlatOverflowRef(word)) {
    const LabelEntry& e = overflow[FlatOverflowSlot(word)];
    *dist = e.dist;
    *count = e.count;
  } else {
    const PackedLabelFields f = UnpackLabel(word);
    *dist = f.dist;
    *count = f.count;
  }
}

/// Independent all-pairs reference: min summed distance over equal-hub
/// pairs, modular uint64 sum of count products over the min-achievers.
SpcResult NaiveMerge(const PackedSide& a, const PackedSide& b,
                     SpcResult seed) {
  for (const uint64_t wa : a.words) {
    for (const uint64_t wb : b.words) {
      if (FlatHub(wa) != FlatHub(wb)) continue;
      Distance da, db;
      PathCount ca, cb;
      NaiveDecode(wa, a.overflow, &da, &ca);
      NaiveDecode(wb, b.overflow, &db, &cb);
      const Distance d = da + db;
      if (d < seed.dist) {
        seed.dist = d;
        seed.count = ca * cb;
      } else if (d == seed.dist) {
        seed.count += ca * cb;
      }
    }
  }
  return seed;
}

SpcResult NaiveMergeWide(const std::vector<LabelEntry>& a,
                         const std::vector<LabelEntry>& b, SpcResult seed) {
  for (const LabelEntry& ea : a) {
    for (const LabelEntry& eb : b) {
      if (ea.hub != eb.hub) continue;
      const Distance d = ea.dist + eb.dist;
      if (d < seed.dist) {
        seed.dist = d;
        seed.count = ea.count * eb.count;
      } else if (d == seed.dist) {
        seed.count += ea.count * eb.count;
      }
    }
  }
  return seed;
}

/// Runs the packed merge on (a, b) from `seed` and asserts it reproduces
/// the naive reference bit for bit.
void ExpectPackedMatch(const PackedSide& a, const PackedSide& b,
                       SpcResult seed, const std::string& context) {
  const SpcResult want = NaiveMerge(a, b, seed);
  SpcResult got = seed;
  MergePackedTail(a.begin(), a.end(), a.overflow.data(), b.begin(), b.end(),
                  b.overflow.data(), &got);
  ASSERT_EQ(got.dist, want.dist) << context;
  ASSERT_EQ(got.count, want.count) << context;
}

std::vector<Rank> Hubs(std::initializer_list<Rank> hubs) { return hubs; }

TEST(MergeKernel, EmptySides) {
  Rng rng(1);
  const PackedSide some = MakeSide(Hubs({3, 9, 40}), 0.0, rng);
  const PackedSide empty;
  ExpectPackedMatch(empty, some, SpcResult{}, "empty a");
  ExpectPackedMatch(some, empty, SpcResult{}, "empty b");
  ExpectPackedMatch(empty, empty, SpcResult{}, "both empty");
  // An empty side leaves the seed untouched.
  ExpectPackedMatch(empty, some, SpcResult{4, 7}, "empty a, seeded");
}

TEST(MergeKernel, DisjointIdenticalAndSingleOverlap) {
  Rng rng(2);
  const PackedSide a = MakeSide(Hubs({1, 5, 9, 13, 700}), 0.0, rng);
  const PackedSide disjoint = MakeSide(Hubs({2, 6, 10, 14, 900}), 0.0, rng);
  ExpectPackedMatch(a, disjoint, SpcResult{}, "disjoint");

  const PackedSide same = MakeSide(Hubs({1, 5, 9, 13, 700}), 0.0, rng);
  ExpectPackedMatch(a, same, SpcResult{}, "identical hub sets");

  // One-element overlap at the front, middle, and back of the range.
  for (const Rank shared : {Rank{1}, Rank{9}, Rank{700}}) {
    std::vector<Rank> hubs{shared};
    for (Rank h : {Rank{200}, Rank{300}, Rank{400}, Rank{800}}) {
      if (h != shared) hubs.push_back(h);
    }
    std::sort(hubs.begin(), hubs.end());
    const PackedSide b = MakeSide(hubs, 0.0, rng);
    ExpectPackedMatch(a, b, SpcResult{},
                        "single overlap hub=" + std::to_string(shared));
  }
}

TEST(MergeKernel, SeedInteraction) {
  // The merge accumulates into a caller-seeded result (the dense part of
  // a flat query); a seed below, at, and above the best tail distance
  // must give the reference answer.
  Rng rng(3);
  const PackedSide a = MakeSide(Hubs({10, 20, 30, 40}), 0.0, rng);
  const PackedSide b = MakeSide(Hubs({20, 40, 50}), 0.0, rng);
  for (const Distance seed_dist : {Distance{1}, Distance{300}, Distance{900},
                                   kInfDistance}) {
    ExpectPackedMatch(a, b, SpcResult{seed_dist, 17},
                        "seed dist=" + std::to_string(seed_dist));
  }
}

TEST(MergeKernel, OverflowRefWords) {
  Rng rng(4);
  // All entries out-of-line on one side, then on both; matched overflow
  // pairs multiply counts far beyond the 29-bit inline field.
  const std::vector<Rank> hubs{7, 21, 22, 23, 90, 1000};
  const PackedSide inline_side = MakeSide(hubs, 0.0, rng);
  const PackedSide ovf_a = MakeSide(hubs, 1.0, rng);
  const PackedSide ovf_b = MakeSide(hubs, 1.0, rng);
  ExpectPackedMatch(ovf_a, inline_side, SpcResult{}, "overflow a only");
  ExpectPackedMatch(inline_side, ovf_b, SpcResult{}, "overflow b only");
  ExpectPackedMatch(ovf_a, ovf_b, SpcResult{}, "overflow both");
}

TEST(MergeKernel, LimitTruncationOnExactHub) {
  // PackedLowerBound replaces the historical in-loop `hub >= limit`
  // break; a limit equal to a hub present on both sides must exclude
  // exactly that hub and everything after it.
  Rng rng(5);
  const std::vector<Rank> hubs{4, 8, 15, 16, 23, 42};
  const PackedSide a = MakeSide(hubs, 0.3, rng);
  const PackedSide b = MakeSide(hubs, 0.3, rng);
  for (const Rank limit : {Rank{0}, Rank{4}, Rank{16}, Rank{42}, Rank{43},
                           Rank{100000}}) {
    const uint64_t* ae = PackedLowerBound(a.begin(), a.end(), limit);
    const uint64_t* be = PackedLowerBound(b.begin(), b.end(), limit);
    // Reference over the filtered hub sets.
    PackedSide fa{{a.begin(), ae}, a.overflow};
    PackedSide fb{{b.begin(), be}, b.overflow};
    const SpcResult want = NaiveMerge(fa, fb, SpcResult{});
    SpcResult got;
    MergePackedTail(a.begin(), ae, a.overflow.data(), b.begin(), be,
                    b.overflow.data(), &got);
    EXPECT_EQ(got.dist, want.dist) << "limit=" << limit;
    EXPECT_EQ(got.count, want.count) << "limit=" << limit;
  }
}

/// Strictly ascending hub set: `shared` hubs drawn from a common pool
/// plus private hubs, so overlap is controlled but positions are random.
std::vector<Rank> FuzzHubs(size_t n, double overlap, Rng& rng,
                           const std::vector<Rank>& pool) {
  std::vector<Rank> hubs;
  for (size_t i = 0; i < n; ++i) {
    if (!pool.empty() && rng.NextBool(overlap)) {
      hubs.push_back(pool[rng.NextBounded(pool.size())]);
    } else {
      hubs.push_back(static_cast<Rank>(rng.NextBounded(kPackedHubMax)));
    }
  }
  std::sort(hubs.begin(), hubs.end());
  hubs.erase(std::unique(hubs.begin(), hubs.end()), hubs.end());
  return hubs;
}

TEST(MergeKernel, FuzzSweepPacked) {
  Rng rng(0xC0FFEE);
  // Side lengths from empty through 192 words, including non-multiples of
  // 8 around 16 and 32, paired at random so many pairs are lopsided.
  const size_t sizes[] = {0, 1, 2, 3, 5, 8, 15, 16, 17, 31, 33, 64, 192};
  for (int iter = 0; iter < 60; ++iter) {
    std::vector<Rank> pool;
    for (int i = 0; i < 64; ++i) {
      pool.push_back(static_cast<Rank>(rng.NextBounded(1u << 20)));
    }
    const size_t na = sizes[rng.NextBounded(std::size(sizes))];
    const size_t nb = sizes[rng.NextBounded(std::size(sizes))];
    const double overlap = rng.NextDouble();
    const double ovf = rng.NextBool(0.5) ? 0.0 : rng.NextDouble() * 0.3;
    const PackedSide a = MakeSide(FuzzHubs(na, overlap, rng, pool), ovf, rng);
    const PackedSide b = MakeSide(FuzzHubs(nb, overlap, rng, pool), ovf, rng);
    ExpectPackedMatch(a, b, SpcResult{}, "fuzz iter " + std::to_string(iter));
    if (::testing::Test::HasFatalFailure()) return;
  }
  // Lopsided shapes, 3 against 400 words, in both orientations.
  for (int iter = 0; iter < 10; ++iter) {
    const PackedSide small =
        MakeSide(FuzzHubs(3, 0.8, rng, FuzzHubs(500, 0.0, rng, {})), 0.2, rng);
    const PackedSide big =
        MakeSide(FuzzHubs(400, 0.0, rng, {}), 0.2, rng);
    ExpectPackedMatch(small, big, SpcResult{},
                        "lopsided a iter " + std::to_string(iter));
    ExpectPackedMatch(big, small, SpcResult{},
                        "lopsided b iter " + std::to_string(iter));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(MergeKernel, FuzzSweepWide) {
  Rng rng(0xBEEF);
  const size_t sizes[] = {0, 1, 3, 4, 7, 16, 33, 120};
  for (int iter = 0; iter < 40; ++iter) {
    std::vector<Rank> pool;
    for (int i = 0; i < 48; ++i) {
      pool.push_back(static_cast<Rank>(rng.NextBounded(1u << 28)));
    }
    auto make = [&](size_t n, double overlap) {
      std::vector<LabelEntry> entries;
      for (const Rank h : FuzzHubs(n, overlap, rng, pool)) {
        entries.push_back(LabelEntry{
            h, static_cast<Distance>(1 + rng.NextBounded(1000)),
            1 + rng.Next() % (1ULL << 40)});
      }
      return entries;
    };
    const double overlap = rng.NextDouble();
    const std::vector<LabelEntry> a =
        make(sizes[rng.NextBounded(std::size(sizes))], overlap);
    const std::vector<LabelEntry> b =
        make(sizes[rng.NextBounded(std::size(sizes))], overlap);
    const SpcResult want = NaiveMergeWide(a, b, SpcResult{});
    SpcResult got;
    MergeWideScalar(a.data(), a.data() + a.size(), b.data(),
                    b.data() + b.size(), &got);
    ASSERT_EQ(got, want) << "wide fuzz iter " << iter;
    // WideLowerBound truncation mirrors the packed limit contract.
    if (!a.empty() && !b.empty()) {
      const Rank limit = a[rng.NextBounded(a.size())].hub;
      const LabelEntry* ae = WideLowerBound(a.data(), a.data() + a.size(),
                                            limit);
      const LabelEntry* be = WideLowerBound(b.data(), b.data() + b.size(),
                                            limit);
      const SpcResult limited = NaiveMergeWide(
          std::vector<LabelEntry>(a.data(), ae),
          std::vector<LabelEntry>(b.data(), be), SpcResult{});
      SpcResult got;
      MergeWideScalar(a.data(), ae, b.data(), be, &got);
      ASSERT_EQ(got, limited) << "wide limit fuzz iter " << iter;
    }
  }
}

}  // namespace
}  // namespace dspc
