// PairCache (DESIGN.md §15): the generation-keyed hot-pair result cache.
// Unit coverage of the set-associative structure (hit/miss, unordered
// keys, second-sighting admission, supersede-vs-evict victim preference,
// stats), the coherence contract at the service layer (a stale
// generation is never served after an update; read-your-writes tokens
// flow through the cached path), and hit/miss runs where every hit's
// payload is validated against a value derived from its key — one over
// a tiny table full of way-tag collisions, one concurrent. Suite names
// all match 'PairCache' so the TSan CI filter picks them up.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <thread>
#include <vector>

#include "dspc/api/spc_service.h"
#include "dspc/baseline/bibfs_counting.h"
#include "dspc/common/rng.h"
#include "dspc/core/pair_cache.h"
#include "dspc/graph/generators.h"
#include "dspc/graph/update_stream.h"

namespace dspc {
namespace {

PairCacheOptions Tiny() {
  PairCacheOptions o;
  o.enabled = true;
  o.capacity = PairCache::kWays;  // one set, one shard: fully observable
  return o;
}

// Fills the single set of a Tiny() cache with four live generation-1
// pairs (i, 100 + i). Vacant ways admit a pair on its first sighting.
void FillSet(PairCache& cache) {
  for (Vertex i = 0; i < 4; ++i) {
    cache.Insert(i, 100 + i, 1, SpcResult{1, i + 1u});
  }
  ASSERT_EQ(cache.StatsSnapshot().insertions, 4u);
  ASSERT_EQ(cache.StatsSnapshot().rejected, 0u);
}

// Offers a pair twice: when its set is full, the first sighting only
// writes the set's ghost and the second is admitted.
void InsertTwice(PairCache& cache, Vertex u, Vertex v, uint64_t generation,
                 const SpcResult& result) {
  cache.Insert(u, v, generation, result);
  cache.Insert(u, v, generation, result);
}

TEST(PairCache, MissInsertHit) {
  PairCache cache(Tiny());
  SpcResult out;
  EXPECT_FALSE(cache.Lookup(3, 9, 7, &out));

  const SpcResult stored{4, 12345};
  cache.Insert(3, 9, 7, stored);  // a vacant way admits the first sighting
  ASSERT_TRUE(cache.Lookup(3, 9, 7, &out));
  EXPECT_EQ(out, stored);

  const PairCache::Stats stats = cache.StatsSnapshot();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(PairCache, UnorderedPairKey) {
  PairCache cache(Tiny());
  cache.Insert(21, 5, 1, SpcResult{2, 8});
  SpcResult out;
  ASSERT_TRUE(cache.Lookup(5, 21, 1, &out));
  EXPECT_EQ(out, (SpcResult{2, 8}));
  // A self-pair and the reversed self-pair are the same key too.
  cache.Insert(6, 6, 1, SpcResult{0, 1});
  ASSERT_TRUE(cache.Lookup(6, 6, 1, &out));
  EXPECT_EQ(out, (SpcResult{0, 1}));

  // The ghost is keyed by the unordered pair as well: in a full set, a
  // sighting of (40, 30) after one of (30, 40) is the second sighting.
  cache.Insert(1, 2, 1, SpcResult{1, 1});
  cache.Insert(3, 4, 1, SpcResult{1, 1});
  cache.Insert(30, 40, 1, SpcResult{3, 3});
  EXPECT_FALSE(cache.Lookup(30, 40, 1, &out));
  cache.Insert(40, 30, 1, SpcResult{3, 3});
  ASSERT_TRUE(cache.Lookup(30, 40, 1, &out));
  EXPECT_EQ(out, (SpcResult{3, 3}));
  EXPECT_EQ(cache.StatsSnapshot().insertions, 5u);
  EXPECT_EQ(cache.StatsSnapshot().rejected, 1u);
}

TEST(PairCache, GenerationMismatchIsMiss) {
  PairCache cache(Tiny());
  cache.Insert(1, 2, 5, SpcResult{3, 30});
  SpcResult out;
  EXPECT_FALSE(cache.Lookup(1, 2, 4, &out));
  EXPECT_FALSE(cache.Lookup(1, 2, 6, &out));
  EXPECT_TRUE(cache.Lookup(1, 2, 5, &out));

  // A newer generation supersedes the same pair in place: the old
  // generation can never be served again, and nothing is evicted.
  cache.Insert(1, 2, 6, SpcResult{2, 99});
  EXPECT_FALSE(cache.Lookup(1, 2, 5, &out));
  ASSERT_TRUE(cache.Lookup(1, 2, 6, &out));
  EXPECT_EQ(out, (SpcResult{2, 99}));
  EXPECT_EQ(cache.StatsSnapshot().evictions, 0u);
  EXPECT_EQ(cache.StatsSnapshot().insertions, 2u);
}

TEST(PairCache, VictimPreferenceAndEvictionCount) {
  // One 4-way set. Four live same-generation entries fill it; a fifth
  // distinct pair must displace a live entry (a real eviction), which
  // takes its second sighting.
  PairCache cache(Tiny());
  ASSERT_EQ(cache.capacity(), PairCache::kWays);
  FillSet(cache);
  EXPECT_EQ(cache.StatsSnapshot().evictions, 0u);
  InsertTwice(cache, 50, 60, 1, SpcResult{9, 9});
  EXPECT_EQ(cache.StatsSnapshot().evictions, 1u);

  // Stale-generation entries are preferred victims: refilling the set at
  // generation 2 displaces the generation-1 leftovers silently. They are
  // still residents, so each new pair needs two sightings.
  const uint64_t evictions_before = cache.StatsSnapshot().evictions;
  SpcResult out;
  for (Vertex i = 0; i < 4; ++i) {
    cache.Insert(200 + i, 300 + i, 2, SpcResult{2, i + 1u});
    EXPECT_FALSE(cache.Lookup(200 + i, 300 + i, 2, &out)) << i;
    cache.Insert(200 + i, 300 + i, 2, SpcResult{2, i + 1u});
  }
  EXPECT_EQ(cache.StatsSnapshot().evictions, evictions_before);
  for (Vertex i = 0; i < 4; ++i) {
    ASSERT_TRUE(cache.Lookup(200 + i, 300 + i, 2, &out)) << i;
    EXPECT_EQ(out.count, i + 1u);
  }
  EXPECT_EQ(cache.StatsSnapshot().insertions, 9u);
  EXPECT_EQ(cache.StatsSnapshot().rejected, 5u);
}

TEST(PairCache, FirstSightingRejectedSecondAdmitted) {
  PairCache cache(Tiny());
  FillSet(cache);
  SpcResult out;
  cache.Insert(7, 8, 1, SpcResult{1, 1});
  EXPECT_EQ(cache.StatsSnapshot().rejected, 1u);
  EXPECT_EQ(cache.StatsSnapshot().insertions, 4u);
  EXPECT_EQ(cache.StatsSnapshot().evictions, 0u);
  EXPECT_FALSE(cache.Lookup(7, 8, 1, &out));

  cache.Insert(7, 8, 1, SpcResult{1, 1});
  EXPECT_EQ(cache.StatsSnapshot().rejected, 1u);
  EXPECT_EQ(cache.StatsSnapshot().insertions, 5u);
  EXPECT_EQ(cache.StatsSnapshot().evictions, 1u);
  ASSERT_TRUE(cache.Lookup(7, 8, 1, &out));
  EXPECT_EQ(out, (SpcResult{1, 1}));
}

TEST(PairCache, OverwrittenGhostIsNotAdmitted) {
  // One full set, so both pairs share its single ghost: the sighting of
  // (11, 12) replaces the ghost of (7, 8), whose next offer is again a
  // first sighting.
  PairCache cache(Tiny());
  FillSet(cache);
  SpcResult out;
  cache.Insert(7, 8, 1, SpcResult{1, 1});
  cache.Insert(11, 12, 1, SpcResult{2, 2});
  cache.Insert(7, 8, 1, SpcResult{1, 1});
  EXPECT_FALSE(cache.Lookup(7, 8, 1, &out));
  EXPECT_FALSE(cache.Lookup(11, 12, 1, &out));
  EXPECT_EQ(cache.StatsSnapshot().rejected, 3u);
  EXPECT_EQ(cache.StatsSnapshot().insertions, 4u);

  cache.Insert(7, 8, 1, SpcResult{1, 1});  // the ghost now holds (7, 8)
  ASSERT_TRUE(cache.Lookup(7, 8, 1, &out));
  EXPECT_EQ(cache.StatsSnapshot().insertions, 5u);
}

TEST(PairCache, StaleGenerationSupersededAtOnce) {
  // A resident pair offered at a new generation is stored on that first
  // offer, even though the set is full and its ghost holds another pair.
  PairCache cache(Tiny());
  FillSet(cache);  // holds (1, 101) at generation 1
  SpcResult out;
  cache.Insert(50, 51, 1, SpcResult{1, 1});  // ghost := (50, 51)
  cache.Insert(1, 101, 2, SpcResult{2, 20});
  ASSERT_TRUE(cache.Lookup(1, 101, 2, &out));
  EXPECT_EQ(out, (SpcResult{2, 20}));
  EXPECT_FALSE(cache.Lookup(1, 101, 1, &out));

  const PairCache::Stats stats = cache.StatsSnapshot();
  EXPECT_EQ(stats.insertions, 5u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(PairCache, CapacityAndShardRounding) {
  PairCacheOptions o;
  o.enabled = true;
  o.capacity = 100;  // not a power of two
  PairCache small(o);
  EXPECT_GE(small.capacity(), 100u);
  EXPECT_EQ(small.shards(), 1u);
  EXPECT_EQ(small.capacity() % PairCache::kWays, 0u);

  o.capacity = 3 * 4096;  // derives three shards, rounded up to four
  PairCache striped(o);
  EXPECT_GE(striped.capacity(), o.capacity);
  EXPECT_EQ(striped.shards(), 4u);
  EXPECT_EQ(striped.capacity() % (PairCache::kWays * striped.shards()), 0u);
}

// Payload derivable from (u, v, generation) alone, so hits can validate
// content without any shared state.
SpcResult DerivedResult(Vertex u, Vertex v, uint64_t generation) {
  const uint64_t key = (static_cast<uint64_t>(std::max(u, v)) << 32) |
                       std::min(u, v);
  return SpcResult{static_cast<Distance>((key ^ generation) & 0x3FF),
                   key * 0x9E3779B97F4A7C15ULL + generation};
}

TEST(PairCache, TagCollisionsNeverServeWrongAnswer) {
  // Sixteen entries in four sets, thousands of pairs: with 8-bit way
  // tags, many lookups find a tag that belongs to another pair. Each must
  // fall through to the full key compare — every hit carries exactly its
  // own pair's value.
  PairCacheOptions o;
  o.enabled = true;
  o.capacity = 16;
  PairCache cache(o);
  ASSERT_EQ(cache.capacity(), 16u);

  Rng rng(77);
  uint64_t lookups = 0;
  for (int i = 0; i < 6000; ++i) {
    const Vertex u = static_cast<Vertex>(rng.NextBounded(4096));
    const Vertex v = static_cast<Vertex>(rng.NextBounded(4096));
    const uint64_t generation = 1 + rng.NextBounded(2);
    for (int sighting = 0; sighting < 3; ++sighting) {
      SpcResult out;
      ++lookups;
      if (cache.Lookup(u, v, generation, &out)) {
        ASSERT_EQ(out, DerivedResult(u, v, generation)) << i;
      } else {
        cache.Insert(u, v, generation, DerivedResult(u, v, generation));
      }
    }
  }
  const PairCache::Stats stats = cache.StatsSnapshot();
  EXPECT_EQ(stats.hits + stats.misses, lookups);
  EXPECT_EQ(stats.insertions + stats.rejected, stats.misses);
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.evictions, 0u);
}

TEST(PairCacheConcurrency, HitMissStress) {
  PairCacheOptions o;
  o.enabled = true;
  o.capacity = 1 << 10;
  PairCache cache(o);

  constexpr int kThreads = 4;
  constexpr int kIters = 4000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      Rng rng(1000 + t);
      for (int i = 0; i < kIters; ++i) {
        // Overlapping pair universe across threads, three generations in
        // flight — plenty of cross-thread hits, misses, and supersedes.
        const Vertex u = static_cast<Vertex>(rng.NextBounded(64));
        const Vertex v = static_cast<Vertex>(rng.NextBounded(64));
        const uint64_t generation = 1 + rng.NextBounded(3);
        SpcResult out;
        if (cache.Lookup(u, v, generation, &out)) {
          // A hit must carry exactly what some thread inserted for this
          // (pair, generation) — never a torn or mismatched payload.
          ASSERT_EQ(out, DerivedResult(u, v, generation));
        } else {
          cache.Insert(u, v, generation, DerivedResult(u, v, generation));
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const PairCache::Stats stats = cache.StatsSnapshot();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<uint64_t>(kThreads) * kIters);
  EXPECT_EQ(stats.insertions + stats.rejected, stats.misses);
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.misses, 0u);
}

// --- service integration ----------------------------------------------------

DynamicSpcOptions CachedServiceOptions(size_t capacity = 512) {
  DynamicSpcOptions options;
  options.snapshot.refresh = RefreshPolicy::kBackground;
  options.snapshot.rebuild_after_queries = 1;
  options.pair_cache.enabled = true;
  options.pair_cache.capacity = capacity;
  return options;
}

TEST(PairCacheService, SnapshotReadsPopulateAndHit) {
  SpcService service(GenerateBarabasiAlbert(40, 2, 31),
                     CachedServiceOptions());
  ASSERT_TRUE(service.WaitForSnapshot({service.Generation()}).ok());

  ReadOptions snap;
  snap.consistency = Consistency::kSnapshot;
  const auto first = service.Query(3, 17, snap);
  ASSERT_TRUE(first.ok());
  const auto second = service.Query(3, 17, snap);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->result, first->result);
  EXPECT_EQ(second->generation, first->generation);

  // The cached answer equals the uncached live one.
  const auto fresh = service.Query(3, 17);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->result, first->result);

  const MetricsSnapshot metrics = service.Metrics();
  EXPECT_GE(metrics.pair_cache_misses, 1u);
  EXPECT_GE(metrics.pair_cache_hits, 1u);
  EXPECT_GE(metrics.pair_cache_insertions, 1u);
  EXPECT_NE(metrics.PrometheusText().find("dspc_pair_cache_lookups_total"),
            std::string::npos);
}

TEST(PairCacheService, LiveServedReadsBypassCache) {
  // A kFresh read served from a CURRENT snapshot flows through the pin
  // path and may use the cache (same generation, still exact). But once
  // the snapshot trails, kFresh escalates to the live index — and
  // live-served reads must never touch the cache.
  DynamicSpcOptions options = CachedServiceOptions();
  options.snapshot.rebuild_after_queries = 1000000;  // worker never nudged
  SpcService service(GenerateBarabasiAlbert(30, 2, 33), options);
  ASSERT_TRUE(service.WaitForSnapshot({service.Generation()}).ok());

  const Edge e = SampleNonEdges(service.engine().graph(), 1, 51).at(0);
  ASSERT_TRUE(service.InsertEdge(e.u, e.v).ok());  // snapshot now stale

  const MetricsSnapshot before = service.Metrics();
  for (int i = 0; i < 5; ++i) {
    const auto resp = service.Query(1, 2);  // kFresh default
    ASSERT_TRUE(resp.ok());
    ASSERT_EQ(resp->served_from, ServedFrom::kLiveIndex);
  }
  const MetricsSnapshot after = service.Metrics();
  EXPECT_EQ(after.pair_cache_hits + after.pair_cache_misses,
            before.pair_cache_hits + before.pair_cache_misses);
}

TEST(PairCacheService, BatchReadsBypassCache) {
  SpcService service(GenerateBarabasiAlbert(30, 2, 35),
                     CachedServiceOptions());
  ASSERT_TRUE(service.WaitForSnapshot({service.Generation()}).ok());
  ReadOptions snap;
  snap.consistency = Consistency::kSnapshot;
  const std::vector<VertexPair> pairs = {{0, 1}, {2, 3}, {4, 5}};
  ASSERT_TRUE(service.QueryBatch(pairs, snap).ok());
  const MetricsSnapshot metrics = service.Metrics();
  EXPECT_EQ(metrics.pair_cache_hits + metrics.pair_cache_misses, 0u);
}

TEST(PairCacheService, StaleGenerationNeverServedAfterUpdate) {
  // The coherence contract: warm the cache, mutate the pair's distance,
  // publish, and the cached stale answer must be unreachable — across
  // several rounds of updates touching the same hot pair.
  Graph graph = GenerateBarabasiAlbert(36, 2, 37);
  SpcService service(std::move(graph), CachedServiceOptions());
  ASSERT_TRUE(service.WaitForSnapshot({service.Generation()}).ok());

  ReadOptions snap;
  snap.consistency = Consistency::kSnapshot;
  for (int round = 0; round < 4; ++round) {
    // Pick a currently-missing edge; its endpoints are the hot pair.
    const Edge e =
        SampleNonEdges(service.engine().graph(), 1, 100 + round).at(0);
    // Warm the cache with the pre-update answer.
    const auto before = service.Query(e.u, e.v, snap);
    ASSERT_TRUE(before.ok());
    ASSERT_NE(before->result.dist, 1u);

    const auto write = service.InsertEdge(e.u, e.v);
    ASSERT_TRUE(write.ok());
    ASSERT_TRUE(service.WaitForSnapshot(write->token).ok());

    // Tokenless snapshot read: the snapshot has caught up, so the cached
    // pre-update entry (older generation) must not be served.
    const auto after = service.Query(e.u, e.v, snap);
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(after->result, (SpcResult{1, 1})) << "round " << round;
    EXPECT_GE(after->generation, write->token.generation);

    // And the answer matches ground truth on the live graph.
    const SpcResult truth = BiBfsCountPair(service.engine().graph(), e.u, e.v);
    EXPECT_EQ(after->result, truth);
  }
}

TEST(PairCacheService, ReadYourWritesThroughCachedPath) {
  SpcService service(GenerateBarabasiAlbert(36, 2, 41),
                     CachedServiceOptions());
  ASSERT_TRUE(service.WaitForSnapshot({service.Generation()}).ok());

  const Edge e = SampleNonEdges(service.engine().graph(), 1, 43).at(0);
  ReadOptions snap;
  snap.consistency = Consistency::kSnapshot;
  // Warm the pre-write entry so the post-write read would hit it if
  // generation keying were broken.
  ASSERT_TRUE(service.Query(e.u, e.v, snap).ok());

  const auto write = service.InsertEdge(e.u, e.v);
  ASSERT_TRUE(write.ok());
  ASSERT_TRUE(service.WaitForSnapshot(write->token).ok());

  snap.min_generation = write->token.generation;
  // Twice: the first read fills the new generation's entry, the second
  // is served from it; both must reflect the write.
  for (int i = 0; i < 2; ++i) {
    const auto resp = service.Query(e.u, e.v, snap);
    ASSERT_TRUE(resp.ok()) << "read " << i;
    EXPECT_EQ(resp->result, (SpcResult{1, 1})) << "read " << i;
    EXPECT_GE(resp->generation, write->token.generation);
    EXPECT_EQ(resp->served_from, ServedFrom::kSnapshot);
  }
  const MetricsSnapshot metrics = service.Metrics();
  EXPECT_GE(metrics.pair_cache_hits, 1u);
}

TEST(PairCacheServiceConcurrency, ReadersAndWriterStayCoherent) {
  // Concurrent snapshot readers over a small hot set while a writer
  // mutates the graph: every response must match ground truth computed
  // for the exact generation it was served at. Hot pairs guarantee the
  // readers exercise both the hit and miss paths concurrently.
  SpcService service(GenerateBarabasiAlbert(32, 2, 47),
                     CachedServiceOptions(256));
  ASSERT_TRUE(service.WaitForSnapshot({service.Generation()}).ok());

  constexpr int kReaders = 3;
  constexpr int kReadsPerReader = 600;
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&service, t] {
      Rng rng(500 + t);
      ReadOptions snap;
      snap.consistency = Consistency::kSnapshot;
      for (int i = 0; i < kReadsPerReader; ++i) {
        const Vertex u = static_cast<Vertex>(rng.NextBounded(8));  // hot set
        const Vertex v = static_cast<Vertex>(rng.NextBounded(32));
        const auto resp = service.Query(u, v, snap);
        ASSERT_TRUE(resp.ok());
      }
    });
  }
  std::vector<Update> stream =
      MakeHybridStream(service.engine().graph(), 10, 5, 49);
  for (const Update& u : stream) {
    const auto write = service.ApplyUpdates({&u, 1});
    ASSERT_TRUE(write.ok());
  }
  for (std::thread& t : readers) t.join();

  // Settle, then verify the cached path converges on ground truth.
  const auto final_write = service.Metrics();
  EXPECT_GT(final_write.pair_cache_hits + final_write.pair_cache_misses, 0u);
  ASSERT_TRUE(service.WaitForSnapshot({service.Generation()}).ok());
  ReadOptions snap;
  snap.consistency = Consistency::kSnapshot;
  for (Vertex u = 0; u < 8; ++u) {
    for (Vertex v = 0; v < 8; ++v) {
      const auto resp = service.Query(u, v, snap);
      ASSERT_TRUE(resp.ok());
      EXPECT_EQ(resp->result, BiBfsCountPair(service.engine().graph(), u, v))
          << "u=" << u << " v=" << v;
    }
  }
}

}  // namespace
}  // namespace dspc
