// Generation-keyed hot-pair result cache (DESIGN.md §15).
//
// A fixed-budget, sharded, set-associative map of an unordered vertex
// pair to its {dist, count} at a specific snapshot generation. The
// service layer consults it on snapshot-served reads where skewed real
// traffic repeats pairs; reads escalated to the live index bypass it.
//
// Invalidation is free and implicit: a lookup hits only when the cached
// entry's generation equals the generation of the snapshot the read is
// being served from. A generation uniquely determines snapshot content
// (rebuilds are label-identical, shard adoption is exact), so
// (u, v, generation) -> {dist, count} is an immutable fact — entries are
// never wrong, only superseded, and there is no explicit invalidation
// path at all. min_generation / write-token semantics are untouched
// because routing resolves WHICH snapshot serves the read before the
// cache is consulted.
//
// The filter word: each 4-way set has one 8-byte word beside the table,
// holding an 8-bit tag per way (from the pair's hash; 0 = vacant) and a
// 32-bit "ghost" fingerprint of the last pair turned away. A miss whose
// tag matches no way reads that word and nothing else. A tag is only a
// hint — a hit still compares the full key and generation in the table —
// so a stale or colliding tag costs a locked probe, never a wrong answer.
// Admission is on the second sighting: Insert stores a pair when the set
// already holds it at another generation (a supersede) or has a vacant
// way, and displaces a resident only when the ghost holds the pair's
// fingerprint. Otherwise it records the ghost and returns, so once the
// set is full a one-off pair never writes a table line.
//
// Concurrency: lock striping. Each shard owns a mutex guarding its table
// sets. The filter words and the counters are relaxed atomics, read
// without the lock; tags are written under it, ghosts without it.
//
// Memory is ~32 bytes per entry plus 8 bytes per set, allocated up front.

#ifndef DSPC_CORE_PAIR_CACHE_H_
#define DSPC_CORE_PAIR_CACHE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>

#include "dspc/baseline/bfs_counting.h"
#include "dspc/common/types.h"

namespace dspc {

/// Knobs for the hot-pair cache. Rides DynamicSpcOptions so every
/// SpcService entry point (constructors, Open, OpenWithState) picks it
/// up without a signature change; the engine itself ignores it.
struct PairCacheOptions {
  /// Off by default: the cache only pays for itself under skewed
  /// (repeating-pair) read traffic.
  bool enabled = false;
  /// Total entry budget; rounded up so each shard holds a power-of-two
  /// number of 4-way sets. The lock-striping shard count follows from
  /// it (one shard per ~4K entries, at most 64).
  size_t capacity = 1 << 16;
};

class PairCache {
 public:
  static constexpr size_t kWays = 4;

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;
    /// Inserts the admission rule turned away (a first sighting that
    /// would have displaced a resident). Every Insert either inserts or
    /// is rejected, so under the service's miss-then-insert protocol
    /// insertions + rejected == misses.
    uint64_t rejected = 0;
  };

  explicit PairCache(const PairCacheOptions& options);

  PairCache(const PairCache&) = delete;
  PairCache& operator=(const PairCache&) = delete;

  /// Looks up the unordered pair {u, v} at exactly `generation`. On hit
  /// fills *out and returns true; any other generation is a miss.
  bool Lookup(Vertex u, Vertex v, uint64_t generation, SpcResult* out);

  /// Offers the result of the unordered pair {u, v} computed against the
  /// snapshot tagged `generation`. Victim preference within the set: same
  /// pair (supersede), then an empty way, then — only if the set's ghost
  /// holds the pair's fingerprint (a second sighting) — any
  /// stale-generation entry, then round-robin; only displacing a live
  /// same-generation entry counts as an eviction. A pair with no victim
  /// is rejected: only the ghost is written.
  void Insert(Vertex u, Vertex v, uint64_t generation,
              const SpcResult& result);

  /// Sums per-shard counters without locking. Counters are monotone;
  /// safe to call concurrently with readers.
  Stats StatsSnapshot() const;

  size_t capacity() const { return num_shards_ * sets_per_shard_ * kWays; }
  size_t shards() const { return num_shards_; }

 private:
  struct Entry {
    uint64_t key;  // (max(u,v) << 32) | min(u,v); kEmptyKey = vacant
    uint64_t generation;
    Distance dist;
    PathCount count;
  };
  // (0xFFFFFFFF, 0xFFFFFFFF) would collide only for two invalid vertex
  // ids, which routing rejects before the cache is reached.
  static constexpr uint64_t kEmptyKey = ~uint64_t{0};

  // The filter word of one set. Its halves are separate atomics because
  // they have separate writers: the tags change only under the shard
  // mutex, the ghost on the lock-free rejection path, so neither store
  // needs a compare-exchange to keep the other half.
  struct Filter {
    std::atomic<uint32_t> tags{0};   // way w's tag in byte w; 0 = vacant
    std::atomic<uint32_t> ghost{0};  // last rejected fingerprint; 0 = none
  };

  struct alignas(64) Shard {
    std::mutex mu;
    std::unique_ptr<Entry[]> entries;   // sets_per_shard * kWays
    std::unique_ptr<Filter[]> filters;  // sets_per_shard
    uint32_t victim_arm = 0;            // round-robin across forced evictions
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
    std::atomic<uint64_t> insertions{0};
    std::atomic<uint64_t> evictions{0};
    std::atomic<uint64_t> rejected{0};
  };

  size_t num_shards_;
  size_t sets_per_shard_;  // power of two
  std::unique_ptr<Shard[]> shards_;
};

}  // namespace dspc

#endif  // DSPC_CORE_PAIR_CACHE_H_
