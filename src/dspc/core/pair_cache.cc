#include "dspc/core/pair_cache.h"

#include <algorithm>
#include <bit>

namespace dspc {
namespace {

// splitmix64 finalizer: full-avalanche mix of the pair key. The
// generation is deliberately NOT hashed — a pair must land on the same
// set at every generation so a fresh insert naturally supersedes its own
// stale entry instead of stranding it in another set.
inline uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

inline uint64_t KeyOf(Vertex u, Vertex v) {
  const uint64_t lo = std::min(u, v);
  const uint64_t hi = std::max(u, v);
  return (hi << 32) | lo;
}

// Hash bits: shard from the low bits, set from bits 32 up, way tag from
// the top byte. Tag 0 marks a vacant way and ghost 0 an empty ghost, so
// neither is ever produced.
inline uint32_t TagOf(uint64_t h) {
  return std::max<uint32_t>(static_cast<uint32_t>(h >> 56), 1);
}
inline uint32_t FingerprintOf(uint64_t h) {
  return static_cast<uint32_t>(h) | 1;
}

inline bool HasTag(uint32_t tags, uint32_t tag) {
  for (size_t w = 0; w < PairCache::kWays; ++w) {
    if (((tags >> (8 * w)) & 0xFF) == tag) return true;
  }
  return false;
}

}  // namespace

PairCache::PairCache(const PairCacheOptions& options) {
  const size_t capacity = std::max<size_t>(options.capacity, kWays);
  // One shard per ~4K entries, capped: enough striping that concurrent
  // readers rarely collide, few enough that StatsSnapshot stays cheap.
  num_shards_ = std::bit_ceil(std::clamp<size_t>(capacity >> 12, 1, 64));
  const size_t sets_total =
      std::max<size_t>(1, (capacity + kWays - 1) / kWays);
  sets_per_shard_ = std::bit_ceil(
      std::max<size_t>(1, (sets_total + num_shards_ - 1) / num_shards_));
  shards_ = std::make_unique<Shard[]>(num_shards_);
  for (size_t s = 0; s < num_shards_; ++s) {
    const size_t n = sets_per_shard_ * kWays;
    shards_[s].entries = std::make_unique<Entry[]>(n);
    for (size_t i = 0; i < n; ++i) {
      shards_[s].entries[i] = Entry{kEmptyKey, 0, 0, 0};
    }
    shards_[s].filters = std::make_unique<Filter[]>(sets_per_shard_);
  }
}

bool PairCache::Lookup(Vertex u, Vertex v, uint64_t generation,
                       SpcResult* out) {
  const uint64_t key = KeyOf(u, v);
  const uint64_t h = Mix(key);
  Shard& shard = shards_[h & (num_shards_ - 1)];
  const size_t set = (h >> 32) & (sets_per_shard_ - 1);
  if (HasTag(shard.filters[set].tags.load(std::memory_order_relaxed),
             TagOf(h))) {
    const Entry* ways = shard.entries.get() + set * kWays;
    std::lock_guard<std::mutex> lock(shard.mu);
    for (size_t w = 0; w < kWays; ++w) {
      if (ways[w].key == key && ways[w].generation == generation) {
        out->dist = ways[w].dist;
        out->count = ways[w].count;
        shard.hits.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
    }
  }
  shard.misses.fetch_add(1, std::memory_order_relaxed);
  return false;
}

void PairCache::Insert(Vertex u, Vertex v, uint64_t generation,
                       const SpcResult& result) {
  const uint64_t key = KeyOf(u, v);
  const uint64_t h = Mix(key);
  Shard& shard = shards_[h & (num_shards_ - 1)];
  const size_t set = (h >> 32) & (sets_per_shard_ - 1);
  Filter& filter = shard.filters[set];
  const uint32_t tag = TagOf(h);
  const uint32_t fingerprint = FingerprintOf(h);
  const auto reject = [&] {
    filter.ghost.store(fingerprint, std::memory_order_relaxed);
    shard.rejected.fetch_add(1, std::memory_order_relaxed);
  };
  const bool seen =
      filter.ghost.load(std::memory_order_relaxed) == fingerprint;
  const uint32_t tags = filter.tags.load(std::memory_order_relaxed);
  // Not resident, no vacant way, first sighting: the word alone decides.
  if (!seen && !HasTag(tags, tag) && !HasTag(tags, 0)) {
    reject();
    return;
  }
  Entry* ways = shard.entries.get() + set * kWays;
  std::lock_guard<std::mutex> lock(shard.mu);
  size_t victim = kWays;
  for (size_t w = 0; w < kWays && victim == kWays; ++w) {
    if (ways[w].key == key) victim = w;
  }
  for (size_t w = 0; w < kWays && victim == kWays; ++w) {
    if (ways[w].key == kEmptyKey) victim = w;
  }
  if (victim == kWays) {
    if (!seen) {  // displacing a resident takes a second sighting
      reject();
      return;
    }
    for (size_t w = 0; w < kWays && victim == kWays; ++w) {
      if (ways[w].generation != generation) victim = w;
    }
    if (victim == kWays) {
      victim = shard.victim_arm++ % kWays;
      shard.evictions.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (ways[victim].key != key) {
    // Only the mutex holder writes tags, so a plain store keeps them.
    const uint32_t shift = 8 * victim;
    const uint32_t old = filter.tags.load(std::memory_order_relaxed);
    filter.tags.store((old & ~(uint32_t{0xFF} << shift)) | (tag << shift),
                      std::memory_order_relaxed);
  }
  ways[victim] = Entry{key, generation, result.dist, result.count};
  shard.insertions.fetch_add(1, std::memory_order_relaxed);
}

PairCache::Stats PairCache::StatsSnapshot() const {
  Stats total;
  for (size_t s = 0; s < num_shards_; ++s) {
    const Shard& shard = shards_[s];
    total.hits += shard.hits.load(std::memory_order_relaxed);
    total.misses += shard.misses.load(std::memory_order_relaxed);
    total.insertions += shard.insertions.load(std::memory_order_relaxed);
    total.evictions += shard.evictions.load(std::memory_order_relaxed);
    total.rejected += shard.rejected.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace dspc
