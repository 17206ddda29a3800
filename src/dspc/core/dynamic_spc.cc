#include "dspc/core/dynamic_spc.h"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <thread>

#include "dspc/core/hp_spc.h"
#include "dspc/graph/update_stream.h"

namespace dspc {

namespace {

/// RAII writer signal for reader pacing: raised for the whole update
/// application, including the wait for the exclusive lock (a
/// reader-starved writer spends most of its time exactly there).
class WriterScope {
 public:
  explicit WriterScope(std::atomic<uint32_t>* counter) : counter_(counter) {
    counter_->fetch_add(1, std::memory_order_relaxed);
  }
  ~WriterScope() { counter_->fetch_sub(1, std::memory_order_relaxed); }
  WriterScope(const WriterScope&) = delete;
  WriterScope& operator=(const WriterScope&) = delete;

 private:
  std::atomic<uint32_t>* counter_;
};

/// The §3.2.3 isolated-vertex fast path, for undirected unit-length
/// deletions only (DESIGN.md §3): deleting (a, b) where one endpoint has
/// degree 1 and is outranked by the other detaches it, so its label set
/// collapses to the self label and nothing else changes. Returns false,
/// without changing anything, when the shortcut does not apply.
bool TryIsolatedVertexDelete(Vertex a, Vertex b, Graph* graph,
                             SpcIndex* index, UpdateStats* stats) {
  const bool a_leaf = graph->Degree(a) == 1;
  const bool b_leaf = graph->Degree(b) == 1;
  Vertex keep;      // the paper's `a`
  Vertex detached;  // the paper's `b`, about to become isolated
  if (a_leaf && b_leaf) {
    // Both degree 1: detach the lower-ranked one, so keep <= detached
    // holds by construction.
    if (index->RankOf(a) < index->RankOf(b)) {
      keep = a;
      detached = b;
    } else {
      keep = b;
      detached = a;
    }
  } else if (b_leaf) {
    keep = a;
    detached = b;
  } else if (a_leaf) {
    keep = b;
    detached = a;
  } else {
    return false;
  }
  // The paper's argument needs the surviving endpoint to outrank the
  // detached one (then no label anywhere uses `detached` as hub). A frozen
  // degree ordering does not guarantee this after updates, so check and
  // fall back to the general path otherwise.
  if (index->RankOf(keep) > index->RankOf(detached)) return false;
  // Stale labels retained by IncSPC can use `detached` as hub even though
  // a minimal index never would; they would answer queries against the
  // soon-isolated vertex. Take the fast path only when provably none
  // exist; the general path's removal scan cleans them otherwise.
  if (index->HubOccurrences(index->RankOf(detached)) != 0) return false;

  graph->RemoveEdge(a, b);
  stats->removed += index->ClearToSelfLabel(detached);
  stats->used_isolated_vertex_opt = true;
  return true;
}

/// A yield that returns sooner than this handed the CPU to nobody.
constexpr std::chrono::nanoseconds kFastYield{5000};

unsigned ResolveRebuildThreads(unsigned requested) {
  if (requested != 0) return requested;
  return std::clamp(std::thread::hardware_concurrency(), 1u, 8u);
}

}  // namespace

DynamicSpcIndex::DynamicSpcIndex(Graph graph, const DynamicSpcOptions& options)
    : graph_(std::move(graph)),
      index_(BuildSpcIndexParallel(graph_, options.ordering, options.build)),
      options_(options),
      core_(UndirectedPolicy{{}, &graph_, &index_}) {
  InitSnapshots();
}

DynamicSpcIndex::DynamicSpcIndex(Graph graph, SpcIndex index,
                                 const DynamicSpcOptions& options)
    : graph_(std::move(graph)),
      index_(std::move(index)),
      options_(options),
      core_(UndirectedPolicy{{}, &graph_, &index_}) {
  InitSnapshots();
}

void DynamicSpcIndex::InitSnapshots() {
  if (options_.initial_generation != 0) {
    generation_.store(options_.initial_generation, std::memory_order_release);
  }
  num_vertices_.store(graph_.NumVertices(), std::memory_order_release);
  snapshot_shards_ = options_.snapshot.shards != 0
                         ? options_.snapshot.shards
                         : SnapshotOptions::kDefaultShards;
  ResetShardLayoutLocked();
  snapshots_ = std::make_unique<SnapshotManager>(
      [this](const FlatSpcIndex* prev) { return CopyDeltaForSnapshot(prev); },
      options_.snapshot.refresh, options_.snapshot.rebuild_after_queries,
      ResolveRebuildThreads(options_.snapshot.rebuild_threads));
  // Background serving reads only published snapshots, so publish one
  // before any query can arrive (also warms the serving path).
  if (options_.snapshot.refresh == RefreshPolicy::kBackground) {
    snapshots_->RefreshNow(Generation());
  }
}

void DynamicSpcIndex::ResetShardLayoutLocked() {
  ++layout_stamp_;
  shard_layout_ = FlatSpcIndex::ComputeShardLayout(index_.NumVertices(),
                                                   snapshot_shards_);
  // Every shard starts dirty at the current generation: the stamp change
  // already forces the next refresh to be a full build.
  shard_dirty_gen_.assign(shard_layout_.count,
                          generation_.load(std::memory_order_relaxed));
  index_.ClearTouched();
}

void DynamicSpcIndex::NoteTouchedLocked() {
  const uint64_t gen = generation_.load(std::memory_order_relaxed);
  for (const Vertex v : index_.TouchedVertices()) {
    shard_dirty_gen_[v >> shard_layout_.shift] = gen;
  }
  index_.ClearTouched();
}

FlatSpcIndex::IndexDelta DynamicSpcIndex::CopyDeltaForSnapshot(
    const FlatSpcIndex* prev) const {
  // Delta copy-on-read: the shared lock excludes writers only for the
  // O(entries in dirty shards) label copies; the expensive packing runs
  // on the caller's thread with no lock held.
  std::shared_lock<std::shared_timed_mutex> lock(index_mu_);
  FlatSpcIndex::IndexDelta delta;
  delta.generation = Generation();
  delta.layout_stamp = layout_stamp_;
  delta.num_vertices = index_.NumVertices();
  delta.num_shards = snapshot_shards_;
  const bool incremental =
      prev != nullptr && prev->LayoutStamp() == layout_stamp_;
  if (!incremental) {
    delta.full = true;
    delta.ordering = index_.ordering();
  }
  for (size_t i = 0; i < shard_layout_.count; ++i) {
    if (incremental && shard_dirty_gen_[i] <= prev->ShardGeneration(i)) {
      continue;  // clean: the rebuild adopts prev's arena
    }
    delta.dirty.push_back(
        {i, index_.CopyLabelRange(shard_layout_.BeginOf(i),
                                  shard_layout_.EndOf(i, delta.num_vertices))});
  }
  return delta;
}

UpdateStats DynamicSpcIndex::InsertEdge(Vertex a, Vertex b) {
  WriterScope writer(&active_writers_);
  std::unique_lock<std::shared_timed_mutex> lock(index_mu_);
  UpdateStats stats;
  // AddEdge refuses a self-loop, an out-of-range endpoint or an edge that
  // exists: a no-op.
  if (graph_.AddEdge(a, b)) {
    stats.applied = true;
    core_.Insert(a, b, 1, &stats);
    BumpGeneration();
    NoteTouchedLocked();
  } else {
    index_.ClearTouched();
  }
  return stats;
}

UpdateStats DynamicSpcIndex::RemoveEdge(Vertex a, Vertex b) {
  WriterScope writer(&active_writers_);
  std::unique_lock<std::shared_timed_mutex> lock(index_mu_);
  UpdateStats stats;
  if (a != b && graph_.IsValidVertex(a) && graph_.IsValidVertex(b) &&
      graph_.HasEdge(a, b)) {
    stats.applied = true;
    if (!options_.dec.enable_isolated_vertex_opt ||
        !TryIsolatedVertexDelete(a, b, &graph_, &index_, &stats)) {
      core_.Delete(a, b, 1, [&] { graph_.RemoveEdge(a, b); }, &stats);
    }
    BumpGeneration();
    NoteTouchedLocked();
  } else {
    index_.ClearTouched();
  }
  return stats;
}

Vertex DynamicSpcIndex::AddVertex() {
  WriterScope writer(&active_writers_);
  std::unique_lock<std::shared_timed_mutex> lock(index_mu_);
  graph_.AddVertex();
  const Vertex v = index_.AddVertex();
  core_.Resize();
  num_vertices_.store(graph_.NumVertices(), std::memory_order_release);
  BumpGeneration();
  // The vertex count changed, so shard boundaries (and the stale
  // snapshot's coverage) changed with it: new layout, full rebuild next.
  ResetShardLayoutLocked();
  return v;
}

UpdateStats DynamicSpcIndex::RemoveVertex(Vertex v) {
  // Deleting a vertex is a sequence of decremental edge updates (paper
  // Section 3) over a copy of the adjacency: RemoveEdge mutates it (and
  // takes the write lock itself).
  UpdateStats total;
  for (const Vertex u : Neighbors(v)) {
    total.Accumulate(RemoveEdge(v, u));
  }
  return total;
}

std::vector<Vertex> DynamicSpcIndex::Neighbors(Vertex v) const {
  std::shared_lock<std::shared_timed_mutex> lock(index_mu_);
  if (!graph_.IsValidVertex(v)) return {};
  return graph_.Neighbors(v);
}

UpdateStats DynamicSpcIndex::Apply(const Update& update) {
  if (update.kind == Update::Kind::kInsert) {
    return InsertEdge(update.edge.u, update.edge.v);
  }
  return RemoveEdge(update.edge.u, update.edge.v);
}

UpdateStats DynamicSpcIndex::ApplyBatch(std::span<const Update> updates,
                                        std::vector<WriteReport>* reports) {
  // Cancel exact inverse pairs: an insert later undone by a delete of the
  // same edge (or vice versa) never needs to touch the index. Matching is
  // last-in-first-out per edge so interleavings like I-D-I keep one
  // insert, as required for the final graph to be correct.
  auto key = [](const Edge& e) {
    const Vertex lo = std::min(e.u, e.v);
    const Vertex hi = std::max(e.u, e.v);
    return (static_cast<uint64_t>(lo) << 32) | hi;
  };
  std::vector<bool> cancelled(updates.size(), false);
  std::unordered_map<uint64_t, std::vector<size_t>> open;  // index stack
  for (size_t i = 0; i < updates.size(); ++i) {
    const uint64_t k = key(updates[i].edge);
    auto& stack = open[k];
    if (!stack.empty() &&
        updates[stack.back()].kind != updates[i].kind) {
      cancelled[stack.back()] = true;
      cancelled[i] = true;
      stack.pop_back();
    } else {
      stack.push_back(i);
    }
  }

  if (reports != nullptr) {
    reports->clear();
    reports->resize(updates.size());
  }
  UpdateStats total;
  for (size_t i = 0; i < updates.size(); ++i) {
    if (cancelled[i]) {
      if (reports != nullptr) {
        (*reports)[i].outcome = WriteReport::Outcome::kNoOp;
        (*reports)[i].reason = "cancelled against an exact inverse in the batch";
      }
      continue;
    }
    const UpdateStats stats = Apply(updates[i]);
    total.Accumulate(stats);
    if (reports != nullptr) {
      WriteReport& report = (*reports)[i];
      if (stats.applied) {
        report.outcome = WriteReport::Outcome::kApplied;
        report.reason = "applied";
        report.stats = stats;
        // Post-update generation: the read-your-writes floor for exactly
        // this update.
        report.generation = Generation();
      } else {
        report.outcome = WriteReport::Outcome::kNoOp;
        report.reason = updates[i].kind == Update::Kind::kInsert
                            ? "edge already present"
                            : "edge not present";
      }
    }
  }
  return total;
}

SnapshotManager::Pinned DynamicSpcIndex::AwaitSnapshotAtLeast(
    uint64_t generation) const {
  return snapshots_->AwaitGeneration(generation);
}

SnapshotManager::Pinned DynamicSpcIndex::AwaitSnapshotAtLeast(
    uint64_t generation, std::chrono::steady_clock::time_point deadline) const {
  return snapshots_->AwaitGeneration(generation, deadline);
}

SpcResult DynamicSpcIndex::QueryLive(Vertex s, Vertex t,
                                     uint64_t* generation) const {
  std::shared_lock<std::shared_timed_mutex> lock(index_mu_);
  if (generation != nullptr) *generation = Generation();
  if (!graph_.IsValidVertex(s) || !graph_.IsValidVertex(t)) {
    return {kInfDistance, 0};  // out-of-range ids are simply disconnected
  }
  return index_.Query(s, t);
}

bool DynamicSpcIndex::QueryLiveBefore(
    Vertex s, Vertex t, std::chrono::steady_clock::time_point deadline,
    SpcResult* out, uint64_t* generation) const {
  // try_lock_until with a past deadline degrades to a plain try-lock, so
  // an expired deadline still serves when no writer holds the lock.
  std::shared_lock<std::shared_timed_mutex> lock(index_mu_, std::defer_lock);
  if (!lock.try_lock_until(deadline)) return false;
  if (generation != nullptr) *generation = Generation();
  *out = graph_.IsValidVertex(s) && graph_.IsValidVertex(t)
             ? index_.Query(s, t)
             : SpcResult{kInfDistance, 0};
  return true;
}

void DynamicSpcIndex::PaceReader() const {
  // Per thread, not per engine: the yield asks whether anyone else wants
  // this thread's CPU, whichever engine the read serves.
  thread_local ReaderPacing pacing;
  if (pacing.left != 0) {
    --pacing.left;
    return;
  }
  const auto start = std::chrono::steady_clock::now();
  std::this_thread::yield();
  pacing = NextPacing(pacing,
                      std::chrono::steady_clock::now() - start < kFastYield);
  pacing_yields_.fetch_add(1, std::memory_order_relaxed);
}

SpcResult DynamicSpcIndex::Query(Vertex s, Vertex t) const {
  const uint64_t generation = Generation();
  const auto pin = snapshots_->Acquire(generation, 1);
  if (Covers(pin, s, t)) {
    YieldForMaintenance(generation, pin.generation);
    return pin->Query(s, t);
  }
  return QueryLive(s, t);
}

ThreadPool* DynamicSpcIndex::QueryPool() const {
  // Sized like the rebuild pool (hardware concurrency capped at 8): the
  // workers park on the facade for its whole lifetime once spawned, so
  // the cap bounds what one parallel batch costs a big machine forever.
  std::call_once(live_pool_once_, [this] {
    live_pool_ = std::make_unique<ThreadPool>(ResolveRebuildThreads(0));
  });
  return live_pool_.get();
}

ThreadPool* DynamicSpcIndex::PoolForBatch(size_t pairs,
                                          unsigned threads) const {
  // The go-parallel decision is QueryManyParallel's own predicate, asked
  // directly — duplicating it here would let the two drift and silently
  // reintroduce per-batch pool spawns.
  if (FlatSpcIndex::PlannedParallelism(pairs, threads) <= 1) return nullptr;
  return QueryPool();
}

/// Locked body of the live batch drivers; the caller holds the shared
/// lock so every answer reflects one consistent generation.
void DynamicSpcIndex::BatchQueryLiveLocked(
    std::span<const std::pair<Vertex, Vertex>> pairs, unsigned threads,
    std::vector<SpcResult>* results) const {
  results->resize(pairs.size());
  const auto query_one = [&](size_t i) {
    const auto [s, t] = pairs[i];
    (*results)[i] = graph_.IsValidVertex(s) && graph_.IsValidVertex(t)
                        ? index_.Query(s, t)
                        : SpcResult{kInfDistance, 0};
  };
  if (threads == 0) threads = std::thread::hardware_concurrency();
  if (threads <= 1 || pairs.size() < 64) {
    for (size_t i = 0; i < pairs.size(); ++i) query_one(i);
    return;
  }
  // Strided chunks over the shared pool (one fork-join region; the pool
  // serializes concurrent regions internally). Capping the chunk count at
  // `threads` honors the caller's parallelism bound even though the pool
  // itself is sized once.
  ThreadPool* pool = QueryPool();
  const unsigned chunks = std::min(threads, pool->size());
  pool->ParallelFor(chunks, [&](size_t w) {
    for (size_t i = w; i < pairs.size(); i += chunks) query_one(i);
  });
}

std::vector<SpcResult> DynamicSpcIndex::BatchQueryLive(
    std::span<const std::pair<Vertex, Vertex>> pairs, unsigned threads,
    uint64_t* generation) const {
  std::vector<SpcResult> results;
  std::shared_lock<std::shared_timed_mutex> lock(index_mu_);
  if (generation != nullptr) *generation = Generation();
  BatchQueryLiveLocked(pairs, threads, &results);
  return results;
}

bool DynamicSpcIndex::BatchQueryLiveBefore(
    std::span<const std::pair<Vertex, Vertex>> pairs, unsigned threads,
    std::chrono::steady_clock::time_point deadline,
    std::vector<SpcResult>* out, uint64_t* generation) const {
  (void)threads;  // see header: timed batches deliberately run serially
  std::shared_lock<std::shared_timed_mutex> lock(index_mu_, std::defer_lock);
  if (!lock.try_lock_until(deadline)) return false;
  if (generation != nullptr) *generation = Generation();
  BatchQueryLiveLocked(pairs, /*threads=*/1, out);
  return true;
}

std::vector<SpcResult> DynamicSpcIndex::BatchQuery(
    const std::vector<std::pair<Vertex, Vertex>>& pairs,
    unsigned threads) const {
  const uint64_t generation = Generation();
  const auto pin = snapshots_->Acquire(generation, pairs.size());
  const bool covers_all =
      pin && std::all_of(pairs.begin(), pairs.end(), [&](const auto& p) {
        return Covers(pin, p.first, p.second);
      });
  if (covers_all) {
    YieldForMaintenance(generation, pin.generation);
    return pin->QueryManyParallel(pairs, threads,
                                  PoolForBatch(pairs.size(), threads));
  }
  return BatchQueryLive(pairs, threads);
}

std::shared_ptr<const FlatSpcIndex> DynamicSpcIndex::FlatSnapshot() const {
  return snapshots_->AwaitGeneration(Generation()).snapshot;
}

SnapshotManager::Pinned DynamicSpcIndex::PinSnapshot() const {
  return snapshots_->Pin();
}

SnapshotManager::Pinned DynamicSpcIndex::WaitForFreshSnapshot() const {
  return snapshots_->AwaitGeneration(Generation());
}

void DynamicSpcIndex::Rebuild() {
  WriterScope writer(&active_writers_);
  std::unique_lock<std::shared_timed_mutex> lock(index_mu_);
  index_ = BuildSpcIndexParallel(graph_, options_.ordering, options_.build);
  core_.Resize();
  BumpGeneration();
  // A fresh ordering re-ranks every hub, so no previous shard survives.
  ResetShardLayoutLocked();
}

}  // namespace dspc
