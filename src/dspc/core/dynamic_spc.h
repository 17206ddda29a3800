// DynamicSpcIndex: the library's core engine. Owns a graph and its
// SPC-Index and keeps them consistent under edge/vertex insertions and
// deletions (DSPC, paper Section 3), answering SPC queries at any point.
//
// Applications should usually sit one layer up, on the typed serving API
// (api/spc_service.h, DESIGN.md §9), which adds input validation,
// per-call consistency options, and read-your-writes tokens:
//   SpcService service(std::move(graph));
//   auto r = service.Query(s, t);              // StatusOr<QueryResponse>
//   if (r.ok()) use(r->result);
//   auto w = service.InsertEdge(u, v);         // IncSPC, not reconstruction
//   service.Query(s, t, {.min_generation = w->token.generation});
//
// Direct engine use remains supported for single-threaded tools/tests:
//   DynamicSpcIndex dspc(std::move(graph));
//   auto [d, c] = dspc.Query(s, t);
//   dspc.InsertEdge(u, v);
//   dspc.RemoveEdge(x, y);   // DecSPC
//
// The vertex ordering is frozen at construction (paper Section 6); newly
// added vertices receive the lowest ranks.
//
// Concurrency model (DESIGN.md §7): queries are served from immutable
// FlatSpcIndex snapshots published by a SnapshotManager; readers pin the
// current snapshot with one atomic load and never block on maintenance.
// The mutable graph/index pair is guarded by a shared mutex — updates
// take it exclusively, snapshot copies and the (rare) mutable-index query
// fallback take it shared — so any number of reader threads may run
// concurrently with writer threads. Individual updates are atomic;
// multi-update sequences (ApplyBatch, RemoveVertex) are not one atomic
// unit: readers may observe intermediate generations.

#ifndef DSPC_CORE_DYNAMIC_SPC_H_
#define DSPC_CORE_DYNAMIC_SPC_H_

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dspc/common/thread_pool.h"
#include "dspc/core/dec_spc.h"
#include "dspc/core/flat_spc_index.h"
#include "dspc/core/inc_spc.h"
#include "dspc/core/pair_cache.h"
#include "dspc/core/parallel_build.h"
#include "dspc/core/snapshot_manager.h"
#include "dspc/core/spc_index.h"
#include "dspc/core/update_stats.h"
#include "dspc/graph/graph.h"
#include "dspc/graph/ordering.h"

namespace dspc {

/// Snapshot maintenance and serving knobs, grouped so the service layer
/// (api/spc_service.h) can consume and forward them as one unit.
struct SnapshotOptions {
  /// Serve queries from an immutable FlatSpcIndex snapshot (DESIGN.md §5).
  /// Every applied update bumps a generation counter that invalidates the
  /// snapshot; the refresh policy below decides who rebuilds it and when.
  bool enabled = true;

  /// How many queries may observe a stale snapshot before a rebuild is
  /// scheduled. 1 rebuilds on the first query after any update (snappiest
  /// serving, worst for update-heavy interleavings); larger values
  /// amortize rebuilds across update bursts.
  size_t rebuild_after_queries = 8;

  /// When and where stale snapshots are rebuilt (DESIGN.md §7):
  ///  - kSync (default, the historical behavior): stale queries ride the
  ///    mutable index, then one query pays the rebuild inline. Always
  ///    current answers; deterministic rebuild counts.
  ///  - kBackground: queries always serve the pinned snapshot — possibly
  ///    a few generations stale — and rebuilds happen on a worker thread,
  ///    so the query path never blocks on maintenance or on writers. An
  ///    initial snapshot is published eagerly at construction.
  ///  - kManual: only FlatSnapshot()/WaitForFreshSnapshot() rebuild.
  RefreshPolicy refresh = RefreshPolicy::kSync;

  /// Vertex-range shards in the flat snapshot (DESIGN.md §8). Updates
  /// mark the shards of every vertex whose label set changed; a refresh
  /// repacks only those and adopts the rest from the previous snapshot,
  /// so rebuild cost tracks update locality instead of total index size.
  /// 1 reproduces the monolithic layout; 0 picks kDefaultShards. The
  /// effective count is rounded to power-of-two shard widths
  /// (FlatSpcIndex::ComputeShardLayout).
  static constexpr size_t kDefaultShards = 16;
  size_t shards = 0;

  /// Worker threads for repacking dirty shards during one refresh
  /// (FlatSpcIndex::Rebuild). 0 picks hardware concurrency (capped at
  /// 8); 1 packs serially on the rebuilding thread.
  unsigned rebuild_threads = 0;

  /// Reader backpressure under kBackground: the policy's contract is
  /// *bounded* staleness, but spinning readers on a saturated machine
  /// can starve the rebuild worker of CPU, letting the published
  /// snapshot fall arbitrarily far behind. When the snapshot trails the
  /// mutable index by more than this many generations, each
  /// snapshot-served query donates one timeslice (std::this_thread::
  /// yield) before answering — queries never block and never wait for a
  /// rebuild, they just stop out-competing maintenance for the CPU that
  /// would resolve the lag. Costs a few microseconds per query while
  /// saturated, zero when the worker keeps up. 0 disables.
  uint64_t backpressure_lag = 8;

  /// Writer-priority yield under kBackground: snapshot-served queries
  /// never touch the writer's lock, so on a machine with more spinning
  /// readers than cores the scheduler starves update application (the
  /// writer computes label changes on an equal CPU share against
  /// readers that never block). While any update is mid-application,
  /// each snapshot-served query donates one timeslice before answering:
  /// updates then process at near-isolated speed and queries still
  /// answer (stale, non-blocking) in microseconds. One relaxed atomic
  /// load per query when no writer is active.
  bool writer_priority = true;
};

/// Options for DynamicSpcIndex.
struct DynamicSpcOptions {
  /// Ordering used for the initial HP-SPC build.
  OrderingOptions ordering;
  /// Passed through to DecSPC (isolated-vertex fast path toggle).
  DecSpc::Options dec;

  /// Lazy rebuild policy (paper §6, "Vertex Ordering Changes"): the frozen
  /// ordering degrades as the graph drifts, so rebuild from scratch with a
  /// fresh degree ordering after `rebuild_after_updates` applied updates
  /// (0 = never), or whenever the label count exceeds
  /// `rebuild_growth_factor` times the count at the last build
  /// (0 = never). Both triggers are checked after each update.
  size_t rebuild_after_updates = 0;
  double rebuild_growth_factor = 0.0;

  /// Starting value of the structural generation counter (0 means the
  /// historical default of 1). Recovery (persist/recovery.h) passes the
  /// loaded checkpoint's generation here so that replaying the WAL
  /// advances the counter to the exact pre-crash value and previously
  /// issued WriteTokens stay meaningful across a restart.
  uint64_t initial_generation = 0;

  /// Snapshot maintenance/serving knobs (DESIGN.md §5, §7, §8).
  SnapshotOptions snapshot;

  /// Full-(re)build parallelism (DESIGN.md §12). Every HP-SPC
  /// construction this engine performs — at creation, in Rebuild(), and
  /// when the lazy rebuild policy fires (SpcService::Open's
  /// no-checkpoint bootstrap funnels through the constructor, so it is
  /// covered too) — goes through BuildSpcIndexParallel with these
  /// options. threads = 1 forces the sequential builder; the default 0
  /// uses hardware concurrency on graphs large enough to amortize the
  /// worker pool (kParallelBuildMinVertices) and stays sequential below.
  /// The result is label-identical to the sequential builder either way.
  ParallelBuildOptions build;

  /// Hot-pair result cache consulted by the service layer on
  /// snapshot-served reads (api/spc_service.h, DESIGN.md §15). The
  /// engine itself ignores it; it rides these options so every
  /// SpcService entry point — constructors, Open, OpenWithState — picks
  /// it up without a signature change.
  PairCacheOptions pair_cache;
};

/// A dynamic shortest-path-counting index over an owned graph.
class DynamicSpcIndex {
 public:
  /// Takes ownership of `graph` and builds its SPC-Index with HP-SPC.
  explicit DynamicSpcIndex(Graph graph, const DynamicSpcOptions& options = {});

  /// Adopts a pre-built index (must be a valid index of `graph`, e.g.
  /// MappedArena::Map(...)->snapshot()->Unpack() of a saved image).
  DynamicSpcIndex(Graph graph, SpcIndex index,
                  const DynamicSpcOptions& options = {});

  /// SPC query: shortest distance and number of shortest paths between s
  /// and t; {kInfDistance, 0} when disconnected.
  ///
  /// Thread-safety contract (all query paths): any number of threads may
  /// call Query / BatchQuery / FlatSnapshot / PinSnapshot concurrently
  /// with each other and with updates. Snapshot-served queries never
  /// block; queries that ride the mutable index take a shared lock and
  /// may briefly wait for an in-flight update. Under
  /// RefreshPolicy::kBackground answers may trail the newest updates by a
  /// bounded number of generations (see SnapshotOptions).
  ///
  /// Out-of-range vertex ids are answered as disconnected
  /// ({kInfDistance, 0}); the service layer (api/spc_service.h) rejects
  /// them earlier with kInvalidArgument.
  SpcResult Query(Vertex s, Vertex t) const;

  /// Inserts edge (a, b) and maintains the index with IncSPC.
  ///
  /// Blocking: takes the writer (exclusive) lock — waits for in-flight
  /// updates and live-served reads. Thread-safe against all other
  /// methods. Inserting an existing edge is a no-op (stats.applied is
  /// false, generation unchanged). Endpoints must be in range; the
  /// service layer enforces this, raw callers own it.
  UpdateStats InsertEdge(Vertex a, Vertex b);

  /// Deletes edge (a, b) and maintains the index with DecSPC.
  /// Same blocking/thread-safety/no-op contract as InsertEdge.
  UpdateStats RemoveEdge(Vertex a, Vertex b);

  /// Adds an isolated vertex (lowest rank, self label only); returns its
  /// id. Takes the writer lock; forces a full snapshot rebuild next
  /// refresh (the shard layout derives from the vertex count).
  Vertex AddVertex();

  /// Deletes vertex v by removing all incident edges through DecSPC
  /// (paper Section 3); the id remains valid but isolated. Runs one
  /// writer-locked decremental update per incident edge — readers may
  /// observe intermediate generations. No-op for out-of-range v.
  UpdateStats RemoveVertex(Vertex v);

  /// Applies one Update (insert or delete); see InsertEdge/RemoveEdge.
  UpdateStats Apply(const struct Update& update);

  /// Applies a batch of updates in order, folding the per-update counters
  /// into one UpdateStats. Exact no-op pairs within the batch (an
  /// insertion followed by the deletion of the same edge, or vice versa)
  /// are cancelled out first — the cheap batch optimization available
  /// without the BatchHL-style machinery the paper cites as related work.
  ///
  /// When `reports` is non-null it is resized to updates.size() and
  /// reports[i] records update i's individual outcome: kApplied with its
  /// own UpdateStats and the structural generation that update advanced
  /// the index to, or kNoOp with a static reason (already-present /
  /// missing edge, or cancelled against an exact inverse in the batch).
  /// The engine never emits kRejected — admission rejection is the
  /// service layer's job (SpcService::ApplyUpdates). Each update takes
  /// the writer lock individually; the batch is not one atomic unit.
  UpdateStats ApplyBatch(std::span<const struct Update> updates,
                         std::vector<WriteReport>* reports = nullptr);

  /// Evaluates many queries, using up to `threads` worker threads. With
  /// the flat snapshot enabled, a batch counts as pairs.size() stale
  /// queries against the rebuild budget and runs
  /// FlatSpcIndex::QueryManyParallel over the acquired snapshot (fanned
  /// out on the shared QueryPool — no per-batch thread spawns); batches
  /// that should ride the mutable index go through BatchQueryLive. Pairs
  /// with out-of-range ids answer {kInfDistance, 0}.
  std::vector<SpcResult> BatchQuery(
      const std::vector<std::pair<Vertex, Vertex>>& pairs,
      unsigned threads = 0) const;

  // --- serving primitives (the toolkit SpcService routes through;
  // DESIGN.md §9) ---------------------------------------------------------

  /// Serves one query from the mutable index under the shared lock —
  /// always current, may briefly wait for an in-flight update.
  /// Out-of-range ids answer {kInfDistance, 0}. When `generation` is
  /// non-null it receives the structural generation read UNDER the lock
  /// — the exact state the answer reflects (writers bump the generation
  /// while holding the lock exclusively, so an admission-time read can
  /// understate what a lock wait later served).
  SpcResult QueryLive(Vertex s, Vertex t,
                      uint64_t* generation = nullptr) const;

  /// Deadline-bounded QueryLive: tries to take the shared lock until
  /// `deadline` and gives up instead of blocking past it. Returns true
  /// with *out filled on success, false when the lock could not be
  /// acquired in time (an already-expired deadline degrades to a pure
  /// try-lock: it still serves when the lock is free). The primitive
  /// behind ReadOptions::timeout on kFresh reads (DESIGN.md §10).
  /// `generation` as in QueryLive.
  bool QueryLiveBefore(Vertex s, Vertex t,
                       std::chrono::steady_clock::time_point deadline,
                       SpcResult* out, uint64_t* generation = nullptr) const;

  /// Serves a batch from the mutable index under one shared lock (all
  /// answers reflect one generation — written to `generation` when
  /// non-null, as in QueryLive), parallelized over the facade's
  /// lazily-spawned common/ThreadPool instead of ad-hoc threads.
  /// threads = 0 picks hardware concurrency; small batches run inline.
  std::vector<SpcResult> BatchQueryLive(
      std::span<const std::pair<Vertex, Vertex>> pairs, unsigned threads = 0,
      uint64_t* generation = nullptr) const;

  /// Deadline-bounded BatchQueryLive: acquires the shared lock with a
  /// timed try-lock like QueryLiveBefore; false on timeout (*out is left
  /// untouched). The deadline bounds the lock wait only — an admitted
  /// batch runs to completion, and it runs SERIALLY on the calling
  /// thread: the shared QueryPool serializes fork-join regions, so a
  /// timed batch must not queue behind another batch's region for an
  /// unbounded stretch while holding the shared lock (which would both
  /// void the deadline and stall writers).
  bool BatchQueryLiveBefore(std::span<const std::pair<Vertex, Vertex>> pairs,
                            unsigned threads,
                            std::chrono::steady_clock::time_point deadline,
                            std::vector<SpcResult>* out,
                            uint64_t* generation = nullptr) const;

  /// The query-path snapshot acquisition: pins the published snapshot and
  /// charges `queries` observations against the staleness budget, which
  /// is what schedules (kBackground) or performs (kSync, after the budget)
  /// rebuilds. Empty when the caller should ride the mutable index — or
  /// when snapshots are disabled. The two-argument form takes a
  /// generation the caller already loaded (hot-path: skips one atomic
  /// read); both are header-inline because they sit on every service
  /// query.
  SnapshotManager::Pinned AcquireSnapshot(size_t queries) const {
    return AcquireSnapshot(Generation(), queries);
  }
  SnapshotManager::Pinned AcquireSnapshot(uint64_t current_generation,
                                          size_t queries) const {
    if (!options_.snapshot.enabled) return {};
    return snapshots_->Acquire(current_generation, queries);
  }

  /// Charges the staleness budget without any rebuild risk (see
  /// SnapshotManager::ChargeOnly) — the deadline-bounded read path under
  /// kSync, which must not pay for maintenance but must keep rebuilds
  /// due. No-op with snapshots disabled.
  void ChargeSnapshotBudget(size_t queries) const {
    if (options_.snapshot.enabled) snapshots_->ChargeOnly(queries);
  }

  /// Bounded-staleness/writer-priority pacing for snapshot-served reads
  /// (SnapshotOptions::backpressure_lag, writer_priority): donates one
  /// timeslice when the pinned generation trails too far or a writer is
  /// mid-update. Never blocks. Callers serving a pin they obtained
  /// themselves (SpcService) apply this before answering. Header-inline
  /// (one relaxed load in the common case) because it runs per
  /// snapshot-served query.
  void YieldForMaintenance(uint64_t current_generation,
                           uint64_t pinned_generation) const {
    if (options_.snapshot.refresh != RefreshPolicy::kBackground) {
      return;  // sync/manual readers already pace themselves on the lock
    }
    if (options_.snapshot.writer_priority &&
        active_writers_.load(std::memory_order_relaxed) > 0) {
      std::this_thread::yield();
      return;
    }
    // A publish can race ahead of this reader's generation read, making
    // the pin *newer* than current_generation — that is freshness, not
    // lag, so only subtract when the pin actually trails.
    if (options_.snapshot.backpressure_lag != 0 &&
        pinned_generation < current_generation &&
        current_generation - pinned_generation >
            options_.snapshot.backpressure_lag) {
      std::this_thread::yield();
    }
  }

  /// Blocks until a snapshot of generation >= `generation` is published
  /// and returns it pinned (the token-wait primitive behind
  /// SpcService::WaitForSnapshot). The caller must guarantee the mutable
  /// index has reached `generation`.
  SnapshotManager::Pinned AwaitSnapshotAtLeast(uint64_t generation) const;

  /// Deadline-bounded AwaitSnapshotAtLeast: stops waiting at `deadline`
  /// and returns whatever is published then — the caller detects a
  /// timeout by pin.generation < generation (or an empty pin). See
  /// SnapshotManager::AwaitGeneration(deadline) for the per-policy
  /// semantics of the bound.
  SnapshotManager::Pinned AwaitSnapshotAtLeast(
      uint64_t generation,
      std::chrono::steady_clock::time_point deadline) const;

  /// Current vertex-id space [0, NumVertices()), readable lock-free (the
  /// admission check of the service layer). Grows under AddVertex; never
  /// shrinks.
  size_t NumVertices() const {
    return num_vertices_.load(std::memory_order_acquire);
  }

  /// The current flat snapshot, rebuilding it first if stale (under
  /// kBackground this waits for the worker to publish). The returned
  /// snapshot is immutable and kept alive by the shared_ptr, so callers
  /// may query it from many threads for as long as they hold it (later
  /// rebuilds publish new snapshots instead of mutating this one).
  std::shared_ptr<const FlatSpcIndex> FlatSnapshot() const;

  /// Pins the currently published snapshot together with the generation
  /// it reflects, without charging the staleness budget or triggering any
  /// rebuild. Empty before the first publish. The non-blocking read for
  /// callers that want to reason about snapshot staleness themselves.
  SnapshotManager::Pinned PinSnapshot() const;

  /// Requests (if needed) and waits for a snapshot of the current
  /// generation, returning it pinned. The quiesce point for tests and
  /// benches running under RefreshPolicy::kBackground. Call from a
  /// moment when no writer is concurrently advancing the generation.
  SnapshotManager::Pinned WaitForFreshSnapshot() const;

  /// Structural generation: bumped by every applied update, vertex
  /// addition, and rebuild.
  uint64_t Generation() const {
    return generation_.load(std::memory_order_acquire);
  }

  /// True when the published flat snapshot reflects the current
  /// generation.
  bool SnapshotFresh() const {
    return snapshots_->FreshAt(Generation()) &&
           static_cast<bool>(snapshots_->Pin());
  }

  /// How many times the flat snapshot has been (re)built.
  size_t SnapshotRebuilds() const { return snapshots_->Rebuilds(); }

  /// The snapshot manager's counters (background rebuilds, retired
  /// snapshots, published generation). Always present — with
  /// snapshot.enabled off the query paths simply never consult it.
  const SnapshotManager* snapshots() const { return snapshots_.get(); }

  /// Rebuilds the index from scratch with HP-SPC under a fresh ordering —
  /// the paper's reconstruction baseline, also used by the lazy rebuild
  /// policy. Takes the writer lock for the whole build (live reads wait;
  /// snapshot reads keep serving the old snapshot) and forces a full
  /// snapshot rebuild next refresh.
  void Rebuild();

  /// Number of updates applied since the last (re)build.
  size_t UpdatesSinceBuild() const { return updates_since_build_; }

  /// Number of times the lazy rebuild policy fired.
  size_t PolicyRebuilds() const { return policy_rebuilds_; }

  /// Freezes the mutable state by taking (and holding, for the guard's
  /// lifetime) the writer lock: all writes and live-served reads block
  /// until the guard is released; snapshot-served reads keep answering —
  /// they never touch this lock. For tooling that needs the mutable
  /// graph/index pair quiescent (consistent external backups, tests
  /// proving the non-blocking read paths really don't block). Blocks
  /// until in-flight writers and live reads drain.
  std::unique_lock<std::shared_timed_mutex> FreezeWrites() const {
    return std::unique_lock<std::shared_timed_mutex>(index_mu_);
  }

  /// The facade's lazily-spawned query worker pool, shared by
  /// BatchQueryLive and the snapshot batch drivers (no serving batch ever
  /// spawns ad-hoc threads). Created on first call, so purely serial
  /// workloads never park worker threads; sized like the rebuild pool
  /// (hardware concurrency capped at 8). Never null.
  ThreadPool* QueryPool() const;

  /// Resolves the pool a snapshot batch of `pairs` queries should fan
  /// out over: QueryPool() when the batch is big enough to actually go
  /// parallel under `threads`, nullptr (serial — no pool spawn)
  /// otherwise. Pass the result to FlatSpcIndex::QueryManyParallel.
  ThreadPool* PoolForBatch(size_t pairs, unsigned threads) const;

  /// The owned graph / mutable index. Not synchronized: callers reading
  /// these concurrently with updates must provide their own exclusion
  /// (single-threaded tests and benches use them freely, or hold
  /// FreezeWrites()).
  const Graph& graph() const { return graph_; }
  const SpcIndex& index() const { return index_; }

  /// The options this engine was constructed with (immutable).
  const DynamicSpcOptions& options() const { return options_; }

 private:
  /// Shared tail of both constructors: resolves the shard layout and
  /// wires up the snapshot manager (plus the eager kBackground publish).
  void InitSnapshots();

  /// Applies the §6 lazy rebuild policy after an applied update. Caller
  /// holds index_mu_ exclusively.
  void MaybePolicyRebuildLocked();

  /// Rebuild body; caller holds index_mu_ exclusively.
  void RebuildLocked();

  /// Invalidates the flat snapshot after a structural change. Caller
  /// holds index_mu_ exclusively.
  void BumpGeneration() {
    generation_.fetch_add(1, std::memory_order_acq_rel);
  }

  /// Drains the mutable index's touched-vertex set into the per-shard
  /// dirty generations (dirty-shard tracking, DESIGN.md §8). Caller
  /// holds index_mu_ exclusively and has already bumped the generation.
  void NoteTouchedLocked();

  /// Recomputes the shard layout and marks everything dirty — required
  /// whenever the ordering or vertex count changes (AddVertex, Rebuild),
  /// since shard boundaries and packed hub ranks both derive from them.
  /// Caller holds index_mu_ exclusively (or is the constructor).
  void ResetShardLayoutLocked();

  /// SnapshotManager source: under the shared lock, decides which shards
  /// are dirty relative to `prev` (per-shard generations vs. the dirty
  /// tracking) and copies only those label ranges — or everything, when
  /// the layout stamp no longer matches.
  FlatSpcIndex::IndexDelta CopyDeltaForSnapshot(
      const FlatSpcIndex* prev) const;

  /// True when the pinned snapshot covers both endpoints — a stale
  /// snapshot predates vertices added after it was built, and those
  /// queries must ride the mutable index.
  static bool Covers(const SnapshotManager::Pinned& pin, Vertex s, Vertex t) {
    return pin && s < pin->NumVertices() && t < pin->NumVertices();
  }

  /// Shared body of BatchQueryLive/BatchQueryLiveBefore; the caller holds
  /// index_mu_ shared.
  void BatchQueryLiveLocked(std::span<const std::pair<Vertex, Vertex>> pairs,
                            unsigned threads,
                            std::vector<SpcResult>* results) const;

  Graph graph_;
  SpcIndex index_;
  DynamicSpcOptions options_;
  IncSpc inc_;
  DecSpc dec_;
  size_t updates_since_build_ = 0;
  size_t entries_at_build_ = 0;
  size_t policy_rebuilds_ = 0;

  /// Dirty-shard tracking (DESIGN.md §8), all written under exclusive
  /// index_mu_ and read under the shared lock by the snapshot source:
  /// the requested shard count, the current layout (mirrors
  /// FlatSpcIndex::ComputeShardLayout), a stamp identifying the
  /// (ordering, vertex count, layout) triple, and per shard the last
  /// generation at which one of its vertices' label sets changed.
  size_t snapshot_shards_ = 1;
  FlatSpcIndex::ShardLayout shard_layout_;
  uint64_t layout_stamp_ = 1;
  std::vector<uint64_t> shard_dirty_gen_;

  /// Guards graph_/index_ (and the counters above): updates exclusive,
  /// snapshot copies and mutable-index queries shared. Timed so the
  /// deadline-bounded live reads (QueryLiveBefore) can give up instead
  /// of blocking behind a writer.
  mutable std::shared_timed_mutex index_mu_;

  /// Structural generation, read lock-free by query paths. Written only
  /// under exclusive index_mu_.
  std::atomic<uint64_t> generation_{1};

  /// Lock-free mirror of graph_.NumVertices() for request admission.
  /// Written only under exclusive index_mu_ (constructor, AddVertex).
  std::atomic<size_t> num_vertices_{0};

  /// The query worker pool, spawned on first use (see QueryPool).
  mutable std::once_flag live_pool_once_;
  mutable std::unique_ptr<ThreadPool> live_pool_;

  /// Updates currently being applied (including time spent waiting for
  /// the exclusive lock) — the writer-priority signal read lock-free by
  /// MaybeBackpressure.
  mutable std::atomic<uint32_t> active_writers_{0};

  /// Snapshot publication/rebuild machinery. Declared last so its
  /// destructor joins the background worker before graph_/index_ (which
  /// the worker's copy step reads) are torn down.
  std::unique_ptr<SnapshotManager> snapshots_;
};

}  // namespace dspc

#endif  // DSPC_CORE_DYNAMIC_SPC_H_
