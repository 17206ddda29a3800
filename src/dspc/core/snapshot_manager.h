// SnapshotManager: epoch-guarded publication of immutable FlatSpcIndex
// snapshots for concurrent serving (DESIGN.md §7).
//
// The mutable-build / immutable-serve split (DESIGN.md §5) leaves one
// serving gap: somebody has to notice a stale snapshot and pay the
// O(total entries) rebuild, and with the seed design that somebody was a
// query — an update burst stalled the first reader that crossed the
// staleness budget. The manager closes the gap with an epoch/generation
// protocol:
//
//   pin      Readers pin the currently published snapshot with one atomic
//            shared_ptr load. A pinned snapshot is immutable and stays
//            alive for as long as the reader holds it, so pinning never
//            blocks on maintenance and never observes a torn index.
//   publish  Each snapshot carries the structural generation of the
//            mutable index it was built from. New snapshots are published
//            by an atomic swap; publication is monotone in generation
//            (a slow rebuild can never roll the serving state backwards).
//   retire   The swapped-out snapshot is not freed — readers may still
//            hold pins — it is retired, and the shared_ptr control block
//            reclaims it when the last pin drops. This is epoch-based
//            reclamation with the epoch folded into the refcount: no
//            hazard pointers, no quiescence tracking, no ABA.
//
// Rebuild scheduling is the RefreshPolicy:
//
//   kSync        The seed behavior. Stale queries ride the mutable index
//                until the staleness budget is spent, then one query
//                rebuilds inline (blocking) and publishes. Queries are
//                always answered from current data.
//   kBackground  Queries are always answered from the pinned snapshot,
//                even when it trails the mutable index by a few
//                generations (bounded staleness). Crossing the staleness
//                budget requests an off-thread rebuild: a worker copies
//                the dirty vertex ranges of the mutable index at a
//                consistent point (delta copy-on-read under the facade's
//                shared lock), builds the next snapshot without any lock
//                held, and publishes it. The query path never blocks on
//                maintenance.
//
// Rebuilds are incremental (DESIGN.md §8): the Source callback receives
// the previously published snapshot and returns an IndexDelta covering
// only the shards whose vertices changed since that snapshot's per-shard
// generations. FlatSpcIndex::Rebuild adopts every clean shard by
// shared_ptr and repacks the dirty ones — in parallel over the manager's
// thread pool when rebuild_threads > 1. A delta with no dirty shards
// short-circuits to pure adoption: no label is copied or packed, the
// publish just moves the snapshot generation forward.
//   kManual      No automatic rebuilds; stale queries ride the mutable
//                index. Only explicit RefreshNow/AwaitGeneration calls
//                (DynamicSpcIndex::FlatSnapshot) publish.
//
// Thread-safety: every method may be called from any number of threads.
// The manager itself never touches the mutable index directly — it only
// calls the Source callback, which owns the locking discipline.

#ifndef DSPC_CORE_SNAPSHOT_MANAGER_H_
#define DSPC_CORE_SNAPSHOT_MANAGER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>

#include "dspc/core/flat_spc_index.h"
#include "dspc/core/spc_index.h"

namespace dspc {

/// When (and on whose thread) a stale snapshot is rebuilt. See the file
/// comment for the serving semantics of each policy.
enum class RefreshPolicy {
  kSync,        ///< rebuild inline on the query path after the stale budget
  kBackground,  ///< serve bounded-stale pins; rebuild on a worker thread
  kManual,      ///< only explicit refreshes rebuild
};

class ThreadPool;

class SnapshotManager {
 public:
  /// Produces a consistent delta copy of the mutable index at a point
  /// where no writer is mid-update: label copies for exactly the shards
  /// that changed relative to `prev` (the currently published snapshot,
  /// null before the first publish — the source must then return a full
  /// delta, as it must whenever the layout stamp no longer matches).
  using Source =
      std::function<FlatSpcIndex::IndexDelta(const FlatSpcIndex* prev)>;

  /// A pinned snapshot: the immutable index plus the generation it was
  /// built from. Holding the Pinned keeps the snapshot alive across any
  /// number of later publishes (retired snapshots are reclaimed only when
  /// their last pin drops).
  struct Pinned {
    std::shared_ptr<const FlatSpcIndex> snapshot;
    uint64_t generation = 0;

    explicit operator bool() const { return snapshot != nullptr; }
    const FlatSpcIndex* operator->() const { return snapshot.get(); }
    const FlatSpcIndex& operator*() const { return *snapshot; }
  };

  /// `source` produces consistent delta copies of the mutable index;
  /// `stale_query_budget` is the number of queries that may observe a
  /// stale snapshot before a rebuild is scheduled (the facade's
  /// snapshot_rebuild_after_queries knob); `rebuild_threads` bounds the
  /// per-rebuild pool that repacks dirty shards concurrently (<= 1
  /// packs serially and never spawns threads).
  SnapshotManager(Source source, RefreshPolicy policy,
                  size_t stale_query_budget, unsigned rebuild_threads = 1);
  ~SnapshotManager();

  SnapshotManager(const SnapshotManager&) = delete;
  SnapshotManager& operator=(const SnapshotManager&) = delete;

  RefreshPolicy policy() const { return policy_; }

  /// Pins the currently published snapshot (empty before first publish).
  /// One atomic load; never blocks on maintenance.
  Pinned Pin() const;

  /// The query-path entry: charges `queries` observations against the
  /// staleness budget given the caller's current structural generation and
  /// returns the snapshot those queries should be served from, or an empty
  /// Pinned when they should ride the mutable index instead (stale under
  /// kSync/kManual, or nothing published yet). Under kSync a spent budget
  /// rebuilds inline; under kBackground it schedules the worker and
  /// returns the current (possibly stale) snapshot immediately.
  Pinned Acquire(uint64_t current_generation, size_t queries);

  /// Charges `queries` stale observations against the budget WITHOUT any
  /// rebuild risk — never blocks, never builds. For callers that must
  /// not perform maintenance (deadline-bounded reads under kSync) but
  /// must keep the budget honest so the next Acquire that may rebuild
  /// does so promptly.
  void ChargeOnly(size_t queries);

  /// Synchronously builds and publishes a snapshot at least as fresh as
  /// `current_generation` (no-op if one is already published). Returns the
  /// published snapshot. Safe to race: concurrent refreshes build once.
  Pinned RefreshNow(uint64_t current_generation);

  /// Blocks until a snapshot of generation >= `generation` is published
  /// and returns it, scheduling a rebuild if needed. Under kSync/kManual
  /// this is RefreshNow; under kBackground it waits on the worker — the
  /// quiesce point used by tests and benches. The caller must guarantee
  /// the mutable index has reached `generation` (the facade's
  /// WaitForFreshSnapshot passes its own current generation).
  Pinned AwaitGeneration(uint64_t generation);

  /// Deadline-bounded AwaitGeneration: gives up waiting at `deadline` and
  /// returns whatever is published then (possibly stale or empty — the
  /// caller distinguishes a timeout by pin.generation < generation).
  /// Under kBackground the wait is a timed cv wait on the worker's
  /// publishes. Under kSync/kManual an already-expired deadline returns
  /// the current pin without building; an unexpired one admits the caller
  /// to the inline rebuild, which is the caller's own work and is not
  /// interrupted mid-build (the deadline bounds waiting on others, not
  /// the work the caller signed up to do).
  Pinned AwaitGeneration(uint64_t generation,
                         std::chrono::steady_clock::time_point deadline);

  /// Asks the background worker to publish a snapshot of generation >=
  /// `target_generation`. No-op if one is already published or requested.
  /// Spawns the worker on first use.
  void RequestRebuild(uint64_t target_generation);

  /// Generation of the published snapshot (0 before first publish).
  uint64_t PublishedGeneration() const {
    return published_generation_.load(std::memory_order_acquire);
  }

  /// True when the published snapshot reflects `generation`.
  bool FreshAt(uint64_t generation) const {
    return PublishedGeneration() == generation;
  }

  /// Snapshots built (inline + background).
  size_t Rebuilds() const { return rebuilds_.load(std::memory_order_relaxed); }

  /// Snapshots built by the worker thread.
  size_t BackgroundRebuilds() const {
    return background_rebuilds_.load(std::memory_order_relaxed);
  }

  /// Snapshots swapped out by a later publish (reclaimed once unpinned).
  size_t RetiredSnapshots() const {
    return retired_.load(std::memory_order_relaxed);
  }

  /// Shards repacked across all rebuilds (the paid work) vs. shards
  /// adopted from the previous snapshot by shared_ptr (the saved work).
  /// Their ratio is the delta protocol's effectiveness on the workload.
  size_t ShardsRepacked() const {
    return shards_repacked_.load(std::memory_order_relaxed);
  }
  size_t ShardsAdopted() const {
    return shards_adopted_.load(std::memory_order_relaxed);
  }

  /// Rebuilds that were pure adoptions (no dirty shard, no packing).
  size_t AdoptionPublishes() const {
    return adoption_publishes_.load(std::memory_order_relaxed);
  }

 private:
  /// A snapshot tagged with the generation it was built from. Published
  /// as shared_ptr<const Versioned>; Pinned aliases into `flat`.
  struct Versioned {
    uint64_t generation;
    FlatSpcIndex flat;
  };

  static Pinned PinOf(std::shared_ptr<const Versioned> v);

  /// Pulls a delta from source_ (relative to the published snapshot) and
  /// packs the next snapshot, adopting clean shards. Runs under
  /// rebuild_mu_ but with no state lock held (the build dominates the
  /// cost); rebuild_mu_ also guarantees the published snapshot cannot
  /// move between the delta copy and the publish.
  std::shared_ptr<const Versioned> BuildFromSource();

  /// Atomically swaps `snap` in if it is newer than the published one;
  /// resets the staleness budget and wakes AwaitGeneration waiters.
  void Publish(std::shared_ptr<const Versioned> snap);

  /// Background worker: build whenever requested_generation_ outruns the
  /// published generation, until stopped.
  void WorkerLoop();

  /// Spawns the worker thread once. Caller holds state_mu_.
  void EnsureWorkerLocked();

  const Source source_;
  const RefreshPolicy policy_;
  const size_t stale_query_budget_;
  /// Upper bound on the per-rebuild repack pool (see BuildFromSource);
  /// <= 1 packs serially and never spawns threads.
  const unsigned rebuild_threads_;

  /// The published snapshot. Readers Pin() with one atomic load; Publish
  /// swaps with compare-exchange so generations only move forward.
  std::atomic<std::shared_ptr<const Versioned>> published_{nullptr};
  std::atomic<uint64_t> published_generation_{0};

  std::atomic<size_t> rebuilds_{0};
  std::atomic<size_t> background_rebuilds_{0};
  std::atomic<size_t> retired_{0};
  std::atomic<size_t> shards_repacked_{0};
  std::atomic<size_t> shards_adopted_{0};
  std::atomic<size_t> adoption_publishes_{0};

  /// Serializes snapshot construction so racing refreshes build once.
  std::mutex rebuild_mu_;

  /// Guards the staleness budget, the rebuild request, and worker
  /// lifecycle. Never held while copying or building.
  std::mutex state_mu_;
  std::condition_variable work_cv_;     ///< wakes the worker
  std::condition_variable publish_cv_;  ///< wakes AwaitGeneration
  size_t stale_queries_ = 0;
  uint64_t requested_generation_ = 0;
  bool stop_ = false;
  std::thread worker_;
};

}  // namespace dspc

#endif  // DSPC_CORE_SNAPSHOT_MANAGER_H_
