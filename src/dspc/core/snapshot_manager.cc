#include "dspc/core/snapshot_manager.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "dspc/common/thread_pool.h"

namespace dspc {

SnapshotManager::SnapshotManager(Source source, RefreshPolicy policy,
                                 size_t stale_query_budget,
                                 unsigned rebuild_threads)
    : source_(std::move(source)),
      policy_(policy),
      stale_query_budget_(stale_query_budget),
      rebuild_threads_(rebuild_threads) {}

SnapshotManager::~SnapshotManager() {
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  if (worker_.joinable()) worker_.join();
}

SnapshotManager::Pinned SnapshotManager::PinOf(
    std::shared_ptr<const Versioned> v) {
  if (v == nullptr) return {};
  // Aliasing move ctor: the pin takes over v's reference (no refcount
  // traffic) but points at the index, so callers hold a plain
  // FlatSpcIndex handle while the refcount keeps the whole versioned
  // snapshot alive. Read the generation before v is moved from.
  const uint64_t generation = v->generation;
  const FlatSpcIndex* flat = &v->flat;
  return {std::shared_ptr<const FlatSpcIndex>(std::move(v), flat),
          generation};
}

SnapshotManager::Pinned SnapshotManager::Pin() const {
  return PinOf(published_.load(std::memory_order_acquire));
}

SnapshotManager::Pinned SnapshotManager::Acquire(uint64_t current_generation,
                                                 size_t queries) {
  // Not const: both returns below move the pin out instead of copying
  // it (a copy is an atomic increment now and a decrement at scope exit).
  Pinned cur = Pin();
  if (cur && cur.generation == current_generation) return cur;

  switch (policy_) {
    case RefreshPolicy::kManual:
      // Stale (or nothing published): the caller rides the mutable index;
      // only explicit refreshes publish.
      return {};

    case RefreshPolicy::kSync: {
      {
        std::lock_guard<std::mutex> lock(state_mu_);
        stale_queries_ += queries;
        if (stale_queries_ < stale_query_budget_) return {};
      }
      return RefreshNow(current_generation);
    }

    case RefreshPolicy::kBackground: {
      bool request = false;
      {
        std::lock_guard<std::mutex> lock(state_mu_);
        stale_queries_ += queries;
        if (stale_queries_ >= stale_query_budget_) {
          stale_queries_ = 0;
          request = true;
        }
      }
      if (request) RequestRebuild(current_generation);
      // Serve the pinned snapshot even though it is stale — bounded
      // staleness is the policy's contract. Empty only before the first
      // publish (the facade publishes eagerly at construction).
      return cur;
    }
  }
  return {};
}

void SnapshotManager::ChargeOnly(size_t queries) {
  std::lock_guard<std::mutex> lock(state_mu_);
  stale_queries_ += queries;
}

SnapshotManager::Pinned SnapshotManager::RefreshNow(
    uint64_t current_generation) {
  std::lock_guard<std::mutex> rebuild_lock(rebuild_mu_);
  // A racing refresh may have published while we waited for the build
  // lock; don't build the same generation twice.
  if (const Pinned cur = Pin();
      cur && cur.generation >= current_generation) {
    return cur;
  }
  auto snap = BuildFromSource();
  Publish(snap);
  return PinOf(snap);
}

SnapshotManager::Pinned SnapshotManager::AwaitGeneration(uint64_t generation) {
  if (policy_ != RefreshPolicy::kBackground) return RefreshNow(generation);
  RequestRebuild(generation);
  std::unique_lock<std::mutex> lock(state_mu_);
  publish_cv_.wait(lock, [&] {
    return stop_ ||
           published_generation_.load(std::memory_order_acquire) >= generation;
  });
  return Pin();
}

SnapshotManager::Pinned SnapshotManager::AwaitGeneration(
    uint64_t generation, std::chrono::steady_clock::time_point deadline) {
  if (policy_ != RefreshPolicy::kBackground) {
    // An expired deadline refuses up front; otherwise the caller pays the
    // inline rebuild it asked for (see the header contract).
    if (std::chrono::steady_clock::now() >= deadline &&
        published_generation_.load(std::memory_order_acquire) < generation) {
      return Pin();
    }
    return RefreshNow(generation);
  }
  RequestRebuild(generation);
  std::unique_lock<std::mutex> lock(state_mu_);
  publish_cv_.wait_until(lock, deadline, [&] {
    return stop_ ||
           published_generation_.load(std::memory_order_acquire) >= generation;
  });
  // Timed out, stopped, or satisfied: in every case the published pin is
  // the answer; the caller reads its generation to tell which.
  return Pin();
}

void SnapshotManager::RequestRebuild(uint64_t target_generation) {
  std::lock_guard<std::mutex> lock(state_mu_);
  if (stop_) return;
  if (published_generation_.load(std::memory_order_acquire) >=
      target_generation) {
    return;
  }
  if (target_generation > requested_generation_) {
    requested_generation_ = target_generation;
  }
  EnsureWorkerLocked();
  work_cv_.notify_one();
}

std::shared_ptr<const SnapshotManager::Versioned>
SnapshotManager::BuildFromSource() {
  // rebuild_mu_ (held by every caller) serializes builds, so the snapshot
  // read here is exactly what Publish will swap out.
  const std::shared_ptr<const Versioned> prev =
      published_.load(std::memory_order_acquire);
  const FlatSpcIndex* prev_flat = prev ? &prev->flat : nullptr;
  // Delta copy; the source owns the locking and the dirty bookkeeping.
  FlatSpcIndex::IndexDelta delta = source_(prev_flat);
  const size_t dirty = delta.dirty.size();
  // The repack pool lives only for this rebuild and is sized to the
  // dirty work: thread spawn is microseconds against millisecond-scale
  // packs, and no facade ever holds parked threads between refreshes.
  std::unique_ptr<ThreadPool> pool;
  if (rebuild_threads_ > 1 && dirty > 1) {
    pool = std::make_unique<ThreadPool>(
        std::min<size_t>(rebuild_threads_, dirty));
  }
  const bool adoption = prev_flat != nullptr && !delta.full && dirty == 0;
  const uint64_t generation = delta.generation;
  auto snap = std::make_shared<Versioned>(
      Versioned{generation,
                FlatSpcIndex::Rebuild(prev_flat, std::move(delta),
                                      pool.get())});
  rebuilds_.fetch_add(1, std::memory_order_relaxed);
  // Count adoption from arena identity (not the delta's dirty list), so
  // the metrics stay honest even if the rebuild had to repack clean
  // shards (the packed->wide fallback).
  size_t adopted = 0;
  if (prev_flat != nullptr &&
      snap->flat.LayoutStamp() == prev_flat->LayoutStamp()) {
    for (size_t i = 0; i < snap->flat.NumShards(); ++i) {
      if (snap->flat.SharesShardWith(*prev_flat, i)) ++adopted;
    }
  }
  shards_repacked_.fetch_add(snap->flat.NumShards() - adopted,
                             std::memory_order_relaxed);
  shards_adopted_.fetch_add(adopted, std::memory_order_relaxed);
  if (adoption) adoption_publishes_.fetch_add(1, std::memory_order_relaxed);
  return snap;
}

void SnapshotManager::Publish(std::shared_ptr<const Versioned> snap) {
  std::shared_ptr<const Versioned> old =
      published_.load(std::memory_order_acquire);
  // Builds are serialized under rebuild_mu_ and each one copies at a
  // generation at least as fresh as the snapshot it read, so publication
  // is strictly monotone by construction — a non-increasing generation
  // here is a protocol bug (e.g. a source returning stale generations),
  // not a benign race.
  assert(old == nullptr || snap->generation > old->generation);
  // Monotone swap: a slow build must never replace a newer snapshot.
  while (old == nullptr || old->generation < snap->generation) {
    if (published_.compare_exchange_weak(old, snap,
                                         std::memory_order_acq_rel)) {
      if (old != nullptr) retired_.fetch_add(1, std::memory_order_relaxed);
      published_generation_.store(snap->generation,
                                  std::memory_order_release);
      {
        // Lock between the store and the notify so AwaitGeneration cannot
        // miss the wakeup; also reset the staleness budget for the fresh
        // snapshot.
        std::lock_guard<std::mutex> lock(state_mu_);
        stale_queries_ = 0;
      }
      publish_cv_.notify_all();
      return;
    }
  }
}

void SnapshotManager::WorkerLoop() {
  std::unique_lock<std::mutex> lock(state_mu_);
  while (true) {
    work_cv_.wait(lock, [&] {
      return stop_ ||
             requested_generation_ >
                 published_generation_.load(std::memory_order_acquire);
    });
    if (stop_) {
      // Wake any AwaitGeneration waiter stuck behind a request that will
      // now never be built.
      publish_cv_.notify_all();
      return;
    }
    const uint64_t target = requested_generation_;
    lock.unlock();
    {
      std::lock_guard<std::mutex> rebuild_lock(rebuild_mu_);
      // Mirror RefreshNow's guard: a concurrent manual refresh may have
      // published this generation while we waited for the build lock,
      // and publication is strictly monotone — never build it twice.
      if (published_generation_.load(std::memory_order_acquire) < target) {
        auto snap = BuildFromSource();
        background_rebuilds_.fetch_add(1, std::memory_order_relaxed);
        Publish(snap);
      }
    }
    lock.lock();
    // If writers advanced past the copy we just published, the predicate
    // still holds and the loop builds again.
  }
}

void SnapshotManager::EnsureWorkerLocked() {
  if (worker_.joinable()) return;
  worker_ = std::thread([this] { WorkerLoop(); });
}

}  // namespace dspc
