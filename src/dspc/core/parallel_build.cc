// Parallel HP-SPC construction. Correctness argument in DESIGN.md §12;
// the per-hub BFS and the sequential builder it must match label-for-label
// are in hp_spc.cc.

#include "dspc/core/parallel_build.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <utility>
#include <vector>

#include "dspc/common/thread_pool.h"
#include "dspc/common/types.h"
#include "dspc/core/hp_spc.h"

namespace dspc {
namespace {

using internal::BfsScratch;
using internal::HubPruneTest;
using internal::PendingLabel;
using internal::RankGraph;
using internal::RankLabels;
using internal::RunPrunedHubBfs;

/// Frontier split granularity for the level-synchronous mode. Small enough
/// to balance skewed neighbor lists, large enough that per-grain buffer
/// bookkeeping stays cheap.
constexpr size_t kFrontierGrain = 128;

/// Scratch for the intra-hub frontier mode, indexed by rank: atomic
/// distance/count arrays so concurrent expansions of one level can
/// discover and accumulate into the next level without locks.
struct FrontierScratch {
  std::vector<std::atomic<Distance>> dist;
  std::vector<std::atomic<PathCount>> count;
  std::vector<Rank> frontier;
  std::vector<Rank> next;
  std::vector<Rank> touched;
  HubPruneTest prune;
  /// Per-grain output and next-frontier buffers, concatenated serially in
  /// grain order after each level so the result is schedule-independent.
  std::vector<std::vector<PendingLabel>> grain_out;
  std::vector<std::vector<Rank>> grain_next;

  explicit FrontierScratch(size_t n) : dist(n), count(n), prune(n) {
    for (auto& d : dist) d.store(kInfDistance, std::memory_order_relaxed);
    for (auto& c : count) c.store(0, std::memory_order_relaxed);
  }
};

/// Runs hub h's pruned BFS level-synchronously, parallelizing each level's
/// frontier over `pool`. Exactly equivalent to the sequential BFS: a FIFO
/// queue pops in level order, discovery races are resolved by a
/// compare-exchange from "unvisited" (every winner records the same
/// distance), and count accumulation is a sum of the same contributions in
/// some order — addition mod 2^64 is commutative, so the totals match.
/// Cross-level visibility rides on ParallelFor's fork/join rendezvous.
void RunFrontierHubBfs(const RankGraph& graph, const Rank h,
                       const RankLabels& labels, FrontierScratch& ws,
                       ThreadPool* pool, std::vector<PendingLabel>* out) {
  constexpr auto relaxed = std::memory_order_relaxed;
  out->clear();
  // The pool workers read the mark Start sets; ParallelFor's fork orders
  // the writes before them.
  ws.prune.Start(graph, labels, h);
  ws.dist[h].store(0, relaxed);
  ws.count[h].store(1, relaxed);
  ws.frontier.assign(1, h);
  ws.touched.assign(1, h);
  Distance level = 0;
  while (!ws.frontier.empty()) {
    const size_t fsize = ws.frontier.size();
    const size_t grains = (fsize + kFrontierGrain - 1) / kFrontierGrain;
    if (ws.grain_out.size() < grains) {
      ws.grain_out.resize(grains);
      ws.grain_next.resize(grains);
    }
    const auto expand = [&](size_t g) {
      std::vector<PendingLabel>& ob = ws.grain_out[g];
      std::vector<Rank>& nb = ws.grain_next[g];
      ob.clear();
      nb.clear();
      const size_t lo = g * kFrontierGrain;
      const size_t hi = std::min(fsize, lo + kFrontierGrain);
      for (size_t i = lo; i < hi; ++i) {
        const Rank v = ws.frontier[i];
        const PathCount cv = ws.count[v].load(relaxed);
        if (v != h) {
          if (ws.prune.Prunes(v, level)) continue;
          ob.push_back({v, level, cv});
        }
        for (const Rank w : graph.Neighbors(v)) {
          if (w <= h) break;  // descending: the rest outrank or equal h
          Distance dw = ws.dist[w].load(relaxed);
          if (dw == kInfDistance &&
              ws.dist[w].compare_exchange_strong(dw, level + 1, relaxed)) {
            dw = level + 1;
            nb.push_back(w);  // discovery winner owns w's bookkeeping
          }
          if (dw == level + 1) ws.count[w].fetch_add(cv, relaxed);
        }
      }
    };
    if (pool != nullptr && grains > 1) {
      pool->ParallelFor(grains, expand);
    } else {
      for (size_t g = 0; g < grains; ++g) expand(g);
    }
    ws.next.clear();
    for (size_t g = 0; g < grains; ++g) {
      out->insert(out->end(), ws.grain_out[g].begin(), ws.grain_out[g].end());
      ws.next.insert(ws.next.end(), ws.grain_next[g].begin(),
                     ws.grain_next[g].end());
      ws.touched.insert(ws.touched.end(), ws.grain_next[g].begin(),
                        ws.grain_next[g].end());
    }
    std::swap(ws.frontier, ws.next);
    ++level;
  }
  for (const Rank v : ws.touched) {
    ws.dist[v].store(kInfDistance, relaxed);
    ws.count[v].store(0, relaxed);
  }
  ws.prune.Finish();
}

}  // namespace

SpcIndex BuildSpcIndexParallel(const Graph& graph, VertexOrdering ordering,
                               const ParallelBuildOptions& options,
                               ThreadPool* pool) {
  const size_t n = graph.NumVertices();
  unsigned threads = pool != nullptr ? pool->size() : options.threads;
  threads = std::clamp(threads, 1u, ThreadPool::kMaxThreads);
  if (threads <= 1) return BuildSpcIndex(graph, std::move(ordering));

  std::unique_ptr<ThreadPool> owned;
  if (pool == nullptr) {
    owned = std::make_unique<ThreadPool>(threads);
    pool = owned.get();
  }

  const RankGraph rank_graph(graph, ordering);
  RankLabels labels(n);

  const size_t window = options.rank_window != 0
                            ? options.rank_window
                            : std::max<size_t>(32, 8 * threads);

  std::vector<BfsScratch> scratch;
  scratch.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) scratch.emplace_back(n);
  std::unique_ptr<FrontierScratch> frontier_ws;  // built on first use

  std::vector<std::vector<PendingLabel>> outs(window);
  std::vector<uint8_t> suspect(window, 0);

  // kAuto starts frontier-parallel (the top-rank hubs visit most of the
  // graph and label each other, so a window there degenerates to serial
  // re-runs) and switches to rank windows for good once pruning keeps
  // BFS trees small.
  bool frontier_phase = options.batch_strategy != BuildBatchStrategy::kRankWindow;
  const size_t small_tree = std::max<size_t>(64, n / 64);
  int small_streak = 0;

  Rank h = 0;
  while (h < n) {
    if (frontier_phase) {
      if (rank_graph.Degree(h) == 0) {
        ++h;
        continue;
      }
      if (frontier_ws == nullptr) {
        frontier_ws = std::make_unique<FrontierScratch>(n);
      }
      std::vector<PendingLabel>& out = outs[0];
      RunFrontierHubBfs(rank_graph, h, labels, *frontier_ws, pool, &out);
      labels.Append(h, out);
      if (options.batch_strategy == BuildBatchStrategy::kAuto) {
        small_streak = out.size() <= small_tree ? small_streak + 1 : 0;
        if (small_streak >= 4) frontier_phase = false;
      }
      ++h;
      continue;
    }

    // Rank-window batch [h, end).
    const Rank end = static_cast<Rank>(std::min<size_t>(n, h + window));
    const size_t batch = end - h;
    // Phase A: every hub in the window runs its pruned BFS against the
    // prefix labels completed by earlier windows, concurrently. Workers
    // only read `labels` (const) and write their own scratch + out buffer.
    pool->ParallelFor(threads, [&](size_t slot) {
      for (size_t k = slot; k < batch; k += threads) {
        const Rank hk = h + static_cast<Rank>(k);
        outs[k].clear();
        if (rank_graph.Degree(hk) == 0) continue;
        RunPrunedHubBfs(rank_graph, hk, labels, scratch[slot], &outs[k]);
      }
    });
    // Phase B: serial rank-ordered merge. A hub whose label set was
    // extended by an earlier batch-mate's merged output is "suspect" —
    // its Phase A run pruned against a stale L(hub), or on a neighbour
    // mark holding that batch-mate (DESIGN.md §2) — and is re-run
    // against the now sequential-exact prefix before merging. Everything
    // else merges as-is (DESIGN.md §12 proves the outputs are equal).
    std::fill(suspect.begin(), suspect.begin() + batch, 0);
    for (size_t k = 0; k < batch; ++k) {
      const Rank hk = h + static_cast<Rank>(k);
      if (rank_graph.Degree(hk) == 0) continue;
      if (suspect[k]) {
        RunPrunedHubBfs(rank_graph, hk, labels, scratch[0], &outs[k]);
      }
      labels.Append(hk, outs[k]);
      for (const PendingLabel& e : outs[k]) {
        if (e.r < end) suspect[e.r - h] = 1;  // e.r > hk always holds
      }
    }
    h = end;
  }
  return std::move(labels).ToIndex(std::move(ordering));
}

SpcIndex BuildSpcIndexParallel(const Graph& graph,
                               const OrderingOptions& ordering_options,
                               const ParallelBuildOptions& options,
                               ThreadPool* pool) {
  return BuildSpcIndexParallel(graph, BuildOrdering(graph, ordering_options),
                               options, pool);
}

}  // namespace dspc
