// Parallel HP-SPC construction. Correctness argument in DESIGN.md §12;
// the per-hub BFS and the sequential builder it must match label-for-label
// are in hp_spc.cc.

#include "dspc/core/parallel_build.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "dspc/common/thread_pool.h"
#include "dspc/common/types.h"
#include "dspc/core/hp_spc.h"

namespace dspc {

using internal::BfsScratch;
using internal::PendingLabel;
using internal::RankGraph;
using internal::RankLabels;
using internal::RunPrunedHubBfs;

SpcIndex BuildSpcIndexParallel(const Graph& graph, VertexOrdering ordering,
                               const ParallelBuildOptions& options) {
  const unsigned threads =
      std::clamp(options.threads, 1u, ThreadPool::kMaxThreads);
  if (threads <= 1) return BuildSpcIndex(graph, std::move(ordering));

  const size_t n = graph.NumVertices();
  ThreadPool pool(threads);
  const RankGraph rank_graph(graph, ordering);
  RankLabels labels(n);

  const size_t window = std::max<size_t>(32, 8 * threads);
  std::vector<BfsScratch> scratch;
  scratch.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) scratch.emplace_back(n);
  std::vector<std::vector<PendingLabel>> outs(window);
  std::vector<uint8_t> suspect(window, 0);

  for (Rank h = 0; h < n;) {
    // Rank-window batch [h, end).
    const Rank end = static_cast<Rank>(std::min<size_t>(n, h + window));
    const size_t batch = end - h;
    // Phase A: every hub in the window runs its pruned BFS against the
    // prefix labels completed by earlier windows, concurrently. Workers
    // only read `labels` (const) and write their own scratch + out buffer.
    pool.ParallelFor(threads, [&](size_t slot) {
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
                               const ParallelBuildOptions& options) {
  return BuildSpcIndexParallel(graph, BuildOrdering(graph, ordering_options),
                               options);
}

}  // namespace dspc
