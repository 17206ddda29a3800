// Parallel HP-SPC construction (PSPC direction, DESIGN.md §12).
//
// Two complementary forms of parallelism over `common/ThreadPool`:
//
//  1. Rank-window batching: a window of consecutive ranks runs its pruned
//     BFSes concurrently, each pruning only against the labels
//     completed by earlier windows. A serial rank-ordered merge then
//     re-runs exactly the hubs whose batch-mates turned out to influence
//     them (hub g influences hub h only if g's merged output labels h —
//     covered queries see only hubs loaded from L(h), and the depth-3
//     neighbour mark only neighbours of h, which label h at distance 1),
//     so the result is label-identical to the sequential builder, not
//     merely query-equivalent.
//
//  2. Intra-hub frontier parallelism: the few top-rank hubs visit most of
//     the graph and would serialize any batch; their BFS instead runs
//     level-synchronously with the frontier split into fixed grains,
//     discovery via compare-exchange on atomic distances and path counts
//     accumulated with commutative fetch-adds — again exactly the
//     sequential per-hub result.
//
// Both forms run over the sequential builder's rank-space state
// (hp_spc.h): the graph relabelled by rank, read-only and shared by every
// worker, and per-rank label columns appended in hub order. The rank
// windows run the sequential builder's own per-hub BFS; the frontier mode
// is its level-synchronous form over the same state. The SpcIndex is
// materialised once, after the last hub.
//
// Either way the output satisfies SpcIndex::operator== against
// BuildSpcIndex under the same ordering, for every thread count and
// strategy, so arena images stay byte-identical and checkpoint
// digests remain reproducible (tests/parallel_build_test.cc pins this,
// and HpSpcTest.LabelsMatchParentDigest pins both builders' labels).

#ifndef DSPC_CORE_PARALLEL_BUILD_H_
#define DSPC_CORE_PARALLEL_BUILD_H_

#include <cstddef>

#include "dspc/core/spc_index.h"
#include "dspc/graph/graph.h"
#include "dspc/graph/ordering.h"

namespace dspc {

class ThreadPool;

/// How BuildSpcIndexParallel partitions hub BFSes across threads.
enum class BuildBatchStrategy {
  /// Frontier-parallel for the giant top-rank hubs, then rank windows
  /// once pruned BFS trees stay small. The production default.
  kAuto,
  /// Rank windows for every hub, including the top ranks where the merge
  /// degenerates to serial re-runs. Exists to stress the suspect/re-run
  /// protocol in tests.
  kRankWindow,
  /// Frontier-parallel for every hub, including the tail where frontiers
  /// are tiny. Exists to stress the level-synchronous BFS in tests.
  kFrontier,
};

/// Options for BuildSpcIndexParallel.
struct ParallelBuildOptions {
  /// Total build parallelism, capped at ThreadPool::kMaxThreads. 0 (the
  /// default) and 1 run the sequential builder; a value above 1, or a
  /// caller pool, takes the parallel path. Once the shallow prune tests
  /// stopped reading labels (DESIGN.md §2), the sequential build of the
  /// 8192-vertex perfbench graph beat the 4-thread one (DESIGN.md §12,
  /// "Wiring"), so parallelism is opt-in.
  unsigned threads = 0;
  BuildBatchStrategy batch_strategy = BuildBatchStrategy::kAuto;
  /// Hubs per rank-window batch. 0 = auto (max(32, 8 * threads)).
  size_t rank_window = 0;
};

/// Builds the SPC-Index of `graph` under `ordering` in parallel. The
/// result is label-identical to BuildSpcIndex(graph, ordering) — same
/// entries, same serialization — for every options value. If `pool` is
/// null a transient pool with `options.threads` workers is created.
SpcIndex BuildSpcIndexParallel(const Graph& graph, VertexOrdering ordering,
                               const ParallelBuildOptions& options = {},
                               ThreadPool* pool = nullptr);

/// Convenience overload: builds the ordering first (degree-based by
/// default), then the index.
SpcIndex BuildSpcIndexParallel(const Graph& graph,
                               const OrderingOptions& ordering_options,
                               const ParallelBuildOptions& options = {},
                               ThreadPool* pool = nullptr);

}  // namespace dspc

#endif  // DSPC_CORE_PARALLEL_BUILD_H_
