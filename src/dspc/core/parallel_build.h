// Parallel HP-SPC construction (PSPC direction, DESIGN.md §12).
//
// Rank-window batching over `common/ThreadPool`: a window of consecutive
// ranks runs its pruned BFSes concurrently, each pruning only against the
// labels completed by earlier windows. A serial rank-ordered merge then
// re-runs exactly the hubs whose batch-mates turned out to influence them
// (hub g influences hub h only if g's merged output labels h — covered
// queries see only hubs loaded from L(h), and the depth-3 neighbour mark
// only neighbours of h, which label h at distance 1), so the result is
// label-identical to the sequential builder, not merely query-equivalent.
//
// Every BFS, concurrent or re-run, is the sequential builder's own
// per-hub BFS over its rank-space state (hp_spc.h): the graph relabelled
// by rank, read-only and shared by every worker, and per-rank label
// columns appended in hub order. The SpcIndex is materialised once, after
// the last hub.
//
// The output satisfies SpcIndex::operator== against BuildSpcIndex under
// the same ordering, for every thread count, so arena images stay
// byte-identical and checkpoint digests remain reproducible
// (tests/parallel_build_test.cc pins this, and
// HpSpcTest.LabelsMatchParentDigest pins both builders' labels).

#ifndef DSPC_CORE_PARALLEL_BUILD_H_
#define DSPC_CORE_PARALLEL_BUILD_H_

#include "dspc/core/spc_index.h"
#include "dspc/graph/graph.h"
#include "dspc/graph/ordering.h"

namespace dspc {

/// Options for BuildSpcIndexParallel.
struct ParallelBuildOptions {
  /// Total build parallelism, capped at ThreadPool::kMaxThreads. 0 (the
  /// default) and 1 run the sequential builder; a value above 1 takes the
  /// parallel path, with rank windows of max(32, 8 * threads) hubs. Once
  /// the shallow prune tests stopped reading labels (DESIGN.md §2), the
  /// sequential build of the 8192-vertex perfbench graph beat the
  /// 4-thread one (DESIGN.md §12, "Wiring"), so parallelism is opt-in.
  unsigned threads = 0;
};

/// Builds the SPC-Index of `graph` under `ordering` in parallel on a
/// transient pool of `options.threads` workers. The result is
/// label-identical to BuildSpcIndex(graph, ordering) — same entries, same
/// serialization — for every options value.
SpcIndex BuildSpcIndexParallel(const Graph& graph, VertexOrdering ordering,
                               const ParallelBuildOptions& options = {});

/// Convenience overload: builds the ordering first (degree-based by
/// default), then the index.
SpcIndex BuildSpcIndexParallel(const Graph& graph,
                               const OrderingOptions& ordering_options,
                               const ParallelBuildOptions& options = {});

}  // namespace dspc

#endif  // DSPC_CORE_PARALLEL_BUILD_H_
