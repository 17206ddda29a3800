// Shared infrastructure for the experiment harnesses: the synthetic
// dataset suite standing in for the paper's SNAP/Konect/LAW graphs
// (DESIGN.md §4), scale selection, and table printing helpers.

#ifndef DSPC_BENCH_BENCH_UTIL_H_
#define DSPC_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <string>
#include <vector>

#include "dspc/core/spc_index.h"
#include "dspc/graph/graph.h"

namespace dspc {
namespace bench {

/// One benchmark dataset: the paper's notation plus the generator recipe.
struct Dataset {
  std::string name;       ///< paper notation (EUA, NTD, ...)
  std::string generator;  ///< human-readable recipe
  Graph graph;
};

/// Scale factor from DSPC_BENCH_SCALE (small=1 default, medium=2,
/// large=4). Multiplies dataset vertex counts.
size_t ScaleFactor();

/// Builds the full 10-graph suite (paper Table 3 stand-ins) at the
/// current scale. If DSPC_BENCH_DATASETS is set (comma-separated names),
/// only those are returned — useful for quick runs.
std::vector<Dataset> MakeDatasets();

/// Builds a reduced suite (first `k` by size) for the heavier harnesses.
std::vector<Dataset> MakeDatasets(size_t k);

/// The number of random insertions / deletions / queries per graph, also
/// scale-aware (paper §4.1.1 uses 1000 insertions, 50-100 deletions,
/// 10000 queries at server scale).
size_t InsertionsPerGraph();
size_t DeletionsPerGraph();
size_t QueriesPerGraph();

/// Builds the SPC-Index of a dataset, or loads it from the bench cache
/// (default /tmp/dspc_bench_cache, override with DSPC_BENCH_CACHE) so the
/// construction cost is paid once across all bench binaries. Returns the
/// index and stores the (cached) HP-SPC construction seconds in
/// *build_seconds — the paper's "L Time" / reconstruction baseline.
SpcIndex BuildOrLoadIndex(const Dataset& dataset, double* build_seconds);

/// The host's SIMD-relevant CPU flags, space-separated ("none" off
/// x86-64), for the host metadata every BENCH file records.
std::string CpuFlags();

/// Prints a horizontal rule sized for `width` columns of 12 chars.
void PrintRule(size_t width);

/// Formats seconds with adaptive precision.
std::string FormatSeconds(double s);

/// Formats a byte count as MB with two decimals.
std::string FormatMb(size_t bytes);

}  // namespace bench
}  // namespace dspc

#endif  // DSPC_BENCH_BENCH_UTIL_H_
