// Shared helpers for the DSPC test suite.

#ifndef DSPC_TESTS_TEST_UTIL_H_
#define DSPC_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "dspc/baseline/bfs_counting.h"
#include "dspc/common/rng.h"
#include "dspc/core/flat_spc_index.h"
#include "dspc/core/spc_index.h"
#include "dspc/graph/graph.h"
#include "dspc/persist/snapshot_arena.h"

namespace dspc {
namespace testing {

/// Asserts that `index` answers every pairwise (distance, count) query
/// exactly as BFS ground truth on `graph`.
inline void ExpectIndexMatchesBfs(const Graph& graph, const SpcIndex& index,
                                  const std::string& context = "") {
  for (Vertex s = 0; s < graph.NumVertices(); ++s) {
    const SsspCounts truth = BfsCount(graph, s);
    for (Vertex t = 0; t < graph.NumVertices(); ++t) {
      const SpcResult got = index.Query(s, t);
      ASSERT_EQ(got.dist, truth.dist[t])
          << context << " dist mismatch s=" << s << " t=" << t;
      ASSERT_EQ(got.count, truth.count[t])
          << context << " count mismatch s=" << s << " t=" << t;
    }
  }
}

/// An empty directory private to the running test. ctest runs each test
/// as its own process, in parallel, so the path carries the test's suite
/// and name: no two tests share (or wipe) a directory. `name` tells apart
/// the directories of one test.
inline std::string FreshDir(const std::string& name) {
  std::string owner = "no_test";
  if (const ::testing::TestInfo* info =
          ::testing::UnitTest::GetInstance()->current_test_info()) {
    owner = std::string(info->test_suite_name()) + "." + info->name();
    std::replace(owner.begin(), owner.end(), '/', '_');  // parameterized
  }
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / owner / name;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  return dir.string();
}

/// Encodes `flat` as a snapshot arena image and validates it back — the
/// on-disk image's round trip, in memory. Returns the adopted snapshot
/// (a single shard viewing the image), or null after failing the test.
inline std::shared_ptr<const FlatSpcIndex> ArenaRoundTrip(
    const FlatSpcIndex& flat) {
  auto image = std::make_shared<std::vector<uint8_t>>();
  const Status encoded =
      EncodeSnapshotArena(flat, /*edges=*/{}, /*generation=*/1, /*wal_seq=*/0,
                          image.get());
  EXPECT_TRUE(encoded.ok()) << encoded.ToString();
  auto arena =
      MappedArena::FromBytes(image->data(), image->size(), image, "test");
  EXPECT_TRUE(arena.ok()) << arena.status().ToString();
  return arena.ok() ? arena->snapshot() : nullptr;
}

/// Random simple graph on n vertices with ~m edges (exact if possible).
inline Graph RandomGraph(size_t n, size_t m, uint64_t seed) {
  Rng rng(seed);
  Graph g(n);
  const uint64_t max_edges = n < 2 ? 0 : static_cast<uint64_t>(n) * (n - 1) / 2;
  m = std::min<uint64_t>(m, max_edges);
  size_t guard = 0;
  while (g.NumEdges() < m && guard < 50 * m + 1000) {
    ++guard;
    const auto u = static_cast<Vertex>(rng.NextBounded(n));
    const auto v = static_cast<Vertex>(rng.NextBounded(n));
    if (u != v) g.AddEdge(u, v);
  }
  return g;
}

}  // namespace testing
}  // namespace dspc

#endif  // DSPC_TESTS_TEST_UTIL_H_
