// Unit tests for SNAP-format edge-list I/O and binary graph snapshots,
// plus the loader-hardening regressions: byte-truncated and bit-flipped
// graph files must come back as typed Status errors, never UB or aborts.
// (The index image's sweeps live in tests/mmap_arena_test.cc.)

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "dspc/common/binary_io.h"
#include "dspc/common/rng.h"
#include "dspc/graph/generators.h"
#include "dspc/graph/io.h"

namespace dspc {
namespace {

TEST(EdgeListTest, ParsesSnapFormat) {
  const std::string text =
      "# Directed graph (each unordered pair of nodes is saved once)\n"
      "# FromNodeId\tToNodeId\n"
      "0\t1\n"
      "1\t2\n"
      "% konect-style comment\n"
      "2\t0\n"
      "\n";
  Graph g;
  ASSERT_TRUE(ParseEdgeList(text, &g).ok());
  EXPECT_EQ(g.NumVertices(), 3u);
  EXPECT_EQ(g.NumEdges(), 3u);
}

TEST(EdgeListTest, CompactsSparseIds) {
  const std::string text = "1000 2000\n2000 50\n";
  Graph g;
  ASSERT_TRUE(ParseEdgeList(text, &g).ok());
  // Ids compacted by first appearance: 1000->0, 2000->1, 50->2.
  EXPECT_EQ(g.NumVertices(), 3u);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 2));
}

TEST(EdgeListTest, KeepIdsOption) {
  const std::string text = "0 5\n";
  Graph g;
  EdgeListOptions options;
  options.keep_ids = true;
  ASSERT_TRUE(ParseEdgeList(text, &g, options).ok());
  EXPECT_EQ(g.NumVertices(), 6u);
  EXPECT_TRUE(g.HasEdge(0, 5));
}

TEST(EdgeListTest, DirectionsCollapseToUndirected) {
  const std::string text = "0 1\n1 0\n";
  Graph g;
  ASSERT_TRUE(ParseEdgeList(text, &g).ok());
  EXPECT_EQ(g.NumEdges(), 1u);
}

TEST(EdgeListTest, MalformedLineRejected) {
  Graph g;
  EXPECT_TRUE(ParseEdgeList("0 1\nbogus line\n", &g).IsCorruption());
  EXPECT_TRUE(ParseEdgeList("42\n", &g).IsCorruption());
}

TEST(EdgeListTest, SaveLoadRoundTrip) {
  const Graph g = GenerateErdosRenyi(30, 60, 11);
  const std::string path = ::testing::TempDir() + "/dspc_edges.txt";
  ASSERT_TRUE(SaveEdgeList(g, path).ok());
  Graph loaded;
  EdgeListOptions options;
  options.keep_ids = true;
  ASSERT_TRUE(LoadEdgeList(path, &loaded, options).ok());
  EXPECT_EQ(loaded.Edges(), g.Edges());
  std::remove(path.c_str());
}

TEST(EdgeListTest, MissingFileIsIOError) {
  Graph g;
  EXPECT_TRUE(LoadEdgeList("/no/such/file.txt", &g).IsIOError());
}

TEST(BinaryGraphTest, RoundTrip) {
  const Graph g = GenerateBarabasiAlbert(50, 2, 12);
  const std::string path = ::testing::TempDir() + "/dspc_graph.bin";
  ASSERT_TRUE(SaveGraphBinary(g, path).ok());
  Graph loaded;
  ASSERT_TRUE(LoadGraphBinary(path, &loaded).ok());
  EXPECT_EQ(loaded.NumVertices(), g.NumVertices());
  EXPECT_EQ(loaded.Edges(), g.Edges());
  std::remove(path.c_str());
}

TEST(BinaryGraphTest, RejectsWrongMagic) {
  const std::string path = ::testing::TempDir() + "/dspc_notgraph.bin";
  BinaryWriter w;
  w.PutU32(0x12345678);
  ASSERT_TRUE(w.WriteToFile(path).ok());
  Graph g;
  EXPECT_TRUE(LoadGraphBinary(path, &g).IsCorruption());
  std::remove(path.c_str());
}

// --- loader hardening (DESIGN.md §11 satellite) ------------------------------

std::vector<uint8_t> ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good());
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

void WriteWholeFile(const std::string& path,
                    const std::vector<uint8_t>& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  ASSERT_TRUE(out.good());
}

// A load outcome is acceptable iff it is success or a *typed* error —
// what the hardening is for: no aborts (e.g. a bad-alloc from a
// bit-flipped count), no garbage graphs passing a checksum.
void ExpectTypedStatus(const Status& st, const std::string& what) {
  EXPECT_TRUE(st.ok() || st.IsCorruption() || st.IsDataLoss() ||
              st.IsIOError() || st.IsInvalidArgument())
      << what << ": " << st.ToString();
}

TEST(BinaryGraphTest, TruncationsAndBitFlipsAreTypedErrors) {
  const Graph g = GenerateBarabasiAlbert(40, 2, 19);
  const std::string path = ::testing::TempDir() + "/dspc_graph_fuzz.bin";
  ASSERT_TRUE(SaveGraphBinary(g, path).ok());
  const std::vector<uint8_t> clean = ReadWholeFile(path);

  // Every truncation point through the header and a sample beyond.
  for (size_t len = 0; len < clean.size();
       len += (len < 32 ? 1 : clean.size() / 13 + 1)) {
    WriteWholeFile(path, {clean.begin(), clean.begin() + len});
    Graph loaded;
    const Status st = LoadGraphBinary(path, &loaded);
    EXPECT_FALSE(st.ok()) << "truncated to " << len;
    ExpectTypedStatus(st, "truncated to " + std::to_string(len));
  }

  // Bit flips — including the count fields whose unchecked reserve()
  // used to abort the process.
  Rng rng(0xF11);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<uint8_t> flipped = clean;
    const size_t pos = rng.NextBounded(flipped.size());
    flipped[pos] ^= static_cast<uint8_t>(1u << rng.NextBounded(8));
    WriteWholeFile(path, flipped);
    Graph loaded;
    ExpectTypedStatus(LoadGraphBinary(path, &loaded),
                      "bit flip at " + std::to_string(pos));
  }
  std::remove(path.c_str());
}

TEST(WeightedEdgeListTest, ParseAndRoundTrip) {
  const std::string text = "# weighted\n0 1 5\n1 2 3\n";
  WeightedGraph g;
  ASSERT_TRUE(ParseWeightedEdgeList(text, &g).ok());
  EXPECT_EQ(g.NumEdges(), 2u);
  EXPECT_EQ(g.EdgeWeight(0, 1), 5u);

  const std::string path = ::testing::TempDir() + "/dspc_wedges.txt";
  ASSERT_TRUE(SaveWeightedEdgeList(g, path).ok());
  WeightedGraph loaded;
  ASSERT_TRUE(LoadWeightedEdgeList(path, &loaded).ok());
  EXPECT_EQ(loaded.Edges(), g.Edges());
  std::remove(path.c_str());
}

TEST(WeightedEdgeListTest, MissingWeightRejected) {
  WeightedGraph g;
  EXPECT_TRUE(ParseWeightedEdgeList("0 1\n", &g).IsCorruption());
}

}  // namespace
}  // namespace dspc
