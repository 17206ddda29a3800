// persist/snapshot_arena + persist/snapshot_publisher: the mmap serving
// format and the shared-directory generation protocol (DESIGN.md §14).
//
// The corruption sweeps mirror tests/io_test.cc's discipline: every
// truncation point and every flipped bit must produce a typed Status —
// never a crash, never a partially adopted snapshot. The arena format
// CRCs every section, CRCs the header, and requires all padding to be
// zero, so there is NO byte in a valid file whose corruption goes
// undetected; the bit-flip sweep proves exactly that.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dspc/baseline/bibfs_counting.h"
#include "dspc/core/flat_spc_index.h"
#include "dspc/core/hp_spc.h"
#include "dspc/graph/generators.h"
#include "dspc/persist/env.h"
#include "dspc/persist/snapshot_arena.h"
#include "dspc/persist/snapshot_publisher.h"
#include "test_util.h"

namespace dspc {
namespace {

using dspc::testing::FreshDir;

std::vector<uint8_t> ReadAll(const std::string& path) {
  std::vector<uint8_t> data;
  EXPECT_TRUE(FileSystem::Default()->ReadFile(path, &data).ok());
  return data;
}

void WriteAll(const std::string& path, const std::vector<uint8_t>& data) {
  FileSystem* fs = FileSystem::Default();
  auto f = fs->NewWritableFile(path);
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE((*f)->Append(data.data(), data.size()).ok());
  ASSERT_TRUE((*f)->Close().ok());
}

/// Every-pair equivalence between the mapped snapshot and the owning
/// index it was written from (bit-identical by construction: same
/// packed words), cross-checked against BiBFS ground truth.
void ExpectMappedMatches(const Graph& graph, const FlatSpcIndex& owning,
                         const FlatSpcIndex& mapped) {
  ASSERT_EQ(mapped.NumVertices(), owning.NumVertices());
  BiBfsCounter truth(graph);
  for (Vertex s = 0; s < graph.NumVertices(); ++s) {
    for (Vertex t = 0; t < graph.NumVertices(); ++t) {
      const SpcResult want = owning.Query(s, t);
      const SpcResult got = mapped.Query(s, t);
      ASSERT_EQ(got, want) << "mapped/owning mismatch s=" << s << " t=" << t;
      ASSERT_EQ(got, truth.Query(s, t))
          << "mapped/BiBFS mismatch s=" << s << " t=" << t;
    }
  }
}

// --- round trips -------------------------------------------------------------

TEST(MmapArena, RoundTripMatchesOwningIndexAndBiBfs) {
  const std::string dir = FreshDir("mmap_arena_roundtrip");
  const Graph graph = GenerateErdosRenyi(60, 140, 7);
  const FlatSpcIndex owning(BuildSpcIndex(graph));

  const std::string path = dir + "/snap.arena";
  FileSystem* fs = FileSystem::Default();
  ASSERT_TRUE(WriteSnapshotArena(fs, path, owning, /*generation=*/42,
                                 /*wal_seq=*/9)
                  .ok());

  auto arena = MappedArena::Map(fs, path);
  ASSERT_TRUE(arena.ok()) << arena.status().ToString();
  EXPECT_EQ(arena->generation(), 42u);
  EXPECT_EQ(arena->wal_seq(), 9u);
  EXPECT_GT(arena->file_bytes(), 0u);
  ExpectMappedMatches(graph, owning, *arena->snapshot());
}

TEST(MmapArena, OverflowSideTableRoundTrips) {
  // A chain of diamonds doubles the path count at every diamond; 31 of
  // them push counts past the 29-bit packed budget, exercising the
  // overflow section of the arena (and its rebased slots).
  const std::string dir = FreshDir("mmap_arena_overflow");
  const size_t diamonds = 31;
  Graph graph(1 + 3 * diamonds);
  Vertex prev = 0;
  for (size_t i = 0; i < diamonds; ++i) {
    const Vertex a = static_cast<Vertex>(3 * i + 1);
    const Vertex b = static_cast<Vertex>(3 * i + 2);
    const Vertex next = static_cast<Vertex>(3 * i + 3);
    graph.AddEdge(prev, a);
    graph.AddEdge(prev, b);
    graph.AddEdge(a, next);
    graph.AddEdge(b, next);
    prev = next;
  }
  const FlatSpcIndex owning(BuildSpcIndex(graph));
  ASSERT_GT(owning.OverflowEntries(), 0u)
      << "test graph must overflow the packed count budget";

  const std::string path = dir + "/snap.arena";
  FileSystem* fs = FileSystem::Default();
  ASSERT_TRUE(WriteSnapshotArena(fs, path, owning, 1, 0).ok());
  auto arena = MappedArena::Map(fs, path);
  ASSERT_TRUE(arena.ok()) << arena.status().ToString();
  // The full-chain count is 2^31 — well past the packed field.
  const SpcResult far =
      arena->snapshot()->Query(0, static_cast<Vertex>(3 * diamonds));
  EXPECT_EQ(far.dist, 2 * diamonds);
  EXPECT_EQ(far.count, uint64_t{1} << diamonds);
  const SpcResult want =
      owning.Query(0, static_cast<Vertex>(3 * diamonds));
  EXPECT_EQ(far, want);
}

TEST(MmapArena, WideImageRoundTrips) {
  // Wide mode triggers naturally only past 2^25 vertices, so build a tiny
  // wide snapshot by hand (P3 path graph, canonical hub labels) as a view
  // over these arrays, and round-trip it through an arena file.
  const std::string dir = FreshDir("mmap_arena_wide");
  const Rank ranks[3] = {0, 1, 2};
  const uint64_t offsets[4] = {0, 1, 3, 6};
  const LabelEntry entries[6] = {{0, 0, 1}, {0, 1, 1}, {1, 0, 1},
                                 {0, 2, 1}, {1, 1, 1}, {2, 0, 1}};
  FlatSpcIndex::ArenaView view;
  view.num_vertices = 3;
  view.wide = true;
  view.rank_of = ranks;
  view.offsets = offsets;
  view.wide_entries = entries;
  auto owning = FlatSpcIndex::FromArenaView(std::move(view));
  ASSERT_TRUE(owning.ok()) << owning.status().ToString();
  ASSERT_TRUE(owning->wide_mode());

  const std::string path = dir + "/snap.arena";
  FileSystem* fs = FileSystem::Default();
  ASSERT_TRUE(WriteSnapshotArena(fs, path, *owning, 5, 0).ok());
  auto arena = MappedArena::Map(fs, path);
  ASSERT_TRUE(arena.ok()) << arena.status().ToString();
  ASSERT_TRUE(arena->snapshot()->wide_mode());
  Graph p3 = GeneratePath(3);
  ExpectMappedMatches(p3, *owning, *arena->snapshot());
  EXPECT_TRUE(arena->snapshot()->Unpack() == owning->Unpack());
}

TEST(MmapArena, EmptyIndexRoundTrips) {
  const std::string dir = FreshDir("mmap_arena_empty");
  const Graph graph(0);
  const FlatSpcIndex owning(BuildSpcIndex(graph));
  const std::string path = dir + "/snap.arena";
  FileSystem* fs = FileSystem::Default();
  ASSERT_TRUE(WriteSnapshotArena(fs, path, owning, 1, 0).ok());
  auto arena = MappedArena::Map(fs, path);
  ASSERT_TRUE(arena.ok()) << arena.status().ToString();
  EXPECT_EQ(arena->snapshot()->NumVertices(), 0u);
}

TEST(MmapArena, MissingFileIsTypedNotFatal) {
  const std::string dir = FreshDir("mmap_arena_missing");
  auto arena = MappedArena::Map(FileSystem::Default(), dir + "/nope.arena");
  ASSERT_FALSE(arena.ok());
  EXPECT_TRUE(arena.status().IsIOError() || arena.status().IsNotFound())
      << arena.status().ToString();
}

// --- corruption sweeps -------------------------------------------------------

class MmapArenaCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = FreshDir("mmap_arena_corruption");
    graph_ = GenerateErdosRenyi(24, 50, 3);
    owning_ = std::make_unique<FlatSpcIndex>(BuildSpcIndex(graph_));
    path_ = dir_ + "/snap.arena";
    ASSERT_TRUE(
        WriteSnapshotArena(FileSystem::Default(), path_, *owning_, 7, 0)
            .ok());
    bytes_ = ReadAll(path_);
    ASSERT_GT(bytes_.size(), 4096u);
  }

  std::string dir_;
  Graph graph_;
  std::unique_ptr<FlatSpcIndex> owning_;
  std::string path_;
  std::vector<uint8_t> bytes_;
};

TEST_F(MmapArenaCorruption, TruncationAtEveryBoundaryIsTyped) {
  // Every prefix length across the header, plus a window around every
  // page boundary (the section starts) and the exact end. Each must map
  // to a typed error — kCorruption for bad structure, never a crash.
  std::vector<size_t> lengths;
  for (size_t len = 0; len <= 160; ++len) lengths.push_back(len);
  for (size_t page = 4096; page < bytes_.size(); page += 4096) {
    for (size_t d = 0; d <= 2; ++d) {
      if (page >= d) lengths.push_back(page - d);
      lengths.push_back(page + d);
    }
  }
  lengths.push_back(bytes_.size() - 1);
  const std::string trunc = dir_ + "/trunc.arena";
  for (const size_t len : lengths) {
    if (len >= bytes_.size()) continue;
    std::vector<uint8_t> cut(bytes_.begin(), bytes_.begin() + len);
    WriteAll(trunc, cut);
    auto arena = MappedArena::Map(FileSystem::Default(), trunc);
    ASSERT_FALSE(arena.ok()) << "truncation to " << len << " bytes mapped";
    ASSERT_TRUE(arena.status().IsCorruption() || arena.status().IsIOError())
        << "len=" << len << ": " << arena.status().ToString();
  }
}

TEST_F(MmapArenaCorruption, EveryFlippedBitIsDetected) {
  // One flipped bit per byte across the whole file: header fields,
  // section payloads, and — crucially — inter-section padding, which is
  // outside every CRC range but required to be zero. No byte may escape.
  const std::string flipped = dir_ + "/flip.arena";
  for (size_t i = 0; i < bytes_.size(); ++i) {
    std::vector<uint8_t> mut = bytes_;
    mut[i] ^= uint8_t{1} << (i % 8);
    WriteAll(flipped, mut);
    auto arena = MappedArena::Map(FileSystem::Default(), flipped);
    ASSERT_FALSE(arena.ok())
        << "bit flip at byte " << i << " mapped successfully";
    ASSERT_TRUE(arena.status().IsCorruption())
        << "byte " << i << ": " << arena.status().ToString();
  }
}

TEST_F(MmapArenaCorruption, AppendedTrailingBytesAreDetected) {
  std::vector<uint8_t> grown = bytes_;
  grown.insert(grown.end(), 8, uint8_t{0});
  const std::string path = dir_ + "/grown.arena";
  WriteAll(path, grown);
  auto arena = MappedArena::Map(FileSystem::Default(), path);
  ASSERT_FALSE(arena.ok());
  EXPECT_TRUE(arena.status().IsCorruption()) << arena.status().ToString();
}

// --- publisher protocol ------------------------------------------------------

FlatSpcIndex SnapshotOf(const Graph& graph) {
  return FlatSpcIndex(BuildSpcIndex(graph));
}

TEST(SnapshotPublisher, PublishWritesArenaAndPubState) {
  const std::string dir = FreshDir("pub_basic");
  FileSystem* fs = FileSystem::Default();
  auto pub = SnapshotPublisher::Open(dir);
  ASSERT_TRUE(pub.ok());
  EXPECT_EQ((*pub)->CurrentGeneration(), 0u);

  const Graph graph = GenerateErdosRenyi(20, 40, 1);
  ASSERT_TRUE((*pub)->Publish(SnapshotOf(graph), 3, 11).ok());
  EXPECT_EQ((*pub)->CurrentGeneration(), 3u);
  EXPECT_EQ((*pub)->CurrentWalSeq(), 11u);

  auto state = ReadPubState(fs, dir);
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(state->generation, 3u);
  EXPECT_EQ(state->wal_seq, 11u);
  EXPECT_EQ(state->file_name, SnapshotArenaFileName(3));
  EXPECT_TRUE(fs->FileExists(dir + "/" + state->file_name));

  auto arena = MappedArena::Map(fs, dir + "/" + state->file_name);
  ASSERT_TRUE(arena.ok());
  EXPECT_EQ(arena->generation(), 3u);
}

TEST(SnapshotPublisher, ReadPubStateBeforeFirstPublishIsNotFound) {
  const std::string dir = FreshDir("pub_nothing");
  EXPECT_TRUE(ReadPubState(FileSystem::Default(), dir).status().IsNotFound());
}

TEST(SnapshotPublisher, GenerationNeverMovesBackwards) {
  const std::string dir = FreshDir("pub_monotone");
  auto pub = SnapshotPublisher::Open(dir);
  ASSERT_TRUE(pub.ok());
  const Graph graph = GeneratePath(6);
  ASSERT_TRUE((*pub)->Publish(SnapshotOf(graph), 5, 0).ok());
  // Republish of the exact current generation (crash recovery) is legal.
  EXPECT_TRUE((*pub)->Publish(SnapshotOf(graph), 5, 0).ok());
  // Moving backwards is not — readers must never see the shared
  // generation regress.
  EXPECT_TRUE((*pub)->Publish(SnapshotOf(graph), 4, 0)
                  .IsInvalidArgument());
  // A new publisher over the same directory inherits the floor.
  auto pub2 = SnapshotPublisher::Open(dir);
  ASSERT_TRUE(pub2.ok());
  EXPECT_EQ((*pub2)->CurrentGeneration(), 5u);
  EXPECT_TRUE((*pub2)->Publish(SnapshotOf(graph), 2, 0)
                  .IsInvalidArgument());
}

TEST(SnapshotPublisher, GcKeepsRetainedCurrentAndPinnedGenerations) {
  const std::string dir = FreshDir("pub_gc");
  FileSystem* fs = FileSystem::Default();
  SnapshotPublisherOptions options;
  options.retain = 2;
  options.pid_alive = [](uint64_t) { return true; };  // every pin is live
  auto pub = SnapshotPublisher::Open(dir, options);
  ASSERT_TRUE(pub.ok());

  const Graph graph = GeneratePath(8);
  const FlatSpcIndex snap = SnapshotOf(graph);
  ASSERT_TRUE((*pub)->Publish(snap, 1, 0).ok());
  // A reader pins generation 1 before it falls out of retention.
  ASSERT_TRUE(WriteSnapshotPin(fs, dir, "reader1", 1, 1234).ok());
  for (uint64_t gen = 2; gen <= 6; ++gen) {
    ASSERT_TRUE((*pub)->Publish(snap, gen, 0).ok());
  }
  // Newest 2 (5, 6) survive by retention, 1 by its pin; 2..4 are gone.
  EXPECT_TRUE(fs->FileExists(dir + "/" + SnapshotArenaFileName(1)));
  EXPECT_FALSE(fs->FileExists(dir + "/" + SnapshotArenaFileName(2)));
  EXPECT_FALSE(fs->FileExists(dir + "/" + SnapshotArenaFileName(3)));
  EXPECT_FALSE(fs->FileExists(dir + "/" + SnapshotArenaFileName(4)));
  EXPECT_TRUE(fs->FileExists(dir + "/" + SnapshotArenaFileName(5)));
  EXPECT_TRUE(fs->FileExists(dir + "/" + SnapshotArenaFileName(6)));

  // The pinned generation still maps and serves.
  auto arena = MappedArena::Map(fs, dir + "/" + SnapshotArenaFileName(1));
  ASSERT_TRUE(arena.ok());
  EXPECT_EQ(arena->generation(), 1u);
}

TEST(SnapshotPublisher, DeadReadersPinsAreSweptLivePinsHold) {
  const std::string dir = FreshDir("pub_pin_sweep");
  FileSystem* fs = FileSystem::Default();
  SnapshotPublisherOptions options;
  options.retain = 1;
  options.pid_alive = [](uint64_t pid) { return pid == 100; };
  auto pub = SnapshotPublisher::Open(dir, options);
  ASSERT_TRUE(pub.ok());

  const FlatSpcIndex snap = SnapshotOf(GeneratePath(5));
  ASSERT_TRUE((*pub)->Publish(snap, 1, 0).ok());
  // Pins land before the generations they hold fall out of retention.
  ASSERT_TRUE(WriteSnapshotPin(fs, dir, "alive", 1, 100).ok());
  ASSERT_TRUE((*pub)->Publish(snap, 2, 0).ok());
  ASSERT_TRUE(WriteSnapshotPin(fs, dir, "dead", 2, 200).ok());
  ASSERT_TRUE((*pub)->Publish(snap, 3, 0).ok());

  // The live reader's pin held generation 1; the dead reader's pin was
  // swept (file removed), though generation 2 may survive via retention
  // of the current window — so check the pin files themselves.
  EXPECT_TRUE(fs->FileExists(dir + "/pin-alive"));
  EXPECT_FALSE(fs->FileExists(dir + "/pin-dead"));
  EXPECT_TRUE(fs->FileExists(dir + "/" + SnapshotArenaFileName(1)));
}

TEST(SnapshotPublisher, OpenSweepsStrayTmpFiles) {
  const std::string dir = FreshDir("pub_tmp_sweep");
  FileSystem* fs = FileSystem::Default();
  ASSERT_TRUE(fs->CreateDir(dir).ok());
  WriteAll(dir + "/snap-00000000000000000009.arena.tmp", {1, 2, 3});
  auto pub = SnapshotPublisher::Open(dir);
  ASSERT_TRUE(pub.ok());
  EXPECT_FALSE(
      fs->FileExists(dir + "/snap-00000000000000000009.arena.tmp"));
}

TEST(SnapshotPublisher, CorruptPubStateIsDataLoss) {
  const std::string dir = FreshDir("pub_corrupt_state");
  auto pub = SnapshotPublisher::Open(dir);
  ASSERT_TRUE(pub.ok());
  ASSERT_TRUE((*pub)->Publish(SnapshotOf(GeneratePath(4)), 1, 0).ok());
  std::vector<uint8_t> raw = ReadAll(dir + "/PUBSTATE");
  raw[raw.size() / 2] ^= 0xff;
  WriteAll(dir + "/PUBSTATE", raw);
  EXPECT_TRUE(
      ReadPubState(FileSystem::Default(), dir).status().IsDataLoss());
}

}  // namespace
}  // namespace dspc
