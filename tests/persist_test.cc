// persist/: the durability building blocks in isolation — the
// FaultInjectingEnv crash double, WAL framing and torn-tail repair, the
// atomic checkpoint/manifest protocol, and segment GC (DESIGN.md §11).
// Crash-recovery end-to-end lives in tests/recovery_test.cc.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dspc/common/binary_io.h"
#include "dspc/common/rng.h"
#include "dspc/core/flat_spc_index.h"
#include "dspc/core/hp_spc.h"
#include "dspc/core/spc_index.h"
#include "dspc/graph/generators.h"
#include "dspc/persist/checkpointer.h"
#include "dspc/persist/env.h"
#include "dspc/persist/snapshot_arena.h"
#include "dspc/persist/wal.h"
#include "test_util.h"

namespace dspc {
namespace {

using dspc::testing::FreshDir;

std::vector<uint8_t> ReadAll(FileSystem* fs, const std::string& path) {
  std::vector<uint8_t> data;
  EXPECT_TRUE(fs->ReadFile(path, &data).ok());
  return data;
}

// --- Numbered file names ---------------------------------------------------

// Checkpoint, WAL segment, snapshot arena and shipped-file names share
// one parser. One past UINT64_MAX must not wrap to generation 1, and
// UINT64_MAX itself is a valid number.
TEST(NumberedFileNameTest, RefusesOverflowAndMalformedNames) {
  uint64_t v = 7;
  for (const char* bad :
       {"ckpt-18446744073709551616.spc", "ckpt-18446744073709551617.spc",
        "ckpt-99999999999999999999999.spc", "ckpt-.spc", "ckpt-1a.spc",
        "ckpt-+1.spc", "ckpt-1.spc.tmp", "ckpt-1.log"}) {
    EXPECT_FALSE(ParseCheckpointFileName(bad, &v)) << bad;
  }
  EXPECT_FALSE(ParseWalSegmentFileName("wal-18446744073709551617.log", &v));
  EXPECT_EQ(v, 7u);  // a refused name leaves the output alone
  ASSERT_TRUE(ParseCheckpointFileName("ckpt-18446744073709551615.spc", &v));
  EXPECT_EQ(v, UINT64_MAX);
  ASSERT_TRUE(ParseWalSegmentFileName("wal-18446744073709551615.log", &v));
  EXPECT_EQ(v, UINT64_MAX);
  ASSERT_TRUE(ParseWalSegmentFileName("wal-0042.log", &v));
  EXPECT_EQ(v, 42u);
}

// --- FaultInjectingEnv -------------------------------------------------------

TEST(FaultEnvTest, UnsyncedAppendsAreVolatile) {
  const std::string dir = FreshDir("fault_env_volatile");
  FileSystem* base = FileSystem::Default();
  FaultInjectingEnv env(base);

  const std::string path = dir + "/f";
  auto file = env.NewWritableFile(path);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("abcd", 4).ok());
  // Nothing synced: the base file must still be empty — this is the
  // page-cache-at-power-loss model the whole crash matrix stands on.
  EXPECT_EQ(ReadAll(base, path).size(), 0u);
  ASSERT_TRUE((*file)->Sync().ok());
  EXPECT_EQ(ReadAll(base, path).size(), 4u);
  ASSERT_TRUE((*file)->Append("efgh", 4).ok());
  EXPECT_EQ(ReadAll(base, path).size(), 4u);
  // A clean Close flushes (process exit is not a crash).
  ASSERT_TRUE((*file)->Close().ok());
  EXPECT_EQ(ReadAll(base, path).size(), 8u);
}

TEST(FaultEnvTest, ArmedFaultKillsTheExactOperationAndEverythingAfter) {
  const std::string dir = FreshDir("fault_env_arm");
  FaultInjectingEnv env(FileSystem::Default());

  // Count the workload unarmed: append, sync, append, close = 4 ops.
  {
    auto f = env.NewWritableFile(dir + "/count");
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE((*f)->Append("aa", 2).ok());
    ASSERT_TRUE((*f)->Sync().ok());
    ASSERT_TRUE((*f)->Append("bb", 2).ok());
    ASSERT_TRUE((*f)->Close().ok());
  }
  EXPECT_EQ(env.OperationCount(), 4u);
  EXPECT_FALSE(env.Tripped());

  // Arm at the sync (index 1): the sync fails WITHOUT flushing, and the
  // env is dead afterwards.
  env.Disarm();
  env.Arm(1);
  auto f = env.NewWritableFile(dir + "/armed");
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE((*f)->Append("aa", 2).ok());
  EXPECT_TRUE((*f)->Sync().IsIOError());
  EXPECT_TRUE(env.Tripped());
  EXPECT_TRUE((*f)->Append("bb", 2).IsIOError());
  EXPECT_TRUE((*f)->Close().IsIOError());
  EXPECT_EQ(ReadAll(FileSystem::Default(), dir + "/armed").size(), 0u);
}

TEST(FaultEnvTest, ShortWriteLeaksHalfTheUnsyncedBytes) {
  const std::string dir = FreshDir("fault_env_short");
  FaultInjectingEnv env(FileSystem::Default());
  env.Arm(1, /*short_write=*/true);

  auto f = env.NewWritableFile(dir + "/torn");
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE((*f)->Append("abcdefgh", 8).ok());
  EXPECT_TRUE((*f)->Sync().IsIOError());
  // The tripping sync leaked half of the pending bytes: a torn tail.
  EXPECT_EQ(ReadAll(FileSystem::Default(), dir + "/torn").size(), 4u);
}

// --- WAL record codec --------------------------------------------------------

TEST(WalCodecTest, AllRecordKindsRoundTrip) {
  WalRecord batch;
  batch.kind = WalRecord::Kind::kBatch;
  batch.seq = 42;
  batch.generation = 7;
  batch.updates = {Update::Insert(1, 2), Update::Delete(3, 4)};

  WalRecord commit;
  commit.kind = WalRecord::Kind::kCommit;
  commit.seq = 42;
  commit.generation = 9;
  commit.outcomes = {1, 0};

  WalRecord add;
  add.kind = WalRecord::Kind::kAddVertex;
  add.seq = 43;
  add.generation = 9;
  add.vertex = 123;

  for (const WalRecord& rec : {batch, commit, add}) {
    const std::vector<uint8_t> payload = EncodeWalRecord(rec);
    WalRecord back;
    ASSERT_TRUE(DecodeWalRecord(payload, &back).ok());
    EXPECT_EQ(back.kind, rec.kind);
    EXPECT_EQ(back.seq, rec.seq);
    EXPECT_EQ(back.generation, rec.generation);
    EXPECT_EQ(back.vertex, rec.vertex);
    ASSERT_EQ(back.updates.size(), rec.updates.size());
    for (size_t i = 0; i < rec.updates.size(); ++i) {
      EXPECT_EQ(back.updates[i].kind, rec.updates[i].kind);
      EXPECT_EQ(back.updates[i].edge.u, rec.updates[i].edge.u);
      EXPECT_EQ(back.updates[i].edge.v, rec.updates[i].edge.v);
    }
    EXPECT_EQ(back.outcomes, rec.outcomes);
  }
}

TEST(WalCodecTest, MalformedPayloadsAreDataLossNotCrashes) {
  WalRecord rec;
  rec.kind = WalRecord::Kind::kBatch;
  rec.seq = 1;
  rec.generation = 2;
  rec.updates = {Update::Insert(1, 2)};
  const std::vector<uint8_t> good = EncodeWalRecord(rec);

  WalRecord out;
  // Empty, truncated at every length, and a bad kind byte.
  EXPECT_TRUE(DecodeWalRecord({good.data(), 0}, &out).IsDataLoss());
  for (size_t len = 1; len < good.size(); ++len) {
    EXPECT_TRUE(DecodeWalRecord({good.data(), len}, &out).IsDataLoss())
        << "truncated to " << len;
  }
  std::vector<uint8_t> bad_kind = good;
  bad_kind[0] = 99;
  EXPECT_TRUE(DecodeWalRecord(bad_kind, &out).IsDataLoss());
}

// --- WalWriter + ReadWalSegment ---------------------------------------------

std::vector<uint8_t> TestRecord(uint64_t seq, uint64_t gen) {
  WalRecord rec;
  rec.kind = WalRecord::Kind::kBatch;
  rec.seq = seq;
  rec.generation = gen;
  rec.updates = {Update::Insert(static_cast<Vertex>(seq),
                                static_cast<Vertex>(seq + 1))};
  return EncodeWalRecord(rec);
}

TEST(WalWriterTest, AppendedRecordsRoundTripThroughSegmentScan) {
  const std::string dir = FreshDir("wal_roundtrip");
  FileSystem* fs = FileSystem::Default();
  const std::string path = dir + "/" + WalSegmentFileName(3);

  WalWriter::Options options;
  options.sync = WalSyncPolicy::kEveryWrite;
  auto writer = WalWriter::Create(fs, path, 3, 17, options);
  ASSERT_TRUE(writer.ok());
  for (uint64_t i = 0; i < 10; ++i) {
    auto off = (*writer)->AppendRecord(TestRecord(i, 17 + i));
    ASSERT_TRUE(off.ok());
    EXPECT_EQ(*off, (*writer)->AppendedBytes());
    EXPECT_EQ((*writer)->SyncedBytes(), *off);  // kEveryWrite
  }
  EXPECT_EQ((*writer)->AppendedRecords(), 10u);
  ASSERT_TRUE((*writer)->Close().ok());

  WalSegment segment;
  ASSERT_TRUE(ReadWalSegment(fs, path, 3, &segment).ok());
  EXPECT_EQ(segment.seq, 3u);
  EXPECT_EQ(segment.base_generation, 17u);
  EXPECT_EQ(segment.truncated_tail_bytes, 0u);
  ASSERT_EQ(segment.records.size(), 10u);
  for (uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(segment.records[i].seq, i);
    EXPECT_EQ(segment.records[i].generation, 17 + i);
  }
}

TEST(WalWriterTest, OversizeRecordsAreRefusedBeforeTouchingTheLog) {
  const std::string dir = FreshDir("wal_oversize");
  FileSystem* fs = FileSystem::Default();
  const std::string path = dir + "/" + WalSegmentFileName(1);
  WalWriter::Options options;
  options.sync = WalSyncPolicy::kEveryWrite;
  auto writer = WalWriter::Create(fs, path, 1, 0, options);
  ASSERT_TRUE(writer.ok());

  // One byte past the framing guard. Were this appended (and fsynced —
  // acknowledged durable!), ReadWalSegment would read its length prefix
  // as a torn tail and recovery would silently truncate it away.
  const std::vector<uint8_t> huge(size_t{kWalMaxRecordBytes} + 1, 0xAB);
  const auto off = (*writer)->AppendRecord(huge);
  EXPECT_TRUE(off.status().IsInvalidArgument()) << off.status().ToString();
  EXPECT_EQ((*writer)->AppendedRecords(), 0u);
  EXPECT_EQ((*writer)->AppendedBytes(), kWalHeaderBytes);

  // A caller error, not a device failure: nothing was appended and the
  // writer is still usable (no fail-stop latch).
  ASSERT_TRUE((*writer)->AppendRecord(TestRecord(1, 1)).ok());
  ASSERT_TRUE((*writer)->Close().ok());
  WalSegment segment;
  ASSERT_TRUE(ReadWalSegment(fs, path, 1, &segment).ok());
  EXPECT_EQ(segment.records.size(), 1u);
  EXPECT_EQ(segment.truncated_tail_bytes, 0u);
}

TEST(WalWriterTest, GroupCommitSatisfiesDurableWaiters) {
  const std::string dir = FreshDir("wal_group_commit");
  FileSystem* fs = FileSystem::Default();
  WalWriter::Options options;
  options.sync = WalSyncPolicy::kBatch;
  options.flush_interval = std::chrono::microseconds(500);
  auto writer =
      WalWriter::Create(fs, dir + "/" + WalSegmentFileName(1), 1, 0, options);
  ASSERT_TRUE(writer.ok());

  auto off = (*writer)->AppendRecord(TestRecord(1, 1));
  ASSERT_TRUE(off.ok());
  ASSERT_TRUE((*writer)->WaitDurable(*off).ok());
  EXPECT_GE((*writer)->SyncedBytes(), *off);
  EXPECT_GE((*writer)->SyncCount(), 1u);

  // Close after more unsynced appends: the final sync covers them, and a
  // WaitDurable issued after Close still answers (from synced_).
  auto off2 = (*writer)->AppendRecord(TestRecord(2, 2));
  ASSERT_TRUE(off2.ok());
  ASSERT_TRUE((*writer)->Close().ok());
  EXPECT_TRUE((*writer)->WaitDurable(*off2).ok());
}

TEST(WalWriterTest, SegmentScanRejectsWrongSeqAndBadHeader) {
  const std::string dir = FreshDir("wal_bad_header");
  FileSystem* fs = FileSystem::Default();
  const std::string path = dir + "/" + WalSegmentFileName(5);
  {
    auto writer = WalWriter::Create(fs, path, 5, 0, {});
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->AppendRecord(TestRecord(1, 1)).ok());
    ASSERT_TRUE((*writer)->Close().ok());
  }
  WalSegment segment;
  // The file name says 5, the header says 5 — but the caller expects 6.
  EXPECT_TRUE(ReadWalSegment(fs, path, 6, &segment).IsDataLoss());

  // Flip a header byte: the header CRC catches it.
  std::vector<uint8_t> data = ReadAll(fs, path);
  data[8] ^= 0x40;
  {
    auto f = fs->NewWritableFile(path);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE((*f)->Append(data.data(), data.size()).ok());
    ASSERT_TRUE((*f)->Close().ok());
  }
  EXPECT_TRUE(ReadWalSegment(fs, path, 5, &segment).IsDataLoss());
}

// The ISSUE's torn-tail fuzz: every truncation point parses as a clean
// prefix + torn tail, every bit flip is either a torn tail or typed
// kDataLoss — never a crash, never garbage records.
TEST(WalFuzzTest, TruncationsAndBitFlipsNeverCrashTheScan) {
  const std::string dir = FreshDir("wal_fuzz");
  FileSystem* fs = FileSystem::Default();
  const std::string path = dir + "/" + WalSegmentFileName(1);
  {
    auto writer = WalWriter::Create(fs, path, 1, 0, {});
    ASSERT_TRUE(writer.ok());
    for (uint64_t i = 0; i < 8; ++i) {
      ASSERT_TRUE((*writer)->AppendRecord(TestRecord(i, i)).ok());
    }
    ASSERT_TRUE((*writer)->Close().ok());
  }
  const std::vector<uint8_t> clean = ReadAll(fs, path);
  const std::string mutated = dir + "/mutated.log";
  const auto write_mutated = [&](const std::vector<uint8_t>& data) {
    auto f = fs->NewWritableFile(mutated);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE((*f)->Append(data.data(), data.size()).ok());
    ASSERT_TRUE((*f)->Close().ok());
  };

  // Every truncation length: records parse up to the cut, the rest is a
  // torn tail (or, under kWalHeaderBytes, the whole file is the tail).
  for (size_t len = 0; len <= clean.size(); ++len) {
    std::vector<uint8_t> cut(clean.begin(), clean.begin() + len);
    write_mutated(cut);
    WalSegment segment;
    const Status st = ReadWalSegment(fs, mutated, 1, &segment);
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(segment.valid_bytes + segment.truncated_tail_bytes, len);
    for (const WalRecord& rec : segment.records) {
      EXPECT_EQ(rec.generation, rec.seq);  // only genuine records survive
    }
  }

  // Random bit flips (plus every byte of the first record's framing):
  // typed status, never a crash.
  Rng rng(0xFEED);
  for (int trial = 0; trial < 400; ++trial) {
    std::vector<uint8_t> flipped = clean;
    const size_t pos = rng.NextBounded(flipped.size());
    flipped[pos] ^= static_cast<uint8_t>(1u << rng.NextBounded(8));
    write_mutated(flipped);
    WalSegment segment;
    const Status st = ReadWalSegment(fs, mutated, 1, &segment);
    EXPECT_TRUE(st.ok() || st.IsDataLoss()) << st.ToString();
    if (st.ok()) {
      EXPECT_LE(segment.valid_bytes + segment.truncated_tail_bytes,
                clean.size());
    }
  }
}

TEST(WalFuzzTest, RepairTruncatesToTheValidPrefix) {
  const std::string dir = FreshDir("wal_repair");
  FileSystem* fs = FileSystem::Default();
  const std::string path = dir + "/" + WalSegmentFileName(1);
  {
    auto writer = WalWriter::Create(fs, path, 1, 0, {});
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->AppendRecord(TestRecord(1, 1)).ok());
    ASSERT_TRUE((*writer)->AppendRecord(TestRecord(2, 2)).ok());
    ASSERT_TRUE((*writer)->Close().ok());
  }
  std::vector<uint8_t> data = ReadAll(fs, path);
  data.resize(data.size() - 3);  // tear the last record mid-frame
  {
    auto f = fs->NewWritableFile(path);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE((*f)->Append(data.data(), data.size()).ok());
    ASSERT_TRUE((*f)->Close().ok());
  }
  WalSegment segment;
  ASSERT_TRUE(ReadWalSegment(fs, path, 1, &segment).ok());
  ASSERT_EQ(segment.records.size(), 1u);
  EXPECT_GT(segment.truncated_tail_bytes, 0u);
  ASSERT_TRUE(RepairWalTail(fs, path, segment).ok());
  auto size = fs->FileSize(path);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, segment.valid_bytes);
  // After repair the segment scans clean.
  WalSegment repaired;
  ASSERT_TRUE(ReadWalSegment(fs, path, 1, &repaired).ok());
  EXPECT_EQ(repaired.truncated_tail_bytes, 0u);
  ASSERT_EQ(repaired.records.size(), 1u);
}

// --- checkpointer ------------------------------------------------------------

// A WAL segment file is needed for GC retention assertions.
void TouchSegment(FileSystem* fs, const std::string& dir, uint64_t seq,
                  uint64_t base_generation) {
  auto writer = WalWriter::Create(
      fs, dir + "/" + WalSegmentFileName(seq), seq, base_generation, {});
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Close().ok());
}

TEST(CheckpointerTest, PublishRoundTripsGraphIndexAndManifest) {
  const std::string dir = FreshDir("ckpt_roundtrip");
  FileSystem* fs = FileSystem::Default();
  const Graph g = GenerateBarabasiAlbert(50, 2, 11);
  const SpcIndex index = BuildSpcIndex(g);
  const FlatSpcIndex flat(index);

  TouchSegment(fs, dir, 4, 9);
  Checkpointer checkpointer(fs, dir);
  ASSERT_TRUE(checkpointer.Publish(g, flat, 9, 4).ok());

  auto manifest = ReadManifest(fs, dir);
  ASSERT_TRUE(manifest.ok());
  EXPECT_EQ(manifest->generation, 9u);
  EXPECT_EQ(manifest->wal_seq, 4u);
  EXPECT_FALSE(manifest->has_previous);

  // The checkpoint file is a plain snapshot arena: it maps as one, with
  // the graph in its edge section.
  auto arena = MappedArena::Map(fs, dir + "/" + CheckpointFileName(9));
  ASSERT_TRUE(arena.ok()) << arena.status().ToString();
  EXPECT_EQ(arena->generation(), 9u);
  EXPECT_EQ(arena->wal_seq(), 4u);
  const std::vector<Edge> edges = g.Edges();
  EXPECT_TRUE(std::equal(edges.begin(), edges.end(), arena->edges().begin(),
                         arena->edges().end()));

  LoadedCheckpoint loaded;
  ASSERT_TRUE(LoadCheckpoint(fs, dir, 9, &loaded).ok());
  EXPECT_EQ(loaded.generation, 9u);
  EXPECT_EQ(loaded.graph.NumVertices(), g.NumVertices());
  EXPECT_EQ(loaded.graph.Edges(), edges);
  // The reloaded index answers exactly like the original.
  for (Vertex s = 0; s < 10; ++s) {
    for (Vertex t = 40; t < 50; ++t) {
      EXPECT_EQ(loaded.index.Query(s, t), flat.Query(s, t));
    }
  }
  EXPECT_TRUE(loaded.index.Unpack() == index);
}

// --- checkpoint corruption ---------------------------------------------------
//
// A checkpoint is a snapshot arena image: a header page, then five
// sections (ranks, offsets, entries, overflow, edges), each nonempty one
// at a page boundary, with zero padding between. The sweeps below read
// the section table straight from the header (40 bytes in, 24 bytes a
// section: offset, length, crc) to aim at every region.

constexpr size_t kSectionTableAt = 40;
constexpr size_t kSectionBytes = 24;
constexpr size_t kNumImageSections = 5;
constexpr size_t kEdgeSection = 4;
constexpr size_t kHeaderCrcAt =
    kSectionTableAt + kNumImageSections * kSectionBytes;

struct ImageSection {
  uint64_t offset = 0;
  uint64_t length = 0;
};

uint64_t LoadU64(const std::vector<uint8_t>& bytes, size_t at) {
  uint64_t v = 0;
  std::memcpy(&v, bytes.data() + at, sizeof(v));
  return v;
}

std::vector<ImageSection> SectionsOf(const std::vector<uint8_t>& image) {
  std::vector<ImageSection> out;
  for (size_t i = 0; i < kNumImageSections; ++i) {
    const size_t at = kSectionTableAt + i * kSectionBytes;
    out.push_back({LoadU64(image, at), LoadU64(image, at + 8)});
  }
  return out;
}

void PutU32(std::vector<uint8_t>* bytes, size_t at, uint32_t v) {
  std::memcpy(bytes->data() + at, &v, sizeof(v));
}

// Writes `bytes` as checkpoint `generation` the way the checkpointer
// does (tmp, then rename), so a mapping of the previous file is never
// truncated under its holder.
void ReplaceCheckpoint(FileSystem* fs, const std::string& dir,
                       uint64_t generation, const std::vector<uint8_t>& bytes) {
  const std::string path = dir + "/" + CheckpointFileName(generation);
  auto f = fs->NewWritableFile(path + ".tmp");
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE((*f)->Append(bytes.data(), bytes.size()).ok());
  ASSERT_TRUE((*f)->Close().ok());
  ASSERT_TRUE(fs->RenameFile(path + ".tmp", path).ok());
}

// Both load paths — mapping the file and parsing fetched bytes — must
// refuse `bytes` with kDataLoss.
void ExpectBothLoadsDataLoss(FileSystem* fs, const std::string& dir,
                             uint64_t generation,
                             const std::vector<uint8_t>& bytes,
                             const std::string& what) {
  ReplaceCheckpoint(fs, dir, generation, bytes);
  LoadedCheckpoint loaded;
  const Status mapped = LoadCheckpoint(fs, dir, generation, &loaded);
  EXPECT_TRUE(mapped.IsDataLoss()) << what << ": " << mapped.ToString();
  const Status parsed =
      ParseCheckpointBytes(bytes, generation, "shipped", &loaded);
  EXPECT_TRUE(parsed.IsDataLoss()) << what << ": " << parsed.ToString();
}

// A chain of diamonds doubles the path count at every diamond, so the
// index overflows the packed count budget and every section of the
// checkpoint, the overflow side table included, is nonempty.
Graph DiamondChain(size_t diamonds) {
  Graph g(1 + 3 * diamonds);
  Vertex prev = 0;
  for (size_t i = 0; i < diamonds; ++i) {
    const auto a = static_cast<Vertex>(3 * i + 1);
    const auto b = static_cast<Vertex>(3 * i + 2);
    const auto next = static_cast<Vertex>(3 * i + 3);
    g.AddEdge(prev, a);
    g.AddEdge(prev, b);
    g.AddEdge(a, next);
    g.AddEdge(b, next);
    prev = next;
  }
  return g;
}

TEST(CheckpointerTest, FlipInEveryRegionIsDataLoss) {
  const std::string dir = FreshDir("ckpt_flip");
  FileSystem* fs = FileSystem::Default();
  const Graph g = DiamondChain(31);
  const FlatSpcIndex flat(BuildSpcIndex(g));
  ASSERT_GT(flat.OverflowEntries(), 0u);
  TouchSegment(fs, dir, 1, 6);
  Checkpointer checkpointer(fs, dir);
  ASSERT_TRUE(checkpointer.Publish(g, flat, 6, 1).ok());

  const std::vector<uint8_t> image =
      ReadAll(fs, dir + "/" + CheckpointFileName(6));
  const std::vector<ImageSection> sections = SectionsOf(image);
  // Header: the magic, the version (a version 1 image is refused, not
  // migrated), the generation, the vertex count, the section table, the
  // header CRC.
  std::vector<std::pair<size_t, std::string>> targets = {
      {0, "header magic"},
      {4, "header version"},
      {8, "header generation"},
      {24, "header vertex count"},
      {kSectionTableAt + kEdgeSection * kSectionBytes + 8,
       "header edge section length"},
      {kHeaderCrcAt, "header crc"},
      {kHeaderCrcAt + 4, "header page padding"},
  };
  for (size_t i = 0; i < kNumImageSections; ++i) {
    ASSERT_GT(sections[i].length, 0u) << "section " << i;
    const std::string name = "section " + std::to_string(i);
    targets.push_back({sections[i].offset, name + " first byte"});
    targets.push_back(
        {sections[i].offset + sections[i].length / 2, name + " middle"});
    targets.push_back(
        {sections[i].offset + sections[i].length - 1, name + " last byte"});
    if (i + 1 < kNumImageSections &&
        sections[i].offset + sections[i].length < sections[i + 1].offset) {
      targets.push_back({sections[i].offset + sections[i].length,
                         "padding after " + name});
    }
  }
  for (const auto& [pos, what] : targets) {
    std::vector<uint8_t> flipped = image;
    flipped[pos] ^= 0x04;
    ExpectBothLoadsDataLoss(fs, dir, 6, flipped,
                            what + " (byte " + std::to_string(pos) + ")");
  }
  ReplaceCheckpoint(fs, dir, 6, image);
  LoadedCheckpoint loaded;
  EXPECT_TRUE(LoadCheckpoint(fs, dir, 6, &loaded).ok());
}

TEST(CheckpointerTest, LoadedIndexOutlivesTheCheckpointBytes) {
  const std::string dir = FreshDir("ckpt_outlives");
  FileSystem* fs = FileSystem::Default();
  const Graph g = GenerateBarabasiAlbert(40, 2, 17);
  const SpcIndex index = BuildSpcIndex(g);
  const FlatSpcIndex flat(index, 4);
  TouchSegment(fs, dir, 2, 8);
  Checkpointer checkpointer(fs, dir);
  ASSERT_TRUE(checkpointer.Publish(g, flat, 8, 2).ok());

  std::vector<uint8_t> bytes = ReadAll(fs, dir + "/" + CheckpointFileName(8));
  const size_t size = bytes.size();
  LoadedCheckpoint parsed;
  ASSERT_TRUE(ParseCheckpointBytes(std::move(bytes), 8, "shipped", &parsed)
                  .ok());
  LoadedCheckpoint mapped;
  ASSERT_TRUE(LoadCheckpoint(fs, dir, 8, &mapped).ok());
  // The parsed index views the buffer it was parsed from, so it must keep
  // those bytes alive itself. Buffers of the buffer's size, scribbled,
  // would take its place if it had been freed.
  bytes.assign(size, 0xEE);
  const std::vector<uint8_t> scribble(size, 0xEE);
  const LoadedCheckpoint moved = std::move(parsed);
  parsed = LoadedCheckpoint();
  // The mapped index views the file, and GC only ever unlinks
  // checkpoints: two newer publishes drop generation 8 from the
  // directory, and the mapping keeps answering.
  TouchSegment(fs, dir, 3, 9);
  ASSERT_TRUE(checkpointer.Publish(g, flat, 9, 3).ok());
  TouchSegment(fs, dir, 4, 10);
  ASSERT_TRUE(checkpointer.Publish(g, flat, 10, 4).ok());
  ASSERT_FALSE(fs->FileExists(dir + "/" + CheckpointFileName(8)));
  const LoadedCheckpoint* const loads[] = {&moved, &mapped};
  for (const LoadedCheckpoint* ckpt : loads) {
    for (Vertex s = 0; s < g.NumVertices(); ++s) {
      for (Vertex t = 0; t < g.NumVertices(); ++t) {
        ASSERT_EQ(ckpt->index.Query(s, t), flat.Query(s, t)) << s << "," << t;
      }
    }
    EXPECT_TRUE(ckpt->index.Unpack() == index);
  }
}

TEST(CheckpointerTest, CorruptCheckpointAndManifestAreDataLoss) {
  const std::string dir = FreshDir("ckpt_corrupt");
  FileSystem* fs = FileSystem::Default();
  const Graph g = DiamondChain(31);
  const FlatSpcIndex flat(BuildSpcIndex(g));
  TouchSegment(fs, dir, 1, 5);
  Checkpointer checkpointer(fs, dir);
  ASSERT_TRUE(checkpointer.Publish(g, flat, 5, 1).ok());

  const std::vector<uint8_t> image =
      ReadAll(fs, dir + "/" + CheckpointFileName(5));
  const std::vector<ImageSection> sections = SectionsOf(image);

  // Truncation at every section boundary (and one byte to either side),
  // down to an empty file and a bare header.
  std::vector<size_t> cuts = {0, 4, kHeaderCrcAt, kSnapshotArenaAlign};
  for (const ImageSection& s : sections) {
    for (const size_t at : {s.offset, s.offset + s.length}) {
      cuts.push_back(at - 1);
      cuts.push_back(at);
      cuts.push_back(at + 1);
    }
  }
  for (const size_t cut : cuts) {
    if (cut >= image.size()) continue;
    const std::vector<uint8_t> truncated(image.begin(), image.begin() + cut);
    ExpectBothLoadsDataLoss(fs, dir, 5, truncated,
                            "truncated to " + std::to_string(cut));
  }

  // An out-of-range edge endpoint under valid CRCs: only the validator's
  // range check stands between it and the graph.
  {
    std::vector<uint8_t> bad = image;
    const ImageSection& edges = sections[kEdgeSection];
    PutU32(&bad, edges.offset + 4, static_cast<uint32_t>(g.NumVertices()));
    const size_t crc_at = kSectionTableAt + kEdgeSection * kSectionBytes + 16;
    PutU32(&bad, crc_at, Crc32c(bad.data() + edges.offset, edges.length));
    PutU32(&bad, kHeaderCrcAt, Crc32c(bad.data(), kHeaderCrcAt));
    ExpectBothLoadsDataLoss(fs, dir, 5, bad, "edge endpoint out of range");
  }

  // The image is intact but stamped with another generation than its
  // file name promises.
  ExpectBothLoadsDataLoss(fs, dir, 4, image, "generation mismatch");

  ReplaceCheckpoint(fs, dir, 5, image);
  LoadedCheckpoint loaded;
  ASSERT_TRUE(LoadCheckpoint(fs, dir, 5, &loaded).ok());

  // The MANIFEST keeps its CRC frame: a flipped byte is kDataLoss.
  const std::string manifest = dir + "/" + ManifestFileName();
  std::vector<uint8_t> data = ReadAll(fs, manifest);
  data[data.size() / 2] ^= 0x10;
  auto f = fs->NewWritableFile(manifest);
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE((*f)->Append(data.data(), data.size()).ok());
  ASSERT_TRUE((*f)->Close().ok());
  EXPECT_TRUE(ReadManifest(fs, dir).status().IsDataLoss());
}

TEST(CheckpointerTest, GcKeepsCurrentAndPreviousDropsOlder) {
  const std::string dir = FreshDir("ckpt_gc");
  FileSystem* fs = FileSystem::Default();
  const Graph g = GenerateBarabasiAlbert(30, 2, 7);
  const FlatSpcIndex flat(BuildSpcIndex(g));
  Checkpointer checkpointer(fs, dir);

  TouchSegment(fs, dir, 1, 10);
  ASSERT_TRUE(checkpointer.Publish(g, flat, 10, 1).ok());
  TouchSegment(fs, dir, 2, 20);
  ASSERT_TRUE(checkpointer.Publish(g, flat, 20, 2).ok());
  TouchSegment(fs, dir, 3, 30);
  ASSERT_TRUE(checkpointer.Publish(g, flat, 30, 3).ok());

  // Current (30) and fallback (20) checkpoints survive; 10 is gone. WAL
  // segments from the fallback's seq onward survive; segment 1 is gone.
  EXPECT_TRUE(fs->FileExists(dir + "/" + CheckpointFileName(30)));
  EXPECT_TRUE(fs->FileExists(dir + "/" + CheckpointFileName(20)));
  EXPECT_FALSE(fs->FileExists(dir + "/" + CheckpointFileName(10)));
  EXPECT_TRUE(fs->FileExists(dir + "/" + WalSegmentFileName(3)));
  EXPECT_TRUE(fs->FileExists(dir + "/" + WalSegmentFileName(2)));
  EXPECT_FALSE(fs->FileExists(dir + "/" + WalSegmentFileName(1)));

  auto manifest = ReadManifest(fs, dir);
  ASSERT_TRUE(manifest.ok());
  EXPECT_EQ(manifest->generation, 30u);
  ASSERT_TRUE(manifest->has_previous);
  EXPECT_EQ(manifest->prev_generation, 20u);
  EXPECT_EQ(manifest->prev_wal_seq, 2u);
}

TEST(CheckpointerTest, GcSweepsOrphanedTmpFiles) {
  const std::string dir = FreshDir("ckpt_tmp");
  FileSystem* fs = FileSystem::Default();
  const Graph g = GenerateBarabasiAlbert(20, 2, 1);
  const FlatSpcIndex flat(BuildSpcIndex(g));
  // A stray tmp from a crashed previous publish.
  {
    auto f = fs->NewWritableFile(dir + "/" + CheckpointFileName(99) + ".tmp");
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE((*f)->Append("junk", 4).ok());
    ASSERT_TRUE((*f)->Close().ok());
  }
  TouchSegment(fs, dir, 1, 3);
  Checkpointer checkpointer(fs, dir);
  ASSERT_TRUE(checkpointer.Publish(g, flat, 3, 1).ok());
  EXPECT_FALSE(fs->FileExists(dir + "/" + CheckpointFileName(99) + ".tmp"));
}

}  // namespace
}  // namespace dspc
