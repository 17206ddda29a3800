// The snapshot arena: the one on-disk image of a FlatSpcIndex
// (DESIGN.md §6, §14). Published snapshots, checkpoints (whose edge
// section holds the graph, persist/checkpointer.h) and shipped
// checkpoints are all these bytes, written by one encoder and read by
// one validator.
//
// The image stores the monolithic single-shard form of the index as
// *sections* — rank array, CSR offsets, label words, overflow side
// table, edge list — each placed at a page-aligned offset from the image
// start and individually CRC32C-summed, so a reader can construct
// FlatSpcIndex shards as views straight into the bytes: zero per-query
// deserialization or copying of label words. For a mapped file the OS
// page cache shares those bytes across every reader mapping the same
// generation.
//
// Safety contract (how mapped serving avoids SIGBUS and torn reads):
//
//   - The validator runs before any query can touch the bytes: the size
//     covers the header page and every section's [offset, offset+length),
//     the header and every section check out against their CRCs, and all
//     padding bytes between sections are zero (so a bit flip *anywhere*
//     in the image is detected, not just inside a summed range). Every
//     failure is a typed Status — kCorruption for bad bytes, kIOError
//     from the env — never a crash, never a partially adopted snapshot.
//   - Arena and checkpoint files are immutable: their writers write a tmp
//     file, fsync, rename, and only ever *unlink* old generations —
//     never truncate or rewrite in place. A posix mapping survives
//     unlink (the inode lives until the last mapping drops), so a
//     validated map can never see its bytes disappear: SIGBUS-free by
//     design, not by handler.
//
// WriteSnapshotArena produces a file through the persist::Env seam
// (create → append → fdatasync); atomic publication (tmp → rename →
// dir-fsync) and generation naming belong to the publisher
// (snapshot_publisher.h) and the checkpointer, which own the directories.

#ifndef DSPC_PERSIST_SNAPSHOT_ARENA_H_
#define DSPC_PERSIST_SNAPSHOT_ARENA_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "dspc/common/status.h"
#include "dspc/core/flat_spc_index.h"
#include "dspc/graph/graph.h"
#include "dspc/persist/env.h"

namespace dspc {

inline constexpr uint32_t kSnapshotArenaMagic = 0x44535041;  // "DSPA"
inline constexpr uint32_t kSnapshotArenaVersion = 2;  // 2: edge section

/// Section placement granularity. Page alignment keeps every viewed
/// array naturally aligned at any mmap base and lets the kernel fault
/// sections independently.
inline constexpr uint64_t kSnapshotArenaAlign = 4096;

/// The one encoder: appends the image of `index` (sharded or not) and
/// `edges` (a checkpoint's graph, else empty) to `*out`. The image
/// flattens the shards into one — global CSR offsets, overflow slots
/// rebased onto one side table — and is wide when the index is, or when
/// the summed side tables outgrow the 29-bit slot field. `generation` and
/// `wal_seq` are stamped into the header so the image is self-describing.
/// Section offsets are relative to the image start, so a reader needs the
/// image 8-byte aligned, not page-aligned.
Status EncodeSnapshotArena(const FlatSpcIndex& index,
                           std::span<const Edge> edges, uint64_t generation,
                           uint64_t wal_seq, std::vector<uint8_t>* out);

/// Writes the image of `index` and `edges` to `path` via `fs`:
/// create/truncate, append, fdatasync, close. No rename — callers that
/// need atomic visibility write to a tmp path and rename.
Status WriteSnapshotArena(FileSystem* fs, const std::string& path,
                          const FlatSpcIndex& index,
                          std::span<const Edge> edges, uint64_t generation,
                          uint64_t wal_seq);

/// A fully validated arena image, presented as a FlatSpcIndex whose label
/// arenas are views into the image bytes — a read-only mapping of a file,
/// or a fetched buffer. The snapshot holds the bytes alive through its
/// shard backing handle, so the MappedArena object itself may be
/// discarded after adoption — pinned queries keep the bytes alive until
/// the last one finishes.
class MappedArena {
 public:
  /// Maps and validates `path`. Typed failures: kIOError from the env
  /// (missing file, mmap failure), kCorruption from FromBytes.
  static StatusOr<MappedArena> Map(FileSystem* fs, const std::string& path);

  /// The one validator: checks the image at [base, base + size) and
  /// adopts it as views; `backing` keeps those bytes alive. kCorruption
  /// for any structural or checksum mismatch (short image, truncated
  /// section, bit flip, nonzero padding, `base` not 8-byte aligned, an
  /// edge endpoint at or above the vertex count, arena that fails
  /// FlatSpcIndex validation); `context` names the source in the message.
  static StatusOr<MappedArena> FromBytes(const uint8_t* base, uint64_t size,
                                         std::shared_ptr<const void> backing,
                                         const std::string& context);

  /// The snapshot, serving views over the image bytes.
  const std::shared_ptr<const FlatSpcIndex>& snapshot() const {
    return snapshot_;
  }

  /// Generation stamped into the header at write time.
  uint64_t generation() const { return generation_; }

  /// WAL sequence the writer had durably synced when this snapshot was
  /// taken (0 for non-durable writers).
  uint64_t wal_seq() const { return wal_seq_; }

  /// Image size in bytes (observability).
  uint64_t file_bytes() const { return file_bytes_; }

  /// The edge section, every endpoint below the snapshot's vertex count.
  /// Views the image bytes, so it is valid while snapshot() is held.
  std::span<const Edge> edges() const { return edges_; }

 private:
  MappedArena() = default;

  std::shared_ptr<const FlatSpcIndex> snapshot_;
  uint64_t generation_ = 0;
  uint64_t wal_seq_ = 0;
  uint64_t file_bytes_ = 0;
  std::span<const Edge> edges_;
};

}  // namespace dspc

#endif  // DSPC_PERSIST_SNAPSHOT_ARENA_H_
