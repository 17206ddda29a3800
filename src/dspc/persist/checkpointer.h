// Atomic checkpoint publication for the durability subsystem (DESIGN.md
// §11). A checkpoint is one self-contained file — the graph's edge list
// plus the index's snapshot arena image (persist/snapshot_arena.h),
// CRC32C-framed — published with the classic crash-safe dance:
//
//   write ckpt-<gen>.spc.tmp  →  fsync  →  rename to ckpt-<gen>.spc
//   write MANIFEST.tmp        →  fsync  →  rename to MANIFEST
//   fsync the directory       →  garbage-collect
//
// The MANIFEST names the current checkpoint generation and the WAL
// segment replay starts from, and retains the previous checkpoint as a
// fallback: recovery that finds the newest checkpoint unreadable
// (kDataLoss) can fall back one generation and replay further back in
// the WAL. Garbage collection therefore keeps the current and previous
// checkpoints, every WAL segment the *previous* one still needs, and
// deletes orphaned .tmp files from interrupted publishes. A crash at any
// step leaves either the old MANIFEST (pointing at intact old state) or
// the new one (pointing at the fully-synced new checkpoint) — never a
// manifest that names missing or partial files.

#ifndef DSPC_PERSIST_CHECKPOINTER_H_
#define DSPC_PERSIST_CHECKPOINTER_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "dspc/common/status.h"
#include "dspc/core/flat_spc_index.h"
#include "dspc/graph/graph.h"
#include "dspc/persist/env.h"

namespace dspc {

inline constexpr uint32_t kCheckpointMagic = 0x504B4344;  // "DCKP"
inline constexpr uint32_t kCheckpointVersion = 2;
inline constexpr uint32_t kManifestMagic = 0x4E414D44;  // "DMAN"
inline constexpr uint32_t kManifestVersion = 1;

/// File name of the checkpoint at `generation` within the durability
/// directory.
std::string CheckpointFileName(uint64_t generation);

/// Parses "ckpt-<generation>.spc"; returns false for any other name.
bool ParseCheckpointFileName(const std::string& name, uint64_t* generation);

/// Coordinates of one checkpoint — which file, and where its WAL replay
/// starts. Used to tell Publish which previous checkpoint to retain.
struct CheckpointRef {
  uint64_t generation = 0;
  uint64_t wal_seq = 0;
};

/// The durability directory's root pointer file.
inline const char* ManifestFileName() { return "MANIFEST"; }

/// Decoded MANIFEST: which checkpoint is current, where replay starts,
/// and the retained fallback.
struct CheckpointManifest {
  /// Engine generation the current checkpoint captures.
  uint64_t generation = 0;
  /// First WAL segment NOT covered by the checkpoint — replay starts
  /// here. Its base_generation equals `generation`.
  uint64_t wal_seq = 0;
  /// Layout stamp of the checkpointed snapshot (diagnostic).
  uint64_t layout_stamp = 0;

  bool has_previous = false;
  uint64_t prev_generation = 0;
  uint64_t prev_wal_seq = 0;
};

/// A checkpoint loaded back from disk. `index` views the checkpoint's
/// bytes in place and keeps them alive itself.
struct LoadedCheckpoint {
  Graph graph;
  FlatSpcIndex index;
  uint64_t generation = 0;
  uint64_t layout_stamp = 0;
};

/// Writes/reads the MANIFEST (CRC32C-framed; write is atomic via .tmp +
/// rename but does NOT fsync the directory — Publish sequences that).
Status WriteManifest(FileSystem* fs, const std::string& dir,
                     const CheckpointManifest& manifest);
StatusOr<CheckpointManifest> ReadManifest(FileSystem* fs,
                                          const std::string& dir);

/// Reads and verifies the checkpoint at `generation`. kDataLoss on any
/// checksum or structural failure — the caller's cue to fall back.
Status LoadCheckpoint(FileSystem* fs, const std::string& dir,
                      uint64_t generation, LoadedCheckpoint* out);

/// Verifies and parses raw checkpoint-file bytes (CRC32C trailer
/// included) that arrived from somewhere other than the durability
/// directory — a replica bootstrapping from a shipped image (DESIGN.md
/// §13). Same validation as LoadCheckpoint; `context` names the source
/// in error messages. kDataLoss on any checksum or structural failure —
/// for a replica that means "re-fetch", since a transport fault and real
/// corruption look identical from the receiving end.
Status ParseCheckpointBytes(std::vector<uint8_t> bytes,
                            uint64_t expected_generation,
                            const std::string& context,
                            LoadedCheckpoint* out);

/// Owns the publish + retention protocol for one durability directory.
class Checkpointer {
 public:
  Checkpointer(FileSystem* fs, std::string dir)
      : fs_(fs), dir_(std::move(dir)) {}

  /// Atomically publishes a checkpoint of (`graph`, `index`) captured at
  /// `generation`, pointing replay at WAL segment `wal_seq`, then
  /// garbage-collects. The retained fallback is `validated_prev` when
  /// given — the checkpoint the caller KNOWS is loadable (recovery just
  /// loaded it); pass it at open time, where the on-disk MANIFEST may
  /// still name the corrupt checkpoint recovery fell back FROM, which
  /// must not be retained in place of the good one. With nullptr the
  /// fallback is the MANIFEST's current checkpoint — correct for
  /// rotation-time publishes, whose predecessor this process published
  /// itself. The caller guarantees graph/index are a consistent pair at
  /// `generation` (the service captures them under FreezeWrites) and
  /// that segment `wal_seq` already exists (rotation happens first).
  Status Publish(const Graph& graph, const FlatSpcIndex& index,
                 uint64_t generation, uint64_t wal_seq,
                 const CheckpointRef* validated_prev = nullptr);

  /// Deletes everything the current MANIFEST no longer needs: checkpoint
  /// files other than current/previous, WAL segments below the oldest
  /// still-needed replay point, and orphaned .tmp files — EXCEPT state a
  /// registered consumer still pins (below). Missing MANIFEST is a
  /// no-op. Best-effort: stops at the first error.
  Status GarbageCollect();

  // --- retention consumers (DESIGN.md §13) --------------------------------
  //
  // A consumer is anything still reading the directory's history behind
  // the manifest's back — a WAL shipper mid-tail, a replica feed. Its
  // CheckpointRef pins the GC horizon: segment wal_seq and later are
  // kept (0 = pin everything), and the checkpoint at `generation` is
  // kept (generation 0 = no checkpoint pinned). Without registration GC
  // keeps only current + previous and drops covered segments
  // unconditionally — exactly what a tailing reader cannot survive.
  // Thread-safe against Publish/GarbageCollect (consumers update from
  // the shipper thread while the service checkpoints).

  /// Registers a consumer needing `pins`; returns its handle.
  uint64_t RegisterConsumer(const CheckpointRef& pins);

  /// Moves `handle`'s pin forward (or backward; GC simply honors it).
  void UpdateConsumer(uint64_t handle, const CheckpointRef& pins);

  /// Drops the pin. Unknown handles are ignored.
  void UnregisterConsumer(uint64_t handle);

  const std::string& dir() const { return dir_; }

 private:
  FileSystem* const fs_;
  const std::string dir_;

  mutable std::mutex consumers_mu_;
  uint64_t next_consumer_handle_ = 0;          ///< under consumers_mu_
  std::unordered_map<uint64_t, CheckpointRef> consumers_;  ///< under consumers_mu_
};

}  // namespace dspc

#endif  // DSPC_PERSIST_CHECKPOINTER_H_
