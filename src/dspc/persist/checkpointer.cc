#include "dspc/persist/checkpointer.h"

#include <algorithm>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "dspc/common/binary_io.h"
#include "dspc/persist/framed_file.h"
#include "dspc/persist/snapshot_arena.h"
#include "dspc/persist/wal.h"

namespace dspc {

namespace {

std::string Join(const std::string& dir, const std::string& name) {
  return dir + "/" + name;
}

/// Turns a validated image into the checkpoint at `generation`. Bad bytes
/// (the validator's kCorruption) and a generation the file name does not
/// promise are kDataLoss: the rename was atomic, so either means damage,
/// and the caller falls back or re-fetches.
Status AdoptCheckpoint(StatusOr<MappedArena> arena, uint64_t generation,
                       LoadedCheckpoint* out) {
  if (!arena.ok()) {
    if (!arena.status().IsCorruption()) return arena.status();
    return Status::DataLoss("checkpoint image invalid: " +
                            arena.status().message());
  }
  if (arena->generation() != generation) {
    return Status::DataLoss("checkpoint generation mismatch: want " +
                            std::to_string(generation) + ", image has " +
                            std::to_string(arena->generation()));
  }
  const std::span<const Edge> edges = arena->edges();
  LoadedCheckpoint ckpt;
  ckpt.index = *arena->snapshot();
  ckpt.graph = Graph(ckpt.index.NumVertices(),
                     std::vector<Edge>(edges.begin(), edges.end()));
  ckpt.generation = generation;
  *out = std::move(ckpt);
  return Status::OK();
}

}  // namespace

std::string CheckpointFileName(uint64_t generation) {
  return "ckpt-" + std::to_string(generation) + ".spc";
}

bool ParseCheckpointFileName(const std::string& name, uint64_t* generation) {
  return ParseNumberedFileName(name, "ckpt-", ".spc", generation);
}

Status WriteManifest(FileSystem* fs, const std::string& dir,
                     const CheckpointManifest& manifest) {
  BinaryWriter w;
  w.PutU32(kManifestMagic);
  w.PutU32(kManifestVersion);
  w.PutU64(manifest.generation);
  w.PutU64(manifest.wal_seq);
  w.PutU8(manifest.has_previous ? 1 : 0);
  w.PutU64(manifest.prev_generation);
  w.PutU64(manifest.prev_wal_seq);
  return WriteFramedFileAtomic(fs, dir, ManifestFileName(), w.buffer());
}

StatusOr<CheckpointManifest> ReadManifest(FileSystem* fs,
                                          const std::string& dir) {
  const std::string path = Join(dir, ManifestFileName());
  BinaryReader r(std::vector<uint8_t>{});
  if (Status st = ReadFramedFile(fs, path, &r); !st.ok()) return st;
  if (r.GetU32() != kManifestMagic) {
    return Status::DataLoss("manifest bad magic: " + path);
  }
  if (r.GetU32() != kManifestVersion) {
    return Status::DataLoss("manifest bad version: " + path);
  }
  CheckpointManifest m;
  m.generation = r.GetU64();
  m.wal_seq = r.GetU64();
  m.has_previous = r.GetU8() != 0;
  m.prev_generation = r.GetU64();
  m.prev_wal_seq = r.GetU64();
  if (!r.status().ok() || !r.AtEnd()) {
    return Status::DataLoss("manifest malformed: " + path);
  }
  return m;
}

Status LoadCheckpoint(FileSystem* fs, const std::string& dir,
                      uint64_t generation, LoadedCheckpoint* out) {
  return AdoptCheckpoint(
      MappedArena::Map(fs, Join(dir, CheckpointFileName(generation))),
      generation, out);
}

Status ParseCheckpointBytes(std::vector<uint8_t> bytes,
                            uint64_t expected_generation,
                            const std::string& context,
                            LoadedCheckpoint* out) {
  auto image = std::make_shared<const std::vector<uint8_t>>(std::move(bytes));
  return AdoptCheckpoint(
      MappedArena::FromBytes(image->data(), image->size(), image, context),
      expected_generation, out);
}

Status Checkpointer::Publish(const Graph& graph, const FlatSpcIndex& index,
                             uint64_t generation, uint64_t wal_seq,
                             const CheckpointRef* validated_prev) {
  CheckpointManifest manifest;
  manifest.generation = generation;
  manifest.wal_seq = wal_seq;
  if (validated_prev != nullptr) {
    // The caller vouches for this checkpoint (recovery loaded it). The
    // on-disk MANIFEST may still name the corrupt one recovery fell
    // back FROM — retaining that would hand GC the known-good fallback.
    manifest.has_previous = true;
    manifest.prev_generation = validated_prev->generation;
    manifest.prev_wal_seq = validated_prev->wal_seq;
  } else if (fs_->FileExists(Join(dir_, ManifestFileName()))) {
    auto prev = ReadManifest(fs_, dir_);
    // An unreadable old manifest forfeits the fallback but must not
    // block publishing a good new checkpoint over it.
    if (prev.ok()) {
      manifest.has_previous = true;
      manifest.prev_generation = prev->generation;
      manifest.prev_wal_seq = prev->wal_seq;
    }
  }

  const std::string name = CheckpointFileName(generation);
  const std::string tmp = Join(dir_, name + ".tmp");
  if (Status st = WriteSnapshotArena(fs_, tmp, index, graph.Edges(),
                                     generation, wal_seq);
      !st.ok()) {
    return st;
  }
  if (Status st = fs_->RenameFile(tmp, Join(dir_, name)); !st.ok()) return st;
  if (Status st = WriteManifest(fs_, dir_, manifest); !st.ok()) return st;
  // One directory fsync covers both renames; only now is the new
  // checkpoint the durable truth, so only now may GC delete old state.
  if (Status st = fs_->SyncDir(dir_); !st.ok()) return st;
  return GarbageCollect();
}

uint64_t Checkpointer::RegisterConsumer(const CheckpointRef& pins) {
  std::lock_guard<std::mutex> lock(consumers_mu_);
  const uint64_t handle = ++next_consumer_handle_;
  consumers_.emplace(handle, pins);
  return handle;
}

void Checkpointer::UpdateConsumer(uint64_t handle, const CheckpointRef& pins) {
  std::lock_guard<std::mutex> lock(consumers_mu_);
  auto it = consumers_.find(handle);
  if (it != consumers_.end()) it->second = pins;
}

void Checkpointer::UnregisterConsumer(uint64_t handle) {
  std::lock_guard<std::mutex> lock(consumers_mu_);
  consumers_.erase(handle);
}

Status Checkpointer::GarbageCollect() {
  if (!fs_->FileExists(Join(dir_, ManifestFileName()))) return Status::OK();
  auto manifest = ReadManifest(fs_, dir_);
  if (!manifest.ok()) return manifest.status();
  auto names = fs_->ListDir(dir_);
  if (!names.ok()) return names.status();
  uint64_t min_wal_seq =
      manifest->has_previous ? manifest->prev_wal_seq : manifest->wal_seq;
  // Consumer pins lower the segment horizon and spare pinned checkpoint
  // generations (a tailing shipper or replica feed still reads them).
  std::vector<uint64_t> pinned_checkpoints;
  {
    std::lock_guard<std::mutex> lock(consumers_mu_);
    for (const auto& [handle, pins] : consumers_) {
      (void)handle;
      min_wal_seq = std::min(min_wal_seq, pins.wal_seq);
      if (pins.generation != 0) pinned_checkpoints.push_back(pins.generation);
    }
  }
  bool removed = false;
  for (const std::string& name : *names) {
    bool drop = false;
    uint64_t value = 0;
    if (name.size() > 4 &&
        name.compare(name.size() - 4, 4, ".tmp") == 0) {
      drop = true;  // orphan of an interrupted publish
    } else if (ParseCheckpointFileName(name, &value)) {
      drop = value != manifest->generation &&
             !(manifest->has_previous && value == manifest->prev_generation) &&
             std::find(pinned_checkpoints.begin(), pinned_checkpoints.end(),
                       value) == pinned_checkpoints.end();
    } else if (ParseWalSegmentFileName(name, &value)) {
      drop = value < min_wal_seq;
    }
    if (!drop) continue;
    if (Status st = fs_->RemoveFile(Join(dir_, name)); !st.ok()) return st;
    removed = true;
  }
  if (removed) {
    if (Status st = fs_->SyncDir(dir_); !st.ok()) return st;
  }
  return Status::OK();
}

}  // namespace dspc
