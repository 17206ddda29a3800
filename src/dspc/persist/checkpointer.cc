#include "dspc/persist/checkpointer.h"

#include <algorithm>
#include <cstring>
#include <memory>
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

}  // namespace

std::string CheckpointFileName(uint64_t generation) {
  return "ckpt-" + std::to_string(generation) + ".spc";
}

bool ParseCheckpointFileName(const std::string& name, uint64_t* generation) {
  if (name.size() < 10 || name.compare(0, 5, "ckpt-") != 0 ||
      name.compare(name.size() - 4, 4, ".spc") != 0) {
    return false;
  }
  uint64_t value = 0;
  for (size_t i = 5; i < name.size() - 4; ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
    value = value * 10 + static_cast<uint64_t>(name[i] - '0');
  }
  *generation = value;
  return true;
}

Status WriteManifest(FileSystem* fs, const std::string& dir,
                     const CheckpointManifest& manifest) {
  BinaryWriter w;
  w.PutU32(kManifestMagic);
  w.PutU32(kManifestVersion);
  w.PutU64(manifest.generation);
  w.PutU64(manifest.wal_seq);
  w.PutU64(manifest.layout_stamp);
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
  m.layout_stamp = r.GetU64();
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
  const std::string path = Join(dir, CheckpointFileName(generation));
  std::vector<uint8_t> data;
  if (Status st = fs->ReadFile(path, &data); !st.ok()) return st;
  return ParseCheckpointBytes(std::move(data), generation, path, out);
}

Status ParseCheckpointBytes(std::vector<uint8_t> bytes,
                            uint64_t expected_generation,
                            const std::string& context,
                            LoadedCheckpoint* out) {
  const uint64_t generation = expected_generation;
  const std::string& path = context;
  if (Status st = UnframePayload(&bytes, path); !st.ok()) return st;
  BinaryReader r(std::move(bytes));
  if (r.GetU32() != kCheckpointMagic) {
    return Status::DataLoss("checkpoint bad magic: " + path);
  }
  if (r.GetU32() != kCheckpointVersion) {
    return Status::DataLoss("checkpoint bad version: " + path);
  }
  LoadedCheckpoint ckpt;
  ckpt.generation = r.GetU64();
  ckpt.layout_stamp = r.GetU64();
  if (ckpt.generation != generation) {
    return Status::DataLoss("checkpoint generation mismatch: " + path);
  }
  const uint64_t n = r.GetU64();
  const uint64_t m = r.GetU64();
  if (!r.status().ok()) {
    return Status::DataLoss("checkpoint graph header truncated: " + path);
  }
  if (n > (uint64_t{1} << 32) ||
      m > r.remaining() / (2 * sizeof(uint32_t))) {
    return Status::DataLoss("checkpoint graph counts out of range: " + path);
  }
  std::vector<Edge> edges;
  edges.reserve(m);
  for (uint64_t i = 0; i < m; ++i) {
    const Vertex u = r.GetU32();
    const Vertex v = r.GetU32();
    if (u >= n || v >= n) {
      return Status::DataLoss("checkpoint edge endpoint out of range: " + path);
    }
    edges.push_back(Edge{u, v});
  }
  ckpt.graph = Graph(static_cast<size_t>(n), edges);

  const uint64_t image_len = r.GetU64();
  if (!r.status().ok() || image_len != r.remaining()) {
    return Status::DataLoss("checkpoint image length mismatch: " + path);
  }
  // The arena image is the payload's tail, 48 + 8m bytes in (FromBytes
  // checks that this lands 8-byte aligned). The index views it in place:
  // the payload moves into the snapshot's backing.
  auto payload =
      std::make_shared<const std::vector<uint8_t>>(std::move(r).Release());
  const uint64_t image_at = payload->size() - image_len;
  auto arena = MappedArena::FromBytes(payload->data() + image_at, image_len,
                                      payload, path);
  if (!arena.ok()) {
    // The image passed the file CRC but fails arena validation: that is
    // corruption, not a torn write (the rename was atomic).
    return Status::DataLoss("checkpoint index image invalid: " + path +
                            ": " + arena.status().message());
  }
  if (arena->generation() != generation) {
    return Status::DataLoss("checkpoint image generation mismatch: " + path);
  }
  ckpt.index = *arena->snapshot();
  if (ckpt.index.NumVertices() != n) {
    return Status::DataLoss("checkpoint graph/index vertex mismatch: " + path);
  }
  *out = std::move(ckpt);
  return Status::OK();
}

Status Checkpointer::Publish(const Graph& graph, const FlatSpcIndex& index,
                             uint64_t generation, uint64_t wal_seq,
                             const CheckpointRef* validated_prev) {
  CheckpointManifest manifest;
  manifest.generation = generation;
  manifest.wal_seq = wal_seq;
  manifest.layout_stamp = index.LayoutStamp();
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

  BinaryWriter w;
  w.PutU32(kCheckpointMagic);
  w.PutU32(kCheckpointVersion);
  w.PutU64(generation);
  w.PutU64(index.LayoutStamp());
  const std::vector<Edge> edges = graph.Edges();
  w.PutU64(graph.NumVertices());
  w.PutU64(edges.size());
  for (const Edge& e : edges) {
    w.PutU32(e.u);
    w.PutU32(e.v);
  }
  // The arena image fills the payload's tail behind its length.
  std::vector<uint8_t>* payload = w.mutable_buffer();
  const size_t image_at = payload->size() + sizeof(uint64_t);
  w.PutU64(0);  // image length, patched once the image is encoded
  if (Status st = EncodeSnapshotArena(index, generation, wal_seq, payload);
      !st.ok()) {
    return st;
  }
  const uint64_t image_len = payload->size() - image_at;
  std::memcpy(payload->data() + image_at - sizeof(uint64_t), &image_len,
              sizeof(image_len));

  if (Status st = WriteFramedFileAtomic(fs_, dir_,
                                        CheckpointFileName(generation),
                                        w.buffer());
      !st.ok()) {
    return st;
  }
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
