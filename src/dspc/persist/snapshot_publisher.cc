#include "dspc/persist/snapshot_publisher.h"

#include <signal.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <set>
#include <utility>

#include "dspc/common/binary_io.h"
#include "dspc/persist/framed_file.h"
#include "dspc/persist/snapshot_arena.h"

namespace dspc {

namespace {

constexpr char kPubStateName[] = "PUBSTATE";
constexpr char kSnapPrefix[] = "snap-";
constexpr char kSnapSuffix[] = ".arena";
constexpr char kPinPrefix[] = "pin-";
constexpr uint32_t kPubStateMagic = 0x44535053;  // "DSPS"
constexpr uint32_t kPinMagic = 0x44535070;       // "DSPp"
constexpr uint32_t kPubStateVersion = 2;  // 2 dropped the arena file name
constexpr uint32_t kPinVersion = 1;

std::string Join(const std::string& dir, const std::string& name) {
  return dir + "/" + name;
}

bool ValidPinOwner(const std::string& owner) {
  if (owner.empty()) return false;
  for (const char c : owner) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

bool DefaultPidAlive(uint64_t pid) {
  if (pid == 0 || pid > static_cast<uint64_t>(INT32_MAX)) return false;
  // EPERM means "exists but not ours" — still alive.
  return ::kill(static_cast<pid_t>(pid), 0) == 0 || errno == EPERM;
}

}  // namespace

std::string SnapshotArenaFileName(uint64_t generation) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%s%020" PRIu64 "%s", kSnapPrefix,
                generation, kSnapSuffix);
  return buf;
}

StatusOr<PubState> ReadPubState(FileSystem* fs, const std::string& dir) {
  const std::string path = Join(dir, kPubStateName);
  if (!fs->FileExists(path)) {
    return Status::NotFound("no PUBSTATE in " + dir +
                            " (nothing published yet)");
  }
  BinaryReader r(std::vector<uint8_t>{});
  if (Status st = ReadFramedFile(fs, path, &r); !st.ok()) return st;
  if (r.GetU32() != kPubStateMagic || r.GetU32() != kPubStateVersion) {
    return Status::DataLoss("bad PUBSTATE header in " + dir);
  }
  PubState state;
  state.generation = r.GetU64();
  state.wal_seq = r.GetU64();
  if (!r.status().ok() || !r.AtEnd()) {
    return Status::DataLoss("malformed PUBSTATE in " + dir);
  }
  return state;
}

Status WriteSnapshotPin(FileSystem* fs, const std::string& dir,
                        const std::string& owner, uint64_t generation,
                        uint64_t pid) {
  if (!ValidPinOwner(owner)) {
    return Status::InvalidArgument("bad pin owner '" + owner + "'");
  }
  BinaryWriter w;
  w.PutU32(kPinMagic);
  w.PutU32(kPinVersion);
  w.PutU64(generation);
  w.PutU64(pid);
  return WriteFramedFileAtomic(fs, dir, kPinPrefix + owner, w.buffer());
}

Status RemoveSnapshotPin(FileSystem* fs, const std::string& dir,
                         const std::string& owner) {
  if (!ValidPinOwner(owner)) {
    return Status::InvalidArgument("bad pin owner '" + owner + "'");
  }
  const std::string path = Join(dir, kPinPrefix + owner);
  if (!fs->FileExists(path)) return Status::OK();
  return fs->RemoveFile(path);
}

SnapshotPublisher::SnapshotPublisher(std::string dir,
                                     SnapshotPublisherOptions options)
    : fs_(options.fs != nullptr ? options.fs : FileSystem::Default()),
      dir_(std::move(dir)),
      options_(std::move(options)) {}

StatusOr<std::unique_ptr<SnapshotPublisher>> SnapshotPublisher::Open(
    const std::string& dir, SnapshotPublisherOptions options) {
  if (options.retain == 0) {
    return Status::InvalidArgument("SnapshotPublisherOptions::retain must be >= 1");
  }
  auto pub = std::unique_ptr<SnapshotPublisher>(
      new SnapshotPublisher(dir, std::move(options)));
  if (Status st = pub->fs_->CreateDir(dir); !st.ok()) return st;

  // Crashed-writer cleanup: a tmp file is by definition unpublished.
  auto names = pub->fs_->ListDir(dir);
  if (!names.ok()) return names.status();
  for (const std::string& name : *names) {
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0) {
      if (Status st = pub->fs_->RemoveFile(Join(dir, name)); !st.ok()) {
        return st;
      }
    }
  }

  // A previous writer's PUBSTATE is the monotonicity floor: this writer
  // may republish that exact generation (crash recovery) or move past
  // it, never behind it.
  auto state = ReadPubState(pub->fs_, dir);
  if (state.ok()) {
    pub->generation_ = state->generation;
    pub->wal_seq_ = state->wal_seq;
    pub->published_ = true;
  } else if (!state.status().IsNotFound()) {
    return state.status();
  }
  return pub;
}

Status SnapshotPublisher::Publish(const FlatSpcIndex& index,
                                  uint64_t generation, uint64_t wal_seq) {
  if (published_ && generation < generation_) {
    return Status::InvalidArgument(
        "publish would move the shared generation backwards (current " +
        std::to_string(generation_) + ", requested " +
        std::to_string(generation) + ")");
  }
  const std::string name = SnapshotArenaFileName(generation);
  const std::string tmp = Join(dir_, name + ".tmp");
  if (Status st = WriteSnapshotArena(fs_, tmp, index, /*edges=*/{},
                                     generation, wal_seq);
      !st.ok()) {
    return st;
  }
  // Rename over an existing same-generation arena (republish after
  // recovery) atomically replaces the name; a reader that already mapped
  // the old inode keeps serving it — identical label content, since both
  // images were built at the same exact generation.
  if (Status st = fs_->RenameFile(tmp, Join(dir_, name)); !st.ok()) return st;

  BinaryWriter w;
  w.PutU32(kPubStateMagic);
  w.PutU32(kPubStateVersion);
  w.PutU64(generation);
  w.PutU64(wal_seq);
  if (Status st = WriteFramedFileAtomic(fs_, dir_, kPubStateName, w.buffer());
      !st.ok()) {
    return st;
  }
  // One directory fsync covers both renames; only after it is the new
  // generation the durable truth, so only now may GC unlink old state.
  if (Status st = fs_->SyncDir(dir_); !st.ok()) return st;
  generation_ = generation;
  wal_seq_ = wal_seq;
  published_ = true;
  return GarbageCollect();
}

Status SnapshotPublisher::GarbageCollect() {
  auto names = fs_->ListDir(dir_);
  if (!names.ok()) return names.status();

  // Pass 1: sweep dead readers' pins, collect live pinned generations.
  std::set<uint64_t> pinned;
  std::vector<uint64_t> generations;
  const size_t pin_prefix = sizeof(kPinPrefix) - 1;
  for (const std::string& name : *names) {
    uint64_t gen = 0;
    if (ParseNumberedFileName(name, kSnapPrefix, kSnapSuffix, &gen)) {
      generations.push_back(gen);
      continue;
    }
    if (name.compare(0, pin_prefix, kPinPrefix) != 0) continue;
    BinaryReader r(std::vector<uint8_t>{});
    uint64_t pin_gen = 0;
    uint64_t pid = 0;
    bool valid = ReadFramedFile(fs_, Join(dir_, name), &r).ok() &&
                 r.GetU32() == kPinMagic && r.GetU32() == kPinVersion;
    if (valid) {
      pin_gen = r.GetU64();
      pid = r.GetU64();
      valid = r.AtEnd();
    }
    // A pin we cannot parse gets the conservative treatment only if its
    // owner might be alive — and we cannot know, so unreadable pins are
    // dropped: they can only arise from a reader that died mid-rename
    // (renames are atomic; a torn pin means no pin).
    if (!valid) {
      if (Status st = fs_->RemoveFile(Join(dir_, name)); !st.ok()) return st;
      continue;
    }
    const bool alive = options_.pid_alive ? options_.pid_alive(pid)
                                          : DefaultPidAlive(pid);
    if (!alive) {
      if (Status st = fs_->RemoveFile(Join(dir_, name)); !st.ok()) return st;
      continue;
    }
    pinned.insert(pin_gen);
  }

  // Pass 2: retention. Keep the newest `retain` generations, the current
  // one, and everything pinned; unlink the rest. Arena files are only
  // ever unlinked — never truncated — so a reader still mapping a
  // reclaimed generation keeps its validated bytes.
  std::sort(generations.begin(), generations.end());
  const size_t keep_newest =
      std::min(options_.retain, generations.size());
  const uint64_t newest_floor =
      generations.empty() ? 0 : generations[generations.size() - keep_newest];
  for (const uint64_t gen : generations) {
    const bool keep = gen >= newest_floor ||
                      (published_ && gen == generation_) ||
                      pinned.count(gen) != 0;
    if (keep) continue;
    if (Status st = fs_->RemoveFile(Join(dir_, SnapshotArenaFileName(gen)));
        !st.ok()) {
      return st;
    }
  }
  return Status::OK();
}

}  // namespace dspc
