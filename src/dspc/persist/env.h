// FileSystem/WritableFile seam for the durability subsystem (DESIGN.md
// §11). Everything the WAL, checkpointer, and recovery path do to disk
// goes through this interface, for two reasons:
//
//   - crash testing: FaultInjectingEnv swaps in under the same code and
//     fails (or short-writes) the Nth mutating operation, turning "what
//     if the machine dies between rename and dir-fsync" from a thought
//     experiment into a deterministic unit test (tests/recovery_test.cc
//     enumerates every operation index of a workload);
//   - honest durability: the posix implementation channels writes
//     through unbuffered file descriptors and fsyncs both file data and
//     the containing directory, which stdio cannot express.
//
// The seam is deliberately narrow — append-only writes, whole-file
// reads, rename, truncate, directory listing — because that is the
// complete vocabulary of a WAL + checkpoint store. There is no seek, no
// random-access write, no permission surface.

#ifndef DSPC_PERSIST_ENV_H_
#define DSPC_PERSIST_ENV_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "dspc/common/status.h"

namespace dspc {

/// An append-only output file. Append buffers or writes; Sync makes
/// every appended byte durable; Close flushes and releases the handle
/// (idempotent). Not thread-safe per file except that one thread may
/// Append while another Syncs — the WAL's group-commit flusher relies on
/// exactly that pairing.
class WritableFile {
 public:
  virtual ~WritableFile() = default;
  virtual Status Append(const void* data, size_t n) = 0;
  virtual Status Sync() = 0;
  virtual Status Close() = 0;
};

/// A read-only byte region backed either by a real mmap (the posix
/// implementation) or by an owned buffer (the generic fallback any
/// FileSystem gets for free). Destroying the region unmaps/frees the
/// bytes, so holders keep it alive via shared_ptr for as long as any
/// view into it may be dereferenced — the mmap serving tier threads this
/// handle through FlatSpcIndex shards so in-flight queries finish on the
/// old mapping after a newer generation is adopted. Immutable after
/// construction; safe to read from any number of threads.
class MappedRegion {
 public:
  virtual ~MappedRegion() = default;
  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }

 protected:
  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
};

/// The filesystem operations the persistence layer needs. All paths are
/// plain strings (absolute or cwd-relative); implementations are
/// thread-safe. `Default()` returns the process-wide posix instance.
class FileSystem {
 public:
  virtual ~FileSystem() = default;

  /// Maps `path` read-only. The base implementation reads the whole file
  /// into an owned buffer (correct for any FileSystem, including test
  /// envs); the posix implementation overrides with a real MAP_SHARED
  /// mmap so N processes mapping the same snapshot share page-cache
  /// pages. The region's length is the file's length at map time —
  /// callers validate internal structure before trusting any byte.
  /// Concurrent unlink of a mapped file is harmless on posix (the inode
  /// survives until the last mapping drops); published snapshot files
  /// are never truncated or rewritten in place, which is what makes
  /// mapped reads SIGBUS-free by design.
  virtual StatusOr<std::shared_ptr<const MappedRegion>> MapReadOnly(
      const std::string& path);

  /// Creates (truncating any existing file at) `path` for appending.
  virtual StatusOr<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) = 0;

  /// Reads the whole file into `out` (replacing its contents).
  virtual Status ReadFile(const std::string& path,
                          std::vector<uint8_t>* out) = 0;

  /// Atomically renames `from` to `to` (same directory in all our uses).
  virtual Status RenameFile(const std::string& from,
                            const std::string& to) = 0;

  /// Fsyncs the directory itself, making renames/creates in it durable.
  virtual Status SyncDir(const std::string& dir) = 0;

  /// Creates `dir` (single level); OK if it already exists.
  virtual Status CreateDir(const std::string& dir) = 0;

  /// Names (not paths) of regular files in `dir`, unsorted.
  virtual StatusOr<std::vector<std::string>> ListDir(
      const std::string& dir) = 0;

  virtual Status RemoveFile(const std::string& path) = 0;

  /// Truncates `path` to `size` bytes (the torn-tail repair primitive).
  virtual Status TruncateFile(const std::string& path, uint64_t size) = 0;

  virtual StatusOr<uint64_t> FileSize(const std::string& path) = 0;

  virtual bool FileExists(const std::string& path) = 0;

  /// The process-wide posix filesystem (never null, never destroyed).
  static FileSystem* Default();
};

/// Parses a numbered file name "<prefix><digits><suffix>" (a checkpoint,
/// WAL segment, snapshot arena or shipped file) into `*value`. False for
/// any other name: a missing affix, an empty or non-digit run, or a
/// number past UINT64_MAX, which would otherwise wrap to a smaller one.
bool ParseNumberedFileName(const std::string& name, const std::string& prefix,
                           const std::string& suffix, uint64_t* value);

/// Crash-simulation test double (the deterministic hook behind the
/// crash-matrix suite). Wraps a base filesystem with two behaviors:
///
///   1. Unsynced data really is volatile. Appends buffer in memory and
///      reach the base filesystem only on Sync/Close — so when the
///      simulated crash hits, whatever was never synced is gone, exactly
///      like page-cache contents at power loss. (A clean Close flushes,
///      matching a process exit without a crash.)
///   2. Arm(k) plants the crash: the k-th mutating operation (Append,
///      Sync, Rename, SyncDir, Truncate, Remove, Close — counted across
///      all files, in issue order) is NOT performed and returns
///      kIOError, and every subsequent mutating operation fails the same
///      way without touching disk. With `short_write`, the tripping
///      operation first leaks HALF of the affected file's unsynced bytes
///      to the base filesystem — a torn tail, the partially-flushed page
///      at power loss.
///
/// Count a workload's operations once with an unarmed env
/// (OperationCount()), then re-run it once per index: that enumerates
/// every distinct crash instant of the workload. Reads pass through
/// (and, by design, do not see unsynced buffered data — only recovery
/// reads these files, and recovery runs post-crash).
class FaultInjectingEnv : public FileSystem {
 public:
  explicit FaultInjectingEnv(FileSystem* base) : base_(base) {}

  /// Plants the crash at mutating operation `index` (0-based, counted
  /// from construction or the last Disarm).
  void Arm(uint64_t index, bool short_write = false);

  /// Clears any armed or tripped fault and resets the operation counter.
  void Disarm();

  /// Mutating operations issued so far (armed or not).
  uint64_t OperationCount() const;

  /// True once the armed fault has fired (the env is now "dead": every
  /// mutating operation fails without touching disk).
  bool Tripped() const;

  StatusOr<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) override;
  Status ReadFile(const std::string& path, std::vector<uint8_t>* out) override;
  Status RenameFile(const std::string& from, const std::string& to) override;
  Status SyncDir(const std::string& dir) override;
  Status CreateDir(const std::string& dir) override;
  StatusOr<std::vector<std::string>> ListDir(const std::string& dir) override;
  Status RemoveFile(const std::string& path) override;
  Status TruncateFile(const std::string& path, uint64_t size) override;
  StatusOr<uint64_t> FileSize(const std::string& path) override;
  bool FileExists(const std::string& path) override;

 private:
  friend class FaultWritableFile;

  /// Charges one mutating operation against the armed fault. Returns OK
  /// when the operation should proceed; kIOError when it must fail (the
  /// fault fired now or earlier). Sets *leak_half on the exact tripping
  /// operation when short-write mode is armed.
  Status Charge(bool* leak_half);

  FileSystem* const base_;
  mutable std::mutex mu_;
  uint64_t ops_ = 0;
  uint64_t arm_at_ = 0;
  bool armed_ = false;
  bool short_write_ = false;
  bool tripped_ = false;
};

}  // namespace dspc

#endif  // DSPC_PERSIST_ENV_H_
