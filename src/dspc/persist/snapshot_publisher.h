// SnapshotPublisher: the writer side of the multi-process serving tier
// (DESIGN.md §14).
//
// One writer process — a normal (usually durable) SpcService — makes its
// snapshots visible to N stateless reader processes through a shared
// directory:
//
//   snap-<generation>.arena   Immutable mmap-servable snapshot files
//                             (persist/snapshot_arena.h), written tmp →
//                             fsync → rename, never modified afterwards
//                             (only unlinked — the property that keeps
//                             readers' validated mappings SIGBUS-free).
//   PUBSTATE                  The CRC-framed current-generation manifest:
//                             generation and the WAL sequence the writer
//                             had durably synced when the snapshot was
//                             taken; the arena file name derives from the
//                             generation (SnapshotArenaFileName). Replaced
//                             atomically by rename; readers poll it to
//                             discover new generations and to compute
//                             honest staleness.
//   pin-<owner>               Reader retention pins. A reader serving
//                             generation G keeps a pin file naming G; GC
//                             never unlinks a pinned generation, so a
//                             slow or paused reader can keep serving (and
//                             re-map after a restart) long after newer
//                             generations shipped. Pins of dead processes
//                             are swept by a pid-liveness probe.
//
// GC (run after every publish) retains: the current generation, the
// newest `retain` generations, and every generation named by a live pin.
// Everything else — older arenas and stray *.tmp files from a crashed
// writer — is unlinked. The reader-side adoption race (GC unlinking a
// generation between a reader reading PUBSTATE and writing its pin) is
// closed by the reader re-checking the arena file still exists after its
// pin lands, retrying against a fresh PUBSTATE if not; an unlinked file
// that was already mapped stays readable regardless.

#ifndef DSPC_PERSIST_SNAPSHOT_PUBLISHER_H_
#define DSPC_PERSIST_SNAPSHOT_PUBLISHER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dspc/common/status.h"
#include "dspc/core/flat_spc_index.h"
#include "dspc/persist/env.h"

namespace dspc {

/// Arena file name for a generation: zero-padded so lexicographic and
/// numeric order agree in directory listings.
std::string SnapshotArenaFileName(uint64_t generation);

/// The parsed PUBSTATE manifest. The current arena is
/// SnapshotArenaFileName(generation) within the publish directory.
struct PubState {
  uint64_t generation = 0;
  uint64_t wal_seq = 0;
};

/// Reads and verifies PUBSTATE from `dir`. kNotFound before the first
/// publish; kDataLoss on a checksum mismatch.
StatusOr<PubState> ReadPubState(FileSystem* fs, const std::string& dir);

/// Writes/replaces this reader's retention pin (atomic rename). `owner`
/// must be [A-Za-z0-9._-]+ and unique per reader process (readers default
/// to "pid<pid>"); `pid` feeds the publisher's stale-pin liveness sweep.
Status WriteSnapshotPin(FileSystem* fs, const std::string& dir,
                        const std::string& owner, uint64_t generation,
                        uint64_t pid);

/// Removes this reader's pin (clean shutdown). Missing pin is OK.
Status RemoveSnapshotPin(FileSystem* fs, const std::string& dir,
                         const std::string& owner);

struct SnapshotPublisherOptions {
  FileSystem* fs = nullptr;  ///< null = FileSystem::Default()

  /// Newest generations kept by GC even when unpinned. >= 1; the current
  /// generation is always kept.
  size_t retain = 2;

  /// Liveness probe for the stale-pin sweep: return false and the pin's
  /// generation loses its retention hold (the pin file is removed). The
  /// default probes the pid with kill(pid, 0). Tests substitute their
  /// own to simulate dead readers deterministically.
  std::function<bool(uint64_t pid)> pid_alive;
};

class SnapshotPublisher {
 public:
  /// Opens (creating if needed) the publish directory, removes stray
  /// *.tmp files from a crashed writer, and adopts the existing PUBSTATE
  /// generation as the monotonicity floor.
  static StatusOr<std::unique_ptr<SnapshotPublisher>> Open(
      const std::string& dir, SnapshotPublisherOptions options = {});

  /// Publishes `index` as `generation`: writes the arena (tmp → fsync →
  /// rename), replaces PUBSTATE, fsyncs the directory, then GCs. A
  /// republish of the current generation (writer crash recovery) is
  /// allowed and atomic; publishing below it is refused — readers must
  /// never observe the shared generation move backwards.
  Status Publish(const FlatSpcIndex& index, uint64_t generation,
                 uint64_t wal_seq);

  /// Unlinks unpinned arenas outside the retention window and sweeps
  /// pins of dead readers. Called by Publish; callable directly by tests
  /// and maintenance.
  Status GarbageCollect();

  /// Last published generation (0 before the first publish anywhere).
  uint64_t CurrentGeneration() const { return generation_; }

  /// WAL sequence stamped into the last published PUBSTATE.
  uint64_t CurrentWalSeq() const { return wal_seq_; }

  const std::string& dir() const { return dir_; }

 private:
  SnapshotPublisher(std::string dir, SnapshotPublisherOptions options);

  FileSystem* fs_;
  const std::string dir_;
  const SnapshotPublisherOptions options_;
  uint64_t generation_ = 0;
  uint64_t wal_seq_ = 0;
  bool published_ = false;  ///< a PUBSTATE exists (here or pre-existing)
};

}  // namespace dspc

#endif  // DSPC_PERSIST_SNAPSHOT_PUBLISHER_H_
