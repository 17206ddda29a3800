// MappedReaderService: the reader side of the multi-process serving tier
// (DESIGN.md §14).
//
// A stateless read-only facade over a SnapshotPublisher directory: it
// maps the current snap-<generation>.arena with MappedArena (queries run
// as views straight over the mmap — zero per-query deserialization or
// label copying, page-cache bytes shared across every reader process)
// and adopts newer generations by *remapping*: Refresh() maps the new
// file, swaps the served snapshot pointer, and lets the old mapping die
// when the last in-flight query's shared_ptr drops — queries never
// block on adoption and never observe a torn switch.
//
// Retention protocol: the reader keeps a pin-<owner> file naming the
// generation it serves, so the writer's GC never unlinks an arena this
// reader may still need to re-map (restart, late adoption). During
// adoption the pin moves to the new generation *before* the map; the
// window where a GC could unlink the new arena between the reader's
// PUBSTATE read and its pin landing is closed by re-checking the file
// still exists after the pin is durable and retrying against a fresh
// PUBSTATE if not. In-flight queries on the old generation are safe
// regardless: a posix mapping survives unlink, and published arenas are
// never truncated in place.
//
// Consistency lattice: the one admission rule (DESIGN.md §9) with the
// publisher generation as the tip and no live index. kSnapshot does no
// I/O, so its staleness can understate between polls (the served
// generation is always exact); kBoundedStaleness re-reads PUBSTATE and
// gets one inline Refresh() before it refuses.
//
// Thread-safety: all methods may be called concurrently; Refresh() and
// the optional poll thread serialize among themselves and never block
// queries (the snapshot swap is a pointer move under a short lock).

#ifndef DSPC_API_MAPPED_READER_SERVICE_H_
#define DSPC_API_MAPPED_READER_SERVICE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>

#include "dspc/api/service_metrics.h"
#include "dspc/api/spc_service.h"
#include "dspc/common/status.h"
#include "dspc/common/types.h"
#include "dspc/core/flat_spc_index.h"
#include "dspc/persist/env.h"
#include "dspc/persist/snapshot_publisher.h"

namespace dspc {

struct MappedReaderOptions {
  FileSystem* fs = nullptr;  ///< null = FileSystem::Default()

  /// Retention-pin owner name ([A-Za-z0-9._-]+), unique per reader
  /// process. Empty = "pid<pid>". The pin is replaced on every adoption
  /// and removed at destruction.
  std::string pin_owner;

  /// Write retention pins (default). Off, the reader still serves
  /// correctly — already-mapped bytes survive unlink — but the writer's
  /// GC may reclaim its generation, costing it re-map-ability and
  /// forcing the next adoption to jump to a newer generation.
  bool write_pins = true;

  /// Poll PUBSTATE and adopt new generations on a background thread
  /// every `poll_interval`. Zero (default) = no thread; the owner calls
  /// Refresh() explicitly.
  std::chrono::milliseconds poll_interval{0};
};

class MappedReaderService {
 public:
  /// Opens the publish directory and adopts the current generation.
  /// kNotFound when nothing has been published yet (retry later);
  /// kCorruption/kDataLoss/kIOError propagate from the manifest and
  /// arena validation.
  static StatusOr<std::unique_ptr<MappedReaderService>> Open(
      const std::string& dir, MappedReaderOptions options = {});

  /// Stops the poll thread and removes this reader's retention pin.
  ~MappedReaderService();

  /// Polls PUBSTATE and adopts a newer generation if one is published
  /// (pin → map → swap). OK and a no-op when already current; kDataLoss,
  /// keeping the adopted generation, when the arena's stamped generation
  /// is not PUBSTATE's. Safe to call concurrently with queries and with
  /// itself.
  Status Refresh();

  /// SPC query against the mapped snapshot. Never blocks; see the file
  /// comment for the per-mode contract. QueryResponse::served_from is
  /// always kSnapshot.
  StatusOr<QueryResponse> Query(Vertex s, Vertex t,
                                const ReadOptions& options = {
                                    .consistency = Consistency::kSnapshot})
      const;

  /// Batched queries, all answered from one mapped generation.
  StatusOr<BatchQueryResponse> QueryBatch(
      std::span<const VertexPair> pairs,
      const ReadOptions& options = {.consistency = Consistency::kSnapshot})
      const;

  /// Generation of the mapped snapshot being served.
  uint64_t Generation() const;

  /// Publisher generation last observed (adoption, poll, or a bounded
  /// read's PUBSTATE check) — the staleness reference for kSnapshot.
  uint64_t PublisherGeneration() const {
    return publisher_generation_.load(std::memory_order_relaxed);
  }

  /// WAL sequence stamped into the adopted arena by the writer.
  uint64_t WalSeq() const;

  /// Vertex-id space of the mapped snapshot.
  size_t NumVertices() const;

  MetricsSnapshot Metrics() const { return metrics_.Snapshot(); }

  const std::string& dir() const { return dir_; }
  const std::string& pin_owner() const { return pin_owner_; }

 private:
  /// One adopted generation; queries copy the shared_ptr and serve off
  /// it, so a swap never tears an in-flight read and the mapping lives
  /// until the last reader of it finishes.
  struct Adopted {
    std::shared_ptr<const FlatSpcIndex> index;
    uint64_t generation = 0;
    uint64_t wal_seq = 0;
  };

  MappedReaderService(std::string dir, MappedReaderOptions options);

  std::shared_ptr<const Adopted> Current() const;

  /// Refresh body; const (with mutable adoption state) because a bounded
  /// read — itself const — may trigger an inline adoption attempt.
  Status RefreshNow() const;

  /// The adoption body (pin → exists-check → map → swap), serialized by
  /// refresh_mu_ (held by the caller). A no-op when PUBSTATE does not
  /// advance past the adopted generation.
  Status RefreshLocked() const;

  /// Asks AdmitRead about `*cur` (see the file comment); an inline
  /// Refresh() may update *cur. Records refusals.
  Status Admit(const ReadOptions& options,
               std::shared_ptr<const Adopted>* cur,
               ReadDecision* decision) const;

  void PollLoop();

  FileSystem* fs_;
  const std::string dir_;
  const MappedReaderOptions options_;
  std::string pin_owner_;

  mutable std::mutex mu_;  ///< guards current_ (pointer swap/copy only)
  mutable std::shared_ptr<const Adopted> current_;

  /// Serializes adoption I/O; never held by reads.
  mutable std::mutex refresh_mu_;
  mutable std::atomic<uint64_t> publisher_generation_{0};

  mutable ServiceMetrics metrics_;

  std::thread poll_thread_;
  std::mutex poll_mu_;
  std::condition_variable poll_cv_;
  bool stop_poll_ = false;  ///< under poll_mu_
};

}  // namespace dspc

#endif  // DSPC_API_MAPPED_READER_SERVICE_H_
