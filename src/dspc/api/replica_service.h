// ReplicaService: a hot-standby read replica fed by WAL shipping
// (DESIGN.md §13).
//
// The replica is the pull side of the replication seam: it bootstraps
// from the newest checkpoint a primary's WalShipper put in the Transport
// store, then tails the shipped WAL segments — parsing whole frames with
// ParseWalFrameWindow, pairing/chaining them through the same
// ReplayCursor recovery uses, and applying each committed op through
// ApplyReplayOp with the same byte-exact outcome cross-checks. The
// replica therefore holds, at every instant, a state the primary's
// recovery would reconstruct: generation-exact, never reflecting a write
// the primary has not durably acked.
//
// Honesty is the contract of the read surface: reads run the one
// admission rule (DESIGN.md §9) with the PRIMARY's durably-acked
// generation as the tip, so `staleness` — in responses and Metrics()
// alike — counts from the primary, and a bound the replica cannot prove
// is refused with kUnavailable instead of served.
//
// Robustness: every transport fault is retried with capped exponential
// backoff + jitter; falling behind the store's retention horizon (the
// primary retired a segment the replica still needed) triggers an
// automatic re-bootstrap from the newer checkpoint — invisible to
// readers except as a generation jump forward. Divergence (a replayed
// op whose outcome contradicts the journal — primary and replica built
// different states from the same bytes) is kDataLoss and STICKY: the
// replica fail-stops its tail and every subsequent read reports it,
// because serving from a state known to disagree with the primary is
// worse than serving nothing.
//
// Failover: Promote() stops tailing, drains every shipped byte until the
// applied generation equals the primary's last durably-acked generation,
// and opens a writable SpcService (OpenWithState) on a fresh durability
// directory at exactly that generation — no acked write lost, no
// unacked write invented.

#ifndef DSPC_API_REPLICA_SERVICE_H_
#define DSPC_API_REPLICA_SERVICE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "dspc/api/spc_service.h"
#include "dspc/common/status.h"
#include "dspc/common/types.h"
#include "dspc/persist/replication.h"

namespace dspc {

/// Configuration for ReplicaService::Open.
struct ReplicaOptions {
  /// The store the primary's WalShipper pushes into. Required; must
  /// outlive the replica.
  Transport* transport = nullptr;

  /// Engine options for the serving index rebuilt from shipped state.
  DynamicSpcOptions engine;

  /// Background tailer pacing: poll this often when caught up, back off
  /// (capped, jittered) on transport faults.
  std::chrono::microseconds poll_interval{2000};
  ReplicationBackoff::Options backoff;

  /// Start the background tailer inside Open. With false the replica
  /// only advances when Step() is called — the deterministic mode the
  /// fault-matrix tests drive.
  bool start_tailer = true;

  /// How long Open keeps retrying the initial bootstrap when the store
  /// is empty or faulting (kNoTimeout = forever). The common cause is
  /// benign — the primary's shipper simply has not published yet.
  std::chrono::nanoseconds bootstrap_timeout = kNoTimeout;
};

/// A read-only serving replica over a replication Transport. All methods
/// are thread-safe; reads serve concurrently with the background tailer.
class ReplicaService {
 public:
  /// Bootstraps from the newest shipped checkpoint (retrying with
  /// backoff until `bootstrap_timeout`) and, by default, starts tailing.
  /// kInvalidArgument for a missing transport; kDeadlineExceeded when
  /// nothing bootstrappable appeared in time.
  static StatusOr<std::unique_ptr<ReplicaService>> Open(
      const ReplicaOptions& options);

  /// Stops the tailer. The transport and any promoted service outlive
  /// the replica independently.
  ~ReplicaService();

  // --- reads (the SpcService read surface, replica-honest) ----------------

  StatusOr<QueryResponse> Query(Vertex s, Vertex t,
                                const ReadOptions& options = {}) const;
  StatusOr<BatchQueryResponse> QueryBatch(
      std::span<const VertexPair> pairs,
      const ReadOptions& options = {}) const;

  // --- tailing ------------------------------------------------------------

  /// One tailing pass: refresh ShipState, apply every complete shipped
  /// frame from the current position, advance across finished segments,
  /// re-bootstrap if the tail fell behind store retention. Single
  /// attempt, no sleeping — kUnavailable/kIOError are retryable and the
  /// background tailer backs off and re-enters; kDataLoss (divergence)
  /// is sticky. Safe to call concurrently with reads; serialized with
  /// other Step/Promote calls.
  Status Step();

  /// Starts/stops the background tailer (idempotent; Start is a no-op
  /// after Promote).
  void Start();
  void Stop();

  // --- observability ------------------------------------------------------

  /// Generation the replica has applied through. Lock-free.
  uint64_t AppliedGeneration() const {
    return applied_.load(std::memory_order_acquire);
  }

  /// The primary's durably-acked generation as of the last fetched
  /// ShipState (never below AppliedGeneration — applying proves acking).
  uint64_t PrimaryDurableGeneration() const;

  /// OK, or the sticky divergence error once the tail fail-stopped.
  Status Health() const;

  /// The inner engine's metrics plus this replica's replication
  /// counters, with `replica_applied_generation` / `replica_lag` gauges
  /// filled in. A re-bootstrap swaps the inner engine, so engine-side
  /// counters — reads and refusals included — restart from zero; the
  /// replication counters are cumulative.
  MetricsSnapshot Metrics() const;

  // --- failover -----------------------------------------------------------

  /// Promotes this replica to a writable durable primary: stops the
  /// tailer, drains the transport until the applied generation reaches
  /// the primary's last durably-acked generation (retrying faults with
  /// backoff, bounded by `drain_timeout`), and opens a fresh durable
  /// SpcService on `durability` at exactly that generation via
  /// OpenWithState. On success the replica itself is frozen (reads still
  /// serve its final state; Step/Start refuse) and the returned service
  /// is the new primary. kDataLoss if the drain surfaces divergence,
  /// kDeadlineExceeded if the store cannot be drained in time,
  /// kInvalidArgument on a second Promote.
  StatusOr<std::unique_ptr<SpcService>> Promote(
      const DurabilityOptions& durability,
      std::chrono::nanoseconds drain_timeout = kNoTimeout);

  bool Promoted() const;

 private:
  explicit ReplicaService(const ReplicaOptions& options);

  /// Fetches state + checkpoint and (re)builds the inner service from
  /// it; resets the tail cursor to the checkpoint's segment. Caller
  /// holds step_mu_.
  Status BootstrapLocked(const ShipState& state);

  /// Step() body. Caller holds step_mu_.
  Status StepLocked();

  /// Applies the parsed records of one fetched window. Caller holds
  /// step_mu_.
  Status ApplyWindowLocked(std::vector<WalRecord> records);

  std::shared_ptr<SpcService> Inner() const;
  void TailLoop();

  const ReplicaOptions options_;

  /// Serializes tailing (Step, bootstrap, Promote) — never held by
  /// reads.
  mutable std::mutex step_mu_;
  std::optional<ReplayCursor> cursor_;  ///< under step_mu_
  uint64_t tail_seq_ = 0;               ///< segment being tailed
  uint64_t tail_offset_ = 0;            ///< file bytes of it consumed
  bool last_failed_ = false;  ///< previous Step failed (reconnect count)
  bool promoted_ = false;     ///< under step_mu_

  /// Sticky divergence latch, on its own tiny lock so a read's health
  /// check never waits behind a tailing pass holding step_mu_.
  mutable std::mutex health_mu_;
  Status health_;  ///< under health_mu_; set once, before failed_
  std::atomic<bool> failed_{false};

  /// The serving engine rebuilt from shipped state. shared_ptr so reads
  /// pin the current engine without blocking a concurrent re-bootstrap
  /// swap. Guarded by inner_mu_ for the pointer itself.
  mutable std::mutex inner_mu_;
  std::shared_ptr<SpcService> inner_;

  std::atomic<uint64_t> applied_{0};
  std::atomic<uint64_t> primary_durable_{0};

  /// Replica-side replication counters (ops applied, reconnects,
  /// backoffs, re-bootstraps, failovers); merged into Metrics(). Reads
  /// and their refusals are counted by the inner service.
  mutable ServiceMetrics metrics_;

  // Background tailer.
  std::mutex tail_mu_;
  std::condition_variable tail_cv_;
  bool stop_tail_ = false;
  std::thread tail_;
};

}  // namespace dspc

#endif  // DSPC_API_REPLICA_SERVICE_H_
