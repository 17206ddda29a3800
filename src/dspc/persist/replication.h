// WAL-shipping replication (DESIGN.md §13): stream a durable primary's
// checkpoint images and WAL segments to hot-standby replicas.
//
// The design reuses the durability formats wholesale — a shipped
// checkpoint is the raw ckpt-<gen>.spc bytes, a snapshot arena image the
// shipper sends from a read-only mapping and the replica validates and
// adopts in place (MappedArena::FromBytes over the fetched buffer); a
// shipped segment is the raw wal-<seq>.log bytes — so the replica
// replays exactly what recovery would replay after a crash, through the
// same ReplayCursor, with the same outcome cross-checks. Three pieces:
//
//   ReplayCursor   the intent/commit pairing + generation-chaining state
//                  machine factored out of PlanRecovery so recovery (all
//                  records up front) and a replica tailer (records
//                  trickling in over a transport) share one code path —
//                  and therefore one definition of divergence
//                  (kDataLoss).
//   Transport      the wire seam: a tiny artifact store the primary
//                  pushes into (PutCheckpoint / AppendSegment /
//                  PublishState / Retire) and replicas pull from
//                  (FetchState / FetchCheckpoint / FetchSegment).
//                  InProcessTransport backs it with memory,
//                  DirectoryTransport with a shared directory through
//                  the FileSystem seam, and FaultInjectingTransport
//                  wraps either to drop, duplicate, truncate, delay, or
//                  disconnect the Nth operation — the replication
//                  analogue of FaultInjectingEnv.
//   WalShipper     the primary-side pump: reads the durability
//                  directory (MANIFEST → newest checkpoint → segment
//                  tails, only ever whole synced frames, via
//                  ReadWalSegment's live-tail mode), pushes increments
//                  through the transport, publishes the durably-acked
//                  generation, registers as a Checkpointer retention
//                  consumer so GC never deletes a segment it still
//                  tails, and retries with capped exponential backoff +
//                  jitter when the transport misbehaves.
//
// Shipping is pull-model at the replica and push-model at the primary,
// meeting in the transport store; ReplicaService (api/replica_service.h)
// is the replica-side consumer that turns the shipped stream back into
// a serving engine.

#ifndef DSPC_PERSIST_REPLICATION_H_
#define DSPC_PERSIST_REPLICATION_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dspc/common/status.h"
#include "dspc/persist/checkpointer.h"
#include "dspc/persist/env.h"
#include "dspc/persist/recovery.h"
#include "dspc/persist/wal.h"

namespace dspc {

// --- replay cursor ---------------------------------------------------------

/// The committed-operation state machine shared by crash recovery and
/// replica tailing: feed WAL records in log order, get back committed
/// ReplayOps in commit order. One pairing rule covers every write: an
/// intent (kBatch or kAddVertex) is emitted when the kCommit of its seq
/// arrives, and its base generation must continue the chain. Damage
/// semantics are exactly PlanRecovery's
/// semantics — duplicate intent seqs, commits without intents, outcome
/// count mismatches, chain breaks, and non-monotonic commits are all
/// kDataLoss. Ops already covered by the start generation are counted as
/// skipped instead of emitted; trailing unpaired intents simply stay
/// pending (never acknowledged — dropped if the stream ends).
class ReplayCursor {
 public:
  /// `start_generation` is the generation of the state the ops apply on
  /// top of (the checkpoint's, for both recovery and a bootstrapping
  /// replica).
  explicit ReplayCursor(uint64_t start_generation)
      : start_generation_(start_generation), generation_(start_generation) {}

  /// Feeds one record; appends any newly-committed ops to `out`.
  Status Feed(WalRecord rec, std::vector<ReplayOp>* out);

  /// Generation after every emitted op (== start until the first).
  uint64_t generation() const { return generation_; }

  /// Committed ops the start generation already covered.
  uint64_t skipped() const { return skipped_; }

  /// Intents whose commit has not arrived (yet).
  size_t pending_intents() const { return pending_.size(); }

 private:
  /// Filter + chain-check + emit one committed op (recovery.cc's second
  /// loop, applied at commit time — equivalent because commits surface
  /// in log order).
  Status Emit(ReplayOp op, std::vector<ReplayOp>* out);

  const uint64_t start_generation_;
  uint64_t generation_;
  uint64_t skipped_ = 0;
  std::unordered_map<uint64_t, WalRecord> pending_;
};

/// Parses complete record frames from a byte window of a segment body.
/// The window must start on a frame boundary (strictly after the segment
/// header); parsing stops at the first incomplete frame — a tailing
/// consumer re-fetches from `window_start + consumed` — or at a complete
/// frame whose payload CRC mismatches (also "stop and re-fetch": over a
/// faulty transport a mangled window and mid-stream corruption are
/// indistinguishable, and an honest re-fetch resolves the former).
/// Returns the bytes consumed (always whole frames). kDataLoss only when
/// a CRC-valid payload fails structural decode — that can never be a
/// transport artifact.
StatusOr<uint64_t> ParseWalFrameWindow(std::span<const uint8_t> window,
                                       std::vector<WalRecord>* out);

// --- transport seam --------------------------------------------------------

/// What the primary has shipped so far — the replica's one-stop view.
/// Published (atomically, last) after every shipping pass that moved
/// anything, so everything it names is already fetchable.
struct ShipState {
  /// Newest shipped checkpoint and the segment its replay starts from.
  uint64_t checkpoint_generation = 0;
  uint64_t checkpoint_wal_seq = 0;
  /// Retained shipped segments span [min_wal_seq, max_wal_seq]. A
  /// replica tailing below min_wal_seq fell behind retention and must
  /// re-bootstrap from the checkpoint. max_wal_seq == 0 means no segment
  /// bytes shipped yet.
  uint64_t min_wal_seq = 0;
  uint64_t max_wal_seq = 0;
  /// The primary's durably-acked generation as covered by shipped bytes:
  /// every commit at or below it is synced on the primary AND present in
  /// the store. This is the generation kBoundedStaleness on a replica is
  /// enforced against, and the generation Promote() drains to.
  uint64_t durable_generation = 0;
};

/// Serialization for DirectoryTransport's STATE file (CRC32C-framed).
std::vector<uint8_t> EncodeShipState(const ShipState& state);
Status DecodeShipState(std::span<const uint8_t> bytes, ShipState* out);

/// The wire seam between one primary and its replicas: an artifact store
/// with an append-only contract for segments. All calls are thread-safe;
/// any call may fail transiently (kUnavailable) — both sides retry with
/// backoff. AppendSegment is idempotent by construction: `offset` must
/// be at most the stored size, overlapping bytes are assumed identical
/// (re-sends after a fault), and only the remainder appends; an offset
/// beyond the stored size is kUnavailable (a gap — the shipper resyncs
/// via SegmentSize).
class Transport {
 public:
  virtual ~Transport() = default;

  // Primary side.
  virtual Status PutCheckpoint(uint64_t generation,
                               std::span<const uint8_t> bytes) = 0;
  virtual Status AppendSegment(uint64_t seq, uint64_t offset,
                               std::span<const uint8_t> bytes) = 0;
  /// Stored byte count of segment `seq` (0 when absent) — the shipper's
  /// resync point after a reconnect.
  virtual StatusOr<uint64_t> SegmentSize(uint64_t seq) = 0;
  virtual Status PublishState(const ShipState& state) = 0;
  /// Drops checkpoints below `min_checkpoint_generation` and segments
  /// below `min_wal_seq` — the store-side retention horizon. A replica
  /// that still needed them re-bootstraps from the newer checkpoint.
  virtual Status Retire(uint64_t min_checkpoint_generation,
                        uint64_t min_wal_seq) = 0;

  // Replica side.
  /// kUnavailable until the first PublishState.
  virtual StatusOr<ShipState> FetchState() = 0;
  virtual Status FetchCheckpoint(uint64_t generation,
                                 std::vector<uint8_t>* out) = 0;
  /// Bytes of segment `seq` from `offset` to the stored end (possibly
  /// empty). kNotFound when the segment is absent/retired.
  virtual Status FetchSegment(uint64_t seq, uint64_t offset,
                              std::vector<uint8_t>* out) = 0;
};

/// Memory-backed transport for in-process replicas and tests.
class InProcessTransport : public Transport {
 public:
  Status PutCheckpoint(uint64_t generation,
                       std::span<const uint8_t> bytes) override;
  Status AppendSegment(uint64_t seq, uint64_t offset,
                       std::span<const uint8_t> bytes) override;
  StatusOr<uint64_t> SegmentSize(uint64_t seq) override;
  Status PublishState(const ShipState& state) override;
  Status Retire(uint64_t min_checkpoint_generation,
                uint64_t min_wal_seq) override;
  StatusOr<ShipState> FetchState() override;
  Status FetchCheckpoint(uint64_t generation,
                         std::vector<uint8_t>* out) override;
  Status FetchSegment(uint64_t seq, uint64_t offset,
                      std::vector<uint8_t>* out) override;

 private:
  mutable std::mutex mu_;
  std::map<uint64_t, std::vector<uint8_t>> checkpoints_;
  std::map<uint64_t, std::vector<uint8_t>> segments_;
  bool has_state_ = false;
  ShipState state_;
};

/// Directory-backed transport: artifacts live as files (ship-ckpt-*.spc,
/// ship-wal-*.log, SHIPSTATE) in `dir` through the FileSystem seam — a
/// shared or network filesystem becomes the wire, and the store survives
/// the primary process (which is what makes failover from it
/// meaningful). The primary and replicas may use separate instances over
/// the same directory. Limitation of the append-only FileSystem seam:
/// after a process restart the shipper cannot reopen a half-shipped
/// segment for append, so AppendSegment at a nonzero offset without an
/// open handle reports kUnavailable and the shipper restarts that
/// segment from offset 0 (idempotent — same bytes).
class DirectoryTransport : public Transport {
 public:
  DirectoryTransport(FileSystem* fs, std::string dir);

  Status PutCheckpoint(uint64_t generation,
                       std::span<const uint8_t> bytes) override;
  Status AppendSegment(uint64_t seq, uint64_t offset,
                       std::span<const uint8_t> bytes) override;
  StatusOr<uint64_t> SegmentSize(uint64_t seq) override;
  Status PublishState(const ShipState& state) override;
  Status Retire(uint64_t min_checkpoint_generation,
                uint64_t min_wal_seq) override;
  StatusOr<ShipState> FetchState() override;
  Status FetchCheckpoint(uint64_t generation,
                         std::vector<uint8_t>* out) override;
  Status FetchSegment(uint64_t seq, uint64_t offset,
                      std::vector<uint8_t>* out) override;

 private:
  struct OpenSegment {
    std::unique_ptr<WritableFile> file;
    uint64_t size = 0;
  };

  std::string SegmentPath(uint64_t seq) const;
  std::string CheckpointPath(uint64_t generation) const;

  FileSystem* const fs_;
  const std::string dir_;
  std::mutex mu_;
  std::map<uint64_t, OpenSegment> open_segments_;  ///< under mu_
};

/// The faults a FaultInjectingTransport can inject on one operation.
enum class TransportFault : unsigned char {
  kNone = 0,
  kDrop,        ///< the op does nothing and reports kUnavailable
  kDuplicate,   ///< the op runs twice (idempotence check for mutations)
  kTruncate,    ///< half the bytes transfer; mutations also report failure
  kDelay,       ///< the op runs late
  kDisconnect,  ///< this op and the next few all fail kUnavailable
};

/// Deterministic fault wrapper over any Transport — the replication
/// analogue of FaultInjectingEnv. Two modes, combinable:
///
///   Arm(k, fault)  injects `fault` on exactly the k-th operation
///                  (0-based, counted across all calls since
///                  construction or Disarm) — one-shot, so the matrix
///                  idiom "count ops unfaulted, then one run per index"
///                  carries over;
///   SetChaos(...)  injects a random transient fault on each operation
///                  with the given probability, deterministically from
///                  the seed — the fuzz-stream mode.
///
/// Every fault is transient (a later retry of the same logical transfer
/// succeeds, or is idempotent), matching real transport failure: the
/// subsystem's contract is that primaries and replicas retry their way
/// through ANY schedule of these faults without manual intervention.
class FaultInjectingTransport : public Transport {
 public:
  explicit FaultInjectingTransport(Transport* base) : base_(base) {}

  void Arm(uint64_t index, TransportFault fault);
  void Disarm();
  /// Random faults: probability permille/1000 per op, from `seed`.
  void SetChaos(uint64_t seed, uint32_t permille);
  uint64_t OperationCount() const;
  bool Tripped() const;

  Status PutCheckpoint(uint64_t generation,
                       std::span<const uint8_t> bytes) override;
  Status AppendSegment(uint64_t seq, uint64_t offset,
                       std::span<const uint8_t> bytes) override;
  StatusOr<uint64_t> SegmentSize(uint64_t seq) override;
  Status PublishState(const ShipState& state) override;
  Status Retire(uint64_t min_checkpoint_generation,
                uint64_t min_wal_seq) override;
  StatusOr<ShipState> FetchState() override;
  Status FetchCheckpoint(uint64_t generation,
                         std::vector<uint8_t>* out) override;
  Status FetchSegment(uint64_t seq, uint64_t offset,
                      std::vector<uint8_t>* out) override;

 private:
  /// Charges one op and returns the fault to apply to it (handling the
  /// disconnect window).
  TransportFault Charge();

  Transport* const base_;
  mutable std::mutex mu_;
  uint64_t ops_ = 0;
  uint64_t arm_at_ = 0;
  TransportFault armed_fault_ = TransportFault::kNone;
  bool armed_ = false;
  bool tripped_ = false;
  uint64_t chaos_state_ = 0;
  uint32_t chaos_permille_ = 0;
  uint32_t disconnected_ops_ = 0;  ///< remaining ops that fail
};

// --- backoff ---------------------------------------------------------------

/// Capped exponential backoff with deterministic ±25% jitter — the retry
/// pacing both the shipper loop and the replica tailer use. Next() grows
/// the base delay 2x per call until `max`; Reset() (after a success)
/// starts over.
class ReplicationBackoff {
 public:
  struct Options {
    std::chrono::microseconds initial{200};
    std::chrono::microseconds max{50000};
    uint64_t seed = 0x5EED;
  };

  explicit ReplicationBackoff(const Options& options)
      : options_(options), current_(options.initial), rng_(options.seed | 1) {}

  std::chrono::microseconds Next();
  void Reset() { current_ = options_.initial; }
  uint64_t sleeps() const { return sleeps_; }

 private:
  const Options options_;
  std::chrono::microseconds current_;
  uint64_t rng_;
  uint64_t sleeps_ = 0;
};

// --- primary-side shipper --------------------------------------------------

/// Pumps one durability directory into a Transport. Drive it manually
/// (ShipOnce per poll) or start the background loop (Start/Stop), which
/// retries transport failures with capped backoff + jitter and keeps
/// polling for new primary writes. Reading the directory is safe
/// concurrently with the live service: only whole synced frames ship
/// (ReadWalSegment kLiveTail finds the frame boundary; Options::synced_tip
/// additionally caps below the primary's fsync horizon where the
/// filesystem shows unsynced bytes), and registration as a Checkpointer
/// retention consumer keeps GC from deleting the segment under the
/// tail. SpcService::NewShipper() wires all of that up.
class WalShipper {
 public:
  struct Options {
    Transport* transport = nullptr;  ///< required

    /// Retention pin target (satellite of DESIGN.md §13's contract):
    /// when set, the shipper registers a consumer and advances it as it
    /// ships, so the primary's GC never outruns the tail. Optional —
    /// without it a GC'd segment forces replicas through re-bootstrap.
    Checkpointer* retention = nullptr;

    /// Returns (current segment seq, synced bytes of it): the fsync
    /// horizon shipping must not cross on filesystems where reads see
    /// unsynced page-cache bytes (shipping an unsynced record would let
    /// a replica apply a write the primary can still lose). Optional:
    /// without it the segment files are trusted as-is — correct under
    /// FaultInjectingEnv (reads surface only synced bytes) and for
    /// post-mortem shipping of a closed directory.
    std::function<std::pair<uint64_t, uint64_t>()> synced_tip;

    /// Background loop pacing.
    std::chrono::microseconds poll_interval{2000};
    ReplicationBackoff::Options backoff;

    /// Metric hooks (ServiceMetrics lives in api/, above this layer).
    std::function<void()> on_checkpoint_shipped;
    std::function<void()> on_segment_started;
    std::function<void(uint64_t)> on_bytes_shipped;
    std::function<void()> on_reconnect;
    std::function<void()> on_backoff_sleep;
  };

  /// Monotone counters, readable from any thread.
  struct Stats {
    uint64_t checkpoints_shipped = 0;
    uint64_t segments_started = 0;
    uint64_t bytes_shipped = 0;
    uint64_t reconnects = 0;
    uint64_t backoff_sleeps = 0;
    /// Durably-acked generation covered by shipped bytes so far.
    uint64_t shipped_generation = 0;
  };

  WalShipper(FileSystem* fs, std::string dir, const Options& options);
  ~WalShipper();

  /// One incremental shipping pass: ship a new checkpoint if the
  /// MANIFEST moved, ship every new whole synced frame of every segment
  /// from the tail position, retire store artifacts the newest shipped
  /// checkpoint covers, publish ShipState if anything moved. Single
  /// attempt — no sleeping; kUnavailable/kIOError are retryable (the
  /// background loop backs off and re-enters), kDataLoss is sticky
  /// (primary-side damage: stop shipping, surface loudly).
  Status ShipOnce();

  /// Starts/stops the background pump (idempotent).
  void Start();
  void Stop();

  Stats GetStats() const;

  /// Sticky error, if shipping hit primary-side damage (kDataLoss).
  Status Health() const;

 private:
  Status ShipOnceLocked();
  Status ShipCheckpointLocked(uint64_t generation, uint64_t wal_seq);
  /// Ships segment `seq` bytes from tail_offset_ to its current synced
  /// frame horizon; advances tail state. `final` marks a rotated-away
  /// segment (fully shipped once its end is reached).
  Status ShipSegmentLocked(uint64_t seq, bool final_segment, bool* progressed);
  void UpdateRetentionLocked();
  void PumpLoop();

  FileSystem* const fs_;
  const std::string dir_;
  const Options options_;

  mutable std::mutex mu_;  ///< serializes shipping passes + state
  // Shipping position (all under mu_).
  bool have_checkpoint_ = false;
  uint64_t shipped_checkpoint_gen_ = 0;
  uint64_t shipped_checkpoint_wal_seq_ = 0;
  uint64_t tail_seq_ = 0;     ///< segment currently tailing
  uint64_t tail_offset_ = 0;  ///< next file byte of it to ship
  uint64_t durable_generation_ = 0;
  uint64_t max_shipped_seq_ = 0;    ///< newest segment with bytes in store
  uint64_t store_min_wal_seq_ = 0;  ///< store retention floor
  uint64_t retired_checkpoint_gen_ = 0;
  ShipState published_;  ///< last state successfully published
  bool published_any_ = false;
  bool last_failed_ = false;  ///< previous ShipOnce failed (reconnect count)
  uint64_t retention_handle_ = 0;
  bool retention_registered_ = false;
  Status health_;  ///< sticky kDataLoss

  // Stats (atomics: GetStats does not take mu_).
  std::atomic<uint64_t> stat_checkpoints_{0};
  std::atomic<uint64_t> stat_segments_{0};
  std::atomic<uint64_t> stat_bytes_{0};
  std::atomic<uint64_t> stat_reconnects_{0};
  std::atomic<uint64_t> stat_backoffs_{0};
  std::atomic<uint64_t> stat_shipped_gen_{0};

  // Background pump.
  std::mutex pump_mu_;
  std::condition_variable pump_cv_;
  bool stop_pump_ = false;
  std::thread pump_;
};

}  // namespace dspc

#endif  // DSPC_PERSIST_REPLICATION_H_
