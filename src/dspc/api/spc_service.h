// SpcService: the typed, consistency-aware serving surface over
// DynamicSpcIndex (DESIGN.md §9).
//
// The core engine answers raw Query(s, t) calls with whatever the current
// refresh policy happens to serve; a production caller needs three things
// the raw entry point cannot express:
//
//   admission   Requests are validated before they touch the index —
//               out-of-range vertex ids return Status kInvalidArgument
//               instead of undefined behavior, a min_generation from the
//               future is rejected instead of silently unsatisfiable.
//   freshness   Every read carries ReadOptions{consistency, ...} choosing
//               a point on the freshness/latency lattice:
//                 kFresh             answers reflect every update admitted
//                                    before the read; may ride the mutable
//                                    index (and thus briefly wait for an
//                                    in-flight writer).
//                 kSnapshot          answers come from the pinned published
//                                    snapshot and NEVER block — not on
//                                    writers, not on maintenance. May be
//                                    stale; unservable requests (nothing
//                                    published, snapshot too old for
//                                    min_generation, vertex newer than the
//                                    snapshot) return kUnavailable instead
//                                    of waiting.
//                 kBoundedStaleness  snapshot-served while the snapshot is
//                                    within max_lag generations of the
//                                    index (and >= min_generation);
//                                    otherwise escalates to the live index,
//                                    which always satisfies both bounds.
//   tokens      Every write returns a WriteToken carrying the structural
//               generation it advanced the index to. A later read passes
//               token.generation as ReadOptions::min_generation and is
//               guaranteed to observe that write (read-your-writes) with
//               no global quiescing: the service simply refuses to serve a
//               snapshot older than the token and escalates per the
//               consistency mode. WaitForSnapshot(token) is the explicit
//               barrier for callers that want the *snapshot* to catch up.
//   deadlines   Every read (and WaitForSnapshot) takes an optional
//               timeout. The only edges of the serving surface that can
//               block — a live-index read waiting out a writer, and the
//               snapshot barrier — honor it with timed acquisition and
//               return kDeadlineExceeded instead of blocking past it
//               (DESIGN.md §10). Snapshot-served reads never block and
//               never miss a deadline.
//   reports     Batch writes return one WriteReport per input update —
//               applied (with that update's own stats and generation),
//               no-op, or rejected with a reason — so a caller can tell
//               exactly which updates changed the index instead of
//               receiving one folded stats blob.
//
// Every response is generation-tagged and says where it was served from
// (snapshot vs live index) and how stale that source was at admission —
// and the service aggregates the same signals fleet-wide in a
// ServiceMetrics instance (Metrics(): per-mode query counts, served-from
// distribution, staleness histogram, deadline misses, batch sizes) so an
// operator can check a freshness SLO without sampling responses.
//
// Thread-safety: all methods may be called from any number of threads
// concurrently; reads never see a torn index (they serve immutable
// snapshots or take the engine's shared lock).

#ifndef DSPC_API_SPC_SERVICE_H_
#define DSPC_API_SPC_SERVICE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "dspc/api/service_metrics.h"
#include "dspc/common/status.h"
#include "dspc/common/types.h"
#include "dspc/core/dynamic_spc.h"
#include "dspc/core/flat_spc_index.h"
#include "dspc/core/pair_cache.h"
#include "dspc/core/update_stats.h"
#include "dspc/graph/graph.h"
#include "dspc/graph/update_stream.h"
#include "dspc/persist/checkpointer.h"
#include "dspc/persist/env.h"
#include "dspc/persist/recovery.h"
#include "dspc/persist/replication.h"
#include "dspc/persist/snapshot_publisher.h"
#include "dspc/persist/wal.h"

namespace dspc {

/// The freshness contract of one read. See the file comment for the full
/// lattice.
///
/// kSnapshot requires a published snapshot to exist: under kBackground
/// one is published eagerly at construction, but under kSync/kManual the
/// first publish happens only when other traffic causes it (a
/// budget-crossing kFresh read under kSync, or an explicit refresh), so
/// a pure-kSnapshot client should call WaitForSnapshot({Generation()})
/// once to warm the serving path — until then kSnapshot reads return
/// kUnavailable.
enum class Consistency : unsigned char {
  kFresh,             ///< reflects all updates admitted before the read
  kSnapshot,          ///< pinned published snapshot; never blocks
  kBoundedStaleness,  ///< snapshot while within max_lag, else live index
};

/// Sentinel for ReadOptions::timeout and WaitForSnapshot: no deadline —
/// block as long as it takes (any negative duration means the same).
inline constexpr std::chrono::nanoseconds kNoTimeout{-1};

/// Per-read options. Aggregate-initializable:
///   service.Query(s, t, {.consistency = Consistency::kSnapshot});
struct ReadOptions {
  Consistency consistency = Consistency::kFresh;

  /// kBoundedStaleness: how many generations the served snapshot may
  /// trail the index. 0 demands a current snapshot (escalating to the
  /// live index whenever the snapshot is at all stale).
  uint64_t max_lag = 0;

  /// Read-your-writes floor: the answer must reflect at least this
  /// structural generation (normally a WriteToken::generation from a
  /// prior update on this service). 0 = no floor.
  uint64_t min_generation = 0;

  /// Worker threads for batch reads (0 = hardware concurrency). Ignored
  /// by single queries.
  unsigned threads = 0;

  /// Per-call deadline, as a timeout relative to admission. Bounds the
  /// only blocking edge a read has: waiting for the live-index lock
  /// behind an in-flight writer (kFresh always; kBoundedStaleness when
  /// it escalates). A read that cannot acquire the lock by the deadline
  /// returns kDeadlineExceeded instead of blocking; 0 degrades to a pure
  /// try-lock (still serves when no writer holds the lock).
  /// Snapshot-served reads never block, so the timeout never fails them.
  /// A timed read also never performs snapshot maintenance: under
  /// RefreshPolicy::kSync it takes the free pin instead of the
  /// budget-charging acquire (whose inline rebuild waits unbounded on
  /// the writer lock), leaving the rebuild to the next untimed read.
  /// kNoTimeout (the default, or any negative value) = no deadline.
  std::chrono::nanoseconds timeout = kNoTimeout;
};

/// Proof of a write's position in the update sequence. Pass
/// token.generation as ReadOptions::min_generation to read your write.
struct WriteToken {
  uint64_t generation = 0;

  /// True when this write is crash-durable at return: it was appended to
  /// the WAL and the append was fsynced (the write joined a group commit
  /// under WalSyncPolicy::kBatch, or every write syncs under
  /// kEveryWrite). Set only when the caller asked via
  /// WriteOptions::durable on a durable service; a plain write on a
  /// durable service is logged but possibly not yet synced, and a write
  /// on a non-durable service never sets it.
  bool durable = false;
};

/// Per-write options (writes were previously option-free; the default
/// keeps their old behavior exactly).
struct WriteOptions {
  /// Block until this write's WAL records are fsynced before returning
  /// (token.durable confirms it). Under kBatch this joins the group
  /// commit — concurrent durable writers share one fsync. Ignored (left
  /// false on the token) when the service was not opened durable.
  bool durable = false;
};

/// Configuration for a durable service (SpcService::Open): where the
/// WAL + checkpoints live and when they are synced. See DESIGN.md §11.
struct DurabilityOptions {
  /// Directory holding MANIFEST, ckpt-*.spc, and wal-*.log. Created if
  /// missing; recovered from if not empty.
  std::string dir;

  /// When WAL appends are fsynced (persist/wal.h). kBatch (default)
  /// group-commits on a flusher thread; kEveryWrite syncs inside every
  /// write; kNone leaves it to the OS (and to WriteOptions::durable,
  /// which forces a sync even under kNone).
  WalSyncPolicy sync = WalSyncPolicy::kBatch;

  /// Group-commit flush interval under kBatch.
  std::chrono::microseconds flush_interval{2000};

  /// Background checkpoint triggers: publish a new checkpoint (and
  /// rotate + GC the WAL) once the current segment holds this many bytes
  /// or records, whichever trips first. 0 disables that trigger;
  /// both 0 means checkpoints happen only via Checkpoint().
  uint64_t checkpoint_wal_bytes = uint64_t{64} << 20;
  uint64_t checkpoint_wal_records = 100000;

  /// Filesystem seam; nullptr = FileSystem::Default(). Tests inject a
  /// FaultInjectingEnv here. Must outlive the service.
  FileSystem* fs = nullptr;
};

/// Which serving path answered a read.
enum class ServedFrom : unsigned char {
  kSnapshot,   ///< immutable published FlatSpcIndex snapshot
  kLiveIndex,  ///< mutable index under the engine's shared lock
};

/// One answered query plus its serving metadata.
struct QueryResponse {
  SpcResult result;

  /// Structural generation the answer reflects. Exact for both serving
  /// paths: snapshot-served answers carry the pin's generation, and
  /// live-served answers re-read the generation under the engine's
  /// shared lock (so a write that completed while the read waited for
  /// the lock is reflected in both the answer and this field).
  uint64_t generation = 0;

  /// Generations the serving source trailed the index at admission
  /// (0 when served live or from a current snapshot).
  uint64_t staleness = 0;

  ServedFrom served_from = ServedFrom::kLiveIndex;
};

/// One answered batch; results[i] answers pairs[i]. All answers come from
/// the same source at the same generation.
struct BatchQueryResponse {
  std::vector<SpcResult> results;
  uint64_t generation = 0;
  uint64_t staleness = 0;
  ServedFrom served_from = ServedFrom::kLiveIndex;
};

/// One admitted write call: per-update outcomes, the folded counters of
/// everything that applied, and the token a later read can wait on.
struct UpdateResponse {
  /// Folded engine counters across the updates that applied.
  UpdateStats stats;

  /// One report per input update, in input order: kApplied (with that
  /// update's own stats and post-update generation), kNoOp, or kRejected
  /// with a static reason. The admission contract: the number of
  /// kApplied reports equals exactly the generation distance this call
  /// advanced the index (absent concurrent writers).
  std::vector<WriteReport> reports;

  /// Outcome tallies over `reports` (applied + noops + rejected ==
  /// reports.size()).
  size_t applied = 0;
  size_t noops = 0;
  size_t rejected = 0;

  WriteToken token;
};

/// AddVertex outcome: the new id and the token that covers its creation.
struct AddVertexResponse {
  Vertex vertex = kInvalidVertex;
  WriteToken token;
};

class SpcService {
 public:
  /// Takes ownership of `graph` and builds its index (HP-SPC).
  explicit SpcService(Graph graph, const DynamicSpcOptions& options = {});

  /// Adopts a pre-built index of `graph` (e.g. an unpacked snapshot arena).
  SpcService(Graph graph, SpcIndex index,
             const DynamicSpcOptions& options = {});

  /// Opens a DURABLE service on `durability.dir` (DESIGN.md §11). An
  /// empty directory bootstraps from `bootstrap` (building its index)
  /// and publishes the first checkpoint; a non-empty one recovers —
  /// newest valid checkpoint (previous on checksum failure), WAL
  /// replayed through the engine to the exact last durably-written
  /// generation — and `bootstrap` is ignored. Every accepted write is
  /// then WAL-appended before the engine applies it; checkpoints
  /// publish in the background per the thresholds. RecoveryInfo() says
  /// what recovery did. The bootstrap build honors `options.build`
  /// (parallel construction, DESIGN.md §12) — safe for checkpoint
  /// digests because the parallel builder is label-identical to the
  /// sequential one.
  ///
  /// Fails with kDataLoss when durable state is damaged beyond the
  /// checkpoint fallback, kIOError on filesystem trouble, and
  /// kNotSupported when `options` enables the lazy rebuild policy
  /// (policy rebuilds advance the generation outside the WAL, which
  /// would break replay determinism).
  static StatusOr<std::unique_ptr<SpcService>> Open(
      Graph bootstrap, const DurabilityOptions& durability,
      const DynamicSpcOptions& options = {});

  /// Opens a DURABLE service adopting externally reconstructed state at
  /// an exact generation — the failover path (ReplicaService::Promote
  /// hands in the drained replica's graph + index). `durability.dir`
  /// must not already hold durable state: bootstrapping over a MANIFEST
  /// (or over WAL records) would silently discard it, so that case is
  /// kInvalidArgument — recover such a directory with Open instead. The
  /// new service starts a fresh WAL/checkpoint lineage whose first
  /// checkpoint is the adopted state at `generation`; subsequent writes
  /// continue the generation chain from there, so read-your-writes
  /// tokens issued by the old primary stay valid against the promoted
  /// one. Same option restrictions as Open (lazy rebuild policies are
  /// kNotSupported).
  static StatusOr<std::unique_ptr<SpcService>> OpenWithState(
      Graph graph, SpcIndex index, uint64_t generation,
      const DurabilityOptions& durability,
      const DynamicSpcOptions& options = {});

  /// Stops the background checkpointer and closes the WAL (a clean close
  /// syncs it — shutdown is not a crash). No-op for non-durable services.
  ~SpcService();

  // --- reads -------------------------------------------------------------

  /// SPC query under the given read options.
  ///
  /// Blocking: never blocks when snapshot-served; a live-served read may
  /// wait for an in-flight writer, bounded by options.timeout when set.
  /// Thread-safe against every other method. Error codes:
  /// kInvalidArgument (out-of-range vertex id, or a min_generation the
  /// index has not reached), kUnavailable (kSnapshot unservable without
  /// blocking), kNotSupported (kSnapshot with snapshots disabled),
  /// kDeadlineExceeded (live read missed options.timeout).
  StatusOr<QueryResponse> Query(Vertex s, Vertex t,
                                const ReadOptions& options = {}) const;

  /// Batched SPC queries, all served from one source at one generation.
  /// Validation covers every pair before any is evaluated. Same
  /// blocking/thread-safety/error contract as Query; parallel batches
  /// fan out over the engine's shared QueryPool (options.threads caps
  /// the parallelism; no per-batch thread spawns). A deadline-bounded
  /// batch that falls back to the live index runs serially — it must
  /// not queue behind another batch's pool region while holding the
  /// engine's shared lock.
  StatusOr<BatchQueryResponse> QueryBatch(
      std::span<const VertexPair> pairs,
      const ReadOptions& options = {}) const;

  // --- writes ------------------------------------------------------------

  /// Applies a batch of updates in order (exact inverse pairs cancel
  /// first, as in DynamicSpcIndex::ApplyBatch) and reports every
  /// update's individual outcome: the response carries one WriteReport
  /// per input update. Admission is per update, not per batch — an edge
  /// referencing a vertex outside [0, NumVertices()) gets a kRejected
  /// report while the valid remainder still applies; no-op updates
  /// (inserting an existing edge, deleting a missing one) get kNoOp and
  /// do not advance the generation. The call itself only fails on
  /// engine-level misuse, so check per-update outcomes, not just ok().
  ///
  /// Blocking: takes the writer lock per applied update; the batch is
  /// not one atomic unit (readers may observe intermediate generations).
  /// Thread-safe against every other method. On a durable service the
  /// admitted subset is journaled (intent before apply, commit with
  /// per-update outcomes after) and the whole call is serialized with
  /// other writes; a batch larger than kWalMaxBatchUpdates (its intent
  /// record would not fit one WAL frame) is kInvalidArgument up front —
  /// split it; after a WAL failure the service is fail-stop and every
  /// write returns the original kIOError.
  StatusOr<UpdateResponse> ApplyUpdates(std::span<const Update> updates,
                                        const WriteOptions& write = {});

  /// Single-edge conveniences over ApplyUpdates. Unlike the batch call,
  /// an out-of-range endpoint fails the whole call with
  /// kInvalidArgument (there is no partial batch to salvage). A legal
  /// no-op returns OK with reports[0].outcome == kNoOp.
  StatusOr<UpdateResponse> InsertEdge(Vertex u, Vertex v,
                                      const WriteOptions& write = {});
  StatusOr<UpdateResponse> RemoveEdge(Vertex u, Vertex v,
                                      const WriteOptions& write = {});

  /// Adds an isolated vertex. Infallible on a non-durable service (the
  /// id space simply grows); on a fail-stopped durable service the write
  /// is refused and resp.vertex == kInvalidVertex. Takes the writer
  /// lock; forces a full snapshot rebuild next refresh.
  AddVertexResponse AddVertex(const WriteOptions& write = {});

  /// Removes all edges incident to `v` (the paper's vertex deletion);
  /// the id stays valid but isolated. kInvalidArgument for an
  /// out-of-range id. Runs one writer-locked update per incident edge;
  /// readers may observe intermediate generations.
  StatusOr<UpdateResponse> RemoveVertex(Vertex v,
                                        const WriteOptions& write = {});

  // --- durability ---------------------------------------------------------

  /// True when this service journals writes (constructed via Open).
  bool Durable() const { return wal_ != nullptr; }

  /// What recovery did at Open (all-zero for non-durable services and
  /// fresh bootstraps).
  const RecoveryReport& RecoveryInfo() const { return recovery_report_; }

  /// Publishes a checkpoint of the current state NOW (temp → fsync →
  /// rename → MANIFEST → dir-fsync), rotates the WAL, and garbage-
  /// collects covered segments. Blocks writes for the capture + publish.
  /// kNotSupported on a non-durable service; after a failure the
  /// durability path is fail-stop.
  Status Checkpoint();

  // --- replication ---------------------------------------------------------

  /// Creates a WAL shipper pumping this durable service's directory into
  /// `transport` (DESIGN.md §13), fully wired: the service's filesystem
  /// and directory, its checkpointer as the retention pin (GC never
  /// deletes a segment the shipper still tails), its fsync horizon as
  /// the shipping cap (replicas never see a write the primary could
  /// still lose), and its ServiceMetrics as the default metric hooks
  /// (`base` hooks win where set; other `base` fields pass through).
  /// The shipper is returned stopped — call Start() for the background
  /// pump or drive ShipOnce() manually — and must not outlive the
  /// service. kNotSupported on a non-durable service.
  StatusOr<std::unique_ptr<WalShipper>> NewShipper(
      Transport* transport, WalShipper::Options base = {});

  // --- multi-process serving ----------------------------------------------

  /// Publishes the current state into `publisher`'s shared directory as a
  /// generation-numbered mmap-servable arena (DESIGN.md §14), making it
  /// adoptable by MappedReaderService processes. Captures a consistent
  /// (generation, index) pair under a write freeze — readers keep serving
  /// throughout — then writes outside any engine lock. The PUBSTATE
  /// manifest records the WAL segment the service had open at capture
  /// (0 on a non-durable service). Works on durable and non-durable
  /// services alike; the publisher refuses generation regressions, so
  /// republishing the same generation (e.g. after crash recovery) is the
  /// only way to "repeat" a publish.
  Status PublishSnapshot(SnapshotPublisher* publisher);

  // --- freshness barriers -------------------------------------------------

  /// Blocks until the published snapshot reflects the token's generation,
  /// so subsequent kSnapshot reads observe the write. kNotSupported when
  /// snapshots are disabled; kInvalidArgument for a token the index has
  /// not reached (never issued by this service).
  Status WaitForSnapshot(WriteToken token) const;

  /// Deadline-bounded barrier: as above, but gives up after `timeout`
  /// and returns kDeadlineExceeded if the snapshot has not caught up by
  /// then (timeout 0 = instant freshness probe; negative = kNoTimeout =
  /// block indefinitely). Under kSync/kManual an unexpired deadline
  /// admits the caller to the inline rebuild it requested — the deadline
  /// bounds waiting on others, not the caller's own build.
  Status WaitForSnapshot(WriteToken token,
                         std::chrono::nanoseconds timeout) const;

  // --- observability ------------------------------------------------------

  /// Current structural generation of the engine. Lock-free.
  uint64_t Generation() const { return engine_.Generation(); }

  /// Current vertex-id space [0, NumVertices()). Lock-free.
  size_t NumVertices() const { return engine_.NumVertices(); }

  /// Aggregated service counters since construction: per-mode query
  /// counts, served-from distribution, staleness histogram, deadline
  /// misses, rejections, batch sizes, per-update write outcomes — the
  /// freshness-SLO surface (DESIGN.md §10). Monotone; diff two snapshots
  /// for a rate window, ToString() for a text dump. Thread-safe and
  /// cheap enough to scrape in a tight monitoring loop. When the hot-pair
  /// cache is enabled (DynamicSpcOptions::pair_cache, DESIGN.md §15) its
  /// hit/miss/insert/evict counters are folded into the snapshot.
  MetricsSnapshot Metrics() const;

  /// The underlying engine, for tooling that needs the raw surface
  /// (graph access, snapshot counters, benches). The engine's documented
  /// concurrency contract still applies.
  const DynamicSpcIndex& engine() const { return engine_; }
  DynamicSpcIndex& engine() { return engine_; }

 private:
  /// Shared read-routing: resolves which source should serve a read of
  /// `queries` queries under `options`. On OK, *pin names the snapshot to
  /// serve (empty => the live index) and *generation holds the admission
  /// generation. Out-params instead of a StatusOr<struct>, and forced
  /// inlining into its two callers, keep the single-query hot path free
  /// of wrapper construction and call overhead while the routing logic
  /// stays written exactly once.
  [[gnu::always_inline]] inline Status RouteRead(
      const ReadOptions& options, size_t queries, Vertex max_vertex,
      uint64_t* generation, SnapshotManager::Pinned* pin) const;

  /// kSnapshot routing (the only mode with refusal outcomes), split out
  /// so RouteRead's hot path stays small.
  Status RouteSnapshotRead(const ReadOptions& options, size_t queries,
                           Vertex max_vertex, uint64_t generation,
                           SnapshotManager::Pinned* pin) const;

  Status ValidateVertex(Vertex v, const char* what) const;

  /// Shared barrier body behind both WaitForSnapshot overloads
  /// (`timed` = honor `deadline`).
  Status WaitForSnapshotUntil(WriteToken token, bool timed,
                              std::chrono::steady_clock::time_point deadline)
      const;

  // --- durability internals (inactive — wal_ == nullptr — unless the
  // service was constructed via Open) --------------------------------------

  /// Wires up the WAL + checkpointer after recovery/bootstrap: creates
  /// segment `plan.next_wal_seq`, publishes a checkpoint of the
  /// just-opened state (so GC can drop replayed segments) retaining the
  /// checkpoint recovery validated as the fallback, starts the
  /// background checkpointer when thresholds are configured.
  Status StartDurability(const DurabilityOptions& durability,
                         const RecoveryPlan& plan);

  /// The non-durable ApplyUpdates body (also the durable path's final
  /// shape — kept verbatim so the non-durable service is untouched).
  StatusOr<UpdateResponse> ApplyUpdatesPlain(std::span<const Update> updates);

  /// Durable ApplyUpdates: intent record → engine apply → commit record
  /// with per-update outcomes, all under dur_mu_.
  StatusOr<UpdateResponse> ApplyUpdatesDurable(std::span<const Update> updates,
                                               const WriteOptions& write);

  /// Appends one encoded record to the WAL, updating metrics; on failure
  /// trips fail-stop and returns the sticky error. Caller holds dur_mu_.
  StatusOr<uint64_t> AppendWalLocked(const std::vector<uint8_t>& payload);

  /// Mints the next intent/commit pairing key, unique across restarts
  /// (see batch_seq_in_segment_). Caller holds dur_mu_. The 32/32 split
  /// cannot realistically overflow: the low half would need 4G pairs in
  /// one segment (>128 GiB of records), the high half 4G rotations.
  uint64_t NextBatchSeqLocked() {
    return (wal_->seq() << 32) | ++batch_seq_in_segment_;
  }

  /// Marks the durability path failed (first error wins) and records it.
  /// Caller holds dur_mu_.
  Status FailDurabilityLocked(Status st);

  /// Blocks until `offset` is synced in `wal` (a shared_ptr copy taken
  /// under dur_mu_, so rotation can retire the segment meanwhile).
  Status WaitDurableOffset(const std::shared_ptr<WalWriter>& wal,
                           uint64_t offset);

  /// Checkpoint body; caller holds dur_mu_.
  Status CheckpointLocked();

  /// (current segment seq, synced bytes of it) under dur_mu_ — the
  /// shipper's fsync horizon (WalShipper::Options::synced_tip).
  std::pair<uint64_t, uint64_t> WalSyncedTip();

  /// Wakes the background checkpointer when the current segment crossed
  /// a threshold. Caller holds dur_mu_.
  void MaybeTriggerCheckpointLocked();

  void CheckpointLoop();

  DynamicSpcIndex engine_;

  /// Aggregate counters (Metrics()); mutable because recording a read is
  /// not a logical mutation of the service.
  mutable ServiceMetrics metrics_;

  /// Hot-pair result cache (null unless options.pair_cache.enabled).
  /// Consulted only on snapshot-served single reads; mutable for the
  /// same reason as metrics_ — caching a result is not a logical
  /// mutation of the service.
  mutable std::unique_ptr<PairCache> pair_cache_;

  FileSystem* fs_ = nullptr;           ///< null ⇔ non-durable
  DurabilityOptions dur_options_;
  std::unique_ptr<Checkpointer> checkpointer_;

  /// Serializes the whole write path on a durable service: WAL append,
  /// engine apply, commit append, rotation, checkpoint capture. Ordering
  /// with the engine lock: dur_mu_ is always taken FIRST (writes apply
  /// under it; Checkpoint takes it, then FreezeWrites). Reads never
  /// touch it.
  std::mutex dur_mu_;
  /// Current segment's writer. shared_ptr so a durable waiter can hold
  /// the segment across a concurrent rotation (the retired writer's
  /// Close syncs everything first, so waiters are satisfied, not
  /// stranded). Swapped only under dur_mu_.
  std::shared_ptr<WalWriter> wal_;
  /// Intent/commit pairing keys are scoped to the live segment:
  /// NextBatchSeqLocked() returns (segment seq << 32) | ++counter, and
  /// the counter resets at every rotation. Pairs never straddle segments
  /// (intent and commit are appended under one dur_mu_ hold, and rotation
  /// holds dur_mu_ too) and segment seqs are unique across process
  /// restarts (next_wal_seq = max on disk + 1), so a restarted service
  /// can never mint a seq colliding with a crashed run's stale unpaired
  /// intent — which fallback recovery scans in the same pass and would
  /// otherwise refuse as a duplicate.
  uint64_t batch_seq_in_segment_ = 0;  ///< under dur_mu_
  bool dur_failed_ = false;      ///< fail-stop latch (under dur_mu_)
  Status dur_error_;             ///< first durability failure

  std::thread checkpoint_thread_;
  std::condition_variable checkpoint_cv_;
  bool checkpoint_requested_ = false;  ///< under dur_mu_
  bool stop_checkpointer_ = false;     ///< under dur_mu_

  RecoveryReport recovery_report_;
};

}  // namespace dspc

#endif  // DSPC_API_SPC_SERVICE_H_
