// ServiceMetrics: lock-light aggregate counters for SpcService — the
// freshness-SLO surface (DESIGN.md §10).
//
// Per-response metadata (generation / served_from / staleness) tells one
// caller about one answer; an operator needs the distribution: how many
// reads ran at each consistency mode, what fraction was served from
// snapshots vs the live index, how stale those snapshots were, how often
// deadlines were missed and requests rejected, and how big the batches
// are. ServiceMetrics records exactly that, cheaply enough to sit on the
// serving hot path:
//
//   record     Relaxed fetch-adds on a per-thread counter shard. Threads
//              are striped over kShards cache-line-aligned shards by a
//              thread_local slot, so concurrent recorders almost never
//              touch the same cache line — no lock, no CAS loop, no
//              histogram mutex. The single-query hot path pays exactly
//              ONE increment: mode, serving source, and staleness bucket
//              are folded into one (mode × served_from × bucket) counter
//              cube that Snapshot() unfolds into the separate aggregates
//              — this keeps recording inside the service layer's ~2%
//              overhead budget (three separate increments measurably did
//              not).
//   snapshot   Snapshot() sums every shard into a plain MetricsSnapshot
//              struct — O(kShards * kSlots) relaxed loads, so scraping
//              is cheap enough for a tight monitoring loop. Counters are
//              monotone; two snapshots subtract to a rate.
//   table      Each scalar metric is one ServiceMetrics::Counter row of a
//              descriptor table (service_metrics.cc): Snapshot() copies
//              shard sums through it and PrometheusText() renders it.
//
// Totals are exact: every increment lands in exactly one shard and sums
// are over all shards. What is *not* guaranteed is cross-counter
// atomicity — a snapshot taken mid-record may see the mode counter of a
// read whose staleness bucket lands a nanosecond later. SLO aggregation
// tolerates that by construction.

#ifndef DSPC_API_SERVICE_METRICS_H_
#define DSPC_API_SERVICE_METRICS_H_

#include <array>
#include <atomic>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <string>

#include "dspc/common/status.h"

namespace dspc {

// Defined in api/spc_service.h; opaque declarations keep this header
// free-standing (the fixed underlying types make them complete here).
enum class Consistency : unsigned char;
enum class ServedFrom : unsigned char;

/// One aggregated, point-in-time view of a service's counters (the value
/// type ServiceMetrics::Snapshot() returns). Plain data: copy it, diff
/// two of them for a rate window, or render it with PrometheusText().
struct MetricsSnapshot {
  static constexpr size_t kModes = 3;  ///< kFresh / kSnapshot / kBounded

  /// Staleness histogram buckets: generations the serving source trailed
  /// the index at admission, one count per served read call.
  ///   0 | 1 | 2 | 3-4 | 5-8 | 9-16 | 17-64 | >64
  static constexpr size_t kStalenessBuckets = 8;

  /// Batch-size histogram buckets (queries per read batch, updates per
  /// write batch): 1 | 2-4 | 5-16 | 17-64 | 65-256 | 257-1K | 1K-4K | >4K
  static constexpr size_t kBatchBuckets = 8;

  /// Read-latency histogram buckets, per consistency mode. Log-spaced:
  /// bucket b covers [256<<(b-1), 256<<b) ns (bucket 0 holds everything
  /// below 256 ns; the top bucket is unbounded, reaching past 100 ms).
  /// Populated by sampled timings (SpcService times 1-in-64 single
  /// queries and every batch), so counts are samples, not call totals —
  /// percentiles are unaffected by the uniform sampling.
  static constexpr size_t kLatencyBuckets = 20;

  // --- reads (served) ----------------------------------------------------
  /// Served queries per consistency mode (a batch adds its size), indexed
  /// by static_cast<size_t>(Consistency).
  std::array<uint64_t, kModes> queries_by_mode{};
  uint64_t served_from_snapshot = 0;  ///< queries answered from a pin
  uint64_t served_from_live = 0;      ///< queries answered live
  /// Per served *query* (a batch adds its size): generation-lag bucket
  /// of the serving source at admission. Sums to TotalQueries().
  std::array<uint64_t, kStalenessBuckets> staleness_hist{};
  /// Generations of lag summed over served queries (the histogram's
  /// _sum; a fresh read adds 0).
  uint64_t staleness_sum = 0;

  /// Sampled wall-clock latency of served read calls, bucketed per
  /// consistency mode (see kLatencyBuckets). A batch contributes one
  /// sample for the whole call.
  std::array<std::array<uint64_t, kLatencyBuckets>, kModes>
      read_latency_hist{};
  std::array<uint64_t, kModes> read_latency_sum_ns{};  ///< sum of samples

  // --- misses and rejections ---------------------------------------------
  uint64_t deadline_misses_read = 0;  ///< reads that hit their deadline
  uint64_t deadline_misses_wait = 0;  ///< WaitForSnapshot timeouts
  uint64_t rejected_invalid_argument = 0;  ///< failed admission
  uint64_t rejected_unavailable = 0;       ///< unservable under options
  uint64_t rejected_not_supported = 0;     ///< configuration refusals

  // --- read batches ------------------------------------------------------
  uint64_t read_batches = 0;        ///< QueryBatch calls served
  uint64_t read_batch_queries = 0;  ///< queries across those batches
  std::array<uint64_t, kBatchBuckets> read_batch_size_hist{};

  // --- writes ------------------------------------------------------------
  uint64_t write_batches = 0;  ///< admitted write calls (incl. singles)
  std::array<uint64_t, kBatchBuckets> write_batch_size_hist{};
  uint64_t updates_applied = 0;   ///< WriteReport kApplied outcomes
  uint64_t updates_noop = 0;      ///< WriteReport kNoOp outcomes
  uint64_t updates_rejected = 0;  ///< WriteReport kRejected outcomes

  // --- durability (persist/, DESIGN.md §11; all zero on a service opened
  // without DurabilityOptions) ----------------------------------------------
  uint64_t wal_appends = 0;         ///< records appended to the WAL
  uint64_t wal_appended_bytes = 0;  ///< framed record bytes appended
  uint64_t wal_syncs = 0;           ///< WAL fsyncs (group commit or forced)
  uint64_t wal_durable_waits = 0;   ///< writes that waited on group commit
  uint64_t wal_failures = 0;        ///< fail-stop trips (sticky: stays 1)
  uint64_t checkpoints = 0;         ///< checkpoints published
  uint64_t snapshot_publishes = 0;  ///< mmap arenas published (§14)
  uint64_t recovery_replayed = 0;   ///< committed WAL ops replayed at Open
  uint64_t recovery_truncated_bytes = 0;  ///< torn tail bytes repaired

  // --- replication (persist/replication.h + api/replica_service.h,
  // DESIGN.md §13; all zero without a shipper/replica attached) -------------
  uint64_t repl_checkpoints_shipped = 0;  ///< checkpoint images shipped
  uint64_t repl_segments_shipped = 0;     ///< WAL segments started shipping
  uint64_t repl_bytes_shipped = 0;        ///< segment bytes shipped
  uint64_t repl_ops_applied = 0;          ///< replica: replay ops applied
  uint64_t repl_reconnects = 0;    ///< transport recoveries after faults
  uint64_t repl_backoff_sleeps = 0;  ///< retry backoff sleeps taken
  uint64_t repl_rebootstraps = 0;  ///< replica restarts from a checkpoint
  uint64_t repl_failovers = 0;     ///< Promote() calls completed

  /// Replica-only gauges, filled in by ReplicaService::Metrics() (zero in
  /// a snapshot taken directly from ServiceMetrics::Snapshot(), which
  /// only aggregates monotone counters).
  uint64_t replica_applied_generation = 0;  ///< generation the replica serves
  uint64_t replica_lag = 0;  ///< primary durable generation minus applied

  // --- hot-pair cache (core/pair_cache.h, DESIGN.md §15; all zero unless
  // DynamicSpcOptions::pair_cache.enabled). Filled in by
  // SpcService::Metrics() from the cache's own counters — the same
  // overlay pattern as the replica gauges above. ---------------------------
  uint64_t pair_cache_hits = 0;        ///< exact-generation lookup hits
  uint64_t pair_cache_misses = 0;      ///< lookups that computed the answer
  uint64_t pair_cache_insertions = 0;  ///< misses admitted (incl. upserts)
  uint64_t pair_cache_evictions = 0;   ///< live same-generation displacements

  /// Yields taken by paced snapshot reads (DynamicSpcIndex::
  /// ReaderPacingYields, DESIGN.md §8). Filled in by SpcService::Metrics()
  /// from the engine's counter, like the cache counters above; 0 on a
  /// mapped reader, which has no writer to yield to.
  uint64_t reader_pacing_yields = 0;

  /// Served queries across all modes (equals the staleness histogram's
  /// total population).
  uint64_t TotalQueries() const {
    return queries_by_mode[0] + queries_by_mode[1] + queries_by_mode[2];
  }

  /// Sum over the staleness histogram (== TotalQueries(); separate for
  /// tests asserting no sample is lost).
  uint64_t StalenessSamples() const;

  /// Total latency samples recorded for `mode`.
  uint64_t LatencySamples(size_t mode) const;

  /// Approximate quantile (q in [0,1]) of the sampled read latency for
  /// `mode`, in nanoseconds, interpolated linearly within the winning
  /// log bucket. 0 when no samples were recorded.
  uint64_t ReadLatencyQuantileNs(size_t mode, double q) const;

  /// Prometheus text exposition (version 0.0.4) of every value in this
  /// snapshot: the read-cube aggregates, the staleness, read-latency and
  /// read/write batch-size histograms (cumulative `le` buckets), then one
  /// series per ServiceMetrics::Counter row. The one text rendering of
  /// the metrics: serve it verbatim from a /metrics endpoint, or print
  /// it from a log, an example or a bench.
  std::string PrometheusText() const;

  /// Bucket index helpers (shared by recording and by tests asserting on
  /// specific buckets). Header-inline: StalenessBucket runs per served
  /// query.
  static size_t StalenessBucket(uint64_t lag) {
    if (lag <= 2) return static_cast<size_t>(lag);
    if (lag <= 4) return 3;
    if (lag <= 8) return 4;
    if (lag <= 16) return 5;
    if (lag <= 64) return 6;
    return 7;
  }
  static size_t BatchBucket(size_t size) {
    if (size <= 1) return 0;
    if (size <= 4) return 1;
    if (size <= 16) return 2;
    if (size <= 64) return 3;
    if (size <= 256) return 4;
    if (size <= 1024) return 5;
    if (size <= 4096) return 6;
    return 7;
  }
  static size_t LatencyBucket(uint64_t ns) {
    if (ns < 256) return 0;
    const size_t b = static_cast<size_t>(std::bit_width(ns >> 7)) - 1;
    return b < kLatencyBuckets ? b : kLatencyBuckets - 1;
  }
  /// Exclusive upper bound of latency bucket `b` in ns (the top bucket
  /// reports its nominal bound but is unbounded).
  static uint64_t LatencyBucketUpperNs(size_t b) {
    return uint64_t{256} << b;
  }
};

/// The recording side. Every method is safe to call from any number of
/// threads concurrently; Snapshot() may race with recorders (see the file
/// comment for the exact guarantees).
class ServiceMetrics {
 public:
  /// The scalar metrics, each one row of the descriptor table in
  /// service_metrics.cc (its MetricsSnapshot field, Prometheus name and
  /// labels, help text, and counter or gauge kind), in exposition order.
  /// Rows before kFirstOverlay are sharded counters, recorded with Add().
  /// The rest are overlays with no shard slot: the owning service's
  /// Metrics() fills them from state kept elsewhere (the replica's applied
  /// generation, the pair cache's and the engine's own counters).
  enum class Counter : size_t {
    kReadDeadlineMisses,
    kWaitDeadlineMisses,
    kRejectedInvalidArgument,
    kRejectedUnavailable,
    kRejectedNotSupported,
    kReadBatches,
    kReadBatchQueries,
    kWriteBatches,
    kUpdatesApplied,
    kUpdatesNoop,
    kUpdatesRejected,
    kWalAppends,
    kWalAppendedBytes,
    kWalSyncs,
    kWalDurableWaits,
    kWalFailures,
    kCheckpoints,
    kSnapshotPublishes,
    kRecoveryReplayed,
    kRecoveryTruncatedBytes,
    kReplCheckpointsShipped,
    kReplSegmentsShipped,
    kReplBytesShipped,
    kReplOpsApplied,
    kReplReconnects,
    kReplBackoffSleeps,
    kReplRebootstraps,
    kReplFailovers,
    kReplicaAppliedGeneration,  // first overlay
    kReplicaLag,
    kPairCacheHits,
    kPairCacheMisses,
    kPairCacheInsertions,
    kPairCacheEvictions,
    kReaderPacingYields,
    kCount,
  };
  static constexpr size_t kFirstOverlay =
      static_cast<size_t>(Counter::kReplicaAppliedGeneration);

  ServiceMetrics() = default;
  ServiceMetrics(const ServiceMetrics&) = delete;
  ServiceMetrics& operator=(const ServiceMetrics&) = delete;

  /// Adds `n` to sharded counter `c` (one relaxed fetch-add; `c` must
  /// precede kFirstOverlay).
  void Add(Counter c, uint64_t n = 1) {
    assert(static_cast<size_t>(c) < kFirstOverlay);
    AddSlot(static_cast<size_t>(c), n);
  }

  /// One served read call: `queries` answers (1 for Query, pairs.size()
  /// for QueryBatch) under `mode`, answered by `from` with the source
  /// trailing the index by `staleness` generations at admission.
  /// `batch` marks QueryBatch calls (feeds the batch-size histogram).
  /// Header-inline: this is the serving hot path, and out-of-line the
  /// call alone measurably dents the service's ~2% overhead budget.
  void RecordRead(Consistency mode, ServedFrom from, uint64_t staleness,
                  size_t queries, bool batch);

  /// A call refused at admission/routing with `code` (kInvalidArgument,
  /// kUnavailable, or kNotSupported; other codes are not counted).
  void RecordRejected(Status::Code code);

  /// One admitted write call of `batch_size` input updates with the given
  /// per-update outcome tallies (from the WriteReports).
  void RecordWrite(size_t batch_size, size_t applied, size_t noops,
                   size_t rejected);

  /// One sampled read-call timing under `mode`. Out-of-line: callers
  /// sample (1-in-64 single queries; every batch), so this is off the
  /// per-query hot path by construction.
  void RecordReadLatency(Consistency mode, uint64_t ns);

  /// Sums all shards into one consistent-enough view (monotone counters;
  /// see the file comment). Overlay rows read 0.
  MetricsSnapshot Snapshot() const;

  /// Adds the shard sums into `snap`: how ReplicaService folds its own
  /// replication counters into its inner service's snapshot.
  void AddTo(MetricsSnapshot* snap) const;

 private:
  // Shard slots: the sharded Counter rows first (slot == enum value), then
  // the read cube, which folds (mode, served_from, staleness bucket) into
  // one counter so a served single query records with ONE fetch-add:
  //   slot = kReadCube + (mode * 2 + served_from) * kStalenessBuckets + bucket
  // then the batch-size histograms, the latency histogram and its sums,
  // and the staleness sum.
  static constexpr size_t kReadCube = kFirstOverlay;
  static constexpr size_t kReadBatchHist =
      kReadCube +
      MetricsSnapshot::kModes * 2 * MetricsSnapshot::kStalenessBuckets;
  static constexpr size_t kWriteBatchHist =
      kReadBatchHist + MetricsSnapshot::kBatchBuckets;
  static constexpr size_t kReadLatencyHist =
      kWriteBatchHist + MetricsSnapshot::kBatchBuckets;
  static constexpr size_t kReadLatencySumNs =
      kReadLatencyHist +
      MetricsSnapshot::kModes * MetricsSnapshot::kLatencyBuckets;
  static constexpr size_t kStalenessSum =
      kReadLatencySumNs + MetricsSnapshot::kModes;
  static constexpr size_t kSlots = kStalenessSum + 1;

  /// Concurrency stripe count. Threads are assigned round-robin by a
  /// thread_local slot; 16 stripes keep even a saturated reader fleet
  /// mostly contention-free while Snapshot() stays trivially cheap.
  static constexpr size_t kShards = 16;

  struct alignas(64) Shard {
    std::array<std::atomic<uint64_t>, kSlots> counters{};
  };

  /// This thread's shard (stable per thread, assigned on first use; the
  /// slot is shared across instances — it is an index, not state).
  Shard& Local() {
    static std::atomic<size_t> next{0};
    thread_local const size_t slot =
        next.fetch_add(1, std::memory_order_relaxed) % kShards;
    return shards_[slot];
  }

  void AddSlot(size_t slot, uint64_t delta) {
    Local().counters[slot].fetch_add(delta, std::memory_order_relaxed);
  }

  /// Out-of-line tail of RecordRead for batch calls (not hot per query).
  void RecordBatchTail(size_t queries);

  std::array<Shard, kShards> shards_;
};

inline void ServiceMetrics::RecordRead(Consistency mode, ServedFrom from,
                                       uint64_t staleness, size_t queries,
                                       bool batch) {
  // A fresh single query records with this one relaxed increment; only a
  // stale read also adds its lag to the staleness sum. The enums are
  // opaque here, so the cube folds their raw values; the static_asserts
  // in spc_service.cc pin the coupling (ServedFrom::kSnapshot == 0,
  // kModes consistency values).
  const size_t cube =
      (static_cast<size_t>(mode) * 2 + static_cast<size_t>(from)) *
          MetricsSnapshot::kStalenessBuckets +
      MetricsSnapshot::StalenessBucket(staleness);
  AddSlot(kReadCube + cube, queries);
  if (staleness != 0) AddSlot(kStalenessSum, staleness * queries);
  if (batch) [[unlikely]] {
    RecordBatchTail(queries);
  }
}

}  // namespace dspc

#endif  // DSPC_API_SERVICE_METRICS_H_
