#include "dspc/api/service_metrics.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "dspc/api/spc_service.h"

namespace dspc {

namespace {

const char* kStalenessLabels[MetricsSnapshot::kStalenessBuckets] = {
    "0", "1", "2", "3-4", "5-8", "9-16", "17-64", ">64"};
const char* kBatchLabels[MetricsSnapshot::kBatchBuckets] = {
    "1", "2-4", "5-16", "17-64", "65-256", "257-1K", "1K-4K", ">4K"};

void AppendHist(std::string* out, const char* const* labels,
                const uint64_t* buckets, size_t n) {
  char buf[64];
  for (size_t i = 0; i < n; ++i) {
    if (buckets[i] == 0) continue;  // dense dumps drown the signal
    std::snprintf(buf, sizeof(buf), " %s:%" PRIu64, labels[i], buckets[i]);
    *out += buf;
  }
}

}  // namespace

uint64_t MetricsSnapshot::StalenessSamples() const {
  uint64_t total = 0;
  for (const uint64_t b : staleness_hist) total += b;
  return total;
}

uint64_t MetricsSnapshot::LatencySamples(size_t mode) const {
  uint64_t total = 0;
  for (const uint64_t b : read_latency_hist[mode]) total += b;
  return total;
}

uint64_t MetricsSnapshot::ReadLatencyQuantileNs(size_t mode, double q) const {
  const uint64_t total = LatencySamples(mode);
  if (total == 0) return 0;
  if (q < 0) q = 0;
  if (q > 1) q = 1;
  // Rank of the wanted sample (1-based, ceil), then walk the buckets.
  uint64_t rank =
      static_cast<uint64_t>(std::ceil(q * static_cast<double>(total)));
  if (rank == 0) rank = 1;
  if (rank > total) rank = total;
  uint64_t seen = 0;
  for (size_t b = 0; b < kLatencyBuckets; ++b) {
    const uint64_t n = read_latency_hist[mode][b];
    if (seen + n < rank) {
      seen += n;
      continue;
    }
    // Linear interpolation inside the winning bucket.
    const uint64_t upper = LatencyBucketUpperNs(b);
    const uint64_t lower = b == 0 ? 0 : LatencyBucketUpperNs(b - 1);
    const double frac =
        n == 0 ? 1.0
               : static_cast<double>(rank - seen) / static_cast<double>(n);
    return lower +
           static_cast<uint64_t>(frac * static_cast<double>(upper - lower));
  }
  return LatencyBucketUpperNs(kLatencyBuckets - 1);
}

std::string MetricsSnapshot::ToString() const {
  const uint64_t total = TotalQueries();
  const uint64_t served = served_from_snapshot + served_from_live;
  char buf[256];
  std::string out = "SpcService metrics\n";

  std::snprintf(buf, sizeof(buf),
                "  queries: total=%" PRIu64 " fresh=%" PRIu64
                " snapshot=%" PRIu64 " bounded=%" PRIu64 "\n",
                total, queries_by_mode[0], queries_by_mode[1],
                queries_by_mode[2]);
  out += buf;

  std::snprintf(
      buf, sizeof(buf),
      "  served_from: snapshot=%" PRIu64 " (%.1f%%) live=%" PRIu64
      " (%.1f%%)\n",
      served_from_snapshot,
      served > 0 ? 100.0 * static_cast<double>(served_from_snapshot) /
                       static_cast<double>(served)
                 : 0.0,
      served_from_live,
      served > 0 ? 100.0 * static_cast<double>(served_from_live) /
                       static_cast<double>(served)
                 : 0.0);
  out += buf;

  out += "  staleness (generations behind, per served query):";
  AppendHist(&out, kStalenessLabels, staleness_hist.data(),
             kStalenessBuckets);
  if (StalenessSamples() == 0) out += " (none)";
  out += "\n";

  static const char* kModeNames[kModes] = {"fresh", "snapshot", "bounded"};
  for (size_t m = 0; m < kModes; ++m) {
    const uint64_t n = LatencySamples(m);
    if (n == 0) continue;
    std::snprintf(buf, sizeof(buf),
                  "  read_latency[%s]: samples=%" PRIu64 " mean=%.1fus"
                  " p50=%.1fus p99=%.1fus\n",
                  kModeNames[m], n,
                  static_cast<double>(read_latency_sum_ns[m]) /
                      static_cast<double>(n) / 1e3,
                  static_cast<double>(ReadLatencyQuantileNs(m, 0.5)) / 1e3,
                  static_cast<double>(ReadLatencyQuantileNs(m, 0.99)) / 1e3);
    out += buf;
  }

  std::snprintf(buf, sizeof(buf),
                "  deadline_misses: reads=%" PRIu64
                " wait_for_snapshot=%" PRIu64 "\n",
                deadline_misses_read, deadline_misses_wait);
  out += buf;

  std::snprintf(buf, sizeof(buf),
                "  rejected: invalid_argument=%" PRIu64
                " unavailable=%" PRIu64 " not_supported=%" PRIu64 "\n",
                rejected_invalid_argument, rejected_unavailable,
                rejected_not_supported);
  out += buf;

  std::snprintf(buf, sizeof(buf),
                "  read_batches: calls=%" PRIu64 " queries=%" PRIu64
                " sizes:",
                read_batches, read_batch_queries);
  out += buf;
  AppendHist(&out, kBatchLabels, read_batch_size_hist.data(), kBatchBuckets);
  out += "\n";

  std::snprintf(buf, sizeof(buf),
                "  writes: batches=%" PRIu64 " applied=%" PRIu64
                " noop=%" PRIu64 " rejected=%" PRIu64 " sizes:",
                write_batches, updates_applied, updates_noop,
                updates_rejected);
  out += buf;
  AppendHist(&out, kBatchLabels, write_batch_size_hist.data(),
             kBatchBuckets);
  out += "\n";

  std::snprintf(buf, sizeof(buf),
                "  durability: wal_appends=%" PRIu64 " wal_bytes=%" PRIu64
                " wal_syncs=%" PRIu64 " durable_waits=%" PRIu64
                " failures=%" PRIu64 " checkpoints=%" PRIu64
                " snapshot_publishes=%" PRIu64 "\n",
                wal_appends, wal_appended_bytes, wal_syncs,
                wal_durable_waits, wal_failures, checkpoints,
                snapshot_publishes);
  out += buf;

  std::snprintf(buf, sizeof(buf),
                "  recovery: replayed=%" PRIu64
                " truncated_tail_bytes=%" PRIu64 "\n",
                recovery_replayed, recovery_truncated_bytes);
  out += buf;

  std::snprintf(buf, sizeof(buf),
                "  replication: ckpts_shipped=%" PRIu64
                " segments_shipped=%" PRIu64 " bytes_shipped=%" PRIu64
                " ops_applied=%" PRIu64 "\n",
                repl_checkpoints_shipped, repl_segments_shipped,
                repl_bytes_shipped, repl_ops_applied);
  out += buf;

  std::snprintf(buf, sizeof(buf),
                "  replication_health: reconnects=%" PRIu64
                " backoff_sleeps=%" PRIu64 " rebootstraps=%" PRIu64
                " failovers=%" PRIu64 " applied_gen=%" PRIu64 " lag=%" PRIu64
                "\n",
                repl_reconnects, repl_backoff_sleeps, repl_rebootstraps,
                repl_failovers, replica_applied_generation, replica_lag);
  out += buf;

  const uint64_t pair_cache_lookups = pair_cache_hits + pair_cache_misses;
  std::snprintf(buf, sizeof(buf),
                "  pair_cache: hits=%" PRIu64 " misses=%" PRIu64
                " (hit %.1f%%) insertions=%" PRIu64 " evictions=%" PRIu64
                "\n",
                pair_cache_hits, pair_cache_misses,
                pair_cache_lookups != 0
                    ? 100.0 * static_cast<double>(pair_cache_hits) /
                          static_cast<double>(pair_cache_lookups)
                    : 0.0,
                pair_cache_insertions, pair_cache_evictions);
  out += buf;

  std::snprintf(buf, sizeof(buf), "  reader_pacing: yields=%" PRIu64 "\n",
                reader_pacing_yields);
  out += buf;
  return out;
}

namespace {

void PromCounter(std::string* out, const char* name, const char* help,
                 uint64_t value, const char* labels = nullptr) {
  char buf[256];
  if (help != nullptr) {
    std::snprintf(buf, sizeof(buf), "# HELP %s %s\n# TYPE %s counter\n",
                  name, help, name);
    *out += buf;
  }
  std::snprintf(buf, sizeof(buf), "%s%s %" PRIu64 "\n", name,
                labels != nullptr ? labels : "", value);
  *out += buf;
}

void PromGauge(std::string* out, const char* name, const char* help,
               uint64_t value) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "# HELP %s %s\n# TYPE %s gauge\n%s %" PRIu64 "\n", name,
                help, name, name, value);
  *out += buf;
}

}  // namespace

std::string MetricsSnapshot::PrometheusText() const {
  static const char* kModeNames[kModes] = {"fresh", "snapshot", "bounded"};
  std::string out;
  char buf[256];

  out +=
      "# HELP dspc_queries_total Served queries by consistency mode.\n"
      "# TYPE dspc_queries_total counter\n";
  for (size_t m = 0; m < kModes; ++m) {
    std::snprintf(buf, sizeof(buf),
                  "dspc_queries_total{mode=\"%s\"} %" PRIu64 "\n",
                  kModeNames[m], queries_by_mode[m]);
    out += buf;
  }

  out +=
      "# HELP dspc_served_from_total Served queries by serving source.\n"
      "# TYPE dspc_served_from_total counter\n";
  std::snprintf(buf, sizeof(buf),
                "dspc_served_from_total{source=\"snapshot\"} %" PRIu64
                "\ndspc_served_from_total{source=\"live\"} %" PRIu64 "\n",
                served_from_snapshot, served_from_live);
  out += buf;

  // Staleness as a native Prometheus histogram: cumulative buckets keyed
  // by each bucket's inclusive upper bound in generations.
  out +=
      "# HELP dspc_read_staleness_generations Serving-source staleness per"
      " served query, in generations.\n"
      "# TYPE dspc_read_staleness_generations histogram\n";
  {
    static const char* kUpper[kStalenessBuckets] = {"0",  "1",  "2",  "4",
                                                    "8",  "16", "64", "+Inf"};
    uint64_t cum = 0;
    for (size_t b = 0; b < kStalenessBuckets; ++b) {
      cum += staleness_hist[b];
      std::snprintf(
          buf, sizeof(buf),
          "dspc_read_staleness_generations_bucket{le=\"%s\"} %" PRIu64 "\n",
          kUpper[b], cum);
      out += buf;
    }
    std::snprintf(buf, sizeof(buf),
                  "dspc_read_staleness_generations_count %" PRIu64 "\n",
                  cum);
    out += buf;
  }

  out +=
      "# HELP dspc_read_latency_seconds Sampled read-call latency by"
      " consistency mode.\n"
      "# TYPE dspc_read_latency_seconds histogram\n";
  for (size_t m = 0; m < kModes; ++m) {
    uint64_t cum = 0;
    for (size_t b = 0; b < kLatencyBuckets; ++b) {
      cum += read_latency_hist[m][b];
      if (b + 1 == kLatencyBuckets) {
        std::snprintf(buf, sizeof(buf),
                      "dspc_read_latency_seconds_bucket{mode=\"%s\","
                      "le=\"+Inf\"} %" PRIu64 "\n",
                      kModeNames[m], cum);
      } else {
        std::snprintf(buf, sizeof(buf),
                      "dspc_read_latency_seconds_bucket{mode=\"%s\","
                      "le=\"%.9g\"} %" PRIu64 "\n",
                      kModeNames[m],
                      static_cast<double>(LatencyBucketUpperNs(b)) / 1e9,
                      cum);
      }
      out += buf;
    }
    std::snprintf(buf, sizeof(buf),
                  "dspc_read_latency_seconds_sum{mode=\"%s\"} %.9g\n"
                  "dspc_read_latency_seconds_count{mode=\"%s\"} %" PRIu64
                  "\n",
                  kModeNames[m],
                  static_cast<double>(read_latency_sum_ns[m]) / 1e9,
                  kModeNames[m], cum);
    out += buf;
  }

  PromCounter(&out, "dspc_read_deadline_misses_total",
              "Reads that returned kDeadlineExceeded.",
              deadline_misses_read);
  PromCounter(&out, "dspc_wait_deadline_misses_total",
              "WaitForSnapshot timeouts.", deadline_misses_wait);
  out +=
      "# HELP dspc_rejected_total Calls refused at admission, by code.\n"
      "# TYPE dspc_rejected_total counter\n";
  std::snprintf(buf, sizeof(buf),
                "dspc_rejected_total{code=\"invalid_argument\"} %" PRIu64
                "\ndspc_rejected_total{code=\"unavailable\"} %" PRIu64
                "\ndspc_rejected_total{code=\"not_supported\"} %" PRIu64
                "\n",
                rejected_invalid_argument, rejected_unavailable,
                rejected_not_supported);
  out += buf;

  PromCounter(&out, "dspc_read_batches_total", "QueryBatch calls served.",
              read_batches);
  PromCounter(&out, "dspc_read_batch_queries_total",
              "Queries across served batches.", read_batch_queries);
  PromCounter(&out, "dspc_write_batches_total", "Admitted write calls.",
              write_batches);
  out +=
      "# HELP dspc_updates_total Per-update write outcomes.\n"
      "# TYPE dspc_updates_total counter\n";
  std::snprintf(buf, sizeof(buf),
                "dspc_updates_total{outcome=\"applied\"} %" PRIu64
                "\ndspc_updates_total{outcome=\"noop\"} %" PRIu64
                "\ndspc_updates_total{outcome=\"rejected\"} %" PRIu64 "\n",
                updates_applied, updates_noop, updates_rejected);
  out += buf;

  PromCounter(&out, "dspc_wal_appends_total", "WAL records appended.",
              wal_appends);
  PromCounter(&out, "dspc_wal_appended_bytes_total",
              "Framed WAL bytes appended.", wal_appended_bytes);
  PromCounter(&out, "dspc_wal_syncs_total", "WAL fsyncs.", wal_syncs);
  PromCounter(&out, "dspc_wal_durable_waits_total",
              "Writes that waited on group commit.", wal_durable_waits);
  PromCounter(&out, "dspc_wal_failures_total",
              "Durability fail-stop trips.", wal_failures);
  PromCounter(&out, "dspc_checkpoints_total", "Checkpoints published.",
              checkpoints);
  PromCounter(&out, "dspc_snapshot_publishes_total",
              "Mmap snapshot arenas published.", snapshot_publishes);
  PromCounter(&out, "dspc_recovery_replayed_total",
              "Committed WAL ops replayed at Open.", recovery_replayed);
  PromCounter(&out, "dspc_recovery_truncated_bytes_total",
              "Torn WAL tail bytes repaired.", recovery_truncated_bytes);

  PromCounter(&out, "dspc_repl_checkpoints_shipped_total",
              "Checkpoint images shipped.", repl_checkpoints_shipped);
  PromCounter(&out, "dspc_repl_segments_shipped_total",
              "WAL segments started shipping.", repl_segments_shipped);
  PromCounter(&out, "dspc_repl_bytes_shipped_total",
              "Segment bytes shipped.", repl_bytes_shipped);
  PromCounter(&out, "dspc_repl_ops_applied_total",
              "Replica replay ops applied.", repl_ops_applied);
  PromCounter(&out, "dspc_repl_reconnects_total",
              "Transport recoveries after faults.", repl_reconnects);
  PromCounter(&out, "dspc_repl_backoff_sleeps_total",
              "Retry backoff sleeps taken.", repl_backoff_sleeps);
  PromCounter(&out, "dspc_repl_rebootstraps_total",
              "Replica restarts from a checkpoint.", repl_rebootstraps);
  PromCounter(&out, "dspc_repl_failovers_total", "Promote() completions.",
              repl_failovers);
  PromGauge(&out, "dspc_replica_applied_generation",
            "Generation the replica serves.", replica_applied_generation);
  PromGauge(&out, "dspc_replica_lag_generations",
            "Primary durable generation minus applied.", replica_lag);

  PromCounter(&out, "dspc_pair_cache_lookups_total",
              "Hot-pair cache lookups by outcome.", pair_cache_hits,
              "{outcome=\"hit\"}");
  PromCounter(&out, "dspc_pair_cache_lookups_total", nullptr,
              pair_cache_misses, "{outcome=\"miss\"}");
  PromCounter(&out, "dspc_pair_cache_insertions_total",
              "Hot-pair cache entries written.", pair_cache_insertions);
  PromCounter(&out, "dspc_pair_cache_evictions_total",
              "Live same-generation entries displaced.",
              pair_cache_evictions);
  PromCounter(&out, "dspc_reader_pacing_yields_total",
              "Yields taken by paced snapshot reads.", reader_pacing_yields);
  return out;
}

void ServiceMetrics::RecordBatchTail(size_t queries) {
  if (queries == 0) return;  // an empty batch served nothing — no sample
  Add(kReadBatches, 1);
  Add(kReadBatchQueries, queries);
  Add(kReadBatchHist + MetricsSnapshot::BatchBucket(queries), 1);
}

void ServiceMetrics::RecordReadDeadlineMiss() { Add(kDeadlineRead, 1); }

void ServiceMetrics::RecordWaitDeadlineMiss() { Add(kDeadlineWait, 1); }

void ServiceMetrics::RecordRejected(Status::Code code) {
  switch (code) {
    case Status::Code::kInvalidArgument:
      Add(kRejInvalidArgument, 1);
      break;
    case Status::Code::kUnavailable:
      Add(kRejUnavailable, 1);
      break;
    case Status::Code::kNotSupported:
      Add(kRejNotSupported, 1);
      break;
    default:
      break;  // not an admission outcome; nothing to count
  }
}

void ServiceMetrics::RecordWrite(size_t batch_size, size_t applied,
                                 size_t noops, size_t rejected) {
  if (batch_size == 0) return;  // nothing admitted — not a write batch
  Shard& shard = Local();
  const auto add = [&shard](size_t counter, uint64_t delta) {
    shard.counters[counter].fetch_add(delta, std::memory_order_relaxed);
  };
  add(kWriteBatches, 1);
  add(kWriteBatchHist + MetricsSnapshot::BatchBucket(batch_size), 1);
  if (applied > 0) add(kUpdatesApplied, applied);
  if (noops > 0) add(kUpdatesNoop, noops);
  if (rejected > 0) add(kUpdatesRejected, rejected);
}

void ServiceMetrics::RecordWalAppend(uint64_t bytes) {
  Shard& shard = Local();
  shard.counters[kWalAppends].fetch_add(1, std::memory_order_relaxed);
  shard.counters[kWalAppendedBytes].fetch_add(bytes,
                                              std::memory_order_relaxed);
}

void ServiceMetrics::RecordWalSync() { Add(kWalSyncs, 1); }

void ServiceMetrics::RecordWalDurableWait() { Add(kWalDurableWaits, 1); }

void ServiceMetrics::RecordWalFailure() { Add(kWalFailures, 1); }

void ServiceMetrics::RecordCheckpoint() { Add(kCheckpoints, 1); }

void ServiceMetrics::RecordSnapshotPublish() { Add(kSnapshotPublishes, 1); }

void ServiceMetrics::RecordReadLatency(Consistency mode, uint64_t ns) {
  const size_t m = static_cast<size_t>(mode);
  Shard& shard = Local();
  shard.counters[kReadLatencyHist +
                 m * MetricsSnapshot::kLatencyBuckets +
                 MetricsSnapshot::LatencyBucket(ns)]
      .fetch_add(1, std::memory_order_relaxed);
  shard.counters[kReadLatencySumNs + m].fetch_add(ns,
                                                  std::memory_order_relaxed);
}

void ServiceMetrics::RecordRecovery(uint64_t replayed,
                                    uint64_t truncated_tail_bytes) {
  Shard& shard = Local();
  shard.counters[kRecoveryReplayed].fetch_add(replayed,
                                              std::memory_order_relaxed);
  shard.counters[kRecoveryTruncatedBytes].fetch_add(
      truncated_tail_bytes, std::memory_order_relaxed);
}

void ServiceMetrics::RecordCheckpointShipped() {
  Add(kReplCheckpointsShipped, 1);
}

void ServiceMetrics::RecordSegmentShipped() { Add(kReplSegmentsShipped, 1); }

void ServiceMetrics::RecordShippedBytes(uint64_t bytes) {
  Add(kReplBytesShipped, bytes);
}

void ServiceMetrics::RecordReplReconnect() { Add(kReplReconnects, 1); }

void ServiceMetrics::RecordReplBackoffSleep() { Add(kReplBackoffSleeps, 1); }

void ServiceMetrics::RecordRebootstrap() { Add(kReplRebootstraps, 1); }

void ServiceMetrics::RecordReplApplied(uint64_t ops) {
  if (ops > 0) Add(kReplOpsApplied, ops);
}

void ServiceMetrics::RecordFailover() { Add(kReplFailovers, 1); }

MetricsSnapshot ServiceMetrics::Snapshot() const {
  std::array<uint64_t, kNumCounters> sum{};
  for (const Shard& shard : shards_) {
    for (size_t c = 0; c < kNumCounters; ++c) {
      sum[c] += shard.counters[c].load(std::memory_order_relaxed);
    }
  }
  MetricsSnapshot snap;
  // Unfold the (mode × served_from × staleness bucket) cube into the
  // three separate read aggregates.
  for (size_t m = 0; m < MetricsSnapshot::kModes; ++m) {
    for (size_t f = 0; f < 2; ++f) {
      for (size_t b = 0; b < MetricsSnapshot::kStalenessBuckets; ++b) {
        const uint64_t v =
            sum[kReadCube +
                (m * 2 + f) * MetricsSnapshot::kStalenessBuckets + b];
        snap.queries_by_mode[m] += v;
        (f == 0 ? snap.served_from_snapshot : snap.served_from_live) += v;
        snap.staleness_hist[b] += v;
      }
    }
  }
  snap.deadline_misses_read = sum[kDeadlineRead];
  snap.deadline_misses_wait = sum[kDeadlineWait];
  snap.rejected_invalid_argument = sum[kRejInvalidArgument];
  snap.rejected_unavailable = sum[kRejUnavailable];
  snap.rejected_not_supported = sum[kRejNotSupported];
  snap.read_batches = sum[kReadBatches];
  snap.read_batch_queries = sum[kReadBatchQueries];
  for (size_t b = 0; b < MetricsSnapshot::kBatchBuckets; ++b) {
    snap.read_batch_size_hist[b] = sum[kReadBatchHist + b];
    snap.write_batch_size_hist[b] = sum[kWriteBatchHist + b];
  }
  snap.write_batches = sum[kWriteBatches];
  snap.updates_applied = sum[kUpdatesApplied];
  snap.updates_noop = sum[kUpdatesNoop];
  snap.updates_rejected = sum[kUpdatesRejected];
  snap.wal_appends = sum[kWalAppends];
  snap.wal_appended_bytes = sum[kWalAppendedBytes];
  snap.wal_syncs = sum[kWalSyncs];
  snap.wal_durable_waits = sum[kWalDurableWaits];
  snap.wal_failures = sum[kWalFailures];
  snap.checkpoints = sum[kCheckpoints];
  snap.snapshot_publishes = sum[kSnapshotPublishes];
  snap.recovery_replayed = sum[kRecoveryReplayed];
  snap.recovery_truncated_bytes = sum[kRecoveryTruncatedBytes];
  snap.repl_checkpoints_shipped = sum[kReplCheckpointsShipped];
  snap.repl_segments_shipped = sum[kReplSegmentsShipped];
  snap.repl_bytes_shipped = sum[kReplBytesShipped];
  snap.repl_ops_applied = sum[kReplOpsApplied];
  snap.repl_reconnects = sum[kReplReconnects];
  snap.repl_backoff_sleeps = sum[kReplBackoffSleeps];
  snap.repl_rebootstraps = sum[kReplRebootstraps];
  snap.repl_failovers = sum[kReplFailovers];
  for (size_t m = 0; m < MetricsSnapshot::kModes; ++m) {
    for (size_t b = 0; b < MetricsSnapshot::kLatencyBuckets; ++b) {
      snap.read_latency_hist[m][b] =
          sum[kReadLatencyHist + m * MetricsSnapshot::kLatencyBuckets + b];
    }
    snap.read_latency_sum_ns[m] = sum[kReadLatencySumNs + m];
  }
  return snap;
}

}  // namespace dspc
