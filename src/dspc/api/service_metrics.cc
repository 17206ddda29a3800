#include "dspc/api/service_metrics.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <span>

#include "dspc/api/spc_service.h"

namespace dspc {

namespace {

using Counter = ServiceMetrics::Counter;

enum class Kind : bool { kCounter, kGauge };

/// One scalar metric. Consecutive rows that share a name are one labelled
/// family; the family's help text and kind come from its first row.
struct Row {
  Counter counter;
  uint64_t MetricsSnapshot::*field;
  const char* name;
  const char* labels;  ///< "" or `key="value"`
  const char* help;
  Kind kind = Kind::kCounter;
};

using M = MetricsSnapshot;

constexpr Row kRows[] = {
    {Counter::kReadDeadlineMisses, &M::deadline_misses_read,
     "dspc_read_deadline_misses_total", "",
     "Reads that returned kDeadlineExceeded."},
    {Counter::kWaitDeadlineMisses, &M::deadline_misses_wait,
     "dspc_wait_deadline_misses_total", "", "WaitForSnapshot timeouts."},
    {Counter::kRejectedInvalidArgument, &M::rejected_invalid_argument,
     "dspc_rejected_total", "code=\"invalid_argument\"",
     "Calls refused at admission, by code."},
    {Counter::kRejectedUnavailable, &M::rejected_unavailable,
     "dspc_rejected_total", "code=\"unavailable\"", ""},
    {Counter::kRejectedNotSupported, &M::rejected_not_supported,
     "dspc_rejected_total", "code=\"not_supported\"", ""},
    {Counter::kReadBatches, &M::read_batches, "dspc_read_batches_total", "",
     "QueryBatch calls served."},
    {Counter::kReadBatchQueries, &M::read_batch_queries,
     "dspc_read_batch_queries_total", "", "Queries across served batches."},
    {Counter::kWriteBatches, &M::write_batches, "dspc_write_batches_total",
     "", "Admitted write calls."},
    {Counter::kUpdatesApplied, &M::updates_applied, "dspc_updates_total",
     "outcome=\"applied\"", "Per-update write outcomes."},
    {Counter::kUpdatesNoop, &M::updates_noop, "dspc_updates_total",
     "outcome=\"noop\"", ""},
    {Counter::kUpdatesRejected, &M::updates_rejected, "dspc_updates_total",
     "outcome=\"rejected\"", ""},
    {Counter::kWalAppends, &M::wal_appends, "dspc_wal_appends_total", "",
     "WAL records appended."},
    {Counter::kWalAppendedBytes, &M::wal_appended_bytes,
     "dspc_wal_appended_bytes_total", "", "Framed WAL bytes appended."},
    {Counter::kWalSyncs, &M::wal_syncs, "dspc_wal_syncs_total", "",
     "WAL fsyncs."},
    {Counter::kWalDurableWaits, &M::wal_durable_waits,
     "dspc_wal_durable_waits_total", "",
     "Writes that waited on group commit."},
    {Counter::kWalFailures, &M::wal_failures, "dspc_wal_failures_total", "",
     "Durability fail-stop trips."},
    {Counter::kCheckpoints, &M::checkpoints, "dspc_checkpoints_total", "",
     "Checkpoints published."},
    {Counter::kSnapshotPublishes, &M::snapshot_publishes,
     "dspc_snapshot_publishes_total", "", "Mmap snapshot arenas published."},
    {Counter::kRecoveryReplayed, &M::recovery_replayed,
     "dspc_recovery_replayed_total", "",
     "Committed WAL ops replayed at Open."},
    {Counter::kRecoveryTruncatedBytes, &M::recovery_truncated_bytes,
     "dspc_recovery_truncated_bytes_total", "",
     "Torn WAL tail bytes repaired."},
    {Counter::kReplCheckpointsShipped, &M::repl_checkpoints_shipped,
     "dspc_repl_checkpoints_shipped_total", "", "Checkpoint images shipped."},
    {Counter::kReplSegmentsShipped, &M::repl_segments_shipped,
     "dspc_repl_segments_shipped_total", "",
     "WAL segments started shipping."},
    {Counter::kReplBytesShipped, &M::repl_bytes_shipped,
     "dspc_repl_bytes_shipped_total", "", "Segment bytes shipped."},
    {Counter::kReplOpsApplied, &M::repl_ops_applied,
     "dspc_repl_ops_applied_total", "", "Replica replay ops applied."},
    {Counter::kReplReconnects, &M::repl_reconnects,
     "dspc_repl_reconnects_total", "", "Transport recoveries after faults."},
    {Counter::kReplBackoffSleeps, &M::repl_backoff_sleeps,
     "dspc_repl_backoff_sleeps_total", "", "Retry backoff sleeps taken."},
    {Counter::kReplRebootstraps, &M::repl_rebootstraps,
     "dspc_repl_rebootstraps_total", "",
     "Replica restarts from a checkpoint."},
    {Counter::kReplFailovers, &M::repl_failovers,
     "dspc_repl_failovers_total", "", "Promote() completions."},
    {Counter::kReplicaAppliedGeneration, &M::replica_applied_generation,
     "dspc_replica_applied_generation", "", "Generation the replica serves.",
     Kind::kGauge},
    {Counter::kReplicaLag, &M::replica_lag, "dspc_replica_lag_generations",
     "", "Primary durable generation minus applied.", Kind::kGauge},
    {Counter::kPairCacheHits, &M::pair_cache_hits,
     "dspc_pair_cache_lookups_total", "outcome=\"hit\"",
     "Hot-pair cache lookups by outcome."},
    {Counter::kPairCacheMisses, &M::pair_cache_misses,
     "dspc_pair_cache_lookups_total", "outcome=\"miss\"", ""},
    {Counter::kPairCacheInsertions, &M::pair_cache_insertions,
     "dspc_pair_cache_insertions_total", "",
     "Hot-pair cache entries written."},
    {Counter::kPairCacheEvictions, &M::pair_cache_evictions,
     "dspc_pair_cache_evictions_total", "",
     "Live same-generation entries displaced."},
    {Counter::kReaderPacingYields, &M::reader_pacing_yields,
     "dspc_reader_pacing_yields_total", "",
     "Yields taken by paced snapshot reads."},
};

constexpr bool RowsFollowTheEnum() {
  if (std::size(kRows) != static_cast<size_t>(Counter::kCount)) return false;
  for (size_t i = 0; i < std::size(kRows); ++i) {
    if (kRows[i].counter != static_cast<Counter>(i)) return false;
  }
  return true;
}
static_assert(RowsFollowTheEnum(),
              "kRows lists every ServiceMetrics::Counter once, in order");

void AppendFamily(std::string* out, const char* name, const char* help,
                  const char* type) {
  *out += "# HELP ";
  *out += name;
  *out += ' ';
  *out += help;
  *out += "\n# TYPE ";
  *out += name;
  *out += ' ';
  *out += type;
  *out += '\n';
}

/// One sample line: `name{labels} value`, or `name value` when `labels`
/// is empty.
void AppendSample(std::string* out, const std::string& name,
                  const std::string& labels, const std::string& value) {
  *out += name;
  if (!labels.empty()) {
    *out += '{';
    *out += labels;
    *out += '}';
  }
  *out += ' ';
  *out += value;
  *out += '\n';
}

/// One histogram series: `name_bucket` lines with cumulative counts under
/// the `le` bounds, then `name_sum` (the rendered `sum`) and
/// `name_count`. `labels` join `le` on the bucket lines.
void AppendHistogram(std::string* out, const std::string& name,
                     const std::string& labels,
                     std::span<const uint64_t> buckets,
                     std::span<const std::string> le,
                     const std::string& sum) {
  const std::string prefix = labels.empty() ? labels : labels + ",";
  uint64_t cum = 0;
  for (size_t b = 0; b < buckets.size(); ++b) {
    cum += buckets[b];
    AppendSample(out, name + "_bucket", prefix + "le=\"" + le[b] + "\"",
                 std::to_string(cum));
  }
  AppendSample(out, name + "_sum", labels, sum);
  AppendSample(out, name + "_count", labels, std::to_string(cum));
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

std::string MetricsSnapshot::PrometheusText() const {
  static const std::array<std::string, kModes> kModeLabels = {
      "mode=\"fresh\"", "mode=\"snapshot\"", "mode=\"bounded\""};
  static const std::array<std::string, kStalenessBuckets> kStalenessLe = {
      "0", "1", "2", "4", "8", "16", "64", "+Inf"};
  static const std::array<std::string, kBatchBuckets> kBatchLe = {
      "1", "4", "16", "64", "256", "1024", "4096", "+Inf"};
  static const std::array<std::string, kLatencyBuckets> kLatencyLe = [] {
    std::array<std::string, kLatencyBuckets> le;
    char buf[32];
    for (size_t b = 0; b + 1 < kLatencyBuckets; ++b) {
      std::snprintf(buf, sizeof(buf), "%.9g",
                    static_cast<double>(LatencyBucketUpperNs(b)) / 1e9);
      le[b] = buf;
    }
    le.back() = "+Inf";
    return le;
  }();
  std::string out;

  AppendFamily(&out, "dspc_queries_total",
               "Served queries by consistency mode.", "counter");
  for (size_t m = 0; m < kModes; ++m) {
    AppendSample(&out, "dspc_queries_total", kModeLabels[m],
                 std::to_string(queries_by_mode[m]));
  }
  AppendFamily(&out, "dspc_served_from_total",
               "Served queries by serving source.", "counter");
  AppendSample(&out, "dspc_served_from_total", "source=\"snapshot\"",
               std::to_string(served_from_snapshot));
  AppendSample(&out, "dspc_served_from_total", "source=\"live\"",
               std::to_string(served_from_live));

  AppendFamily(&out, "dspc_read_staleness_generations",
               "Serving-source staleness per served query, in generations.",
               "histogram");
  AppendHistogram(&out, "dspc_read_staleness_generations", "",
                  staleness_hist, kStalenessLe, std::to_string(staleness_sum));
  AppendFamily(&out, "dspc_read_latency_seconds",
               "Sampled read-call latency by consistency mode.", "histogram");
  for (size_t m = 0; m < kModes; ++m) {
    char sum_seconds[32];
    std::snprintf(sum_seconds, sizeof(sum_seconds), "%.9g",
                  static_cast<double>(read_latency_sum_ns[m]) / 1e9);
    AppendHistogram(&out, "dspc_read_latency_seconds", kModeLabels[m],
                    read_latency_hist[m], kLatencyLe, sum_seconds);
  }
  // The batch-size sums are counters kept anyway: queries across batches,
  // and every update outcome of the admitted write calls.
  AppendFamily(&out, "dspc_read_batch_size",
               "Queries per served QueryBatch call.", "histogram");
  AppendHistogram(&out, "dspc_read_batch_size", "", read_batch_size_hist,
                  kBatchLe, std::to_string(read_batch_queries));
  AppendFamily(&out, "dspc_write_batch_size",
               "Input updates per admitted write call.", "histogram");
  AppendHistogram(
      &out, "dspc_write_batch_size", "", write_batch_size_hist, kBatchLe,
      std::to_string(updates_applied + updates_noop + updates_rejected));

  const char* family = "";
  for (const Row& row : kRows) {
    if (std::strcmp(row.name, family) != 0) {
      family = row.name;
      AppendFamily(&out, row.name, row.help,
                   row.kind == Kind::kGauge ? "gauge" : "counter");
    }
    AppendSample(&out, row.name, row.labels,
                 std::to_string(this->*row.field));
  }
  return out;
}

void ServiceMetrics::RecordBatchTail(size_t queries) {
  if (queries == 0) return;  // an empty batch served nothing — no sample
  Add(Counter::kReadBatches);
  Add(Counter::kReadBatchQueries, queries);
  AddSlot(kReadBatchHist + MetricsSnapshot::BatchBucket(queries), 1);
}

void ServiceMetrics::RecordRejected(Status::Code code) {
  switch (code) {
    case Status::Code::kInvalidArgument:
      Add(Counter::kRejectedInvalidArgument);
      break;
    case Status::Code::kUnavailable:
      Add(Counter::kRejectedUnavailable);
      break;
    case Status::Code::kNotSupported:
      Add(Counter::kRejectedNotSupported);
      break;
    default:
      break;  // not an admission outcome; nothing to count
  }
}

void ServiceMetrics::RecordWrite(size_t batch_size, size_t applied,
                                 size_t noops, size_t rejected) {
  if (batch_size == 0) return;  // nothing admitted — not a write batch
  Add(Counter::kWriteBatches);
  AddSlot(kWriteBatchHist + MetricsSnapshot::BatchBucket(batch_size), 1);
  if (applied > 0) Add(Counter::kUpdatesApplied, applied);
  if (noops > 0) Add(Counter::kUpdatesNoop, noops);
  if (rejected > 0) Add(Counter::kUpdatesRejected, rejected);
}

void ServiceMetrics::RecordReadLatency(Consistency mode, uint64_t ns) {
  const size_t m = static_cast<size_t>(mode);
  AddSlot(kReadLatencyHist + m * MetricsSnapshot::kLatencyBuckets +
              MetricsSnapshot::LatencyBucket(ns),
          1);
  AddSlot(kReadLatencySumNs + m, ns);
}

MetricsSnapshot ServiceMetrics::Snapshot() const {
  MetricsSnapshot snap;
  AddTo(&snap);
  return snap;
}

void ServiceMetrics::AddTo(MetricsSnapshot* snap) const {
  std::array<uint64_t, kSlots> sum{};
  for (const Shard& shard : shards_) {
    for (size_t c = 0; c < kSlots; ++c) {
      sum[c] += shard.counters[c].load(std::memory_order_relaxed);
    }
  }
  for (size_t c = 0; c < kFirstOverlay; ++c) snap->*kRows[c].field += sum[c];
  // Unfold the (mode × served_from × staleness bucket) cube into the
  // three separate read aggregates.
  for (size_t m = 0; m < MetricsSnapshot::kModes; ++m) {
    for (size_t f = 0; f < 2; ++f) {
      for (size_t b = 0; b < MetricsSnapshot::kStalenessBuckets; ++b) {
        const uint64_t v =
            sum[kReadCube +
                (m * 2 + f) * MetricsSnapshot::kStalenessBuckets + b];
        snap->queries_by_mode[m] += v;
        (f == 0 ? snap->served_from_snapshot : snap->served_from_live) += v;
        snap->staleness_hist[b] += v;
      }
    }
  }
  for (size_t b = 0; b < MetricsSnapshot::kBatchBuckets; ++b) {
    snap->read_batch_size_hist[b] += sum[kReadBatchHist + b];
    snap->write_batch_size_hist[b] += sum[kWriteBatchHist + b];
  }
  for (size_t m = 0; m < MetricsSnapshot::kModes; ++m) {
    for (size_t b = 0; b < MetricsSnapshot::kLatencyBuckets; ++b) {
      snap->read_latency_hist[m][b] +=
          sum[kReadLatencyHist + m * MetricsSnapshot::kLatencyBuckets + b];
    }
    snap->read_latency_sum_ns[m] += sum[kReadLatencySumNs + m];
  }
  snap->staleness_sum += sum[kStalenessSum];
}

}  // namespace dspc
