// The metrics exposition (api/service_metrics.h): MetricsSnapshot::
// PrometheusText() renders every value under its name, and each sharded
// ServiceMetrics::Counter reaches its own MetricsSnapshot field.

#include "dspc/api/service_metrics.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "dspc/api/read_admission.h"

namespace dspc {
namespace {

// Every MetricsSnapshot field and histogram bucket set to a distinct value.
MetricsSnapshot DistinctSnapshot() {
  MetricsSnapshot s;
  uint64_t next = 11;
  for (uint64_t& v : s.queries_by_mode) v = next++;
  s.served_from_snapshot = next++;
  s.served_from_live = next++;
  for (uint64_t& v : s.staleness_hist) v = next++;
  for (auto& mode : s.read_latency_hist) {
    for (uint64_t& v : mode) v = next++;
  }
  for (uint64_t& v : s.read_latency_sum_ns) v = next++ * 1'000'003;
  s.deadline_misses_read = next++;
  s.deadline_misses_wait = next++;
  s.rejected_invalid_argument = next++;
  s.rejected_unavailable = next++;
  s.rejected_not_supported = next++;
  s.read_batches = next++;
  s.read_batch_queries = next++;
  for (uint64_t& v : s.read_batch_size_hist) v = next++;
  s.write_batches = next++;
  for (uint64_t& v : s.write_batch_size_hist) v = next++;
  s.updates_applied = next++;
  s.updates_noop = next++;
  s.updates_rejected = next++;
  s.wal_appends = next++;
  s.wal_appended_bytes = next++;
  s.wal_syncs = next++;
  s.wal_durable_waits = next++;
  s.wal_failures = next++;
  s.checkpoints = next++;
  s.snapshot_publishes = next++;
  s.recovery_replayed = next++;
  s.recovery_truncated_bytes = next++;
  s.repl_checkpoints_shipped = next++;
  s.repl_segments_shipped = next++;
  s.repl_bytes_shipped = next++;
  s.repl_ops_applied = next++;
  s.repl_reconnects = next++;
  s.repl_backoff_sleeps = next++;
  s.repl_rebootstraps = next++;
  s.repl_failovers = next++;
  s.replica_applied_generation = next++;
  s.replica_lag = next++;
  s.pair_cache_hits = next++;
  s.pair_cache_misses = next++;
  s.pair_cache_insertions = next++;
  s.pair_cache_evictions = next++;
  s.reader_pacing_yields = next++;
  s.staleness_sum = next++;
  return s;
}

// PrometheusText() of DistinctSnapshot() minus the two batch-size
// histograms: every other line of the exposition, in order.
constexpr char kGolden[] = R"golden(# HELP dspc_queries_total Served queries by consistency mode.
# TYPE dspc_queries_total counter
dspc_queries_total{mode="fresh"} 11
dspc_queries_total{mode="snapshot"} 12
dspc_queries_total{mode="bounded"} 13
# HELP dspc_served_from_total Served queries by serving source.
# TYPE dspc_served_from_total counter
dspc_served_from_total{source="snapshot"} 14
dspc_served_from_total{source="live"} 15
# HELP dspc_read_staleness_generations Serving-source staleness per served query, in generations.
# TYPE dspc_read_staleness_generations histogram
dspc_read_staleness_generations_bucket{le="0"} 16
dspc_read_staleness_generations_bucket{le="1"} 33
dspc_read_staleness_generations_bucket{le="2"} 51
dspc_read_staleness_generations_bucket{le="4"} 70
dspc_read_staleness_generations_bucket{le="8"} 90
dspc_read_staleness_generations_bucket{le="16"} 111
dspc_read_staleness_generations_bucket{le="64"} 133
dspc_read_staleness_generations_bucket{le="+Inf"} 156
dspc_read_staleness_generations_sum 138
dspc_read_staleness_generations_count 156
# HELP dspc_read_latency_seconds Sampled read-call latency by consistency mode.
# TYPE dspc_read_latency_seconds histogram
dspc_read_latency_seconds_bucket{mode="fresh",le="2.56e-07"} 24
dspc_read_latency_seconds_bucket{mode="fresh",le="5.12e-07"} 49
dspc_read_latency_seconds_bucket{mode="fresh",le="1.024e-06"} 75
dspc_read_latency_seconds_bucket{mode="fresh",le="2.048e-06"} 102
dspc_read_latency_seconds_bucket{mode="fresh",le="4.096e-06"} 130
dspc_read_latency_seconds_bucket{mode="fresh",le="8.192e-06"} 159
dspc_read_latency_seconds_bucket{mode="fresh",le="1.6384e-05"} 189
dspc_read_latency_seconds_bucket{mode="fresh",le="3.2768e-05"} 220
dspc_read_latency_seconds_bucket{mode="fresh",le="6.5536e-05"} 252
dspc_read_latency_seconds_bucket{mode="fresh",le="0.000131072"} 285
dspc_read_latency_seconds_bucket{mode="fresh",le="0.000262144"} 319
dspc_read_latency_seconds_bucket{mode="fresh",le="0.000524288"} 354
dspc_read_latency_seconds_bucket{mode="fresh",le="0.001048576"} 390
dspc_read_latency_seconds_bucket{mode="fresh",le="0.002097152"} 427
dspc_read_latency_seconds_bucket{mode="fresh",le="0.004194304"} 465
dspc_read_latency_seconds_bucket{mode="fresh",le="0.008388608"} 504
dspc_read_latency_seconds_bucket{mode="fresh",le="0.016777216"} 544
dspc_read_latency_seconds_bucket{mode="fresh",le="0.033554432"} 585
dspc_read_latency_seconds_bucket{mode="fresh",le="0.067108864"} 627
dspc_read_latency_seconds_bucket{mode="fresh",le="+Inf"} 670
dspc_read_latency_seconds_sum{mode="fresh"} 0.084000252
dspc_read_latency_seconds_count{mode="fresh"} 670
dspc_read_latency_seconds_bucket{mode="snapshot",le="2.56e-07"} 44
dspc_read_latency_seconds_bucket{mode="snapshot",le="5.12e-07"} 89
dspc_read_latency_seconds_bucket{mode="snapshot",le="1.024e-06"} 135
dspc_read_latency_seconds_bucket{mode="snapshot",le="2.048e-06"} 182
dspc_read_latency_seconds_bucket{mode="snapshot",le="4.096e-06"} 230
dspc_read_latency_seconds_bucket{mode="snapshot",le="8.192e-06"} 279
dspc_read_latency_seconds_bucket{mode="snapshot",le="1.6384e-05"} 329
dspc_read_latency_seconds_bucket{mode="snapshot",le="3.2768e-05"} 380
dspc_read_latency_seconds_bucket{mode="snapshot",le="6.5536e-05"} 432
dspc_read_latency_seconds_bucket{mode="snapshot",le="0.000131072"} 485
dspc_read_latency_seconds_bucket{mode="snapshot",le="0.000262144"} 539
dspc_read_latency_seconds_bucket{mode="snapshot",le="0.000524288"} 594
dspc_read_latency_seconds_bucket{mode="snapshot",le="0.001048576"} 650
dspc_read_latency_seconds_bucket{mode="snapshot",le="0.002097152"} 707
dspc_read_latency_seconds_bucket{mode="snapshot",le="0.004194304"} 765
dspc_read_latency_seconds_bucket{mode="snapshot",le="0.008388608"} 824
dspc_read_latency_seconds_bucket{mode="snapshot",le="0.016777216"} 884
dspc_read_latency_seconds_bucket{mode="snapshot",le="0.033554432"} 945
dspc_read_latency_seconds_bucket{mode="snapshot",le="0.067108864"} 1007
dspc_read_latency_seconds_bucket{mode="snapshot",le="+Inf"} 1070
dspc_read_latency_seconds_sum{mode="snapshot"} 0.085000255
dspc_read_latency_seconds_count{mode="snapshot"} 1070
dspc_read_latency_seconds_bucket{mode="bounded",le="2.56e-07"} 64
dspc_read_latency_seconds_bucket{mode="bounded",le="5.12e-07"} 129
dspc_read_latency_seconds_bucket{mode="bounded",le="1.024e-06"} 195
dspc_read_latency_seconds_bucket{mode="bounded",le="2.048e-06"} 262
dspc_read_latency_seconds_bucket{mode="bounded",le="4.096e-06"} 330
dspc_read_latency_seconds_bucket{mode="bounded",le="8.192e-06"} 399
dspc_read_latency_seconds_bucket{mode="bounded",le="1.6384e-05"} 469
dspc_read_latency_seconds_bucket{mode="bounded",le="3.2768e-05"} 540
dspc_read_latency_seconds_bucket{mode="bounded",le="6.5536e-05"} 612
dspc_read_latency_seconds_bucket{mode="bounded",le="0.000131072"} 685
dspc_read_latency_seconds_bucket{mode="bounded",le="0.000262144"} 759
dspc_read_latency_seconds_bucket{mode="bounded",le="0.000524288"} 834
dspc_read_latency_seconds_bucket{mode="bounded",le="0.001048576"} 910
dspc_read_latency_seconds_bucket{mode="bounded",le="0.002097152"} 987
dspc_read_latency_seconds_bucket{mode="bounded",le="0.004194304"} 1065
dspc_read_latency_seconds_bucket{mode="bounded",le="0.008388608"} 1144
dspc_read_latency_seconds_bucket{mode="bounded",le="0.016777216"} 1224
dspc_read_latency_seconds_bucket{mode="bounded",le="0.033554432"} 1305
dspc_read_latency_seconds_bucket{mode="bounded",le="0.067108864"} 1387
dspc_read_latency_seconds_bucket{mode="bounded",le="+Inf"} 1470
dspc_read_latency_seconds_sum{mode="bounded"} 0.086000258
dspc_read_latency_seconds_count{mode="bounded"} 1470
# HELP dspc_read_deadline_misses_total Reads that returned kDeadlineExceeded.
# TYPE dspc_read_deadline_misses_total counter
dspc_read_deadline_misses_total 87
# HELP dspc_wait_deadline_misses_total WaitForSnapshot timeouts.
# TYPE dspc_wait_deadline_misses_total counter
dspc_wait_deadline_misses_total 88
# HELP dspc_rejected_total Calls refused at admission, by code.
# TYPE dspc_rejected_total counter
dspc_rejected_total{code="invalid_argument"} 89
dspc_rejected_total{code="unavailable"} 90
dspc_rejected_total{code="not_supported"} 91
# HELP dspc_read_batches_total QueryBatch calls served.
# TYPE dspc_read_batches_total counter
dspc_read_batches_total 92
# HELP dspc_read_batch_queries_total Queries across served batches.
# TYPE dspc_read_batch_queries_total counter
dspc_read_batch_queries_total 93
# HELP dspc_write_batches_total Admitted write calls.
# TYPE dspc_write_batches_total counter
dspc_write_batches_total 102
# HELP dspc_updates_total Per-update write outcomes.
# TYPE dspc_updates_total counter
dspc_updates_total{outcome="applied"} 111
dspc_updates_total{outcome="noop"} 112
dspc_updates_total{outcome="rejected"} 113
# HELP dspc_wal_appends_total WAL records appended.
# TYPE dspc_wal_appends_total counter
dspc_wal_appends_total 114
# HELP dspc_wal_appended_bytes_total Framed WAL bytes appended.
# TYPE dspc_wal_appended_bytes_total counter
dspc_wal_appended_bytes_total 115
# HELP dspc_wal_syncs_total WAL fsyncs.
# TYPE dspc_wal_syncs_total counter
dspc_wal_syncs_total 116
# HELP dspc_wal_durable_waits_total Writes that waited on group commit.
# TYPE dspc_wal_durable_waits_total counter
dspc_wal_durable_waits_total 117
# HELP dspc_wal_failures_total Durability fail-stop trips.
# TYPE dspc_wal_failures_total counter
dspc_wal_failures_total 118
# HELP dspc_checkpoints_total Checkpoints published.
# TYPE dspc_checkpoints_total counter
dspc_checkpoints_total 119
# HELP dspc_snapshot_publishes_total Mmap snapshot arenas published.
# TYPE dspc_snapshot_publishes_total counter
dspc_snapshot_publishes_total 120
# HELP dspc_recovery_replayed_total Committed WAL ops replayed at Open.
# TYPE dspc_recovery_replayed_total counter
dspc_recovery_replayed_total 121
# HELP dspc_recovery_truncated_bytes_total Torn WAL tail bytes repaired.
# TYPE dspc_recovery_truncated_bytes_total counter
dspc_recovery_truncated_bytes_total 122
# HELP dspc_repl_checkpoints_shipped_total Checkpoint images shipped.
# TYPE dspc_repl_checkpoints_shipped_total counter
dspc_repl_checkpoints_shipped_total 123
# HELP dspc_repl_segments_shipped_total WAL segments started shipping.
# TYPE dspc_repl_segments_shipped_total counter
dspc_repl_segments_shipped_total 124
# HELP dspc_repl_bytes_shipped_total Segment bytes shipped.
# TYPE dspc_repl_bytes_shipped_total counter
dspc_repl_bytes_shipped_total 125
# HELP dspc_repl_ops_applied_total Replica replay ops applied.
# TYPE dspc_repl_ops_applied_total counter
dspc_repl_ops_applied_total 126
# HELP dspc_repl_reconnects_total Transport recoveries after faults.
# TYPE dspc_repl_reconnects_total counter
dspc_repl_reconnects_total 127
# HELP dspc_repl_backoff_sleeps_total Retry backoff sleeps taken.
# TYPE dspc_repl_backoff_sleeps_total counter
dspc_repl_backoff_sleeps_total 128
# HELP dspc_repl_rebootstraps_total Replica restarts from a checkpoint.
# TYPE dspc_repl_rebootstraps_total counter
dspc_repl_rebootstraps_total 129
# HELP dspc_repl_failovers_total Promote() completions.
# TYPE dspc_repl_failovers_total counter
dspc_repl_failovers_total 130
# HELP dspc_replica_applied_generation Generation the replica serves.
# TYPE dspc_replica_applied_generation gauge
dspc_replica_applied_generation 131
# HELP dspc_replica_lag_generations Primary durable generation minus applied.
# TYPE dspc_replica_lag_generations gauge
dspc_replica_lag_generations 132
# HELP dspc_pair_cache_lookups_total Hot-pair cache lookups by outcome.
# TYPE dspc_pair_cache_lookups_total counter
dspc_pair_cache_lookups_total{outcome="hit"} 133
dspc_pair_cache_lookups_total{outcome="miss"} 134
# HELP dspc_pair_cache_insertions_total Hot-pair cache entries written.
# TYPE dspc_pair_cache_insertions_total counter
dspc_pair_cache_insertions_total 135
# HELP dspc_pair_cache_evictions_total Live same-generation entries displaced.
# TYPE dspc_pair_cache_evictions_total counter
dspc_pair_cache_evictions_total 136
# HELP dspc_reader_pacing_yields_total Yields taken by paced snapshot reads.
# TYPE dspc_reader_pacing_yields_total counter
dspc_reader_pacing_yields_total 137
)golden";

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

bool IsBatchSizeLine(const std::string& line) {
  for (const std::string family :
       {"dspc_read_batch_size", "dspc_write_batch_size"}) {
    for (const std::string& prefix :
         {"# HELP " + family + " ", "# TYPE " + family + " ",
          family + "_bucket{", family + "_sum ", family + "_count "}) {
      if (line.starts_with(prefix)) return true;
    }
  }
  return false;
}

bool Contains(const std::string& text, const std::string& line) {
  return text.find(line + "\n") != std::string::npos;
}

TEST(ServiceMetricsTest, ExpositionKeepsEveryGoldenLineInOrder) {
  const std::vector<std::string> lines =
      Lines(DistinctSnapshot().PrometheusText());
  std::vector<std::string> rest;
  size_t batch_lines = 0;
  for (const std::string& line : lines) {
    if (IsBatchSizeLine(line)) {
      ++batch_lines;
    } else {
      rest.push_back(line);
    }
  }
  EXPECT_EQ(rest, Lines(kGolden));
  // Per family: HELP, TYPE, one line per bucket, _sum and _count.
  EXPECT_EQ(batch_lines, 2 * (MetricsSnapshot::kBatchBuckets + 4));
  // The batch sums: queries across read batches (93), and the applied,
  // noop and rejected updates of the write calls (111 + 112 + 113).
  const std::string text = DistinctSnapshot().PrometheusText();
  EXPECT_TRUE(Contains(text, "dspc_read_batch_size_sum 93"));
  EXPECT_TRUE(Contains(text, "dspc_write_batch_size_sum 336"));
}

TEST(ServiceMetricsTest, EveryValueAppearsUnderItsName) {
  const MetricsSnapshot s = DistinctSnapshot();
  const std::string text = s.PrometheusText();
  const auto sample = [](const std::string& name, uint64_t value) {
    return name + " " + std::to_string(value);
  };
  const char* modes[] = {"fresh", "snapshot", "bounded"};
  for (size_t m = 0; m < MetricsSnapshot::kModes; ++m) {
    EXPECT_TRUE(Contains(
        text, sample("dspc_queries_total{mode=\"" + std::string(modes[m]) +
                         "\"}",
                     s.queries_by_mode[m])));
  }
  const std::vector<std::pair<std::string, uint64_t>> scalars = {
      {"dspc_served_from_total{source=\"snapshot\"}", s.served_from_snapshot},
      {"dspc_served_from_total{source=\"live\"}", s.served_from_live},
      {"dspc_read_deadline_misses_total", s.deadline_misses_read},
      {"dspc_wait_deadline_misses_total", s.deadline_misses_wait},
      {"dspc_rejected_total{code=\"invalid_argument\"}",
       s.rejected_invalid_argument},
      {"dspc_rejected_total{code=\"unavailable\"}", s.rejected_unavailable},
      {"dspc_rejected_total{code=\"not_supported\"}",
       s.rejected_not_supported},
      {"dspc_read_batches_total", s.read_batches},
      {"dspc_read_batch_queries_total", s.read_batch_queries},
      {"dspc_write_batches_total", s.write_batches},
      {"dspc_updates_total{outcome=\"applied\"}", s.updates_applied},
      {"dspc_updates_total{outcome=\"noop\"}", s.updates_noop},
      {"dspc_updates_total{outcome=\"rejected\"}", s.updates_rejected},
      {"dspc_wal_appends_total", s.wal_appends},
      {"dspc_wal_appended_bytes_total", s.wal_appended_bytes},
      {"dspc_wal_syncs_total", s.wal_syncs},
      {"dspc_wal_durable_waits_total", s.wal_durable_waits},
      {"dspc_wal_failures_total", s.wal_failures},
      {"dspc_checkpoints_total", s.checkpoints},
      {"dspc_snapshot_publishes_total", s.snapshot_publishes},
      {"dspc_recovery_replayed_total", s.recovery_replayed},
      {"dspc_recovery_truncated_bytes_total", s.recovery_truncated_bytes},
      {"dspc_repl_checkpoints_shipped_total", s.repl_checkpoints_shipped},
      {"dspc_repl_segments_shipped_total", s.repl_segments_shipped},
      {"dspc_repl_bytes_shipped_total", s.repl_bytes_shipped},
      {"dspc_repl_ops_applied_total", s.repl_ops_applied},
      {"dspc_repl_reconnects_total", s.repl_reconnects},
      {"dspc_repl_backoff_sleeps_total", s.repl_backoff_sleeps},
      {"dspc_repl_rebootstraps_total", s.repl_rebootstraps},
      {"dspc_repl_failovers_total", s.repl_failovers},
      {"dspc_replica_applied_generation", s.replica_applied_generation},
      {"dspc_replica_lag_generations", s.replica_lag},
      {"dspc_pair_cache_lookups_total{outcome=\"hit\"}", s.pair_cache_hits},
      {"dspc_pair_cache_lookups_total{outcome=\"miss\"}",
       s.pair_cache_misses},
      {"dspc_pair_cache_insertions_total", s.pair_cache_insertions},
      {"dspc_pair_cache_evictions_total", s.pair_cache_evictions},
      {"dspc_reader_pacing_yields_total", s.reader_pacing_yields},
  };
  for (const auto& [name, value] : scalars) {
    EXPECT_TRUE(Contains(text, sample(name, value))) << name;
  }

  // The batch-size histograms: cumulative buckets whose `le` bounds are
  // BatchBucket's inclusive upper edges.
  const std::pair<std::string, const std::array<uint64_t, 8>*> batches[] = {
      {"dspc_read_batch_size", &s.read_batch_size_hist},
      {"dspc_write_batch_size", &s.write_batch_size_hist}};
  const std::string le[] = {"1", "4", "16", "64", "256", "1024", "4096",
                            "+Inf"};
  for (const auto& [name, hist] : batches) {
    EXPECT_TRUE(Contains(text, "# TYPE " + name + " histogram")) << name;
    uint64_t cum = 0;
    for (size_t b = 0; b < MetricsSnapshot::kBatchBuckets; ++b) {
      cum += (*hist)[b];
      EXPECT_TRUE(Contains(
          text, sample(name + "_bucket{le=\"" + le[b] + "\"}", cum)))
          << name << " bucket " << b;
      if (b + 1 < MetricsSnapshot::kBatchBuckets) {
        const size_t upper = std::stoul(le[b]);
        EXPECT_EQ(MetricsSnapshot::BatchBucket(upper), b);
        EXPECT_EQ(MetricsSnapshot::BatchBucket(upper + 1), b + 1);
      }
    }
    EXPECT_TRUE(Contains(text, sample(name + "_count", cum))) << name;
  }
  EXPECT_TRUE(Contains(text, sample("dspc_read_staleness_generations_sum",
                                    s.staleness_sum)));
  EXPECT_TRUE(Contains(text, sample("dspc_read_batch_size_sum",
                                    s.read_batch_queries)));
  EXPECT_TRUE(Contains(
      text, sample("dspc_write_batch_size_sum",
                   s.updates_applied + s.updates_noop + s.updates_rejected)));
}

TEST(ServiceMetricsTest, EachCounterReachesItsField) {
  using Counter = ServiceMetrics::Counter;
  ServiceMetrics metrics;
  for (size_t c = 0; c < ServiceMetrics::kFirstOverlay; ++c) {
    metrics.Add(static_cast<Counter>(c), 100 + c);
  }
  const MetricsSnapshot s = metrics.Snapshot();
  const uint64_t fields[] = {
      s.deadline_misses_read,     s.deadline_misses_wait,
      s.rejected_invalid_argument, s.rejected_unavailable,
      s.rejected_not_supported,   s.read_batches,
      s.read_batch_queries,       s.write_batches,
      s.updates_applied,          s.updates_noop,
      s.updates_rejected,         s.wal_appends,
      s.wal_appended_bytes,       s.wal_syncs,
      s.wal_durable_waits,        s.wal_failures,
      s.checkpoints,              s.snapshot_publishes,
      s.recovery_replayed,        s.recovery_truncated_bytes,
      s.repl_checkpoints_shipped, s.repl_segments_shipped,
      s.repl_bytes_shipped,       s.repl_ops_applied,
      s.repl_reconnects,          s.repl_backoff_sleeps,
      s.repl_rebootstraps,        s.repl_failovers};
  ASSERT_EQ(std::size(fields), ServiceMetrics::kFirstOverlay);
  for (size_t c = 0; c < std::size(fields); ++c) {
    EXPECT_EQ(fields[c], 100 + c) << "counter " << c;
  }
  // Overlays have no shard slot: a bare Snapshot() leaves them at 0.
  EXPECT_EQ(s.replica_applied_generation + s.replica_lag + s.pair_cache_hits +
                s.pair_cache_misses + s.pair_cache_insertions +
                s.pair_cache_evictions + s.reader_pacing_yields,
            0u);
  EXPECT_EQ(s.TotalQueries(), 0u);

  // AddTo folds the same sums into an existing snapshot.
  MetricsSnapshot folded = DistinctSnapshot();
  const uint64_t wal_syncs = folded.wal_syncs;
  metrics.AddTo(&folded);
  EXPECT_EQ(folded.wal_syncs,
            wal_syncs + 100 + static_cast<size_t>(Counter::kWalSyncs));
}

TEST(ServiceMetricsTest, StalenessSumAddsOnlyStaleLag) {
  ServiceMetrics metrics;
  metrics.RecordRead(Consistency::kSnapshot, ServedFrom::kSnapshot, 0, 1,
                     false);
  metrics.RecordRead(Consistency::kSnapshot, ServedFrom::kSnapshot, 3, 1,
                     false);
  metrics.RecordRead(Consistency::kBoundedStaleness, ServedFrom::kSnapshot,
                     5, 4, true);
  const MetricsSnapshot s = metrics.Snapshot();
  EXPECT_EQ(s.staleness_sum, 3u + 5u * 4u);
  EXPECT_EQ(s.StalenessSamples(), 6u);
  EXPECT_TRUE(Contains(s.PrometheusText(),
                       "dspc_read_staleness_generations_sum 23"));
}

}  // namespace
}  // namespace dspc
