// SpcService: admission validation, the consistency-mode lattice,
// generation tokens (read-your-writes), serving metadata (DESIGN.md §9),
// and the §10 operability surface — per-call deadlines, per-update
// WriteReports, and ServiceMetrics.

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "dspc/api/spc_service.h"
#include "dspc/baseline/bibfs_counting.h"
#include "dspc/common/rng.h"
#include "dspc/graph/generators.h"
#include "dspc/graph/update_stream.h"
#include "test_util.h"

namespace dspc {
namespace {

DynamicSpcOptions BackgroundOptions(size_t budget = 1) {
  DynamicSpcOptions options;
  options.snapshot.refresh = RefreshPolicy::kBackground;
  options.snapshot.rebuild_after_queries = budget;
  return options;
}

// --- admission ---------------------------------------------------------------

TEST(SpcServiceTest, RejectsOutOfRangeVertices) {
  SpcService service(GenerateBarabasiAlbert(30, 2, 5));
  const auto n = static_cast<Vertex>(service.NumVertices());

  EXPECT_TRUE(service.Query(n, 0).status().IsInvalidArgument());
  EXPECT_TRUE(service.Query(0, n + 7).status().IsInvalidArgument());
  EXPECT_TRUE(service.Query(kInvalidVertex, 0).status().IsInvalidArgument());
  EXPECT_TRUE(service.Query(0, 1).ok());

  const std::vector<VertexPair> bad = {{0, 1}, {2, n}, {3, 4}};
  const auto batch = service.QueryBatch(bad);
  EXPECT_TRUE(batch.status().IsInvalidArgument());
  // The message names the offending pair.
  EXPECT_NE(batch.status().message().find("pair 1"), std::string::npos);

  // Batch write admission is per update (DESIGN.md §10): the bad update
  // is rejected individually, the valid one still applies.
  const Edge good = SampleNonEdges(service.engine().graph(), 1, 3).at(0);
  const std::vector<Update> updates = {Update::Insert(good.u, good.v),
                                       Update::Insert(n, 1)};
  const auto write = service.ApplyUpdates(updates);
  ASSERT_TRUE(write.ok());
  ASSERT_EQ(write->reports.size(), 2u);
  EXPECT_EQ(write->reports[0].outcome, WriteReport::Outcome::kApplied);
  EXPECT_EQ(write->reports[1].outcome, WriteReport::Outcome::kRejected);
  EXPECT_NE(std::string(write->reports[1].reason).find("outside"),
            std::string::npos);
  EXPECT_EQ(write->applied, 1u);
  EXPECT_EQ(write->rejected, 1u);
  EXPECT_TRUE(service.engine().graph().HasEdge(good.u, good.v));

  // Single-edge conveniences keep the strict contract: a bad endpoint
  // fails the whole call.
  EXPECT_TRUE(service.InsertEdge(0, n).status().IsInvalidArgument());
  EXPECT_TRUE(service.RemoveEdge(n, 0).status().IsInvalidArgument());
  EXPECT_TRUE(service.RemoveVertex(n).status().IsInvalidArgument());
}

TEST(SpcServiceTest, RejectsFutureMinGeneration) {
  SpcService service(GenerateBarabasiAlbert(20, 2, 6));
  ReadOptions read;
  read.min_generation = service.Generation() + 100;
  EXPECT_TRUE(service.Query(0, 1, read).status().IsInvalidArgument());

  WriteToken forged{service.Generation() + 100};
  EXPECT_TRUE(service.WaitForSnapshot(forged).IsInvalidArgument());
}

// --- reads, writes, and answers ---------------------------------------------

TEST(SpcServiceTest, AnswersMatchBaselineAcrossConsistencyModes) {
  const Graph g = GenerateBarabasiAlbert(60, 2, 7);
  SpcService service(g, BackgroundOptions());
  ASSERT_TRUE(service.WaitForSnapshot({service.Generation()}).ok());

  Rng rng(17);
  for (const Consistency mode :
       {Consistency::kFresh, Consistency::kSnapshot,
        Consistency::kBoundedStaleness}) {
    for (int i = 0; i < 20; ++i) {
      const auto s = static_cast<Vertex>(rng.NextBounded(60));
      const auto t = static_cast<Vertex>(rng.NextBounded(60));
      ReadOptions read;
      read.consistency = mode;
      read.max_lag = 4;
      const auto resp = service.Query(s, t, read);
      ASSERT_TRUE(resp.ok()) << resp.status().ToString();
      // No updates have happened, so every mode answers exactly.
      EXPECT_EQ(resp->result, BiBfsCountPair(g, s, t));
      EXPECT_EQ(resp->staleness, 0u);
      EXPECT_EQ(resp->generation, service.Generation());
    }
  }
}

TEST(SpcServiceTest, WritesReturnMonotoneTokens) {
  SpcService service(GenerateBarabasiAlbert(40, 2, 9));
  const std::vector<Edge> candidates =
      SampleNonEdges(service.engine().graph(), 4, 3);
  ASSERT_GE(candidates.size(), 4u);

  uint64_t last = 0;
  for (const Edge& e : candidates) {
    const auto resp = service.InsertEdge(e.u, e.v);
    ASSERT_TRUE(resp.ok());
    EXPECT_TRUE(resp->stats.applied);
    EXPECT_GT(resp->token.generation, last);
    last = resp->token.generation;
  }

  const auto removed = service.RemoveEdge(candidates[0].u, candidates[0].v);
  ASSERT_TRUE(removed.ok());
  EXPECT_GT(removed->token.generation, last);
}

TEST(SpcServiceTest, ReadYourWritesViaToken) {
  SpcService service(GenerateBarabasiAlbert(50, 2, 11), BackgroundOptions(8));
  const Edge e = SampleNonEdges(service.engine().graph(), 1, 5).at(0);
  const SpcResult before = service.Query(e.u, e.v).value().result;

  const auto write = service.InsertEdge(e.u, e.v);
  ASSERT_TRUE(write.ok());
  ASSERT_TRUE(write->stats.applied);

  // A fresh read with the token observes the write immediately, without
  // any explicit quiesce.
  ReadOptions read;
  read.min_generation = write->token.generation;
  const auto after = service.Query(e.u, e.v, read);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->result, (SpcResult{1, 1}));
  EXPECT_NE(after->result, before);
  EXPECT_GE(after->generation, write->token.generation);

  // Bounded staleness with the token also observes it (escalating to the
  // live index when the snapshot still trails).
  read.consistency = Consistency::kBoundedStaleness;
  read.max_lag = 1000;
  const auto bounded = service.Query(e.u, e.v, read);
  ASSERT_TRUE(bounded.ok());
  EXPECT_EQ(bounded->result, (SpcResult{1, 1}));
  EXPECT_GE(bounded->generation, write->token.generation);
}

TEST(SpcServiceTest, SnapshotModeNeverBlocksAndReportsUnavailable) {
  // kManual with no published snapshot: kSnapshot reads cannot be served
  // without blocking, so they fail fast with kUnavailable.
  DynamicSpcOptions manual;
  manual.snapshot.refresh = RefreshPolicy::kManual;
  SpcService service(GenerateBarabasiAlbert(30, 2, 13), manual);
  ReadOptions snap;
  snap.consistency = Consistency::kSnapshot;
  EXPECT_TRUE(service.Query(0, 1, snap).status().IsUnavailable());

  // Publish explicitly; the same read now serves.
  ASSERT_NE(service.engine().FlatSnapshot(), nullptr);
  const auto resp = service.Query(0, 1, snap);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->served_from, ServedFrom::kSnapshot);

  // After an update the snapshot trails: a token-carrying kSnapshot read
  // refuses (Unavailable) rather than blocking or serving stale.
  const Edge e = SampleNonEdges(service.engine().graph(), 1, 6).at(0);
  const auto write = service.InsertEdge(e.u, e.v);
  ASSERT_TRUE(write.ok());
  snap.min_generation = write->token.generation;
  EXPECT_TRUE(service.Query(e.u, e.v, snap).status().IsUnavailable());

  // Tokenless kSnapshot still serves the old snapshot, tagged stale.
  snap.min_generation = 0;
  const auto stale = service.Query(e.u, e.v, snap);
  ASSERT_TRUE(stale.ok());
  EXPECT_GT(stale->staleness, 0u);
  EXPECT_LT(stale->generation, service.Generation());
}

TEST(SpcServiceTest, SnapshotModeRejectsVertexNewerThanSnapshot) {
  SpcService service(GenerateBarabasiAlbert(30, 2, 15), BackgroundOptions());
  ASSERT_TRUE(service.WaitForSnapshot({service.Generation()}).ok());

  const AddVertexResponse added = service.AddVertex();
  ReadOptions snap;
  snap.consistency = Consistency::kSnapshot;
  // The published snapshot predates the vertex; refusing beats blocking.
  const auto resp = service.Query(added.vertex, 0, snap);
  if (!resp.ok()) {
    EXPECT_TRUE(resp.status().IsUnavailable());
  }
  // kFresh serves it from the live index.
  const auto fresh = service.Query(added.vertex, 0);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->result.count, 0u);  // isolated

  // After the snapshot catches up, kSnapshot serves it too.
  ASSERT_TRUE(service.WaitForSnapshot(added.token).ok());
  EXPECT_TRUE(service.Query(added.vertex, 0, snap).ok());
}

TEST(SpcServiceTest, BoundedStalenessHonorsLagBound) {
  SpcService service(GenerateBarabasiAlbert(40, 2, 19),
                     BackgroundOptions(1000000));  // worker never nudged
  ASSERT_TRUE(service.WaitForSnapshot({service.Generation()}).ok());

  // Three updates leave the snapshot 3 generations behind.
  std::vector<Update> updates;
  for (const Edge& e : SampleNonEdges(service.engine().graph(), 3, 7)) {
    updates.push_back(Update::Insert(e.u, e.v));
  }
  const auto write = service.ApplyUpdates(updates);
  ASSERT_TRUE(write.ok());

  ReadOptions loose;
  loose.consistency = Consistency::kBoundedStaleness;
  loose.max_lag = 10;
  const auto stale_ok = service.Query(0, 1, loose);
  ASSERT_TRUE(stale_ok.ok());
  EXPECT_EQ(stale_ok->served_from, ServedFrom::kSnapshot);
  EXPECT_GT(stale_ok->staleness, 0u);
  EXPECT_LE(stale_ok->staleness, 10u);

  ReadOptions tight;
  tight.consistency = Consistency::kBoundedStaleness;
  tight.max_lag = 0;  // demand current: must escalate to the live index
  const auto live = service.Query(0, 1, tight);
  ASSERT_TRUE(live.ok());
  EXPECT_EQ(live->served_from, ServedFrom::kLiveIndex);
  EXPECT_EQ(live->staleness, 0u);
}

TEST(SpcServiceTest, QueryBatchMatchesSingles) {
  SpcService service(GenerateRmat(7, 300, 21), BackgroundOptions(4));
  const size_t n = service.NumVertices();
  Rng rng(23);
  std::vector<VertexPair> pairs(300);
  for (auto& p : pairs) {
    p.first = static_cast<Vertex>(rng.NextBounded(n));
    p.second = static_cast<Vertex>(rng.NextBounded(n));
  }
  ReadOptions read;
  read.threads = 4;
  const auto batch = service.QueryBatch(pairs, read);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->results.size(), pairs.size());
  for (size_t i = 0; i < pairs.size(); i += 17) {
    const auto single = service.Query(pairs[i].first, pairs[i].second);
    ASSERT_TRUE(single.ok());
    EXPECT_EQ(batch->results[i], single->result) << "i=" << i;
  }
}

TEST(SpcServiceTest, WaitForSnapshotIsTheTokenBarrier) {
  SpcService service(GenerateBarabasiAlbert(40, 2, 25), BackgroundOptions());
  const Edge e = SampleNonEdges(service.engine().graph(), 1, 9).at(0);
  const auto write = service.InsertEdge(e.u, e.v);
  ASSERT_TRUE(write.ok());

  ASSERT_TRUE(service.WaitForSnapshot(write->token).ok());
  // The snapshot now reflects the write, so even kSnapshot + token serves.
  ReadOptions snap;
  snap.consistency = Consistency::kSnapshot;
  snap.min_generation = write->token.generation;
  const auto resp = service.Query(e.u, e.v, snap);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->result, (SpcResult{1, 1}));
  EXPECT_EQ(resp->served_from, ServedFrom::kSnapshot);
}

// --- deadlines (DESIGN.md §10) -----------------------------------------------

TEST(SpcServiceTest, FreshReadDeadlineExceededUnderHeldWriterLock) {
  // kManual with nothing published: every read must ride the live index,
  // the one path that can block behind a writer.
  DynamicSpcOptions options;
  options.snapshot.refresh = RefreshPolicy::kManual;
  SpcService service(GenerateBarabasiAlbert(40, 2, 31), options);

  ReadOptions timed;
  timed.timeout = std::chrono::milliseconds(5);

  // Lock free: the timed read serves normally.
  ASSERT_TRUE(service.Query(0, 1, timed).ok());

  {
    // A held writer lock blocks every live read; the deadline must turn
    // that into a prompt kDeadlineExceeded, not an indefinite wait.
    const auto freeze = service.engine().FreezeWrites();
    const auto start = std::chrono::steady_clock::now();
    const auto resp = service.Query(0, 1, timed);
    const auto waited = std::chrono::steady_clock::now() - start;
    ASSERT_FALSE(resp.ok());
    EXPECT_TRUE(resp.status().IsDeadlineExceeded())
        << resp.status().ToString();
    EXPECT_LT(waited, std::chrono::seconds(5)) << "read blocked past deadline";

    // An already-expired deadline degrades to a pure try-lock: refused
    // instantly while the writer holds the lock.
    ReadOptions expired;
    expired.timeout = std::chrono::nanoseconds(0);
    EXPECT_TRUE(service.Query(0, 1, expired).status().IsDeadlineExceeded());

    // Batch reads honor the same bound.
    const std::vector<VertexPair> pairs = {{0, 1}, {2, 3}};
    EXPECT_TRUE(
        service.QueryBatch(pairs, timed).status().IsDeadlineExceeded());
  }

  // Lock released: the same reads serve again, including timeout 0 (the
  // try-lock now succeeds).
  ReadOptions expired;
  expired.timeout = std::chrono::nanoseconds(0);
  EXPECT_TRUE(service.Query(0, 1, expired).ok());
  EXPECT_TRUE(service.Query(0, 1, timed).ok());

  const MetricsSnapshot metrics = service.Metrics();
  EXPECT_EQ(metrics.deadline_misses_read, 3u);
}

TEST(SpcServiceTest, TimedReadUnderSyncPolicySkipsInlineRebuild) {
  // Regression: under kSync a budget-crossing read rebuilds the snapshot
  // inline, and the snapshot copy waits *untimed* on the writer lock — a
  // timed read must route around that edge (free pin + timed live read)
  // or the deadline is silently void.
  DynamicSpcOptions sync;
  sync.snapshot.refresh = RefreshPolicy::kSync;
  sync.snapshot.rebuild_after_queries = 1;  // every stale read crosses
  SpcService service(GenerateBarabasiAlbert(40, 2, 59), sync);

  const auto freeze = service.engine().FreezeWrites();
  ReadOptions timed;
  timed.timeout = std::chrono::milliseconds(5);
  const auto start = std::chrono::steady_clock::now();
  const auto resp = service.Query(0, 1, timed);  // nothing published yet
  const auto waited = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(resp.ok());
  EXPECT_TRUE(resp.status().IsDeadlineExceeded()) << resp.status().ToString();
  EXPECT_LT(waited, std::chrono::seconds(5)) << "blocked in inline rebuild";
  // An untimed read still performs the inline rebuild (after release).
}

TEST(SpcServiceTest, SnapshotReadsIgnoreDeadlinesAndWriters) {
  SpcService service(GenerateBarabasiAlbert(30, 2, 37), BackgroundOptions());
  ASSERT_TRUE(service.WaitForSnapshot({service.Generation()}).ok());

  // Even with the writer lock held and an expired deadline, snapshot
  // serving never blocks and never misses.
  const auto freeze = service.engine().FreezeWrites();
  ReadOptions snap;
  snap.consistency = Consistency::kSnapshot;
  snap.timeout = std::chrono::nanoseconds(0);
  const auto resp = service.Query(0, 1, snap);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->served_from, ServedFrom::kSnapshot);

  // kFresh served from a *current* snapshot also never touches the lock.
  ReadOptions fresh;
  fresh.timeout = std::chrono::nanoseconds(0);
  const auto fresh_resp = service.Query(0, 1, fresh);
  ASSERT_TRUE(fresh_resp.ok()) << fresh_resp.status().ToString();
  EXPECT_EQ(fresh_resp->served_from, ServedFrom::kSnapshot);
  EXPECT_EQ(service.Metrics().deadline_misses_read, 0u);
}

TEST(SpcServiceTest, WaitForSnapshotHonorsTimeout) {
  // kManual: nothing publishes on its own, so a zero-timeout barrier on
  // a stale snapshot must refuse instead of building inline.
  DynamicSpcOptions manual;
  manual.snapshot.refresh = RefreshPolicy::kManual;
  SpcService service(GenerateBarabasiAlbert(30, 2, 41), manual);
  const Edge e = SampleNonEdges(service.engine().graph(), 1, 4).at(0);
  const auto write = service.InsertEdge(e.u, e.v);
  ASSERT_TRUE(write.ok());

  EXPECT_TRUE(service
                  .WaitForSnapshot(write->token, std::chrono::nanoseconds(0))
                  .IsDeadlineExceeded());
  // Untimed (and negative = kNoTimeout) barriers still build and succeed.
  ASSERT_TRUE(service.WaitForSnapshot(write->token, kNoTimeout).ok());
  // Now published: the instant probe succeeds too.
  EXPECT_TRUE(service
                  .WaitForSnapshot(write->token, std::chrono::nanoseconds(0))
                  .ok());
  EXPECT_EQ(service.Metrics().deadline_misses_wait, 1u);

  // A huge finite timeout must saturate, not overflow into the past
  // (which would refuse a barrier the caller wanted to wait out).
  const Edge e2 = SampleNonEdges(service.engine().graph(), 1, 5).at(0);
  const auto write2 = service.InsertEdge(e2.u, e2.v);
  ASSERT_TRUE(write2.ok());
  EXPECT_TRUE(service
                  .WaitForSnapshot(write2->token,
                                   std::chrono::nanoseconds::max())
                  .ok());
}

TEST(SpcServiceTest, WaitForSnapshotTimesOutWhileWorkerIsStarved) {
  SpcService service(GenerateBarabasiAlbert(30, 2, 43), BackgroundOptions(
                                                            1000000));
  ASSERT_TRUE(service.WaitForSnapshot({service.Generation()}).ok());
  const Edge e = SampleNonEdges(service.engine().graph(), 1, 5).at(0);
  const auto write = service.InsertEdge(e.u, e.v);
  ASSERT_TRUE(write.ok());

  {
    // Freeze the mutable index: the background worker cannot copy a
    // delta, so the snapshot deterministically cannot catch up to the
    // token before the deadline.
    const auto freeze = service.engine().FreezeWrites();
    EXPECT_TRUE(service
                    .WaitForSnapshot(write->token,
                                     std::chrono::milliseconds(30))
                    .IsDeadlineExceeded());
  }
  // Unfrozen, the same barrier completes.
  EXPECT_TRUE(service.WaitForSnapshot(write->token).ok());
}

// --- per-update WriteReports (DESIGN.md §10) --------------------------------

TEST(SpcServiceTest, ApplyUpdatesReportsEveryUpdate) {
  SpcService service(GenerateBarabasiAlbert(40, 2, 47));
  const Graph& g = service.engine().graph();
  const std::vector<Edge> fresh = SampleNonEdges(g, 2, 6);
  ASSERT_GE(fresh.size(), 2u);
  const Edge existing = SampleEdges(g, 1, 7).at(0);
  const auto n = static_cast<Vertex>(service.NumVertices());

  const uint64_t before = service.Generation();
  const std::vector<Update> batch = {
      Update::Insert(fresh[0].u, fresh[0].v),  // applies
      Update::Insert(existing.u, existing.v),  // no-op: already present
      Update::Delete(fresh[1].u, fresh[1].v),  // cancelled by the insert
      Update::Insert(fresh[1].u, fresh[1].v),  // cancels the delete (LIFO)
      Update::Delete(fresh[1].u, fresh[1].v),  // no-op: not present
      Update::Insert(n, 0),                    // rejected: out of range
  };
  const auto resp = service.ApplyUpdates(batch);
  ASSERT_TRUE(resp.ok());
  ASSERT_EQ(resp->reports.size(), batch.size());

  using Outcome = WriteReport::Outcome;
  EXPECT_EQ(resp->reports[0].outcome, Outcome::kApplied);
  EXPECT_STREQ(resp->reports[0].reason, "applied");
  EXPECT_TRUE(resp->reports[0].stats.applied);
  EXPECT_EQ(resp->reports[0].generation, before + 1);

  EXPECT_EQ(resp->reports[1].outcome, Outcome::kNoOp);
  EXPECT_STREQ(resp->reports[1].reason, "edge already present");

  EXPECT_EQ(resp->reports[2].outcome, Outcome::kNoOp);
  EXPECT_EQ(resp->reports[3].outcome, Outcome::kNoOp);
  EXPECT_STREQ(resp->reports[2].reason,
               "cancelled against an exact inverse in the batch");

  EXPECT_EQ(resp->reports[4].outcome, Outcome::kNoOp);
  EXPECT_STREQ(resp->reports[4].reason, "edge not present");

  EXPECT_EQ(resp->reports[5].outcome, Outcome::kRejected);

  EXPECT_EQ(resp->applied, 1u);
  EXPECT_EQ(resp->noops, 4u);
  EXPECT_EQ(resp->rejected, 1u);

  // The admission contract: applied reports == generation delta, and the
  // token covers the last applied update.
  EXPECT_EQ(service.Generation() - before, resp->applied);
  EXPECT_EQ(resp->token.generation, service.Generation());
  EXPECT_TRUE(service.engine().graph().HasEdge(fresh[0].u, fresh[0].v));
  EXPECT_FALSE(service.engine().graph().HasEdge(fresh[1].u, fresh[1].v));

  // Single-edge no-op: OK status, kNoOp report.
  const auto dup = service.InsertEdge(existing.u, existing.v);
  ASSERT_TRUE(dup.ok());
  ASSERT_EQ(dup->reports.size(), 1u);
  EXPECT_EQ(dup->reports[0].outcome, Outcome::kNoOp);
  EXPECT_FALSE(dup->stats.applied);
}

// --- ServiceMetrics (DESIGN.md §10) -----------------------------------------

TEST(SpcServiceTest, MetricsBucketHelpers) {
  EXPECT_EQ(MetricsSnapshot::StalenessBucket(0), 0u);
  EXPECT_EQ(MetricsSnapshot::StalenessBucket(1), 1u);
  EXPECT_EQ(MetricsSnapshot::StalenessBucket(2), 2u);
  EXPECT_EQ(MetricsSnapshot::StalenessBucket(4), 3u);
  EXPECT_EQ(MetricsSnapshot::StalenessBucket(8), 4u);
  EXPECT_EQ(MetricsSnapshot::StalenessBucket(16), 5u);
  EXPECT_EQ(MetricsSnapshot::StalenessBucket(64), 6u);
  EXPECT_EQ(MetricsSnapshot::StalenessBucket(65), 7u);
  EXPECT_EQ(MetricsSnapshot::BatchBucket(1), 0u);
  EXPECT_EQ(MetricsSnapshot::BatchBucket(4), 1u);
  EXPECT_EQ(MetricsSnapshot::BatchBucket(16), 2u);
  EXPECT_EQ(MetricsSnapshot::BatchBucket(5000), 7u);
}

TEST(SpcServiceTest, MetricsLatencyBucketsAndQuantiles) {
  // Log buckets: [0, 256), [256, 512), [512, 1024), ... capped at the top.
  EXPECT_EQ(MetricsSnapshot::LatencyBucket(0), 0u);
  EXPECT_EQ(MetricsSnapshot::LatencyBucket(255), 0u);
  EXPECT_EQ(MetricsSnapshot::LatencyBucket(256), 1u);
  EXPECT_EQ(MetricsSnapshot::LatencyBucket(511), 1u);
  EXPECT_EQ(MetricsSnapshot::LatencyBucket(512), 2u);
  EXPECT_EQ(MetricsSnapshot::LatencyBucket(uint64_t{1} << 40),
            MetricsSnapshot::kLatencyBuckets - 1);
  EXPECT_EQ(MetricsSnapshot::LatencyBucketUpperNs(0), 256u);
  EXPECT_EQ(MetricsSnapshot::LatencyBucketUpperNs(1), 512u);

  ServiceMetrics metrics;
  const auto mode = static_cast<size_t>(Consistency::kFresh);
  // 99 fast reads (~1us) and one slow outlier (~100ms): the median must
  // land in the microsecond bucket and the tail quantile in the top end.
  for (int i = 0; i < 99; ++i) {
    metrics.RecordReadLatency(Consistency::kFresh, 1000);
  }
  metrics.RecordReadLatency(Consistency::kFresh, 100'000'000);
  const MetricsSnapshot snap = metrics.Snapshot();
  EXPECT_EQ(snap.LatencySamples(mode), 100u);
  EXPECT_EQ(snap.read_latency_sum_ns[mode], 99u * 1000u + 100'000'000u);
  const uint64_t p50 = snap.ReadLatencyQuantileNs(mode, 0.50);
  EXPECT_GE(p50, 512u);
  EXPECT_LE(p50, 2048u);
  const uint64_t p999 = snap.ReadLatencyQuantileNs(mode, 0.999);
  EXPECT_GE(p999, 1u << 20);
  // Untouched modes report zero.
  EXPECT_EQ(snap.LatencySamples(static_cast<size_t>(Consistency::kSnapshot)),
            0u);
}

TEST(SpcServiceTest, MetricsPrometheusExposition) {
  ServiceMetrics metrics;
  metrics.RecordRead(Consistency::kSnapshot, ServedFrom::kSnapshot,
                     /*staleness=*/2, /*queries=*/1, /*batch=*/false);
  metrics.RecordReadLatency(Consistency::kSnapshot, 5000);
  metrics.Add(ServiceMetrics::Counter::kSnapshotPublishes);
  metrics.RecordRejected(Status::Code::kUnavailable);
  const std::string text = metrics.Snapshot().PrometheusText();
  EXPECT_NE(text.find("# TYPE dspc_queries_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("dspc_queries_total{mode=\"snapshot\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("dspc_snapshot_publishes_total 1"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE dspc_read_latency_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos);
  EXPECT_NE(text.find("dspc_read_latency_seconds_count{mode=\"snapshot\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("dspc_rejected_total"), std::string::npos);
  // Exposition format 0.0.4: every line is a comment or `name{labels} value`.
  EXPECT_EQ(text.back(), '\n');
}

TEST(SpcServiceTest, MetricsCountServingOutcomes) {
  SpcService service(GenerateBarabasiAlbert(50, 2, 53), BackgroundOptions(8));
  ASSERT_TRUE(service.WaitForSnapshot({service.Generation()}).ok());
  const auto n = static_cast<Vertex>(service.NumVertices());

  // 3 kFresh singles + one kFresh batch of 5.
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(service.Query(0, 1).ok());
  const std::vector<VertexPair> pairs = {{0, 1}, {1, 2}, {2, 3}, {3, 4},
                                         {4, 5}};
  ASSERT_TRUE(service.QueryBatch(pairs).ok());

  // 2 kSnapshot singles, 1 kBoundedStaleness single.
  ReadOptions snap;
  snap.consistency = Consistency::kSnapshot;
  ASSERT_TRUE(service.Query(1, 2, snap).ok());
  ASSERT_TRUE(service.Query(2, 3, snap).ok());
  ReadOptions bounded;
  bounded.consistency = Consistency::kBoundedStaleness;
  bounded.max_lag = 100;
  ASSERT_TRUE(service.Query(3, 4, bounded).ok());

  // Rejections: one invalid id, one future min_generation, one
  // kSnapshot-unavailable (future generations cannot be served).
  EXPECT_FALSE(service.Query(n, 0).ok());
  ReadOptions future;
  future.min_generation = service.Generation() + 5;
  EXPECT_FALSE(service.Query(0, 1, future).ok());

  // Writes: one applied insert + its duplicate (no-op). An empty batch
  // is admitted but not recorded (it served nothing).
  const Edge e = SampleNonEdges(service.engine().graph(), 1, 8).at(0);
  ASSERT_TRUE(service.InsertEdge(e.u, e.v).ok());
  ASSERT_TRUE(service.InsertEdge(e.u, e.v).ok());  // no-op
  ASSERT_TRUE(service.ApplyUpdates({}).ok());
  ASSERT_TRUE(service.QueryBatch({}).ok());

  const MetricsSnapshot m = service.Metrics();
  EXPECT_EQ(m.queries_by_mode[static_cast<size_t>(Consistency::kFresh)], 8u);
  EXPECT_EQ(m.queries_by_mode[static_cast<size_t>(Consistency::kSnapshot)],
            2u);
  EXPECT_EQ(
      m.queries_by_mode[static_cast<size_t>(Consistency::kBoundedStaleness)],
      1u);
  EXPECT_EQ(m.TotalQueries(), 11u);
  EXPECT_EQ(m.served_from_snapshot + m.served_from_live, m.TotalQueries());
  // One staleness sample per served query — none may be lost.
  EXPECT_EQ(m.StalenessSamples(), m.TotalQueries());
  EXPECT_EQ(m.read_batches, 1u);
  EXPECT_EQ(m.read_batch_queries, 5u);
  EXPECT_EQ(m.read_batch_size_hist[MetricsSnapshot::BatchBucket(5)], 1u);
  EXPECT_EQ(m.rejected_invalid_argument, 2u);
  EXPECT_EQ(m.deadline_misses_read, 0u);
  EXPECT_EQ(m.write_batches, 2u);
  EXPECT_EQ(m.updates_applied, 1u);
  EXPECT_EQ(m.updates_noop, 1u);
  EXPECT_EQ(m.updates_rejected, 0u);

  // The exposition carries the headline numbers.
  const std::string text = m.PrometheusText();
  EXPECT_NE(text.find("dspc_queries_total{mode=\"fresh\"} 8\n"),
            std::string::npos);
  EXPECT_NE(text.find("dspc_rejected_total{code=\"invalid_argument\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("dspc_read_batch_size_count 1\n"), std::string::npos);
}

TEST(SpcServiceTest, RemoveVertexIsolatesAndTokens) {
  SpcService service(GenerateBarabasiAlbert(30, 2, 29));
  const auto resp = service.RemoveVertex(3);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(service.engine().graph().Neighbors(3).size(), 0u);
  ReadOptions read;
  read.min_generation = resp->token.generation;
  const auto q = service.Query(3, 4, read);
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->result.count, 0u);
}

// --- one write path ----------------------------------------------------------

void ExpectSameResponse(const UpdateResponse& plain,
                        const UpdateResponse& durable, int step) {
  SCOPED_TRACE("step " + std::to_string(step));
  EXPECT_TRUE(plain.stats == durable.stats);
  ASSERT_EQ(plain.reports.size(), durable.reports.size());
  for (size_t i = 0; i < plain.reports.size(); ++i) {
    const WriteReport& a = plain.reports[i];
    const WriteReport& b = durable.reports[i];
    EXPECT_EQ(a.outcome, b.outcome) << "report " << i;
    EXPECT_STREQ(a.reason, b.reason) << "report " << i;
    EXPECT_EQ(a.generation, b.generation) << "report " << i;
    EXPECT_TRUE(a.stats == b.stats) << "report " << i;
  }
  EXPECT_EQ(plain.applied, durable.applied);
  EXPECT_EQ(plain.noops, durable.noops);
  EXPECT_EQ(plain.rejected, durable.rejected);
  EXPECT_EQ(plain.token.generation, durable.token.generation);
  // Only a durable service may promise durability.
  EXPECT_FALSE(plain.token.durable);
  EXPECT_TRUE(durable.token.durable);
}

// Every write method runs one body on plain and durable services alike:
// one seeded script — batches with out-of-range endpoints, no-ops and an
// inverse pair, AddVertex, RemoveVertex of connected and isolated
// vertices — answers identically on both, every write asking for
// durability.
TEST(SpcServiceTest, PlainAndDurableWritesAgree) {
  const Graph g = GenerateBarabasiAlbert(40, 2, 41);
  SpcService plain(g);
  DurabilityOptions durability;
  durability.dir = testing::FreshDir("plain_durable_agree");
  durability.sync = WalSyncPolicy::kNone;
  auto opened = SpcService::Open(g, durability);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  SpcService& durable = **opened;
  ASSERT_EQ(plain.Generation(), durable.Generation());

  const WriteOptions write{.durable = true};
  Rng rng(43);
  Vertex removed = 0;
  for (int step = 0; step < 40; ++step) {
    const auto n = static_cast<Vertex>(plain.NumVertices());
    auto random_vertex = [&] {
      return static_cast<Vertex>(rng.NextBounded(n));
    };
    switch (step % 10) {
      case 3: {
        const AddVertexResponse a = plain.AddVertex(write);
        const AddVertexResponse b = durable.AddVertex(write);
        EXPECT_EQ(a.vertex, n) << "step " << step;
        EXPECT_EQ(a.vertex, b.vertex) << "step " << step;
        EXPECT_EQ(a.token.generation, b.token.generation) << "step " << step;
        EXPECT_FALSE(a.token.durable) << "step " << step;
        EXPECT_TRUE(b.token.durable) << "step " << step;
        continue;
      }
      case 5:
      case 6: {
        // A connected vertex, then the same one again, now isolated.
        if (step % 10 == 5) {
          do {
            removed = random_vertex();
          } while (plain.engine().graph().Neighbors(removed).empty());
        }
        const auto a = plain.RemoveVertex(removed, write);
        const auto b = durable.RemoveVertex(removed, write);
        ASSERT_TRUE(a.ok() && b.ok()) << "step " << step;
        EXPECT_EQ(a->applied, step % 10 == 5 ? 1u : 0u) << "step " << step;
        ExpectSameResponse(*a, *b, step);
        continue;
      }
      default:
        break;
    }
    std::vector<Update> updates;
    if (step % 10 == 9) {
      // An exact inverse pair, a no-op insert, and a rejected endpoint.
      const Edge fresh = SampleNonEdges(plain.engine().graph(), 1, step).at(0);
      const Edge present = plain.engine().graph().Edges().front();
      updates = {Update::Insert(fresh.u, fresh.v),
                 Update::Insert(present.u, present.v),
                 Update::Delete(fresh.u, fresh.v), Update::Insert(n + 2, 0)};
    } else {
      const size_t count = 1 + rng.NextBounded(4);
      for (size_t i = 0; i < count; ++i) {
        const Vertex u = rng.NextBounded(8) == 0 ? n + 1 : random_vertex();
        Vertex v = random_vertex();
        if (u == v) v = (v + 1) % n;
        updates.push_back(rng.NextBounded(3) == 0 ? Update::Delete(u, v)
                                                  : Update::Insert(u, v));
      }
    }
    const auto a = plain.ApplyUpdates(updates, write);
    const auto b = durable.ApplyUpdates(updates, write);
    ASSERT_TRUE(a.ok() && b.ok()) << "step " << step;
    ExpectSameResponse(*a, *b, step);
  }

  const MetricsSnapshot ma = plain.Metrics();
  const MetricsSnapshot mb = durable.Metrics();
  EXPECT_EQ(ma.write_batches, mb.write_batches);
  EXPECT_EQ(ma.write_batch_size_hist, mb.write_batch_size_hist);
  EXPECT_EQ(ma.updates_applied, mb.updates_applied);
  EXPECT_EQ(ma.updates_noop, mb.updates_noop);
  EXPECT_EQ(ma.updates_rejected, mb.updates_rejected);
  EXPECT_GT(ma.updates_rejected, 0u);
  EXPECT_EQ(plain.Generation(), durable.Generation());
  EXPECT_EQ(plain.engine().graph().NumVertices(),
            durable.engine().graph().NumVertices());
  EXPECT_EQ(plain.engine().graph().Edges(), durable.engine().graph().Edges());
}

}  // namespace
}  // namespace dspc
