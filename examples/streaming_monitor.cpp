// Streaming update monitor: sustained hybrid insert/delete stream with
// live query service — the operational scenario of the paper's Figure 10
// experiment, reported as throughput/latency instead of a table.
//
// Serving goes through SpcService under RefreshPolicy::kBackground
// (DESIGN.md §7, §9): kSnapshot reads pin the published snapshot and
// never wait for maintenance; each update returns a WriteToken, and one
// token-carrying kFresh read per burst demonstrates read-your-writes
// without quiescing the stream; the read carries a deadline so it can
// never stall the monitor behind a slow writer. The tail latency column
// is the point — p99 stays at snapshot-merge cost even while updates
// churn the mutable index — and the final ServiceMetrics exposition shows
// where every answer actually came from and how stale it was, fleet-wide
// instead of per response (DESIGN.md §10).

// A closing stanza replays a short durable stream through a WAL-shipping
// primary with a hot-standby replica (DESIGN.md §13): the replica tails
// the shipped log and serves with honest primary-relative staleness, and
// its exposition carries the replication counters.

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>

#include "dspc/api/replica_service.h"
#include "dspc/api/spc_service.h"
#include "dspc/common/rng.h"
#include "dspc/common/stats.h"
#include "dspc/common/stopwatch.h"
#include "dspc/graph/generators.h"
#include "dspc/graph/update_stream.h"
#include "dspc/persist/env.h"
#include "dspc/persist/replication.h"

using namespace dspc;

int main() {
  Graph g = GenerateRmat(12, 34000, 5);
  std::printf("graph: %zu vertices, %zu edges\n", g.NumVertices(),
              g.NumEdges());

  DynamicSpcOptions options;
  options.snapshot.refresh = RefreshPolicy::kBackground;
  options.snapshot.rebuild_after_queries = 4;

  Stopwatch build_watch;
  SpcService service(g, options);
  std::printf("index built in %.2fs (%zu label entries)\n",
              build_watch.ElapsedSeconds(),
              service.engine().index().SizeStats().total_entries);

  // 200 insertions + 20 deletions, uniformly interleaved.
  const std::vector<Update> stream =
      MakeHybridStream(service.engine().graph(), 200, 20, 9);

  SampleStats inc_ms;
  SampleStats dec_ms;
  SampleStats query_us;
  Rng rng(13);
  const size_t n = service.NumVertices();
  uint64_t max_lag = 0;  // generations a served answer trailed by
  size_t snapshot_served = 0;
  size_t unavailable = 0;

  // Non-blocking reads: serve whatever snapshot is published, however
  // stale — the monitor's latency numbers must never include maintenance.
  ReadOptions monitor_read;
  monitor_read.consistency = Consistency::kSnapshot;

  Stopwatch run_watch;
  for (size_t i = 0; i < stream.size(); ++i) {
    Stopwatch op;
    const auto applied = service.ApplyUpdates({&stream[i], 1});
    const double ms = op.ElapsedMillis();
    (stream[i].kind == Update::Kind::kInsert ? inc_ms : dec_ms).Add(ms);

    // Serve a small query batch between updates, as a live system would.
    for (int q = 0; q < 20; ++q) {
      const auto s = static_cast<Vertex>(rng.NextBounded(n));
      const auto t = static_cast<Vertex>(rng.NextBounded(n));
      Stopwatch qw;
      const auto resp = service.Query(s, t, monitor_read);
      query_us.Add(qw.ElapsedMicros());
      if (resp.ok()) {
        ++snapshot_served;
        if (resp->staleness > max_lag) max_lag = resp->staleness;
      } else {
        ++unavailable;  // only possible before the first publish
      }
    }

    // Read-your-writes spot check: once per burst of 50, re-read the
    // just-updated edge with the write's own token; the service escalates
    // to the live index whenever the snapshot still trails the token.
    if ((i + 1) % 50 == 0 && applied.ok()) {
      ReadOptions ryw;
      ryw.min_generation = applied->token.generation;
      // Bound the read-your-writes check: it may ride the live index
      // (the snapshot can trail the token), and a monitor must never
      // hang behind the writer lock.
      ryw.timeout = std::chrono::milliseconds(250);
      const auto check =
          service.Query(stream[i].edge.u, stream[i].edge.v, ryw);
      const bool inserted = stream[i].kind == Update::Kind::kInsert;
      const bool observed =
          check.ok() && ((check->result.dist == 1) == inserted);
      std::printf("  after %3zu updates: median ins %.2fms, qry p50 %.1fus "
                  "p99 %.1fus | token read %s its write (gen %llu, %s)\n",
                  i + 1, inc_ms.Median(), query_us.Median(),
                  query_us.Percentile(99.0),
                  observed ? "observed" : "MISSED",
                  static_cast<unsigned long long>(
                      applied->token.generation),
                  check.ok() && check->served_from == ServedFrom::kSnapshot
                      ? "snapshot"
                      : "live");
    }
  }

  const double wall = run_watch.ElapsedSeconds();
  std::printf("\nprocessed %zu updates + %zu queries in %.2fs\n", stream.size(),
              query_us.count(), wall);
  std::printf("insertions: median %.2fms  p75 %.2fms  max %.2fms\n",
              inc_ms.Median(), inc_ms.P75(), inc_ms.Max());
  std::printf("deletions:  median %.2fms  p75 %.2fms  max %.2fms\n",
              dec_ms.Median(), dec_ms.P75(), dec_ms.Max());
  std::printf("queries:    p50 %.1fus  p75 %.1fus  p99 %.1fus  max %.1fus\n",
              query_us.Median(), query_us.P75(), query_us.Percentile(99.0),
              query_us.Max());
  std::printf("served:     %zu from pinned snapshots, %zu unavailable "
              "(pre-publish), max staleness %llu generations\n",
              snapshot_served, unavailable,
              static_cast<unsigned long long>(max_lag));
  const SnapshotManager* snaps = service.engine().snapshots();
  std::printf("snapshots:  %zu rebuilt (%zu in background), %zu retired\n",
              service.engine().SnapshotRebuilds(),
              snaps->BackgroundRebuilds(), snaps->RetiredSnapshots());
  // The aggregate SLO surface: the same served-from/staleness story the
  // manual counters above sampled, but counted exactly, per mode, by the
  // service itself.
  std::printf("\n%s", service.Metrics().PrometheusText().c_str());
  std::printf(
      "\nReconstruction after every update would have cost ~%.0fs total;\n"
      "the dynamic algorithms served the same stream in %.2fs with the\n"
      "rebuilds off the query path.\n",
      build_watch.ElapsedSeconds() * static_cast<double>(stream.size()), wall);

  // --- replicated serving: a hot standby over the same stream shape ---------
  std::printf("\n--- hot standby (WAL shipping, DESIGN.md §13) ---\n");
  FileSystem* fs = FileSystem::Default();
  const std::string wal_dir = "/tmp/dspc_monitor_wal";
  (void)fs->CreateDir(wal_dir);
  if (auto names = fs->ListDir(wal_dir); names.ok()) {
    for (const std::string& name : *names) {
      (void)fs->RemoveFile(wal_dir + "/" + name);
    }
  }
  DurabilityOptions durability;
  durability.dir = wal_dir;
  durability.sync = WalSyncPolicy::kEveryWrite;
  auto primary = SpcService::Open(GenerateRmat(10, 8000, 7), durability);
  if (!primary.ok()) {
    std::fprintf(stderr, "primary open failed: %s\n",
                 primary.status().ToString().c_str());
    return 1;
  }
  InProcessTransport transport;  // swap for DirectoryTransport to cross hosts
  auto shipper = (*primary)->NewShipper(&transport);
  if (!shipper.ok()) {
    std::fprintf(stderr, "shipper failed: %s\n",
                 shipper.status().ToString().c_str());
    return 1;
  }
  (*shipper)->Start();
  ReplicaOptions replica_options;
  replica_options.transport = &transport;
  replica_options.bootstrap_timeout = std::chrono::seconds(30);
  auto replica = ReplicaService::Open(replica_options);
  if (!replica.ok()) {
    std::fprintf(stderr, "replica open failed: %s\n",
                 replica.status().ToString().c_str());
    return 1;
  }

  const std::vector<Update> repl_stream =
      MakeHybridStream((*primary)->engine().graph(), 60, 10, 21);
  for (const Update& update : repl_stream) {
    (void)(*primary)->ApplyUpdates({&update, 1}, {.durable = true});
  }
  // Wait (bounded) for the standby to drain the shipped log.
  const uint64_t primary_gen = (*primary)->Generation();
  Stopwatch drain;
  while ((*replica)->AppliedGeneration() < primary_gen &&
         drain.ElapsedSeconds() < 30.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // A bounded-staleness read the replica must answer honestly: with the
  // standby caught up, max_lag=0 serves; behind, it refuses rather than
  // serving silently stale data.
  ReadOptions bounded;
  bounded.consistency = Consistency::kBoundedStaleness;
  bounded.max_lag = 0;
  const auto replicated = (*replica)->Query(0, 1, bounded);
  std::printf("primary at generation %llu; replica applied %llu; "
              "max_lag=0 read %s (staleness %llu)\n",
              static_cast<unsigned long long>(primary_gen),
              static_cast<unsigned long long>((*replica)->AppliedGeneration()),
              replicated.ok() ? "served" : "refused",
              replicated.ok()
                  ? static_cast<unsigned long long>(replicated->staleness)
                  : 0ull);
  (*replica)->Stop();
  (*shipper)->Stop();
  // The replica's exposition: the same names as the primary's, with its
  // replication counters (ops applied, reconnects, re-bootstraps) and
  // the lag gauges.
  std::printf("\n%s", (*replica)->Metrics().PrometheusText().c_str());
  return 0;
}
