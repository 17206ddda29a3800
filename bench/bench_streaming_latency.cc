// Mixed read/write serving bench: reader threads issue single SPC queries
// continuously while a writer applies update bursts, once per
// RefreshPolicy (kSync vs kBackground) and per snapshot shard count
// (1/4/16). The p50/p99/max query latency shows whether the snapshot
// rebuild lands on the query path (sync: the budget-crossing reader
// stalls for the whole rebuild and everyone else stalls behind the
// writer lock) or on the background worker (queries keep serving the
// previous pinned snapshot and never block on maintenance); the
// update-processing time and the repacked/adopted shard counters show
// what the delta protocol saves — with one shard every refresh copies
// and repacks the whole index, with 16 it touches only dirty ranges
// (DESIGN.md §8). A `one_cpu` row repeats the background sweep with every
// thread of the row pinned to one CPU, where reader pacing (§8) is what
// keeps the writer from starving, and a `background_rt1` row repacks
// serially (rebuild_threads 1) instead of on the default pool. Readers
// and the writer go through the typed SpcService API (DESIGN.md §9) —
// sync readers with kFresh, background readers with kBoundedStaleness —
// so the numbers price the real serving surface, and a final quiesced
// row compares facade-vs-service single-query throughput over 9
// interleaved pairs (the service-layer overhead budget is <= 2%).
//
// A second sweep prices durability (DESIGN.md §11): per-update latency
// through a non-durable service vs a WAL-journaled one under each
// WalSyncPolicy (kNone / kBatch / kEveryWrite), plus the durable-ack
// (group-commit flush) latency for writes that ask for
// WriteOptions::durable. The budget: kNone and kBatch journaling adds
// <= 2% to the plain update path — only kEveryWrite pays an fsync
// inline. Emits a human table and machine-readable JSON
// (BENCH_streaming_latency.json, override with argv[1]).

#include <sched.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "dspc/api/mapped_reader_service.h"
#include "dspc/api/replica_service.h"
#include "dspc/api/spc_service.h"
#include "dspc/common/rng.h"
#include "dspc/common/stats.h"
#include "dspc/common/stopwatch.h"
#include "dspc/core/dynamic_spc.h"
#include "dspc/core/hp_spc.h"
#include "dspc/graph/generators.h"
#include "dspc/graph/update_stream.h"
#include "dspc/persist/env.h"
#include "dspc/persist/replication.h"
#include "dspc/persist/snapshot_arena.h"
#include "dspc/persist/snapshot_publisher.h"
#include "dspc/persist/wal.h"

namespace {

using namespace dspc;

constexpr unsigned kReaders = 2;
constexpr size_t kBurstSize = 25;
constexpr int kBurstGapMs = 30;

struct WindowStats {
  size_t queries = 0;
  double p50_us = 0.0;
  double p90_us = 0.0;
  double p99_us = 0.0;
  double max_us = 0.0;
  // Stall depth buckets. >1ms is mostly scheduler noise on a loaded box;
  // >20ms is a query actually waiting out rebuild/lock chains — the
  // full-rebuild stall the background policy exists to eliminate.
  size_t stalls_1ms = 0;
  size_t stalls_20ms = 0;

  static WindowStats From(const SampleStats& s) {
    WindowStats w;
    w.queries = s.count();
    w.p50_us = s.Percentile(50.0);
    w.p90_us = s.Percentile(90.0);
    w.p99_us = s.Percentile(99.0);
    w.max_us = s.Max();
    for (const double v : s.values()) {
      if (v > 1000.0) ++w.stalls_1ms;
      if (v > 20000.0) ++w.stalls_20ms;
    }
    return w;
  }
};

struct PolicyResult {
  std::string name;
  size_t shards = 0;
  unsigned rebuild_threads = 0;  // SnapshotOptions::rebuild_threads
  size_t updates = 0;
  double update_seconds = 0.0;
  WindowStats burst;  // sampled while the writer was applying updates
  WindowStats idle;   // sampled between bursts
  size_t rebuilds = 0;
  size_t background_rebuilds = 0;
  size_t retired = 0;
  size_t shards_repacked = 0;
  size_t shards_adopted = 0;
  uint64_t pacing_yields = 0;  // dspc_reader_pacing_yields_total
};

PolicyResult ServeUnderBursts(const Graph& graph, const SpcIndex& base,
                              const std::vector<Update>& stream,
                              RefreshPolicy policy, size_t shards,
                              const std::string& name,
                              unsigned rebuild_threads = 0) {
  DynamicSpcOptions options;
  options.snapshot.refresh = policy;
  options.snapshot.rebuild_after_queries = 1;  // rebuild eagerly: worst case
  options.snapshot.shards = shards;
  options.snapshot.rebuild_threads = rebuild_threads;
  SpcService service(graph, base, options);    // adopt a copy of the index
  const DynamicSpcIndex& dyn = service.engine();
  dyn.WaitForFreshSnapshot();                  // warm the serving path

  // The service read mirrors each policy's historical serving contract:
  // sync readers demand freshness (they ride the snapshot when current,
  // the live index otherwise); background readers accept any bounded
  // staleness, never blocking on maintenance.
  ReadOptions read;
  if (policy == RefreshPolicy::kBackground) {
    read.consistency = Consistency::kBoundedStaleness;
    read.max_lag = ~0ull;  // any published snapshot qualifies
  }

  std::atomic<bool> stop{false};
  std::atomic<bool> in_burst{false};
  // [reader][0]: burst-window samples, [reader][1]: idle samples.
  std::vector<std::array<SampleStats, 2>> per_reader(kReaders);
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  const size_t n = graph.NumVertices();
  for (unsigned r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(1000 + r);
      uint64_t sink = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const auto s = static_cast<Vertex>(rng.NextBounded(n));
        const auto t = static_cast<Vertex>(rng.NextBounded(n));
        const bool burst = in_burst.load(std::memory_order_acquire);
        Stopwatch q;
        const auto res = service.Query(s, t, read);
        per_reader[r][burst ? 0 : 1].Add(q.ElapsedMicros());
        sink += res.ok() ? res->result.dist : 0;
      }
      if (sink == 0xDEADBEEF) std::printf("impossible\n");  // keep sink live
    });
  }

  // Writer: bursts of updates (spaced like an arriving stream so readers
  // interleave) with serving gaps between bursts.
  Stopwatch writer_watch;
  size_t applied = 0;
  for (size_t i = 0; i < stream.size(); ++i) {
    in_burst.store(true, std::memory_order_release);
    const auto resp = service.ApplyUpdates({&stream[i], 1});
    applied += resp.ok() && resp->stats.applied ? 1 : 0;
    if ((i + 1) % kBurstSize == 0) {
      in_burst.store(false, std::memory_order_release);
      std::this_thread::sleep_for(std::chrono::milliseconds(kBurstGapMs));
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
  }
  in_burst.store(false, std::memory_order_release);
  const double update_seconds = writer_watch.ElapsedSeconds();
  // Let readers drain the post-burst rebuild before sampling ends.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  SampleStats burst_all;
  SampleStats idle_all;
  for (const auto& s : per_reader) {
    for (const double v : s[0].values()) burst_all.Add(v);
    for (const double v : s[1].values()) idle_all.Add(v);
  }

  PolicyResult out;
  out.name = name;
  out.shards = shards;
  out.rebuild_threads = rebuild_threads;
  out.updates = applied;
  out.update_seconds = update_seconds;
  out.burst = WindowStats::From(burst_all);
  out.idle = WindowStats::From(idle_all);
  out.rebuilds = dyn.SnapshotRebuilds();
  out.background_rebuilds = dyn.snapshots()->BackgroundRebuilds();
  out.retired = dyn.snapshots()->RetiredSnapshots();
  out.shards_repacked = dyn.snapshots()->ShardsRepacked();
  out.shards_adopted = dyn.snapshots()->ShardsAdopted();
  out.pacing_yields = service.Metrics().reader_pacing_yields;
  return out;
}

/// Runs `row` with every thread it starts on one CPU: the calling thread
/// is pinned (sched_setaffinity acts on this thread only) before the
/// row's service, readers and workers are spawned, so they inherit the
/// mask; the original mask is restored afterwards. Empty, without
/// running the row, when the thread cannot be pinned.
template <typename Row>
std::optional<PolicyResult> OnOneCpu(Row row) {
  cpu_set_t saved;
  CPU_ZERO(&saved);
  cpu_set_t one;
  CPU_ZERO(&one);
  if (sched_getaffinity(0, sizeof(saved), &saved) == 0) {
    int cpu = 0;
    while (cpu < CPU_SETSIZE && !CPU_ISSET(cpu, &saved)) ++cpu;
    CPU_SET(cpu, &one);
  }
  if (CPU_COUNT(&one) == 0 || sched_setaffinity(0, sizeof(one), &one) != 0) {
    std::fprintf(stderr, "one_cpu: cannot pin to one CPU, row skipped\n");
    return std::nullopt;
  }
  PolicyResult result = row();
  sched_setaffinity(0, sizeof(saved), &saved);
  return result;
}

// --- durability sweep (DESIGN.md §11) ---------------------------------------

struct DurabilityRow {
  std::string name;
  size_t updates = 0;
  double p50_us = 0.0;   // plain (non-durable-flagged) update latency
  double p99_us = 0.0;
  double max_us = 0.0;
  size_t durable_acks = 0;  // writes issued with WriteOptions::durable
  double durable_p50_us = 0.0;  // durable-ack (flush) latency
  double durable_p99_us = 0.0;
  uint64_t wal_syncs = 0;
  uint64_t wal_appended_bytes = 0;
  double overhead_pct = 0.0;  // plain-update p50 vs the baseline row
};

/// Empties (or creates) a scratch WAL directory for one durable row.
std::string FreshWalDir(const std::string& tag) {
  FileSystem* fs = FileSystem::Default();
  const std::string dir = "/tmp/dspc_bench_wal_" + tag;
  (void)fs->CreateDir(dir);
  if (auto names = fs->ListDir(dir); names.ok()) {
    for (const std::string& name : *names) {
      (void)fs->RemoveFile(dir + "/" + name);
    }
  }
  return dir;
}

/// Drives `stream` through a non-durable baseline and one durable
/// service per WAL sync policy, INTERLEAVED per update (B N B E B N B E
/// ... for every input) so machine-load drift taxes all rows equally —
/// the per-row p50 deltas then isolate the journaling cost instead of
/// whichever row drew the quiet scheduling window. All four services
/// start from the same graph and apply the identical update sequence,
/// so every row does the same engine work. Every 8th write additionally
/// demands WriteOptions::durable so each row also prices the
/// durable-ack (flush) latency under its policy.
std::vector<DurabilityRow> SweepSyncPolicies(const Graph& graph,
                                             const SpcIndex& base,
                                             const std::vector<Update>& stream) {
  DynamicSpcOptions options;
  options.snapshot.refresh = RefreshPolicy::kManual;  // pure update path

  SpcService baseline(graph, base, options);
  const std::vector<std::pair<std::string, WalSyncPolicy>> policies = {
      {"wal_none", WalSyncPolicy::kNone},
      {"wal_batch", WalSyncPolicy::kBatch},
      {"wal_every", WalSyncPolicy::kEveryWrite},
  };
  std::vector<SpcService*> services = {&baseline};
  std::vector<std::unique_ptr<SpcService>> durables;
  for (const auto& [name, sync] : policies) {
    DurabilityOptions durability;
    durability.dir = FreshWalDir(name);
    durability.sync = sync;
    durability.checkpoint_wal_bytes = 0;  // no background checkpoints
    durability.checkpoint_wal_records = 0;  // mid-measurement
    auto service = SpcService::Open(Graph(graph), durability, options);
    if (!service.ok()) {
      std::fprintf(stderr, "durability row %s: open failed: %s\n",
                   name.c_str(), service.status().ToString().c_str());
      return {};
    }
    durables.push_back(std::move(*service));
    services.push_back(durables.back().get());
  }

  std::vector<SampleStats> plain(services.size());
  std::vector<SampleStats> durable(services.size());
  for (size_t i = 0; i < stream.size(); ++i) {
    const bool want_durable = i % 8 == 7;
    for (size_t s = 0; s < services.size(); ++s) {
      WriteOptions write;
      write.durable = want_durable && services[s]->Durable();
      Stopwatch w;
      const auto resp = services[s]->ApplyUpdates({&stream[i], 1}, write);
      const double us = w.ElapsedMicros();
      if (!resp.ok()) {
        std::fprintf(stderr, "durability row %zu: update failed: %s\n", s,
                     resp.status().ToString().c_str());
        return {};
      }
      (write.durable ? durable[s] : plain[s]).Add(us);
    }
  }

  std::vector<DurabilityRow> rows;
  for (size_t s = 0; s < services.size(); ++s) {
    DurabilityRow row;
    row.name = s == 0 ? "no_wal" : policies[s - 1].first;
    row.updates = stream.size();
    row.p50_us = plain[s].Percentile(50.0);
    row.p99_us = plain[s].Percentile(99.0);
    row.max_us = plain[s].Max();
    row.durable_acks = durable[s].count();
    row.durable_p50_us = durable[s].Percentile(50.0);
    row.durable_p99_us = durable[s].Percentile(99.0);
    const MetricsSnapshot m = services[s]->Metrics();
    row.wal_syncs = m.wal_syncs;
    row.wal_appended_bytes = m.wal_appended_bytes;
    rows.push_back(row);
  }
  return rows;
}

// --- replication sweep (DESIGN.md §13) --------------------------------------

struct ReplicationRow {
  size_t writes = 0;
  double ack_p50_us = 0.0;  // durable-ack latency on the primary
  double lag_p50_us = 0.0;  // durable ack -> visible on the replica
  double lag_p99_us = 0.0;
  double lag_max_us = 0.0;
  uint64_t checkpoints_shipped = 0;
  uint64_t bytes_shipped = 0;
  uint64_t ops_applied = 0;
  bool ok = false;
};

/// Prices the hot-standby pipeline: a kEveryWrite primary with a
/// free-running WalShipper into an in-process store, a background-tailing
/// ReplicaService on the other end. Each durable write is timed twice —
/// the primary's ack, then the extra wall time until the replica's
/// applied generation covers the acked token (ship + fetch + replay).
/// That second number is the replica apply lag a kBoundedStaleness
/// reader actually experiences.
ReplicationRow MeasureReplicaApplyLag(const Graph& graph,
                                      const std::vector<Update>& stream) {
  ReplicationRow row;
  DurabilityOptions durability;
  durability.dir = FreshWalDir("repl");
  durability.sync = WalSyncPolicy::kEveryWrite;
  durability.checkpoint_wal_bytes = 0;
  durability.checkpoint_wal_records = 0;
  DynamicSpcOptions options;
  options.snapshot.refresh = RefreshPolicy::kManual;  // pure update path
  auto primary = SpcService::Open(Graph(graph), durability, options);
  if (!primary.ok()) {
    std::fprintf(stderr, "replication row: open failed: %s\n",
                 primary.status().ToString().c_str());
    return row;
  }
  InProcessTransport transport;
  WalShipper::Options ship;
  ship.poll_interval = std::chrono::microseconds(100);
  auto shipper = (*primary)->NewShipper(&transport, ship);
  if (!shipper.ok()) {
    std::fprintf(stderr, "replication row: shipper failed: %s\n",
                 shipper.status().ToString().c_str());
    return row;
  }
  (*shipper)->Start();
  ReplicaOptions replica_options;
  replica_options.transport = &transport;
  replica_options.poll_interval = std::chrono::microseconds(100);
  replica_options.bootstrap_timeout = std::chrono::seconds(60);
  auto replica = ReplicaService::Open(replica_options);
  if (!replica.ok()) {
    std::fprintf(stderr, "replication row: replica open failed: %s\n",
                 replica.status().ToString().c_str());
    (*shipper)->Stop();
    return row;
  }

  SampleStats ack;
  SampleStats lag;
  WriteOptions write;
  write.durable = true;
  for (const Update& update : stream) {
    Stopwatch aw;
    const auto resp = (*primary)->ApplyUpdates({&update, 1}, write);
    if (!resp.ok()) {
      std::fprintf(stderr, "replication row: update failed: %s\n",
                   resp.status().ToString().c_str());
      (*replica)->Stop();
      (*shipper)->Stop();
      return row;
    }
    ack.Add(aw.ElapsedMicros());
    const uint64_t target = resp->token.generation;
    Stopwatch lw;
    while ((*replica)->AppliedGeneration() < target &&
           lw.ElapsedSeconds() < 10.0) {
      std::this_thread::yield();
    }
    lag.Add(lw.ElapsedMicros());
  }
  (*replica)->Stop();
  (*shipper)->Stop();

  row.writes = stream.size();
  row.ack_p50_us = ack.Percentile(50.0);
  row.lag_p50_us = lag.Percentile(50.0);
  row.lag_p99_us = lag.Percentile(99.0);
  row.lag_max_us = lag.Max();
  const WalShipper::Stats stats = (*shipper)->GetStats();
  row.checkpoints_shipped = stats.checkpoints_shipped;
  row.bytes_shipped = stats.bytes_shipped;
  row.ops_applied = (*replica)->Metrics().repl_ops_applied;
  row.ok = (*replica)->AppliedGeneration() == (*primary)->Generation() &&
           (*replica)->Health().ok();
  return row;
}

// --- multi-process publish adoption (DESIGN.md §14) --------------------------

struct AdoptionRow {
  size_t publishes = 0;
  double publish_p50_us = 0.0;  // writer: snapshot + arena write + rename
  double lag_p50_us = 0.0;      // publish visible -> reader serving it
  double lag_p99_us = 0.0;
  double lag_max_us = 0.0;
  uint64_t arena_bytes = 0;     // size of the last published arena
  bool ok = false;
};

/// Prices the mmap serving tier's freshness gap: a writer publishing
/// generation-numbered arenas through SnapshotPublisher, a
/// MappedReaderService adopting each by remap. Each round applies a
/// burst of updates, times PublishSnapshot (the writer-side cost:
/// freeze + flatten + tmp/fsync/rename), then times how long until the
/// reader *serves* the new generation (PUBSTATE read + pin + mmap +
/// validation + swap) — the publish-to-reader-visible adoption lag a
/// kSnapshot reader process experiences.
AdoptionRow MeasurePublishAdoptionLag(const Graph& graph, const SpcIndex& base,
                                      const std::vector<Update>& stream) {
  AdoptionRow row;
  const std::string dir = FreshWalDir("publish");
  DynamicSpcOptions options;
  options.snapshot.refresh = RefreshPolicy::kManual;  // pure update path
  SpcService service(graph, base, options);
  auto pub = SnapshotPublisher::Open(dir);
  if (!pub.ok()) {
    std::fprintf(stderr, "adoption row: publisher open failed: %s\n",
                 pub.status().ToString().c_str());
    return row;
  }
  if (Status st = service.PublishSnapshot(pub->get()); !st.ok()) {
    std::fprintf(stderr, "adoption row: first publish failed: %s\n",
                 st.ToString().c_str());
    return row;
  }
  auto reader = MappedReaderService::Open(dir);
  if (!reader.ok()) {
    std::fprintf(stderr, "adoption row: reader open failed: %s\n",
                 reader.status().ToString().c_str());
    return row;
  }

  SampleStats publish;
  SampleStats lag;
  constexpr size_t kUpdatesPerPublish = 10;
  for (size_t i = 0; i + kUpdatesPerPublish <= stream.size();
       i += kUpdatesPerPublish) {
    if (!service.ApplyUpdates({&stream[i], kUpdatesPerPublish}).ok()) {
      std::fprintf(stderr, "adoption row: updates failed\n");
      return row;
    }
    Stopwatch pw;
    if (Status st = service.PublishSnapshot(pub->get()); !st.ok()) {
      std::fprintf(stderr, "adoption row: publish failed: %s\n",
                   st.ToString().c_str());
      return row;
    }
    publish.Add(pw.ElapsedMicros());
    const uint64_t target = (*pub)->CurrentGeneration();
    Stopwatch lw;
    while ((*reader)->Generation() < target && lw.ElapsedSeconds() < 10.0) {
      (void)(*reader)->Refresh();
    }
    lag.Add(lw.ElapsedMicros());
  }

  row.publishes = publish.count();
  row.publish_p50_us = publish.Percentile(50.0);
  row.lag_p50_us = lag.Percentile(50.0);
  row.lag_p99_us = lag.Percentile(99.0);
  row.lag_max_us = lag.Max();
  row.ok = (*reader)->Generation() == service.Generation();
  if (auto state = ReadPubState(FileSystem::Default(), dir); state.ok()) {
    if (auto arena = MappedArena::Map(
            FileSystem::Default(),
            dir + "/" + SnapshotArenaFileName(state->generation));
        arena.ok()) {
      row.arena_bytes = arena->file_bytes();
    }
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path =
      argc > 1 ? argv[1] : "BENCH_streaming_latency.json";
  const size_t f = bench::ScaleFactor();

  const size_t scale = 12;
  const size_t edges = 34000 * f;
  const Graph graph = GenerateRmat(scale, edges, 5);
  std::printf("graph: RMAT scale=%zu  n=%zu  m=%zu\n", scale,
              graph.NumVertices(), graph.NumEdges());

  Stopwatch build_watch;
  const SpcIndex base = BuildSpcIndex(graph);
  std::printf("index: %zu entries, built in %.2fs\n",
              base.SizeStats().total_entries, build_watch.ElapsedSeconds());

  // 120 insertions + 30 deletions in bursts of 25.
  const std::vector<Update> stream = MakeHybridStream(graph, 120, 30, 9);

  // The policy sweep: sync and background at the library's default shard
  // count, plus the background shard sweep isolating the delta rebuild's
  // contribution (1 shard = the monolithic PR-2 behavior).
  const size_t kDefaultShards = SnapshotOptions::kDefaultShards;
  const PolicyResult sync = ServeUnderBursts(
      graph, base, stream, RefreshPolicy::kSync, kDefaultShards, "sync");
  const PolicyResult bg = ServeUnderBursts(graph, base, stream,
                                           RefreshPolicy::kBackground,
                                           kDefaultShards, "background");
  const PolicyResult bg_s1 = ServeUnderBursts(graph, base, stream,
                                              RefreshPolicy::kBackground, 1,
                                              "background_s1");
  const PolicyResult bg_s4 = ServeUnderBursts(graph, base, stream,
                                              RefreshPolicy::kBackground, 4,
                                              "background_s4");
  // The default repack pool (rebuild_threads 0: hardware concurrency,
  // capped at 8) against a serial repack on the rebuild worker, which
  // leaves the other CPUs to the readers and the writer.
  const PolicyResult bg_rt1 = ServeUnderBursts(
      graph, base, stream, RefreshPolicy::kBackground, kDefaultShards,
      "background_rt1", /*rebuild_threads=*/1);
  // Background serving with the writer, both readers and the rebuild
  // worker sharing one CPU.
  std::vector<PolicyResult> results = {sync, bg_s1, bg_s4, bg, bg_rt1};
  if (const auto one_cpu = OnOneCpu([&] {
        return ServeUnderBursts(graph, base, stream,
                                RefreshPolicy::kBackground, kDefaultShards,
                                "one_cpu");
      })) {
    results.push_back(*one_cpu);
  }

  std::printf("\n%-14s %-7s %9s %9s %9s %10s %7s %7s\n", "policy", "window",
              "queries", "p50 us", "p99 us", "max us", ">1ms", ">20ms");
  bench::PrintRule(7);
  for (const PolicyResult& r : results) {
    std::printf("%-14s %-7s %9zu %9.1f %9.1f %10.1f %7zu %7zu\n",
                r.name.c_str(), "burst", r.burst.queries, r.burst.p50_us,
                r.burst.p99_us, r.burst.max_us, r.burst.stalls_1ms,
                r.burst.stalls_20ms);
    std::printf("%-14s %-7s %9zu %9.1f %9.1f %10.1f %7zu %7zu  "
                "(%zu rebuilds, %zu shards repacked, %zu adopted, "
                "updates %.2fs, %llu pacing yields)\n",
                r.name.c_str(), "idle", r.idle.queries, r.idle.p50_us,
                r.idle.p99_us, r.idle.max_us, r.idle.stalls_1ms,
                r.idle.stalls_20ms, r.rebuilds, r.shards_repacked,
                r.shards_adopted, r.update_seconds,
                static_cast<unsigned long long>(r.pacing_yields));
  }
  const double worst_ratio =
      bg.burst.max_us > 0.0 ? sync.burst.max_us / bg.burst.max_us : 0.0;
  std::printf(
      "\nworst in-burst query stall: sync %.1fms vs background %.1fms "
      "(%.1fx);\nfull-rebuild stalls (>20ms): sync %zu vs background %zu "
      "(background rebuilds: %zu, snapshots retired: %zu)\n",
      sync.burst.max_us / 1000.0, bg.burst.max_us / 1000.0, worst_ratio,
      sync.burst.stalls_20ms + sync.idle.stalls_20ms,
      bg.burst.stalls_20ms + bg.idle.stalls_20ms, bg.background_rebuilds,
      bg.retired);

  // Service-layer overhead row: the same quiesced single-query loop
  // through the raw facade and through SpcService (validation +
  // consistency routing). The serving-path budget is <= 2%.
  double facade_qps = 0.0;
  double service_qps = 0.0;
  // Spread of the 9 per-pair overhead percentages.
  double overhead_p25 = 0.0;
  double overhead_median = 0.0;
  double overhead_p75 = 0.0;
  std::string overhead_metrics_text;  // §10 exposition of the probe run
  {
    DynamicSpcOptions options;
    options.snapshot.refresh = RefreshPolicy::kBackground;
    SpcService service(graph, base, options);
    service.engine().WaitForFreshSnapshot();
    const size_t probes = 600000 * f;
    Rng rng(31);
    std::vector<std::pair<Vertex, Vertex>> probe_pairs(probes);
    for (auto& p : probe_pairs) {
      p.first = static_cast<Vertex>(rng.NextBounded(graph.NumVertices()));
      p.second = static_cast<Vertex>(rng.NextBounded(graph.NumVertices()));
    }
    // Interleave the reps (F S F S ...) so machine-load drift between the
    // two loops cannot masquerade as API overhead, and take the median
    // per driver — the best-of is whichever loop got a lucky scheduling
    // window, the median is the serving rate both actually sustain.
    uint64_t sink = 0;
    SampleStats facade_reps;
    SampleStats service_reps;
    SampleStats overhead_pairs;  // per rep: (facade - service) / facade
    const ReadOptions fresh_read;  // kFresh defaults, hoisted
    for (int rep = 0; rep < 9; ++rep) {
      double facade_rep = 0.0;
      {
        Stopwatch w;
        for (const auto& [s, t] : probe_pairs) {
          sink += service.engine().Query(s, t).dist;
        }
        facade_rep = static_cast<double>(probes) / w.ElapsedSeconds();
        facade_reps.Add(facade_rep);
      }
      {
        Stopwatch w;
        for (const auto& [s, t] : probe_pairs) {
          const auto resp = service.Query(s, t, fresh_read);
          sink += resp.ok() ? resp->result.dist : 0;
        }
        const double service_rep =
            static_cast<double>(probes) / w.ElapsedSeconds();
        service_reps.Add(service_rep);
        overhead_pairs.Add((facade_rep - service_rep) / facade_rep * 100.0);
      }
    }
    overhead_p25 = overhead_pairs.P25();
    overhead_median = overhead_pairs.Median();
    overhead_p75 = overhead_pairs.P75();
    facade_qps = facade_reps.Median();
    service_qps = service_reps.Median();
    overhead_metrics_text = service.Metrics().PrometheusText();
    if (sink == 0xDEADBEEF) std::printf("impossible\n");
  }
  const double service_overhead_pct =
      facade_qps > 0.0 ? (facade_qps - service_qps) / facade_qps * 100.0
                       : 0.0;
  std::printf(
      "service overhead: facade %.0f q/s vs SpcService %.0f q/s "
      "(%.2f%% overhead)\n"
      "per-pair overhead over 9 interleaved pairs: median %.2f%%, "
      "quartiles %.2f%%..%.2f%%\n",
      facade_qps, service_qps, service_overhead_pct, overhead_median,
      overhead_p25, overhead_p75);
  std::printf("\n%s", overhead_metrics_text.c_str());

  // Durability sweep: the same single-update drive through a non-durable
  // service and through SpcService::Open under each WAL sync policy. The
  // baseline adopts the prebuilt index; durable rows bootstrap their own
  // (identical) index, so only the update path differs.
  const std::vector<Update> wal_stream = MakeHybridStream(graph, 600, 150, 17);
  std::vector<DurabilityRow> wal_rows = SweepSyncPolicies(graph, base,
                                                          wal_stream);
  if (wal_rows.empty()) return 1;
  const double base_p50 = wal_rows[0].p50_us;
  for (DurabilityRow& r : wal_rows) {
    r.overhead_pct =
        base_p50 > 0.0 ? (r.p50_us - base_p50) / base_p50 * 100.0 : 0.0;
  }

  std::printf("\n%-10s %8s %9s %9s %10s %9s %11s %11s %7s %10s\n", "wal",
              "updates", "p50 us", "p99 us", "max us", "ovh %", "dur p50 us",
              "dur p99 us", "syncs", "wal bytes");
  bench::PrintRule(10);
  for (const DurabilityRow& r : wal_rows) {
    std::printf("%-10s %8zu %9.1f %9.1f %10.1f %9.2f %11.1f %11.1f %7llu "
                "%10llu\n",
                r.name.c_str(), r.updates, r.p50_us, r.p99_us, r.max_us,
                r.overhead_pct, r.durable_p50_us, r.durable_p99_us,
                static_cast<unsigned long long>(r.wal_syncs),
                static_cast<unsigned long long>(r.wal_appended_bytes));
  }
  std::printf(
      "journaling overhead on the plain update path (p50): "
      "kNone %+.2f%%, kBatch %+.2f%%, kEveryWrite %+.2f%% "
      "(budget <= 2%% for kNone/kBatch; kEveryWrite pays its inline fsync)\n",
      wal_rows[1].overhead_pct, wal_rows[2].overhead_pct,
      wal_rows[3].overhead_pct);

  // Replication row: what a hot standby adds on top of kEveryWrite —
  // the durable ack is unchanged (shipping is off the commit path), and
  // the apply lag is the freshness gap a replica reader sees.
  const std::vector<Update> repl_stream = MakeHybridStream(graph, 240, 60, 23);
  const ReplicationRow repl = MeasureReplicaApplyLag(graph, repl_stream);
  std::printf("\n%-12s %7s %11s %11s %11s %11s %7s %10s\n", "replication",
              "writes", "ack p50 us", "lag p50 us", "lag p99 us",
              "lag max us", "ckpts", "bytes");
  bench::PrintRule(8);
  std::printf("%-12s %7zu %11.1f %11.1f %11.1f %11.1f %7llu %10llu  (%s, "
              "%llu ops applied)\n",
              "hot_standby", repl.writes, repl.ack_p50_us, repl.lag_p50_us,
              repl.lag_p99_us, repl.lag_max_us,
              static_cast<unsigned long long>(repl.checkpoints_shipped),
              static_cast<unsigned long long>(repl.bytes_shipped),
              repl.ok ? "converged" : "NOT CONVERGED",
              static_cast<unsigned long long>(repl.ops_applied));

  // Multi-process serving row: publish-to-reader-visible adoption lag
  // through the shared-directory arena protocol (DESIGN.md §14).
  const std::vector<Update> pub_stream = MakeHybridStream(graph, 240, 60, 29);
  const AdoptionRow adoption = MeasurePublishAdoptionLag(graph, base,
                                                         pub_stream);
  std::printf("\n%-12s %9s %11s %11s %11s %11s %11s\n", "mmap serving",
              "publishes", "pub p50 us", "lag p50 us", "lag p99 us",
              "lag max us", "arena B");
  bench::PrintRule(7);
  std::printf("%-12s %9zu %11.1f %11.1f %11.1f %11.1f %11llu  (%s)\n",
              "publish", adoption.publishes, adoption.publish_p50_us,
              adoption.lag_p50_us, adoption.lag_p99_us, adoption.lag_max_us,
              static_cast<unsigned long long>(adoption.arena_bytes),
              adoption.ok ? "converged" : "NOT CONVERGED");

  std::FILE* json = std::fopen(json_path.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(json,
               "{\n"
               "  \"bench\": \"streaming_latency\",\n"
               "  \"graph\": {\"generator\": \"rmat\", \"scale\": %zu, "
               "\"vertices\": %zu, \"edges\": %zu},\n"
               "  \"readers\": %u,\n"
               "  \"burst_size\": %zu,\n"
               "  \"burst_gap_ms\": %d,\n"
               "  \"hardware_threads\": %u,\n"
               "  \"cpu_flags\": \"%s\",\n"
               "  \"policies\": [\n",
               scale, graph.NumVertices(), graph.NumEdges(), kReaders,
               kBurstSize, kBurstGapMs, std::thread::hardware_concurrency(),
               bench::CpuFlags().c_str());
  bool first = true;
  for (const PolicyResult& r : results) {
    std::fprintf(
        json,
        "    %s{\"policy\": \"%s\", \"shards\": %zu, "
        "\"rebuild_threads\": %u, \"updates\": %zu, "
        "\"update_seconds\": %.4f,\n"
        "     \"burst\": {\"queries\": %zu, \"p50_us\": %.2f, "
        "\"p90_us\": %.2f, \"p99_us\": %.2f, \"max_us\": %.2f, "
        "\"stalls_over_1ms\": %zu, \"stalls_over_20ms\": %zu},\n"
        "     \"idle\": {\"queries\": %zu, \"p50_us\": %.2f, "
        "\"p90_us\": %.2f, \"p99_us\": %.2f, \"max_us\": %.2f, "
        "\"stalls_over_1ms\": %zu, \"stalls_over_20ms\": %zu},\n"
        "     \"rebuilds\": %zu, \"background_rebuilds\": %zu, "
        "\"retired_snapshots\": %zu, \"shards_repacked\": %zu, "
        "\"shards_adopted\": %zu, \"pacing_yields\": %llu}\n",
        first ? "" : ",", r.name.c_str(), r.shards, r.rebuild_threads,
        r.updates,
        r.update_seconds, r.burst.queries, r.burst.p50_us, r.burst.p90_us,
        r.burst.p99_us, r.burst.max_us, r.burst.stalls_1ms,
        r.burst.stalls_20ms, r.idle.queries, r.idle.p50_us, r.idle.p90_us,
        r.idle.p99_us, r.idle.max_us, r.idle.stalls_1ms, r.idle.stalls_20ms,
        r.rebuilds, r.background_rebuilds, r.retired, r.shards_repacked,
        r.shards_adopted, static_cast<unsigned long long>(r.pacing_yields));
    first = false;
  }
  std::fprintf(json, "  ],\n  \"durability\": [\n");
  first = true;
  for (const DurabilityRow& r : wal_rows) {
    std::fprintf(
        json,
        "    %s{\"policy\": \"%s\", \"updates\": %zu, \"p50_us\": %.2f, "
        "\"p99_us\": %.2f, \"max_us\": %.2f, \"overhead_pct\": %.3f,\n"
        "     \"durable_acks\": %zu, \"durable_p50_us\": %.2f, "
        "\"durable_p99_us\": %.2f, \"wal_syncs\": %llu, "
        "\"wal_appended_bytes\": %llu}\n",
        first ? "" : ",", r.name.c_str(), r.updates, r.p50_us, r.p99_us,
        r.max_us, r.overhead_pct, r.durable_acks, r.durable_p50_us,
        r.durable_p99_us, static_cast<unsigned long long>(r.wal_syncs),
        static_cast<unsigned long long>(r.wal_appended_bytes));
    first = false;
  }
  std::fprintf(json,
               "  ],\n"
               "  \"replication\": {\"writes\": %zu, \"ack_p50_us\": %.2f, "
               "\"apply_lag_p50_us\": %.2f, \"apply_lag_p99_us\": %.2f, "
               "\"apply_lag_max_us\": %.2f,\n"
               "    \"checkpoints_shipped\": %llu, \"bytes_shipped\": %llu, "
               "\"ops_applied\": %llu, \"converged\": %s},\n",
               repl.writes, repl.ack_p50_us, repl.lag_p50_us, repl.lag_p99_us,
               repl.lag_max_us,
               static_cast<unsigned long long>(repl.checkpoints_shipped),
               static_cast<unsigned long long>(repl.bytes_shipped),
               static_cast<unsigned long long>(repl.ops_applied),
               repl.ok ? "true" : "false");
  std::fprintf(json,
               "  \"publish_adoption\": {\"publishes\": %zu, "
               "\"publish_p50_us\": %.2f, \"adoption_lag_p50_us\": %.2f, "
               "\"adoption_lag_p99_us\": %.2f, \"adoption_lag_max_us\": %.2f, "
               "\"arena_bytes\": %llu, \"converged\": %s},\n",
               adoption.publishes, adoption.publish_p50_us,
               adoption.lag_p50_us, adoption.lag_p99_us, adoption.lag_max_us,
               static_cast<unsigned long long>(adoption.arena_bytes),
               adoption.ok ? "true" : "false");
  std::fprintf(json,
               "  \"sync_over_background_worst_burst_stall\": %.3f,\n"
               "  \"default_shards\": %zu,\n"
               "  \"background_s1_over_default_update_seconds\": %.3f,\n"
               "  \"facade_single_qps\": %.0f,\n"
               "  \"service_single_qps\": %.0f,\n"
               "  \"service_overhead_pct\": %.3f,\n"
               "  \"service_overhead_pair_pct\": {\"p25\": %.3f, "
               "\"median\": %.3f, \"p75\": %.3f}\n"
               "}\n",
               worst_ratio, kDefaultShards,
               bg.update_seconds > 0.0
                   ? bg_s1.update_seconds / bg.update_seconds
                   : 0.0,
               facade_qps, service_qps, service_overhead_pct, overhead_p25,
               overhead_median, overhead_p75);
  std::fclose(json);
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}
