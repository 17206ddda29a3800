// Crash-matrix recovery suite (DESIGN.md §11): a deterministic durable
// workload is run once unarmed to count its mutating filesystem
// operations, then re-run once per operation index with a
// FaultInjectingEnv killing exactly that operation — mid-WAL-append,
// mid-checkpoint-write, between rename and dir-fsync, everywhere. After
// each simulated crash the directory is reopened with the real
// filesystem and the recovered service must land on EXACTLY the
// generation of the last durably-acknowledged write, answering random
// queries bit-for-bit like a BiBFS on the mirror graph at that
// generation.
//
// Registered under `ctest -L stress`. Set DSPC_RECOVERY_KILL_LOOP=<n>
// to re-run the matrix n extra times with fresh workload seeds.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "dspc/api/spc_service.h"
#include "dspc/baseline/bibfs_counting.h"
#include "dspc/common/rng.h"
#include "dspc/core/hp_spc.h"
#include "dspc/graph/generators.h"
#include "dspc/persist/checkpointer.h"
#include "dspc/persist/env.h"
#include "dspc/persist/recovery.h"
#include "dspc/persist/wal.h"
#include "test_util.h"

namespace dspc {
namespace {

using dspc::testing::FreshDir;

// Ground truth the WAL must reproduce: vertex count + edge set.
struct MirrorState {
  size_t n = 0;
  std::set<std::pair<Vertex, Vertex>> edges;

  Graph ToGraph() const {
    std::vector<Edge> list;
    list.reserve(edges.size());
    for (const auto& [u, v] : edges) list.push_back(Edge{u, v});
    return Graph(n, list);
  }
  void Insert(Vertex u, Vertex v) {
    if (u > v) std::swap(u, v);
    edges.insert({u, v});
  }
  void Remove(Vertex u, Vertex v) {
    if (u > v) std::swap(u, v);
    edges.erase({u, v});
  }
  void RemoveVertexEdges(Vertex v) {
    for (auto it = edges.begin(); it != edges.end();) {
      it = (it->first == v || it->second == v) ? edges.erase(it) : ++it;
    }
  }
};

MirrorState MirrorOf(const Graph& g) {
  MirrorState state;
  state.n = g.NumVertices();
  for (const Edge& e : g.Edges()) state.edges.insert({e.u, e.v});
  return state;
}

// The scripted workload: edge batches (with deliberate no-ops), vertex
// adds/removes, and two explicit checkpoints, all durably acknowledged
// (kEveryWrite). Deterministic for a fixed seed — no background threads.
// Records, after every acknowledged write, the mirror state at that
// token's generation. Returns false once a call fails (the simulated
// crash tripped); `acked` then holds exactly the durable prefix.
struct WorkloadLog {
  std::map<uint64_t, MirrorState> acked;  // generation -> state
  uint64_t last_acked_generation = 0;
};

bool RunWorkload(SpcService* service, uint64_t seed, WorkloadLog* log) {
  MirrorState mirror = MirrorOf(service->engine().graph());
  log->last_acked_generation = service->Generation();
  log->acked[log->last_acked_generation] = mirror;

  const WriteOptions durable{.durable = true};
  Rng rng(seed);
  for (int step = 0; step < 24; ++step) {
    if (step == 8 || step == 16) {
      if (!service->Checkpoint().ok()) return false;
      continue;
    }
    const uint64_t dice = rng.NextBounded(10);
    if (dice == 0) {
      const AddVertexResponse resp = service->AddVertex(durable);
      if (resp.vertex == kInvalidVertex || !resp.token.durable) return false;
      mirror.n += 1;
      log->last_acked_generation = resp.token.generation;
      log->acked[resp.token.generation] = mirror;
      continue;
    }
    if (dice == 1 && mirror.n > 2) {
      const auto v = static_cast<Vertex>(rng.NextBounded(mirror.n));
      const auto resp = service->RemoveVertex(v, durable);
      if (!resp.ok() || !resp->token.durable) return false;
      mirror.RemoveVertexEdges(v);
      log->last_acked_generation = resp->token.generation;
      log->acked[resp->token.generation] = mirror;
      continue;
    }
    // An edge batch of 1-3 updates; roughly half the candidates are
    // no-ops (inserting present edges / deleting absent ones), so replay
    // idempotency of kNoOp outcomes is always on trial.
    std::vector<Update> updates;
    const size_t count = 1 + rng.NextBounded(3);
    for (size_t i = 0; i < count; ++i) {
      auto u = static_cast<Vertex>(rng.NextBounded(mirror.n));
      auto v = static_cast<Vertex>(rng.NextBounded(mirror.n));
      if (u == v) v = (v + 1) % static_cast<Vertex>(mirror.n);
      updates.push_back(rng.NextBounded(2) ? Update::Insert(u, v)
                                           : Update::Delete(u, v));
    }
    const auto resp = service->ApplyUpdates(updates, durable);
    if (!resp.ok() || !resp->token.durable) return false;
    for (size_t i = 0; i < updates.size(); ++i) {
      if (resp->reports[i].outcome != WriteReport::Outcome::kApplied) {
        continue;
      }
      const Edge& e = updates[i].edge;
      if (updates[i].kind == Update::Kind::kInsert) {
        mirror.Insert(e.u, e.v);
      } else {
        mirror.Remove(e.u, e.v);
      }
    }
    log->last_acked_generation = resp->token.generation;
    log->acked[resp->token.generation] = mirror;
  }
  return true;
}

DurabilityOptions EveryWriteOptions(const std::string& dir,
                                    FileSystem* fs = nullptr) {
  DurabilityOptions durability;
  durability.dir = dir;
  durability.sync = WalSyncPolicy::kEveryWrite;
  // No background checkpointer: explicit Checkpoint() calls keep the
  // filesystem operation sequence deterministic for the crash matrix.
  durability.checkpoint_wal_bytes = 0;
  durability.checkpoint_wal_records = 0;
  durability.fs = fs;
  return durability;
}

// Recovers `dir` with the REAL filesystem and checks the recovered
// service against the workload's acknowledgment log: exact generation,
// then `queries` random answers bit-for-bit against BiBFS on the mirror
// graph at that generation.
void CheckRecovered(const std::string& dir, const Graph& bootstrap,
                    const WorkloadLog& log, size_t queries,
                    const std::string& context) {
  auto reopened = SpcService::Open(bootstrap, EveryWriteOptions(dir));
  ASSERT_TRUE(reopened.ok()) << context << ": " << reopened.status().ToString();
  SpcService& service = **reopened;
  const RecoveryReport& report = service.RecoveryInfo();

  // THE durability contract: recovery lands on exactly the generation of
  // the last durably-acknowledged write — nothing acknowledged is lost,
  // nothing unacknowledged is resurrected past it.
  ASSERT_EQ(report.recovered_generation, log.last_acked_generation)
      << context << ": " << report.ToString();
  ASSERT_EQ(service.Generation(), log.last_acked_generation) << context;

  const auto it = log.acked.find(report.recovered_generation);
  ASSERT_TRUE(it != log.acked.end()) << context;
  const Graph truth = it->second.ToGraph();
  ASSERT_EQ(service.NumVertices(), truth.NumVertices()) << context;

  Rng rng(0xD15C + report.recovered_generation);
  const auto n = static_cast<Vertex>(truth.NumVertices());
  for (size_t q = 0; q < queries; ++q) {
    const auto s = static_cast<Vertex>(rng.NextBounded(n));
    const auto t = static_cast<Vertex>(rng.NextBounded(n));
    const auto resp = service.Query(s, t);
    ASSERT_TRUE(resp.ok()) << context;
    const SpcResult expect = BiBfsCountPair(truth, s, t);
    ASSERT_EQ(resp->result, expect)
        << context << ": query (" << s << ", " << t << ") diverged at "
        << report.ToString();
  }
}

// --- clean close / reopen ----------------------------------------------------

TEST(RecoveryTest, CleanCloseReopensAtExactGenerationWithExactAnswers) {
  const std::string dir = FreshDir("recovery_clean");
  const Graph bootstrap = GenerateBarabasiAlbert(40, 2, 21);
  WorkloadLog log;
  {
    auto service = SpcService::Open(bootstrap, EveryWriteOptions(dir));
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    EXPECT_TRUE((*service)->Durable());
    EXPECT_TRUE((*service)->RecoveryInfo().bootstrapped);
    ASSERT_TRUE(RunWorkload(service->get(), 0xABCD, &log));
  }
  CheckRecovered(dir, bootstrap, log, 1000, "clean close");

  // Reopen count two: recovery after recovery (the post-recovery
  // checkpoint must leave a self-contained directory).
  CheckRecovered(dir, bootstrap, log, 200, "second reopen");
}

// The open-time checkpoint is written from the engine's own (sharded)
// snapshot; the encoder flattens the shards, so the checkpoint unpacks
// to exactly the engine's index, and recovery from it reopens there.
TEST(RecoveryTest, OpenTimeCheckpointUnpacksToTheEngineIndex) {
  const std::string dir = FreshDir("recovery_open_checkpoint");
  FileSystem* fs = FileSystem::Default();
  const Graph graph = GenerateBarabasiAlbert(60, 2, 5);
  DynamicSpcOptions options;
  options.snapshot.shards = 4;
  auto service = SpcService::OpenWithState(
      graph, BuildSpcIndex(graph), 7, EveryWriteOptions(dir), options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  ASSERT_GT((*service)->engine().FlatSnapshot()->NumShards(), 1u);

  auto manifest = ReadManifest(fs, dir);
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  EXPECT_EQ(manifest->generation, 7u);
  LoadedCheckpoint loaded;
  ASSERT_TRUE(LoadCheckpoint(fs, dir, 7, &loaded).ok());
  EXPECT_TRUE(loaded.index.Unpack() == (*service)->engine().index());
  EXPECT_EQ(loaded.graph.Edges(), graph.Edges());
}

TEST(RecoveryTest, MetricsExposeDurabilityAndRecoveryCounters) {
  const std::string dir = FreshDir("recovery_metrics");
  const Graph bootstrap = GenerateBarabasiAlbert(30, 2, 5);
  {
    auto service = SpcService::Open(bootstrap, EveryWriteOptions(dir));
    ASSERT_TRUE(service.ok());
    const auto resp =
        (*service)->InsertEdge(0, 25, WriteOptions{.durable = true});
    ASSERT_TRUE(resp.ok());
    EXPECT_TRUE(resp->token.durable);
    const MetricsSnapshot snap = (*service)->Metrics();
    EXPECT_GE(snap.wal_appends, 2u);  // intent + commit
    EXPECT_GT(snap.wal_appended_bytes, 0u);
    EXPECT_GE(snap.wal_syncs, 2u);    // kEveryWrite: one per append
    EXPECT_EQ(snap.wal_durable_waits, 1u);
    EXPECT_GE(snap.checkpoints, 1u);  // the Open-time publish
    const std::string text = snap.PrometheusText();
    EXPECT_NE(text.find("dspc_wal_durable_waits_total 1\n"),
              std::string::npos);
    EXPECT_NE(text.find("dspc_recovery_replayed_total 0\n"),
              std::string::npos);
  }
  auto reopened = SpcService::Open(bootstrap, EveryWriteOptions(dir));
  ASSERT_TRUE(reopened.ok());
  // The edge landed AFTER the Open-time checkpoint, so reopening has to
  // replay it — and say so in the counters.
  EXPECT_EQ((*reopened)->Metrics().recovery_replayed, 1u);
  EXPECT_EQ((*reopened)->RecoveryInfo().replayed, 1u);
}

// --- the crash matrix --------------------------------------------------------

struct MatrixTally {
  uint64_t total_ops = 0;
  uint64_t crashed_runs = 0;
  uint64_t open_failures = 0;  // crash hit during the initial Open
};

void RunCrashMatrix(const std::string& dirname, uint64_t seed,
                    bool short_writes, size_t queries_per_point,
                    MatrixTally* tally) {
  const Graph bootstrap = GenerateBarabasiAlbert(40, 2, 33);

  // Pass 1 (unarmed): count the workload's mutating operations.
  uint64_t total_ops = 0;
  {
    const std::string dir = FreshDir(dirname + "_count");
    FaultInjectingEnv env(FileSystem::Default());
    WorkloadLog log;
    auto service =
        SpcService::Open(bootstrap, EveryWriteOptions(dir, &env));
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    ASSERT_TRUE(RunWorkload(service->get(), seed, &log));
    service->reset();  // clean close (counted, but the matrix stops short)
    total_ops = env.OperationCount();
    ASSERT_GT(total_ops, 50u);
  }
  tally->total_ops = total_ops;

  // Pass 2: one run per operation index. The run crashes at (or before)
  // index `k`; whatever reached the base filesystem is the disk at power
  // loss; recovery must land on the acknowledged prefix.
  for (uint64_t k = 0; k < total_ops; ++k) {
    SCOPED_TRACE("fault index " + std::to_string(k) +
                 (short_writes ? " (short write)" : "") + ", seed " +
                 std::to_string(seed));
    const std::string dir = FreshDir(dirname + "_armed");
    FaultInjectingEnv env(FileSystem::Default());
    env.Arm(k, short_writes);

    WorkloadLog log;
    bool completed = false;
    {
      auto service =
          SpcService::Open(bootstrap, EveryWriteOptions(dir, &env));
      if (service.ok()) {
        completed = RunWorkload(service->get(), seed, &log);
      } else {
        ++tally->open_failures;
        // Even a failed Open has an acknowledgment baseline: nothing.
        // Recovery must bootstrap (or recover the partial publish) at
        // the fresh service's generation.
        SpcService probe(bootstrap);
        log.last_acked_generation = probe.Generation();
        log.acked[log.last_acked_generation] =
            MirrorOf(probe.engine().graph());
      }
      // Service destructor runs against the dead env — the simulated
      // crash; nothing more reaches the disk.
    }
    if (!completed) ++tally->crashed_runs;
    EXPECT_TRUE(env.Tripped());
    CheckRecovered(dir, bootstrap, log, queries_per_point,
                   "fault index " + std::to_string(k));
  }
}

TEST(RecoveryCrashMatrixTest, EveryFaultPointRecoversToLastAckedGeneration) {
  MatrixTally tally;
  RunCrashMatrix("crash_matrix", 0x5EED, /*short_writes=*/false,
                 /*queries_per_point=*/40, &tally);
  // The matrix only means something if faults actually interrupted the
  // workload at many distinct points.
  EXPECT_GT(tally.crashed_runs, 0u);
  EXPECT_GT(tally.open_failures, 0u);
  RecordProperty("total_ops", static_cast<int>(tally.total_ops));
}

TEST(RecoveryCrashMatrixTest, ShortWritesLeaveRepairableTornTails) {
  MatrixTally tally;
  RunCrashMatrix("crash_matrix_torn", 0x7EED, /*short_writes=*/true,
                 /*queries_per_point=*/25, &tally);
  EXPECT_GT(tally.crashed_runs, 0u);
}

// Kill-loop mode: DSPC_RECOVERY_KILL_LOOP=<n> re-runs the full matrix n
// more times with fresh seeds (CI soak; a no-op locally by default).
TEST(RecoveryCrashMatrixTest, KillLoop) {
  const char* loops = std::getenv("DSPC_RECOVERY_KILL_LOOP");
  const int n = loops != nullptr ? std::atoi(loops) : 0;
  for (int i = 0; i < n; ++i) {
    MatrixTally tally;
    RunCrashMatrix("kill_loop_" + std::to_string(i),
                   0x1000 + static_cast<uint64_t>(i) * 7919,
                   /*short_writes=*/(i % 2) == 1, /*queries_per_point=*/25,
                   &tally);
  }
}

// --- torn tails and corruption at the service level --------------------------

TEST(RecoveryTest, GarbageAppendedToTheWalIsTruncatedNotFatal) {
  const std::string dir = FreshDir("recovery_garbage_tail");
  const Graph bootstrap = GenerateBarabasiAlbert(30, 2, 9);
  WorkloadLog log;
  {
    auto service = SpcService::Open(bootstrap, EveryWriteOptions(dir));
    ASSERT_TRUE(service.ok());
    ASSERT_TRUE(RunWorkload(service->get(), 0xBEEF, &log));
  }
  // Append junk to the newest segment: a torn final write.
  FileSystem* fs = FileSystem::Default();
  auto names = fs->ListDir(dir);
  ASSERT_TRUE(names.ok());
  uint64_t max_seq = 0;
  for (const std::string& name : *names) {
    uint64_t seq = 0;
    if (ParseWalSegmentFileName(name, &seq) && seq > max_seq) max_seq = seq;
  }
  ASSERT_GT(max_seq, 0u);
  const std::string segment_path = dir + "/" + WalSegmentFileName(max_seq);
  std::vector<uint8_t> data;
  ASSERT_TRUE(fs->ReadFile(segment_path, &data).ok());
  data.insert(data.end(), {0xDE, 0xAD, 0xBE, 0xEF, 0x01, 0x02, 0x03});
  {
    auto f = fs->NewWritableFile(segment_path);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE((*f)->Append(data.data(), data.size()).ok());
    ASSERT_TRUE((*f)->Close().ok());
  }
  auto reopened = SpcService::Open(bootstrap, EveryWriteOptions(dir));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_GT((*reopened)->RecoveryInfo().truncated_tail_bytes, 0u);
  EXPECT_EQ((*reopened)->Generation(), log.last_acked_generation);
}

// A durable batch whose WAL intent record would exceed the one-frame cap
// must be rejected up front with kInvalidArgument — NOT appended, fsynced
// and acknowledged only to be read back as a "torn tail" (and silently
// truncated) at recovery.
TEST(RecoveryTest, DurableBatchesBeyondTheWalFrameCapAreRejectedUpFront) {
  const std::string dir = FreshDir("recovery_oversize_batch");
  const Graph bootstrap = GenerateBarabasiAlbert(30, 2, 3);
  auto service = SpcService::Open(bootstrap, EveryWriteOptions(dir));
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  const uint64_t before = (*service)->Generation();

  std::vector<Update> updates(kWalMaxBatchUpdates + 1, Update::Insert(0, 1));
  const auto resp =
      (*service)->ApplyUpdates(updates, WriteOptions{.durable = true});
  ASSERT_FALSE(resp.ok());
  EXPECT_TRUE(resp.status().IsInvalidArgument()) << resp.status().ToString();

  // A caller error, not a device failure: the log must not fail-stop.
  const auto ok = (*service)->AddVertex(WriteOptions{.durable = true});
  ASSERT_NE(ok.vertex, kInvalidVertex);
  EXPECT_TRUE(ok.token.durable);
  EXPECT_EQ((*service)->Generation(), before + 1);
}

// Regression for two recovery bugs that only meet under checkpoint
// fallback across process restarts:
//
//  1. Batch seqs restarting at 1 every Open: a crashed run's synced-but-
//     unpaired intent (seq N) plus a later run reusing seq N made the
//     fallback replay — the one path that reads both runs' segments —
//     die with "duplicate wal intent seq". Seqs are now scoped by WAL
//     segment, which is unique across restarts.
//  2. The open-time Publish deriving its retained fallback from the
//     on-disk MANIFEST: after fallback recovery that MANIFEST names the
//     checkpoint recovery just PROVED corrupt, and retaining it lets GC
//     delete the proven-good one.
TEST(RecoveryTest, FallbackRecoveryAcrossCrashedRunsAndCorruptCheckpoints) {
  const std::string dir = FreshDir("recovery_fallback_restart");
  const Graph bootstrap = GenerateBarabasiAlbert(30, 2, 7);
  FileSystem* fs = FileSystem::Default();
  const WriteOptions durable{.durable = true};

  // Run 1: one acknowledged durable write (AddVertex: always applies, so
  // the generation demonstrably advances), then a crash that lands after
  // a batch write's intent is synced but before its commit is appended —
  // the canonical stale unpaired intent. The fresh vertex also gives the
  // later runs edges guaranteed absent from the bootstrap graph.
  uint64_t acked_gen = 0;
  Vertex fresh = kInvalidVertex;
  {
    FaultInjectingEnv env(fs);
    auto service = SpcService::Open(bootstrap, EveryWriteOptions(dir, &env));
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    const AddVertexResponse resp = (*service)->AddVertex(durable);
    ASSERT_NE(resp.vertex, kInvalidVertex);
    ASSERT_TRUE(resp.token.durable);
    acked_gen = resp.token.generation;
    fresh = resp.vertex;
    // Arm resets the op counter; the ops after it under kEveryWrite are
    // append intent (0), sync (1), append commit (2), sync (3). Kill the
    // commit append: the intent is durable, unpaired.
    env.Arm(2);
    const std::vector<Update> doomed = {Update::Insert(0, fresh)};
    ASSERT_FALSE((*service)->ApplyUpdates(doomed, durable).ok());
    EXPECT_TRUE(env.Tripped());
  }

  // Run 2: recovery drops the unpaired intent; two more acknowledged
  // batch writes land in the new run's segment (two, so the restarted
  // run reaches the crashed run's stale seq under a per-Open counter;
  // edges into the fresh vertex, so both genuinely apply).
  uint64_t final_gen = 0;
  {
    auto service = SpcService::Open(bootstrap, EveryWriteOptions(dir));
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    ASSERT_EQ((*service)->Generation(), acked_gen);
    const std::vector<Update> first = {Update::Insert(5, fresh)};
    ASSERT_TRUE((*service)->ApplyUpdates(first, durable).ok());
    const std::vector<Update> second = {Update::Insert(6, fresh)};
    const auto resp = (*service)->ApplyUpdates(second, durable);
    ASSERT_TRUE(resp.ok());
    ASSERT_EQ(resp->applied, 1u);
    final_gen = resp->token.generation;
    ASSERT_EQ(final_gen, acked_gen + 2);
  }

  // Corrupt the current checkpoint: recovery must fall back to the
  // retained previous one and replay BOTH runs' segments — the stale
  // unpaired intent and the later run's records in one pass.
  auto manifest = ReadManifest(fs, dir);
  ASSERT_TRUE(manifest.ok());
  const std::string current =
      dir + "/" + CheckpointFileName(manifest->generation);
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(fs->ReadFile(current, &bytes).ok());
  ASSERT_GT(bytes.size(), 64u);
  bytes[bytes.size() / 2] ^= 0x40;
  {
    auto f = fs->NewWritableFile(current);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE((*f)->Append(bytes.data(), bytes.size()).ok());
    ASSERT_TRUE((*f)->Close().ok());
  }
  {
    auto service = SpcService::Open(bootstrap, EveryWriteOptions(dir));
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    EXPECT_TRUE((*service)->RecoveryInfo().used_fallback_checkpoint);
    EXPECT_EQ((*service)->Generation(), final_gen);
  }

  // That open re-published. Its retained fallback must be the checkpoint
  // recovery PROVED loadable — not the corrupt one the stale MANIFEST
  // still named (which would have let GC delete the good one). Corrupt
  // the new current checkpoint and fall back once more to find out.
  auto manifest2 = ReadManifest(fs, dir);
  ASSERT_TRUE(manifest2.ok());
  ASSERT_TRUE(manifest2->has_previous);
  EXPECT_NE(manifest2->prev_generation, manifest->generation);
  const std::string current2 =
      dir + "/" + CheckpointFileName(manifest2->generation);
  std::vector<uint8_t> bytes2;
  ASSERT_TRUE(fs->ReadFile(current2, &bytes2).ok());
  bytes2[bytes2.size() / 2] ^= 0x40;
  {
    auto f = fs->NewWritableFile(current2);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE((*f)->Append(bytes2.data(), bytes2.size()).ok());
    ASSERT_TRUE((*f)->Close().ok());
  }
  auto reopened = SpcService::Open(bootstrap, EveryWriteOptions(dir));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_TRUE((*reopened)->RecoveryInfo().used_fallback_checkpoint);
  EXPECT_EQ((*reopened)->Generation(), final_gen);
}

// A missing MANIFEST over a directory that demonstrably held durable
// state is external destruction, not a first-open crash: bootstrapping
// would silently discard acknowledged writes, so Open must refuse with
// kDataLoss.
TEST(RecoveryTest, MissingManifestOverDurableRecordsIsDataLossNotBootstrap) {
  const Graph bootstrap = GenerateBarabasiAlbert(20, 2, 11);
  FileSystem* fs = FileSystem::Default();
  const WriteOptions durable{.durable = true};

  // Evidence form 1: WAL segments holding committed records.
  const std::string dir = FreshDir("recovery_lost_manifest_wal");
  {
    auto service = SpcService::Open(bootstrap, EveryWriteOptions(dir));
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    ASSERT_TRUE((*service)->AddVertex(durable).token.durable);
  }
  ASSERT_TRUE(fs->RemoveFile(dir + "/" + ManifestFileName()).ok());
  {
    const auto reopened = SpcService::Open(bootstrap, EveryWriteOptions(dir));
    ASSERT_FALSE(reopened.ok());
    EXPECT_TRUE(reopened.status().IsDataLoss())
        << reopened.status().ToString();
  }

  // Evidence form 2: two checkpoint files and no records at all. A
  // first-open crash can strand at most ONE checkpoint without a
  // MANIFEST; two have necessarily been through a publish that retained
  // a previous — a MANIFEST existed.
  const std::string dir2 = FreshDir("recovery_lost_manifest_ckpt");
  {
    auto service = SpcService::Open(bootstrap, EveryWriteOptions(dir2));
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    // AddVertex genuinely advances the generation, so Checkpoint()
    // publishes a SECOND checkpoint file (and retains the open-time one).
    ASSERT_TRUE((*service)->AddVertex(durable).token.durable);
    ASSERT_TRUE((*service)->Checkpoint().ok());
  }
  auto names = fs->ListDir(dir2);
  ASSERT_TRUE(names.ok());
  size_t checkpoints = 0;
  for (const std::string& name : *names) {
    uint64_t ignored = 0;
    if (ParseCheckpointFileName(name, &ignored)) ++checkpoints;
    if (ParseWalSegmentFileName(name, &ignored) ||
        name == ManifestFileName()) {
      ASSERT_TRUE(fs->RemoveFile(dir2 + "/" + name).ok());
    }
  }
  ASSERT_GE(checkpoints, 2u);
  const auto reopened = SpcService::Open(bootstrap, EveryWriteOptions(dir2));
  ASSERT_FALSE(reopened.ok());
  EXPECT_TRUE(reopened.status().IsDataLoss()) << reopened.status().ToString();
}

// Random mutilation of the durability directory must never crash Open —
// it either recovers (possibly via the fallback checkpoint) or returns a
// typed error. This is the service-level face of the WAL fuzz contract.
TEST(RecoveryFuzzTest, MutilatedDirectoriesNeverCrashOpen) {
  const Graph bootstrap = GenerateBarabasiAlbert(25, 2, 13);
  Rng rng(0xF00D);
  for (int trial = 0; trial < 30; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const std::string dir = FreshDir("recovery_mutilate");
    WorkloadLog log;
    {
      auto service = SpcService::Open(bootstrap, EveryWriteOptions(dir));
      ASSERT_TRUE(service.ok());
      ASSERT_TRUE(RunWorkload(service->get(), 0x100 + trial, &log));
    }
    FileSystem* fs = FileSystem::Default();
    auto names = fs->ListDir(dir);
    ASSERT_TRUE(names.ok());
    ASSERT_FALSE(names->empty());
    // Mutilate 1-3 files: truncate, bit-flip, or delete.
    const size_t hits = 1 + rng.NextBounded(3);
    for (size_t h = 0; h < hits; ++h) {
      const std::string path =
          dir + "/" + (*names)[rng.NextBounded(names->size())];
      if (!fs->FileExists(path)) continue;
      std::vector<uint8_t> data;
      if (!fs->ReadFile(path, &data).ok() || data.empty()) continue;
      switch (rng.NextBounded(3)) {
        case 0:
          ASSERT_TRUE(
              fs->TruncateFile(path, rng.NextBounded(data.size())).ok());
          break;
        case 1: {
          data[rng.NextBounded(data.size())] ^=
              static_cast<uint8_t>(1u << rng.NextBounded(8));
          auto f = fs->NewWritableFile(path);
          ASSERT_TRUE(f.ok());
          ASSERT_TRUE((*f)->Append(data.data(), data.size()).ok());
          ASSERT_TRUE((*f)->Close().ok());
          break;
        }
        default:
          ASSERT_TRUE(fs->RemoveFile(path).ok());
          break;
      }
    }
    auto reopened = SpcService::Open(bootstrap, EveryWriteOptions(dir));
    if (reopened.ok()) {
      // Whatever it recovered must at least be internally consistent.
      const auto resp = (*reopened)->Query(0, 1);
      EXPECT_TRUE(resp.ok());
    } else {
      const Status& st = reopened.status();
      EXPECT_TRUE(st.IsDataLoss() || st.IsIOError()) << st.ToString();
    }
  }
}

// Satellite (b): journaled outcomes make replay idempotent — the number
// of kApplied outcomes in every acknowledged batch equals exactly the
// generation distance its token advanced, and that invariant survives
// arbitrary crash/recover cycles (a replayed kNoOp must not bump the
// generation).
TEST(RecoveryFuzzTest, AppliedCountEqualsGenerationDeltaAcrossCrashCycles) {
  const Graph bootstrap = GenerateBarabasiAlbert(30, 2, 17);
  Rng rng(0xCAFE);
  for (int trial = 0; trial < 12; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const std::string dir = FreshDir("recovery_gen_delta");
    uint64_t expected_generation = 0;

    // Several crash/recover cycles against the SAME directory. Each
    // cycle recovers, verifies the generation, then crashes again at a
    // random future operation index.
    for (int cycle = 0; cycle < 3; ++cycle) {
      FaultInjectingEnv env(FileSystem::Default());
      env.Arm(20 + rng.NextBounded(120), /*short_write=*/
              rng.NextBounded(2) == 1);
      auto service =
          SpcService::Open(bootstrap, EveryWriteOptions(dir, &env));
      if (!service.ok()) continue;  // crash during Open: directory keeps
                                    // its previous durable state
      if (expected_generation != 0) {
        ASSERT_EQ((*service)->Generation(), expected_generation);
      }
      uint64_t generation = (*service)->Generation();
      const WriteOptions durable{.durable = true};
      for (int step = 0; step < 40; ++step) {
        std::vector<Update> updates;
        for (size_t i = 0; i < 1 + rng.NextBounded(3); ++i) {
          auto u = static_cast<Vertex>(rng.NextBounded(30));
          auto v = static_cast<Vertex>(rng.NextBounded(30));
          if (u == v) v = (v + 1) % 30;
          updates.push_back(rng.NextBounded(2) ? Update::Insert(u, v)
                                               : Update::Delete(u, v));
        }
        const auto resp = (*service)->ApplyUpdates(updates, durable);
        if (!resp.ok() || !resp->token.durable) break;  // crashed
        // The admission contract under durability: kApplied count ==
        // the generation distance this acknowledged call advanced.
        ASSERT_EQ(resp->token.generation - generation, resp->applied);
        generation = resp->token.generation;
      }
      expected_generation = generation;
    }
    if (expected_generation == 0) continue;
    auto final_open = SpcService::Open(bootstrap, EveryWriteOptions(dir));
    ASSERT_TRUE(final_open.ok()) << final_open.status().ToString();
    EXPECT_EQ((*final_open)->Generation(), expected_generation);
  }
}

}  // namespace
}  // namespace dspc
