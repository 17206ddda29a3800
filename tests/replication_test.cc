// Replication suite (DESIGN.md §13): WAL shipping from a durable primary
// through a Transport to hot-standby replicas, in recovery_test.cc's
// style — deterministic workloads whose acknowledgment log is the ground
// truth, fault matrices that enumerate every distinct failure instant,
// and bit-for-bit answer checks against BiBFS on the mirror graph at
// exactly the generation each service reports.
//
// Three matrices:
//   - transport faults: every transport operation index × a rotating
//     fault (drop / duplicate / truncate / delay / disconnect); primary
//     and replica must retry their way to exact convergence;
//   - filesystem crashes: FaultInjectingEnv kills the primary mid-write;
//     the surviving store is drained and a replica PROMOTES to a
//     writable primary at exactly the last durably-acked generation;
//   - chaos fuzz: random transient faults on every operation.
//
// Registered under `ctest -L stress`.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "dspc/api/replica_service.h"
#include "dspc/api/spc_service.h"
#include "dspc/baseline/bibfs_counting.h"
#include "dspc/common/binary_io.h"
#include "dspc/common/rng.h"
#include "dspc/graph/generators.h"
#include "dspc/persist/env.h"
#include "dspc/persist/replication.h"
#include "dspc/persist/wal.h"
#include "test_util.h"

namespace dspc {
namespace {

using dspc::testing::FreshDir;

// Ground truth the shipped stream must reproduce (recovery_test.cc's
// mirror, duplicated locally: test helpers stay file-private).
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

struct WorkloadLog {
  std::map<uint64_t, MirrorState> acked;  // generation -> state
  uint64_t last_acked_generation = 0;
};

// The scripted durable workload (kEveryWrite; checkpoints at steps 8 and
// 16). `pump`, when set, runs after every acknowledged write — the hook
// the replication tests use to ship/apply incrementally. Returns false
// once a call fails (a simulated crash tripped); `acked` then holds
// exactly the durable prefix.
bool RunWorkload(SpcService* service, uint64_t seed, WorkloadLog* log,
                 const std::function<void()>& pump = {}) {
  MirrorState mirror = MirrorOf(service->engine().graph());
  log->last_acked_generation = service->Generation();
  log->acked[log->last_acked_generation] = mirror;

  const WriteOptions durable{.durable = true};
  Rng rng(seed);
  for (int step = 0; step < 24; ++step) {
    if (step == 8 || step == 16) {
      if (!service->Checkpoint().ok()) return false;
      if (pump) pump();
      continue;
    }
    const uint64_t dice = rng.NextBounded(10);
    if (dice == 0) {
      const AddVertexResponse resp = service->AddVertex(durable);
      if (resp.vertex == kInvalidVertex || !resp.token.durable) return false;
      mirror.n += 1;
      log->last_acked_generation = resp.token.generation;
      log->acked[resp.token.generation] = mirror;
      if (pump) pump();
      continue;
    }
    if (dice == 1 && mirror.n > 2) {
      const auto v = static_cast<Vertex>(rng.NextBounded(mirror.n));
      const auto resp = service->RemoveVertex(v, durable);
      if (!resp.ok() || !resp->token.durable) return false;
      mirror.RemoveVertexEdges(v);
      log->last_acked_generation = resp->token.generation;
      log->acked[resp->token.generation] = mirror;
      if (pump) pump();
      continue;
    }
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
    if (pump) pump();
  }
  return true;
}

DurabilityOptions EveryWriteOptions(const std::string& dir,
                                    FileSystem* fs = nullptr) {
  DurabilityOptions durability;
  durability.dir = dir;
  durability.sync = WalSyncPolicy::kEveryWrite;
  durability.checkpoint_wal_bytes = 0;  // explicit Checkpoint() only:
  durability.checkpoint_wal_records = 0;  // deterministic op sequences
  durability.fs = fs;
  return durability;
}

ReplicaOptions ManualReplica(Transport* transport) {
  ReplicaOptions options;
  options.transport = transport;
  options.start_tailer = false;  // tests drive Step() deterministically
  options.bootstrap_timeout = std::chrono::milliseconds(0);
  return options;
}

// Pumps shipper + replica until the replica has applied `target` (or the
// iteration cap trips — transient faults mean any single pass may fail).
// Returns true on convergence with both sides healthy.
bool Converge(WalShipper* shipper, ReplicaService* replica, uint64_t target,
              int max_iterations = 4000) {
  for (int i = 0; i < max_iterations; ++i) {
    (void)shipper->ShipOnce();
    const Status st = replica->Step();
    if (st.IsDataLoss()) return false;
    if (replica->AppliedGeneration() >= target &&
        replica->PrimaryDurableGeneration() >= target && st.ok()) {
      return true;
    }
  }
  return false;
}

// The answer check: `queries` random pairs served by `query` must match
// BiBFS on the mirror graph at exactly the generation the service
// reports.
template <typename QueryFn>
void CheckAnswers(const WorkloadLog& log, uint64_t generation,
                  size_t queries, const std::string& context,
                  const QueryFn& query) {
  const auto it = log.acked.find(generation);
  ASSERT_TRUE(it != log.acked.end()) << context << ": unknown generation "
                                     << generation;
  const Graph truth = it->second.ToGraph();
  Rng rng(0xD15C + generation);
  const auto n = static_cast<Vertex>(truth.NumVertices());
  for (size_t q = 0; q < queries; ++q) {
    const auto s = static_cast<Vertex>(rng.NextBounded(n));
    const auto t = static_cast<Vertex>(rng.NextBounded(n));
    const auto resp = query(s, t);
    ASSERT_TRUE(resp.ok()) << context << ": " << resp.status().ToString();
    ASSERT_EQ(resp->generation, generation) << context;
    const SpcResult expect = BiBfsCountPair(truth, s, t);
    ASSERT_EQ(resp->result, expect)
        << context << ": query (" << s << ", " << t << ") diverged at "
        << generation;
  }
}

// --- unit: live-tail segment reads ---------------------------------------

std::vector<uint8_t> SegmentHeader(uint64_t seq, uint64_t base_generation,
                                   uint32_t version = kWalVersion) {
  BinaryWriter w;
  w.PutU32(kWalMagic);
  w.PutU32(version);
  w.PutU64(seq);
  w.PutU64(base_generation);
  w.PutU32(Crc32c(w.buffer().data(), w.buffer().size()));
  return w.buffer();
}

std::vector<uint8_t> Frame(const std::vector<uint8_t>& payload) {
  BinaryWriter w;
  w.PutU32(static_cast<uint32_t>(payload.size()));
  w.PutU32(Crc32c(payload.data(), payload.size()));
  w.Append(payload.data(), payload.size());
  return w.buffer();
}

void WriteBytes(FileSystem* fs, const std::string& path,
                const std::vector<uint8_t>& bytes) {
  auto f = fs->NewWritableFile(path);
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE((*f)->Append(bytes.data(), bytes.size()).ok());
  ASSERT_TRUE((*f)->Close().ok());
}

TEST(WalLiveTailTest, PartialTrailingFrameIsInFlightNotTorn) {
  FileSystem* fs = FileSystem::Default();
  const std::string dir = FreshDir("livetail_partial");
  const std::string path = dir + "/" + WalSegmentFileName(1);

  WalRecord rec;
  rec.kind = WalRecord::Kind::kAddVertex;
  rec.seq = 1;
  rec.generation = 8;
  rec.vertex = 40;
  const std::vector<uint8_t> frame = Frame(EncodeWalRecord(rec));

  std::vector<uint8_t> bytes = SegmentHeader(1, 7);
  const uint64_t boundary = bytes.size() + frame.size();
  bytes.insert(bytes.end(), frame.begin(), frame.end());
  // A second frame, cut mid-payload: what a concurrent writer's
  // in-flight append looks like to a tailing reader.
  bytes.insert(bytes.end(), frame.begin(), frame.begin() + 5);
  WriteBytes(fs, path, bytes);

  WalSegment live;
  ASSERT_TRUE(
      ReadWalSegment(fs, path, 1, &live, WalTailPolicy::kLiveTail).ok());
  EXPECT_TRUE(live.tail_in_flight);
  EXPECT_EQ(live.truncated_tail_bytes, 0u);
  EXPECT_EQ(live.resume_offset, boundary);
  ASSERT_EQ(live.records.size(), 1u);
  EXPECT_EQ(live.records[0].generation, 8u);

  WalSegment torn;
  ASSERT_TRUE(
      ReadWalSegment(fs, path, 1, &torn, WalTailPolicy::kCrashTorn).ok());
  EXPECT_FALSE(torn.tail_in_flight);
  EXPECT_EQ(torn.truncated_tail_bytes, 5u);
  EXPECT_EQ(torn.valid_bytes, boundary);
}

TEST(WalSegmentTest, VersionOneHeaderIsDataLossUnderBothPolicies) {
  FileSystem* fs = FileSystem::Default();
  const std::string dir = FreshDir("wal_version_one");
  const std::string path = dir + "/" + WalSegmentFileName(4);
  // A well-formed segment header from the format before every write
  // became one intent plus one commit.
  WriteBytes(fs, path, SegmentHeader(4, 1, /*version=*/1));

  for (const WalTailPolicy policy :
       {WalTailPolicy::kCrashTorn, WalTailPolicy::kLiveTail}) {
    WalSegment seg;
    const Status st = ReadWalSegment(fs, path, 4, &seg, policy);
    EXPECT_TRUE(st.IsDataLoss()) << st.ToString();
  }
}

TEST(WalLiveTailTest, CompleteFrameWithBadCrcIsTornUnderBothPolicies) {
  FileSystem* fs = FileSystem::Default();
  const std::string dir = FreshDir("livetail_badcrc");
  const std::string path = dir + "/" + WalSegmentFileName(3);

  WalRecord rec;
  rec.kind = WalRecord::Kind::kAddVertex;
  rec.seq = 2;
  rec.generation = 2;
  rec.vertex = 1;
  std::vector<uint8_t> frame = Frame(EncodeWalRecord(rec));
  frame.back() ^= 0x10;  // complete frame, corrupt payload

  std::vector<uint8_t> bytes = SegmentHeader(3, 1);
  const uint64_t boundary = bytes.size();
  bytes.insert(bytes.end(), frame.begin(), frame.end());
  WriteBytes(fs, path, bytes);

  for (const WalTailPolicy policy :
       {WalTailPolicy::kCrashTorn, WalTailPolicy::kLiveTail}) {
    WalSegment seg;
    ASSERT_TRUE(ReadWalSegment(fs, path, 3, &seg, policy).ok());
    // A live writer appends whole frames, so a COMPLETE frame that fails
    // its CRC is damage under either policy — never "still in flight".
    EXPECT_FALSE(seg.tail_in_flight);
    EXPECT_EQ(seg.truncated_tail_bytes, frame.size());
    EXPECT_EQ(seg.valid_bytes, boundary);
    EXPECT_TRUE(seg.records.empty());
  }
}

// --- unit: frame-window parsing and the replay cursor --------------------

TEST(ParseWalFrameWindowTest, StopsAtIncompleteTrailingFrame) {
  WalRecord rec;
  rec.kind = WalRecord::Kind::kAddVertex;
  rec.seq = 3;
  rec.generation = 3;
  rec.vertex = 9;
  const std::vector<uint8_t> frame = Frame(EncodeWalRecord(rec));

  std::vector<uint8_t> window;
  window.insert(window.end(), frame.begin(), frame.end());
  window.insert(window.end(), frame.begin(), frame.end());
  window.insert(window.end(), frame.begin(), frame.begin() + 3);

  std::vector<WalRecord> records;
  const auto consumed = ParseWalFrameWindow(window, &records);
  ASSERT_TRUE(consumed.ok());
  EXPECT_EQ(*consumed, 2 * frame.size());
  EXPECT_EQ(records.size(), 2u);
}

TEST(ReplayCursorTest, SkipsCoveredOpsAndKeepsUnpairedIntentsPending) {
  ReplayCursor cursor(10);
  std::vector<ReplayOp> ops;

  // A commit at generation 10 is covered by the start state: skipped.
  WalRecord intent;
  intent.kind = WalRecord::Kind::kBatch;
  intent.seq = 1;
  intent.generation = 9;
  intent.updates = {Update::Insert(0, 1)};
  WalRecord commit;
  commit.kind = WalRecord::Kind::kCommit;
  commit.seq = 1;
  commit.generation = 10;
  commit.outcomes = {1};
  ASSERT_TRUE(cursor.Feed(intent, &ops).ok());
  ASSERT_TRUE(cursor.Feed(commit, &ops).ok());
  EXPECT_TRUE(ops.empty());
  EXPECT_EQ(cursor.skipped(), 1u);
  EXPECT_EQ(cursor.generation(), 10u);

  // An intent whose commit never arrives stays pending — never emitted.
  WalRecord unpaired;
  unpaired.kind = WalRecord::Kind::kBatch;
  unpaired.seq = 2;
  unpaired.generation = 10;
  unpaired.updates = {Update::Insert(1, 2)};
  ASSERT_TRUE(cursor.Feed(unpaired, &ops).ok());
  EXPECT_TRUE(ops.empty());
  EXPECT_EQ(cursor.pending_intents(), 1u);

  // A duplicate intent seq is the same damage recovery reports.
  const Status dup = cursor.Feed(unpaired, &ops);
  EXPECT_TRUE(dup.IsDataLoss()) << dup.ToString();
}

TEST(ReplayCursorTest, AddVertexIntentPairsLikeABatch) {
  ReplayCursor cursor(10);
  std::vector<ReplayOp> ops;

  WalRecord intent;
  intent.kind = WalRecord::Kind::kAddVertex;
  intent.seq = 5;
  intent.generation = 10;
  intent.vertex = 3;
  // Without its commit the intent was never acknowledged: it stays
  // pending and is never emitted, whatever follows it.
  ASSERT_TRUE(cursor.Feed(intent, &ops).ok());
  EXPECT_TRUE(ops.empty());
  EXPECT_EQ(cursor.pending_intents(), 1u);
  EXPECT_EQ(cursor.generation(), 10u);

  WalRecord commit;
  commit.kind = WalRecord::Kind::kCommit;
  commit.seq = 5;
  commit.generation = 11;
  ASSERT_TRUE(cursor.Feed(commit, &ops).ok());
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].kind, ReplayOp::Kind::kAddVertex);
  EXPECT_EQ(ops[0].base_generation, 10u);
  EXPECT_EQ(ops[0].end_generation, 11u);
  EXPECT_EQ(ops[0].vertex, 3u);
  EXPECT_EQ(cursor.pending_intents(), 0u);
  EXPECT_EQ(cursor.generation(), 11u);

  // A commit that carries outcomes an AddVertex intent has no updates
  // for contradicts it.
  intent.seq = 6;
  intent.generation = 11;
  commit.seq = 6;
  commit.generation = 12;
  commit.outcomes = {1};
  ASSERT_TRUE(cursor.Feed(intent, &ops).ok());
  EXPECT_TRUE(cursor.Feed(commit, &ops).IsDataLoss());
}

TEST(ReplayCursorTest, ChainBreakIsDataLossForEitherIntentKind) {
  for (const WalRecord::Kind kind :
       {WalRecord::Kind::kBatch, WalRecord::Kind::kAddVertex}) {
    ReplayCursor cursor(10);
    std::vector<ReplayOp> ops;
    WalRecord intent;
    intent.kind = kind;
    intent.seq = 1;
    intent.generation = 11;  // the chain stands at 10: a generation is lost
    WalRecord commit;
    commit.kind = WalRecord::Kind::kCommit;
    commit.seq = 1;
    commit.generation = 12;
    if (kind == WalRecord::Kind::kBatch) {
      intent.updates = {Update::Insert(0, 1)};
      commit.outcomes = {1};
    } else {
      intent.vertex = 7;
    }
    ASSERT_TRUE(cursor.Feed(intent, &ops).ok());
    const Status st = cursor.Feed(commit, &ops);
    EXPECT_TRUE(st.IsDataLoss()) << st.ToString();
    EXPECT_TRUE(ops.empty());
  }
}

TEST(ReplicationBackoffTest, GrowsDoublesCapsAndResets) {
  ReplicationBackoff::Options options;
  options.initial = std::chrono::microseconds(100);
  options.max = std::chrono::microseconds(1000);
  ReplicationBackoff backoff(options);

  std::chrono::microseconds prev{0};
  for (int i = 0; i < 8; ++i) {
    const auto d = backoff.Next();
    // ±25% jitter around a base that doubles until the cap.
    EXPECT_GE(d.count(), 75) << i;
    EXPECT_LE(d.count(), 1250) << i;
    if (i > 0 && i < 3) {
      EXPECT_GT(d, prev) << i;
    }
    prev = d;
  }
  EXPECT_EQ(backoff.sleeps(), 8u);
  backoff.Reset();
  EXPECT_LE(backoff.Next().count(), 125);
}

// --- unit: transports ----------------------------------------------------

TEST(TransportTest, InProcessAppendContractAndRetire) {
  InProcessTransport transport;
  EXPECT_TRUE(transport.FetchState().status().IsUnavailable());

  const std::vector<uint8_t> a{1, 2, 3, 4};
  const std::vector<uint8_t> b{5, 6};
  ASSERT_TRUE(transport.AppendSegment(7, 0, a).ok());
  // Overlapping re-send (a retry after a fault): only the suffix lands.
  std::vector<uint8_t> overlap{3, 4, 5, 6};
  ASSERT_TRUE(transport.AppendSegment(7, 2, overlap).ok());
  auto size = transport.SegmentSize(7);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 6u);
  // A gap is refused: the shipper resyncs via SegmentSize.
  EXPECT_TRUE(transport.AppendSegment(7, 9, b).IsUnavailable());

  std::vector<uint8_t> got;
  ASSERT_TRUE(transport.FetchSegment(7, 2, &got).ok());
  EXPECT_EQ(got, (std::vector<uint8_t>{3, 4, 5, 6}));

  ASSERT_TRUE(transport.PutCheckpoint(5, a).ok());
  ASSERT_TRUE(transport.Retire(6, 8).ok());
  EXPECT_TRUE(transport.FetchSegment(7, 0, &got).IsNotFound());
  EXPECT_TRUE(transport.FetchCheckpoint(5, &got).IsNotFound());
}

TEST(TransportTest, DirectoryTransportRoundTripsAcrossInstances) {
  FileSystem* fs = FileSystem::Default();
  const std::string dir = FreshDir("dir_transport");

  const std::vector<uint8_t> ckpt{9, 8, 7};
  const std::vector<uint8_t> seg{1, 2, 3, 4, 5};
  ShipState state;
  state.checkpoint_generation = 4;
  state.checkpoint_wal_seq = 2;
  state.min_wal_seq = 2;
  state.max_wal_seq = 2;
  state.durable_generation = 6;
  {
    DirectoryTransport writer(fs, dir);
    ASSERT_TRUE(writer.PutCheckpoint(4, ckpt).ok());
    ASSERT_TRUE(
        writer.AppendSegment(2, 0, std::span<const uint8_t>(seg).first(3))
            .ok());
    ASSERT_TRUE(writer.PublishState(state).ok());
  }
  // A NEW instance (a restarted shipper) appends at a nonzero offset:
  // the seam cannot reopen-for-append, so this exercises the
  // read-splice-rewrite fallback.
  DirectoryTransport reopened(fs, dir);
  ASSERT_TRUE(
      reopened.AppendSegment(2, 3, std::span<const uint8_t>(seg).subspan(3))
          .ok());
  auto size = reopened.SegmentSize(2);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 5u);
  std::vector<uint8_t> got;
  ASSERT_TRUE(reopened.FetchSegment(2, 0, &got).ok());
  EXPECT_EQ(got, seg);
  ASSERT_TRUE(reopened.FetchCheckpoint(4, &got).ok());
  EXPECT_EQ(got, ckpt);
  auto fetched = reopened.FetchState();
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(fetched->durable_generation, 6u);
  EXPECT_EQ(fetched->checkpoint_generation, 4u);
}

// --- shipping + catch-up -------------------------------------------------

TEST(ReplicationTest, ReplicaCatchesUpAndServesExactAnswers) {
  const std::string dir = FreshDir("repl_basic");
  const Graph bootstrap = GenerateBarabasiAlbert(40, 2, 21);
  InProcessTransport transport;

  auto primary = SpcService::Open(bootstrap, EveryWriteOptions(dir));
  ASSERT_TRUE(primary.ok()) << primary.status().ToString();
  auto shipper = (*primary)->NewShipper(&transport);
  ASSERT_TRUE(shipper.ok()) << shipper.status().ToString();

  WorkloadLog log;
  ASSERT_TRUE(RunWorkload(primary->get(), 0xABCD, &log,
                          [&] { (void)(*shipper)->ShipOnce(); }));
  ASSERT_TRUE((*shipper)->ShipOnce().ok());

  auto replica = ReplicaService::Open(ManualReplica(&transport));
  ASSERT_TRUE(replica.ok()) << replica.status().ToString();
  ASSERT_TRUE(Converge(shipper->get(), replica->get(),
                       log.last_acked_generation));
  EXPECT_EQ((*replica)->AppliedGeneration(), log.last_acked_generation);
  EXPECT_EQ((*replica)->PrimaryDurableGeneration(),
            log.last_acked_generation);

  CheckAnswers(log, log.last_acked_generation, 500, "replica catch-up",
               [&](Vertex s, Vertex t) { return (*replica)->Query(s, t); });

  // The shipper's view agrees, and the metrics tell the story.
  const WalShipper::Stats stats = (*shipper)->GetStats();
  EXPECT_EQ(stats.shipped_generation, log.last_acked_generation);
  EXPECT_GE(stats.checkpoints_shipped, 3u);  // open-time + steps 8 and 16
  EXPECT_GT(stats.bytes_shipped, 0u);
  const MetricsSnapshot primary_snap = (*primary)->Metrics();
  EXPECT_GE(primary_snap.repl_checkpoints_shipped, 3u);
  EXPECT_GT(primary_snap.repl_bytes_shipped, 0u);
  const MetricsSnapshot replica_snap = (*replica)->Metrics();
  EXPECT_GT(replica_snap.repl_ops_applied, 0u);
  EXPECT_EQ(replica_snap.replica_applied_generation,
            log.last_acked_generation);
  EXPECT_EQ(replica_snap.replica_lag, 0u);
  EXPECT_NE(replica_snap.PrometheusText().find(
                "dspc_repl_ops_applied_total " +
                std::to_string(replica_snap.repl_ops_applied) + "\n"),
            std::string::npos);

  // Batch reads ride the same admission path.
  const std::vector<VertexPair> pairs{{0, 5}, {3, 7}};
  const auto batch = (*replica)->QueryBatch(pairs);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->generation, log.last_acked_generation);
}

TEST(ReplicationTest, BackgroundTailerFollowsALivePrimary) {
  const std::string dir = FreshDir("repl_background");
  const Graph bootstrap = GenerateBarabasiAlbert(35, 2, 11);
  InProcessTransport transport;

  auto primary = SpcService::Open(bootstrap, EveryWriteOptions(dir));
  ASSERT_TRUE(primary.ok());
  WalShipper::Options ship_options;
  ship_options.poll_interval = std::chrono::microseconds(200);
  auto shipper = (*primary)->NewShipper(&transport, ship_options);
  ASSERT_TRUE(shipper.ok());
  (*shipper)->Start();

  ReplicaOptions replica_options;
  replica_options.transport = &transport;
  replica_options.poll_interval = std::chrono::microseconds(200);
  replica_options.bootstrap_timeout = std::chrono::seconds(20);
  auto replica = ReplicaService::Open(replica_options);
  ASSERT_TRUE(replica.ok()) << replica.status().ToString();

  WorkloadLog log;
  ASSERT_TRUE(RunWorkload(primary->get(), 0x1234, &log));

  // Both pumps are free-running; wait (bounded) for exact convergence.
  bool converged = false;
  for (int i = 0; i < 20000 && !converged; ++i) {
    converged =
        (*replica)->AppliedGeneration() == log.last_acked_generation &&
        (*replica)->PrimaryDurableGeneration() == log.last_acked_generation;
    if (!converged) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(converged) << "applied " << (*replica)->AppliedGeneration()
                         << " of " << log.last_acked_generation;
  (*replica)->Stop();
  (*shipper)->Stop();
  CheckAnswers(log, log.last_acked_generation, 200, "background tailer",
               [&](Vertex s, Vertex t) { return (*replica)->Query(s, t); });
}

// --- staleness honesty ---------------------------------------------------

TEST(ReplicationTest, BoundedStalenessIsEnforcedAgainstThePrimary) {
  const std::string dir = FreshDir("repl_staleness");
  const Graph bootstrap = GenerateBarabasiAlbert(30, 2, 5);
  InProcessTransport store;
  FaultInjectingTransport transport(&store);

  auto primary = SpcService::Open(bootstrap, EveryWriteOptions(dir));
  ASSERT_TRUE(primary.ok());
  auto shipper = (*primary)->NewShipper(&transport);
  ASSERT_TRUE(shipper.ok());

  WorkloadLog log;
  ASSERT_TRUE(RunWorkload(primary->get(), 0x77, &log,
                          [&] { (void)(*shipper)->ShipOnce(); }));
  auto replica = ReplicaService::Open(ManualReplica(&transport));
  ASSERT_TRUE(replica.ok()) << replica.status().ToString();
  ASSERT_TRUE(
      Converge(shipper->get(), replica->get(), log.last_acked_generation));
  const uint64_t caught_up = (*replica)->AppliedGeneration();

  // Advance the primary WITHOUT letting the replica apply: ship, then
  // disconnect the transport right after the replica's next FetchState —
  // it learns the new primary generation but cannot fetch the bytes.
  const WriteOptions durable{.durable = true};
  uint64_t primary_gen = caught_up;
  for (int i = 0; i < 4; ++i) {
    const auto resp = (*primary)->InsertEdge(
        static_cast<Vertex>(i), static_cast<Vertex>(20 + i), durable);
    ASSERT_TRUE(resp.ok());
    if (resp->applied == 1) primary_gen = resp->token.generation;
  }
  ASSERT_GT(primary_gen, caught_up);
  ASSERT_TRUE((*shipper)->ShipOnce().ok());
  // Arm resets the operation counter: the replica's next Step issues
  // FetchState (op 0, succeeds — the replica learns the new primary
  // generation) then FetchSegment (op 1, disconnected — it cannot
  // apply the bytes).
  transport.Arm(1, TransportFault::kDisconnect);
  EXPECT_FALSE((*replica)->Step().ok());  // state refreshed, bytes blocked
  EXPECT_EQ((*replica)->AppliedGeneration(), caught_up);
  EXPECT_EQ((*replica)->PrimaryDurableGeneration(), primary_gen);
  const uint64_t lag = primary_gen - caught_up;

  // Honest refusal: a bound tighter than the real lag is kUnavailable.
  const auto too_tight = (*replica)->Query(
      0, 5,
      {.consistency = Consistency::kBoundedStaleness, .max_lag = lag - 1});
  ASSERT_FALSE(too_tight.ok());
  EXPECT_TRUE(too_tight.status().IsUnavailable())
      << too_tight.status().ToString();

  // A bound that admits the lag serves — and reports the PRIMARY-relative
  // staleness, not the replica's internal view.
  const auto admitted = (*replica)->Query(
      0, 5, {.consistency = Consistency::kBoundedStaleness, .max_lag = lag});
  ASSERT_TRUE(admitted.ok()) << admitted.status().ToString();
  EXPECT_EQ(admitted->generation, caught_up);
  EXPECT_EQ(admitted->staleness, lag);

  // Read-your-writes honesty: a primary token past the replica refuses.
  const auto future = (*replica)->Query(0, 5, {.min_generation = primary_gen});
  ASSERT_FALSE(future.ok());
  EXPECT_TRUE(future.status().IsUnavailable());
  const auto present = (*replica)->Query(0, 5, {.min_generation = caught_up});
  EXPECT_TRUE(present.ok());

  const MetricsSnapshot snap = (*replica)->Metrics();
  EXPECT_EQ(snap.replica_lag, lag);
  EXPECT_EQ(snap.rejected_unavailable, 2u);

  // Once the disconnect window passes, the replica reconnects and the
  // same bounded read becomes current.
  transport.Disarm();
  ASSERT_TRUE(
      Converge(shipper->get(), replica->get(), log.last_acked_generation));
  const auto fresh = (*replica)->Query(
      0, 5, {.consistency = Consistency::kBoundedStaleness, .max_lag = 0});
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_GE((*replica)->Metrics().repl_reconnects, 1u);
}

// A manual replica that applied through `caught_up` and then learned the
// primary's newer durable generation `primary_gen`, but whose segment
// fetch is cut off: it lags the primary by primary_gen - caught_up.
// Members are declared so the transports outlive everything using them.
struct LaggingReplica {
  InProcessTransport store;
  FaultInjectingTransport transport{&store};
  std::unique_ptr<SpcService> primary;
  std::unique_ptr<WalShipper> shipper;
  std::unique_ptr<ReplicaService> replica;
  uint64_t caught_up = 0;
  uint64_t primary_gen = 0;
};

void MakeLaggingReplica(const std::string& name,
                        const DynamicSpcOptions& engine, LaggingReplica* r) {
  auto primary = SpcService::Open(GenerateBarabasiAlbert(30, 2, 5),
                                  EveryWriteOptions(FreshDir(name)));
  ASSERT_TRUE(primary.ok()) << primary.status().ToString();
  r->primary = std::move(*primary);
  auto shipper = r->primary->NewShipper(&r->transport);
  ASSERT_TRUE(shipper.ok());
  r->shipper = std::move(*shipper);
  ASSERT_TRUE(r->shipper->ShipOnce().ok());
  ReplicaOptions options = ManualReplica(&r->transport);
  options.engine = engine;
  auto replica = ReplicaService::Open(options);
  ASSERT_TRUE(replica.ok()) << replica.status().ToString();
  r->replica = std::move(*replica);
  ASSERT_TRUE(Converge(r->shipper.get(), r->replica.get(),
                       r->primary->Generation()));
  r->caught_up = r->replica->AppliedGeneration();
  r->primary_gen = r->caught_up;
  for (int i = 0; i < 4; ++i) {
    const auto resp = r->primary->InsertEdge(static_cast<Vertex>(i),
                                             static_cast<Vertex>(20 + i),
                                             {.durable = true});
    ASSERT_TRUE(resp.ok());
    if (resp->applied == 1) r->primary_gen = resp->token.generation;
  }
  ASSERT_GT(r->primary_gen, r->caught_up);
  ASSERT_TRUE(r->shipper->ShipOnce().ok());
  // The next Step's FetchState (op 0) succeeds, its FetchSegment (op 1)
  // is disconnected.
  r->transport.Arm(1, TransportFault::kDisconnect);
  EXPECT_FALSE(r->replica->Step().ok());
  ASSERT_EQ(r->replica->AppliedGeneration(), r->caught_up);
  ASSERT_EQ(r->replica->PrimaryDurableGeneration(), r->primary_gen);
}

TEST(ReplicationTest, StalenessMetricsCountFromThePrimary) {
  LaggingReplica r;
  ASSERT_NO_FATAL_FAILURE(
      MakeLaggingReplica("repl_staleness_metrics", {}, &r));
  const uint64_t lag = r.primary_gen - r.caught_up;
  const size_t bucket = MetricsSnapshot::StalenessBucket(lag);
  const uint64_t before = r.replica->Metrics().staleness_hist[bucket];

  const auto fresh = r.replica->Query(0, 5);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_EQ(fresh->staleness, lag);
  const auto bounded = r.replica->Query(
      0, 5, {.consistency = Consistency::kBoundedStaleness, .max_lag = lag});
  ASSERT_TRUE(bounded.ok()) << bounded.status().ToString();
  EXPECT_EQ(bounded->staleness, lag);

  // The exported histogram counts the same primary-relative staleness the
  // responses carry — one count per read in the lag's bucket.
  EXPECT_EQ(r.replica->Metrics().staleness_hist[bucket], before + 2);
}

// --- retention -----------------------------------------------------------

TEST(ReplicationTest, ShipperRetentionPinKeepsSegmentsUntilShipped) {
  const std::string dir = FreshDir("repl_retention");
  const Graph bootstrap = GenerateBarabasiAlbert(25, 2, 3);
  FileSystem* fs = FileSystem::Default();
  InProcessTransport transport;

  auto primary = SpcService::Open(bootstrap, EveryWriteOptions(dir));
  ASSERT_TRUE(primary.ok());
  auto shipper = (*primary)->NewShipper(&transport);
  ASSERT_TRUE(shipper.ok());

  const WriteOptions durable{.durable = true};
  ASSERT_TRUE((*primary)->InsertEdge(0, 20, durable).ok());
  // Two checkpoints without a single shipping pass: GC would normally
  // drop the rotated segments, but the never-advanced shipper pin
  // (everything) must hold them all.
  ASSERT_TRUE((*primary)->Checkpoint().ok());
  ASSERT_TRUE((*primary)->InsertEdge(1, 21, durable).ok());
  ASSERT_TRUE((*primary)->Checkpoint().ok());
  size_t segments = 0;
  auto names = fs->ListDir(dir);
  ASSERT_TRUE(names.ok());
  for (const std::string& name : *names) {
    uint64_t seq = 0;
    if (ParseWalSegmentFileName(name, &seq)) ++segments;
  }
  EXPECT_GE(segments, 3u) << "pinned segments were GC'd";

  // Ship everything; the pin advances past the old segments, so the next
  // publish may finally collect them.
  ASSERT_TRUE((*shipper)->ShipOnce().ok());
  ASSERT_TRUE((*primary)->InsertEdge(2, 22, durable).ok());
  ASSERT_TRUE((*primary)->Checkpoint().ok());
  ASSERT_TRUE((*shipper)->ShipOnce().ok());
  ASSERT_TRUE((*primary)->Checkpoint().ok());
  segments = 0;
  names = fs->ListDir(dir);
  ASSERT_TRUE(names.ok());
  for (const std::string& name : *names) {
    uint64_t seq = 0;
    if (ParseWalSegmentFileName(name, &seq)) ++segments;
  }
  EXPECT_LE(segments, 2u) << "retention pin failed to advance";
}

TEST(ReplicationTest, ReplicaRebootstrapsWhenBehindStoreRetention) {
  const std::string dir = FreshDir("repl_rebootstrap");
  const Graph bootstrap = GenerateBarabasiAlbert(30, 2, 17);
  InProcessTransport transport;

  auto primary = SpcService::Open(bootstrap, EveryWriteOptions(dir));
  ASSERT_TRUE(primary.ok());
  auto shipper = (*primary)->NewShipper(&transport);
  ASSERT_TRUE(shipper.ok());

  WorkloadLog log;
  ASSERT_TRUE(RunWorkload(primary->get(), 0xFEED, &log,
                          [&] { (void)(*shipper)->ShipOnce(); }));
  auto replica = ReplicaService::Open(ManualReplica(&transport));
  ASSERT_TRUE(replica.ok());
  ASSERT_TRUE(
      Converge(shipper->get(), replica->get(), log.last_acked_generation));

  // The replica stops tailing; the primary rolls forward through two
  // checkpoints, and the shipper retires the store segments the newest
  // shipped checkpoint covers — the replica's tail is now below the
  // store's retention floor.
  const WriteOptions durable{.durable = true};
  uint64_t final_gen = log.last_acked_generation;
  MirrorState mirror = log.acked.at(final_gen);
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 3; ++i) {
      const auto u = static_cast<Vertex>(3 * round + i);
      const auto v = static_cast<Vertex>(10 + 3 * round + i);
      const auto resp = (*primary)->InsertEdge(u, v, durable);
      ASSERT_TRUE(resp.ok());
      if (resp->applied == 1) {
        mirror.Insert(u, v);
        final_gen = resp->token.generation;
        log.acked[final_gen] = mirror;
      }
    }
    ASSERT_TRUE((*primary)->Checkpoint().ok());
    ASSERT_TRUE((*shipper)->ShipOnce().ok());
  }
  log.last_acked_generation = final_gen;

  ASSERT_TRUE(Converge(shipper->get(), replica->get(), final_gen));
  EXPECT_GE((*replica)->Metrics().repl_rebootstraps, 1u);
  EXPECT_TRUE((*replica)->Health().ok());
  CheckAnswers(log, final_gen, 200, "re-bootstrap",
               [&](Vertex s, Vertex t) { return (*replica)->Query(s, t); });
}

// --- failover ------------------------------------------------------------

TEST(ReplicationTest, PromoteContinuesTheLineageWritable) {
  const std::string dir = FreshDir("repl_promote");
  const std::string promoted_dir = FreshDir("repl_promote_next");
  const Graph bootstrap = GenerateBarabasiAlbert(30, 2, 29);
  InProcessTransport transport;

  WorkloadLog log;
  {
    auto primary = SpcService::Open(bootstrap, EveryWriteOptions(dir));
    ASSERT_TRUE(primary.ok());
    auto shipper = (*primary)->NewShipper(&transport);
    ASSERT_TRUE(shipper.ok());
    ASSERT_TRUE(RunWorkload(primary->get(), 0xF00D, &log,
                            [&] { (void)(*shipper)->ShipOnce(); }));
    ASSERT_TRUE((*shipper)->ShipOnce().ok());
    // Primary (and shipper) go away — an orderly handoff.
  }

  auto replica = ReplicaService::Open(ManualReplica(&transport));
  ASSERT_TRUE(replica.ok()) << replica.status().ToString();
  auto promoted =
      (*replica)->Promote(EveryWriteOptions(promoted_dir));
  ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
  EXPECT_TRUE((*replica)->Promoted());
  EXPECT_EQ((*promoted)->Generation(), log.last_acked_generation);
  EXPECT_TRUE((*promoted)->Durable());
  CheckAnswers(log, log.last_acked_generation, 300, "promoted",
               [&](Vertex s, Vertex t) { return (*promoted)->Query(s, t); });

  // The old replica froze: no second promotion, no further tailing.
  EXPECT_TRUE((*replica)
                  ->Promote(EveryWriteOptions(promoted_dir))
                  .status()
                  .IsInvalidArgument());
  EXPECT_FALSE((*replica)->Step().ok());

  // The new primary accepts durable writes and its lineage survives a
  // close/reopen — generations continue where the old primary stopped.
  const auto resp =
      (*promoted)->InsertEdge(0, 24, WriteOptions{.durable = true});
  ASSERT_TRUE(resp.ok());
  EXPECT_TRUE(resp->token.durable);
  const uint64_t next_gen = (*promoted)->Generation();
  promoted->reset();
  auto reopened = SpcService::Open(bootstrap, EveryWriteOptions(promoted_dir));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->Generation(), next_gen);
}

TEST(ReplicationTest, OpenWithStateRefusesADirectoryHoldingDurableState) {
  const std::string dir = FreshDir("repl_openwithstate_refuse");
  const Graph bootstrap = GenerateBarabasiAlbert(20, 2, 1);
  {
    auto primary = SpcService::Open(bootstrap, EveryWriteOptions(dir));
    ASSERT_TRUE(primary.ok());
  }
  Graph graph = bootstrap;
  SpcService probe(bootstrap);
  SpcIndex index = probe.engine().index();
  const auto adopted = SpcService::OpenWithState(
      std::move(graph), std::move(index), 0, EveryWriteOptions(dir));
  ASSERT_FALSE(adopted.ok());
  EXPECT_TRUE(adopted.status().IsInvalidArgument())
      << adopted.status().ToString();
}

// --- the transport fault matrix ------------------------------------------

// One full primary+replica run with a single armed transport fault,
// shipping and stepping after every acknowledged write, then converging
// with retries. The subsystem's contract: ANY one-shot fault anywhere in
// the schedule is retried through to exact convergence.
void RunTransportFaultPoint(uint64_t index, TransportFault fault,
                            uint64_t seed, size_t queries,
                            const std::string& dirname) {
  SCOPED_TRACE("transport fault " + std::to_string(static_cast<int>(fault)) +
               " at op " + std::to_string(index));
  const std::string dir = FreshDir(dirname);
  const Graph bootstrap = GenerateBarabasiAlbert(30, 2, 19);
  InProcessTransport store;
  FaultInjectingTransport transport(&store);
  transport.Arm(index, fault);

  auto primary = SpcService::Open(bootstrap, EveryWriteOptions(dir));
  ASSERT_TRUE(primary.ok());
  auto shipper = (*primary)->NewShipper(&transport);
  ASSERT_TRUE(shipper.ok());

  std::unique_ptr<ReplicaService> replica;
  WorkloadLog log;
  const bool ran = RunWorkload(primary->get(), seed, &log, [&] {
    (void)(*shipper)->ShipOnce();
    if (replica == nullptr) {
      auto opened = ReplicaService::Open(ManualReplica(&transport));
      if (opened.ok()) replica = std::move(*opened);
    } else {
      const Status st = replica->Step();
      ASSERT_FALSE(st.IsDataLoss()) << st.ToString();
    }
  });
  ASSERT_TRUE(ran);  // transport faults never fail PRIMARY writes
  if (replica == nullptr) {
    auto opened = ReplicaService::Open(ManualReplica(&transport));
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    replica = std::move(*opened);
  }
  ASSERT_TRUE(Converge(shipper->get(), replica.get(),
                       log.last_acked_generation))
      << "applied " << replica->AppliedGeneration() << " of "
      << log.last_acked_generation << "; shipper "
      << (*shipper)->Health().ToString() << "; replica "
      << replica->Health().ToString();
  EXPECT_TRUE((*shipper)->Health().ok());
  EXPECT_TRUE(replica->Health().ok());
  CheckAnswers(log, log.last_acked_generation, queries, "fault point",
               [&](Vertex s, Vertex t) { return replica->Query(s, t); });
}

TEST(ReplicationFaultMatrixTest, EveryTransportFaultPointConverges) {
  // Pass 1 (unarmed): count the schedule's transport operations.
  uint64_t total_ops = 0;
  {
    const std::string dir = FreshDir("transport_matrix_count");
    const Graph bootstrap = GenerateBarabasiAlbert(30, 2, 19);
    InProcessTransport store;
    FaultInjectingTransport transport(&store);
    auto primary = SpcService::Open(bootstrap, EveryWriteOptions(dir));
    ASSERT_TRUE(primary.ok());
    auto shipper = (*primary)->NewShipper(&transport);
    ASSERT_TRUE(shipper.ok());
    std::unique_ptr<ReplicaService> replica;
    WorkloadLog log;
    ASSERT_TRUE(RunWorkload(primary->get(), 0x1CE, &log, [&] {
      (void)(*shipper)->ShipOnce();
      if (replica == nullptr) {
        auto opened = ReplicaService::Open(ManualReplica(&transport));
        if (opened.ok()) replica = std::move(*opened);
      } else {
        (void)replica->Step();
      }
    }));
    ASSERT_NE(replica, nullptr);
    ASSERT_TRUE(Converge(shipper->get(), replica.get(),
                         log.last_acked_generation));
    total_ops = transport.OperationCount();
    ASSERT_GT(total_ops, 40u);
  }

  // Pass 2: one run per operation index, rotating through the fault
  // menu so every fault kind lands at many distinct schedule points.
  const TransportFault menu[] = {
      TransportFault::kDrop, TransportFault::kDuplicate,
      TransportFault::kTruncate, TransportFault::kDelay,
      TransportFault::kDisconnect};
  for (uint64_t k = 0; k < total_ops; ++k) {
    RunTransportFaultPoint(k, menu[k % 5], 0x1CE, /*queries=*/15,
                           "transport_matrix_armed");
  }
}

// --- primary crash + failover matrix -------------------------------------

// The replication face of the recovery crash matrix: the primary dies at
// filesystem operation `k` (its unsynced writes vanish), the store —
// which outlives the process — is drained, and a replica promotes. The
// promoted primary must land on EXACTLY the last durably-acknowledged
// generation with bit-exact answers, then accept writes and survive its
// own reopen.
void RunPromoteCrashPoint(uint64_t k, bool short_writes, uint64_t seed,
                          size_t queries, uint64_t* skipped_empty_store) {
  SCOPED_TRACE("crash at fs op " + std::to_string(k) +
               (short_writes ? " (short write)" : ""));
  const std::string dir = FreshDir("promote_matrix_armed");
  const std::string next_dir = FreshDir("promote_matrix_next");
  const Graph bootstrap = GenerateBarabasiAlbert(30, 2, 23);
  FaultInjectingEnv env(FileSystem::Default());
  env.Arm(k, short_writes);
  InProcessTransport transport;

  WorkloadLog log;
  bool store_has_checkpoint = false;
  {
    auto primary = SpcService::Open(bootstrap, EveryWriteOptions(dir, &env));
    if (!primary.ok()) {
      // Crash during Open: nothing was ever acknowledged, and the store
      // may hold nothing bootstrappable — there is no failover to test.
      ++*skipped_empty_store;
      return;
    }
    auto shipper = (*primary)->NewShipper(&transport);
    ASSERT_TRUE(shipper.ok());
    (void)RunWorkload(primary->get(), seed, &log,
                      [&] { (void)(*shipper)->ShipOnce(); });
    // Post-crash drain: reads pass through the dead env (they see only
    // synced bytes — the disk as a rescuer would find it), so the
    // shipper can finish streaming the durable prefix to the store.
    for (int i = 0; i < 50; ++i) {
      if ((*shipper)->ShipOnce().ok()) break;
    }
    const WalShipper::Stats stats = (*shipper)->GetStats();
    store_has_checkpoint = stats.checkpoints_shipped > 0;
    if (store_has_checkpoint) {
      // THE shipping contract at a crash: the drained store's durable
      // horizon is exactly the last acknowledged write — kEveryWrite
      // syncs before acking, and the shipper never ships past fsync.
      ASSERT_EQ(stats.shipped_generation, log.last_acked_generation);
    }
    // Primary destructor runs against the dead env: the process is gone.
  }
  if (!store_has_checkpoint) {
    ++*skipped_empty_store;
    return;
  }

  auto replica = ReplicaService::Open(ManualReplica(&transport));
  ASSERT_TRUE(replica.ok()) << replica.status().ToString();
  auto promoted = (*replica)->Promote(EveryWriteOptions(next_dir),
                                      std::chrono::seconds(30));
  ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
  ASSERT_EQ((*promoted)->Generation(), log.last_acked_generation);
  CheckAnswers(log, log.last_acked_generation, queries, "promoted",
               [&](Vertex s, Vertex t) { return (*promoted)->Query(s, t); });

  // The promoted primary is a real primary: durable writes, durable
  // reopen.
  const auto resp =
      (*promoted)->InsertEdge(1, 17, WriteOptions{.durable = true});
  ASSERT_TRUE(resp.ok());
  EXPECT_TRUE(resp->token.durable);
  const uint64_t next_gen = (*promoted)->Generation();
  promoted->reset();
  auto reopened = SpcService::Open(bootstrap, EveryWriteOptions(next_dir));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->Generation(), next_gen);
}

TEST(ReplicationCrashMatrixTest, PromoteLandsOnLastAckedGenerationAtEveryCrashPoint) {
  // Pass 1 (unarmed): count the workload's mutating fs operations. The
  // shipper only READS the primary directory, so the count matches the
  // recovery matrix's shape.
  uint64_t total_ops = 0;
  {
    const std::string dir = FreshDir("promote_matrix_count");
    const Graph bootstrap = GenerateBarabasiAlbert(30, 2, 23);
    FaultInjectingEnv env(FileSystem::Default());
    InProcessTransport transport;
    WorkloadLog log;
    auto primary = SpcService::Open(bootstrap, EveryWriteOptions(dir, &env));
    ASSERT_TRUE(primary.ok());
    auto shipper = (*primary)->NewShipper(&transport);
    ASSERT_TRUE(shipper.ok());
    ASSERT_TRUE(RunWorkload(primary->get(), 0xCAFE, &log,
                            [&] { (void)(*shipper)->ShipOnce(); }));
    shipper->reset();
    primary->reset();
    total_ops = env.OperationCount();
    ASSERT_GT(total_ops, 50u);
  }

  uint64_t skipped_empty_store = 0;
  for (uint64_t k = 0; k < total_ops; ++k) {
    RunPromoteCrashPoint(k, /*short_writes=*/(k % 2) == 1, 0xCAFE,
                         /*queries=*/15, &skipped_empty_store);
  }
  // Early crash points (during Open, before the first ship) have no
  // store to fail over from — but they must be a small prefix, not the
  // whole matrix.
  EXPECT_LT(skipped_empty_store, total_ops / 2);
}

// --- chaos fuzz ----------------------------------------------------------

TEST(ReplicationFuzzTest, ChaosTransportConvergesToExactAnswers) {
  for (int trial = 0; trial < 4; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const std::string dir = FreshDir("repl_chaos");
    const Graph bootstrap = GenerateBarabasiAlbert(30, 2, 7 + trial);
    InProcessTransport store;
    FaultInjectingTransport transport(&store);
    transport.SetChaos(0xC0FFEE + trial, /*permille=*/150);

    auto primary = SpcService::Open(bootstrap, EveryWriteOptions(dir));
    ASSERT_TRUE(primary.ok());
    auto shipper = (*primary)->NewShipper(&transport);
    ASSERT_TRUE(shipper.ok());

    std::unique_ptr<ReplicaService> replica;
    WorkloadLog log;
    ASSERT_TRUE(RunWorkload(primary->get(), 0xBA5E + trial, &log, [&] {
      (void)(*shipper)->ShipOnce();
      if (replica == nullptr) {
        auto opened = ReplicaService::Open(ManualReplica(&transport));
        if (opened.ok()) replica = std::move(*opened);
      } else {
        const Status st = replica->Step();
        ASSERT_FALSE(st.IsDataLoss()) << st.ToString();
      }
    }));
    if (replica == nullptr) {
      // Chaos kept eating the bootstrap; calm the link to finish.
      transport.SetChaos(0, 0);
      auto opened = ReplicaService::Open(ManualReplica(&transport));
      ASSERT_TRUE(opened.ok()) << opened.status().ToString();
      replica = std::move(*opened);
      transport.SetChaos(0xC0FFEE + trial, 150);
    }
    ASSERT_TRUE(Converge(shipper->get(), replica.get(),
                         log.last_acked_generation, 20000))
        << "applied " << replica->AppliedGeneration() << " of "
        << log.last_acked_generation;
    EXPECT_TRUE((*shipper)->Health().ok());
    EXPECT_TRUE(replica->Health().ok());
    CheckAnswers(log, log.last_acked_generation, 60, "chaos",
                 [&](Vertex s, Vertex t) { return replica->Query(s, t); });
  }
}

}  // namespace
}  // namespace dspc
