// Multi-process serving (DESIGN.md §14), both halves:
//
//   MappedReader.*          In-process unit tests of MappedReaderService:
//                           adoption, the consistency-lattice refusals,
//                           pin movement, and unlink-survival.
//   MultiprocessServing.*   The real thing: this process runs the writer
//                           (SpcService + SnapshotPublisher) and
//                           fork/execs N dspc_reader processes over the
//                           shared directory, driving them through their
//                           stdin/stdout line protocol. Answers are
//                           cross-checked against BiBFS ground truth, so
//                           a reader is proven bit-identical to the
//                           writer at the same generation across
//                           publishes, reader SIGKILLs, writer
//                           crash/recovery, and GC with pinned readers.
//
// The reader binary path arrives via the DSPC_READER_BIN compile
// definition (CMakeLists.txt).

#include <fcntl.h>
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "dspc/api/mapped_reader_service.h"
#include "dspc/api/spc_service.h"
#include "dspc/baseline/bibfs_counting.h"
#include "dspc/core/flat_spc_index.h"
#include "dspc/core/hp_spc.h"
#include "dspc/graph/generators.h"
#include "dspc/graph/update_stream.h"
#include "dspc/persist/env.h"
#include "dspc/persist/snapshot_arena.h"
#include "dspc/persist/snapshot_publisher.h"
#include "test_util.h"

namespace dspc {
namespace {

using dspc::testing::FreshDir;

FlatSpcIndex SnapshotOf(const Graph& graph) {
  return FlatSpcIndex(BuildSpcIndex(graph));
}

// --- in-process MappedReaderService ------------------------------------------

TEST(MappedReader, OpenBeforeFirstPublishIsNotFound) {
  const std::string dir = FreshDir("mr_open_empty");
  auto reader = MappedReaderService::Open(dir);
  EXPECT_TRUE(reader.status().IsNotFound()) << reader.status().ToString();
}

TEST(MappedReader, ServesAdoptedGenerationAndMatchesBiBfs) {
  const std::string dir = FreshDir("mr_adopt");
  const Graph graph = GenerateErdosRenyi(40, 90, 3);
  auto pub = SnapshotPublisher::Open(dir);
  ASSERT_TRUE(pub.ok());
  ASSERT_TRUE((*pub)->Publish(SnapshotOf(graph), 5, 17).ok());

  auto reader = MappedReaderService::Open(dir);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ((*reader)->Generation(), 5u);
  EXPECT_EQ((*reader)->PublisherGeneration(), 5u);
  EXPECT_EQ((*reader)->WalSeq(), 17u);
  EXPECT_EQ((*reader)->NumVertices(), graph.NumVertices());

  BiBfsCounter truth(graph);
  for (Vertex s = 0; s < graph.NumVertices(); s += 3) {
    for (Vertex t = 0; t < graph.NumVertices(); t += 3) {
      auto resp = (*reader)->Query(s, t);
      ASSERT_TRUE(resp.ok());
      EXPECT_EQ(resp->result, truth.Query(s, t)) << "s=" << s << " t=" << t;
      EXPECT_EQ(resp->generation, 5u);
      EXPECT_EQ(resp->staleness, 0u);
      EXPECT_EQ(resp->served_from, ServedFrom::kSnapshot);
    }
  }

  std::vector<VertexPair> pairs = {{0, 1}, {3, 9}, {12, 30}};
  auto batch = (*reader)->QueryBatch(pairs);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->results.size(), pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(batch->results[i],
              truth.Query(pairs[i].first, pairs[i].second));
  }
}

TEST(MappedReader, RefreshAdoptsNewerGenerationOldMapKeepsServing) {
  const std::string dir = FreshDir("mr_refresh");
  Graph graph = GeneratePath(8);
  auto pub = SnapshotPublisher::Open(dir);
  ASSERT_TRUE(pub.ok());
  ASSERT_TRUE((*pub)->Publish(SnapshotOf(graph), 1, 0).ok());

  auto reader = MappedReaderService::Open(dir);
  ASSERT_TRUE(reader.ok());
  ASSERT_EQ((*reader)->Generation(), 1u);

  // Writer moves on: a shortcut edge changes answers at generation 2.
  ASSERT_TRUE(graph.AddEdge(0, 7));
  ASSERT_TRUE((*pub)->Publish(SnapshotOf(graph), 2, 0).ok());

  // kSnapshot before Refresh: still the adopted generation, honestly.
  auto before = (*reader)->Query(0, 7);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->generation, 1u);
  EXPECT_EQ(before->result.dist, 7u);

  ASSERT_TRUE((*reader)->Refresh().ok());
  EXPECT_EQ((*reader)->Generation(), 2u);
  auto after = (*reader)->Query(0, 7);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->generation, 2u);
  EXPECT_EQ(after->result.dist, 1u);
  EXPECT_EQ(after->result.count, 1u);

  // Refresh with nothing new published is an OK no-op.
  ASSERT_TRUE((*reader)->Refresh().ok());
  EXPECT_EQ((*reader)->Generation(), 2u);
}

TEST(MappedReader, ArenaStampedWithAnotherGenerationIsRefused) {
  const std::string dir = FreshDir("mr_stamp_mismatch");
  FileSystem* fs = FileSystem::Default();
  Graph graph = GeneratePath(8);
  auto pub = SnapshotPublisher::Open(dir);
  ASSERT_TRUE(pub.ok());
  ASSERT_TRUE((*pub)->Publish(SnapshotOf(graph), 1, 0).ok());
  auto reader = MappedReaderService::Open(dir);
  ASSERT_TRUE(reader.ok());

  // PUBSTATE names generation 2, but the file under that name carries an
  // image stamped generation 1 (replaced by rename, as a writer would).
  ASSERT_TRUE(graph.AddEdge(0, 7));
  ASSERT_TRUE((*pub)->Publish(SnapshotOf(graph), 2, 0).ok());
  const std::string path = dir + "/" + SnapshotArenaFileName(2);
  ASSERT_TRUE(WriteSnapshotArena(fs, path + ".tmp", SnapshotOf(graph),
                                 /*edges=*/{}, /*generation=*/1, 0)
                  .ok());
  ASSERT_TRUE(fs->RenameFile(path + ".tmp", path).ok());

  const Status st = (*reader)->Refresh();
  EXPECT_TRUE(st.IsDataLoss()) << st.ToString();
  // The reader keeps serving the generation it had adopted.
  EXPECT_EQ((*reader)->Generation(), 1u);
  auto resp = (*reader)->Query(0, 7);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->generation, 1u);
  EXPECT_EQ(resp->result.dist, 7u);
  EXPECT_TRUE(MappedReaderService::Open(dir).status().IsDataLoss());
}

TEST(MappedReader, ConsistencyLatticeRefusalsAreTyped) {
  const std::string dir = FreshDir("mr_lattice");
  const Graph graph = GeneratePath(6);
  auto pub = SnapshotPublisher::Open(dir);
  ASSERT_TRUE(pub.ok());
  ASSERT_TRUE((*pub)->Publish(SnapshotOf(graph), 3, 0).ok());

  auto reader = MappedReaderService::Open(dir);
  ASSERT_TRUE(reader.ok());

  // kFresh has no live index to serve.
  EXPECT_TRUE((*reader)
                  ->Query(0, 5, {.consistency = Consistency::kFresh})
                  .status()
                  .IsNotSupported());

  // kSnapshot refuses a future min_generation without doing I/O.
  EXPECT_TRUE((*reader)
                  ->Query(0, 5,
                          {.consistency = Consistency::kSnapshot,
                           .min_generation = 4})
                  .status()
                  .IsUnavailable());

  // kBoundedStaleness with an unreachable min_generation refuses too.
  EXPECT_TRUE((*reader)
                  ->Query(0, 5,
                          {.consistency = Consistency::kBoundedStaleness,
                           .min_generation = 9})
                  .status()
                  .IsUnavailable());

  // Vertex validation is typed, not fatal.
  EXPECT_TRUE((*reader)->Query(0, 99).status().IsInvalidArgument());

  const auto m = (*reader)->Metrics();
  EXPECT_EQ(m.rejected_not_supported, 1u);
  EXPECT_EQ(m.rejected_unavailable, 2u);
  EXPECT_EQ(m.rejected_invalid_argument, 1u);
}

TEST(MappedReader, BoundedStalenessAdoptsInline) {
  const std::string dir = FreshDir("mr_bounded");
  Graph graph = GeneratePath(8);
  auto pub = SnapshotPublisher::Open(dir);
  ASSERT_TRUE(pub.ok());
  ASSERT_TRUE((*pub)->Publish(SnapshotOf(graph), 1, 0).ok());
  auto reader = MappedReaderService::Open(dir);
  ASSERT_TRUE(reader.ok());

  ASSERT_TRUE(graph.AddEdge(0, 7));
  ASSERT_TRUE((*pub)->Publish(SnapshotOf(graph), 2, 0).ok());

  // max_lag 0 forces the inline adoption: the answer must come from
  // generation 2 without an explicit Refresh().
  auto resp = (*reader)->Query(
      0, 7, {.consistency = Consistency::kBoundedStaleness, .max_lag = 0});
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->generation, 2u);
  EXPECT_EQ(resp->staleness, 0u);
  EXPECT_EQ(resp->result.dist, 1u);
  EXPECT_EQ((*reader)->Generation(), 2u);
}

TEST(MappedReader, PinFollowsAdoptionAndIsRemovedOnShutdown) {
  const std::string dir = FreshDir("mr_pin");
  FileSystem* fs = FileSystem::Default();
  const Graph graph = GeneratePath(5);
  auto pub = SnapshotPublisher::Open(dir);
  ASSERT_TRUE(pub.ok());
  ASSERT_TRUE((*pub)->Publish(SnapshotOf(graph), 1, 0).ok());
  {
    MappedReaderOptions ropts;
    ropts.pin_owner = "unit-reader";
    auto reader = MappedReaderService::Open(dir, ropts);
    ASSERT_TRUE(reader.ok());
    EXPECT_TRUE(fs->FileExists(dir + "/pin-unit-reader"));
    ASSERT_TRUE((*pub)->Publish(SnapshotOf(graph), 2, 0).ok());
    ASSERT_TRUE((*reader)->Refresh().ok());
    // The pin now names generation 2: GC at retain=1 may drop 1.
    SnapshotPublisherOptions gc;
    gc.retain = 1;
    auto pub2 = SnapshotPublisher::Open(dir, gc);
    ASSERT_TRUE(pub2.ok());
    ASSERT_TRUE((*pub2)->GarbageCollect().ok());
    EXPECT_FALSE(fs->FileExists(dir + "/" + SnapshotArenaFileName(1)));
    EXPECT_TRUE(fs->FileExists(dir + "/" + SnapshotArenaFileName(2)));
  }
  // Clean shutdown releases the pin.
  EXPECT_FALSE(fs->FileExists(dir + "/pin-unit-reader"));
}

TEST(MappedReader, MappingSurvivesUnlinkByGc) {
  const std::string dir = FreshDir("mr_unlink");
  FileSystem* fs = FileSystem::Default();
  Graph graph = GeneratePath(7);
  SnapshotPublisherOptions options;
  options.retain = 1;
  auto pub = SnapshotPublisher::Open(dir, options);
  ASSERT_TRUE(pub.ok());
  ASSERT_TRUE((*pub)->Publish(SnapshotOf(graph), 1, 0).ok());

  // No pins: this reader opts out of retention on purpose.
  MappedReaderOptions no_pins;
  no_pins.write_pins = false;
  auto reader = MappedReaderService::Open(dir, no_pins);
  ASSERT_TRUE(reader.ok());
  ASSERT_EQ((*reader)->Generation(), 1u);

  ASSERT_TRUE(graph.AddEdge(0, 6));
  ASSERT_TRUE((*pub)->Publish(SnapshotOf(graph), 2, 0).ok());
  ASSERT_TRUE((*pub)->Publish(SnapshotOf(graph), 3, 0).ok());
  ASSERT_FALSE(fs->FileExists(dir + "/" + SnapshotArenaFileName(1)));

  // The generation-1 bytes are gone from the namespace but not from this
  // process: posix mappings survive unlink, so kSnapshot keeps serving
  // the old answers at the old generation.
  auto resp = (*reader)->Query(0, 6);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->generation, 1u);
  EXPECT_EQ(resp->result.dist, 6u);
  // Staleness is measured against the publisher generation last
  // *observed* (here: at Open) — understated until the next poll, but
  // the served generation above is exact.
  EXPECT_EQ(resp->staleness, 0u);

  // And adoption still works: the reader jumps to the newest survivor.
  ASSERT_TRUE((*reader)->Refresh().ok());
  EXPECT_EQ((*reader)->Generation(), 3u);
  EXPECT_EQ((*reader)->Query(0, 6)->result.dist, 1u);
}

// --- fork/exec harness -------------------------------------------------------

#ifndef DSPC_READER_BIN
#error "DSPC_READER_BIN must point at the dspc_reader executable"
#endif

/// One forked dspc_reader child, driven through its line protocol over a
/// pair of pipes. Blocking reads are safe: every command gets exactly one
/// reply line (flushed), and the gtest TIMEOUT property backstops hangs.
class ReaderProc {
 public:
  struct Answer {
    bool ok = false;
    int code = 0;
    uint64_t generation = 0;
    uint64_t staleness = 0;
    long long dist = -2;
    unsigned long long count = 0;
  };

  static std::unique_ptr<ReaderProc> Spawn(
      const std::string& dir, const std::vector<std::string>& extra = {}) {
    // A SIGKILLed child mid-conversation must surface as an EOF/short
    // read, not a SIGPIPE crash of the test.
    ::signal(SIGPIPE, SIG_IGN);
    int to_child[2] = {-1, -1};
    int from_child[2] = {-1, -1};
    if (::pipe(to_child) != 0 || ::pipe(from_child) != 0) return nullptr;
    const pid_t pid = ::fork();
    if (pid < 0) return nullptr;
    if (pid == 0) {
      ::dup2(to_child[0], STDIN_FILENO);
      ::dup2(from_child[1], STDOUT_FILENO);
      ::close(to_child[0]);
      ::close(to_child[1]);
      ::close(from_child[0]);
      ::close(from_child[1]);
      std::vector<std::string> args = {DSPC_READER_BIN, dir};
      args.insert(args.end(), extra.begin(), extra.end());
      std::vector<char*> argv;
      argv.reserve(args.size() + 1);
      for (std::string& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      ::execv(DSPC_READER_BIN, argv.data());
      ::_exit(127);
    }
    ::close(to_child[0]);
    ::close(from_child[1]);
    auto proc = std::unique_ptr<ReaderProc>(new ReaderProc());
    proc->pid_ = pid;
    proc->out_ = ::fdopen(to_child[1], "w");
    proc->in_ = ::fdopen(from_child[0], "r");
    return proc;
  }

  ~ReaderProc() {
    if (pid_ > 0) {
      Send("quit");
      (void)Wait();
    }
    if (in_ != nullptr) ::fclose(in_);
    if (out_ != nullptr) ::fclose(out_);
  }

  pid_t pid() const { return pid_; }

  void Send(const std::string& line) {
    if (out_ == nullptr) return;
    std::fputs((line + "\n").c_str(), out_);
    std::fflush(out_);
  }

  /// Next reply line, without the newline; "" on EOF (dead child).
  std::string ReadLine() {
    char buf[8192];
    if (in_ == nullptr || std::fgets(buf, sizeof(buf), in_) == nullptr) {
      return "";
    }
    std::string line(buf);
    while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
      line.pop_back();
    }
    return line;
  }

  /// The `ready <gen>` banner printed after a successful Open.
  bool WaitReady(uint64_t* generation) {
    std::istringstream in(ReadLine());
    std::string tag;
    in >> tag >> *generation;
    return tag == "ready";
  }

  Answer Query(Vertex s, Vertex t) {
    Send("q " + std::to_string(s) + " " + std::to_string(t));
    return ParseAnswer(ReadLine());
  }

  Answer QueryMinGen(uint64_t min_gen, Vertex s, Vertex t) {
    Send("mq " + std::to_string(min_gen) + " " + std::to_string(s) + " " +
         std::to_string(t));
    return ParseAnswer(ReadLine());
  }

  Answer QueryBounded(uint64_t max_lag, uint64_t min_gen, Vertex s,
                      Vertex t) {
    Send("bq " + std::to_string(max_lag) + " " + std::to_string(min_gen) +
         " " + std::to_string(s) + " " + std::to_string(t));
    return ParseAnswer(ReadLine());
  }

  /// `refresh`; returns the adopted generation (0 on error reply).
  uint64_t Refresh() {
    Send("refresh");
    std::istringstream in(ReadLine());
    std::string tag;
    uint64_t gen = 0;
    in >> tag >> gen;
    return tag == "ok" ? gen : 0;
  }

  bool Gen(uint64_t* adopted, uint64_t* publisher, uint64_t* wal_seq) {
    Send("gen");
    std::istringstream in(ReadLine());
    std::string tag;
    in >> tag >> *adopted >> *publisher >> *wal_seq;
    return tag == "gen";
  }

  void Kill() { ::kill(pid_, SIGKILL); }

  /// Reaps the child; returns its wait status (-1 if already reaped).
  int Wait() {
    if (pid_ <= 0) return -1;
    int status = -1;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    return status;
  }

 private:
  ReaderProc() = default;

  static Answer ParseAnswer(const std::string& line) {
    Answer a;
    std::istringstream in(line);
    std::string tag;
    in >> tag;
    if (tag == "a") {
      in >> a.generation >> a.staleness >> a.dist >> a.count;
      a.ok = static_cast<bool>(in);
    } else if (tag == "e") {
      in >> a.code;
    }
    return a;
  }

  pid_t pid_ = -1;
  FILE* in_ = nullptr;
  FILE* out_ = nullptr;
};

/// Checks a sample of pairs from `reader` against BiBFS over `graph`,
/// requiring every answer to carry exactly `generation`.
void ExpectReaderMatchesBiBfs(ReaderProc* reader, const Graph& graph,
                              uint64_t generation) {
  BiBfsCounter truth(graph);
  const Vertex n = static_cast<Vertex>(graph.NumVertices());
  for (Vertex s = 0; s < n; s += 3) {
    for (Vertex t = 0; t < n; t += 5) {
      const SpcResult want = truth.Query(s, t);
      const ReaderProc::Answer got = reader->Query(s, t);
      ASSERT_TRUE(got.ok) << "s=" << s << " t=" << t;
      ASSERT_EQ(got.generation, generation) << "s=" << s << " t=" << t;
      if (want.dist == kInfDistance) {
        EXPECT_EQ(got.dist, -1) << "s=" << s << " t=" << t;
      } else {
        EXPECT_EQ(got.dist, static_cast<long long>(want.dist))
            << "s=" << s << " t=" << t;
        EXPECT_EQ(got.count, want.count) << "s=" << s << " t=" << t;
      }
    }
  }
}

// --- the kill matrix ---------------------------------------------------------

TEST(MultiprocessServing, ReadersServeExactGenerationsAcrossPublishes) {
  const std::string dir = FreshDir("mp_basic");
  Graph graph = GenerateErdosRenyi(45, 100, 21);
  SpcService service(graph);  // writer: live, non-durable
  auto pub = SnapshotPublisher::Open(dir);
  ASSERT_TRUE(pub.ok());
  ASSERT_TRUE(service.PublishSnapshot(pub->get()).ok());
  const uint64_t gen1 = (*pub)->CurrentGeneration();

  // Two independent reader processes over the same directory.
  auto r1 = ReaderProc::Spawn(dir, {"--owner=mp-r1"});
  auto r2 = ReaderProc::Spawn(dir, {"--owner=mp-r2"});
  ASSERT_NE(r1, nullptr);
  ASSERT_NE(r2, nullptr);
  uint64_t g = 0;
  ASSERT_TRUE(r1->WaitReady(&g));
  EXPECT_EQ(g, gen1);
  ASSERT_TRUE(r2->WaitReady(&g));
  EXPECT_EQ(g, gen1);

  ExpectReaderMatchesBiBfs(r1.get(), graph, gen1);
  ExpectReaderMatchesBiBfs(r2.get(), graph, gen1);

  // The writer applies real updates and publishes; each reader adopts
  // the exact new generation and its answers track the new graph.
  std::vector<Update> updates;
  for (Vertex v = 0; v < 6; ++v) {
    const Vertex u = v;
    const Vertex w = static_cast<Vertex>(44 - v);
    if (u != w && !graph.HasEdge(u, w)) {
      updates.push_back(Update::Insert(u, w));
      ASSERT_TRUE(graph.AddEdge(u, w));
    }
  }
  ASSERT_FALSE(updates.empty());
  ASSERT_TRUE(service.ApplyUpdates(updates).ok());
  ASSERT_TRUE(service.PublishSnapshot(pub->get()).ok());
  const uint64_t gen2 = (*pub)->CurrentGeneration();
  ASSERT_GT(gen2, gen1);

  // r1 adopts explicitly; r2 stays pinned to gen1 and keeps serving the
  // OLD answers (exact-generation isolation between processes), then
  // catches up via a bounded read.
  EXPECT_EQ(r1->Refresh(), gen2);
  ExpectReaderMatchesBiBfs(r1.get(), graph, gen2);

  const ReaderProc::Answer stale = r2->Query(0, 44);
  ASSERT_TRUE(stale.ok);
  EXPECT_EQ(stale.generation, gen1);
  const ReaderProc::Answer bounded = r2->QueryBounded(0, 0, 0, 44);
  ASSERT_TRUE(bounded.ok);
  EXPECT_EQ(bounded.generation, gen2);
  EXPECT_EQ(bounded.dist, 1);
  ExpectReaderMatchesBiBfs(r2.get(), graph, gen2);

  // The writer's own service answers match the readers' at gen2.
  auto own = service.Query(0, 44);
  ASSERT_TRUE(own.ok());
  EXPECT_EQ(own->result.dist, 1u);
}

TEST(MultiprocessServing, KilledReaderPinIsSweptAndSpaceReclaimed) {
  const std::string dir = FreshDir("mp_kill");
  FileSystem* fs = FileSystem::Default();
  Graph graph = GeneratePath(10);
  SnapshotPublisherOptions options;
  options.retain = 1;
  auto pub = SnapshotPublisher::Open(dir, options);
  ASSERT_TRUE(pub.ok());
  ASSERT_TRUE((*pub)->Publish(SnapshotOf(graph), 1, 0).ok());

  auto victim = ReaderProc::Spawn(dir, {"--owner=victim"});
  ASSERT_NE(victim, nullptr);
  uint64_t g = 0;
  ASSERT_TRUE(victim->WaitReady(&g));
  ASSERT_EQ(g, 1u);
  EXPECT_TRUE(fs->FileExists(dir + "/pin-victim"));
  // Mid-stream: a query is answered, then the process dies hard.
  EXPECT_TRUE(victim->Query(0, 9).ok);
  victim->Kill();
  victim->Wait();  // reaped: the pid is dead for the liveness probe

  // The writer does not block on the corpse: the default pid-liveness
  // sweep removes the stale pin and GC reclaims its generation.
  ASSERT_TRUE(graph.AddEdge(0, 9));
  ASSERT_TRUE((*pub)->Publish(SnapshotOf(graph), 2, 0).ok());
  ASSERT_TRUE((*pub)->Publish(SnapshotOf(graph), 3, 0).ok());
  EXPECT_FALSE(fs->FileExists(dir + "/pin-victim"));
  EXPECT_FALSE(fs->FileExists(dir + "/" + SnapshotArenaFileName(1)));

  // Survivor readers are unaffected.
  auto fresh = ReaderProc::Spawn(dir, {"--owner=survivor"});
  ASSERT_NE(fresh, nullptr);
  ASSERT_TRUE(fresh->WaitReady(&g));
  EXPECT_EQ(g, 3u);
  const ReaderProc::Answer a = fresh->Query(0, 9);
  ASSERT_TRUE(a.ok);
  EXPECT_EQ(a.dist, 1);
}

TEST(MultiprocessServing, PinnedReaderHoldsGenerationAgainstGc) {
  const std::string dir = FreshDir("mp_pinned_gc");
  FileSystem* fs = FileSystem::Default();
  Graph graph = GeneratePath(9);
  SnapshotPublisherOptions options;
  options.retain = 1;
  auto pub = SnapshotPublisher::Open(dir, options);
  ASSERT_TRUE(pub.ok());
  ASSERT_TRUE((*pub)->Publish(SnapshotOf(graph), 1, 0).ok());

  auto holder = ReaderProc::Spawn(dir, {"--owner=holder"});
  ASSERT_NE(holder, nullptr);
  uint64_t g = 0;
  ASSERT_TRUE(holder->WaitReady(&g));
  ASSERT_EQ(g, 1u);

  // Three publishes at retain=1 would normally bury generation 1; the
  // live holder's pin keeps it on disk AND servable.
  ASSERT_TRUE(graph.AddEdge(0, 8));
  for (uint64_t gen = 2; gen <= 4; ++gen) {
    ASSERT_TRUE((*pub)->Publish(SnapshotOf(graph), gen, 0).ok());
  }
  EXPECT_TRUE(fs->FileExists(dir + "/" + SnapshotArenaFileName(1)));
  ReaderProc::Answer a = holder->Query(0, 8);
  ASSERT_TRUE(a.ok);
  EXPECT_EQ(a.generation, 1u);
  EXPECT_EQ(a.dist, 8);  // pre-shortcut answer: generation 1 exactly

  // Once the holder adopts the current generation, the next GC finally
  // reclaims generation 1.
  EXPECT_EQ(holder->Refresh(), 4u);
  a = holder->Query(0, 8);
  ASSERT_TRUE(a.ok);
  EXPECT_EQ(a.generation, 4u);
  EXPECT_EQ(a.dist, 1);
  ASSERT_TRUE((*pub)->Publish(SnapshotOf(graph), 5, 0).ok());
  EXPECT_FALSE(fs->FileExists(dir + "/" + SnapshotArenaFileName(1)));
}

TEST(MultiprocessServing, WriterCrashRecoveryRepublishesExactGeneration) {
  const std::string state_dir = FreshDir("mp_crash_state");
  const std::string pub_dir = FreshDir("mp_crash_pub");
  Graph graph = GenerateErdosRenyi(30, 60, 5);
  Graph mirror = graph;  // ground-truth twin of the service's graph

  uint64_t published_gen = 0;
  uint64_t published_wal = 0;
  {
    DurabilityOptions dur;
    dur.dir = state_dir;
    dur.sync = WalSyncPolicy::kEveryWrite;
    auto service = SpcService::Open(graph, dur);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    std::vector<Update> updates;
    for (Vertex v = 0; v < 5; ++v) {
      const Vertex u = v;
      const Vertex w = static_cast<Vertex>(29 - v);
      if (u != w && !mirror.HasEdge(u, w)) {
        updates.push_back(Update::Insert(u, w));
        ASSERT_TRUE(mirror.AddEdge(u, w));
      }
    }
    ASSERT_FALSE(updates.empty());
    ASSERT_TRUE((*service)->ApplyUpdates(updates).ok());
    auto pub = SnapshotPublisher::Open(pub_dir);
    ASSERT_TRUE(pub.ok());
    ASSERT_TRUE((*service)->PublishSnapshot(pub->get()).ok());
    published_gen = (*pub)->CurrentGeneration();
    published_wal = (*pub)->CurrentWalSeq();
    ASSERT_GT(published_gen, 0u);
    // Writer "dies" here: the service and publisher handles drop; the
    // WAL (kEveryWrite) already holds everything the arena reflects.
  }

  // A reader that arrived while the writer is down still serves.
  auto reader = ReaderProc::Spawn(pub_dir, {"--owner=mp-crash-r"});
  ASSERT_NE(reader, nullptr);
  uint64_t g = 0;
  ASSERT_TRUE(reader->WaitReady(&g));
  EXPECT_EQ(g, published_gen);
  ExpectReaderMatchesBiBfs(reader.get(), mirror, published_gen);
  uint64_t adopted = 0, publisher_gen = 0, wal_seq = 0;
  ASSERT_TRUE(reader->Gen(&adopted, &publisher_gen, &wal_seq));
  EXPECT_EQ(wal_seq, published_wal);

  // The writer recovers to the EXACT generation it had published...
  DurabilityOptions dur;
  dur.dir = state_dir;
  dur.sync = WalSyncPolicy::kEveryWrite;
  auto recovered = SpcService::Open(Graph(), dur);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ((*recovered)->Generation(), published_gen);

  // ...republishes it (allowed: same generation, atomic), and moves on.
  auto pub = SnapshotPublisher::Open(pub_dir);
  ASSERT_TRUE(pub.ok());
  EXPECT_EQ((*pub)->CurrentGeneration(), published_gen);
  ASSERT_TRUE((*recovered)->PublishSnapshot(pub->get()).ok());
  EXPECT_EQ((*pub)->CurrentGeneration(), published_gen);
  EXPECT_EQ(reader->Refresh(), published_gen);  // no-op adoption

  // Post-recovery writes reach readers as a strictly newer generation.
  Vertex nu = kInvalidVertex, nv = kInvalidVertex;
  for (Vertex u = 0; u < 30 && nu == kInvalidVertex; ++u) {
    for (Vertex v = static_cast<Vertex>(u + 1); v < 30; ++v) {
      if (!mirror.HasEdge(u, v)) {
        nu = u;
        nv = v;
        break;
      }
    }
  }
  ASSERT_NE(nu, kInvalidVertex);
  ASSERT_TRUE(mirror.AddEdge(nu, nv));
  ASSERT_TRUE((*recovered)->InsertEdge(nu, nv).ok());
  ASSERT_TRUE((*recovered)->PublishSnapshot(pub->get()).ok());
  const uint64_t gen_after = (*pub)->CurrentGeneration();
  ASSERT_GT(gen_after, published_gen);
  const ReaderProc::Answer a =
      reader->QueryBounded(/*max_lag=*/0, /*min_gen=*/gen_after, nu, nv);
  ASSERT_TRUE(a.ok);
  EXPECT_EQ(a.generation, gen_after);
  EXPECT_EQ(a.dist, 1);
  ExpectReaderMatchesBiBfs(reader.get(), mirror, gen_after);
}

}  // namespace
}  // namespace dspc
