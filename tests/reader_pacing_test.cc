// Reader pacing (DESIGN.md §8): the trigger (ShouldPace) and the backoff
// step (NextPacing) as pure functions, the engine's yield counter, and the
// `dspc_reader_pacing_yields_total` metric on every serving process.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dspc/api/mapped_reader_service.h"
#include "dspc/api/replica_service.h"
#include "dspc/api/spc_service.h"
#include "dspc/core/dynamic_spc.h"
#include "dspc/core/flat_spc_index.h"
#include "dspc/core/hp_spc.h"
#include "dspc/graph/generators.h"
#include "dspc/persist/replication.h"
#include "dspc/persist/snapshot_publisher.h"
#include "test_util.h"

namespace dspc {
namespace {

using dspc::testing::FreshDir;

// Both rules are constexpr, like AdmitRead.
static_assert(NextPacing({}, true) == ReaderPacing{1, 1});
static_assert(!ShouldPace(RefreshPolicy::kSync, 1, 100, 1));

TEST(ReaderPacingTest, FastYieldsDoubleTheSkipUpTo255) {
  const std::vector<uint8_t> expected = {1,  2,   4,   8,   16, 32,
                                         64, 128, 255, 255, 255};
  ReaderPacing pacing;
  for (const uint8_t skip : expected) {
    pacing = NextPacing(pacing, /*fast_yield=*/true);
    EXPECT_EQ(pacing, (ReaderPacing{skip, skip}));
  }
}

TEST(ReaderPacingTest, OneSlowYieldResetsTheSkip) {
  for (const uint8_t skip : {0, 1, 2, 64, 128, 255}) {
    EXPECT_EQ(NextPacing({skip, 0}, /*fast_yield=*/false), ReaderPacing{})
        << "skip " << int{skip};
  }
  // After a reset the doubling starts over.
  EXPECT_EQ(NextPacing(NextPacing({255, 0}, false), true),
            (ReaderPacing{1, 1}));
}

TEST(ReaderPacingTest, OnlyBackgroundReadsUnderATriggerPace) {
  constexpr uint64_t kCur = 100;
  for (const RefreshPolicy policy :
       {RefreshPolicy::kSync, RefreshPolicy::kManual}) {
    EXPECT_FALSE(ShouldPace(policy, 3, kCur, kCur));
    EXPECT_FALSE(ShouldPace(policy, 0, kCur, 0));
    EXPECT_FALSE(ShouldPace(policy, 3, kCur, 0));
  }
  constexpr RefreshPolicy kBg = RefreshPolicy::kBackground;
  // Neither trigger: no writer, and the pin trails by at most kPacingLag
  // (or is newer than the reader's generation read).
  EXPECT_FALSE(ShouldPace(kBg, 0, kCur, kCur));
  EXPECT_FALSE(ShouldPace(kBg, 0, kCur, kCur - kPacingLag));
  EXPECT_FALSE(ShouldPace(kBg, 0, kCur, kCur + 5));
  EXPECT_FALSE(ShouldPace(kBg, 0, 0, UINT64_MAX));
  // A writer mid-update, whatever the pin.
  EXPECT_TRUE(ShouldPace(kBg, 1, kCur, kCur));
  EXPECT_TRUE(ShouldPace(kBg, 2, kCur, kCur + 5));
  // A pin more than kPacingLag generations behind.
  EXPECT_TRUE(ShouldPace(kBg, 0, kCur, kCur - kPacingLag - 1));
  EXPECT_TRUE(ShouldPace(kBg, 0, UINT64_MAX, 0));
}

// Runs `reads` on a new thread, so it starts from a fresh pacing state
// (ReaderPacing{}: its first paced read yields).
template <typename Reads>
void OnFreshThread(Reads reads) {
  std::thread reader(reads);
  reader.join();
}

// Keeps one InsertEdge waiting for the writer lock, which counts as a
// writer mid-update, while `reads` runs on a fresh thread.
template <typename Reads>
void WithWriterInFlight(DynamicSpcIndex* engine, Reads reads) {
  Vertex a = 0;
  Vertex b = 1;
  while (engine->graph().HasEdge(a, b)) ++b;
  auto frozen = engine->FreezeWrites();
  std::thread writer([&] { engine->InsertEdge(a, b); });
  OnFreshThread(reads);
  frozen.unlock();
  writer.join();
}

// Reads until `engine` counts a yield, giving up after 30 s.
template <typename Read>
void ReadUntilAYield(const DynamicSpcIndex& engine, Read read) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (engine.ReaderPacingYields() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    read();
  }
}

TEST(ReaderPacingTest, BackgroundReadsYieldOnlyWhileAWriterIsActive) {
  DynamicSpcOptions options;
  options.snapshot.refresh = RefreshPolicy::kBackground;
  DynamicSpcIndex engine(GenerateErdosRenyi(40, 90, 3), options);
  engine.WaitForFreshSnapshot();

  OnFreshThread([&] {
    for (int i = 0; i < 1000; ++i) engine.Query(0, 5);
  });
  EXPECT_EQ(engine.ReaderPacingYields(), 0u);

  // The writer raises its signal before it waits for the lock; from then
  // on the fresh reader's first paced read yields.
  WithWriterInFlight(&engine, [&] {
    ReadUntilAYield(engine, [&] { engine.Query(0, 5); });
  });
  EXPECT_GE(engine.ReaderPacingYields(), 1u);
}

TEST(ReaderPacingTest, SyncAndManualReadsNeverYield) {
  for (const RefreshPolicy policy :
       {RefreshPolicy::kSync, RefreshPolicy::kManual}) {
    DynamicSpcOptions options;
    options.snapshot.refresh = policy;
    DynamicSpcIndex engine(GenerateErdosRenyi(40, 90, 3), options);
    engine.WaitForFreshSnapshot();
    // The snapshot is current, so these reads never need the lock the
    // frozen writer waits behind.
    WithWriterInFlight(&engine, [&] {
      for (int i = 0; i < 1000; ++i) engine.Query(0, 5);
    });
    EXPECT_EQ(engine.ReaderPacingYields(), 0u);
  }
}

constexpr char kYieldsMetric[] = "dspc_reader_pacing_yields_total";

// The pacing metric has one name on every serving process. The mapped
// reader has no writer to yield to, so it exports 0.
TEST(ReaderPacingTest, AllThreeServicesExportTheYieldCounter) {
  const Graph graph = GenerateErdosRenyi(40, 90, 3);

  DynamicSpcOptions options;
  options.snapshot.refresh = RefreshPolicy::kBackground;
  SpcService service(graph, options);
  service.engine().WaitForFreshSnapshot();
  WithWriterInFlight(&service.engine(), [&] {
    ReadUntilAYield(service.engine(), [&] {
      EXPECT_TRUE(
          service.Query(0, 5, {.consistency = Consistency::kSnapshot}).ok());
    });
  });
  const MetricsSnapshot snap = service.Metrics();
  EXPECT_EQ(snap.reader_pacing_yields, service.engine().ReaderPacingYields());
  EXPECT_GE(snap.reader_pacing_yields, 1u);
  EXPECT_NE(snap.PrometheusText().find(kYieldsMetric), std::string::npos);

  InProcessTransport transport;
  DurabilityOptions durability;
  durability.dir = FreshDir("primary");
  durability.sync = WalSyncPolicy::kEveryWrite;
  auto primary = SpcService::Open(graph, durability);
  ASSERT_TRUE(primary.ok()) << primary.status().ToString();
  auto shipper = (*primary)->NewShipper(&transport);
  ASSERT_TRUE(shipper.ok()) << shipper.status().ToString();
  ASSERT_TRUE((*shipper)->ShipOnce().ok());
  ReplicaOptions replica_options;
  replica_options.transport = &transport;
  replica_options.start_tailer = false;
  auto replica = ReplicaService::Open(replica_options);
  ASSERT_TRUE(replica.ok()) << replica.status().ToString();
  ASSERT_TRUE((*replica)->Query(0, 5).ok());
  EXPECT_NE((*replica)->Metrics().PrometheusText().find(kYieldsMetric),
            std::string::npos);

  const std::string dir = FreshDir("mapped");
  auto publisher = SnapshotPublisher::Open(dir);
  ASSERT_TRUE(publisher.ok()) << publisher.status().ToString();
  ASSERT_TRUE(
      (*publisher)->Publish(FlatSpcIndex(BuildSpcIndex(graph)), 1, 0).ok());
  auto reader = MappedReaderService::Open(dir);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  ASSERT_TRUE((*reader)->Query(0, 5).ok());
  EXPECT_NE((*reader)->Metrics().PrometheusText().find(
                std::string("\n") + kYieldsMetric + " 0\n"),
            std::string::npos);
}

}  // namespace
}  // namespace dspc
