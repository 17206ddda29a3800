// Unit tests for the common runtime: Status, Rng, SampleStats, the packed
// label codec, the CRC-framed binary I/O, and the shard-repack ThreadPool.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "dspc/common/binary_io.h"
#include "dspc/common/label_codec.h"
#include "dspc/common/rng.h"
#include "dspc/common/stats.h"
#include "dspc/common/status.h"
#include "dspc/common/stopwatch.h"
#include "dspc/common/thread_pool.h"

namespace dspc {
namespace {

// --- Status -----------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, CodesAndMessages) {
  const Status nf = Status::NotFound("missing thing");
  EXPECT_FALSE(nf.ok());
  EXPECT_TRUE(nf.IsNotFound());
  EXPECT_EQ(nf.ToString(), "NotFound: missing thing");

  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::NotSupported("x").IsNotSupported());
  EXPECT_TRUE(Status::Unavailable("x").IsUnavailable());
  EXPECT_EQ(Status::Unavailable("busy").ToString(), "Unavailable: busy");
  EXPECT_TRUE(Status::DeadlineExceeded("x").IsDeadlineExceeded());
  EXPECT_FALSE(Status::DeadlineExceeded("x").ok());
  EXPECT_EQ(Status::DeadlineExceeded("too slow").ToString(),
            "DeadlineExceeded: too slow");
}

// --- StatusOr ---------------------------------------------------------------

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v.status().ok());
  EXPECT_EQ(v.value(), 42);
  EXPECT_EQ(*v, 42);
  EXPECT_EQ(v.value_or(-1), 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> e = Status::InvalidArgument("bad vertex");
  EXPECT_FALSE(e.ok());
  EXPECT_FALSE(static_cast<bool>(e));
  EXPECT_TRUE(e.status().IsInvalidArgument());
  EXPECT_EQ(e.status().message(), "bad vertex");
  EXPECT_EQ(e.value_or(-1), -1);
}

TEST(StatusOrTest, MovesValueOut) {
  StatusOr<std::vector<int>> v = std::vector<int>{1, 2, 3};
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->size(), 3u);
  const std::vector<int> moved = *std::move(v);
  EXPECT_EQ(moved, (std::vector<int>{1, 2, 3}));
}

TEST(StatusOrTest, WorksAsReturnType) {
  const auto divide = [](int a, int b) -> StatusOr<int> {
    if (b == 0) return Status::InvalidArgument("division by zero");
    return a / b;
  };
  EXPECT_EQ(divide(10, 2).value(), 5);
  EXPECT_TRUE(divide(1, 0).status().IsInvalidArgument());
}

// --- Rng --------------------------------------------------------------------

TEST(RngTest, DeterministicForSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
    const uint64_t r = rng.NextInRange(5, 9);
    EXPECT_GE(r, 5u);
    EXPECT_LE(r, 9u);
  }
}

TEST(RngTest, BoundedCoversAllResidues) {
  Rng rng(9);
  bool seen[10] = {};
  for (int i = 0; i < 2000; ++i) seen[rng.NextBounded(10)] = true;
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);  // uniform mean
}

// --- Stopwatch ----------------------------------------------------------------

TEST(StopwatchTest, MonotoneNonNegative) {
  Stopwatch sw;
  const double t1 = sw.ElapsedSeconds();
  const double t2 = sw.ElapsedSeconds();
  EXPECT_GE(t1, 0.0);
  EXPECT_GE(t2, t1);
  EXPECT_NEAR(sw.ElapsedMillis(), sw.ElapsedSeconds() * 1e3,
              sw.ElapsedMillis());
}

// --- SampleStats --------------------------------------------------------------

TEST(SampleStatsTest, EmptyIsZero) {
  SampleStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.Mean(), 0.0);
  EXPECT_EQ(s.Median(), 0.0);
  EXPECT_EQ(s.Min(), 0.0);
  EXPECT_EQ(s.Max(), 0.0);
}

TEST(SampleStatsTest, BasicMoments) {
  SampleStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(v);
  EXPECT_DOUBLE_EQ(s.Mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.Stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.Min(), 2.0);
  EXPECT_DOUBLE_EQ(s.Max(), 9.0);
}

TEST(SampleStatsTest, PercentilesInterpolate) {
  SampleStats s;
  for (int i = 1; i <= 5; ++i) s.Add(i);  // 1..5
  EXPECT_DOUBLE_EQ(s.Median(), 3.0);
  EXPECT_DOUBLE_EQ(s.Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 5.0);
  EXPECT_DOUBLE_EQ(s.P25(), 2.0);
  EXPECT_DOUBLE_EQ(s.P75(), 4.0);
  EXPECT_DOUBLE_EQ(s.Percentile(62.5), 3.5);  // between 3 and 4
}

TEST(SampleStatsTest, PercentileCacheInvalidatedByAdd) {
  SampleStats s;
  s.Add(10.0);
  EXPECT_DOUBLE_EQ(s.Median(), 10.0);
  s.Add(20.0);
  EXPECT_DOUBLE_EQ(s.Median(), 15.0);
  s.Clear();
  EXPECT_EQ(s.count(), 0u);
}

TEST(LabelChangeTotalsTest, MeansPerUpdate) {
  LabelChangeTotals t;
  t.updates = 4;
  t.renew_count = 8;
  t.renew_dist = 2;
  t.inserted = 6;
  t.removed = 1;
  EXPECT_DOUBLE_EQ(t.MeanRenewCount(), 2.0);
  EXPECT_DOUBLE_EQ(t.MeanRenewDist(), 0.5);
  EXPECT_DOUBLE_EQ(t.MeanInserted(), 1.5);
  EXPECT_DOUBLE_EQ(t.MeanRemoved(), 0.25);
}

// --- Packed label codec -------------------------------------------------------

TEST(LabelCodecTest, RoundTrip) {
  const uint64_t w = PackLabel(12345, 678, 987654);
  const PackedLabelFields f = UnpackLabel(w);
  EXPECT_EQ(f.hub, 12345u);
  EXPECT_EQ(f.dist, 678u);
  EXPECT_EQ(f.count, 987654u);
}

TEST(LabelCodecTest, FieldBoundaries) {
  const PackedLabelFields f = UnpackLabel(
      PackLabel(static_cast<Rank>(kPackedHubMax),
                static_cast<Distance>(kPackedDistMax), kPackedCountMax));
  EXPECT_EQ(f.hub, kPackedHubMax);
  EXPECT_EQ(f.dist, kPackedDistMax);
  EXPECT_EQ(f.count, kPackedCountMax);
}

TEST(LabelCodecTest, SaturatesOutOfRange) {
  // A count beyond 29 bits saturates instead of corrupting neighbors.
  const PackedLabelFields f =
      UnpackLabel(PackLabel(1, 1, kPackedCountMax + 12345));
  EXPECT_EQ(f.hub, 1u);
  EXPECT_EQ(f.dist, 1u);
  EXPECT_EQ(f.count, kPackedCountMax);
}

TEST(LabelCodecTest, FitsPacked) {
  EXPECT_TRUE(FitsPacked(0, 0, 1));
  EXPECT_TRUE(FitsPacked(static_cast<Rank>(kPackedHubMax),
                         static_cast<Distance>(kPackedDistMax),
                         kPackedCountMax));
  EXPECT_FALSE(FitsPacked(static_cast<Rank>(kPackedHubMax + 1), 0, 1));
  EXPECT_FALSE(FitsPacked(0, static_cast<Distance>(kPackedDistMax + 1), 1));
  EXPECT_FALSE(FitsPacked(0, 0, kPackedCountMax + 1));
}

TEST(LabelCodecTest, ZeroFieldsDistinct) {
  // Different fields land in different bit ranges.
  EXPECT_NE(PackLabel(1, 0, 0), PackLabel(0, 1, 0));
  EXPECT_NE(PackLabel(0, 1, 0), PackLabel(0, 0, 1));
}

TEST(LabelCodecTest, FitsFlatInlineReservesOverflowMark) {
  // The flat arena reserves dist == kPackedDistMax as the overflow
  // marker, so the inline predicate is strictly tighter than FitsPacked
  // on exactly that boundary.
  EXPECT_TRUE(FitsFlatInline(0, 0, 1));
  EXPECT_TRUE(FitsFlatInline(static_cast<Rank>(kPackedHubMax),
                             static_cast<Distance>(kPackedDistMax - 1),
                             kPackedCountMax));
  EXPECT_FALSE(FitsFlatInline(0, static_cast<Distance>(kPackedDistMax), 1));
  EXPECT_TRUE(FitsPacked(0, static_cast<Distance>(kPackedDistMax), 1));
  EXPECT_FALSE(FitsFlatInline(static_cast<Rank>(kPackedHubMax + 1), 0, 1));
  EXPECT_FALSE(FitsFlatInline(0, 0, kPackedCountMax + 1));
}

TEST(LabelCodecTest, FlatOverflowRefRoundTrip) {
  const Rank hub = static_cast<Rank>(kPackedHubMax - 3);
  const uint64_t slot = kPackedCountMax - 7;
  const uint64_t word = PackFlatOverflowRef(hub, slot);
  EXPECT_TRUE(IsFlatOverflowRef(word));
  EXPECT_EQ(FlatHub(word), hub);
  EXPECT_EQ(FlatOverflowSlot(word), slot);
  // Any inline-packable word is not mistaken for an overflow reference,
  // and its hub decodes through the same accessor.
  const uint64_t inline_word =
      PackLabel(42, static_cast<Distance>(kPackedDistMax - 1), 9);
  EXPECT_FALSE(IsFlatOverflowRef(inline_word));
  EXPECT_EQ(FlatHub(inline_word), 42u);
}

// --- Binary I/O ----------------------------------------------------------------

TEST(Crc32Test, KnownVector) {
  // CRC32("123456789") = 0xCBF43926 (IEEE).
  const char data[] = "123456789";
  EXPECT_EQ(Crc32(data, 9), 0xCBF43926u);
}

TEST(Crc32Test, EmptyIsZero) { EXPECT_EQ(Crc32(nullptr, 0), 0u); }

TEST(BinaryIoTest, WriterReaderRoundTrip) {
  const std::string path = ::testing::TempDir() + "/dspc_binio_test.bin";
  BinaryWriter w;
  w.PutU8(7);
  w.PutU32(0xDEADBEEF);
  w.PutU64(0x0123456789ABCDEFULL);
  w.PutString("hub labeling");
  ASSERT_TRUE(w.WriteToFile(path).ok());

  BinaryReader r({});
  ASSERT_TRUE(BinaryReader::ReadFromFile(path, &r).ok());
  EXPECT_EQ(r.GetU8(), 7u);
  EXPECT_EQ(r.GetU32(), 0xDEADBEEFu);
  EXPECT_EQ(r.GetU64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.GetString(), "hub labeling");
  EXPECT_TRUE(r.AtEnd());
  std::remove(path.c_str());
}

TEST(BinaryIoTest, CorruptionDetected) {
  const std::string path = ::testing::TempDir() + "/dspc_binio_corrupt.bin";
  BinaryWriter w;
  w.PutU64(42);
  ASSERT_TRUE(w.WriteToFile(path).ok());
  // Flip one payload byte on disk.
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_SET);
  std::fputc(0xFF, f);
  std::fclose(f);
  BinaryReader r({});
  const Status s = BinaryReader::ReadFromFile(path, &r);
  EXPECT_TRUE(s.IsCorruption());
  std::remove(path.c_str());
}

TEST(BinaryIoTest, MissingFileIsIOError) {
  BinaryReader r({});
  EXPECT_TRUE(
      BinaryReader::ReadFromFile("/nonexistent/definitely_absent", &r)
          .IsIOError());
}

TEST(BinaryIoTest, OverrunFlagsFailure) {
  BinaryReader r(std::vector<uint8_t>{1, 2});
  r.GetU32();  // needs 4 bytes, only 2 present
  EXPECT_FALSE(r.status().ok());
  EXPECT_FALSE(r.AtEnd());
}

// --- ThreadPool -------------------------------------------------------------

TEST(ThreadPoolTest, ParallelForVisitsEveryIndexExactlyOnce) {
  for (const unsigned threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.size(), threads);
    for (const size_t n : {size_t{0}, size_t{1}, size_t{3}, size_t{1000}}) {
      std::vector<std::atomic<int>> hits(n);
      pool.ParallelFor(n, [&](size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
      });
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(hits[i].load(), 1) << "threads=" << threads << " i=" << i;
      }
    }
  }
}

TEST(ThreadPoolTest, RegionsReuseWorkersBackToBack) {
  ThreadPool pool(3);
  std::atomic<size_t> total{0};
  for (int region = 0; region < 50; ++region) {
    pool.ParallelFor(17, [&](size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), 50u * 17u);
}

TEST(ThreadPoolTest, ExceptionDrainsRegionAndRethrows) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.ParallelFor(1000,
                                [&](size_t i) {
                                  if (i == 3) throw std::runtime_error("boom");
                                }),
               std::runtime_error);
  // The rendezvous completed and the pool stays usable afterwards.
  std::atomic<size_t> after{0};
  pool.ParallelFor(64, [&](size_t) {
    after.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(after.load(), 64u);
}

}  // namespace
}  // namespace dspc
