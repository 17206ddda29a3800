// The read-admission rule (api/read_admission.h), tested once for every
// serving process: a sweep of the small domain against invariants written
// independently of the implementation, plus uint64 extremes.

#include "dspc/api/read_admission.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

namespace dspc {
namespace {

constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();

// Admission is constexpr: the hot path folds it into RouteRead.
static_assert(AdmitRead({.consistency = Consistency::kSnapshot},
                        {.tip = 5,
                         .token_ceiling = 5,
                         .live = 5,
                         .snapshot = 3})
                  .staleness == 2);
static_assert(AdmitRead({.consistency = Consistency::kFresh},
                        {.tip = 5,
                         .token_ceiling = kNoTokenCeiling,
                         .live = std::nullopt,
                         .snapshot = 5})
                  .code == Status::Code::kNotSupported);

std::string Describe(const ReadOptions& o, const ReadView& v) {
  auto opt = [](const std::optional<uint64_t>& g) {
    return g ? std::to_string(*g) : std::string("none");
  };
  return "mode=" + std::to_string(static_cast<int>(o.consistency)) +
         " min_generation=" + std::to_string(o.min_generation) +
         " max_lag=" + std::to_string(o.max_lag) +
         " tip=" + std::to_string(v.tip) +
         " ceiling=" + std::to_string(v.token_ceiling) +
         " live=" + opt(v.live) + " snapshot=" + opt(v.snapshot);
}

// Whether a source at `generation` satisfies the read's bounds, stated
// from the mode definitions rather than from the rule's floor.
bool Satisfies(const ReadOptions& o, const ReadView& v, uint64_t generation) {
  if (generation < o.min_generation) return false;
  switch (o.consistency) {
    case Consistency::kFresh:
      return v.live && generation >= *v.live;
    case Consistency::kSnapshot:
      return true;
    case Consistency::kBoundedStaleness:
      return generation >= v.tip || v.tip - generation <= o.max_lag;
  }
  return false;
}

// Checks one decision against the invariants; returns the failure text,
// or empty.
std::string Violation(const ReadOptions& o, const ReadView& v,
                      const ReadDecision& d) {
  const bool snapshot_ok = v.snapshot && Satisfies(o, v, *v.snapshot);
  const bool live_ok = o.consistency != Consistency::kSnapshot && v.live &&
                       Satisfies(o, v, *v.live);
  Status::Code expected = Status::Code::kOk;
  if (o.min_generation > v.token_ceiling) {
    expected = Status::Code::kInvalidArgument;
  } else if (o.consistency == Consistency::kFresh && !v.live) {
    expected = Status::Code::kNotSupported;
  } else if (!snapshot_ok && !live_ok) {
    expected = Status::Code::kUnavailable;
  }
  if (d.code != expected) {
    return "code " + std::to_string(static_cast<int>(d.code)) + ", want " +
           std::to_string(static_cast<int>(expected));
  }
  if (!d.ok()) return "";
  if (d.generation < o.min_generation) return "served below min_generation";
  if (o.consistency == Consistency::kFresh && d.generation < *v.live) {
    return "kFresh served below the live generation";
  }
  if (o.consistency == Consistency::kBoundedStaleness &&
      d.generation < v.tip && v.tip - d.generation > o.max_lag) {
    return "kBoundedStaleness served beyond max_lag of the tip";
  }
  if (o.consistency == Consistency::kSnapshot &&
      d.served_from == ServedFrom::kLiveIndex) {
    return "kSnapshot served live";
  }
  if (snapshot_ok && d.served_from != ServedFrom::kSnapshot) {
    return "an admissible snapshot was passed over";
  }
  const std::optional<uint64_t> source =
      d.served_from == ServedFrom::kSnapshot ? v.snapshot : v.live;
  if (!source || d.generation != *source) {
    return "served generation is not the source's";
  }
  const uint64_t staleness =
      v.tip > d.generation ? v.tip - d.generation : uint64_t{0};
  if (d.staleness != staleness) return "staleness is not tip - served";
  return "";
}

TEST(ReadAdmissionTest, SweepHoldsEveryInvariant) {
  const std::vector<std::optional<uint64_t>> generations = {
      std::nullopt, 0, 1, 2, 3, 4, 5};
  const std::vector<uint64_t> lags = {0, 1, 2, 3, kMax};
  const std::vector<uint64_t> ceilings = {0, 1, 2, 3, 4, 5, kNoTokenCeiling};
  size_t cases = 0;
  size_t served = 0;
  for (const Consistency mode :
       {Consistency::kFresh, Consistency::kSnapshot,
        Consistency::kBoundedStaleness}) {
    for (uint64_t min_generation = 0; min_generation <= 5; ++min_generation) {
      for (const uint64_t max_lag : lags) {
        for (uint64_t tip = 0; tip <= 5; ++tip) {
          for (const uint64_t ceiling : ceilings) {
            for (const auto& live : generations) {
              for (const auto& snapshot : generations) {
                const ReadOptions o{.consistency = mode,
                                    .max_lag = max_lag,
                                    .min_generation = min_generation};
                const ReadView v{.tip = tip,
                                 .token_ceiling = ceiling,
                                 .live = live,
                                 .snapshot = snapshot};
                const ReadDecision d = AdmitRead(o, v);
                const std::string why = Violation(o, v, d);
                ASSERT_TRUE(why.empty()) << why << " at " << Describe(o, v);
                ++cases;
                served += d.ok();
              }
            }
          }
        }
      }
    }
  }
  // The sweep is not vacuous in either direction.
  EXPECT_GT(served, cases / 4);
  EXPECT_LT(served, cases);
}

TEST(ReadAdmissionTest, PrecheckIsTheRulesFirstTwoSteps) {
  // A process without a live index (a mapped reader).
  const ReadView mapped{
      .tip = 4, .token_ceiling = 4, .live = std::nullopt, .snapshot = 4};
  EXPECT_EQ(PrecheckRead({.consistency = Consistency::kSnapshot,
                          .min_generation = 5},
                         mapped),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(PrecheckRead({.consistency = Consistency::kFresh}, mapped),
            Status::Code::kNotSupported);
  EXPECT_EQ(PrecheckRead({.consistency = Consistency::kSnapshot,
                          .min_generation = 4},
                         mapped),
            Status::Code::kOk);
  // The ceiling check comes first.
  EXPECT_EQ(PrecheckRead({.min_generation = 9}, mapped),
            Status::Code::kInvalidArgument);
}

TEST(ReadAdmissionTest, Uint64Extremes) {
  const ReadOptions bounded_any{.consistency = Consistency::kBoundedStaleness,
                                .max_lag = kMax};
  // tip and max_lag at the top: the floor saturates to 0, and staleness
  // spans the whole range without wrapping.
  ReadDecision d = AdmitRead(bounded_any, {.tip = kMax,
                                           .token_ceiling = kNoTokenCeiling,
                                           .live = std::nullopt,
                                           .snapshot = 0});
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d.generation, 0u);
  EXPECT_EQ(d.staleness, kMax);

  // max_lag 0 at the top tip demands the top generation.
  const ReadOptions bounded_zero{.consistency = Consistency::kBoundedStaleness};
  d = AdmitRead(bounded_zero, {.tip = kMax,
                               .token_ceiling = kNoTokenCeiling,
                               .live = kMax - 1,
                               .snapshot = kMax});
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d.served_from, ServedFrom::kSnapshot);
  EXPECT_EQ(d.staleness, 0u);
  d = AdmitRead(bounded_zero, {.tip = kMax,
                               .token_ceiling = kNoTokenCeiling,
                               .live = kMax - 1,
                               .snapshot = std::nullopt});
  EXPECT_EQ(d.code, Status::Code::kUnavailable);

  // min_generation at the top: no ceiling lets it through, and only a
  // source at the top generation serves it.
  const ReadOptions token_max{.min_generation = kMax};
  d = AdmitRead(token_max, {.tip = kMax,
                            .token_ceiling = kNoTokenCeiling,
                            .live = kMax,
                            .snapshot = kMax - 1});
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d.served_from, ServedFrom::kLiveIndex);
  EXPECT_EQ(d.generation, kMax);
  d = AdmitRead(token_max, {.tip = kMax,
                            .token_ceiling = kNoTokenCeiling,
                            .live = kMax - 1,
                            .snapshot = std::nullopt});
  EXPECT_EQ(d.code, Status::Code::kUnavailable);
  d = AdmitRead(token_max, {.tip = kMax - 1,
                            .token_ceiling = kMax - 1,
                            .live = kMax - 1,
                            .snapshot = std::nullopt});
  EXPECT_EQ(d.code, Status::Code::kInvalidArgument);
}

TEST(ReadAdmissionTest, RefusalsNameTheirInputs) {
  const ReadOptions o{.consistency = Consistency::kBoundedStaleness,
                      .max_lag = 2,
                      .min_generation = 7};
  const ReadView v{.tip = 9,
                   .token_ceiling = kNoTokenCeiling,
                   .live = std::nullopt,
                   .snapshot = 6};
  const ReadDecision d = AdmitRead(o, v);
  ASSERT_EQ(d.code, Status::Code::kUnavailable);
  const Status st = RefuseRead(o, v, d.code);
  EXPECT_TRUE(st.IsUnavailable());
  for (const char* part : {"kBoundedStaleness", "min_generation 7",
                           "max_lag 2", "tip 9", "snapshot at generation 6"}) {
    EXPECT_NE(st.message().find(part), std::string::npos)
        << part << " missing from: " << st.message();
  }
}

TEST(ReadAdmissionTest, ValidatePairsNamesTheFirstBadEndpoint) {
  const std::vector<VertexPair> pairs = {{0, 1}, {2, 9}, {8, 0}};
  EXPECT_TRUE(ValidatePairs(std::span(pairs).first(1), 3).ok());
  const Status batch = ValidatePairs(pairs, 3);
  EXPECT_TRUE(batch.IsInvalidArgument());
  EXPECT_EQ(batch.message(), "pair 1: target vertex id 9 outside [0, 3)");
  const Status single = ValidatePairs(std::span(pairs).last(1), 3);
  EXPECT_EQ(single.message(), "source vertex id 8 outside [0, 3)");
}

}  // namespace
}  // namespace dspc
