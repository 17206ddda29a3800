// Read admission: the consistency lattice (DESIGN.md §9), decided once.
//
// SpcService (the primary), ReplicaService and MappedReaderService each
// gather what they can see into a ReadView and ask AdmitRead, a pure
// function, which source serves a read. The caller keeps every side
// effect (loads, pins, budget charging, I/O, metrics, status strings);
// AdmitRead does no I/O, takes no locks and builds no strings, and is
// header-inline because it sits on every query.

#ifndef DSPC_API_READ_ADMISSION_H_
#define DSPC_API_READ_ADMISSION_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>

#include "dspc/common/status.h"
#include "dspc/common/types.h"
#include "dspc/core/flat_spc_index.h"

namespace dspc {

/// The freshness contract of one read (DESIGN.md §9 has the lattice and
/// what each serving process supplies to it).
///
/// kSnapshot requires a published snapshot to exist: under kBackground
/// one is published eagerly at construction, but under kSync/kManual the
/// first publish happens only when other traffic causes it (a
/// budget-crossing kFresh read under kSync, or an explicit refresh), so
/// a pure-kSnapshot client should call WaitForSnapshot({Generation()})
/// once to warm the serving path — until then kSnapshot reads return
/// kUnavailable.
enum class Consistency : unsigned char {
  kFresh,             ///< reflects all updates admitted before the read
  kSnapshot,          ///< pinned published snapshot; never blocks
  kBoundedStaleness,  ///< snapshot while within max_lag, else live index
};

/// Sentinel for ReadOptions::timeout and WaitForSnapshot: no deadline —
/// block as long as it takes (any negative duration means the same).
inline constexpr std::chrono::nanoseconds kNoTimeout{-1};

/// Per-read options. Aggregate-initializable:
///   service.Query(s, t, {.consistency = Consistency::kSnapshot});
struct ReadOptions {
  Consistency consistency = Consistency::kFresh;

  /// kBoundedStaleness: how many generations the served source may
  /// trail the tip (the serving process's generation; on a replica the
  /// primary's durable generation, on a mapped reader the publisher's).
  /// 0 demands a current source.
  uint64_t max_lag = 0;

  /// Read-your-writes floor: the answer must reflect at least this
  /// structural generation (normally a WriteToken::generation from a
  /// prior update on this service). 0 = no floor.
  uint64_t min_generation = 0;

  /// Worker threads for batch reads (0 = hardware concurrency). Ignored
  /// by single queries.
  unsigned threads = 0;

  /// Per-call deadline, as a timeout relative to admission. Bounds the
  /// only blocking edge a read has: waiting for the live-index lock
  /// behind an in-flight writer (kFresh always; kBoundedStaleness when
  /// it escalates). A read that cannot acquire the lock by the deadline
  /// returns kDeadlineExceeded instead of blocking; 0 degrades to a pure
  /// try-lock (still serves when no writer holds the lock).
  /// Snapshot-served reads never block, so the timeout never fails them.
  /// A timed read also never performs snapshot maintenance: under
  /// RefreshPolicy::kSync it takes the free pin instead of the
  /// budget-charging acquire (whose inline rebuild waits unbounded on
  /// the writer lock), leaving the rebuild to the next untimed read.
  /// kNoTimeout (the default, or any negative value) = no deadline.
  std::chrono::nanoseconds timeout = kNoTimeout;
};

/// Which serving path answered a read.
enum class ServedFrom : unsigned char {
  kSnapshot,   ///< immutable published FlatSpcIndex snapshot
  kLiveIndex,  ///< mutable index under the engine's shared lock
};

/// ReadView::token_ceiling of a process that cannot bound the tokens it
/// is handed (a replica or mapped reader: the primary mints them).
inline constexpr uint64_t kNoTokenCeiling =
    std::numeric_limits<uint64_t>::max();

/// What the admission rule reads about the serving process, gathered by
/// the caller. The table in DESIGN.md §9 lists each process's values.
struct ReadView {
  /// The generation staleness is measured against.
  uint64_t tip = 0;
  /// The highest generation a token could name.
  uint64_t token_ceiling = kNoTokenCeiling;
  /// The live index's generation; none without a live index.
  std::optional<uint64_t> live;
  /// The candidate snapshot's generation; none when nothing is published
  /// or it predates a vertex the request names.
  std::optional<uint64_t> snapshot;
};

/// AdmitRead's verdict. `code` is kOk when the read is served from
/// `served_from` at `generation`, which trails the tip by `staleness`;
/// otherwise it is the refusal and the other fields are unset.
struct ReadDecision {
  Status::Code code = Status::Code::kOk;
  ServedFrom served_from = ServedFrom::kSnapshot;
  uint64_t generation = 0;
  uint64_t staleness = 0;

  bool ok() const { return code == Status::Code::kOk; }
};

/// Steps 1–2 of AdmitRead's rule: the refusals no snapshot can lift
/// (kOk when the read may go on). A caller whose snapshot lookup has
/// side effects — SpcService's pin charges the refresh budget — runs
/// this first; AdmitRead repeats it.
constexpr Status::Code PrecheckRead(const ReadOptions& options,
                                    const ReadView& view) {
  if (options.min_generation > view.token_ceiling) {
    return Status::Code::kInvalidArgument;
  }
  if (options.consistency == Consistency::kFresh && !view.live) {
    return Status::Code::kNotSupported;
  }
  return Status::Code::kOk;
}

/// The rule, in order:
///   1. min_generation > token_ceiling → kInvalidArgument;
///   2. kFresh without a live index (a mapped reader) → kNotSupported;
///   3. floor = max(min_generation, m), m = the live generation for
///      kFresh, 0 for kSnapshot, tip − max_lag (saturating) for
///      kBoundedStaleness;
///   4. serve the snapshot if its generation ≥ floor;
///   5. else, unless kSnapshot, serve live if its generation ≥ floor;
///   6. else kUnavailable.
/// staleness = tip − served generation, saturating.
constexpr ReadDecision AdmitRead(const ReadOptions& options,
                                 const ReadView& view) {
  if (const Status::Code code = PrecheckRead(options, view);
      code != Status::Code::kOk) [[unlikely]] {
    return {.code = code};
  }
  uint64_t mode_floor = 0;
  if (options.consistency == Consistency::kFresh) {
    mode_floor = *view.live;
  } else if (options.consistency == Consistency::kBoundedStaleness) {
    mode_floor = view.tip > options.max_lag ? view.tip - options.max_lag : 0;
  }
  const uint64_t floor = std::max(options.min_generation, mode_floor);
  const auto serve = [&view](ServedFrom from, uint64_t generation) {
    return ReadDecision{
        .served_from = from,
        .generation = generation,
        .staleness = view.tip > generation ? view.tip - generation : 0};
  };
  if (view.snapshot && *view.snapshot >= floor) {
    return serve(ServedFrom::kSnapshot, *view.snapshot);
  }
  if (options.consistency != Consistency::kSnapshot && view.live &&
      *view.live >= floor) {
    return serve(ServedFrom::kLiveIndex, *view.live);
  }
  return {.code = Status::Code::kUnavailable};
}

/// The Status for a refused decision with code `code`, naming the inputs
/// that refused it. Cold and out of line: refusals build strings, served
/// reads never do.
[[gnu::cold, gnu::noinline]] Status RefuseRead(const ReadOptions& options,
                                               const ReadView& view,
                                               Status::Code code);

/// ValidatePairs' cold failure path: pair `i` has an endpoint >= n.
[[gnu::cold, gnu::noinline]] Status BadPair(std::span<const VertexPair> pairs,
                                            size_t i, size_t n);

/// The request validation every read surface shares: OK when every
/// endpoint of `pairs` is a vertex id in [0, n), else kInvalidArgument
/// naming the first offender — "pair i: source vertex id v outside
/// [0, n)", without the "pair 0: " prefix for a single pair.
/// Header-inline: it runs on every query.
inline Status ValidatePairs(std::span<const VertexPair> pairs, size_t n) {
  for (size_t i = 0; i < pairs.size(); ++i) {
    if (static_cast<size_t>(pairs[i].first) >= n ||
        static_cast<size_t>(pairs[i].second) >= n) [[unlikely]] {
      return BadPair(pairs, i, n);
    }
  }
  return Status::OK();
}

}  // namespace dspc

#endif  // DSPC_API_READ_ADMISSION_H_
