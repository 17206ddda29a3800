// Per-update instrumentation shared by IncSPC and DecSPC. The counters
// feed Figures 8/9 (label-change accounting) and Table 5 (affected-set
// sizes) directly. WriteReport is the per-update outcome record that
// batch admission threads back to callers (DESIGN.md §10).

#ifndef DSPC_CORE_UPDATE_STATS_H_
#define DSPC_CORE_UPDATE_STATS_H_

#include <cstddef>
#include <cstdint>

namespace dspc {

/// Counters collected during one index update.
struct UpdateStats {
  // Label-change accounting (Figures 8 and 9).
  size_t renew_count = 0;  ///< RenewC: only the count element changed
  size_t renew_dist = 0;   ///< RenewD: the distance element changed
  size_t inserted = 0;     ///< newly inserted label entries
  size_t removed = 0;      ///< removed label entries (decremental only)

  // Search-size accounting.
  size_t affected_hubs = 0;    ///< |AFF| (inc) or |SR| (dec)
  size_t visited_vertices = 0; ///< total vertices popped across all BFSs

  // Affected-set sizes (Table 5; decremental only). By the paper's
  // convention sr_a holds the larger of the two SR sides.
  size_t sr_a = 0;
  size_t sr_b = 0;
  size_t r_a = 0;
  size_t r_b = 0;

  /// True when the §3.2.3 isolated-vertex fast path handled the deletion.
  bool used_isolated_vertex_opt = false;

  /// True if the update actually changed the graph (false for inserting an
  /// existing edge / deleting a missing one — those are no-ops).
  bool applied = false;

  friend bool operator==(const UpdateStats&, const UpdateStats&) = default;

  /// Total number of label entries touched in any way.
  size_t TotalChanges() const {
    return renew_count + renew_dist + inserted + removed;
  }

  /// Merges counters from another update (for vertex deletion, which runs
  /// one decremental update per incident edge).
  void Accumulate(const UpdateStats& other) {
    renew_count += other.renew_count;
    renew_dist += other.renew_dist;
    inserted += other.inserted;
    removed += other.removed;
    affected_hubs += other.affected_hubs;
    visited_vertices += other.visited_vertices;
    sr_a += other.sr_a;
    sr_b += other.sr_b;
    r_a += other.r_a;
    r_b += other.r_b;
    used_isolated_vertex_opt |= other.used_isolated_vertex_opt;
    applied |= other.applied;
  }
};

/// The outcome of one update inside a batch — one entry per input update,
/// in input order, so a caller of a 1000-update batch can tell which
/// updates changed the index, which were legal no-ops, and which failed
/// admission, instead of receiving one folded UpdateStats blob.
struct WriteReport {
  enum class Outcome : unsigned char {
    kApplied,   ///< changed the graph/index; stats and generation are set
    kNoOp,      ///< legal but changed nothing (e.g. inserting an existing
                ///< edge); the index and generation are untouched
    kRejected,  ///< failed admission (service layer: out-of-range vertex
                ///< id); never reached the index
  };

  Outcome outcome = Outcome::kNoOp;

  /// Static human-readable explanation; never null. "applied" for
  /// kApplied, otherwise why the update did not change the index.
  const char* reason = "";

  /// Structural generation the index reached by applying this update
  /// (read-your-writes floor for exactly this update). 0 unless
  /// outcome == kApplied.
  uint64_t generation = 0;

  /// The engine's per-update counters. Zero unless outcome == kApplied.
  UpdateStats stats;

  bool applied() const { return outcome == Outcome::kApplied; }
};

}  // namespace dspc

#endif  // DSPC_CORE_UPDATE_STATS_H_
