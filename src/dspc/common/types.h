// Core scalar types, and the label triple, shared by every DSPC module.

#ifndef DSPC_COMMON_TYPES_H_
#define DSPC_COMMON_TYPES_H_

#include <cstdint>
#include <limits>

namespace dspc {

/// Vertex identifier. Graphs address vertices as dense ids in [0, n).
using Vertex = uint32_t;

/// Rank of a vertex under the index's frozen total order. Rank 0 is the
/// highest rank; `r1 < r2` means r1 outranks r2 (the paper writes r1 <= r2).
using Rank = uint32_t;

/// Hop distance (unweighted) or accumulated weight (weighted graphs).
using Distance = uint32_t;

/// Shortest-path count. Counts only add and multiply, so all arithmetic is
/// exact modulo 2^64; see README for the overflow discussion.
using PathCount = uint64_t;

/// Edge weight for the weighted extension (Appendix C.2).
using Weight = uint32_t;

inline constexpr Vertex kInvalidVertex = std::numeric_limits<Vertex>::max();
inline constexpr Rank kInvalidRank = std::numeric_limits<Rank>::max();
inline constexpr Distance kInfDistance = std::numeric_limits<Distance>::max();

/// One label triple. `hub` is the hub's rank; `count` is sigma_{hub,v}.
/// The index's label sets hold these; the flat arena stores them packed
/// (label_codec.h) and keeps the ones too large to pack in this form.
struct LabelEntry {
  Rank hub;
  Distance dist;
  PathCount count;

  friend bool operator==(const LabelEntry&, const LabelEntry&) = default;
};

}  // namespace dspc

#endif  // DSPC_COMMON_TYPES_H_
