// The paper's packed label encoding (Section 4.1): each label entry
// (v, d, c) is encoded in a 64-bit integer, with v, d and c taking 25, 10
// and 29 bits respectively. The mutable index uses wide 16-byte entries
// for exactness; this codec defines the word formats of the read-optimized
// FlatSpcIndex arena (DESIGN.md §5), the compact serialization formats,
// and index-size accounting (Table 4).

#ifndef DSPC_COMMON_LABEL_CODEC_H_
#define DSPC_COMMON_LABEL_CODEC_H_

#include <cstdint>

#include "dspc/common/types.h"

namespace dspc {

/// Bit widths of the paper's packed 64-bit label entry.
inline constexpr int kPackedHubBits = 25;
inline constexpr int kPackedDistBits = 10;
inline constexpr int kPackedCountBits = 29;

/// Maximum values representable by each packed field.
inline constexpr uint64_t kPackedHubMax = (1ULL << kPackedHubBits) - 1;
inline constexpr uint64_t kPackedDistMax = (1ULL << kPackedDistBits) - 1;
inline constexpr uint64_t kPackedCountMax = (1ULL << kPackedCountBits) - 1;

/// A decoded packed entry.
struct PackedLabelFields {
  Rank hub;
  Distance dist;
  PathCount count;
};

/// Packs (hub, dist, count) into a 64-bit word, layout [hub|dist|count]
/// from the most significant bits. Values are saturated to their field
/// widths; use FitsPacked() to detect lossy packing beforehand.
uint64_t PackLabel(Rank hub, Distance dist, PathCount count);

/// Reverses PackLabel().
PackedLabelFields UnpackLabel(uint64_t word);

/// True iff the triple can be packed without saturation.
bool FitsPacked(Rank hub, Distance dist, PathCount count);

// --- flat-arena word format (DESIGN.md §5) ---------------------------------
//
// The FlatSpcIndex arena stores one 64-bit word per label entry with the
// hub rank in the top 25 bits, so the merge-scan compares hubs with a
// single shift. Entries whose distance or count overflow their fields are
// stored out-of-line in a wide side table; the arena word then carries the
// overflow marker (dist field all-ones) and the side-table slot in the
// count field. The marker reserves dist == kPackedDistMax, so the inline
// predicate is strictly tighter than FitsPacked(). Every reader of an
// entry's dist/count goes through DecodeFlatWord().

/// Bit position of the hub field in an arena word.
inline constexpr int kFlatHubShift = kPackedDistBits + kPackedCountBits;

/// Distance-field value marking an overflow reference word.
inline constexpr uint64_t kFlatOverflowDistMark = kPackedDistMax;

/// True iff the triple can live inline in an arena word: hub fits its 25
/// bits, dist is strictly below the overflow marker, count fits 29 bits.
bool FitsFlatInline(Rank hub, Distance dist, PathCount count);

/// Encodes an overflow reference: hub inline (must fit 25 bits), dist
/// field all-ones, `slot` (side-table index, must fit 29 bits) in the
/// count field.
uint64_t PackFlatOverflowRef(Rank hub, uint64_t slot);

/// True iff `word` is an overflow reference rather than an inline entry.
inline bool IsFlatOverflowRef(uint64_t word) {
  return ((word >> kPackedCountBits) & kPackedDistMax) == kFlatOverflowDistMark;
}

/// Side-table slot of an overflow reference word.
inline uint64_t FlatOverflowSlot(uint64_t word) {
  return word & kPackedCountMax;
}

/// Hub rank of an arena word (inline or overflow reference).
inline Rank FlatHub(uint64_t word) {
  return static_cast<Rank>(word >> kFlatHubShift);
}

/// Decodes the dist/count of an arena word: its inline fields, or, for an
/// overflow reference, the entry at its slot in the side table `overflow`.
inline void DecodeFlatWord(uint64_t word, const LabelEntry* overflow,
                           Distance* dist, PathCount* count) {
  if (!IsFlatOverflowRef(word)) [[likely]] {
    *dist = static_cast<Distance>((word >> kPackedCountBits) & kPackedDistMax);
    *count = word & kPackedCountMax;
  } else {
    const LabelEntry& e = overflow[FlatOverflowSlot(word)];
    *dist = e.dist;
    *count = e.count;
  }
}

}  // namespace dspc

#endif  // DSPC_COMMON_LABEL_CODEC_H_
