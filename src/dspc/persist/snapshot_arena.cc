#include "dspc/persist/snapshot_arena.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstring>
#include <type_traits>
#include <vector>

#include "dspc/common/binary_io.h"
#include "dspc/common/label_codec.h"
#include "dspc/core/spc_index.h"

namespace dspc {

namespace {

// The arena views label words and edges straight out of the image, so the
// on-disk byte layout must BE the in-memory layout: LabelEntry is a u32
// hub / u32 dist / u64 count triple and Edge a u32 pair, both with no
// padding, and the format is little-endian like every other file this
// repo writes.
static_assert(sizeof(LabelEntry) == 16);
static_assert(offsetof(LabelEntry, hub) == 0);
static_assert(offsetof(LabelEntry, dist) == 4);
static_assert(offsetof(LabelEntry, count) == 8);
static_assert(std::is_trivially_copyable_v<LabelEntry>);
static_assert(sizeof(Edge) == 8 && offsetof(Edge, v) == 4);
static_assert(std::is_trivially_copyable_v<Edge>);

/// One section descriptor in the header: placement plus a CRC32C over
/// exactly [offset, offset + length) of the file.
struct ArenaSection {
  uint64_t offset = 0;
  uint64_t length = 0;
  uint32_t crc = 0;
  uint32_t reserved = 0;
};

/// Fixed section order; every image has all five. A wide image's entries
/// section holds 16-byte LabelEntry records instead of packed words, and
/// its overflow section is empty. Only a checkpoint has edges.
enum : uint32_t {
  kSecRanks = 0,
  kSecOffsets = 1,
  kSecEntries = 2,
  kSecOverflow = 3,
  kSecEdges = 4,
  kNumSections = 5,
};

inline constexpr uint32_t kFlagWide = 1u << 0;

/// The fixed-size header at file offset 0, occupying the first page
/// alone. header_crc covers every preceding byte; the trailing struct
/// padding and the rest of the page are written (and verified) zero.
struct ArenaHeader {
  uint32_t magic = 0;
  uint32_t version = 0;
  uint64_t generation = 0;
  uint64_t wal_seq = 0;
  uint64_t num_vertices = 0;
  uint32_t flags = 0;
  uint32_t section_count = 0;
  ArenaSection sections[kNumSections];
  uint32_t header_crc = 0;
};
static_assert(sizeof(ArenaSection) == 24);
static_assert(offsetof(ArenaHeader, sections) == 40);
static_assert(offsetof(ArenaHeader, header_crc) == 160);
static_assert(sizeof(ArenaHeader) == 168);
static_assert(std::is_trivially_copyable_v<ArenaHeader>);

uint64_t AlignUp(uint64_t v) {
  return (v + kSnapshotArenaAlign - 1) & ~(kSnapshotArenaAlign - 1);
}

[[gnu::cold]] Status ArenaCorruption(const std::string& what,
                                     const std::string& context) {
  return Status::Corruption("snapshot arena " + context + ": " + what);
}

template <typename T>
void Put(uint8_t* at, const T& v) {
  std::memcpy(at, &v, sizeof(T));
}

}  // namespace

Status EncodeSnapshotArena(const FlatSpcIndex& index,
                           std::span<const Edge> edges, uint64_t generation,
                           uint64_t wal_seq, std::vector<uint8_t>* out) {
  if constexpr (std::endian::native != std::endian::little) {
    return Status::NotSupported("snapshot arenas require a little-endian host");
  }
  const uint64_t n = index.NumVertices();
  const uint64_t total = index.TotalEntries();
  const uint64_t overflow = index.OverflowEntries();
  // Overflow slots are shard-local in memory but global in the image; if
  // the summed side tables outgrow the 29-bit slot field (possible only
  // past ~2^29 overflow entries, where the monolithic builder would have
  // gone wide), write the wide image instead of wrapping slots.
  const bool wide = index.wide_mode() || overflow > kPackedCountMax;

  ArenaHeader h;
  h.magic = kSnapshotArenaMagic;
  h.version = kSnapshotArenaVersion;
  h.generation = generation;
  h.wal_seq = wal_seq;
  h.num_vertices = n;
  h.flags = wide ? kFlagWide : 0;
  h.section_count = kNumSections;
  const uint64_t section_lens[kNumSections] = {
      n * sizeof(Rank), (n + 1) * sizeof(uint64_t),
      total * (wide ? sizeof(LabelEntry) : sizeof(uint64_t)),
      wide ? 0 : overflow * sizeof(LabelEntry), edges.size_bytes()};
  uint64_t cursor = kSnapshotArenaAlign;  // header owns the first page
  for (uint32_t i = 0; i < kNumSections; ++i) {
    cursor = AlignUp(cursor);
    h.sections[i].offset = cursor;
    h.sections[i].length = section_lens[i];
    cursor += section_lens[i];
  }

  // Zero-filled, so the header-page tail and the inter-section padding
  // are already in their canonical form; the sections are filled below.
  const size_t start = out->size();
  out->resize(start + cursor);
  uint8_t* base = out->data() + start;
  uint8_t* ranks = base + h.sections[kSecRanks].offset;
  uint8_t* offsets = base + h.sections[kSecOffsets].offset;
  uint8_t* entries = base + h.sections[kSecEntries].offset;
  uint8_t* side = wide ? nullptr : base + h.sections[kSecOverflow].offset;

  // Flatten the shards: global CSR offsets, and overflow slots rebased
  // onto one side table (or every entry decoded, for a wide image).
  uint64_t off = 0;
  uint64_t overflow_base = 0;
  for (size_t s = 0; s < index.NumShards(); ++s) {
    const FlatSpcIndex::ArenaView sh = index.ShardArenaView(s);
    const uint64_t begin = index.ShardBegin(s);
    const uint64_t count = sh.offsets[sh.num_vertices];
    std::memcpy(ranks + begin * sizeof(Rank), sh.rank_of,
                sh.num_vertices * sizeof(Rank));
    for (size_t lv = 0; lv < sh.num_vertices; ++lv) {
      Put(offsets + (begin + lv + 1) * sizeof(uint64_t),
          off + sh.offsets[lv + 1]);
    }
    if (index.wide_mode()) {
      std::memcpy(entries + off * sizeof(LabelEntry), sh.wide_entries,
                  count * sizeof(LabelEntry));
    } else if (wide) {
      for (uint64_t i = 0; i < count; ++i) {
        LabelEntry e;
        e.hub = FlatHub(sh.entries[i]);
        DecodeFlatWord(sh.entries[i], sh.overflow, &e.dist, &e.count);
        Put(entries + (off + i) * sizeof(LabelEntry), e);
      }
    } else if (sh.overflow_count == 0) {
      // No slots to rebase: the shard copies at memory speed.
      std::memcpy(entries + off * sizeof(uint64_t), sh.entries,
                  count * sizeof(uint64_t));
    } else {
      for (uint64_t i = 0; i < count; ++i) {
        uint64_t word = sh.entries[i];
        if (IsFlatOverflowRef(word)) {
          word = PackFlatOverflowRef(FlatHub(word),
                                     overflow_base + FlatOverflowSlot(word));
        }
        Put(entries + (off + i) * sizeof(uint64_t), word);
      }
      std::memcpy(side + overflow_base * sizeof(LabelEntry), sh.overflow,
                  sh.overflow_count * sizeof(LabelEntry));
    }
    off += count;
    overflow_base += sh.overflow_count;
  }
  if (!edges.empty()) {
    std::memcpy(base + h.sections[kSecEdges].offset, edges.data(),
                edges.size_bytes());
  }

  for (uint32_t i = 0; i < kNumSections; ++i) {
    h.sections[i].crc = Crc32c(base + h.sections[i].offset, section_lens[i]);
  }
  h.header_crc = Crc32c(&h, offsetof(ArenaHeader, header_crc));
  Put(base, h);
  return Status::OK();
}

Status WriteSnapshotArena(FileSystem* fs, const std::string& path,
                          const FlatSpcIndex& index,
                          std::span<const Edge> edges, uint64_t generation,
                          uint64_t wal_seq) {
  std::vector<uint8_t> image;
  if (Status st =
          EncodeSnapshotArena(index, edges, generation, wal_seq, &image);
      !st.ok()) {
    return st;
  }
  auto file = fs->NewWritableFile(path);
  if (!file.ok()) return file.status();
  WritableFile* f = file->get();
  if (Status st = f->Append(image.data(), image.size()); !st.ok()) return st;
  if (Status st = f->Sync(); !st.ok()) return st;
  return f->Close();
}

StatusOr<MappedArena> MappedArena::Map(FileSystem* fs,
                                       const std::string& path) {
  auto mapped = fs->MapReadOnly(path);
  if (!mapped.ok()) return mapped.status();
  std::shared_ptr<const MappedRegion> region = std::move(*mapped);
  const uint8_t* base = region->data();
  const uint64_t size = region->size();
  return FromBytes(base, size, std::move(region), path);
}

StatusOr<MappedArena> MappedArena::FromBytes(
    const uint8_t* base, uint64_t size, std::shared_ptr<const void> backing,
    const std::string& context) {
  if constexpr (std::endian::native != std::endian::little) {
    return Status::NotSupported("snapshot arenas require a little-endian host");
  }
  // Every check below runs before any byte is trusted, and length checks
  // run before the bytes they gate are dereferenced — a truncated or
  // flipped image fails with a typed Status instead of faulting. The
  // sections sit at page multiples from `base`, so an 8-byte aligned
  // base aligns every viewed array.
  if (reinterpret_cast<uintptr_t>(base) % alignof(LabelEntry) != 0) {
    return ArenaCorruption("image not 8-byte aligned", context);
  }
  if (size < sizeof(ArenaHeader)) {
    return ArenaCorruption("short image (" + std::to_string(size) + " bytes)",
                           context);
  }
  ArenaHeader h;
  std::memcpy(&h, base, sizeof(h));
  if (h.magic != kSnapshotArenaMagic) {
    return ArenaCorruption("bad magic", context);
  }
  if (h.version != kSnapshotArenaVersion) {
    return ArenaCorruption("unsupported version " + std::to_string(h.version),
                           context);
  }
  if (Crc32c(base, offsetof(ArenaHeader, header_crc)) != h.header_crc) {
    return ArenaCorruption("header checksum mismatch", context);
  }
  const bool wide = (h.flags & kFlagWide) != 0;
  if ((h.flags & ~kFlagWide) != 0) {
    return ArenaCorruption("bad flags", context);
  }
  if (h.section_count != kNumSections) {
    return ArenaCorruption("bad section count", context);
  }
  const uint64_t n = h.num_vertices;
  if (n > (uint64_t{1} << 40)) {
    return ArenaCorruption("absurd vertex count", context);
  }

  // The layout is canonical — each section at the next page boundary —
  // so placement is fully determined by the lengths; verifying it pins
  // every padding byte to a known range (checked zero below).
  uint64_t cursor = kSnapshotArenaAlign;
  for (uint32_t i = 0; i < kNumSections; ++i) {
    const ArenaSection& s = h.sections[i];
    cursor = AlignUp(cursor);
    if (s.offset != cursor) {
      return ArenaCorruption("bad section offset", context);
    }
    if (s.length > size || s.offset > size - s.length) {
      return ArenaCorruption("section exceeds image", context);
    }
    cursor += s.length;
  }
  if (cursor != size) return ArenaCorruption("bad image length", context);
  if (h.sections[kSecRanks].length != n * sizeof(Rank)) {
    return ArenaCorruption("bad rank section length", context);
  }
  if (h.sections[kSecOffsets].length != (n + 1) * sizeof(uint64_t)) {
    return ArenaCorruption("bad offsets section length", context);
  }
  if (h.sections[kSecEdges].length % sizeof(Edge) != 0) {
    return ArenaCorruption("bad edge section length", context);
  }

  // All padding (header-page tail + inter-section gaps) must be zero:
  // with the CRCs this makes every byte of the image checked, so the
  // corruption sweep cannot find a flippable bit that goes unnoticed.
  auto zeros = [&](uint64_t from, uint64_t to) {
    for (uint64_t i = from; i < to; ++i) {
      if (base[i] != 0) return false;
    }
    return true;
  };
  uint64_t checked = offsetof(ArenaHeader, header_crc) + sizeof(uint32_t);
  for (uint32_t i = 0; i < kNumSections; ++i) {
    if (!zeros(checked, h.sections[i].offset)) {
      return ArenaCorruption("nonzero padding", context);
    }
    checked = h.sections[i].offset + h.sections[i].length;
  }

  for (uint32_t i = 0; i < kNumSections; ++i) {
    const ArenaSection& s = h.sections[i];
    if (Crc32c(base + s.offset, s.length) != s.crc) {
      return ArenaCorruption("section " + std::to_string(i) +
                                 " checksum mismatch",
                             context);
    }
  }

  // Only now (offsets CRC-verified) is offsets[n] trustworthy enough to
  // size the entry sections against.
  FlatSpcIndex::ArenaView view;
  view.num_vertices = n;
  view.wide = wide;
  view.generation = h.generation;
  view.rank_of =
      reinterpret_cast<const Rank*>(base + h.sections[kSecRanks].offset);
  view.offsets = reinterpret_cast<const uint64_t*>(
      base + h.sections[kSecOffsets].offset);
  const uint64_t total = view.offsets[n];
  const uint64_t want_entries = total * (wide ? sizeof(LabelEntry) : 8);
  if (h.sections[kSecEntries].length != want_entries) {
    return ArenaCorruption("entries/offsets length mismatch", context);
  }
  if (wide) {
    view.wide_entries = reinterpret_cast<const LabelEntry*>(
        base + h.sections[kSecEntries].offset);
    if (h.sections[kSecOverflow].length != 0) {
      return ArenaCorruption("wide image with an overflow section", context);
    }
  } else {
    view.entries = reinterpret_cast<const uint64_t*>(
        base + h.sections[kSecEntries].offset);
    if (h.sections[kSecOverflow].length % sizeof(LabelEntry) != 0) {
      return ArenaCorruption("bad overflow section length", context);
    }
    view.overflow = reinterpret_cast<const LabelEntry*>(
        base + h.sections[kSecOverflow].offset);
    view.overflow_count = h.sections[kSecOverflow].length / sizeof(LabelEntry);
  }
  const std::span<const Edge> edges(
      reinterpret_cast<const Edge*>(base + h.sections[kSecEdges].offset),
      h.sections[kSecEdges].length / sizeof(Edge));
  for (const Edge& e : edges) {
    if (e.u >= n || e.v >= n) {
      return ArenaCorruption("edge endpoint out of range", context);
    }
  }
  view.backing = std::move(backing);

  auto flat = FlatSpcIndex::FromArenaView(std::move(view));
  if (!flat.ok()) {
    return ArenaCorruption(flat.status().message(), context);
  }
  MappedArena out;
  out.snapshot_ = std::make_shared<const FlatSpcIndex>(std::move(*flat));
  out.generation_ = h.generation;
  out.wal_seq_ = h.wal_seq;
  out.file_bytes_ = size;
  out.edges_ = edges;
  return out;
}

}  // namespace dspc
