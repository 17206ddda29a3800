#include "dspc/persist/replication.h"

#include <algorithm>
#include <thread>

#include "dspc/common/binary_io.h"
#include "dspc/persist/framed_file.h"

namespace dspc {

namespace {

std::string Join(const std::string& dir, const std::string& name) {
  return dir + "/" + name;
}

uint32_t LoadLE32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

}  // namespace

// --- ReplayCursor ----------------------------------------------------------

Status ReplayCursor::Feed(WalRecord rec, std::vector<ReplayOp>* out) {
  if (rec.kind != WalRecord::Kind::kCommit) {
    const uint64_t seq = rec.seq;
    if (!pending_.emplace(seq, std::move(rec)).second) {
      return Status::DataLoss("duplicate wal intent seq " +
                              std::to_string(seq));
    }
    return Status::OK();
  }
  auto it = pending_.find(rec.seq);
  if (it == pending_.end()) {
    return Status::DataLoss("wal commit without intent, seq " +
                            std::to_string(rec.seq));
  }
  WalRecord intent = std::move(it->second);
  pending_.erase(it);
  if (rec.outcomes.size() != intent.updates.size()) {
    return Status::DataLoss(
        "wal commit outcome count contradicts its intent, seq " +
        std::to_string(rec.seq));
  }
  ReplayOp op;
  op.kind = intent.kind == WalRecord::Kind::kAddVertex
                ? ReplayOp::Kind::kAddVertex
                : ReplayOp::Kind::kBatch;
  op.base_generation = intent.generation;
  op.end_generation = rec.generation;
  op.vertex = intent.vertex;
  op.updates = std::move(intent.updates);
  op.outcomes = std::move(rec.outcomes);
  return Emit(std::move(op), out);
}

Status ReplayCursor::Emit(ReplayOp op, std::vector<ReplayOp>* out) {
  if (op.end_generation <= start_generation_) {
    ++skipped_;
    return Status::OK();
  }
  if (op.base_generation != generation_) {
    return Status::DataLoss("wal replay chain broken at generation " +
                            std::to_string(op.base_generation) +
                            ", expected " + std::to_string(generation_));
  }
  if (op.end_generation < generation_) {
    return Status::DataLoss("wal commit generations not monotonic");
  }
  generation_ = op.end_generation;
  out->push_back(std::move(op));
  return Status::OK();
}

StatusOr<uint64_t> ParseWalFrameWindow(std::span<const uint8_t> window,
                                       std::vector<WalRecord>* out) {
  uint64_t pos = 0;
  while (window.size() - pos >= kWalRecordOverheadBytes) {
    const uint32_t len = LoadLE32(window.data() + pos);
    const uint32_t crc = LoadLE32(window.data() + pos + 4);
    // An absurd length or a CRC mismatch is indistinguishable from a
    // transport-mangled window from here: stop and let the caller
    // re-fetch (an honest store serves the same bytes again — a mangled
    // fetch resolves, real at-rest damage stalls the tail, loudly, via
    // the caller's retry accounting).
    if (len > kWalMaxRecordBytes) break;
    if (len > window.size() - pos - kWalRecordOverheadBytes) break;
    const uint8_t* payload = window.data() + pos + kWalRecordOverheadBytes;
    if (Crc32c(payload, len) != crc) break;
    WalRecord rec;
    if (Status st = DecodeWalRecord({payload, len}, &rec); !st.ok()) {
      return st;  // CRC-valid but undecodable: damage, not transport
    }
    out->push_back(std::move(rec));
    pos += kWalRecordOverheadBytes + len;
  }
  return pos;
}

// --- ShipState encoding ----------------------------------------------------

namespace {
constexpr uint32_t kShipStateMagic = 0x54535344;  // "DSST"
constexpr uint32_t kShipStateVersion = 1;
}  // namespace

std::vector<uint8_t> EncodeShipState(const ShipState& state) {
  BinaryWriter w;
  w.PutU32(kShipStateMagic);
  w.PutU32(kShipStateVersion);
  w.PutU64(state.checkpoint_generation);
  w.PutU64(state.checkpoint_wal_seq);
  w.PutU64(state.min_wal_seq);
  w.PutU64(state.max_wal_seq);
  w.PutU64(state.durable_generation);
  return w.buffer();
}

Status DecodeShipState(std::span<const uint8_t> bytes, ShipState* out) {
  BinaryReader r(std::vector<uint8_t>(bytes.begin(), bytes.end()));
  if (r.GetU32() != kShipStateMagic) {
    return Status::DataLoss("ship state magic mismatch");
  }
  if (r.GetU32() != kShipStateVersion) {
    return Status::DataLoss("ship state version mismatch");
  }
  ShipState s;
  s.checkpoint_generation = r.GetU64();
  s.checkpoint_wal_seq = r.GetU64();
  s.min_wal_seq = r.GetU64();
  s.max_wal_seq = r.GetU64();
  s.durable_generation = r.GetU64();
  if (!r.AtEnd()) return Status::DataLoss("ship state malformed");
  *out = s;
  return Status::OK();
}

namespace {

bool SameState(const ShipState& a, const ShipState& b) {
  return a.checkpoint_generation == b.checkpoint_generation &&
         a.checkpoint_wal_seq == b.checkpoint_wal_seq &&
         a.min_wal_seq == b.min_wal_seq && a.max_wal_seq == b.max_wal_seq &&
         a.durable_generation == b.durable_generation;
}

}  // namespace

// --- InProcessTransport ----------------------------------------------------

Status InProcessTransport::PutCheckpoint(uint64_t generation,
                                         std::span<const uint8_t> bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  checkpoints_[generation].assign(bytes.begin(), bytes.end());
  return Status::OK();
}

Status InProcessTransport::AppendSegment(uint64_t seq, uint64_t offset,
                                         std::span<const uint8_t> bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<uint8_t>& seg = segments_[seq];
  if (offset > seg.size()) {
    return Status::Unavailable("segment append gap: have " +
                               std::to_string(seg.size()) + " bytes, offset " +
                               std::to_string(offset));
  }
  // Overlap is a re-send of bytes already stored (identical by the
  // transport contract): append only the novel suffix.
  const uint64_t skip = seg.size() - offset;
  if (skip < bytes.size()) {
    seg.insert(seg.end(), bytes.begin() + static_cast<ptrdiff_t>(skip),
               bytes.end());
  }
  return Status::OK();
}

StatusOr<uint64_t> InProcessTransport::SegmentSize(uint64_t seq) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = segments_.find(seq);
  return it == segments_.end() ? 0 : static_cast<uint64_t>(it->second.size());
}

Status InProcessTransport::PublishState(const ShipState& state) {
  std::lock_guard<std::mutex> lock(mu_);
  state_ = state;
  has_state_ = true;
  return Status::OK();
}

Status InProcessTransport::Retire(uint64_t min_checkpoint_generation,
                                  uint64_t min_wal_seq) {
  std::lock_guard<std::mutex> lock(mu_);
  std::erase_if(checkpoints_, [&](const auto& kv) {
    return kv.first < min_checkpoint_generation;
  });
  std::erase_if(segments_,
                [&](const auto& kv) { return kv.first < min_wal_seq; });
  return Status::OK();
}

StatusOr<ShipState> InProcessTransport::FetchState() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!has_state_) return Status::Unavailable("no ship state published yet");
  return state_;
}

Status InProcessTransport::FetchCheckpoint(uint64_t generation,
                                           std::vector<uint8_t>* out) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = checkpoints_.find(generation);
  if (it == checkpoints_.end()) {
    return Status::NotFound("shipped checkpoint absent: generation " +
                            std::to_string(generation));
  }
  *out = it->second;
  return Status::OK();
}

Status InProcessTransport::FetchSegment(uint64_t seq, uint64_t offset,
                                        std::vector<uint8_t>* out) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = segments_.find(seq);
  if (it == segments_.end()) {
    return Status::NotFound("shipped segment absent: seq " +
                            std::to_string(seq));
  }
  out->clear();
  if (offset < it->second.size()) {
    out->assign(it->second.begin() + static_cast<ptrdiff_t>(offset),
                it->second.end());
  }
  return Status::OK();
}

// --- DirectoryTransport ----------------------------------------------------

namespace {

const char* ShipStateFileName() { return "SHIPSTATE"; }

bool ParsePrefixed(const std::string& name, const std::string& prefix,
                   const std::string& suffix, uint64_t* value) {
  if (name.size() <= prefix.size() + suffix.size()) return false;
  if (name.compare(0, prefix.size(), prefix) != 0) return false;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return false;
  }
  uint64_t v = 0;
  for (size_t i = prefix.size(); i < name.size() - suffix.size(); ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  *value = v;
  return true;
}

}  // namespace

DirectoryTransport::DirectoryTransport(FileSystem* fs, std::string dir)
    : fs_(fs), dir_(std::move(dir)) {
  (void)fs_->CreateDir(dir_);
}

std::string DirectoryTransport::SegmentPath(uint64_t seq) const {
  return Join(dir_, "ship-wal-" + std::to_string(seq) + ".log");
}

std::string DirectoryTransport::CheckpointPath(uint64_t generation) const {
  return Join(dir_, "ship-ckpt-" + std::to_string(generation) + ".spc");
}

Status DirectoryTransport::PutCheckpoint(uint64_t generation,
                                         std::span<const uint8_t> bytes) {
  // The bytes ARE a checkpoint file (its arena CRCs included), so no
  // extra trailer — just the atomic-rename dance, which also makes a
  // re-send after a half-written attempt overwrite cleanly.
  const std::string name = "ship-ckpt-" + std::to_string(generation) + ".spc";
  const std::string tmp = Join(dir_, name + ".tmp");
  auto file = fs_->NewWritableFile(tmp);
  if (!file.ok()) return file.status();
  if (Status st = (*file)->Append(bytes.data(), bytes.size()); !st.ok()) {
    return st;
  }
  if (Status st = (*file)->Sync(); !st.ok()) return st;
  if (Status st = (*file)->Close(); !st.ok()) return st;
  if (Status st = fs_->RenameFile(tmp, Join(dir_, name)); !st.ok()) return st;
  return fs_->SyncDir(dir_);
}

Status DirectoryTransport::AppendSegment(uint64_t seq, uint64_t offset,
                                         std::span<const uint8_t> bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = open_segments_.find(seq);
  if (it != open_segments_.end()) {
    OpenSegment& seg = it->second;
    if (offset > seg.size) {
      return Status::Unavailable("segment append gap: have " +
                                 std::to_string(seg.size) + " bytes, offset " +
                                 std::to_string(offset));
    }
    const uint64_t skip = seg.size - offset;
    if (skip >= bytes.size()) return Status::OK();
    if (Status st = seg.file->Append(bytes.data() + skip, bytes.size() - skip);
        !st.ok()) {
      open_segments_.erase(it);  // handle state unknown: rebuild next call
      return st;
    }
    if (Status st = seg.file->Sync(); !st.ok()) {
      open_segments_.erase(it);
      return st;
    }
    seg.size += bytes.size() - skip;
    return Status::OK();
  }

  // No open handle (first touch, or a previous instance's segment). The
  // seam cannot reopen for append, so rebuild the file: read what is
  // stored, splice the novel suffix on (overlap identical by contract),
  // rewrite, and keep the handle for subsequent appends.
  std::vector<uint8_t> content;
  const std::string path = SegmentPath(seq);
  if (fs_->FileExists(path)) {
    if (Status st = fs_->ReadFile(path, &content); !st.ok()) return st;
  }
  if (offset > content.size()) {
    return Status::Unavailable("segment append gap: have " +
                               std::to_string(content.size()) +
                               " bytes, offset " + std::to_string(offset));
  }
  const uint64_t skip = content.size() - offset;
  if (skip < bytes.size()) {
    content.insert(content.end(), bytes.begin() + static_cast<ptrdiff_t>(skip),
                   bytes.end());
  }
  auto file = fs_->NewWritableFile(path);
  if (!file.ok()) return file.status();
  if (Status st = (*file)->Append(content.data(), content.size()); !st.ok()) {
    return st;
  }
  if (Status st = (*file)->Sync(); !st.ok()) return st;
  open_segments_[seq] = OpenSegment{std::move(*file), content.size()};
  return Status::OK();
}

StatusOr<uint64_t> DirectoryTransport::SegmentSize(uint64_t seq) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = open_segments_.find(seq);
  if (it != open_segments_.end()) return it->second.size;
  const std::string path = SegmentPath(seq);
  if (!fs_->FileExists(path)) return uint64_t{0};
  return fs_->FileSize(path);
}

Status DirectoryTransport::PublishState(const ShipState& state) {
  if (Status st = WriteFramedFileAtomic(fs_, dir_, ShipStateFileName(),
                                       EncodeShipState(state));
      !st.ok()) {
    return st;
  }
  return fs_->SyncDir(dir_);
}

Status DirectoryTransport::Retire(uint64_t min_checkpoint_generation,
                                  uint64_t min_wal_seq) {
  auto names = fs_->ListDir(dir_);
  if (!names.ok()) return names.status();
  std::lock_guard<std::mutex> lock(mu_);
  for (const std::string& name : *names) {
    uint64_t v = 0;
    if (ParsePrefixed(name, "ship-ckpt-", ".spc", &v) &&
        v < min_checkpoint_generation) {
      if (Status st = fs_->RemoveFile(Join(dir_, name)); !st.ok()) return st;
    } else if (ParsePrefixed(name, "ship-wal-", ".log", &v) &&
               v < min_wal_seq) {
      auto it = open_segments_.find(v);
      if (it != open_segments_.end()) {
        (void)it->second.file->Close();
        open_segments_.erase(it);
      }
      if (Status st = fs_->RemoveFile(Join(dir_, name)); !st.ok()) return st;
    }
  }
  return Status::OK();
}

StatusOr<ShipState> DirectoryTransport::FetchState() {
  const std::string path = Join(dir_, ShipStateFileName());
  if (!fs_->FileExists(path)) {
    return Status::Unavailable("no ship state published yet");
  }
  BinaryReader r(std::vector<uint8_t>{});
  if (Status st = ReadFramedFile(fs_, path, &r); !st.ok()) return st;
  ShipState s;
  if (Status st = DecodeShipState(std::move(r).Release(), &s); !st.ok()) {
    return st;
  }
  return s;
}

Status DirectoryTransport::FetchCheckpoint(uint64_t generation,
                                           std::vector<uint8_t>* out) {
  const std::string path = CheckpointPath(generation);
  if (!fs_->FileExists(path)) {
    return Status::NotFound("shipped checkpoint absent: generation " +
                            std::to_string(generation));
  }
  return fs_->ReadFile(path, out);
}

Status DirectoryTransport::FetchSegment(uint64_t seq, uint64_t offset,
                                        std::vector<uint8_t>* out) {
  const std::string path = SegmentPath(seq);
  if (!fs_->FileExists(path)) {
    return Status::NotFound("shipped segment absent: seq " +
                            std::to_string(seq));
  }
  std::vector<uint8_t> data;
  if (Status st = fs_->ReadFile(path, &data); !st.ok()) return st;
  out->clear();
  if (offset < data.size()) {
    out->assign(data.begin() + static_cast<ptrdiff_t>(offset), data.end());
  }
  return Status::OK();
}

// --- FaultInjectingTransport -----------------------------------------------

namespace {

/// Ops a kDisconnect takes down beyond the tripping one.
constexpr uint32_t kDisconnectExtraOps = 3;

uint64_t XorShift64(uint64_t x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

}  // namespace

void FaultInjectingTransport::Arm(uint64_t index, TransportFault fault) {
  std::lock_guard<std::mutex> lock(mu_);
  arm_at_ = index;
  armed_fault_ = fault;
  armed_ = true;
  tripped_ = false;
  ops_ = 0;
  disconnected_ops_ = 0;
}

void FaultInjectingTransport::Disarm() {
  std::lock_guard<std::mutex> lock(mu_);
  armed_ = false;
  tripped_ = false;
  ops_ = 0;
  disconnected_ops_ = 0;
  chaos_permille_ = 0;
}

void FaultInjectingTransport::SetChaos(uint64_t seed, uint32_t permille) {
  std::lock_guard<std::mutex> lock(mu_);
  chaos_state_ = seed | 1;
  chaos_permille_ = permille;
}

uint64_t FaultInjectingTransport::OperationCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ops_;
}

bool FaultInjectingTransport::Tripped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tripped_;
}

TransportFault FaultInjectingTransport::Charge() {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t index = ops_++;
  if (disconnected_ops_ > 0) {
    --disconnected_ops_;
    return TransportFault::kDrop;
  }
  if (armed_ && index == arm_at_) {
    armed_ = false;  // one-shot: the fault is transient, not sticky
    tripped_ = true;
    if (armed_fault_ == TransportFault::kDisconnect) {
      disconnected_ops_ = kDisconnectExtraOps;
      return TransportFault::kDrop;
    }
    return armed_fault_;
  }
  if (chaos_permille_ > 0) {
    chaos_state_ = XorShift64(chaos_state_);
    if (chaos_state_ % 1000 < chaos_permille_) {
      static constexpr TransportFault kMenu[] = {
          TransportFault::kDrop,     TransportFault::kDuplicate,
          TransportFault::kTruncate, TransportFault::kDelay,
          TransportFault::kDisconnect,
      };
      const TransportFault f = kMenu[(chaos_state_ >> 32) % 5];
      if (f == TransportFault::kDisconnect) {
        disconnected_ops_ = 2;
        return TransportFault::kDrop;
      }
      return f;
    }
  }
  return TransportFault::kNone;
}

namespace {
Status InjectedUnavailable() {
  return Status::Unavailable("injected transport fault");
}
}  // namespace

Status FaultInjectingTransport::PutCheckpoint(uint64_t generation,
                                              std::span<const uint8_t> bytes) {
  switch (Charge()) {
    case TransportFault::kNone:
      return base_->PutCheckpoint(generation, bytes);
    case TransportFault::kDrop:
    case TransportFault::kDisconnect:
      return InjectedUnavailable();
    case TransportFault::kDuplicate:
      if (Status st = base_->PutCheckpoint(generation, bytes); !st.ok()) {
        return st;
      }
      return base_->PutCheckpoint(generation, bytes);
    case TransportFault::kTruncate:
      // Half the image lands (corrupt at rest until a retry overwrites
      // it); the sender sees failure and retries.
      (void)base_->PutCheckpoint(generation, bytes.first(bytes.size() / 2));
      return InjectedUnavailable();
    case TransportFault::kDelay:
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      return base_->PutCheckpoint(generation, bytes);
  }
  return InjectedUnavailable();
}

Status FaultInjectingTransport::AppendSegment(uint64_t seq, uint64_t offset,
                                              std::span<const uint8_t> bytes) {
  switch (Charge()) {
    case TransportFault::kNone:
      return base_->AppendSegment(seq, offset, bytes);
    case TransportFault::kDrop:
    case TransportFault::kDisconnect:
      return InjectedUnavailable();
    case TransportFault::kDuplicate:
      if (Status st = base_->AppendSegment(seq, offset, bytes); !st.ok()) {
        return st;
      }
      return base_->AppendSegment(seq, offset, bytes);
    case TransportFault::kTruncate:
      (void)base_->AppendSegment(seq, offset, bytes.first(bytes.size() / 2));
      return InjectedUnavailable();
    case TransportFault::kDelay:
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      return base_->AppendSegment(seq, offset, bytes);
  }
  return InjectedUnavailable();
}

StatusOr<uint64_t> FaultInjectingTransport::SegmentSize(uint64_t seq) {
  switch (Charge()) {
    case TransportFault::kNone:
    case TransportFault::kDuplicate:
      return base_->SegmentSize(seq);
    case TransportFault::kDelay:
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      return base_->SegmentSize(seq);
    default:
      return InjectedUnavailable();
  }
}

Status FaultInjectingTransport::PublishState(const ShipState& state) {
  switch (Charge()) {
    case TransportFault::kNone:
      return base_->PublishState(state);
    case TransportFault::kDuplicate:
      if (Status st = base_->PublishState(state); !st.ok()) return st;
      return base_->PublishState(state);
    case TransportFault::kDelay:
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      return base_->PublishState(state);
    default:
      return InjectedUnavailable();
  }
}

Status FaultInjectingTransport::Retire(uint64_t min_checkpoint_generation,
                                       uint64_t min_wal_seq) {
  switch (Charge()) {
    case TransportFault::kNone:
    case TransportFault::kDuplicate:
      return base_->Retire(min_checkpoint_generation, min_wal_seq);
    case TransportFault::kDelay:
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      return base_->Retire(min_checkpoint_generation, min_wal_seq);
    default:
      return InjectedUnavailable();
  }
}

StatusOr<ShipState> FaultInjectingTransport::FetchState() {
  switch (Charge()) {
    case TransportFault::kNone:
    case TransportFault::kDuplicate:
      return base_->FetchState();
    case TransportFault::kDelay:
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      return base_->FetchState();
    default:
      return InjectedUnavailable();
  }
}

Status FaultInjectingTransport::FetchCheckpoint(uint64_t generation,
                                                std::vector<uint8_t>* out) {
  switch (Charge()) {
    case TransportFault::kNone:
    case TransportFault::kDuplicate:
      return base_->FetchCheckpoint(generation, out);
    case TransportFault::kDelay:
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      return base_->FetchCheckpoint(generation, out);
    case TransportFault::kTruncate: {
      // The receiver gets half the image: its checksum rejects it and a
      // re-fetch resolves.
      if (Status st = base_->FetchCheckpoint(generation, out); !st.ok()) {
        return st;
      }
      out->resize(out->size() / 2);
      return Status::OK();
    }
    default:
      return InjectedUnavailable();
  }
}

Status FaultInjectingTransport::FetchSegment(uint64_t seq, uint64_t offset,
                                             std::vector<uint8_t>* out) {
  switch (Charge()) {
    case TransportFault::kNone:
    case TransportFault::kDuplicate:
      return base_->FetchSegment(seq, offset, out);
    case TransportFault::kDelay:
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      return base_->FetchSegment(seq, offset, out);
    case TransportFault::kTruncate: {
      // The receiver gets a short window: frame parsing stops at the cut
      // and the next poll re-fetches the remainder.
      if (Status st = base_->FetchSegment(seq, offset, out); !st.ok()) {
        return st;
      }
      out->resize(out->size() / 2);
      return Status::OK();
    }
    default:
      return InjectedUnavailable();
  }
}

// --- ReplicationBackoff ----------------------------------------------------

std::chrono::microseconds ReplicationBackoff::Next() {
  ++sleeps_;
  rng_ = XorShift64(rng_);
  const int64_t base = current_.count();
  // ±25% jitter so a fleet of retriers decorrelates.
  const int64_t span = std::max<int64_t>(base / 2, 1);
  const int64_t delay =
      base - base / 4 + static_cast<int64_t>(rng_ % static_cast<uint64_t>(span));
  current_ = std::min(current_ * 2, options_.max);
  return std::chrono::microseconds(delay);
}

// --- WalShipper ------------------------------------------------------------

WalShipper::WalShipper(FileSystem* fs, std::string dir, const Options& options)
    : fs_(fs), dir_(std::move(dir)), options_(options) {
  if (options_.retention != nullptr) {
    // Pin everything until the first pass establishes a tail position:
    // wal_seq 0 = keep all segments.
    retention_handle_ =
        options_.retention->RegisterConsumer(CheckpointRef{0, 0});
    retention_registered_ = true;
  }
}

WalShipper::~WalShipper() {
  Stop();
  if (retention_registered_) {
    options_.retention->UnregisterConsumer(retention_handle_);
  }
}

Status WalShipper::ShipOnce() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!health_.ok()) return health_;
  Status st = ShipOnceLocked();
  if (st.IsDataLoss()) health_ = st;  // primary-side damage: fail-stop
  if (st.ok()) {
    if (last_failed_) {
      stat_reconnects_.fetch_add(1, std::memory_order_relaxed);
      if (options_.on_reconnect) options_.on_reconnect();
    }
    last_failed_ = false;
  } else {
    last_failed_ = true;
  }
  return st;
}

Status WalShipper::ShipOnceLocked() {
  if (!fs_->FileExists(Join(dir_, ManifestFileName()))) {
    return Status::Unavailable("nothing to ship: no MANIFEST in " + dir_);
  }
  auto manifest = ReadManifest(fs_, dir_);
  if (!manifest.ok()) return manifest.status();

  if (!have_checkpoint_ || manifest->generation != shipped_checkpoint_gen_) {
    if (Status st =
            ShipCheckpointLocked(manifest->generation, manifest->wal_seq);
        !st.ok()) {
      return st;
    }
  }

  bool progressed = false;
  for (;;) {
    const uint64_t seq = tail_seq_;
    if (!fs_->FileExists(Join(dir_, WalSegmentFileName(seq)))) {
      if (seq < manifest->wal_seq) {
        // The tail fell behind the primary's GC (cannot happen while the
        // retention consumer is honored, but recoverable): restart at
        // the newest checkpoint's replay point. Replicas behind the jump
        // re-bootstrap from that checkpoint.
        tail_seq_ = manifest->wal_seq;
        tail_offset_ = 0;
        continue;
      }
      break;  // the segment at the tip has not been created yet
    }
    const bool rotated =
        fs_->FileExists(Join(dir_, WalSegmentFileName(seq + 1)));
    if (Status st = ShipSegmentLocked(seq, rotated, &progressed); !st.ok()) {
      return st;
    }
    if (tail_seq_ == seq) break;  // did not finish this segment: tip reached
  }

  UpdateRetentionLocked();

  // Retire store artifacts the newest shipped checkpoint covers — but
  // never a segment still being shipped (replicas tailing it would be
  // forced through a pointless re-bootstrap).
  if (have_checkpoint_ && max_shipped_seq_ != 0) {
    const uint64_t retire_seq = std::min(shipped_checkpoint_wal_seq_, tail_seq_);
    if (retire_seq > store_min_wal_seq_ ||
        shipped_checkpoint_gen_ > retired_checkpoint_gen_) {
      if (options_.transport->Retire(shipped_checkpoint_gen_, retire_seq)
              .ok()) {
        retired_checkpoint_gen_ = shipped_checkpoint_gen_;
        store_min_wal_seq_ = std::max(store_min_wal_seq_, retire_seq);
      }
      // A failed retire just leaves garbage in the store; retried next
      // pass, never worth failing the pass over.
    }
  }

  ShipState s;
  s.checkpoint_generation = shipped_checkpoint_gen_;
  s.checkpoint_wal_seq = shipped_checkpoint_wal_seq_;
  s.min_wal_seq = store_min_wal_seq_;
  s.max_wal_seq = max_shipped_seq_;
  s.durable_generation = durable_generation_;
  if (!published_any_ || !SameState(s, published_)) {
    if (Status st = options_.transport->PublishState(s); !st.ok()) return st;
    published_ = s;
    published_any_ = true;
  }
  stat_shipped_gen_.store(durable_generation_, std::memory_order_relaxed);
  (void)progressed;
  return Status::OK();
}

Status WalShipper::ShipCheckpointLocked(uint64_t generation,
                                        uint64_t wal_seq) {
  // Checkpoints are never truncated in place, so the mapping stays whole
  // even if GC unlinks the file mid-transfer.
  auto image = fs_->MapReadOnly(Join(dir_, CheckpointFileName(generation)));
  if (!image.ok()) return image.status();
  if (Status st = options_.transport->PutCheckpoint(
          generation, {(*image)->data(), (*image)->size()});
      !st.ok()) {
    return st;
  }
  const bool first = !have_checkpoint_;
  have_checkpoint_ = true;
  shipped_checkpoint_gen_ = generation;
  shipped_checkpoint_wal_seq_ = wal_seq;
  // The checkpoint embodies every commit at or below its generation:
  // shipping it makes them all durably present in the store.
  durable_generation_ = std::max(durable_generation_, generation);
  if (first) {
    tail_seq_ = wal_seq;
    tail_offset_ = 0;
  }
  stat_checkpoints_.fetch_add(1, std::memory_order_relaxed);
  if (options_.on_checkpoint_shipped) options_.on_checkpoint_shipped();
  return Status::OK();
}

Status WalShipper::ShipSegmentLocked(uint64_t seq, bool final_segment,
                                     bool* progressed) {
  const std::string path = Join(dir_, WalSegmentFileName(seq));
  WalSegment seg;
  if (Status st =
          ReadWalSegment(fs_, path, seq, &seg, WalTailPolicy::kLiveTail);
      !st.ok()) {
    return st;
  }
  if (seg.truncated_tail_bytes != 0) {
    // Under kLiveTail only real damage is ever classified torn: a
    // complete frame with a bad CRC, or junk on a rotated-away segment.
    return Status::DataLoss("wal segment damaged under live tail: " + path);
  }

  uint64_t ship_end = seg.resume_offset;
  if (options_.synced_tip) {
    const auto [tip_seq, tip_synced] = options_.synced_tip();
    if (seq == tip_seq) {
      // Never ship past the fsync horizon: a replica must not apply a
      // write the primary could still lose.
      ship_end = std::min(ship_end, tip_synced);
    } else if (seq > tip_seq) {
      ship_end = 0;  // raced ahead of rotation; settle next pass
    }
  }

  if (ship_end > tail_offset_) {
    std::vector<uint8_t> data;
    if (Status st = fs_->ReadFile(path, &data); !st.ok()) return st;
    if (data.size() < ship_end) {
      return Status::Unavailable("wal segment shrank under tail: " + path);
    }
    const std::span<const uint8_t> slice(data.data() + tail_offset_,
                                         ship_end - tail_offset_);
    if (Status st = options_.transport->AppendSegment(seq, tail_offset_, slice);
        !st.ok()) {
      if (st.IsUnavailable()) {
        // Possibly a gap (the store lost bytes we thought were there):
        // resync the tail offset to what it really holds.
        if (auto size = options_.transport->SegmentSize(seq);
            size.ok() && *size < tail_offset_) {
          tail_offset_ = *size;
        }
      }
      return st;
    }
    if (tail_offset_ == 0) {
      stat_segments_.fetch_add(1, std::memory_order_relaxed);
      if (options_.on_segment_started) options_.on_segment_started();
    }
    if (max_shipped_seq_ < seq) max_shipped_seq_ = seq;
    if (store_min_wal_seq_ == 0) store_min_wal_seq_ = seq;

    // Advance the durably-shipped generation from the commits inside the
    // shipped window (frames are aligned there: the offset is either 0 —
    // header first — or a previous whole-frame boundary).
    const uint64_t frames_begin = std::max<uint64_t>(tail_offset_,
                                                     kWalHeaderBytes);
    if (ship_end > frames_begin) {
      std::vector<WalRecord> recs;
      auto consumed = ParseWalFrameWindow(
          {data.data() + frames_begin, ship_end - frames_begin}, &recs);
      if (!consumed.ok()) return consumed.status();
      for (const WalRecord& rec : recs) {
        if (rec.kind == WalRecord::Kind::kCommit &&
            rec.generation > durable_generation_) {
          durable_generation_ = rec.generation;
        }
      }
    }

    stat_bytes_.fetch_add(slice.size(), std::memory_order_relaxed);
    if (options_.on_bytes_shipped) options_.on_bytes_shipped(slice.size());
    tail_offset_ = ship_end;
    *progressed = true;
  }

  if (final_segment && !seg.tail_in_flight &&
      tail_offset_ == seg.resume_offset) {
    // Rotated away and fully shipped: move to its successor.
    tail_seq_ = seq + 1;
    tail_offset_ = 0;
  }
  return Status::OK();
}

void WalShipper::UpdateRetentionLocked() {
  if (!retention_registered_) return;
  // Pin the tail segment and everything after it; checkpoints need no
  // pin (GC always keeps current + previous, and the shipper only ever
  // reads the manifest's current).
  options_.retention->UpdateConsumer(retention_handle_,
                                     CheckpointRef{0, tail_seq_});
}

void WalShipper::Start() {
  std::lock_guard<std::mutex> lock(pump_mu_);
  if (pump_.joinable()) return;
  stop_pump_ = false;
  pump_ = std::thread([this] { PumpLoop(); });
}

void WalShipper::Stop() {
  std::thread t;
  {
    std::lock_guard<std::mutex> lock(pump_mu_);
    stop_pump_ = true;
    t = std::move(pump_);
  }
  pump_cv_.notify_all();
  if (t.joinable()) t.join();
}

void WalShipper::PumpLoop() {
  ReplicationBackoff backoff(options_.backoff);
  for (;;) {
    Status st = ShipOnce();
    std::chrono::microseconds delay = options_.poll_interval;
    if (st.ok()) {
      backoff.Reset();
    } else if (st.IsDataLoss()) {
      return;  // sticky fail-stop; Health() carries the story
    } else {
      delay = backoff.Next();
      stat_backoffs_.fetch_add(1, std::memory_order_relaxed);
      if (options_.on_backoff_sleep) options_.on_backoff_sleep();
    }
    std::unique_lock<std::mutex> lock(pump_mu_);
    pump_cv_.wait_for(lock, delay, [&] { return stop_pump_; });
    if (stop_pump_) return;
  }
}

WalShipper::Stats WalShipper::GetStats() const {
  Stats s;
  s.checkpoints_shipped = stat_checkpoints_.load(std::memory_order_relaxed);
  s.segments_started = stat_segments_.load(std::memory_order_relaxed);
  s.bytes_shipped = stat_bytes_.load(std::memory_order_relaxed);
  s.reconnects = stat_reconnects_.load(std::memory_order_relaxed);
  s.backoff_sleeps = stat_backoffs_.load(std::memory_order_relaxed);
  s.shipped_generation = stat_shipped_gen_.load(std::memory_order_relaxed);
  return s;
}

Status WalShipper::Health() const {
  std::lock_guard<std::mutex> lock(mu_);
  return health_;
}

}  // namespace dspc
