#include "dspc/persist/wal.h"

#include <algorithm>
#include <utility>

#include "dspc/common/binary_io.h"

namespace dspc {

const char* WalSyncPolicyName(WalSyncPolicy policy) {
  switch (policy) {
    case WalSyncPolicy::kNone:
      return "none";
    case WalSyncPolicy::kBatch:
      return "batch";
    case WalSyncPolicy::kEveryWrite:
      return "every_write";
  }
  return "unknown";
}

std::string WalSegmentFileName(uint64_t seq) {
  return "wal-" + std::to_string(seq) + ".log";
}

bool ParseWalSegmentFileName(const std::string& name, uint64_t* seq) {
  // Shortest valid name: "wal-0.log" (9 chars — one seq digit).
  if (name.size() < 9 || name.compare(0, 4, "wal-") != 0 ||
      name.compare(name.size() - 4, 4, ".log") != 0) {
    return false;
  }
  uint64_t value = 0;
  for (size_t i = 4; i < name.size() - 4; ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
    value = value * 10 + static_cast<uint64_t>(name[i] - '0');
  }
  *seq = value;
  return true;
}

std::vector<uint8_t> EncodeWalRecord(const WalRecord& rec) {
  BinaryWriter w;
  w.PutU8(static_cast<uint8_t>(rec.kind));
  switch (rec.kind) {
    case WalRecord::Kind::kBatch:
      w.PutU64(rec.seq);
      w.PutU64(rec.generation);
      w.PutU32(static_cast<uint32_t>(rec.updates.size()));
      for (const Update& u : rec.updates) {
        w.PutU8(u.kind == Update::Kind::kInsert ? 0 : 1);
        w.PutU32(u.edge.u);
        w.PutU32(u.edge.v);
      }
      break;
    case WalRecord::Kind::kCommit:
      w.PutU64(rec.seq);
      w.PutU64(rec.generation);
      w.PutU32(static_cast<uint32_t>(rec.outcomes.size()));
      w.Append(rec.outcomes.data(), rec.outcomes.size());
      break;
    case WalRecord::Kind::kAddVertex:
      w.PutU64(rec.seq);
      w.PutU64(rec.generation);
      w.PutU32(rec.vertex);
      break;
  }
  return w.buffer();
}

Status DecodeWalRecord(std::span<const uint8_t> payload, WalRecord* out) {
  BinaryReader r(std::vector<uint8_t>(payload.begin(), payload.end()));
  WalRecord rec;
  const uint8_t kind = r.GetU8();
  switch (kind) {
    case static_cast<uint8_t>(WalRecord::Kind::kBatch): {
      rec.kind = WalRecord::Kind::kBatch;
      rec.seq = r.GetU64();
      rec.generation = r.GetU64();
      const uint32_t count = r.GetU32();
      if (count > r.remaining() / 9) {
        return Status::DataLoss("wal batch record count exceeds payload");
      }
      rec.updates.reserve(count);
      for (uint32_t i = 0; i < count; ++i) {
        const uint8_t uk = r.GetU8();
        if (uk > 1) return Status::DataLoss("wal batch bad update kind");
        const Vertex u = r.GetU32();
        const Vertex v = r.GetU32();
        rec.updates.push_back(uk == 0 ? Update::Insert(u, v)
                                      : Update::Delete(u, v));
      }
      break;
    }
    case static_cast<uint8_t>(WalRecord::Kind::kCommit): {
      rec.kind = WalRecord::Kind::kCommit;
      rec.seq = r.GetU64();
      rec.generation = r.GetU64();
      const uint32_t count = r.GetU32();
      if (count > r.remaining()) {
        return Status::DataLoss("wal commit outcome count exceeds payload");
      }
      rec.outcomes.resize(count);
      if (count > 0 && !r.GetBytes(rec.outcomes.data(), count)) {
        return r.status();
      }
      for (const uint8_t o : rec.outcomes) {
        if (o > 1) return Status::DataLoss("wal commit bad outcome byte");
      }
      break;
    }
    case static_cast<uint8_t>(WalRecord::Kind::kAddVertex):
      rec.kind = WalRecord::Kind::kAddVertex;
      rec.seq = r.GetU64();
      rec.generation = r.GetU64();
      rec.vertex = r.GetU32();
      break;
    default:
      return Status::DataLoss("wal record bad kind byte");
  }
  if (!r.status().ok() || !r.AtEnd()) {
    return Status::DataLoss("wal record payload malformed");
  }
  *out = std::move(rec);
  return Status::OK();
}

// --- WalWriter -------------------------------------------------------------

WalWriter::WalWriter(FileSystem* fs, std::unique_ptr<WritableFile> file,
                     uint64_t seq, uint64_t base_generation,
                     const Options& options)
    : fs_(fs),
      file_(std::move(file)),
      seq_(seq),
      base_generation_(base_generation),
      options_(options) {
  (void)fs_;
  if (options_.sync == WalSyncPolicy::kBatch) {
    flusher_ = std::thread([this] { FlusherLoop(); });
  }
}

StatusOr<std::unique_ptr<WalWriter>> WalWriter::Create(
    FileSystem* fs, const std::string& path, uint64_t seq,
    uint64_t base_generation, const Options& options) {
  auto file = fs->NewWritableFile(path);
  if (!file.ok()) return file.status();
  BinaryWriter header;
  header.PutU32(kWalMagic);
  header.PutU32(kWalVersion);
  header.PutU64(seq);
  header.PutU64(base_generation);
  header.PutU32(Crc32c(header.buffer().data(), header.buffer().size()));
  if (Status st = (*file)->Append(header.buffer().data(),
                                  header.buffer().size());
      !st.ok()) {
    return st;
  }
  auto writer = std::unique_ptr<WalWriter>(
      new WalWriter(fs, std::move(*file), seq, base_generation, options));
  writer->appended_.store(kWalHeaderBytes, std::memory_order_release);
  return writer;
}

WalWriter::~WalWriter() { (void)Close(); }

// The u32 length prefix must hold any accepted payload size with room
// for the frame itself — otherwise an accepted append would corrupt the
// framing of everything after it.
static_assert(uint64_t{kWalMaxRecordBytes} + kWalRecordOverheadBytes <=
                  uint64_t{UINT32_MAX},
              "kWalMaxRecordBytes must fit the u32 length prefix");

StatusOr<uint64_t> WalWriter::AppendRecord(std::span<const uint8_t> payload) {
  // Oversize records are refused BEFORE touching the file: ReadWalSegment
  // treats any length prefix beyond kWalMaxRecordBytes as a torn tail, so
  // appending (and fsyncing!) one would be acknowledged durable yet
  // silently truncated at recovery. A caller error, not a device failure:
  // nothing was appended, so the writer stays usable (no fail-stop).
  if (payload.size() > kWalMaxRecordBytes) {
    return Status::InvalidArgument(
        "wal record payload of " + std::to_string(payload.size()) +
        " bytes exceeds kWalMaxRecordBytes (" +
        std::to_string(kWalMaxRecordBytes) + ")");
  }
  // Lock-free entry check: taking sync_mu_ here would queue the append
  // behind an in-progress group-commit fsync.
  if (failed_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(sync_mu_);
    return error_;
  }
  if (closed_.load(std::memory_order_acquire)) {
    return Status::Unavailable("wal writer closed");
  }
  // Frame + payload in one Append so the file only ever sees whole-frame
  // prefixes from this layer (the env below may still tear them).
  BinaryWriter frame;
  frame.PutU32(static_cast<uint32_t>(payload.size()));
  frame.PutU32(Crc32c(payload.data(), payload.size()));
  frame.Append(payload.data(), payload.size());
  if (Status st = file_->Append(frame.buffer().data(), frame.buffer().size());
      !st.ok()) {
    std::lock_guard<std::mutex> lock(sync_mu_);
    if (!failed_) {
      failed_ = true;
      error_ = st;
    }
    synced_cv_.notify_all();
    return error_;
  }
  const uint64_t end = appended_.fetch_add(frame.buffer().size(),
                                           std::memory_order_acq_rel) +
                       frame.buffer().size();
  records_.fetch_add(1, std::memory_order_relaxed);
  if (options_.sync == WalSyncPolicy::kEveryWrite) {
    if (Status st = SyncTo(end); !st.ok()) return st;
  }
  return end;
}

Status WalWriter::SyncTo(uint64_t target) {
  std::unique_lock<std::mutex> lock(sync_mu_);
  if (synced_.load(std::memory_order_acquire) >= target) {
    return Status::OK();
  }
  if (failed_) return error_;
  // Snapshot what is appended *before* the fsync: bytes appended during
  // it may only partially reach the disk, so only `upto` is claimed.
  const uint64_t upto = appended_.load(std::memory_order_acquire);
  Status st = file_->Sync();
  if (!st.ok()) {
    failed_ = true;
    error_ = st;
    synced_cv_.notify_all();
    return error_;
  }
  syncs_.fetch_add(1, std::memory_order_relaxed);
  uint64_t prev = synced_.load(std::memory_order_relaxed);
  while (prev < upto &&
         !synced_.compare_exchange_weak(prev, upto,
                                        std::memory_order_acq_rel)) {
  }
  synced_cv_.notify_all();
  if (options_.on_sync) {
    lock.unlock();
    options_.on_sync();
  }
  return Status::OK();
}

Status WalWriter::WaitDurable(uint64_t offset) {
  if (synced_.load(std::memory_order_acquire) >= offset) return Status::OK();
  if (options_.sync != WalSyncPolicy::kBatch) return SyncTo(offset);
  std::unique_lock<std::mutex> lock(sync_mu_);
  sync_requested_ = true;
  flush_cv_.notify_one();
  synced_cv_.wait(lock, [&] {
    return failed_ || stop_ ||
           synced_.load(std::memory_order_acquire) >= offset;
  });
  if (synced_.load(std::memory_order_acquire) >= offset) return Status::OK();
  if (failed_) return error_;
  return Status::Unavailable("wal writer stopped before the sync");
}

Status WalWriter::Sync() {
  return SyncTo(appended_.load(std::memory_order_acquire));
}

void WalWriter::FlusherLoop() {
  std::unique_lock<std::mutex> lock(sync_mu_);
  while (!stop_) {
    flush_cv_.wait_for(lock, options_.flush_interval,
                       [&] { return stop_ || sync_requested_; });
    sync_requested_ = false;
    if (stop_ || failed_) continue;
    const uint64_t upto = appended_.load(std::memory_order_acquire);
    if (upto <= synced_.load(std::memory_order_acquire)) continue;
    Status st = file_->Sync();
    if (!st.ok()) {
      failed_ = true;
      error_ = st;
      synced_cv_.notify_all();
      continue;  // stay alive so Close can join; error is sticky
    }
    syncs_.fetch_add(1, std::memory_order_relaxed);
    uint64_t prev = synced_.load(std::memory_order_relaxed);
    while (prev < upto &&
           !synced_.compare_exchange_weak(prev, upto,
                                          std::memory_order_acq_rel)) {
    }
    synced_cv_.notify_all();
    if (options_.on_sync) {
      lock.unlock();
      options_.on_sync();
      lock.lock();
    }
  }
}

Status WalWriter::Close() {
  {
    std::lock_guard<std::mutex> lock(sync_mu_);
    if (closed_) return failed_ ? error_ : Status::OK();
    closed_ = true;  // no further appends; syncs below still run
  }
  // Final sync BEFORE stop_: clean shutdown makes everything appended
  // durable regardless of policy (a process exit is not a crash), and
  // durable waiters woken by stop_ must already see synced_ covering
  // them — otherwise a rotation-retired segment would spuriously fail
  // in-flight WaitDurable callers.
  Status st = SyncTo(appended_.load(std::memory_order_acquire));
  {
    std::lock_guard<std::mutex> lock(sync_mu_);
    stop_ = true;
    flush_cv_.notify_all();
    synced_cv_.notify_all();
  }
  if (flusher_.joinable()) flusher_.join();
  Status close_st = file_->Close();
  if (st.ok()) st = close_st;
  if (!st.ok()) {
    std::lock_guard<std::mutex> lock(sync_mu_);
    if (!failed_) {
      failed_ = true;
      error_ = st;
    }
  }
  return st;
}

// --- segment scan ----------------------------------------------------------

namespace {

uint32_t ReadLE32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

uint64_t ReadLE64(const uint8_t* p) {
  return static_cast<uint64_t>(ReadLE32(p)) |
         (static_cast<uint64_t>(ReadLE32(p + 4)) << 32);
}

}  // namespace

Status ReadWalSegment(FileSystem* fs, const std::string& path,
                      uint64_t expected_seq, WalSegment* out,
                      WalTailPolicy tail) {
  const bool live = tail == WalTailPolicy::kLiveTail;
  std::vector<uint8_t> data;
  if (Status st = fs->ReadFile(path, &data); !st.ok()) return st;

  WalSegment seg;
  seg.seq = expected_seq;
  if (data.size() < kWalHeaderBytes) {
    // Created but never flushed: an empty segment. Post-crash that is all
    // torn tail; under a live writer the header append is simply still in
    // flight.
    seg.valid_bytes = 0;
    seg.resume_offset = 0;
    if (live) {
      seg.tail_in_flight = true;
    } else {
      seg.truncated_tail_bytes = data.size();
    }
    *out = std::move(seg);
    return Status::OK();
  }
  const uint32_t header_crc = ReadLE32(data.data() + kWalHeaderBytes - 4);
  if (Crc32c(data.data(), kWalHeaderBytes - 4) != header_crc) {
    return Status::DataLoss("wal segment header corrupt: " + path);
  }
  if (ReadLE32(data.data()) != kWalMagic) {
    return Status::DataLoss("wal segment bad magic: " + path);
  }
  if (ReadLE32(data.data() + 4) != kWalVersion) {
    return Status::DataLoss("wal segment bad version: " + path);
  }
  if (ReadLE64(data.data() + 8) != expected_seq) {
    return Status::DataLoss("wal segment sequence mismatch: " + path);
  }
  seg.base_generation = ReadLE64(data.data() + 16);

  size_t pos = kWalHeaderBytes;
  seg.valid_bytes = pos;
  // Distinguishes how the scan stopped: a frame the file simply does not
  // hold all of yet (a live writer's in-flight append is always a byte
  // prefix of one frame) vs bytes no writer appends — an oversized
  // length prefix or a COMPLETE frame failing its payload CRC — which is
  // damage under either policy.
  bool incomplete_frame = false;
  while (data.size() - pos >= 8) {
    const uint32_t len = ReadLE32(data.data() + pos);
    const uint32_t crc = ReadLE32(data.data() + pos + 4);
    if (len > kWalMaxRecordBytes) break;  // never appended: torn/corrupt
    if (len > data.size() - pos - 8) {
      incomplete_frame = true;  // torn payload — or one still being written
      break;
    }
    const uint8_t* payload = data.data() + pos + 8;
    if (Crc32c(payload, len) != crc) break;  // torn or flipped payload
    WalRecord rec;
    if (Status st = DecodeWalRecord({payload, len}, &rec); !st.ok()) {
      // A checksum-valid payload that does not decode was never a torn
      // write — surface it instead of silently dropping the suffix.
      return st;
    }
    seg.records.push_back(std::move(rec));
    pos += 8 + len;
    seg.valid_bytes = pos;
  }
  if (data.size() - pos < 8 && data.size() != pos) incomplete_frame = true;
  seg.resume_offset = seg.valid_bytes;
  if (live && (incomplete_frame || data.size() == seg.valid_bytes)) {
    seg.tail_in_flight = data.size() != seg.valid_bytes;
  } else {
    seg.truncated_tail_bytes = data.size() - seg.valid_bytes;
  }
  *out = std::move(seg);
  return Status::OK();
}

Status RepairWalTail(FileSystem* fs, const std::string& path,
                     const WalSegment& segment) {
  if (segment.truncated_tail_bytes == 0) return Status::OK();
  return fs->TruncateFile(path, segment.valid_bytes);
}

}  // namespace dspc
