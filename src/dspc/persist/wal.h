// Write-ahead log for the serving layer (DESIGN.md §11): an append-only,
// generation-numbered record of every admitted write, so a crash loses
// nothing that was durably acknowledged.
//
// Layout. The log is a sequence of segment files wal-<seq>.log; segment
// rotation happens at checkpoint time so one checkpoint plus the
// segments at or after its wal_seq reconstruct the exact pre-crash
// state, and older segments become garbage. A segment is a fixed header
// (magic, version, seq, the engine generation at rotation, header
// CRC32C) followed by length-prefixed records:
//
//   u32 payload_len | u32 crc32c(payload) | payload
//
// Torn tails are expected, not exceptional: on an append-only log every
// framing or checksum failure at the tail is indistinguishable from a
// write interrupted by the crash, so ReadWalSegment stops at the last
// valid record and reports the rest as truncated_tail_bytes for repair
// (RepairWalTail). Corruption *before* later valid records — which a
// torn write cannot produce — is kDataLoss.
//
// Record protocol: every write is one INTENT plus one COMMIT. The intent
// (sequence number, base generation, and what the write does: kBatch
// carries the admitted edge updates, kAddVertex the new vertex id) is
// appended before the engine applies anything; the commit (kCommit: same
// sequence number, end generation, one outcome byte per update) is
// appended after. A vertex removal journals as a kBatch of its edge
// deletes. Recovery replays only committed intents, re-running them and
// cross-checking each recorded outcome — a replayed no-op stays a no-op
// and bumps nothing, so the recovered generation lands exactly on the
// commit record's value. A trailing intent without its commit was never
// acknowledged and is skipped.
//
// Sync policy. kNone never fsyncs (the OS decides; cheapest, weakest),
// kEveryWrite fsyncs inside every AppendRecord (strongest, slowest),
// kBatch runs a group-commit flusher thread that fsyncs every
// flush_interval — or immediately when a durable waiter arrives — so
// concurrent durable writers share one fsync (WaitDurable). Any append
// or sync failure is sticky: the writer goes fail-stop and every later
// operation returns the first error, preserving the invariant that the
// WAL is always a superset of acknowledged engine state.

#ifndef DSPC_PERSIST_WAL_H_
#define DSPC_PERSIST_WAL_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "dspc/common/status.h"
#include "dspc/common/types.h"
#include "dspc/graph/update_stream.h"
#include "dspc/persist/env.h"

namespace dspc {

inline constexpr uint32_t kWalMagic = 0x4C415744;  // "DWAL"
/// Version 2: kAddVertex is an intent (paired by kCommit) and there is
/// no kRemoveVertex record. A version-1 segment is refused at its header.
inline constexpr uint32_t kWalVersion = 2;
/// Fixed segment header size: magic, version, seq, base generation, CRC.
inline constexpr size_t kWalHeaderBytes = 4 + 4 + 8 + 8 + 4;
/// Framing guard, enforced on BOTH sides of the log: AppendRecord
/// refuses a larger payload (kInvalidArgument, nothing appended), so
/// ReadWalSegment may treat any length prefix beyond it as a torn tail
/// without ever dropping a record that was really written.
inline constexpr uint32_t kWalMaxRecordBytes = 1u << 26;
/// Per-record framing overhead: u32 payload length + u32 CRC32C.
inline constexpr size_t kWalRecordOverheadBytes = 8;

/// Encoded kBatch intent layout: 1 kind + 8 seq + 8 generation + 4 count
/// header bytes, then 9 bytes (kind + two u32 endpoints) per update.
inline constexpr size_t kWalBatchRecordHeaderBytes = 1 + 8 + 8 + 4;
inline constexpr size_t kWalBatchUpdateBytes = 1 + 4 + 4;
/// Largest admitted-update count whose intent record still fits in one
/// WAL record — the service's hard per-call batch admission cap. (The
/// matching commit record is smaller: one outcome byte per update.)
inline constexpr size_t kWalMaxBatchUpdates =
    (kWalMaxRecordBytes - kWalBatchRecordHeaderBytes) / kWalBatchUpdateBytes;

/// When WAL appends are made durable. See the file comment.
enum class WalSyncPolicy : unsigned char {
  kNone = 0,
  kBatch = 1,
  kEveryWrite = 2,
};

const char* WalSyncPolicyName(WalSyncPolicy policy);

/// One decoded WAL record. Which fields are meaningful depends on `kind`
/// (see the record protocol in the file comment).
struct WalRecord {
  enum class Kind : uint8_t {
    kBatch = 1,      ///< intent: seq, generation (base), updates
    kCommit = 2,     ///< commit: seq, generation (end), outcomes
    kAddVertex = 3,  ///< intent: seq, generation (base), vertex (new id)
  };

  Kind kind = Kind::kBatch;
  uint64_t seq = 0;
  uint64_t generation = 0;
  Vertex vertex = 0;
  std::vector<Update> updates;
  /// Per-update outcome bytes of a commit: 1 = applied (bumped the
  /// generation), 0 = no-op; one per update of its intent (none for
  /// kAddVertex). Rejected updates never reach the WAL.
  std::vector<uint8_t> outcomes;
};

/// Serializes a record payload (what goes inside the framing).
std::vector<uint8_t> EncodeWalRecord(const WalRecord& rec);

/// Parses a record payload. kDataLoss on structural nonsense (a CRC-valid
/// payload that does not decode is corruption, not a torn write).
Status DecodeWalRecord(std::span<const uint8_t> payload, WalRecord* out);

/// File name of segment `seq` within the durability directory.
std::string WalSegmentFileName(uint64_t seq);

/// Parses "wal-<seq>.log"; returns false for any other name.
bool ParseWalSegmentFileName(const std::string& name, uint64_t* seq);

/// The append side of one segment.
class WalWriter {
 public:
  struct Options {
    WalSyncPolicy sync = WalSyncPolicy::kBatch;
    /// Group-commit interval under kBatch.
    std::chrono::microseconds flush_interval{2000};
    /// Invoked (from whichever thread synced) after every successful
    /// fsync — the service layer's metrics hook.
    std::function<void()> on_sync;
  };

  /// Creates segment `seq` at `path`, writes its header, and (under
  /// kBatch) starts the flusher thread.
  static StatusOr<std::unique_ptr<WalWriter>> Create(FileSystem* fs,
                                                     const std::string& path,
                                                     uint64_t seq,
                                                     uint64_t base_generation,
                                                     const Options& options);

  ~WalWriter();

  /// Appends one framed record. Calls must be externally serialized (the
  /// service's write lock); Sync/WaitDurable may run concurrently.
  /// Returns the end offset of the record — the argument WaitDurable
  /// needs. A payload over kWalMaxRecordBytes is kInvalidArgument with
  /// nothing appended (the writer stays usable — recovery would read a
  /// larger frame as a torn tail, losing it silently). I/O failures are
  /// fail-stop: after the first, every later call returns it.
  StatusOr<uint64_t> AppendRecord(std::span<const uint8_t> payload);

  /// Blocks until every byte up to `offset` is fsynced. Under kBatch
  /// this joins the group commit (waking the flusher immediately rather
  /// than waiting out the interval); under kNone it forces a sync
  /// (honoring an explicit durable request on a non-durable log);
  /// under kEveryWrite it is typically already satisfied.
  Status WaitDurable(uint64_t offset);

  /// Forces an fsync of everything appended so far.
  Status Sync();

  /// Stops the flusher, syncs, and closes the file. Called by the
  /// destructor if not called explicitly; only the explicit call
  /// reports errors.
  Status Close();

  uint64_t seq() const { return seq_; }
  uint64_t base_generation() const { return base_generation_; }
  uint64_t AppendedBytes() const {
    return appended_.load(std::memory_order_acquire);
  }
  uint64_t AppendedRecords() const {
    return records_.load(std::memory_order_relaxed);
  }
  uint64_t SyncedBytes() const {
    return synced_.load(std::memory_order_acquire);
  }
  uint64_t SyncCount() const {
    return syncs_.load(std::memory_order_relaxed);
  }

 private:
  WalWriter(FileSystem* fs, std::unique_ptr<WritableFile> file, uint64_t seq,
            uint64_t base_generation, const Options& options);

  /// Fsyncs through `target` and publishes the result. Serialized by
  /// sync_mu_ (never held while appending).
  Status SyncTo(uint64_t target);

  void FlusherLoop();

  FileSystem* const fs_;
  std::unique_ptr<WritableFile> file_;
  const uint64_t seq_;
  const uint64_t base_generation_;
  const Options options_;

  std::atomic<uint64_t> appended_{0};
  std::atomic<uint64_t> synced_{0};
  std::atomic<uint64_t> records_{0};
  std::atomic<uint64_t> syncs_{0};

  /// Serializes fsyncs and guards the sticky error + wakeups.
  std::mutex sync_mu_;
  std::condition_variable flush_cv_;   ///< wakes the flusher
  std::condition_variable synced_cv_;  ///< wakes durable waiters
  Status error_;                       ///< sticky first failure (sync_mu_)
  /// Atomic so AppendRecord's entry check never queues behind the
  /// flusher's in-progress fsync (which holds sync_mu_ throughout) —
  /// under kBatch that stall would tax every append landing mid-flush.
  std::atomic<bool> failed_{false};
  std::atomic<bool> closed_{false};
  bool sync_requested_ = false;
  bool stop_ = false;
  std::thread flusher_;
};

/// How ReadWalSegment classifies an incomplete final frame. Recovery
/// reads a post-crash file, where a short tail IS the interrupted write
/// (kCrashTorn: count it as truncated_tail_bytes for RepairWalTail). A
/// tailing reader — the WAL shipper, a replica catching up — reads a
/// file whose writer is still alive, where the same bytes are an
/// in-flight append that the next poll will complete (kLiveTail: report
/// tail_in_flight with the frame-aligned resume offset instead of
/// misclassifying it as damage). The two cases are byte-identical at the
/// tail; only the reader knows whether the writer is dead.
enum class WalTailPolicy : unsigned char {
  kCrashTorn,  ///< short tail = interrupted write, repairable
  kLiveTail,   ///< short tail = append in flight, retry from resume_offset
};

/// One scanned segment: its header fields, every valid record in order,
/// and how the file ends.
struct WalSegment {
  uint64_t seq = 0;
  uint64_t base_generation = 0;
  std::vector<WalRecord> records;
  /// Offset one past the last valid record (kWalHeaderBytes for an empty
  /// segment; 0 when even the header was torn).
  uint64_t valid_bytes = 0;
  /// Bytes past valid_bytes — a torn tail to repair. 0 for a clean file
  /// and under kLiveTail whenever the tail is classified in-flight.
  uint64_t truncated_tail_bytes = 0;
  /// Frame-aligned offset a tailing reader resumes from (== valid_bytes;
  /// carried explicitly so shipping code never re-derives it).
  uint64_t resume_offset = 0;
  /// kLiveTail only: the file ends in an incomplete frame (or an
  /// incomplete header) that the live writer has not finished appending —
  /// retryable, not corruption. Never set under kCrashTorn.
  bool tail_in_flight = false;
};

/// Scans one segment file. `expected_seq` is the sequence number implied
/// by the file name; a complete header that contradicts it (or fails its
/// own CRC with a fully-written file body after it) is kDataLoss. A
/// header shorter than kWalHeaderBytes is a file created but never
/// flushed: the segment parses as empty with everything in the tail.
///
/// `tail` picks how a short final frame is reported (see WalTailPolicy).
/// The distinction is precise about what a live writer CAN produce: its
/// appends grow the file by whole frames, so an in-flight tail is always
/// a byte-prefix of one frame. A complete frame whose payload fails its
/// CRC is therefore never in-flight — it stays a (crash-)torn tail under
/// both policies, so a tailing reader still detects real damage instead
/// of polling it forever.
Status ReadWalSegment(FileSystem* fs, const std::string& path,
                      uint64_t expected_seq, WalSegment* out,
                      WalTailPolicy tail = WalTailPolicy::kCrashTorn);

/// Truncates `path` to the segment's valid prefix (no-op when clean).
Status RepairWalTail(FileSystem* fs, const std::string& path,
                     const WalSegment& segment);

}  // namespace dspc

#endif  // DSPC_PERSIST_WAL_H_
