// Crash recovery for the durability subsystem (DESIGN.md §11): turn a
// durability directory — MANIFEST, checkpoints, WAL segments — back into
// a serving engine at the exact pre-crash generation.
//
// Recovery is split into a pure planning step and an application step so
// each is independently testable:
//
//   PlanRecovery   reads the MANIFEST, loads the newest valid checkpoint
//                  (falling back to the previous one on kDataLoss),
//                  scans the WAL segments from the checkpoint's replay
//                  point, repairs torn tails, pairs intent records with
//                  their commits, and emits the ordered list of
//                  committed operations newer than the checkpoint;
//   ApplyReplayOp  re-runs one such operation through
//                  DynamicSpcIndex::ApplyBatch (or AddVertex),
//                  cross-checking every recorded outcome
//                  and the committed end generation — replay is
//                  idempotent because a recorded no-op must replay as a
//                  no-op, and any divergence is kDataLoss, never a
//                  silently different index.
//
// The state machine, for the record (each arrow is a kDataLoss edge
// unless labeled): manifest → checkpoint (→ previous checkpoint on
// checksum failure) → contiguous segment scan (torn tail allowed only
// when no later segment holds records) → intent/commit pairing
// (trailing unpaired intents are dropped: never acknowledged) → filter
// to end_generation > checkpoint generation → replay with cross-checks.

#ifndef DSPC_PERSIST_RECOVERY_H_
#define DSPC_PERSIST_RECOVERY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "dspc/common/status.h"
#include "dspc/common/types.h"
#include "dspc/graph/update_stream.h"
#include "dspc/persist/checkpointer.h"
#include "dspc/persist/env.h"

namespace dspc {

class DynamicSpcIndex;

/// What recovery did — surfaced through SpcService::Open and folded into
/// ServiceMetrics.
struct RecoveryReport {
  /// Generation of the checkpoint recovery started from (0 when the
  /// directory was empty and the service bootstrapped fresh).
  uint64_t checkpoint_generation = 0;
  /// Engine generation after replay — the exact pre-crash value of the
  /// last durably-acknowledged write.
  uint64_t recovered_generation = 0;
  /// Committed WAL operations re-applied.
  uint64_t replayed = 0;
  /// Committed operations skipped because the checkpoint already covered
  /// them (their segment predates GC, or replay fell back a checkpoint).
  uint64_t skipped = 0;
  /// Torn bytes truncated off segment tails (across all segments).
  uint64_t truncated_tail_bytes = 0;
  /// WAL segments scanned.
  uint64_t segments_scanned = 0;
  /// True when the newest checkpoint was unreadable and the previous one
  /// was used (more WAL was replayed to compensate).
  bool used_fallback_checkpoint = false;
  /// True when no durable state existed at all (fresh directory).
  bool bootstrapped = false;

  std::string ToString() const;
};

/// One committed WAL operation to re-apply, in commit order.
struct ReplayOp {
  enum class Kind : unsigned char { kBatch, kAddVertex };
  Kind kind = Kind::kBatch;
  /// Generation recorded at intent time: the base the engine must be at
  /// when this op replays.
  uint64_t base_generation = 0;
  /// Committed generation after the op — what the engine must reach.
  uint64_t end_generation = 0;
  Vertex vertex = 0;                ///< kAddVertex: the id it creates
  std::vector<Update> updates;      ///< kBatch
  std::vector<uint8_t> outcomes;    ///< kBatch: 1 = applied, 0 = no-op
};

/// The full recovery plan for one durability directory.
struct RecoveryPlan {
  /// False when the directory held no MANIFEST: nothing was ever
  /// durably acknowledged, the caller bootstraps from its own graph.
  bool has_checkpoint = false;
  LoadedCheckpoint checkpoint;      ///< valid when has_checkpoint
  /// WAL segment the validated checkpoint's replay starts from. Together
  /// with checkpoint.generation this names the checkpoint recovery
  /// PROVED loadable — what the open-time Publish must retain as the
  /// fallback (the on-disk MANIFEST may still name a corrupt one).
  uint64_t checkpoint_wal_seq = 0;
  std::vector<ReplayOp> ops;        ///< committed ops newer than checkpoint
  /// Generation after full replay (== checkpoint generation with no ops).
  uint64_t target_generation = 0;
  /// Sequence number for the segment the restarted service creates.
  uint64_t next_wal_seq = 1;
  RecoveryReport report;
};

/// Plans recovery of `dir`. Repairs torn WAL tails in place (the one
/// mutation this step performs). Typed failures: kDataLoss when durable
/// state is damaged beyond the built-in fallbacks, kIOError when the
/// filesystem itself fails.
Status PlanRecovery(FileSystem* fs, const std::string& dir,
                    RecoveryPlan* out);

/// Re-applies one committed op to `engine`, cross-checking the recorded
/// per-update outcomes and the committed end generation. The engine must
/// stand exactly at the op's expected base (its checkpoint, or the
/// previous op's end_generation). kDataLoss on any divergence.
Status ApplyReplayOp(DynamicSpcIndex* engine, const ReplayOp& op);

}  // namespace dspc

#endif  // DSPC_PERSIST_RECOVERY_H_
