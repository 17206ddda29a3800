#include "dspc/persist/recovery.h"

#include <algorithm>
#include <utility>

#include "dspc/core/dynamic_spc.h"
#include "dspc/persist/replication.h"
#include "dspc/persist/wal.h"

namespace dspc {

std::string RecoveryReport::ToString() const {
  std::string s = "recovery: checkpoint_gen=";
  s += std::to_string(checkpoint_generation);
  s += " recovered_gen=" + std::to_string(recovered_generation);
  s += " replayed=" + std::to_string(replayed);
  s += " skipped=" + std::to_string(skipped);
  s += " truncated_tail_bytes=" + std::to_string(truncated_tail_bytes);
  s += " segments=" + std::to_string(segments_scanned);
  if (used_fallback_checkpoint) s += " fallback_checkpoint";
  if (bootstrapped) s += " bootstrapped";
  return s;
}

namespace {

std::string Join(const std::string& dir, const std::string& name) {
  return dir + "/" + name;
}

}  // namespace

Status PlanRecovery(FileSystem* fs, const std::string& dir,
                    RecoveryPlan* out) {
  RecoveryPlan plan;

  auto names = fs->ListDir(dir);
  if (!names.ok()) return names.status();
  std::vector<uint64_t> seqs;
  for (const std::string& name : *names) {
    uint64_t seq = 0;
    if (ParseWalSegmentFileName(name, &seq)) seqs.push_back(seq);
  }
  std::sort(seqs.begin(), seqs.end());
  const uint64_t max_seq = seqs.empty() ? 0 : seqs.back();

  if (!fs->FileExists(Join(dir, ManifestFileName()))) {
    // No MANIFEST normally means Open never completed its first publish,
    // so nothing was ever durably acknowledged: bootstrap fresh. But
    // writes are only accepted once that publish has created a MANIFEST
    // — so WAL records alongside a missing MANIFEST mean the MANIFEST
    // was deleted or destroyed externally, and bootstrapping would
    // silently discard durable data. The one checkpoint-without-MANIFEST
    // state a crash CAN produce is a first open dying between its
    // checkpoint rename and its MANIFEST rename: exactly one checkpoint
    // file (of the never-acknowledged bootstrap state) and zero records.
    // Two checkpoint files have necessarily been through a publish that
    // retained a previous one — a MANIFEST existed.
    size_t checkpoints = 0;
    for (const std::string& name : *names) {
      uint64_t gen = 0;
      if (ParseCheckpointFileName(name, &gen)) ++checkpoints;
    }
    if (checkpoints > 1) {
      return Status::DataLoss(
          std::to_string(checkpoints) +
          " checkpoints exist without a MANIFEST — the MANIFEST was lost "
          "outside this process; refusing to bootstrap over durable "
          "state");
    }
    for (const uint64_t s : seqs) {
      WalSegment seg;
      // Unreadable strays are not evidence (and must not block a
      // legitimate bootstrap); any decoded record is — records are only
      // ever appended after a MANIFEST exists.
      if (ReadWalSegment(fs, Join(dir, WalSegmentFileName(s)), s, &seg)
              .ok() &&
          !seg.records.empty()) {
        return Status::DataLoss(
            WalSegmentFileName(s) +
            " holds records without a MANIFEST — the MANIFEST was lost "
            "outside this process; refusing to bootstrap over durable "
            "state");
      }
    }
    // Stray record-free segments from an interrupted first open are
    // superseded (and GC'd after the next publish); skipping their seq
    // numbers keeps file names unique.
    plan.has_checkpoint = false;
    plan.next_wal_seq = max_seq + 1;
    plan.report.bootstrapped = true;
    *out = std::move(plan);
    return Status::OK();
  }

  auto manifest = ReadManifest(fs, dir);
  if (!manifest.ok()) return manifest.status();

  uint64_t start_seq = manifest->wal_seq;
  Status load =
      LoadCheckpoint(fs, dir, manifest->generation, &plan.checkpoint);
  if (!load.ok()) {
    if (!manifest->has_previous) return load;
    Status fallback =
        LoadCheckpoint(fs, dir, manifest->prev_generation, &plan.checkpoint);
    if (!fallback.ok()) return load;  // the primary failure is the story
    plan.report.used_fallback_checkpoint = true;
    start_seq = manifest->prev_wal_seq;
  }
  plan.has_checkpoint = true;
  plan.checkpoint_wal_seq = start_seq;
  plan.report.checkpoint_generation = plan.checkpoint.generation;

  // Replay needs the contiguous run start_seq, start_seq+1, ..., max.
  std::vector<uint64_t> run;
  for (const uint64_t s : seqs) {
    if (s >= start_seq) run.push_back(s);
  }
  if (run.empty() || run.front() != start_seq) {
    return Status::DataLoss("wal segment missing: " +
                            WalSegmentFileName(start_seq));
  }
  for (size_t i = 1; i < run.size(); ++i) {
    if (run[i] != run[i - 1] + 1) {
      return Status::DataLoss("wal segment gap after " +
                              WalSegmentFileName(run[i - 1]));
    }
  }

  std::vector<WalSegment> segments;
  segments.reserve(run.size());
  for (const uint64_t s : run) {
    WalSegment seg;
    if (Status st =
            ReadWalSegment(fs, Join(dir, WalSegmentFileName(s)), s, &seg);
        !st.ok()) {
      return st;
    }
    segments.push_back(std::move(seg));
  }
  // A torn tail is a write the crash interrupted — nothing can have been
  // appended (anywhere) after it. Records in a later segment disprove
  // that, so the "tail" is really mid-log corruption.
  for (size_t i = 0; i < segments.size(); ++i) {
    if (segments[i].truncated_tail_bytes == 0) continue;
    for (size_t j = i + 1; j < segments.size(); ++j) {
      if (!segments[j].records.empty()) {
        return Status::DataLoss(
            "corrupt wal records before later valid records: " +
            WalSegmentFileName(run[i]));
      }
    }
    if (Status st = RepairWalTail(fs, Join(dir, WalSegmentFileName(run[i])),
                                  segments[i]);
        !st.ok()) {
      return st;
    }
    plan.report.truncated_tail_bytes += segments[i].truncated_tail_bytes;
  }
  plan.report.segments_scanned = segments.size();
  if (segments.front().valid_bytes >= kWalHeaderBytes &&
      segments.front().base_generation != plan.checkpoint.generation) {
    return Status::DataLoss(
        "wal segment base generation contradicts its checkpoint: " +
        WalSegmentFileName(run.front()));
  }

  // Pair intents with commits, chain the committed generations, and
  // filter ops the checkpoint already covers — all ReplayCursor's job,
  // shared verbatim with replica tailing (replication.h) so recovery and
  // a hot standby agree on what the log means. An intent whose commit
  // never made it to the log was never acknowledged — it stays pending
  // in the cursor and is dropped with it.
  ReplayCursor cursor(plan.checkpoint.generation);
  for (WalSegment& seg : segments) {
    for (WalRecord& rec : seg.records) {
      if (Status st = cursor.Feed(std::move(rec), &plan.ops); !st.ok()) {
        return st;
      }
    }
  }
  plan.report.skipped = cursor.skipped();
  plan.report.replayed = plan.ops.size();
  plan.target_generation = cursor.generation();
  plan.report.recovered_generation = cursor.generation();
  plan.next_wal_seq = max_seq + 1;
  *out = std::move(plan);
  return Status::OK();
}

Status ApplyReplayOp(DynamicSpcIndex* engine, const ReplayOp& op) {
  if (op.base_generation != engine->Generation()) {
    return Status::DataLoss("replay base generation mismatch: engine at " +
                            std::to_string(engine->Generation()) +
                            ", journal says " +
                            std::to_string(op.base_generation));
  }
  switch (op.kind) {
    case ReplayOp::Kind::kBatch: {
      std::vector<WriteReport> reports;
      engine->ApplyBatch(std::span<const Update>(op.updates), &reports);
      if (reports.size() != op.outcomes.size()) {
        return Status::DataLoss("replay produced wrong report count");
      }
      for (size_t i = 0; i < reports.size(); ++i) {
        if (reports[i].applied() != (op.outcomes[i] != 0)) {
          return Status::DataLoss(
              "replayed update outcome diverged from journal at index " +
              std::to_string(i));
        }
      }
      break;
    }
    case ReplayOp::Kind::kAddVertex: {
      const Vertex v = engine->AddVertex();
      if (v != op.vertex) {
        return Status::DataLoss("replayed AddVertex produced id " +
                                std::to_string(v) + ", journal says " +
                                std::to_string(op.vertex));
      }
      break;
    }
  }
  if (engine->Generation() != op.end_generation) {
    return Status::DataLoss(
        "replay generation diverged: engine at " +
        std::to_string(engine->Generation()) + ", journal committed " +
        std::to_string(op.end_generation));
  }
  return Status::OK();
}

}  // namespace dspc
