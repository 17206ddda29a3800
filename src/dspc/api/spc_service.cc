#include "dspc/api/spc_service.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>
#include <vector>

namespace dspc {

// ServiceMetrics' read cube (service_metrics.h) folds the raw values of
// these enums, which it only sees as opaque declarations — pin them.
static_assert(static_cast<size_t>(ServedFrom::kSnapshot) == 0 &&
                  static_cast<size_t>(ServedFrom::kLiveIndex) == 1,
              "read cube encodes ServedFrom as {snapshot=0, live=1}");
static_assert(static_cast<size_t>(Consistency::kFresh) == 0 &&
                  static_cast<size_t>(Consistency::kSnapshot) == 1 &&
                  static_cast<size_t>(Consistency::kBoundedStaleness) == 2,
              "read cube indexes queries_by_mode by Consistency's value");

namespace {

using Counter = ServiceMetrics::Counter;

// Error construction is kept out of line (and out of the serving hot
// path): refusals build strings, served requests never do.
[[gnu::cold, gnu::noinline]] Status LiveReadDeadlineExceeded() {
  return Status::DeadlineExceeded(
      "live-index read could not acquire the lock before the deadline "
      "(a writer holds it); retry, extend the timeout, or relax to "
      "kSnapshot/kBoundedStaleness");
}

/// Absolute deadline of a timed call; callers guard on timeout >= 0
/// (kNoTimeout never reaches this). Saturates instead of overflowing so
/// timeout = nanoseconds::max() means "wait practically forever", not a
/// wrapped-into-the-past instant refusal.
std::chrono::steady_clock::time_point DeadlineFor(
    std::chrono::nanoseconds timeout) {
  const auto now = std::chrono::steady_clock::now();
  if (timeout >= std::chrono::steady_clock::time_point::max() - now) {
    return std::chrono::steady_clock::time_point::max();
  }
  return now + timeout;
}

/// Sampled read-latency timing (DESIGN.md §10). Two steady_clock reads
/// per timed call would blow the service's ~2% overhead budget on the
/// per-query hot path, so single queries time 1-in-64 calls (a
/// thread_local counter decides; uniform sampling leaves percentiles
/// unbiased) while batches — whose work amortizes the clocks — always
/// time. Armed==false costs one increment and one predictable branch.
struct LatencyTimer {
  explicit LatencyTimer(bool arm) : armed(arm) {
    if (armed) [[unlikely]] {
      start = std::chrono::steady_clock::now();
    }
  }
  void Finish(ServiceMetrics* metrics, Consistency mode) const {
    if (!armed) [[likely]] {
      return;
    }
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
        std::chrono::steady_clock::now() - start);
    metrics->RecordReadLatency(mode, static_cast<uint64_t>(ns.count()));
  }
  bool armed;
  std::chrono::steady_clock::time_point start;
};

bool SampleReadLatency() {
  thread_local uint32_t tick = 0;
  return (++tick & 63u) == 0;
}

}  // namespace

SpcService::SpcService(Graph graph, const DynamicSpcOptions& options)
    : engine_(std::move(graph), options) {
  if (engine_.options().pair_cache.enabled) {
    pair_cache_ = std::make_unique<PairCache>(engine_.options().pair_cache);
  }
}

SpcService::SpcService(Graph graph, SpcIndex index,
                       const DynamicSpcOptions& options)
    : engine_(std::move(graph), std::move(index), options) {
  if (engine_.options().pair_cache.enabled) {
    pair_cache_ = std::make_unique<PairCache>(engine_.options().pair_cache);
  }
}

SpcService::~SpcService() {
  if (fs_ == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(dur_mu_);
    stop_checkpointer_ = true;
  }
  checkpoint_cv_.notify_all();
  if (checkpoint_thread_.joinable()) checkpoint_thread_.join();
  if (wal_) (void)wal_->Close();  // clean close syncs: shutdown ≠ crash
}

StatusOr<std::unique_ptr<SpcService>> SpcService::Open(
    Graph bootstrap, const DurabilityOptions& durability,
    const DynamicSpcOptions& options) {
  if (durability.dir.empty()) {
    return Status::InvalidArgument("DurabilityOptions::dir must be set");
  }
  FileSystem* fs =
      durability.fs != nullptr ? durability.fs : FileSystem::Default();
  if (Status st = fs->CreateDir(durability.dir); !st.ok()) return st;
  RecoveryPlan plan;
  if (Status st = PlanRecovery(fs, durability.dir, &plan); !st.ok()) {
    return st;
  }

  std::unique_ptr<SpcService> service;
  if (plan.has_checkpoint) {
    DynamicSpcOptions engine_options = options;
    engine_options.initial_generation = plan.checkpoint.generation;
    service.reset(new SpcService(std::move(plan.checkpoint.graph),
                                 plan.checkpoint.index.Unpack(),
                                 engine_options));
    for (const ReplayOp& op : plan.ops) {
      if (Status st = ApplyReplayOp(&service->engine_, op); !st.ok()) {
        return st;
      }
    }
  } else {
    service.reset(new SpcService(std::move(bootstrap), options));
  }
  service->recovery_report_ = plan.report;
  if (!plan.has_checkpoint) {
    service->recovery_report_.recovered_generation = service->Generation();
  }
  service->metrics_.Add(Counter::kRecoveryReplayed, plan.report.replayed);
  service->metrics_.Add(Counter::kRecoveryTruncatedBytes,
                        plan.report.truncated_tail_bytes);
  service->fs_ = fs;
  if (Status st = service->StartDurability(durability, plan); !st.ok()) {
    return st;
  }
  return service;
}

StatusOr<std::unique_ptr<SpcService>> SpcService::OpenWithState(
    Graph graph, SpcIndex index, uint64_t generation,
    const DurabilityOptions& durability, const DynamicSpcOptions& options) {
  if (durability.dir.empty()) {
    return Status::InvalidArgument("DurabilityOptions::dir must be set");
  }
  FileSystem* fs =
      durability.fs != nullptr ? durability.fs : FileSystem::Default();
  if (Status st = fs->CreateDir(durability.dir); !st.ok()) return st;
  RecoveryPlan plan;
  if (Status st = PlanRecovery(fs, durability.dir, &plan); !st.ok()) {
    return st;
  }
  // Adopting external state over an existing durable lineage would
  // silently discard whatever that lineage acknowledged. PlanRecovery
  // already refuses the dangerous MANIFEST-less shapes with kDataLoss;
  // anything it would recover (a MANIFEST) is equally off limits here.
  if (plan.has_checkpoint) {
    return Status::InvalidArgument(
        "target directory already holds durable state (recover it with "
        "SpcService::Open, or point OpenWithState at a fresh directory): " +
        durability.dir);
  }
  DynamicSpcOptions engine_options = options;
  engine_options.initial_generation = generation;
  std::unique_ptr<SpcService> service(
      new SpcService(std::move(graph), std::move(index), engine_options));
  service->recovery_report_ = plan.report;
  service->recovery_report_.recovered_generation = generation;
  service->fs_ = fs;
  if (Status st = service->StartDurability(durability, plan); !st.ok()) {
    return st;
  }
  return service;
}

StatusOr<std::unique_ptr<WalShipper>> SpcService::NewShipper(
    Transport* transport, WalShipper::Options base) {
  if (fs_ == nullptr) {
    return Status::NotSupported(
        "WAL shipping needs a durable service (SpcService::Open)");
  }
  if (transport == nullptr) {
    return Status::InvalidArgument("NewShipper requires a transport");
  }
  WalShipper::Options options = std::move(base);
  options.transport = transport;
  options.retention = checkpointer_.get();
  options.synced_tip = [this] { return WalSyncedTip(); };
  if (!options.on_checkpoint_shipped) {
    options.on_checkpoint_shipped = [this] {
      metrics_.Add(Counter::kReplCheckpointsShipped);
    };
  }
  if (!options.on_segment_started) {
    options.on_segment_started = [this] {
      metrics_.Add(Counter::kReplSegmentsShipped);
    };
  }
  if (!options.on_bytes_shipped) {
    options.on_bytes_shipped = [this](uint64_t bytes) {
      metrics_.Add(Counter::kReplBytesShipped, bytes);
    };
  }
  if (!options.on_reconnect) {
    options.on_reconnect = [this] { metrics_.Add(Counter::kReplReconnects); };
  }
  if (!options.on_backoff_sleep) {
    options.on_backoff_sleep = [this] {
      metrics_.Add(Counter::kReplBackoffSleeps);
    };
  }
  return std::make_unique<WalShipper>(fs_, dur_options_.dir, options);
}

std::pair<uint64_t, uint64_t> SpcService::WalSyncedTip() {
  std::lock_guard<std::mutex> lock(dur_mu_);
  if (!wal_) return {0, 0};
  return {wal_->seq(), wal_->SyncedBytes()};
}

Status SpcService::StartDurability(const DurabilityOptions& durability,
                                   const RecoveryPlan& plan) {
  const uint64_t wal_seq = plan.next_wal_seq;
  dur_options_ = durability;
  dur_options_.fs = fs_;
  checkpointer_ = std::make_unique<Checkpointer>(fs_, durability.dir);
  WalWriter::Options wal_options;
  wal_options.sync = durability.sync;
  wal_options.flush_interval = durability.flush_interval;
  wal_options.on_sync = [this] { metrics_.Add(Counter::kWalSyncs); };
  auto wal = WalWriter::Create(
      fs_, durability.dir + "/" + WalSegmentFileName(wal_seq), wal_seq,
      engine_.Generation(), wal_options);
  if (!wal.ok()) return wal.status();
  wal_ = std::move(*wal);
  // Publish a checkpoint of the just-opened state so the directory is
  // immediately self-contained: replayed segments (or a crashed first
  // open's strays) are covered and garbage-collected right here, and
  // WAL growth restarts from zero after every recovery. The fallback
  // this publish retains is the checkpoint recovery actually loaded —
  // NOT the on-disk MANIFEST's current entry, which after a fallback
  // recovery names exactly the corrupt checkpoint (trusting it would
  // make GC delete the proven-good one and retain the unreadable one).
  // No writer exists yet: the engine's snapshot is of this generation.
  const std::shared_ptr<const FlatSpcIndex> flat = engine_.FlatSnapshot();
  CheckpointRef validated_prev;
  if (plan.has_checkpoint) {
    validated_prev.generation = plan.checkpoint.generation;
    validated_prev.wal_seq = plan.checkpoint_wal_seq;
  }
  if (Status st = checkpointer_->Publish(
          engine_.graph(), *flat, engine_.Generation(), wal_seq,
          plan.has_checkpoint ? &validated_prev : nullptr);
      !st.ok()) {
    return st;
  }
  metrics_.Add(Counter::kCheckpoints);
  if (dur_options_.checkpoint_wal_bytes != 0 ||
      dur_options_.checkpoint_wal_records != 0) {
    checkpoint_thread_ = std::thread([this] { CheckpointLoop(); });
  }
  return Status::OK();
}

Status SpcService::ValidateVertex(Vertex v, const char* what) const {
  const size_t n = engine_.NumVertices();
  if (static_cast<size_t>(v) < n) return Status::OK();
  metrics_.RecordRejected(Status::Code::kInvalidArgument);
  return Status::InvalidArgument(std::string(what) + " vertex id " +
                                 std::to_string(v) + " outside [0, " +
                                 std::to_string(n) + ")");
}

Status SpcService::RouteRead(const ReadOptions& options, size_t queries,
                             Vertex max_vertex, std::optional<uint64_t> tip,
                             ReadDecision* decision,
                             SnapshotManager::Pinned* pin) const {
  const uint64_t gen = engine_.Generation();
  ReadView view{.tip = tip.value_or(gen),
                .token_ceiling = tip ? kNoTokenCeiling : gen,
                .live = gen,
                .snapshot = std::nullopt};
  // Pinning has side effects (it charges the staleness budget, and under
  // kSync may rebuild inline), so a read no snapshot could admit is
  // refused before it pins.
  if (const Status::Code code = PrecheckRead(options, view);
      code != Status::Code::kOk) [[unlikely]] {
    metrics_.RecordRejected(code);
    return RefuseRead(options, view, code);
  }

  SnapshotManager::Pinned acquired;
  if (options.consistency == Consistency::kSnapshot) {
    // Never block: pin whatever is published. Under kBackground the pin
    // still charges the staleness budget so the worker keeps the
    // snapshot converging even for pure-snapshot workloads; under
    // kSync/kManual Acquire could rebuild inline or withhold a stale
    // pin, so take the raw (free) pin instead.
    acquired = engine_.snapshots()->policy() == RefreshPolicy::kBackground
                   ? engine_.AcquireSnapshot(gen, queries)
                   : engine_.PinSnapshot();
  } else if (options.timeout >= std::chrono::nanoseconds::zero() &&
             engine_.snapshots()->policy() == RefreshPolicy::kSync)
      [[unlikely]] {
    // Under kSync a budget-crossing Acquire rebuilds inline — an
    // unbounded wait on the writer lock inside the snapshot source. A
    // deadline-bounded read must never perform maintenance: take the
    // free pin and leave the inline rebuild to the next untimed read —
    // but still charge the staleness budget, so an all-timed workload
    // keeps the rebuild due instead of pinning staleness forever.
    acquired = engine_.PinSnapshot();
    if (!acquired || acquired.generation < gen) {
      engine_.ChargeSnapshotBudget(queries);
    }
  } else {
    // Budget-charging, so rebuilds keep getting scheduled.
    acquired = engine_.AcquireSnapshot(gen, queries);
  }
  if (acquired && max_vertex < acquired->NumVertices()) {
    view.snapshot = acquired.generation;
  }

  *decision = AdmitRead(options, view);
  if (!decision->ok()) [[unlikely]] {
    metrics_.RecordRejected(decision->code);
    return RefuseRead(options, view, decision->code);
  }
  if (decision->served_from == ServedFrom::kSnapshot) {
    // Same pacing as the engine's own query path: every snapshot-served
    // read paces while a writer is mid-update (or the snapshot trails too
    // far), current pin or not.
    engine_.YieldForMaintenance(gen, acquired.generation);
    *pin = std::move(acquired);
  }
  return Status::OK();
}

StatusOr<QueryResponse> SpcService::Query(Vertex s, Vertex t,
                                          const ReadOptions& options) const {
  return ServeQuery(s, t, options, std::nullopt);
}

StatusOr<QueryResponse> SpcService::Query(Vertex s, Vertex t,
                                          const ReadOptions& options,
                                          uint64_t tip) const {
  return ServeQuery(s, t, options, tip);
}

StatusOr<QueryResponse> SpcService::ServeQuery(
    Vertex s, Vertex t, const ReadOptions& options,
    std::optional<uint64_t> tip) const {
  const VertexPair pair{s, t};
  if (Status st = ValidatePairs({&pair, 1}, engine_.NumVertices()); !st.ok())
      [[unlikely]] {
    metrics_.RecordRejected(Status::Code::kInvalidArgument);
    return st;
  }

  const LatencyTimer timer(SampleReadLatency());
  ReadDecision decision;
  SnapshotManager::Pinned pin;
  if (Status st =
          RouteRead(options, 1, std::max(s, t), tip, &decision, &pin);
      !st.ok()) [[unlikely]] {
    return st;
  }

  // Responses are built fully formed in the return slot (no default
  // construction + field-by-field overwrite): this path runs per query.
  if (pin) {
    metrics_.RecordRead(options.consistency, ServedFrom::kSnapshot,
                        decision.staleness, 1, false);
    // Hot-pair cache (DESIGN.md §15): keyed by the generation of the
    // snapshot that is ABOUT to serve this read, so a hit is by
    // construction the exact answer that snapshot would compute —
    // min_generation / token semantics were already enforced when
    // admission picked the pin. A miss computes and offers the answer.
    if (pair_cache_ != nullptr) {
      SpcResult cached;
      if (!pair_cache_->Lookup(s, t, pin.generation, &cached)) {
        cached = pin->Query(s, t);
        pair_cache_->Insert(s, t, pin.generation, cached);
      }
      StatusOr<QueryResponse> out(std::in_place, cached, pin.generation,
                                  decision.staleness, ServedFrom::kSnapshot);
      timer.Finish(&metrics_, options.consistency);
      return out;
    }
    StatusOr<QueryResponse> out(std::in_place, pin->Query(s, t),
                                pin.generation, decision.staleness,
                                ServedFrom::kSnapshot);
    timer.Finish(&metrics_, options.consistency);
    return out;
  }
  // Live serving — the one read path that can wait on a writer, so the
  // one place the per-call deadline binds. The response generation is
  // re-read under the lock: a write that finished while we waited is in
  // the answer, so the admission-time value would understate it.
  uint64_t generation = decision.generation;
  SpcResult live;
  if (options.timeout >= std::chrono::nanoseconds::zero()) [[unlikely]] {
    if (!engine_.QueryLiveBefore(s, t, DeadlineFor(options.timeout), &live,
                                 &generation)) {
      metrics_.Add(Counter::kReadDeadlineMisses);
      return LiveReadDeadlineExceeded();
    }
  } else {
    live = engine_.QueryLive(s, t, &generation);
  }
  metrics_.RecordRead(options.consistency, ServedFrom::kLiveIndex,
                      decision.staleness, 1, false);
  timer.Finish(&metrics_, options.consistency);
  return StatusOr<QueryResponse>(std::in_place, live, generation,
                                 decision.staleness, ServedFrom::kLiveIndex);
}

StatusOr<BatchQueryResponse> SpcService::QueryBatch(
    std::span<const VertexPair> pairs, const ReadOptions& options) const {
  return QueryBatch(pairs, options, std::nullopt);
}

StatusOr<BatchQueryResponse> SpcService::QueryBatch(
    std::span<const VertexPair> pairs, const ReadOptions& options,
    std::optional<uint64_t> tip) const {
  if (Status st = ValidatePairs(pairs, engine_.NumVertices()); !st.ok()) {
    metrics_.RecordRejected(Status::Code::kInvalidArgument);
    return st;
  }
  Vertex max_vertex = 0;
  for (const auto& [s, t] : pairs) max_vertex = std::max({max_vertex, s, t});

  // Batches always time: the call amortizes the two clock reads.
  const LatencyTimer timer(true);
  ReadDecision decision;
  SnapshotManager::Pinned pin;
  if (Status st = RouteRead(options, pairs.size(), max_vertex, tip,
                            &decision, &pin);
      !st.ok()) {
    return st;
  }

  StatusOr<BatchQueryResponse> out(std::in_place);
  out->staleness = decision.staleness;
  out->served_from = decision.served_from;
  if (pin) {
    // Batches bypass the pair cache deliberately: the parallel fan-out
    // below would serialize on the cache's shard locks, and batch
    // traffic has none of the single-read repetition the cache exists
    // for.
    //
    // Snapshot-served batches hold no lock, so queueing on the shared
    // pool's serialized regions can only delay them, never stall a
    // writer or void the deadline contract (which bounds the
    // writer-lock wait only) — timed and untimed batches alike use the
    // shared pool: no per-batch thread spawns on the serving path.
    out->results = pin->QueryManyParallel(
        pairs, options.threads,
        engine_.PoolForBatch(pairs.size(), options.threads));
    out->generation = pin.generation;
  } else {
    out->generation = decision.generation;
    if (options.timeout >= std::chrono::nanoseconds::zero()) [[unlikely]] {
      if (!engine_.BatchQueryLiveBefore(pairs, options.threads,
                                        DeadlineFor(options.timeout),
                                        &out->results, &out->generation)) {
        metrics_.Add(Counter::kReadDeadlineMisses);
        return LiveReadDeadlineExceeded();
      }
    } else {
      out->results =
          engine_.BatchQueryLive(pairs, options.threads, &out->generation);
    }
  }
  metrics_.RecordRead(options.consistency, out->served_from, out->staleness,
                      pairs.size(), true);
  timer.Finish(&metrics_, options.consistency);
  return out;
}

StatusOr<UpdateResponse> SpcService::ApplyUpdates(
    std::span<const Update> updates, const WriteOptions& write) {
  return Write({.updates = updates}, write);
}

StatusOr<UpdateResponse> SpcService::InsertEdge(Vertex u, Vertex v,
                                                const WriteOptions& write) {
  // Single-edge calls keep the strict contract: a bad endpoint fails the
  // call (there is no partial batch a caller could still want).
  if (Status st = ValidateVertex(u, "edge"); !st.ok()) return st;
  if (Status st = ValidateVertex(v, "edge"); !st.ok()) return st;
  const Update update = Update::Insert(u, v);
  return ApplyUpdates({&update, 1}, write);
}

StatusOr<UpdateResponse> SpcService::RemoveEdge(Vertex u, Vertex v,
                                                const WriteOptions& write) {
  if (Status st = ValidateVertex(u, "edge"); !st.ok()) return st;
  if (Status st = ValidateVertex(v, "edge"); !st.ok()) return st;
  const Update update = Update::Delete(u, v);
  return ApplyUpdates({&update, 1}, write);
}

AddVertexResponse SpcService::AddVertex(const WriteOptions& write) {
  AddVertexResponse resp;
  Vertex added = kInvalidVertex;
  const StatusOr<UpdateResponse> out = Write({.add_vertex = &added}, write);
  // A refused write leaves resp.vertex == kInvalidVertex: the signal.
  if (out.ok()) {
    resp.vertex = added;
    resp.token = out->token;
  }
  return resp;
}

StatusOr<UpdateResponse> SpcService::RemoveVertex(Vertex v,
                                                 const WriteOptions& write) {
  if (Status st = ValidateVertex(v, "vertex"); !st.ok()) return st;
  return Write({.remove_vertex = v}, write);
}

StatusOr<UpdateResponse> SpcService::Write(const WriteOp& op,
                                           const WriteOptions& write) {
  StatusOr<UpdateResponse> out(std::in_place);
  UpdateResponse& resp = *out;
  bool journaled = false;
  uint64_t commit_offset = 0;
  std::shared_ptr<WalWriter> wal;
  {
    // dur_mu_ serializes every write: WAL order and engine apply order are
    // the same order by construction, which is what makes replay
    // deterministic. It is taken BEFORE the engine's writer lock (inside
    // ApplyBatch), never the other way around.
    std::lock_guard<std::mutex> lock(dur_mu_);
    if (dur_failed_) {
      metrics_.RecordRejected(dur_error_.code());
      return dur_error_;
    }
    journaled = wal_ != nullptr;
    // A vertex removal is the batch of its edge deletes (paper Section 3),
    // read under the serialization that applies it.
    std::vector<Update> deletes;
    std::span<const Update> updates = op.updates;
    if (op.remove_vertex != kInvalidVertex) {
      for (const Vertex u : engine_.Neighbors(op.remove_vertex)) {
        deletes.push_back(Update::Delete(op.remove_vertex, u));
      }
      updates = deletes;
    }
    // An intent record larger than kWalMaxRecordBytes would be refused by
    // the WAL (and, were it ever written, read back as a torn tail —
    // losing an acknowledged write at recovery). Refused before any
    // per-update work.
    if (journaled && updates.size() > kWalMaxBatchUpdates) {
      metrics_.RecordRejected(Status::Code::kInvalidArgument);
      return Status::InvalidArgument(
          "durable batch of " + std::to_string(updates.size()) +
          " updates exceeds the per-call cap of " +
          std::to_string(kWalMaxBatchUpdates) +
          " (its WAL intent record would not fit one frame); split the "
          "batch");
    }

    // Admission is per update: out-of-range endpoints are rejected
    // individually (kRejected report) while the valid remainder applies;
    // `position` maps each admitted update back to its input slot.
    const size_t n = engine_.NumVertices();
    WalRecord intent;
    intent.kind = op.add_vertex != nullptr ? WalRecord::Kind::kAddVertex
                                           : WalRecord::Kind::kBatch;
    intent.generation = engine_.Generation();
    intent.vertex = static_cast<Vertex>(n);  // kAddVertex: the id it makes
    intent.updates.reserve(updates.size());
    std::vector<size_t> position;
    position.reserve(updates.size());
    resp.reports.resize(updates.size());
    for (size_t i = 0; i < updates.size(); ++i) {
      const Edge& e = updates[i].edge;
      if (static_cast<size_t>(e.u) >= n || static_cast<size_t>(e.v) >= n) {
        resp.reports[i].outcome = WriteReport::Outcome::kRejected;
        resp.reports[i].reason =
            "endpoint vertex id outside [0, NumVertices())";
        continue;
      }
      intent.updates.push_back(updates[i]);
      position.push_back(i);
    }
    resp.token.generation = intent.generation;
    if (op.add_vertex != nullptr || !intent.updates.empty()) {
      // Intent before apply, commit (with per-update outcomes) after:
      // recovery replays only paired records, so a crash anywhere in
      // between loses exactly the unacknowledged tail and nothing else.
      if (journaled) {
        intent.seq = NextBatchSeqLocked();
        if (auto off = AppendWalLocked(EncodeWalRecord(intent)); !off.ok()) {
          return off.status();
        }
      }
      WalRecord commit;
      commit.kind = WalRecord::Kind::kCommit;
      commit.seq = intent.seq;
      if (op.add_vertex != nullptr) {
        *op.add_vertex = engine_.AddVertex();
        WriteReport& report = resp.reports.emplace_back();
        report.outcome = WriteReport::Outcome::kApplied;
        report.reason = "applied";
        report.generation = engine_.Generation();
      } else {
        std::vector<WriteReport> sub;
        resp.stats = engine_.ApplyBatch(intent.updates, &sub);
        commit.outcomes.resize(sub.size());
        for (size_t j = 0; j < sub.size(); ++j) {
          commit.outcomes[j] = sub[j].applied() ? 1 : 0;
          resp.reports[position[j]] = sub[j];
        }
      }
      commit.generation = engine_.Generation();
      resp.token.generation = commit.generation;
      if (journaled) {
        // The engine applied either way, but a write whose commit record
        // never reached the log must not be acknowledged: recovery would
        // drop it. Fail the call (and the service — AppendWalLocked has
        // already latched fail-stop).
        auto off = AppendWalLocked(EncodeWalRecord(commit));
        if (!off.ok()) return off.status();
        commit_offset = *off;
        wal = wal_;
      }
    }
    MaybeTriggerCheckpointLocked();
  }

  if (op.remove_vertex != kInvalidVertex) {
    // The deletes fold back into one report: a vertex removal is one
    // logical update.
    resp.reports.assign(1, WriteReport{});
    WriteReport& report = resp.reports[0];
    if (resp.stats.applied) {
      report.outcome = WriteReport::Outcome::kApplied;
      report.reason = "applied";
      report.generation = resp.token.generation;
      report.stats = resp.stats;
    } else {
      report.reason = "vertex already isolated";
    }
  }
  for (const WriteReport& report : resp.reports) {
    switch (report.outcome) {
      case WriteReport::Outcome::kApplied:
        ++resp.applied;
        break;
      case WriteReport::Outcome::kNoOp:
        ++resp.noops;
        break;
      case WriteReport::Outcome::kRejected:
        ++resp.rejected;
        break;
    }
  }
  metrics_.RecordWrite(resp.reports.size(), resp.applied, resp.noops,
                       resp.rejected);
  // Only a durable service can promise durability; there, a write that
  // journaled nothing is trivially durable.
  if (write.durable && journaled) {
    if (wal) {
      metrics_.Add(Counter::kWalDurableWaits);
      if (Status st = WaitDurableOffset(wal, commit_offset); !st.ok()) {
        return st;
      }
    }
    resp.token.durable = true;
  }
  return out;
}

StatusOr<uint64_t> SpcService::AppendWalLocked(
    const std::vector<uint8_t>& payload) {
  auto off = wal_->AppendRecord(payload);
  if (!off.ok()) return FailDurabilityLocked(off.status());
  metrics_.Add(Counter::kWalAppends);
  metrics_.Add(Counter::kWalAppendedBytes,
               payload.size() + kWalRecordOverheadBytes);
  return off;
}

Status SpcService::FailDurabilityLocked(Status st) {
  if (!dur_failed_) {
    dur_failed_ = true;
    dur_error_ = std::move(st);
    metrics_.Add(Counter::kWalFailures);
  }
  return dur_error_;  // the FIRST failure is the story, always
}

Status SpcService::WaitDurableOffset(const std::shared_ptr<WalWriter>& wal,
                                     uint64_t offset) {
  // Called WITHOUT dur_mu_: group commit blocks here and concurrent
  // writers must keep appending (that is the whole point of batching).
  // The shared_ptr keeps the segment alive across a concurrent rotation;
  // rotation Closes the old segment, and Close's final sync satisfies
  // this wait.
  Status st = wal->WaitDurable(offset);
  if (!st.ok()) {
    std::lock_guard<std::mutex> lock(dur_mu_);
    return FailDurabilityLocked(std::move(st));
  }
  return st;
}

Status SpcService::PublishSnapshot(SnapshotPublisher* publisher) {
  if (publisher == nullptr) {
    return Status::InvalidArgument("PublishSnapshot: null publisher");
  }
  // Same capture discipline as CheckpointLocked, minus the WAL rotation:
  // FreezeWrites blocks engine writers only, so reads keep serving while
  // the (generation, index) pair is copied; the arena write then happens
  // outside every lock.
  uint64_t gen = 0;
  std::unique_ptr<FlatSpcIndex> flat;
  {
    auto freeze = engine_.FreezeWrites();
    gen = engine_.Generation();
    flat = std::make_unique<FlatSpcIndex>(engine_.index());
  }
  const uint64_t wal_seq = Durable() ? WalSyncedTip().first : 0;
  Status st = publisher->Publish(*flat, gen, wal_seq);
  if (st.ok()) metrics_.Add(Counter::kSnapshotPublishes);
  return st;
}

Status SpcService::Checkpoint() {
  if (fs_ == nullptr) {
    return Status::NotSupported(
        "not a durable service (construct with SpcService::Open)");
  }
  std::lock_guard<std::mutex> lock(dur_mu_);
  if (dur_failed_) return dur_error_;
  return CheckpointLocked();
}

Status SpcService::CheckpointLocked() {
  // Capture a consistent (generation, graph, index) triple. FreezeWrites
  // only blocks engine writers — readers keep serving throughout; and
  // since dur_mu_ is held, no durable writer can be mid-append anyway.
  uint64_t gen = 0;
  Graph graph_copy;
  std::unique_ptr<FlatSpcIndex> flat;
  {
    auto freeze = engine_.FreezeWrites();
    gen = engine_.Generation();
    graph_copy = engine_.graph();
    flat = std::make_unique<FlatSpcIndex>(engine_.index());
  }
  // Rotate first: the new segment must exist (and carry base_generation
  // == gen) before the manifest can point at it. A crash between the
  // two leaves the old manifest in charge — the old segment run is still
  // contiguous, the new segment is just an empty stray.
  const uint64_t new_seq = wal_->seq() + 1;
  WalWriter::Options wal_options;
  wal_options.sync = dur_options_.sync;
  wal_options.flush_interval = dur_options_.flush_interval;
  wal_options.on_sync = [this] { metrics_.Add(Counter::kWalSyncs); };
  auto next = WalWriter::Create(
      fs_, dur_options_.dir + "/" + WalSegmentFileName(new_seq), new_seq,
      gen, wal_options);
  if (!next.ok()) return FailDurabilityLocked(next.status());
  std::shared_ptr<WalWriter> old = wal_;
  wal_ = std::move(*next);
  batch_seq_in_segment_ = 0;  // pairing keys are scoped per segment
  // Close syncs everything appended before tearing down, so records the
  // checkpoint is about to cover — and any in-flight durable waiters on
  // the old segment — are safe before the manifest moves past them.
  if (Status st = old->Close(); !st.ok()) return FailDurabilityLocked(st);
  if (Status st = checkpointer_->Publish(graph_copy, *flat, gen, new_seq);
      !st.ok()) {
    return FailDurabilityLocked(st);
  }
  metrics_.Add(Counter::kCheckpoints);
  return Status::OK();
}

void SpcService::MaybeTriggerCheckpointLocked() {
  if (!checkpoint_thread_.joinable() || dur_failed_ ||
      checkpoint_requested_) {
    return;
  }
  const uint64_t bytes = dur_options_.checkpoint_wal_bytes;
  const uint64_t records = dur_options_.checkpoint_wal_records;
  const bool due =
      (bytes != 0 && wal_->AppendedBytes() >= bytes) ||
      (records != 0 && wal_->AppendedRecords() >= records);
  if (due) {
    checkpoint_requested_ = true;
    checkpoint_cv_.notify_one();
  }
}

void SpcService::CheckpointLoop() {
  std::unique_lock<std::mutex> lock(dur_mu_);
  while (!stop_checkpointer_) {
    checkpoint_cv_.wait(lock, [&] {
      return stop_checkpointer_ || checkpoint_requested_;
    });
    checkpoint_requested_ = false;
    if (stop_checkpointer_ || dur_failed_) continue;
    // Failure latches fail-stop (visible to every writer); nothing to
    // return to from a background trigger.
    (void)CheckpointLocked();
  }
}

Status SpcService::WaitForSnapshotUntil(
    WriteToken token, bool timed,
    std::chrono::steady_clock::time_point deadline) const {
  if (token.generation > engine_.Generation()) {
    metrics_.RecordRejected(Status::Code::kInvalidArgument);
    return Status::InvalidArgument(
        "token generation " + std::to_string(token.generation) +
        " exceeds the current generation — not issued by this service");
  }
  const auto pin = timed
                       ? engine_.AwaitSnapshotAtLeast(token.generation,
                                                      deadline)
                       : engine_.AwaitSnapshotAtLeast(token.generation);
  if (!pin || pin.generation < token.generation) {
    if (timed) {
      metrics_.Add(Counter::kWaitDeadlineMisses);
      return Status::DeadlineExceeded(
          "published snapshot did not reach generation " +
          std::to_string(token.generation) + " before the deadline");
    }
    return Status::Unavailable(
        "snapshot manager stopped before reaching generation " +
        std::to_string(token.generation));
  }
  return Status::OK();
}

Status SpcService::WaitForSnapshot(WriteToken token) const {
  return WaitForSnapshotUntil(token, /*timed=*/false, {});
}

Status SpcService::WaitForSnapshot(WriteToken token,
                                   std::chrono::nanoseconds timeout) const {
  if (timeout < std::chrono::nanoseconds::zero()) {
    return WaitForSnapshotUntil(token, /*timed=*/false, {});
  }
  return WaitForSnapshotUntil(token, /*timed=*/true, DeadlineFor(timeout));
}

MetricsSnapshot SpcService::Metrics() const {
  MetricsSnapshot snap = metrics_.Snapshot();
  // Pair-cache counters live in the cache itself (its shard locks
  // already serialize them); fold them into the snapshot here, the same
  // overlay pattern the replica gauges use.
  if (pair_cache_ != nullptr) {
    const PairCache::Stats stats = pair_cache_->StatsSnapshot();
    snap.pair_cache_hits = stats.hits;
    snap.pair_cache_misses = stats.misses;
    snap.pair_cache_insertions = stats.insertions;
    snap.pair_cache_evictions = stats.evictions;
  }
  snap.reader_pacing_yields = engine_.ReaderPacingYields();
  return snap;
}

}  // namespace dspc
