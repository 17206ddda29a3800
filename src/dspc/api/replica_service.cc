#include "dspc/api/replica_service.h"

#include <algorithm>
#include <utility>

#include "dspc/common/binary_io.h"
#include "dspc/persist/checkpointer.h"
#include "dspc/persist/recovery.h"

namespace dspc {

namespace {

using Counter = ServiceMetrics::Counter;

uint32_t LoadLE32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

uint64_t LoadLE64(const uint8_t* p) {
  return static_cast<uint64_t>(LoadLE32(p)) |
         (static_cast<uint64_t>(LoadLE32(p + 4)) << 32);
}

/// Validates a shipped segment's header against the replica's chain
/// position. The faults a Transport may inject are byte-preserving
/// (prefixes, duplicates, delays — never corruption), so a damaged or
/// mismatched header here is genuine divergence between what the primary
/// wrote and what the replica expects: kDataLoss, not a retry.
Status CheckShippedHeader(std::span<const uint8_t> window, uint64_t seq,
                          uint64_t chain_generation) {
  const uint8_t* p = window.data();
  const uint32_t crc = LoadLE32(p + kWalHeaderBytes - 4);
  if (Crc32c(p, kWalHeaderBytes - 4) != crc || LoadLE32(p) != kWalMagic ||
      LoadLE32(p + 4) != kWalVersion) {
    return Status::DataLoss("shipped segment header damaged: " +
                            WalSegmentFileName(seq));
  }
  if (LoadLE64(p + 8) != seq) {
    return Status::DataLoss("shipped segment names seq " +
                            std::to_string(LoadLE64(p + 8)) +
                            ", store filed it as " + std::to_string(seq));
  }
  const uint64_t base = LoadLE64(p + 16);
  if (base != chain_generation) {
    return Status::DataLoss(
        "replica diverged: " + WalSegmentFileName(seq) +
        " chains from generation " + std::to_string(base) +
        ", replica applied through " + std::to_string(chain_generation));
  }
  return Status::OK();
}

/// Absolute deadline for a non-negative timeout, saturating instead of
/// overflowing (so nanoseconds::max() means "practically forever").
std::chrono::steady_clock::time_point SaturatingDeadline(
    std::chrono::nanoseconds timeout) {
  const auto now = std::chrono::steady_clock::now();
  if (timeout >= std::chrono::steady_clock::time_point::max() - now) {
    return std::chrono::steady_clock::time_point::max();
  }
  return now + timeout;
}

}  // namespace

ReplicaService::ReplicaService(const ReplicaOptions& options)
    : options_(options) {}

StatusOr<std::unique_ptr<ReplicaService>> ReplicaService::Open(
    const ReplicaOptions& options) {
  if (options.transport == nullptr) {
    return Status::InvalidArgument("ReplicaOptions::transport must be set");
  }
  std::unique_ptr<ReplicaService> replica(new ReplicaService(options));
  ReplicationBackoff backoff(options.backoff);
  const bool timed = options.bootstrap_timeout >= std::chrono::nanoseconds{0};
  const auto deadline = timed ? SaturatingDeadline(options.bootstrap_timeout)
                              : std::chrono::steady_clock::time_point{};
  for (;;) {
    Status st;
    {
      std::lock_guard<std::mutex> lock(replica->step_mu_);
      auto state = options.transport->FetchState();
      if (state.ok()) {
        st = replica->BootstrapLocked(*state);
        if (st.ok()) {
          replica->primary_durable_.store(
              std::max(state->durable_generation,
                       replica->applied_.load(std::memory_order_acquire)),
              std::memory_order_release);
        }
      } else {
        st = state.status();
      }
    }
    if (st.ok()) break;
    // BootstrapLocked keeps transfer damage retryable, so kDataLoss here
    // would be a store that actively lies; don't spin on it.
    if (st.IsDataLoss()) return st;
    if (timed && std::chrono::steady_clock::now() >= deadline) {
      return Status::DeadlineExceeded("replica bootstrap timed out: " +
                                      st.ToString());
    }
    replica->metrics_.Add(Counter::kReplBackoffSleeps);
    std::this_thread::sleep_for(backoff.Next());
  }
  if (options.start_tailer) replica->Start();
  return replica;
}

ReplicaService::~ReplicaService() { Stop(); }

Status ReplicaService::BootstrapLocked(const ShipState& state) {
  if (state.checkpoint_generation == 0) {
    return Status::Unavailable(
        "nothing to bootstrap from: no checkpoint shipped yet");
  }
  std::vector<uint8_t> bytes;
  if (Status st = options_.transport->FetchCheckpoint(
          state.checkpoint_generation, &bytes);
      !st.ok()) {
    return st;
  }
  LoadedCheckpoint ckpt;
  if (Status st = ParseCheckpointBytes(
          std::move(bytes), state.checkpoint_generation,
          "shipped checkpoint " + std::to_string(state.checkpoint_generation),
          &ckpt);
      !st.ok()) {
    // Over a faulty transport a mangled transfer and primary-side damage
    // are indistinguishable, and an honest re-fetch resolves the former
    // — keep it retryable instead of fail-stopping the replica.
    return Status::Unavailable("shipped checkpoint unreadable, re-fetching: " +
                               st.ToString());
  }
  DynamicSpcOptions engine_options = options_.engine;
  engine_options.initial_generation = ckpt.generation;
  auto fresh = std::make_shared<SpcService>(
      std::move(ckpt.graph), ckpt.index.Unpack(), engine_options);
  {
    std::lock_guard<std::mutex> lock(inner_mu_);
    inner_ = std::move(fresh);
  }
  cursor_.emplace(ckpt.generation);
  tail_seq_ = state.checkpoint_wal_seq;
  tail_offset_ = 0;
  applied_.store(ckpt.generation, std::memory_order_release);
  return Status::OK();
}

std::shared_ptr<SpcService> ReplicaService::Inner() const {
  std::lock_guard<std::mutex> lock(inner_mu_);
  return inner_;
}

Status ReplicaService::Step() {
  std::lock_guard<std::mutex> lock(step_mu_);
  if (Status st = Health(); !st.ok()) return st;
  Status st = StepLocked();
  if (st.IsDataLoss()) {
    // Divergence is sticky: a replica whose state is known to disagree
    // with the primary must stop serving progress, loudly.
    {
      std::lock_guard<std::mutex> health_lock(health_mu_);
      health_ = st;
    }
    failed_.store(true, std::memory_order_release);
  } else if (st.ok()) {
    if (last_failed_) {
      last_failed_ = false;
      metrics_.Add(Counter::kReplReconnects);
    }
  } else {
    last_failed_ = true;
  }
  return st;
}

Status ReplicaService::StepLocked() {
  if (promoted_) {
    return Status::Unavailable("replica was promoted; tailing is stopped");
  }
  auto state = options_.transport->FetchState();
  if (!state.ok()) return state.status();
  {
    // Monotone: a re-fetch can race an in-flight publish backwards.
    uint64_t prev = primary_durable_.load(std::memory_order_relaxed);
    while (state->durable_generation > prev &&
           !primary_durable_.compare_exchange_weak(
               prev, state->durable_generation, std::memory_order_release,
               std::memory_order_relaxed)) {
    }
  }
  if (tail_seq_ < state->min_wal_seq) {
    // The store retired a segment this tail still needed — the replica
    // was down (or slow) past the primary's retention horizon. Jump
    // forward through the newer checkpoint.
    metrics_.Add(Counter::kReplRebootstraps);
    return BootstrapLocked(*state);
  }
  while (state->max_wal_seq >= tail_seq_ && state->max_wal_seq != 0) {
    std::vector<uint8_t> window;
    Status fetched =
        options_.transport->FetchSegment(tail_seq_, tail_offset_, &window);
    if (fetched.IsNotFound()) {
      // Retired between FetchState and the fetch: re-bootstrap off a
      // freshly fetched state (the stale one may name retired artifacts).
      metrics_.Add(Counter::kReplRebootstraps);
      auto fresh = options_.transport->FetchState();
      if (!fresh.ok()) return fresh.status();
      return BootstrapLocked(*fresh);
    }
    if (!fetched.ok()) return fetched;
    size_t header_bytes = 0;
    if (tail_offset_ < kWalHeaderBytes) {
      // The header is consumed whole, so tail_offset_ is 0 here.
      if (window.size() < kWalHeaderBytes) break;  // still in flight
      if (Status st = CheckShippedHeader(window, tail_seq_,
                                         cursor_->generation());
          !st.ok()) {
        return st;
      }
      header_bytes = kWalHeaderBytes;
    }
    std::vector<WalRecord> records;
    auto consumed = ParseWalFrameWindow(
        std::span<const uint8_t>(window.data() + header_bytes,
                                 window.size() - header_bytes),
        &records);
    if (!consumed.ok()) return consumed.status();
    if (Status st = ApplyWindowLocked(std::move(records)); !st.ok()) {
      return st;
    }
    tail_offset_ += header_bytes + *consumed;
    const bool window_drained = header_bytes + *consumed == window.size();
    if (!window_drained || state->max_wal_seq == tail_seq_) break;
    // Everything fetched was consumed and the shipper moved on to a
    // later segment — it only does that once this one is fully shipped.
    ++tail_seq_;
    tail_offset_ = 0;
  }
  return Status::OK();
}

Status ReplicaService::ApplyWindowLocked(std::vector<WalRecord> records) {
  std::vector<ReplayOp> ops;
  for (WalRecord& rec : records) {
    if (Status st = cursor_->Feed(std::move(rec), &ops); !st.ok()) return st;
  }
  if (ops.empty()) return Status::OK();
  const std::shared_ptr<SpcService> inner = Inner();
  for (const ReplayOp& op : ops) {
    if (Status st = ApplyReplayOp(&inner->engine(), op); !st.ok()) return st;
    // Publish progress per op, not per window: a reader's min_generation
    // is satisfiable the instant its write is applied.
    applied_.store(op.end_generation, std::memory_order_release);
  }
  metrics_.Add(Counter::kReplOpsApplied, ops.size());
  return Status::OK();
}

void ReplicaService::Start() {
  {
    std::lock_guard<std::mutex> step(step_mu_);
    if (promoted_) return;
  }
  std::lock_guard<std::mutex> lock(tail_mu_);
  if (tail_.joinable()) return;
  stop_tail_ = false;
  tail_ = std::thread([this] { TailLoop(); });
}

void ReplicaService::Stop() {
  std::thread t;
  {
    std::lock_guard<std::mutex> lock(tail_mu_);
    stop_tail_ = true;
    t = std::move(tail_);
  }
  tail_cv_.notify_all();
  if (t.joinable()) t.join();
}

void ReplicaService::TailLoop() {
  ReplicationBackoff backoff(options_.backoff);
  std::unique_lock<std::mutex> lock(tail_mu_);
  while (!stop_tail_) {
    lock.unlock();
    const Status st = Step();
    std::chrono::microseconds delay = options_.poll_interval;
    if (st.ok()) {
      backoff.Reset();
    } else if (st.IsDataLoss()) {
      return;  // sticky fail-stop; Health() carries the story
    } else {
      delay = backoff.Next();
      metrics_.Add(Counter::kReplBackoffSleeps);
    }
    lock.lock();
    if (tail_cv_.wait_for(lock, delay, [&] { return stop_tail_; })) break;
  }
}

uint64_t ReplicaService::PrimaryDurableGeneration() const {
  return std::max(primary_durable_.load(std::memory_order_acquire),
                  applied_.load(std::memory_order_acquire));
}

Status ReplicaService::Health() const {
  if (!failed_.load(std::memory_order_acquire)) return Status::OK();
  std::lock_guard<std::mutex> lock(health_mu_);
  return health_;
}

bool ReplicaService::Promoted() const {
  std::lock_guard<std::mutex> lock(step_mu_);
  return promoted_;
}

// Reads run the inner service's admission with the primary's durable
// generation as the tip (file comment).
StatusOr<QueryResponse> ReplicaService::Query(
    Vertex s, Vertex t, const ReadOptions& options) const {
  if (Status st = Health(); !st.ok()) return st;
  return Inner()->Query(s, t, options, PrimaryDurableGeneration());
}

StatusOr<BatchQueryResponse> ReplicaService::QueryBatch(
    std::span<const VertexPair> pairs, const ReadOptions& options) const {
  if (Status st = Health(); !st.ok()) return st;
  return Inner()->QueryBatch(pairs, options, PrimaryDurableGeneration());
}

MetricsSnapshot ReplicaService::Metrics() const {
  MetricsSnapshot snap = Inner()->Metrics();
  metrics_.AddTo(&snap);  // the replica's own replication counters
  const uint64_t applied = applied_.load(std::memory_order_acquire);
  snap.replica_applied_generation = applied;
  snap.replica_lag = PrimaryDurableGeneration() - applied;
  return snap;
}

StatusOr<std::unique_ptr<SpcService>> ReplicaService::Promote(
    const DurabilityOptions& durability,
    std::chrono::nanoseconds drain_timeout) {
  Stop();
  std::lock_guard<std::mutex> lock(step_mu_);
  if (promoted_) {
    return Status::InvalidArgument("replica already promoted");
  }
  if (Status st = Health(); !st.ok()) return st;
  // Drain: keep stepping (with backoff through transport faults) until
  // every durably-acked byte in the store has been applied. The store
  // outlives a crashed primary, so this terminates at exactly the last
  // generation the old primary acknowledged — no acked write lost, no
  // unacked write invented.
  ReplicationBackoff backoff(options_.backoff);
  const bool timed = drain_timeout >= std::chrono::nanoseconds{0};
  const auto deadline = timed ? SaturatingDeadline(drain_timeout)
                              : std::chrono::steady_clock::time_point{};
  for (;;) {
    Status st = StepLocked();
    if (st.IsDataLoss()) {
      {
        std::lock_guard<std::mutex> health_lock(health_mu_);
        health_ = st;
      }
      failed_.store(true, std::memory_order_release);
      return st;
    }
    const uint64_t applied = applied_.load(std::memory_order_acquire);
    if (st.ok() &&
        applied >= primary_durable_.load(std::memory_order_acquire)) {
      break;
    }
    if (timed && std::chrono::steady_clock::now() >= deadline) {
      return Status::DeadlineExceeded(
          "promote drain timed out at generation " + std::to_string(applied) +
          " of " +
          std::to_string(primary_durable_.load(std::memory_order_acquire)) +
          (st.ok() ? std::string() : "; last error: " + st.ToString()));
    }
    metrics_.Add(Counter::kReplBackoffSleeps);
    std::this_thread::sleep_for(backoff.Next());
  }
  // Reopen the drained state writable. The tailer is stopped and
  // step_mu_ is held, so the inner engine is quiescent — copying it is
  // a consistent capture at exactly the drained generation.
  const std::shared_ptr<SpcService> inner = Inner();
  Graph graph = inner->engine().graph();
  SpcIndex index = inner->engine().index();
  auto next = SpcService::OpenWithState(
      std::move(graph), std::move(index),
      applied_.load(std::memory_order_acquire), durability, options_.engine);
  if (!next.ok()) return next.status();
  promoted_ = true;
  metrics_.Add(Counter::kReplFailovers);
  return next;
}

}  // namespace dspc
