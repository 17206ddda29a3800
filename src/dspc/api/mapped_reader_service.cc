#include "dspc/api/mapped_reader_service.h"

#include <unistd.h>

#include <utility>

#include "dspc/persist/snapshot_arena.h"

namespace dspc {

namespace {

uint64_t SelfPid() { return static_cast<uint64_t>(::getpid()); }

}  // namespace

MappedReaderService::MappedReaderService(std::string dir,
                                         MappedReaderOptions options)
    : fs_(options.fs != nullptr ? options.fs : FileSystem::Default()),
      dir_(std::move(dir)),
      options_(std::move(options)) {}

StatusOr<std::unique_ptr<MappedReaderService>> MappedReaderService::Open(
    const std::string& dir, MappedReaderOptions options) {
  auto svc = std::unique_ptr<MappedReaderService>(
      new MappedReaderService(dir, std::move(options)));
  svc->pin_owner_ = svc->options_.pin_owner.empty()
                        ? "pid" + std::to_string(SelfPid())
                        : svc->options_.pin_owner;
  if (Status st = svc->RefreshNow(); !st.ok()) return st;
  if (svc->options_.poll_interval.count() > 0) {
    svc->poll_thread_ = std::thread([s = svc.get()] { s->PollLoop(); });
  }
  return svc;
}

MappedReaderService::~MappedReaderService() {
  if (poll_thread_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(poll_mu_);
      stop_poll_ = true;
    }
    poll_cv_.notify_all();
    poll_thread_.join();
  }
  // Clean shutdown releases the retention hold; a killed reader's pin is
  // swept by the publisher's pid-liveness probe instead.
  if (options_.write_pins && !pin_owner_.empty()) {
    (void)RemoveSnapshotPin(fs_, dir_, pin_owner_);
  }
}

std::shared_ptr<const MappedReaderService::Adopted>
MappedReaderService::Current() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

uint64_t MappedReaderService::Generation() const {
  const auto cur = Current();
  return cur ? cur->generation : 0;
}

uint64_t MappedReaderService::WalSeq() const {
  const auto cur = Current();
  return cur ? cur->wal_seq : 0;
}

size_t MappedReaderService::NumVertices() const {
  const auto cur = Current();
  return cur ? cur->index->NumVertices() : 0;
}

Status MappedReaderService::Refresh() { return RefreshNow(); }

Status MappedReaderService::RefreshNow() const {
  std::lock_guard<std::mutex> lock(refresh_mu_);
  return RefreshLocked();
}

Status MappedReaderService::RefreshLocked() const {
  const std::shared_ptr<const Adopted> cur = Current();
  Status last = Status::OK();
  // The pin-vs-GC adoption race (file comment) is closed by retrying
  // against a fresh PUBSTATE when the arena vanished under us; two
  // retries outlast any single concurrent publish+GC cycle, and a writer
  // fast enough to lap us twice leaves `last` telling the caller why.
  for (int attempt = 0; attempt < 3; ++attempt) {
    auto state = ReadPubState(fs_, dir_);
    if (!state.ok()) return state.status();
    publisher_generation_.store(state->generation,
                                std::memory_order_relaxed);
    if (cur && state->generation <= cur->generation) return Status::OK();
    if (options_.write_pins) {
      if (Status st = WriteSnapshotPin(fs_, dir_, pin_owner_,
                                       state->generation, SelfPid());
          !st.ok()) {
        return st;
      }
    }
    const std::string name = SnapshotArenaFileName(state->generation);
    const std::string path = dir_ + "/" + name;
    if (!fs_->FileExists(path)) {
      last = Status::Unavailable("arena " + name +
                                 " reclaimed before adoption could pin it");
      continue;
    }
    auto arena = MappedArena::Map(fs_, path);
    if (arena.ok() && arena->generation() != state->generation) {
      arena = Status::DataLoss("arena " + name + " stamps generation " +
                               std::to_string(arena->generation()) +
                               ", PUBSTATE names " +
                               std::to_string(state->generation));
    }
    if (!arena.ok()) {
      // Leave the pin naming the generation actually served.
      if (cur && options_.write_pins) {
        (void)WriteSnapshotPin(fs_, dir_, pin_owner_, cur->generation,
                               SelfPid());
      }
      return arena.status();
    }
    auto adopted = std::make_shared<Adopted>();
    adopted->index = arena->snapshot();
    adopted->generation = arena->generation();
    adopted->wal_seq = arena->wal_seq();
    {
      std::lock_guard<std::mutex> swap_lock(mu_);
      current_ = std::move(adopted);
    }
    // The old mapping is now unreferenced by the service; it unmaps when
    // the last in-flight query's snapshot pointer drops.
    return Status::OK();
  }
  if (cur && options_.write_pins) {
    (void)WriteSnapshotPin(fs_, dir_, pin_owner_, cur->generation,
                           SelfPid());
  }
  return last;
}

Status MappedReaderService::Admit(const ReadOptions& options,
                                  std::shared_ptr<const Adopted>* cur,
                                  ReadDecision* decision) const {
  // kSnapshot does no I/O; a bounded answer must hold against the
  // *current* publisher generation, so that mode re-reads PUBSTATE.
  uint64_t tip = PublisherGeneration();
  if (options.consistency == Consistency::kBoundedStaleness) {
    auto state = ReadPubState(fs_, dir_);
    if (!state.ok()) {
      metrics_.RecordRejected(Status::Code::kUnavailable);
      return Status::Unavailable("cannot establish the staleness bound: " +
                                 state.status().message());
    }
    publisher_generation_.store(state->generation,
                                std::memory_order_relaxed);
    tip = state->generation;
  }
  ReadView view{.tip = tip,
                .token_ceiling = kNoTokenCeiling,
                .live = std::nullopt,
                .snapshot = (*cur)->generation};
  *decision = AdmitRead(options, view);
  if (decision->code == Status::Code::kUnavailable &&
      options.consistency == Consistency::kBoundedStaleness) {
    // One inline adoption attempt — the closest a reader gets to
    // SpcService's escalate-to-live.
    (void)RefreshNow();
    *cur = Current();
    view.snapshot = (*cur)->generation;
    *decision = AdmitRead(options, view);
  }
  if (!decision->ok()) {
    metrics_.RecordRejected(decision->code);
    return RefuseRead(options, view, decision->code);
  }
  return Status::OK();
}

StatusOr<QueryResponse> MappedReaderService::Query(
    Vertex s, Vertex t, const ReadOptions& options) const {
  std::shared_ptr<const Adopted> cur = Current();
  const VertexPair pair{s, t};
  if (Status st = ValidatePairs({&pair, 1}, cur->index->NumVertices());
      !st.ok()) [[unlikely]] {
    metrics_.RecordRejected(Status::Code::kInvalidArgument);
    return st;
  }
  ReadDecision decision;
  if (Status st = Admit(options, &cur, &decision); !st.ok()) return st;
  metrics_.RecordRead(options.consistency, ServedFrom::kSnapshot,
                      decision.staleness, 1, false);
  return StatusOr<QueryResponse>(std::in_place, cur->index->Query(s, t),
                                 cur->generation, decision.staleness,
                                 ServedFrom::kSnapshot);
}

StatusOr<BatchQueryResponse> MappedReaderService::QueryBatch(
    std::span<const VertexPair> pairs, const ReadOptions& options) const {
  std::shared_ptr<const Adopted> cur = Current();
  if (Status st = ValidatePairs(pairs, cur->index->NumVertices()); !st.ok()) {
    metrics_.RecordRejected(Status::Code::kInvalidArgument);
    return st;
  }
  ReadDecision decision;
  if (Status st = Admit(options, &cur, &decision); !st.ok()) return st;
  StatusOr<BatchQueryResponse> out(std::in_place);
  out->results = cur->index->QueryManyParallel(pairs, options.threads);
  out->generation = cur->generation;
  out->staleness = decision.staleness;
  out->served_from = ServedFrom::kSnapshot;
  metrics_.RecordRead(options.consistency, ServedFrom::kSnapshot,
                      decision.staleness, pairs.size(), true);
  return out;
}

void MappedReaderService::PollLoop() {
  std::unique_lock<std::mutex> lock(poll_mu_);
  while (!stop_poll_) {
    if (poll_cv_.wait_for(lock, options_.poll_interval,
                          [&] { return stop_poll_; })) {
      return;
    }
    lock.unlock();
    // Transient failures (writer mid-publish, racing GC) are retried on
    // the next tick; queries keep serving the adopted generation.
    (void)RefreshNow();
    lock.lock();
  }
}

}  // namespace dspc
