// perfbench: one fixed-work benchmark of the public SpcService API.
//
//   perfbench --workload <read_uniform|read_zipf|hybrid_stream>
//             --seed <n> --seconds <s> --trace <0|1> --out <dir>
//
// Every workload runs on one graph, RMAT scale 13 with 8 edges per vertex,
// and one service configuration: durable (WAL under kBatch, 2 ms group
// commit, in <dir>/wal), kBackground refresh over 16 snapshot shards, the
// pair cache on at its default 65536 entries, a sequential build, and a
// repack pool sized so no phase runs more threads than the host has (see
// DetectHost). Only the traffic differs. All inputs derive from --seed
// before any timing starts, and the amount of work derives from --seconds
// alone (never from a clock), so every count a run reports repeats exactly
// for the same arguments and the same code. The inputs have a fixed size
// (reads cycle one pair array), so --seconds does not move the memory.
//
// The untraced pass yields the end-to-end metrics. With --trace 1 a second,
// traced pass follows on a fresh service: spans around each call into a
// layer's public function (reads sampled 1 in kTraceEvery) give the
// per-layer metrics, and the two passes' read throughput gives the tracing
// overhead. The traced pass also times the parallel builder at nproc
// threads and checks it is label-identical to the sequential build.
// Answers are cross-checked against BiBFS on the graph each answer's
// generation reflects; any failure exits nonzero.
//
// Output: human-readable metric lines, a report <dir>/<workload>-seed<n>
// .json (host, configuration, every metric, exact counts), a span dump
// <dir>/<workload>-seed<n>-spans.json when traced, and as the last stdout
// line the result object {"correct", "attempted", "failed", "metrics"}.

#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dspc/api/spc_service.h"
#include "dspc/baseline/bibfs_counting.h"
#include "dspc/common/rng.h"
#include "dspc/core/dynamic_spc.h"
#include "dspc/core/merge_kernel.h"
#include "dspc/core/parallel_build.h"
#include "dspc/graph/generators.h"
#include "dspc/graph/update_stream.h"
#include "dspc/graph/zipf_sampler.h"
#include "measure.h"

namespace perfbench {
namespace {

using namespace dspc;

// --- fixed workload shape ---------------------------------------------------

constexpr size_t kRmatScale = 13;
constexpr size_t kRmatEdges = 65536;  // 8 per vertex
constexpr size_t kShards = 16;
constexpr size_t kSetups = 3;  // setup_s is the median of this many opens
// Timed reads per --seconds, sized so each read workload's timed window
// is about --seconds long on a 4-vCPU host: long enough to average over a
// shared host's slower and faster stretches.
constexpr size_t kUniformReadsPerSecond = 1000000;
constexpr size_t kZipfReadsPerSecond = 1600000;
constexpr size_t kWarmupReads = 300000;
constexpr double kZipfS = 1.1;
constexpr size_t kDeletesPerSecond = 4;
constexpr size_t kMinDeletes = 20;  // p50 needs >= 10 samples beyond it
constexpr size_t kInsertsPerDelete = 10;
// Every workload's reader cycles one array of this many pairs. Its reuse
// distance is 16x the pair cache's capacity, so a pair is never still
// cached from its previous turn unless its own popularity keeps it there.
constexpr size_t kReadPairs = size_t{1} << 20;
// The read metrics are taken per chunk of this many consecutive reads
// (15-60 ms each; over 300 samples lie beyond each chunk's p99) and
// averaged over the chunks, leaving out the kTrimShare highest and lowest
// values: read_qps is kChunkReads over the trimmed mean chunk time,
// read_p50_us and read_p99_us the trimmed means of the chunks' own p50 and
// p99. The trim drops preempted chunks. A mean and not a median or a low
// quantile: on a shared host, neighbours contend for the L3 cache and
// memory in stretches of one to tens of seconds and slow these reads by up
// to 1.5x, so a run is a mixture of slow and fast chunks in a share that
// varies from run to run. Any quantile of such a mixture jumps from one
// mode to the other as the share crosses it; the mean moves with the
// share in proportion.
constexpr size_t kChunkReads = 32768;
constexpr double kTrimShare = 0.10;
constexpr size_t kOracleStride = 997;
constexpr size_t kFinalOracleChecks = 2000;
constexpr size_t kTraceEvery = 512;
// Span request ids: a read's is its index in the loop, a write's is this
// plus its index in the stream, so the two never collide.
constexpr uint64_t kWriteRequestBase = uint64_t{1} << 48;

enum class Workload { kReadUniform, kReadZipf, kHybridStream };

struct Args {
  Workload workload = Workload::kReadUniform;
  std::string name;
  uint64_t seed = 0;
  unsigned seconds = 0;
  bool trace = false;
  std::string out_dir;
};

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(1);
}

bool ParseArgs(int argc, char** argv, Args* a) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i + 1 < argc; i += 2) kv[argv[i]] = argv[i + 1];
  if (argc % 2 != 1 || kv.size() != 5) return false;
  for (const char* key :
       {"--workload", "--seed", "--seconds", "--trace", "--out"}) {
    if (!kv.count(key)) return false;
  }
  a->name = kv["--workload"];
  if (a->name == "read_uniform") {
    a->workload = Workload::kReadUniform;
  } else if (a->name == "read_zipf") {
    a->workload = Workload::kReadZipf;
  } else if (a->name == "hybrid_stream") {
    a->workload = Workload::kHybridStream;
  } else {
    return false;
  }
  char* end = nullptr;
  a->seed = std::strtoull(kv["--seed"].c_str(), &end, 10);
  if (*end != '\0') return false;
  const unsigned long secs = std::strtoul(kv["--seconds"].c_str(), &end, 10);
  if (*end != '\0' || secs < 1 || secs > 60) return false;
  a->seconds = static_cast<unsigned>(secs);
  if (kv["--trace"] != "0" && kv["--trace"] != "1") return false;
  a->trace = kv["--trace"] == "1";
  a->out_dir = kv["--out"];
  return true;
}

// --- host and configuration -------------------------------------------------

struct Host {
  unsigned nproc = 1;
  unsigned build_threads = 1;
  unsigned parallel_build_threads = 1;  // traced pass only
  unsigned refresh_threads = 1;
  unsigned reader_threads = 1;
  unsigned writer_threads = 0;
  std::string cpu_flags;
  std::string kernel_tier;
  std::string wal_dir;
  std::string wal_fs;
};

std::string CpuFlags() {
  std::string s;
#if defined(__x86_64__)
  __builtin_cpu_init();
  auto add = [&](const char* flag, bool on) {
    if (!on) return;
    if (!s.empty()) s += ' ';
    s += flag;
  };
  add("popcnt", __builtin_cpu_supports("popcnt"));
  add("sse4.2", __builtin_cpu_supports("sse4.2"));
  add("avx", __builtin_cpu_supports("avx"));
  add("avx2", __builtin_cpu_supports("avx2"));
  add("bmi2", __builtin_cpu_supports("bmi2"));
  add("avx512f", __builtin_cpu_supports("avx512f"));
#endif
  return s.empty() ? "none" : s;
}

std::string FsType(const std::string& dir) {
  struct statfs sfs {};
  if (statfs(dir.c_str(), &sfs) != 0) return "unknown";
  switch (static_cast<uint64_t>(sfs.f_type)) {
    case 0x01021994: return "tmpfs";
    case 0xEF53: return "ext4";
    case 0x794C7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "0x%llx",
                    static_cast<unsigned long long>(sfs.f_type));
      return buf;
    }
  }
}

Host DetectHost(const Args& a) {
  Host h;
  h.nproc = std::max(1u, std::thread::hardware_concurrency());
  // The build runs sequentially (ParallelBuildOptions::threads = 1, which
  // is label-identical to any thread count): on a shared 4-vCPU host the
  // 4-thread build ranged 1.1-2.6 s from one build to the next against
  // 2.4-2.8 s sequential, too wide for setup_s to gate anything.
  h.build_threads = 1;
  // The parallel builder is still measured, as its own layer in the traced
  // pass, at nproc threads.
  h.parallel_build_threads = h.nproc;
  // The hybrid workload keeps a reader and a writer busy. The repack pool
  // gets what is left but one, which stays free for the WAL's group-commit
  // thread and the OS, so a repack burst never preempts the reader.
  h.refresh_threads = h.nproc > 3 ? h.nproc - 3 : 1;
  h.writer_threads = a.workload == Workload::kHybridStream ? 1 : 0;
  h.cpu_flags = CpuFlags();
  h.kernel_tier = MergeKernelTierName(ActiveMergeKernelTier());
  h.wal_dir = a.out_dir + "/wal";
  std::filesystem::create_directories(h.wal_dir);
  h.wal_fs = FsType(h.wal_dir);
  return h;
}

DynamicSpcOptions ServiceOptions(const Host& h) {
  DynamicSpcOptions o;
  o.snapshot.refresh = RefreshPolicy::kBackground;
  o.snapshot.shards = kShards;
  o.snapshot.rebuild_threads = h.refresh_threads;
  o.build.threads = h.build_threads;
  o.pair_cache.enabled = true;  // default capacity, 65536 entries
  return o;
}

DurabilityOptions Durability(const std::string& dir) {
  DurabilityOptions d;
  d.dir = dir;
  d.sync = WalSyncPolicy::kBatch;
  d.flush_interval = std::chrono::microseconds(2000);
  return d;
}

// --- inputs -------------------------------------------------------------------

struct Inputs {
  Graph graph;
  std::vector<VertexPair> warmup;
  std::vector<VertexPair> pairs;  // cycled
  size_t reads = 0;  // timed reads on the read workloads
  std::vector<Update> stream;
  size_t inserts = 0;
  size_t deletes = 0;
};

Inputs MakeInputs(const Args& a) {
  Inputs in;
  in.graph = GenerateRmat(kRmatScale, kRmatEdges, a.seed);
  const uint64_t n = in.graph.NumVertices();
  Rng rng(a.seed * 0x9E3779B97F4A7C15ULL + 0x51ED);
  auto uniform = [&](size_t count) {
    std::vector<VertexPair> v(count);
    for (auto& [s, t] : v) {
      s = static_cast<Vertex>(rng.NextBounded(n));
      t = static_cast<Vertex>(rng.NextBounded(n));
    }
    return v;
  };
  switch (a.workload) {
    case Workload::kReadUniform:
      in.warmup = uniform(kWarmupReads);
      in.pairs = uniform(kReadPairs);
      in.reads = size_t{a.seconds} * kUniformReadsPerSecond;
      break;
    case Workload::kReadZipf: {
      ZipfVertexSampler zipf(in.graph, kZipfS);
      auto sample = [&](size_t count) {
        std::vector<VertexPair> v(count);
        for (auto& [s, t] : v) {
          s = zipf.Sample(rng);
          t = zipf.Sample(rng);
        }
        return v;
      };
      in.warmup = sample(kWarmupReads);
      in.pairs = sample(kReadPairs);
      in.reads = size_t{a.seconds} * kZipfReadsPerSecond;
      break;
    }
    case Workload::kHybridStream:
      in.pairs = uniform(kReadPairs);
      in.deletes = std::max(kMinDeletes, a.seconds * kDeletesPerSecond);
      in.inserts = in.deletes * kInsertsPerDelete;
      in.stream = MakeHybridStream(in.graph, in.inserts, in.deletes,
                                   a.seed + 1);
      if (in.stream.size() != in.inserts + in.deletes) {
        Die("hybrid stream came out short");
      }
      break;
  }
  return in;
}

// --- passes -------------------------------------------------------------------

/// One answer kept for the oracle: the pair, the answer and the generation
/// it claims to reflect.
struct Sample {
  Vertex s;
  Vertex t;
  SpcResult result;
  uint64_t generation;
};

struct Totals {
  uint64_t affected_hubs = 0;
  uint64_t visited_vertices = 0;
  uint64_t renew_c = 0;
  uint64_t renew_d = 0;
  uint64_t inserted = 0;
  uint64_t removed = 0;

  void Add(const UpdateStats& s) {
    affected_hubs += s.affected_hubs;
    visited_vertices += s.visited_vertices;
    renew_c += s.renew_count;
    renew_d += s.renew_dist;
    inserted += s.inserted;
    removed += s.removed;
  }
};

/// The totals as named counts: `<layer>.affected_hubs` and so on; DecSPC
/// alone reports removed entries.
std::vector<std::pair<std::string, uint64_t>> TotalsFields(
    const std::string& layer, const Totals& t) {
  std::vector<std::pair<std::string, uint64_t>> f = {
      {layer + ".affected_hubs", t.affected_hubs},
      {layer + ".visited_vertices", t.visited_vertices},
      {layer + ".renew_c", t.renew_c},
      {layer + ".renew_d", t.renew_d},
      {layer + ".inserted", t.inserted},
  };
  if (layer == "dec_spc") f.push_back({layer + ".removed", t.removed});
  return f;
}

bool SameWork(const UpdateStats& a, const UpdateStats& b) {
  return a.affected_hubs == b.affected_hubs &&
         a.visited_vertices == b.visited_vertices &&
         a.renew_count == b.renew_count && a.renew_dist == b.renew_dist &&
         a.inserted == b.inserted && a.removed == b.removed;
}

/// One chunk of kChunkReads consecutive reads: its wall time and its own
/// latency percentiles.
struct Chunk {
  uint64_t ns;
  double p50_ns;
  double p99_ns;
};

struct ReaderOut {
  std::vector<Chunk> chunks;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Sample> samples;
  uint64_t loop_ns = 0;
  uint64_t trace_ns = 0;  // spent on sampling and replays, traced pass only
};

struct WriterOut {
  LatencyHistogram insert_ack;
  LatencyHistogram delete_ack;
  LatencyHistogram visible_lag;
  double seconds = 0.0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Totals inc;
  Totals dec;
  // Traced pass only: per-update layer times on the shadow engine.
  std::vector<uint64_t> inc_apply_ns;
  std::vector<uint64_t> dec_apply_ns;
  std::vector<uint64_t> repack_ns;
  std::vector<int64_t> wal_self_ns;
};

/// Everything one pass measured.
struct PassOut {
  ReaderOut reads;
  WriterOut writes;
  uint64_t initial_generation = 0;
  uint64_t final_generation = 0;
  uint64_t label_entries = 0;
  size_t arena_bytes = 0;
  MetricsSnapshot metrics;
  size_t rebuilds = 0;
  size_t shards_repacked = 0;
  size_t shards_adopted = 0;
  double peak_rss_mb = 0.0;
  uint64_t oracle_checks = 0;
  uint64_t oracle_failed = 0;
  // Traced pass only.
  double build_s = 0.0;
  double parallel_build_s = 0.0;
  double open_s = 0.0;
};

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Current resident set in MB, from /proc/self/statm; 0 when unreadable.
double RssMb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  unsigned long long size = 0;
  unsigned long long resident = 0;
  const int got = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  if (got != 2) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

/// Issues kSnapshot single queries over `pairs` (cycled): `count` of them,
/// or until *stop when count is 0. Every call is timed; every
/// kOracleStride-th answer is kept for the oracle. With `rec`, every
/// kTraceEvery-th read is followed by a timed pin and flat-index query so
/// the service call can be split into layers. That replay queries the pair
/// half a sampling period ahead, not the one just served: the served
/// pair's label lines are still in L1/L2, and timing them there would
/// understate the flat query (and overstate the service's own share).
void ReadLoop(const SpcService& svc, std::span<const VertexPair> pairs,
              size_t count, const std::atomic<bool>* stop,
              SpanRecorder* rec, ReaderOut* out) {
  const ReadOptions ro{.consistency = Consistency::kSnapshot};
  const DynamicSpcIndex& engine = svc.engine();
  size_t next_sample = 0;
  size_t in_chunk = 0;
  LatencyHistogram latency;  // of the current chunk
  size_t idx = 0;
  const Clock::time_point start = Clock::now();
  Clock::time_point prev = start;
  Clock::time_point chunk_start = prev;
  for (size_t i = 0; count != 0 ? i < count
                                : !stop->load(std::memory_order_relaxed);
       ++i) {
    const auto [s, t] = pairs[idx];
    if (++idx == pairs.size()) idx = 0;
    const StatusOr<QueryResponse> r = svc.Query(s, t, ro);
    Clock::time_point now = Clock::now();
    latency.Add(Ns(now - prev));
    ++out->attempted;
    if (!r.ok()) {
      ++out->failed;
    } else if (i == next_sample) {
      out->samples.push_back(Sample{s, t, r->result, r->generation});
      next_sample += kOracleStride;
    }
    if (rec != nullptr && i % kTraceEvery == 0) {
      const uint32_t root = rec->Begin("read", prev, i);
      rec->Record("spc_service.Query", prev, now, root, i);
      const auto [rs, rt] = pairs[(idx + kTraceEvery / 2) % pairs.size()];
      const Clock::time_point t0 = Clock::now();
      const SnapshotManager::Pinned pin = engine.PinSnapshot();
      const Clock::time_point t1 = Clock::now();
      pin->Query(rs, rt);
      const Clock::time_point t2 = Clock::now();
      rec->Record("snapshot_manager.PinSnapshot", t0, t1, root, i);
      rec->Record("flat_spc_index.Query", t1, t2, root, i);
      // Untimed: the served pair on a pin of the same generation must
      // agree with the service bit for bit (a newer pin may differ).
      if (r.ok() && pin.generation == r->generation &&
          !(pin->Query(s, t) == r->result)) {
        ++out->failed;
      }
      const Clock::time_point served = now;
      now = Clock::now();
      rec->End(root, now);
      out->trace_ns += Ns(now - served);
    }
    prev = now;
    if (++in_chunk == kChunkReads) {
      out->chunks.push_back(Chunk{Ns(now - chunk_start), latency.Quantile(0.5),
                                  latency.Quantile(0.99)});
      latency.Reset();
      in_chunk = 0;
      // The chunk's bookkeeping counts toward neither chunk.
      prev = chunk_start = Clock::now();
    }
  }
  out->loop_ns = Ns(Clock::now() - start);
}

/// Applies the stream one durable write at a time, waiting for each to be
/// visible before the next. With `shadow`, each update is also replayed on
/// a manual-refresh engine without a WAL, timing IncSPC/DecSPC and the
/// delta repack in isolation.
void WriteLoop(SpcService& svc, std::span<const Update> stream,
               DynamicSpcIndex* shadow, SpanRecorder* rec, WriterOut* out) {
  const WriteOptions durable{.durable = true};
  const Clock::time_point start = Clock::now();
  uint64_t expected = svc.Generation();
  for (size_t i = 0; i < stream.size(); ++i) {
    const Update& u = stream[i];
    const bool insert = u.kind == Update::Kind::kInsert;
    const Clock::time_point t0 = Clock::now();
    StatusOr<UpdateResponse> resp = svc.ApplyUpdates({&u, 1}, durable);
    const Clock::time_point t1 = Clock::now();
    ++out->attempted;
    const bool applied = resp.ok() && resp->applied == 1 &&
                         resp->reports[0].applied() && resp->token.durable &&
                         resp->token.generation == expected + 1;
    if (!applied) {
      ++out->failed;
      continue;
    }
    ++expected;
    const Status visible = svc.WaitForSnapshot(resp->token);
    const Clock::time_point t2 = Clock::now();
    if (!visible.ok()) ++out->failed;
    (insert ? out->insert_ack : out->delete_ack).Add(Ns(t1 - t0));
    out->visible_lag.Add(Ns(t2 - t1));
    const UpdateStats& stats = resp->reports[0].stats;
    (insert ? out->inc : out->dec).Add(stats);
    if (shadow == nullptr) continue;

    const Clock::time_point t3 = Clock::now();
    const UpdateStats shadow_stats = shadow->Apply(u);
    const Clock::time_point t4 = Clock::now();
    shadow->FlatSnapshot();
    const Clock::time_point t5 = Clock::now();
    if (!SameWork(stats, shadow_stats)) ++out->failed;
    const uint64_t req = kWriteRequestBase + i;
    const uint32_t root = rec->Begin("write", t0, req);
    rec->Record("spc_service.ApplyUpdates", t0, t1, root, req);
    rec->Record("spc_service.WaitForSnapshot", t1, t2, root, req);
    rec->Record(insert ? "inc_spc.Apply" : "dec_spc.Apply", t3, t4, root, req);
    rec->Record("flat_spc_index.Rebuild", t4, t5, root, req);
    rec->End(root, t5);
    (insert ? out->inc_apply_ns : out->dec_apply_ns).push_back(Ns(t4 - t3));
    out->repack_ns.push_back(Ns(t5 - t4));
    out->wal_self_ns.push_back(static_cast<int64_t>(Ns(t1 - t0)) -
                               static_cast<int64_t>(Ns(t4 - t3)));
  }
  out->seconds = Seconds(Clock::now() - start);
}

/// Runs the workload's traffic against an open, warm service.
void RunTraffic(const Args& a, const Inputs& in, SpcService& svc,
                DynamicSpcIndex* shadow, SpanRecorder* reader_rec,
                SpanRecorder* writer_rec, PassOut* out) {
  out->initial_generation = svc.Generation();
  if (a.workload != Workload::kHybridStream) {
    ReaderOut warm;
    ReadLoop(svc, in.warmup, in.warmup.size(), nullptr, nullptr, &warm);
    out->reads.attempted += warm.attempted;
    out->reads.failed += warm.failed;
    ReadLoop(svc, in.pairs, in.reads, nullptr, reader_rec, &out->reads);
  } else {
    std::atomic<bool> stop{false};
    std::atomic<bool> reading{false};
    std::thread reader([&] {
      reading.store(true);
      ReadLoop(svc, in.pairs, 0, &stop, reader_rec, &out->reads);
    });
    while (!reading.load()) std::this_thread::yield();
    WriteLoop(svc, in.stream, shadow, writer_rec, &out->writes);
    stop.store(true);
    reader.join();
  }
  out->final_generation = svc.Generation();
  out->metrics = svc.Metrics();
  const SnapshotManager* sm = svc.engine().snapshots();
  out->rebuilds = sm->Rebuilds();
  out->shards_repacked = sm->ShardsRepacked();
  out->shards_adopted = sm->ShardsAdopted();
}

// --- correctness gate ---------------------------------------------------------

/// Cross-checks the kept answers against BiBFS on the graph each answer's
/// generation reflects, replaying the stream in generation order. On the
/// hybrid workload also checks the generation arithmetic and a sample of
/// final-state answers of `svc`, which served the pass. Records the
/// checks made and failed in *pass.
void OracleGate(const Args& a, const Inputs& in, const SpcService& svc,
                PassOut* pass) {
  uint64_t& bad = pass->oracle_failed;
  uint64_t& checks = pass->oracle_checks;
  std::vector<Sample> samples = pass->reads.samples;
  std::stable_sort(samples.begin(), samples.end(),
                   [](const Sample& x, const Sample& y) {
                     return x.generation < y.generation;
                   });
  Graph g(in.graph);
  size_t applied = 0;
  auto advance_to = [&](uint64_t generation) {
    while (pass->initial_generation + applied < generation &&
           applied < in.stream.size()) {
      const Update& u = in.stream[applied++];
      if (u.kind == Update::Kind::kInsert) {
        g.AddEdge(u.edge.u, u.edge.v);
      } else {
        g.RemoveEdge(u.edge.u, u.edge.v);
      }
    }
    return pass->initial_generation + applied == generation;
  };
  for (const Sample& s : samples) {
    ++checks;
    if (!advance_to(s.generation) ||
        !(BiBfsCountPair(g, s.s, s.t) == s.result)) {
      ++bad;
    }
  }
  if (a.workload != Workload::kHybridStream) return;

  ++checks;
  if (pass->final_generation !=
          pass->initial_generation + in.stream.size() ||
      !advance_to(pass->final_generation) ||
      g.NumEdges() != svc.engine().graph().NumEdges()) {
    ++bad;
  }
  const ReadOptions ro{.consistency = Consistency::kSnapshot,
                       .min_generation = pass->final_generation};
  for (size_t i = 0; i < kFinalOracleChecks; ++i) {
    const auto [s, t] = in.pairs[(i * 7919) % in.pairs.size()];
    const StatusOr<QueryResponse> r = svc.Query(s, t, ro);
    ++checks;
    if (!r.ok() || !(r->result == BiBfsCountPair(g, s, t))) ++bad;
  }
}

void AwaitFirstSnapshot(const SpcService& svc) {
  const Status st = svc.WaitForSnapshot(WriteToken{svc.Generation()});
  if (!st.ok()) Die("first snapshot: " + st.ToString());
}

void RecordServiceShape(const SpcService& svc, PassOut* out) {
  out->label_entries = svc.engine().index().SizeStats().total_entries;
  out->arena_bytes = svc.engine().PinSnapshot()->ArenaBytes();
}

/// The untraced pass: kSetups timed opens (setup_s is their median). The
/// first serves the traffic, as in a process that opens the service once;
/// the rest only time set-up, after the traffic.
/// `input_rss_mb` is the resident set before the first open; peak_rss_mb is
/// the peak above it, so the benchmark's own inputs do not dilute what the
/// service holds.
PassOut UntracedPass(const Args& a, const Inputs& in, const Host& h,
                     double input_rss_mb, std::vector<double>* setup_s) {
  const std::string dir = h.wal_dir + "/untraced";
  auto open = [&] {
    std::filesystem::remove_all(dir);
    Graph copy(in.graph);
    const Clock::time_point t0 = Clock::now();
    StatusOr<std::unique_ptr<SpcService>> opened =
        SpcService::Open(std::move(copy), Durability(dir), ServiceOptions(h));
    if (!opened.ok()) Die("Open: " + opened.status().ToString());
    std::unique_ptr<SpcService> svc = std::move(opened).value();
    AwaitFirstSnapshot(*svc);
    setup_s->push_back(Seconds(Clock::now() - t0));
    return svc;
  };
  PassOut out;
  {
    const std::unique_ptr<SpcService> svc = open();
    RecordServiceShape(*svc, &out);
    RunTraffic(a, in, *svc, nullptr, nullptr, nullptr, &out);
    out.peak_rss_mb = PeakRssMb() - input_rss_mb;
    OracleGate(a, in, *svc, &out);
  }
  while (setup_s->size() < kSetups) open();
  return out;
}

/// The traced pass: sequential build, parallel build, open and first
/// publish timed as separate layers, then the same traffic with spans.
PassOut TracedPass(const Args& a, const Inputs& in, const Host& h,
                   SpanRecorder* setup_rec, SpanRecorder* reader_rec,
                   SpanRecorder* writer_rec) {
  PassOut out;
  const std::string dir = h.wal_dir + "/traced";
  std::filesystem::remove_all(dir);
  const DynamicSpcOptions options = ServiceOptions(h);

  const Clock::time_point t0 = Clock::now();
  SpcIndex index =
      BuildSpcIndexParallel(in.graph, options.ordering, options.build);
  const Clock::time_point t1 = Clock::now();
  ParallelBuildOptions parallel = options.build;
  parallel.threads = h.parallel_build_threads;
  const Clock::time_point p0 = Clock::now();
  Clock::time_point p1;
  {
    const SpcIndex parallel_index =
        BuildSpcIndexParallel(in.graph, options.ordering, parallel);
    p1 = Clock::now();
    ++out.oracle_checks;
    if (!(parallel_index == index)) ++out.oracle_failed;
  }
  std::unique_ptr<DynamicSpcIndex> shadow;
  if (a.workload == Workload::kHybridStream) {
    DynamicSpcOptions manual = options;
    manual.snapshot.refresh = RefreshPolicy::kManual;
    manual.pair_cache.enabled = false;
    shadow = std::make_unique<DynamicSpcIndex>(Graph(in.graph), index, manual);
    shadow->FlatSnapshot();
  }
  const Clock::time_point t2 = Clock::now();
  StatusOr<std::unique_ptr<SpcService>> opened = SpcService::OpenWithState(
      Graph(in.graph), std::move(index), 1, Durability(dir), options);
  if (!opened.ok()) Die("OpenWithState: " + opened.status().ToString());
  std::unique_ptr<SpcService> svc = std::move(opened).value();
  const Clock::time_point t3 = Clock::now();
  AwaitFirstSnapshot(*svc);
  const Clock::time_point t4 = Clock::now();
  const uint32_t root = setup_rec->Begin("setup", t0, 0);
  setup_rec->Record("hp_spc.Build", t0, t1, root, 0);
  setup_rec->Record("parallel_build.Build", p0, p1, root, 0);
  setup_rec->Record("persist.OpenWithState", t2, t3, root, 0);
  setup_rec->Record("snapshot_manager.FirstPublish", t3, t4, root, 0);
  setup_rec->End(root, t4);
  out.build_s = Seconds(t1 - t0);
  out.parallel_build_s = Seconds(p1 - p0);
  out.open_s = Seconds(t3 - t2);

  RecordServiceShape(*svc, &out);
  RunTraffic(a, in, *svc, shadow.get(), reader_rec, writer_rec, &out);
  OracleGate(a, in, *svc, &out);
  return out;
}

// --- reporting ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double Median(std::vector<double> v) { return QuantileOf(std::move(v), 0.5); }

/// Mean of `v` without its kTrimShare lowest and highest values.
double TrimmedMean(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t trim =
      static_cast<size_t>(kTrimShare * static_cast<double>(v.size()));
  double sum = 0.0;
  for (size_t i = trim; i < v.size() - trim; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * trim);
}

/// The read metrics of a read loop, each a trimmed mean over its chunks
/// (see kChunkReads). Dies when the loop ran fewer than ten chunks.
struct ReadMetrics {
  double qps;
  double p50_us;
  double p99_us;
};

ReadMetrics ChunkMeans(const std::vector<Chunk>& chunks) {
  if (chunks.size() < 10) Die("too few reads for the read metrics");
  std::vector<double> ns;
  std::vector<double> p50;
  std::vector<double> p99;
  for (const Chunk& c : chunks) {
    ns.push_back(static_cast<double>(c.ns));
    p50.push_back(c.p50_ns);
    p99.push_back(c.p99_ns);
  }
  return ReadMetrics{static_cast<double>(kChunkReads) / (TrimmedMean(ns) / 1e9),
                     TrimmedMean(p50) / 1e3, TrimmedMean(p99) / 1e3};
}

/// Percentile of a histogram in microseconds; dies when fewer than ten
/// samples lie beyond it (the workload was sized too small to report it).
double PercentileUs(const LatencyHistogram& h, double q, const char* what) {
  if (!h.Supports(q)) Die(std::string("too few samples for ") + what);
  return h.Quantile(q) / 1000.0;
}

/// The end-to-end metrics every workload produces; the write-side ones that
/// only hybrid_stream produces go to *hybrid_only.
std::vector<Metric> EndToEnd(const Args& a, const PassOut& p,
                             const std::vector<double>& setup_s,
                             std::vector<Metric>* hybrid_only) {
  const ReadMetrics r = ChunkMeans(p.reads.chunks);
  std::vector<Metric> m = {
      {"setup_s", Median(setup_s), "s"},
      {"peak_rss_mb", p.peak_rss_mb, "MB"},
      {"read_qps", r.qps, "1/s"},
      {"read_p50_us", r.p50_us, "us"},
      {"read_p99_us", r.p99_us, "us"},
  };
  if (a.workload != Workload::kHybridStream) return m;
  const WriterOut& w = p.writes;
  *hybrid_only = {
      {"insert_ack_p50_us", PercentileUs(w.insert_ack, 0.5, "ins p50"), "us"},
      {"insert_ack_p90_us", PercentileUs(w.insert_ack, 0.9, "ins p90"), "us"},
      {"delete_ack_p50_us", PercentileUs(w.delete_ack, 0.5, "del p50"), "us"},
      {"visible_lag_p50_us", PercentileUs(w.visible_lag, 0.5, "lag p50"),
       "us"},
      {"visible_lag_p90_us", PercentileUs(w.visible_lag, 0.9, "lag p90"),
       "us"},
      {"update_ops_per_s", static_cast<double>(w.attempted) / w.seconds,
       "1/s"},
  };
  return m;
}

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

template <typename T>
double Mean(const std::vector<T>& v) {
  double sum = 0.0;
  for (T x : v) sum += static_cast<double>(x);
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

/// Per-layer metrics of the traced pass, from its spans and counters: the
/// ones every workload produces (write-layer totals are 0 on the read
/// workloads), and in *hybrid_only the write-layer timings.
std::vector<Metric> PerLayer(const Args& a, const PassOut& p,
                             const PassOut& untraced,
                             const std::vector<const SpanRecorder*>& recs,
                             std::vector<Metric>* hybrid_only) {
  const MetricsSnapshot& ms = p.metrics;
  auto p50 = [&](const char* span) {
    return QuantileOf(DurationsOf(recs, span), 0.5);
  };
  // Service call minus its replayed pin and flat query, per sampled read.
  std::map<uint64_t, int64_t> self;
  for (const SpanRecorder* r : recs) {
    for (const Span& s : r->spans()) {
      const int64_t d = static_cast<int64_t>(s.end_ns - s.start_ns);
      const std::string name = s.name;
      if (name == "spc_service.Query") self[s.request] += d;
      if (name == "snapshot_manager.PinSnapshot" ||
          name == "flat_spc_index.Query") {
        self[s.request] -= d;
      }
    }
  }
  std::vector<int64_t> self_ns;
  for (const auto& [req, ns] : self) self_ns.push_back(ns);
  const uint64_t served = ms.StalenessSamples();
  const WriterOut& w = p.writes;

  std::vector<Metric> m = {
      {"hp_spc.build_s", p.build_s, "s"},
      {"parallel_build.build_s", p.parallel_build_s, "s"},
      {"hp_spc.label_entries", static_cast<double>(p.label_entries), "count"},
      {"persist.open_s", p.open_s, "s"},
      {"flat_spc_index.arena_bytes", static_cast<double>(p.arena_bytes),
       "bytes"},
      {"flat_spc_index.query_ns_p50", p50("flat_spc_index.Query"), "ns"},
      {"flat_spc_index.query_ns_p99",
       QuantileOf(DurationsOf(recs, "flat_spc_index.Query"), 0.99), "ns"},
      {"snapshot_manager.pin_ns_p50", p50("snapshot_manager.PinSnapshot"),
       "ns"},
      {"snapshot_manager.rebuilds", static_cast<double>(p.rebuilds), "count"},
      {"snapshot_manager.shards_repacked",
       static_cast<double>(p.shards_repacked), "count"},
      {"snapshot_manager.shards_adopted",
       static_cast<double>(p.shards_adopted), "count"},
      {"pair_cache.hit_ratio",
       Ratio(ms.pair_cache_hits, ms.pair_cache_hits + ms.pair_cache_misses),
       "ratio"},
      {"pair_cache.hits", static_cast<double>(ms.pair_cache_hits), "count"},
      {"pair_cache.misses", static_cast<double>(ms.pair_cache_misses),
       "count"},
      {"pair_cache.evictions", static_cast<double>(ms.pair_cache_evictions),
       "count"},
      {"spc_service.query_ns_p50", p50("spc_service.Query"), "ns"},
      {"spc_service.query_self_ns_p50", QuantileOf(self_ns, 0.5), "ns"},
      {"spc_service.stale_read_ratio",
       Ratio(served - ms.staleness_hist[0], served), "ratio"},
  };
  for (const auto& [name, v] : TotalsFields("inc_spc", w.inc)) {
    m.push_back({name, static_cast<double>(v), "count"});
  }
  for (const auto& [name, v] : TotalsFields("dec_spc", w.dec)) {
    m.push_back({name, static_cast<double>(v), "count"});
  }
  m.push_back({"wal.appended_bytes", double(ms.wal_appended_bytes), "bytes"});
  m.push_back({"wal.syncs", double(ms.wal_syncs), "count"});
  m.push_back({"wal.durable_waits", double(ms.wal_durable_waits), "count"});
  m.push_back({"trace.read_overhead_pct",
               100.0 * (ChunkMeans(untraced.reads.chunks).qps /
                            ChunkMeans(p.reads.chunks).qps -
                        1.0),
               "%"});
  // The same overhead measured inside the traced pass, free of the host's
  // drift between the two passes: time spent on sampling and replays over
  // the time the reads took.
  m.push_back({"trace.read_sampling_pct",
               100.0 * Ratio(p.reads.trace_ns,
                             p.reads.loop_ns - p.reads.trace_ns),
               "%"});
  if (a.workload != Workload::kHybridStream) return m;

  const double inc_mean_s = Mean(w.inc_apply_ns) / 1e9;
  const double dec_mean_s = Mean(w.dec_apply_ns) / 1e9;
  *hybrid_only = {
      {"inc_spc.apply_us_p50", QuantileOf(w.inc_apply_ns, 0.5) / 1e3, "us"},
      {"inc_spc.apply_us_p90", QuantileOf(w.inc_apply_ns, 0.9) / 1e3, "us"},
      {"inc_spc.apply_us_mean", inc_mean_s * 1e6, "us"},
      {"dec_spc.apply_us_p50", QuantileOf(w.dec_apply_ns, 0.5) / 1e3, "us"},
      {"dec_spc.apply_us_mean", dec_mean_s * 1e6, "us"},
      {"inc_spc.speedup_vs_rebuild", p.build_s / inc_mean_s, "x"},
      {"dec_spc.speedup_vs_rebuild", p.build_s / dec_mean_s, "x"},
      {"wal.self_us_p50", QuantileOf(w.wal_self_ns, 0.5) / 1e3, "us"},
      {"flat_spc_index.rebuild_us_p50", QuantileOf(w.repack_ns, 0.5) / 1e3,
       "us"},
      {"trace.writer_overhead_pct",
       100.0 * (w.seconds - untraced.writes.seconds) / untraced.writes.seconds,
       "%"},
  };
  return m;
}

/// Counts that must repeat exactly across runs with the same arguments
/// (and between the untraced and traced pass of one run).
std::map<std::string, uint64_t> ExactCounts(const Args& a, const PassOut& p) {
  std::map<std::string, uint64_t> c;
  c["hp_spc.label_entries"] = p.label_entries;
  if (a.workload != Workload::kHybridStream) {
    c["reads.attempted"] = p.reads.attempted;
    c["pair_cache.hits"] = p.metrics.pair_cache_hits;
    c["pair_cache.misses"] = p.metrics.pair_cache_misses;
    return c;
  }
  for (const auto& [name, v] : TotalsFields("inc_spc", p.writes.inc)) {
    c[name] = v;
  }
  for (const auto& [name, v] : TotalsFields("dec_spc", p.writes.dec)) {
    c[name] = v;
  }
  c["wal.appended_bytes"] = p.metrics.wal_appended_bytes;
  return c;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& m) {
  std::string s = "{";
  for (size_t i = 0; i < m.size(); ++i) {
    s += (i ? ", \"" : "\"") + m[i].name + "\": {\"value\": " +
         Num(m[i].value) + ", \"unit\": \"" + m[i].unit + "\"}";
  }
  return s + "}";
}

std::string CountsJson(const std::map<std::string, uint64_t>& c) {
  std::string s = "{";
  for (const auto& [k, v] : c) {
    s += (s.size() > 1 ? ", \"" : "\"") + k + "\": " + std::to_string(v);
  }
  return s + "}";
}

std::string ConfigJson(const Args& a, const Inputs& in, const Host& h) {
  std::string s = "{";
  auto kv = [&](const char* k, const std::string& v, bool quote) {
    s += (s.size() > 1 ? ", \"" : "\"") + std::string(k) + "\": " +
         (quote ? "\"" + v + "\"" : v);
  };
  kv("workload", a.name, true);
  kv("seed", std::to_string(a.seed), false);
  kv("seconds", std::to_string(a.seconds), false);
  kv("nproc", std::to_string(h.nproc), false);
  kv("cpu_flags", h.cpu_flags, true);
  kv("merge_kernel_tier", h.kernel_tier, true);
  kv("build_threads", std::to_string(h.build_threads), false);
  kv("parallel_build_threads", std::to_string(h.parallel_build_threads),
     false);
  kv("refresh_threads", std::to_string(h.refresh_threads), false);
  kv("reader_threads", std::to_string(h.reader_threads), false);
  kv("writer_threads", std::to_string(h.writer_threads), false);
  kv("wal_fs", h.wal_fs, true);
  kv("wal_sync", "kBatch (2 ms group commit), durable acks", true);
  kv("graph", "rmat scale " + std::to_string(kRmatScale) + ", " +
                  std::to_string(in.graph.NumVertices()) + " vertices, " +
                  std::to_string(in.graph.NumEdges()) + " edges",
     true);
  kv("stream", std::to_string(in.inserts) + " inserts + " +
                   std::to_string(in.deletes) + " deletes",
     true);
  kv("reads",
     (in.reads == 0 ? std::string("until the stream ends")
                    : std::to_string(in.reads) + " after " +
                          std::to_string(in.warmup.size()) + " warm-up") +
         ", cycling " + std::to_string(in.pairs.size()) + " pairs",
     true);
  kv("refresh", "kBackground, " + std::to_string(kShards) + " shards", true);
  kv("pair_cache_capacity", std::to_string(PairCacheOptions{}.capacity),
     false);
  return s + "}";
}

std::vector<Metric> Concat(std::vector<Metric> a, const std::vector<Metric>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

void PrintMetrics(const char* heading, const std::vector<Metric>& m) {
  if (m.empty()) return;
  std::printf("%s\n", heading);
  for (const Metric& x : m) {
    std::printf("  %-36s %16.4f %s\n", x.name.c_str(), x.value,
                x.unit.c_str());
  }
}

int Main(int argc, char** argv) {
  Args a;
  if (!ParseArgs(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload "
                 "<read_uniform|read_zipf|hybrid_stream> --seed <n> "
                 "--seconds <s> --trace <0|1> --out <dir>\n");
    return 2;
  }
  std::filesystem::create_directories(a.out_dir);
  const Host host = DetectHost(a);
  const Inputs in = MakeInputs(a);
  const double input_rss_mb = RssMb();
  const std::string config = ConfigJson(a, in, host);
  std::printf("config %s\n", config.c_str());

  std::vector<double> setup_s;
  const PassOut untraced = UntracedPass(a, in, host, input_rss_mb, &setup_s);
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t checks = 0;
  auto tally = [&](const PassOut& p) {
    attempted += p.reads.attempted + p.writes.attempted + p.oracle_checks;
    failed += p.reads.failed + p.writes.failed + p.oracle_failed;
    checks += p.oracle_checks;
  };
  tally(untraced);
  std::vector<Metric> e2e_hybrid;
  const std::vector<Metric> e2e = EndToEnd(a, untraced, setup_s, &e2e_hybrid);
  PrintMetrics("end_to_end (untraced pass)", e2e);
  PrintMetrics("end_to_end, hybrid_stream only", e2e_hybrid);
  const std::map<std::string, uint64_t> counts = ExactCounts(a, untraced);

  std::vector<Metric> layers;
  std::vector<Metric> layers_hybrid;
  if (a.trace) {
    const Clock::time_point epoch = Clock::now();
    SpanRecorder setup_rec(epoch, 0);
    SpanRecorder reader_rec(epoch, 1u << 20);
    SpanRecorder writer_rec(epoch, 1u << 30);
    const PassOut traced =
        TracedPass(a, in, host, &setup_rec, &reader_rec, &writer_rec);
    tally(traced);
    const std::vector<const SpanRecorder*> recs = {&setup_rec, &reader_rec,
                                                   &writer_rec};
    layers = PerLayer(a, traced, untraced, recs, &layers_hybrid);
    PrintMetrics("per_layer (traced pass)", layers);
    PrintMetrics("per_layer, hybrid_stream only", layers_hybrid);
    if (ExactCounts(a, traced) != counts) {
      std::fprintf(stderr, "perfbench: exact counts differ between the "
                           "untraced and traced pass\n");
      ++failed;
    }
    const std::string spans =
        a.out_dir + "/" + a.name + "-seed" + std::to_string(a.seed) +
        "-spans.json";
    if (!WriteSpansJson(spans, recs)) Die("cannot write " + spans);
    std::printf("spans %s\n", spans.c_str());
  }
  const bool correct = failed == 0;
  const std::string report = a.out_dir + "/" + a.name + "-seed" +
                             std::to_string(a.seed) + ".json";
  if (std::FILE* f = std::fopen(report.c_str(), "w")) {
    std::fprintf(f,
                 "{\"config\": %s,\n \"correct\": %s, \"attempted\": %" PRIu64
                 ", \"failed\": %" PRIu64 ", \"oracle_checks\": %" PRIu64
                 ",\n \"end_to_end\": %s,\n \"per_layer\": %s,\n"
                 " \"exact_counts\": %s}\n",
                 config.c_str(), correct ? "true" : "false", attempted, failed,
                 checks, MetricsJson(Concat(e2e, e2e_hybrid)).c_str(),
                 MetricsJson(Concat(layers, layers_hybrid)).c_str(),
                 CountsJson(counts).c_str());
    std::fclose(f);
  } else {
    Die("cannot write " + report);
  }
  std::printf("report %s\n", report.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed,
              MetricsJson(a.trace ? layers : e2e).c_str());
  std::fflush(stdout);
  std::filesystem::remove_all(host.wal_dir);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
