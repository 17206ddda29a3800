#include "bench_util.h"

#include <cstdlib>
#include <cstring>
#include <utility>

#include "dspc/common/stopwatch.h"
#include "dspc/core/flat_spc_index.h"
#include "dspc/core/hp_spc.h"
#include "dspc/graph/generators.h"
#include "dspc/persist/env.h"
#include "dspc/persist/snapshot_arena.h"

namespace dspc {
namespace bench {

size_t ScaleFactor() {
  const char* env = std::getenv("DSPC_BENCH_SCALE");
  if (env == nullptr) return 1;
  if (std::strcmp(env, "medium") == 0) return 2;
  if (std::strcmp(env, "large") == 0) return 4;
  return 1;
}

namespace {

/// log2 helper for R-MAT scales.
size_t Log2Ceil(size_t n) {
  size_t s = 0;
  while ((size_t{1} << s) < n) ++s;
  return s;
}

std::vector<Dataset> BuildAll() {
  const size_t f = ScaleFactor();
  std::vector<Dataset> sets;
  // Recipes follow DESIGN.md §4: densities and skew mirror the paper's
  // Table 3 graphs at ~1/40 scale (times the scale factor). All recipes
  // are heavy-tailed (BA / R-MAT) because hub labeling — like the paper's
  // real graphs — relies on a degree hierarchy.
  sets.push_back({"EUA", "BA(n=6k*f, attach=2)",
                  GenerateBarabasiAlbert(6000 * f, 2, 101)});
  sets.push_back({"NTD", "RMAT(n=8k*f, m=3.3n)",
                  GenerateRmat(Log2Ceil(8192 * f), 27000 * f, 102)});
  sets.push_back({"STA", "RMAT(n=8k*f, m=7n)",
                  GenerateRmat(Log2Ceil(8192 * f), 57000 * f, 103)});
  sets.push_back({"WCO", "RMAT(n=4k*f, m=8.3n)",
                  GenerateRmat(Log2Ceil(4096 * f), 34000 * f, 104)});
  sets.push_back({"GOO", "RMAT(n=16k*f, m=5n)",
                  GenerateRmat(Log2Ceil(16384 * f), 80000 * f, 105)});
  sets.push_back({"BKS", "RMAT(n=8k*f, m=9.7n)",
                  GenerateRmat(Log2Ceil(8192 * f), 79000 * f, 106)});
  sets.push_back({"SKI", "BA(n=12k*f, attach=3)",
                  GenerateBarabasiAlbert(12000 * f, 3, 107)});
  sets.push_back({"DBP", "BA(n=16k*f, attach=2)",
                  GenerateBarabasiAlbert(16000 * f, 2, 108)});
  sets.push_back({"WAR", "RMAT(n=8k*f, m=12n)",
                  GenerateRmat(Log2Ceil(8192 * f), 98000 * f, 109)});
  sets.push_back({"IND", "RMAT(n=16k*f, m=10n)",
                  GenerateRmat(Log2Ceil(16384 * f), 160000 * f, 110)});
  return sets;
}

}  // namespace

std::vector<Dataset> MakeDatasets() {
  std::vector<Dataset> all = BuildAll();
  const char* filter = std::getenv("DSPC_BENCH_DATASETS");
  if (filter == nullptr) return all;
  std::vector<Dataset> out;
  const std::string list = filter;
  for (Dataset& d : all) {
    if (list.find(d.name) != std::string::npos) out.push_back(std::move(d));
  }
  return out;
}

std::vector<Dataset> MakeDatasets(size_t k) {
  std::vector<Dataset> all = MakeDatasets();
  if (all.size() > k) all.resize(k);
  return all;
}

size_t InsertionsPerGraph() { return 100 * ScaleFactor(); }
size_t DeletionsPerGraph() { return 10 * ScaleFactor(); }
size_t QueriesPerGraph() { return 1000 * ScaleFactor(); }

namespace {

std::string CacheDir() {
  const char* env = std::getenv("DSPC_BENCH_CACHE");
  std::string dir = env != nullptr ? env : "/tmp/dspc_bench_cache";
  std::system(("mkdir -p " + dir).c_str());
  return dir;
}

}  // namespace

SpcIndex BuildOrLoadIndex(const Dataset& dataset, double* build_seconds) {
  const std::string base = CacheDir() + "/" + dataset.name + "_x" +
                           std::to_string(ScaleFactor());
  const std::string index_path = base + ".index";
  const std::string meta_path = base + ".meta";

  // The cache is a snapshot arena image; one that fails validation (an
  // older format, a torn write) is simply rebuilt.
  SpcIndex index;
  auto cached = MappedArena::Map(FileSystem::Default(), index_path);
  if (cached.ok() &&
      cached->snapshot()->NumVertices() == dataset.graph.NumVertices()) {
    index = cached->snapshot()->Unpack();
    if (build_seconds != nullptr) {
      *build_seconds = 0.0;
      if (std::FILE* f = std::fopen(meta_path.c_str(), "r")) {
        if (std::fscanf(f, "%lf", build_seconds) != 1) *build_seconds = 0.0;
        std::fclose(f);
      }
    }
    return index;
  }

  Stopwatch sw;
  index = BuildSpcIndex(dataset.graph);
  const double seconds = sw.ElapsedSeconds();
  if (build_seconds != nullptr) *build_seconds = seconds;
  (void)WriteSnapshotArena(FileSystem::Default(), index_path,
                           FlatSpcIndex(index), /*generation=*/0,
                           /*wal_seq=*/0);
  if (std::FILE* f = std::fopen(meta_path.c_str(), "w")) {
    std::fprintf(f, "%.6f\n", seconds);
    std::fclose(f);
  }
  return index;
}

std::string CpuFlags() {
  std::string flags;
#if defined(__x86_64__)
  __builtin_cpu_init();
  const std::pair<const char*, bool> known[] = {
      {"popcnt", __builtin_cpu_supports("popcnt")},
      {"sse4.2", __builtin_cpu_supports("sse4.2")},
      {"avx", __builtin_cpu_supports("avx")},
      {"avx2", __builtin_cpu_supports("avx2")},
      {"bmi2", __builtin_cpu_supports("bmi2")},
      {"avx512f", __builtin_cpu_supports("avx512f")},
  };
  for (const auto& [name, on] : known) {
    if (!on) continue;
    if (!flags.empty()) flags += ' ';
    flags += name;
  }
#endif
  return flags.empty() ? "none" : flags;
}

void PrintRule(size_t width) {
  for (size_t i = 0; i < width * 12; ++i) std::putchar('-');
  std::putchar('\n');
}

std::string FormatSeconds(double s) {
  char buf[32];
  if (s < 1e-3) {
    std::snprintf(buf, sizeof(buf), "%.1fus", s * 1e6);
  } else if (s < 1.0) {
    std::snprintf(buf, sizeof(buf), "%.2fms", s * 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2fs", s);
  }
  return buf;
}

std::string FormatMb(size_t bytes) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", static_cast<double>(bytes) / 1e6);
  return buf;
}

}  // namespace bench
}  // namespace dspc
