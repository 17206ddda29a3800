// Measurement helpers for the perfbench program: a fixed-size latency
// histogram, exact percentiles over small sample vectors, and the
// in-memory span recorder behind the traced run.

#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline uint64_t Ns(Clock::duration d) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
}

/// Log-linear latency histogram in nanoseconds: exact below 2048 ns,
/// then 1024 sub-buckets per power of two (relative error < 0.1%). Its
/// size does not depend on how many samples a run takes, so a
/// time-dependent sample count (the hybrid reader) cannot move the
/// process's peak RSS.
class LatencyHistogram {
 public:
  static constexpr int kLinearBits = 11;
  static constexpr size_t kSub = size_t{1} << (kLinearBits - 1);
  static constexpr size_t kBuckets = kSub * 2 + kSub * 40;

  LatencyHistogram() : counts_(kBuckets, 0) {}

  void Add(uint64_t ns) {
    ++counts_[BucketOf(ns)];
    ++total_;
  }

  void Reset() {
    std::fill(counts_.begin(), counts_.end(), 0);
    total_ = 0;
  }

  /// Value at quantile q in [0, 1] (nearest rank, ceil(q * n)). The
  /// samples of a bucket are taken as spread evenly over its width, so
  /// the answer is interpolated within the bucket rather than snapped to
  /// whole nanoseconds; 0 when empty.
  double Quantile(double q) const {
    if (total_ == 0) return 0.0;
    uint64_t rank = static_cast<uint64_t>(std::ceil(q * total_));
    rank = std::clamp<uint64_t>(rank, 1, total_);
    uint64_t seen = 0;
    for (size_t b = 0; b < counts_.size(); ++b) {
      if (seen + counts_[b] >= rank) {
        const double within = (static_cast<double>(rank - seen) - 0.5) /
                              static_cast<double>(counts_[b]);
        return Low(b) + within * Width(b);
      }
      seen += counts_[b];
    }
    return Low(counts_.size() - 1);
  }

  /// True when at least ten samples lie above quantile q — the rule for
  /// reporting that percentile at all.
  bool Supports(double q) const {
    return static_cast<double>(total_) * (1.0 - q) >= 10.0;
  }

 private:
  static size_t BucketOf(uint64_t v) {
    if (v < 2 * kSub) return static_cast<size_t>(v);
    const int shift = std::bit_width(v) - kLinearBits;
    const size_t b = kSub * shift + static_cast<size_t>(v >> shift);
    return std::min(b, kBuckets - 1);
  }
  static size_t ShiftOf(size_t b) { return b < 2 * kSub ? 0 : b / kSub - 1; }
  static double Low(size_t b) {
    const size_t shift = ShiftOf(b);
    return static_cast<double>((b - kSub * shift) << shift);
  }
  static double Width(size_t b) {
    return static_cast<double>(uint64_t{1} << ShiftOf(b));
  }

  std::vector<uint64_t> counts_;
  uint64_t total_ = 0;
};

/// Exact nearest-rank quantile of a small sample vector; 0 when empty.
template <typename T>
double QuantileOf(std::vector<T> v, double q) {
  if (v.empty()) return 0.0;
  size_t rank = static_cast<size_t>(std::ceil(q * v.size()));
  rank = std::clamp<size_t>(rank, 1, v.size());
  std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
  return static_cast<double>(v[rank - 1]);
}

/// One traced call into a layer. `parent` is the id of the span that
/// caused it (kNoParent for a request's root); spans of one request share
/// `request`.
struct Span {
  static constexpr uint32_t kNoParent = UINT32_MAX;
  const char* name;
  uint64_t start_ns;
  uint64_t end_ns;
  uint32_t parent;
  uint64_t request;
};

/// Append-only span store for one thread. Spans stay in memory during the
/// run; WriteSpansJson dumps them once the run is over.
class SpanRecorder {
 public:
  SpanRecorder(Clock::time_point epoch, uint32_t id_base)
      : epoch_(epoch), id_base_(id_base) {}

  uint32_t Record(const char* name, Clock::time_point start,
                  Clock::time_point end, uint32_t parent, uint64_t request) {
    spans_.push_back(Span{name, Ns(start - epoch_), Ns(end - epoch_), parent,
                          request});
    return id_base_ + static_cast<uint32_t>(spans_.size() - 1);
  }

  /// Opens a span whose end is not known yet (a root whose children are
  /// recorded first); close it with End.
  uint32_t Begin(const char* name, Clock::time_point start, uint64_t request) {
    return Record(name, start, start, Span::kNoParent, request);
  }
  void End(uint32_t id, Clock::time_point end) {
    spans_[id - id_base_].end_ns = Ns(end - epoch_);
  }

  const std::vector<Span>& spans() const { return spans_; }
  uint32_t id_base() const { return id_base_; }

 private:
  Clock::time_point epoch_;
  uint32_t id_base_;
  std::vector<Span> spans_;
};

/// Durations in ns of every span named `name`, across recorders.
inline std::vector<uint64_t> DurationsOf(
    const std::vector<const SpanRecorder*>& recorders, const std::string& name) {
  std::vector<uint64_t> out;
  for (const SpanRecorder* r : recorders) {
    for (const Span& s : r->spans()) {
      if (name == s.name) out.push_back(s.end_ns - s.start_ns);
    }
  }
  return out;
}

/// Writes every span as a JSON array; false on I/O failure.
inline bool WriteSpansJson(const std::string& path,
                           const std::vector<const SpanRecorder*>& recorders) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("[\n", f);
  bool first = true;
  for (const SpanRecorder* r : recorders) {
    for (size_t i = 0; i < r->spans().size(); ++i) {
      const Span& s = r->spans()[i];
      std::fprintf(f,
                   "%s{\"id\":%u,\"name\":\"%s\",\"start_ns\":%llu,"
                   "\"end_ns\":%llu,\"parent\":%s,\"request\":%llu}",
                   first ? "" : ",\n", r->id_base() + static_cast<uint32_t>(i),
                   s.name, static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns),
                   s.parent == Span::kNoParent
                       ? "null"
                       : std::to_string(s.parent).c_str(),
                   static_cast<unsigned long long>(s.request));
      first = false;
    }
  }
  std::fputs("\n]\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
