#include "dspc/api/read_admission.h"

#include <string>

namespace dspc {

namespace {

std::string Describe(const std::optional<uint64_t>& generation) {
  return generation ? "at generation " + std::to_string(*generation)
                    : std::string("none");
}

}  // namespace

Status RefuseRead(const ReadOptions& options, const ReadView& view,
                  Status::Code code) {
  static constexpr const char* kModes[] = {"kFresh", "kSnapshot",
                                           "kBoundedStaleness"};
  const char* mode = kModes[static_cast<size_t>(options.consistency)];
  if (code == Status::Code::kInvalidArgument) {
    return Status::InvalidArgument(
        "min_generation " + std::to_string(options.min_generation) +
        " exceeds the current generation " +
        std::to_string(view.token_ceiling) +
        " — not a token issued by this service");
  }
  if (code == Status::Code::kNotSupported) {
    return Status::NotSupported(std::string(mode) +
                                " needs a live index, and a mapped reader "
                                "has none");
  }
  return Status::Unavailable(
      std::string(mode) + " read has no admissible source: min_generation " +
      std::to_string(options.min_generation) + ", max_lag " +
      std::to_string(options.max_lag) + ", tip " + std::to_string(view.tip) +
      "; snapshot " + Describe(view.snapshot) + ", live index " +
      Describe(view.live) +
      ". Retry once a source catches up (WaitForSnapshot or Refresh), or "
      "relax the mode");
}

Status BadPair(std::span<const VertexPair> pairs, size_t i, size_t n) {
  const auto [s, t] = pairs[i];
  const bool source = static_cast<size_t>(s) >= n;
  std::string message = std::string(source ? "source" : "target") +
                        " vertex id " + std::to_string(source ? s : t) +
                        " outside [0, " + std::to_string(n) + ")";
  if (pairs.size() > 1) message = "pair " + std::to_string(i) + ": " + message;
  return Status::InvalidArgument(message);
}

}  // namespace dspc
