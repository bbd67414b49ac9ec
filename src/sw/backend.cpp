#include "sw/backend.hpp"

#include <utility>
#include <vector>

#include "sw/scheme_aligner.hpp"

namespace swbpbc::sw {

Backend::~Backend() = default;

void Backend::submit(const ChunkJob& job) { deferred_.push_back(job); }

ChunkResult Backend::collect() {
  if (deferred_.empty())
    throw util::StatusError(
        util::Status::internal("Backend::collect with no submitted job"));
  ChunkJob job = deferred_.front();
  deferred_.pop_front();
  return run(job);
}

namespace {

class HostBackend final : public Backend {
 public:
  // The width resolves once at construction (kAuto probe + env override),
  // so every chunk of a screen runs at the same width and caps() reports
  // what will actually execute.
  HostBackend(const ScoreParams& params, LaneWidth width, bulk::Mode mode,
              encoding::TransposeMethod method)
      : params_(params),
        width_(resolve_lane_width(width)),
        mode_(mode),
        method_(method) {}

  [[nodiscard]] BackendCaps caps() const override {
    BackendCaps caps;
    caps.lane_width = width_;
    return caps;
  }

  ChunkResult run(const ChunkJob& job) override {
    ChunkResult r;
    PhaseTimings t;
    r.scores =
        bpbc_max_scores(job.xs, job.ys, params_, width_, mode_, method_, &t);
    r.timings = t;
    r.has_phase_timings = true;
    return r;
  }

 private:
  ScoreParams params_;
  LaneWidth width_;
  bulk::Mode mode_;
  encoding::TransposeMethod method_;
};

// DNA bases are their dense alphabet codes, so the conversion into the
// generic scheme kernels is a plain widening copy.
std::vector<encoding::GenericSequence> to_generic(
    std::span<const encoding::Sequence> seqs) {
  std::vector<encoding::GenericSequence> out(seqs.size());
  for (std::size_t k = 0; k < seqs.size(); ++k) {
    out[k].reserve(seqs[k].size());
    for (encoding::Base b : seqs[k])
      out[k].push_back(static_cast<std::uint8_t>(b));
  }
  return out;
}

class SchemeHostBackend final : public Backend {
 public:
  SchemeHostBackend(const ScoringScheme& scheme, LaneWidth width,
                    bulk::Mode mode, encoding::TransposeMethod method)
      : scheme_(scheme),
        width_(resolve_lane_width(width)),
        mode_(mode),
        method_(method) {}

  [[nodiscard]] BackendCaps caps() const override {
    BackendCaps caps;
    caps.lane_width = width_;
    return caps;
  }

  ChunkResult run(const ChunkJob& job) override {
    ChunkResult r;
    PhaseTimings t;
    const auto gx = to_generic(job.xs);
    const auto gy = to_generic(job.ys);
    auto scores =
        try_scheme_max_scores(gx, gy, scheme_, width_, mode_, method_, &t);
    if (!scores.has_value()) throw util::StatusError(scores.status());
    r.scores = std::move(scores).value();
    r.timings = t;
    r.has_phase_timings = true;
    return r;
  }

 private:
  ScoringScheme scheme_;
  LaneWidth width_;
  bulk::Mode mode_;
  encoding::TransposeMethod method_;
};

}  // namespace

std::unique_ptr<Backend> make_host_backend(
    const ScoreParams& params, LaneWidth width, bulk::Mode mode,
    encoding::TransposeMethod method) {
  return std::make_unique<HostBackend>(params, width, mode, method);
}

std::unique_ptr<Backend> make_host_backend(
    const ScoringScheme& scheme, LaneWidth width, bulk::Mode mode,
    encoding::TransposeMethod method) {
  // A params-expressible scheme is exactly the legacy kernels; keep that
  // path (and its bit-identity guarantees) rather than re-deriving it.
  if (const auto params = scheme.to_params())
    return std::make_unique<HostBackend>(*params, width, mode, method);
  return std::make_unique<SchemeHostBackend>(scheme, width, mode, method);
}

}  // namespace swbpbc::sw
