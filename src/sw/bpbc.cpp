#include "sw/bpbc.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/timer.hpp"

namespace swbpbc::sw {

template <bitsim::LaneWord W>
BpbcAligner<W>::BpbcAligner(const ScoreParams& params, std::size_t m,
                            std::size_t n)
    : params_(params),
      m_(m),
      n_(n),
      s_(required_slices(params, m, n)),
      gap_(bitops::broadcast_constant<W>(params.gap, s_)),
      c1_(bitops::broadcast_constant<W>(params.match, s_)),
      c2_(bitops::broadcast_constant<W>(params.mismatch, s_)) {}

template <bitsim::LaneWord W>
void BpbcAligner<W>::max_score_slices(const encoding::TransposedStrings<W>& x,
                                      const encoding::TransposedStrings<W>& y,
                                      std::span<W> out_slices) const {
  max_score_slices(encoding::TransposedView<W>(x),
                   encoding::TransposedView<W>(y), out_slices);
}

template <bitsim::LaneWord W>
void BpbcAligner<W>::max_score_slices(const encoding::TransposedView<W>& x,
                                      const encoding::TransposedView<W>& y,
                                      std::span<W> out_slices) const {
  if (x.length != m_ || y.length != n_)
    throw std::invalid_argument("group lengths do not match aligner (m, n)");
  if (out_slices.size() != s_)
    throw std::invalid_argument("out_slices.size() must equal slices()");
  const unsigned s = s_;
  const std::size_t n = n_;
  constexpr W kZero = bitops::word_traits<W>::zero();

  // One bit-sliced DP row, including the j = -1 boundary column at slot 0.
  std::vector<W> row((n + 1) * s, kZero);
  std::vector<W> diag(s), old_up(s), t(s), u(s), r(s), best(s, kZero);

  const std::span<const W> gap(gap_);
  const std::span<const W> c1(c1_);
  const std::span<const W> c2(c2_);

  for (std::size_t i = 0; i < m_; ++i) {
    const W xh = x.hi[i];
    const W xl = x.lo[i];
    // d[i-1][-1] is the boundary column, always zero.
    std::fill(diag.begin(), diag.end(), kZero);
    for (std::size_t j = 1; j <= n; ++j) {
      const std::span<W> up(row.data() + j * s, s);
      const std::span<const W> left(row.data() + (j - 1) * s, s);
      // Per-lane mismatch flag for characters x[i] vs y[j-1].
      const W e = (xh ^ y.hi[j - 1]) | (xl ^ y.lo[j - 1]);
      std::copy(up.begin(), up.end(), old_up.begin());
      bitops::sw_cell<W>(std::span<const W>(old_up), left,
                         std::span<const W>(diag), e, gap, c1, c2,
                         /*out=*/up, t, u, r);
      // Track the running maximum of the scoring matrix (the screening
      // quantity; the paper's GPU kernel keeps the same running max in R).
      bitops::max_b<W>(std::span<const W>(best), std::span<const W>(up),
                       std::span<W>(best));
      std::copy(old_up.begin(), old_up.end(), diag.begin());
    }
  }
  std::copy(best.begin(), best.end(), out_slices.begin());
}

template <bitsim::LaneWord W>
std::vector<std::uint32_t> BpbcAligner<W>::max_scores(
    const encoding::TransposedStrings<W>& x,
    const encoding::TransposedStrings<W>& y) const {
  std::vector<W> slices(s_);
  max_score_slices(x, y, std::span<W>(slices));
  return encoding::untranspose_values<W>(std::span<const W>(slices), s_);
}

template <bitsim::LaneWord W>
W BpbcAligner<W>::threshold_mask(std::span<const W> score_slices,
                                 std::uint32_t threshold) const {
  const std::vector<W> tau = bitops::broadcast_constant<W>(threshold, s_);
  return bitops::ge_mask<W>(score_slices, std::span<const W>(tau));
}

template <bitsim::LaneWord W>
unsigned BpbcAligner<W>::threshold_count(std::span<const W> score_slices,
                                         std::uint32_t threshold) const {
  return bitops::popcount(threshold_mask(score_slices, threshold));
}

template class BpbcAligner<std::uint32_t>;
template class BpbcAligner<std::uint64_t>;
template class BpbcAligner<bitsim::simd_word<128>>;
template class BpbcAligner<bitsim::simd_word<256>>;
template class BpbcAligner<bitsim::simd_word<512>>;
template class BpbcAligner<bitsim::wide_word<256, false>>;

namespace {

template <bitsim::LaneWord W>
std::vector<std::uint32_t> score_batch(std::span<const encoding::Sequence> xs,
                                       std::span<const encoding::Sequence> ys,
                                       const ScoreParams& params,
                                       bulk::Mode mode,
                                       encoding::TransposeMethod method,
                                       PhaseTimings* timings) {
  constexpr unsigned kLanes = bitsim::word_bits_v<W>;
  const std::size_t count = xs.size();
  const std::size_t m = xs.empty() ? 0 : xs.front().size();
  const std::size_t n = ys.empty() ? 0 : ys.front().size();

  util::WallTimer timer;
  const auto bx = encoding::transpose_strings<W>(xs, method);
  const auto by = encoding::transpose_strings<W>(ys, method);
  if (timings) timings->w2b_ms = timer.elapsed_ms();

  const BpbcAligner<W> aligner(params, m, n);
  const unsigned s = aligner.slices();
  const std::size_t n_groups = bx.groups.size();
  std::vector<std::vector<W>> group_slices(n_groups,
                                           std::vector<W>(s));
  timer.reset();
  bulk::for_each_instance(n_groups, mode, [&](std::size_t g) {
    aligner.max_score_slices(bx.groups[g], by.groups[g],
                             std::span<W>(group_slices[g]));
  });
  if (timings) timings->swa_ms = timer.elapsed_ms();

  timer.reset();
  std::vector<std::uint32_t> scores(count, 0);
  for (std::size_t g = 0; g < n_groups; ++g) {
    const auto lane_scores = encoding::untranspose_values<W>(
        std::span<const W>(group_slices[g]), s, method);
    const std::size_t base = g * kLanes;
    const std::size_t used = std::min<std::size_t>(kLanes, count - base);
    std::copy_n(lane_scores.begin(), used,
                scores.begin() + static_cast<std::ptrdiff_t>(base));
  }
  if (timings) timings->b2w_ms = timer.elapsed_ms();
  return scores;
}

}  // namespace

util::Expected<std::vector<std::uint32_t>> try_bpbc_max_scores(
    std::span<const encoding::Sequence> xs,
    std::span<const encoding::Sequence> ys, const ScoreParams& params,
    LaneWidth width, bulk::Mode mode, encoding::TransposeMethod method,
    PhaseTimings* timings) {
  if (xs.size() != ys.size())
    return util::Status::invalid_input(
        "pattern/text count mismatch: " + std::to_string(xs.size()) +
        " patterns vs " + std::to_string(ys.size()) + " texts");
  if (xs.empty()) return std::vector<std::uint32_t>{};
  const std::size_t m = xs.front().size();
  const std::size_t n = ys.front().size();
  if (m == 0 || n == 0)
    return util::Status::invalid_input("sequences must be non-empty");
  for (std::size_t k = 0; k < xs.size(); ++k) {
    if (xs[k].size() != m)
      return util::Status::invalid_input(
          "non-uniform batch: xs[" + std::to_string(k) + "] has length " +
          std::to_string(xs[k].size()) + ", batch requires " +
          std::to_string(m));
    if (ys[k].size() != n)
      return util::Status::invalid_input(
          "non-uniform batch: ys[" + std::to_string(k) + "] has length " +
          std::to_string(ys[k].size()) + ", batch requires " +
          std::to_string(n));
  }
  switch (resolve_lane_width(width)) {
    case LaneWidth::k32:
      return score_batch<std::uint32_t>(xs, ys, params, mode, method, timings);
    case LaneWidth::k64:
      return score_batch<std::uint64_t>(xs, ys, params, mode, method, timings);
    case LaneWidth::k128:
      return score_batch<bitsim::simd_word<128>>(xs, ys, params, mode, method,
                                                 timings);
    case LaneWidth::k256:
      return score_batch<bitsim::simd_word<256>>(xs, ys, params, mode, method,
                                                 timings);
    case LaneWidth::k512:
      return score_batch<bitsim::simd_word<512>>(xs, ys, params, mode, method,
                                                 timings);
    case LaneWidth::kScalarWide:
      return score_batch<bitsim::wide_word<256, false>>(xs, ys, params, mode,
                                                        method, timings);
    case LaneWidth::kAuto:
      break;  // resolve_lane_width never returns kAuto
  }
  return util::Status::invalid_input("unresolvable lane width");
}

std::vector<std::uint32_t> bpbc_max_scores(
    std::span<const encoding::Sequence> xs,
    std::span<const encoding::Sequence> ys, const ScoreParams& params,
    LaneWidth width, bulk::Mode mode, encoding::TransposeMethod method,
    PhaseTimings* timings) {
  return try_bpbc_max_scores(xs, ys, params, width, mode, method, timings)
      .value();
}

}  // namespace swbpbc::sw
