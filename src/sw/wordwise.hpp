// Wordwise Smith-Waterman — the paper's conventional baseline, where each
// DP value occupies one machine word and instances are processed one per
// bulk-execution slot (Table IV, "Wordwise 32-bits").
//
// Retired as a production engine: the striped-SIMD engine (sw/striped.hpp)
// is the honest wordwise rival now — same one-word-per-cell model, but
// Farrar-striped across SIMD lanes with lazy-F deconstruction, and it
// covers affine gaps and substitution matrices. This path remains as the
// `wordwise-naive` reference backend (sw/dispatch.hpp): a deliberately
// plain cell-at-a-time loop (branchless, but unvectorized) that anchors
// the ablation baseline in bench/ablation_crossover.cpp and the
// EXPERIMENTS.md speedup tables. The auto-dispatcher never selects it;
// request it explicitly via --backend wordwise-naive or
// SWBPBC_FORCE_BACKEND=wordwise-naive.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "bulk/executor.hpp"
#include "encoding/dna.hpp"
#include "sw/params.hpp"

namespace swbpbc::sw {

class Backend;  // sw/backend.hpp

/// Max DP score with unsigned saturating arithmetic — the exact value
/// semantics the BPBC circuit implements (subtract-and-clamp instead of
/// signed max-with-0). Provably equal to scalar max_score; the test suite
/// checks the equivalence property.
std::uint32_t wordwise_max_score(const encoding::Sequence& x,
                                 const encoding::Sequence& y,
                                 const ScoreParams& params);

/// Bulk wordwise scoring of pairs (xs[k], ys[k]).
std::vector<std::uint32_t> wordwise_max_scores(
    std::span<const encoding::Sequence> xs,
    std::span<const encoding::Sequence> ys, const ScoreParams& params,
    bulk::Mode mode = bulk::Mode::kSerial);

/// wordwise_max_scores as a screening Backend (the `wordwise-naive`
/// engine). Caps are all off and it reports no phase split, so the screen
/// attributes its whole call time to SWA.
std::unique_ptr<Backend> make_wordwise_backend(
    const ScoreParams& params, bulk::Mode mode = bulk::Mode::kSerial);

}  // namespace swbpbc::sw
