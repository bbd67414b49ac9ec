// The scheme circuit's two generalisations of the paper's recurrence,
// checked one property at a time against the scalar Gotoh reference:
//
//   AffineScalar / AffineBpbc — the affine (Gotoh) gap model: hand-worked
//     scores, the open == extend degeneration to linear gaps, slice
//     sizing, and the bit-sliced kernel at 32- and 64-bit lanes;
//   GenericBpbc — epsilon-bit alphabets (binary, protein, full byte)
//     through the substitution-matrix mux, plus the DNA-shaped matrix
//     against the dedicated DNA kernels.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "encoding/generic_batch.hpp"
#include "encoding/random.hpp"
#include "sw/bpbc.hpp"
#include "sw/scalar.hpp"
#include "sw/scheme_aligner.hpp"
#include "sw/scoring.hpp"
#include "util/rng.hpp"

namespace swbpbc::sw {
namespace {

using encoding::GenericSequence;
using encoding::Sequence;

// Affine gap costs in the order the cases below spell them.
struct AffineGaps {
  std::uint32_t match = 2;
  std::uint32_t mismatch = 1;
  std::uint32_t gap_open = 3;
  std::uint32_t gap_extend = 1;
};

ScoringScheme affine(const AffineGaps& g) {
  ScoringScheme s;
  s.match = g.match;
  s.mismatch = g.mismatch;
  s.gap_model = GapModel::kAffine;
  s.gap_open = g.gap_open;
  s.gap_extend = g.gap_extend;
  return s;
}

std::vector<GenericSequence> as_generic(std::span<const Sequence> seqs) {
  std::vector<GenericSequence> out;
  out.reserve(seqs.size());
  for (const Sequence& seq : seqs) {
    GenericSequence g;
    g.reserve(seq.size());
    for (encoding::Base b : seq) g.push_back(encoding::code(b));
    out.push_back(std::move(g));
  }
  return out;
}

std::vector<std::uint32_t> scheme_scores(std::span<const Sequence> xs,
                                         std::span<const Sequence> ys,
                                         const ScoringScheme& scheme,
                                         LaneWidth width) {
  auto scores =
      try_scheme_max_scores(as_generic(xs), as_generic(ys), scheme, width);
  if (!scores.has_value()) throw util::StatusError(scores.status());
  return std::move(scores).value();
}

TEST(AffineScalar, PerfectMatch) {
  const auto x = encoding::sequence_from_string("ACGTACGT");
  EXPECT_EQ(scheme_max_score(x, x, affine({2, 1, 3, 1})), 16u);
}

TEST(AffineScalar, LongGapCheaperThanRepeatedOpens) {
  // x matches y with one 5-column gap (the AAAAA run); no contiguous
  // region of x scores higher than the two 4-match halves (8 each).
  const auto x = encoding::sequence_from_string("GGGGCCCC");
  const auto y = encoding::sequence_from_string("GGGGAAAAACCCC");
  // Best: GGGG [5-gap] CCCC = 8 matches * 2 - (3 + 4 * 1) = 16 - 7 = 9.
  EXPECT_EQ(scheme_max_score(x, y, affine({2, 1, 3, 1})), 9u);
  // With every gap column priced at the open cost the gap costs 15, so
  // the best alignment degrades to one ungapped half (score 8).
  EXPECT_EQ(scheme_max_score(x, y, affine({2, 1, 3, 3})), 8u);
}

TEST(AffineScalar, OpenEqualsExtendDegeneratesToLinear) {
  util::Xoshiro256 rng(1);
  for (int trial = 0; trial < 30; ++trial) {
    const auto x = encoding::random_sequence(rng, 6 + rng.below(12));
    const auto y = encoding::random_sequence(rng, 12 + rng.below(30));
    const auto g = static_cast<std::uint32_t>(1 + rng.below(3));
    EXPECT_EQ(scheme_max_score(x, y, affine({2, 1, g, g})),
              max_score(x, y, ScoreParams{2, 1, g}))
        << "trial " << trial;
  }
}

TEST(AffineScalar, EmptyInputs) {
  const auto x = encoding::sequence_from_string("ACGT");
  EXPECT_EQ(scheme_max_score(Sequence{}, x, affine({2, 1, 3, 1})), 0u);
  EXPECT_EQ(scheme_max_score(x, Sequence{}, affine({2, 1, 3, 1})), 0u);
}

struct AffineCase {
  std::size_t count, m, n;
  AffineGaps params;
  std::uint64_t seed;
};

class AffineBpbcVsScalar : public ::testing::TestWithParam<AffineCase> {};

TEST_P(AffineBpbcVsScalar, Lane32) {
  const AffineCase c = GetParam();
  util::Xoshiro256 rng(c.seed);
  auto xs = encoding::random_sequences(rng, c.count, c.m);
  auto ys = encoding::random_sequences(rng, c.count, c.n);
  for (std::size_t k = 0; k < c.count; k += 4) {
    encoding::plant_motif(ys[k], xs[k], k % (c.n - c.m));
  }
  const ScoringScheme scheme = affine(c.params);
  const auto scores = scheme_scores(xs, ys, scheme, LaneWidth::k32);
  for (std::size_t k = 0; k < c.count; ++k) {
    EXPECT_EQ(scores[k], scheme_max_score(xs[k], ys[k], scheme))
        << "instance " << k;
  }
}

TEST_P(AffineBpbcVsScalar, Lane64) {
  const AffineCase c = GetParam();
  util::Xoshiro256 rng(c.seed + 100);
  const auto xs = encoding::random_sequences(rng, c.count, c.m);
  const auto ys = encoding::random_sequences(rng, c.count, c.n);
  const ScoringScheme scheme = affine(c.params);
  const auto scores = scheme_scores(xs, ys, scheme, LaneWidth::k64);
  for (std::size_t k = 0; k < c.count; ++k) {
    EXPECT_EQ(scores[k], scheme_max_score(xs[k], ys[k], scheme))
        << "instance " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, AffineBpbcVsScalar,
    ::testing::Values(AffineCase{32, 8, 24, {2, 1, 3, 1}, 1},
                      AffineCase{40, 10, 30, {2, 1, 2, 1}, 2},
                      AffineCase{16, 12, 36, {3, 2, 4, 1}, 3},
                      AffineCase{16, 6, 20, {2, 1, 1, 1}, 4},
                      AffineCase{7, 9, 18, {2, 1, 5, 2}, 5}));

TEST(AffineBpbc, AgreesWithLinearPathWhenDegenerate) {
  util::Xoshiro256 rng(9);
  const auto xs = encoding::random_sequences(rng, 32, 9);
  const auto ys = encoding::random_sequences(rng, 32, 30);
  EXPECT_EQ(scheme_scores(xs, ys, affine({2, 1, 1, 1}), LaneWidth::k64),
            bpbc_max_scores(xs, ys, ScoreParams{2, 1, 1}, LaneWidth::k64));
}

TEST(AffineBpbc, SliceSizing) {
  EXPECT_GE(scheme_required_slices(affine({2, 1, 3, 1}), 128, 1024), 9u);
  // The open cost must be representable even if the score range is tiny.
  EXPECT_GE(scheme_required_slices(affine({1, 1, 7, 7}), 1, 2), 3u);
}

// --- epsilon-bit alphabets --------------------------------------------

// +2 on the diagonal, -1 elsewhere, linear gap 1: the paper's DNA
// scoring model over an arbitrary alphabet of `symbols`.
ScoringScheme uniform_matrix(const std::string& symbols) {
  const std::size_t size = symbols.size();
  std::vector<std::int8_t> entries(size * size, -1);
  for (std::size_t a = 0; a < size; ++a) entries[a * size + a] = 2;
  ScoringScheme s;
  s.matrix = std::make_shared<const SubstitutionMatrix>(
      "uniform", symbols, std::move(entries));
  s.gap_open = 1;
  return s;
}

std::string first_symbols(std::size_t size) {
  std::string symbols;
  for (std::size_t c = 0; c < size; ++c)
    symbols.push_back(static_cast<char>(c));
  return symbols;
}

GenericSequence random_generic(util::Xoshiro256& rng, std::size_t len,
                               std::size_t alphabet_size) {
  GenericSequence s(len);
  for (auto& c : s)
    c = static_cast<std::uint8_t>(rng.below(alphabet_size));
  return s;
}

void check_generic_vs_scalar(LaneWidth width, std::size_t count,
                             std::size_t m, std::size_t n,
                             std::size_t alphabet_size, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<GenericSequence> xs, ys;
  for (std::size_t k = 0; k < count; ++k) {
    xs.push_back(random_generic(rng, m, alphabet_size));
    ys.push_back(random_generic(rng, n, alphabet_size));
  }
  // Plant a homolog so high scores exist.
  for (std::size_t k = 0; k < count; k += 5) {
    std::copy(xs[k].begin(), xs[k].end(),
              ys[k].begin() + static_cast<std::ptrdiff_t>(k % (n - m)));
  }
  const ScoringScheme scheme = uniform_matrix(first_symbols(alphabet_size));
  ASSERT_TRUE(validate_scheme(scheme).ok());
  const auto scores = try_scheme_max_scores(xs, ys, scheme, width);
  ASSERT_TRUE(scores.has_value()) << scores.status().to_string();
  ASSERT_EQ(scores->size(), count);
  for (std::size_t k = 0; k < count; ++k) {
    EXPECT_EQ((*scores)[k], scheme_max_score(xs[k], ys[k], scheme))
        << "instance " << k;
  }
}

TEST(GenericBpbc, ProteinAlphabetMatchesScalar32) {
  check_generic_vs_scalar(LaneWidth::k32, 40, 10, 40, 20, 101);
}

TEST(GenericBpbc, ProteinAlphabetMatchesScalar64) {
  check_generic_vs_scalar(LaneWidth::k64, 70, 8, 30, 20, 102);
}

TEST(GenericBpbc, BinaryAlphabet) {
  check_generic_vs_scalar(LaneWidth::k32, 33, 6, 20, 2, 103);
}

TEST(GenericBpbc, FullByteAlphabet) {
  check_generic_vs_scalar(LaneWidth::k32, 32, 5, 18, 256, 104);
}

TEST(GenericBpbc, DnaViaGenericPathMatchesSpecializedPath) {
  // A DNA-shaped matrix through the epsilon = 2 mux path and the
  // dedicated DNA kernels must agree.
  util::Xoshiro256 rng(105);
  const auto xs = encoding::random_sequences(rng, 32, 9);
  const auto ys = encoding::random_sequences(rng, 32, 27);
  const auto generic =
      scheme_scores(xs, ys, uniform_matrix("ATGC"), LaneWidth::k32);
  for (std::size_t k = 0; k < 32; ++k) {
    EXPECT_EQ(generic[k], max_score(xs[k], ys[k], ScoreParams{2, 1, 1}));
  }
}

TEST(GenericBpbc, ValidatesShapes) {
  const ScoringScheme scheme = uniform_matrix(first_symbols(20));
  const SchemeBpbcAligner<std::uint32_t> aligner(scheme, 5, 10);
  EXPECT_EQ(aligner.slices(), 4u);
  util::Xoshiro256 rng(106);
  std::vector<GenericSequence> xs{random_generic(rng, 6, 20)};  // wrong m
  std::vector<GenericSequence> ys{random_generic(rng, 10, 20)};
  const auto bx = encoding::transpose_generic_planar<std::uint32_t>(xs, 5);
  const auto by = encoding::transpose_generic_planar<std::uint32_t>(ys, 5);
  std::vector<std::uint32_t> slices(aligner.slices());
  EXPECT_THROW(aligner.max_score_slices(bx.groups[0].view(),
                                        by.groups[0].view(),
                                        std::span<std::uint32_t>(slices)),
               std::invalid_argument);
}

}  // namespace
}  // namespace swbpbc::sw
