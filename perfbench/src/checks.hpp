// Output checks made apart from the program: the benchmark's own
// Smith-Waterman (linear gaps) and Gotoh (affine gaps) recurrences, its
// own copy of BLOSUM62 from the published table, a column-by-column
// re-score of every traceback, score bounds, engine agreement and the
// daemon's counters. Every check returns its findings; empty = passed.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "encoding/dna.hpp"
#include "encoding/generic_batch.hpp"
#include "sw/pipeline.hpp"

namespace perfbench {

// --- references ---------------------------------------------------------

/// Linear-gap local alignment score, +match / -mismatch / -gap per column.
std::uint32_t ref_sw_linear(const swbpbc::encoding::Sequence& x,
                            const swbpbc::encoding::Sequence& y, int match,
                            int mismatch, int gap);

/// BLOSUM62 entry for two one-letter amino-acid codes (NCBI table).
int ref_blosum62(char a, char b);

/// Affine-gap (Gotoh) local alignment score under BLOSUM62 over amino
/// acid letter strings; a gap of k columns costs open + (k - 1) * extend.
std::uint32_t ref_gotoh_blosum62(const std::string& x, const std::string& y,
                                 int open, int extend);

/// Letters of a protein sequence in the library's alphabet codes.
std::string protein_letters(const swbpbc::encoding::GenericSequence& s);

// --- checks -------------------------------------------------------------

/// One scored pair and the score the program reported for it.
struct ScoredPair {
  std::size_t index = 0;
  std::uint32_t score = 0;
};

/// Scores equal the DNA reference (linear gaps, {match, mismatch, gap}).
std::vector<std::string> check_dna_reference(
    std::span<const swbpbc::encoding::Sequence> xs,
    std::span<const swbpbc::encoding::Sequence> ys,
    std::span<const ScoredPair> pairs, const std::string& label);

/// Scores equal the BLOSUM62 affine reference.
std::vector<std::string> check_protein_reference(
    std::span<const swbpbc::encoding::GenericSequence> xs,
    std::span<const swbpbc::encoding::GenericSequence> ys,
    std::span<const ScoredPair> pairs, int open, int extend,
    const std::string& label);

/// Every traceback re-scores, column by column from its x_row/y_row, to
/// its screening score; its rows with gaps removed equal the reported x/y
/// ranges; and the hit list is exactly the pairs scoring >= tau.
std::vector<std::string> check_tracebacks(
    const swbpbc::encoding::Sequence& query,
    std::span<const swbpbc::encoding::Sequence> db,
    const swbpbc::sw::ScreenReport& report, std::uint32_t tau,
    const std::string& label);

/// Planted homologs score at least `floor`, and no pair scores above
/// `ceiling`.
std::vector<std::string> check_bounds(std::span<const std::uint32_t> scores,
                                      std::span<const std::size_t> planted,
                                      std::uint32_t floor,
                                      std::uint32_t ceiling,
                                      const std::string& label);

/// Two engines forced on the same pairs agree score for score.
std::vector<std::string> check_engines_agree(
    std::span<const std::uint32_t> bpbc, std::span<const std::uint32_t> striped,
    const std::string& label);

/// A repeated call or request returned exactly the first one's scores.
std::vector<std::string> check_repeat(std::span<const std::uint32_t> first,
                                      std::span<const std::uint32_t> again,
                                      const std::string& label);

/// A repeated screen returned exactly the first one's report: scores,
/// hits and every hit's traceback.
std::vector<std::string> check_repeat(const swbpbc::sw::ScreenReport& first,
                                      const swbpbc::sw::ScreenReport& again,
                                      const std::string& label);

/// The daemon's stats scrape against the client's own totals.
struct ServeTotals {
  std::uint64_t completed = 0;
  std::uint64_t pairs_scored = 0;
  std::uint64_t cache_hits = 0;
};
std::vector<std::string> check_serve_totals(const ServeTotals& client,
                                            const ServeTotals& server);

/// `count` distinct indices below `n`, drawn from `seed`.
std::vector<std::size_t> sample_indices(std::uint64_t seed, std::size_t n,
                                        std::size_t count);

}  // namespace perfbench
