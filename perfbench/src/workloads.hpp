// Input generation and output checks of the library workloads, shared by
// the workload runs and the self-test.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "db/reader.hpp"
#include "encoding/dna.hpp"
#include "encoding/generic_batch.hpp"
#include "sw/pipeline.hpp"
#include "sw/scoring.hpp"
#include "telemetry/telemetry.hpp"

namespace perfbench {

/// dna-filter inputs: a database, queries of lengths 24 and 64, each
/// query broadcast over every entry, and the entries holding an exact
/// planted copy of each query.
struct DnaInputs {
  std::vector<swbpbc::encoding::Sequence> db;
  std::vector<swbpbc::encoding::Sequence> queries;
  std::vector<std::vector<swbpbc::encoding::Sequence>> xs;
  std::vector<std::vector<std::size_t>> planted_exact;
  std::vector<std::uint32_t> tau;  // 3/4 of a perfect match
};
DnaInputs make_dna_inputs(std::uint64_t seed, std::size_t entries,
                          std::size_t length, std::size_t per_length);

swbpbc::sw::ScreenConfig dna_screen_config(std::uint32_t tau,
                                           swbpbc::db::Reader* reader,
                                           bool traceback,
                                           swbpbc::telemetry::Telemetry* telemetry);

/// Reference scores on a seeded sample and every hit, tracebacks, bounds.
std::vector<std::string> check_dna_call(const DnaInputs& in, std::size_t q,
                                        const swbpbc::sw::ScreenReport& report,
                                        std::uint64_t sample_seed);

/// BLOSUM62 with affine gaps, open kGapOpen and extend kGapExtend.
inline constexpr int kGapOpen = 11, kGapExtend = 1;
swbpbc::sw::ScoringScheme protein_scheme();

/// One protein-screen group: one query against `xs.size()` targets.
struct ProteinGroup {
  std::string name;
  std::size_t m = 0, n = 0;
  std::vector<swbpbc::encoding::GenericSequence> xs, ys;
  std::vector<std::size_t> planted;  // targets holding a copy of the query
  std::uint32_t floor = 0;           // lowest self-score of a planted copy
  double cells = 0;
};
/// The three groups; `scale` divides the pair counts of the full-lane
/// groups (the self-test uses a small instance).
std::vector<ProteinGroup> make_protein_groups(std::uint64_t seed, std::size_t scale);

std::vector<std::string> check_protein_group(const ProteinGroup& g,
                                             std::span<const std::uint32_t> scores,
                                             std::uint64_t sample_seed);

}  // namespace perfbench
