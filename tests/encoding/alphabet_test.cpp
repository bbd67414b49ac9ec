// Generic epsilon-bit alphabet support: alphabets and plane batches.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "encoding/alphabet.hpp"
#include "encoding/generic_batch.hpp"
#include "util/rng.hpp"

namespace swbpbc::encoding {
namespace {

TEST(Alphabet, DnaMatchesPaperCodes) {
  const Alphabet& dna = dna_alphabet();
  EXPECT_EQ(dna.bits(), 2u);
  EXPECT_EQ(dna.code('A'), 0b00);
  EXPECT_EQ(dna.code('T'), 0b01);
  EXPECT_EQ(dna.code('G'), 0b10);
  EXPECT_EQ(dna.code('C'), 0b11);
}

TEST(Alphabet, ProteinUsesFiveBits) {
  const Alphabet& prot = protein_alphabet();
  EXPECT_EQ(prot.size(), 20u);
  EXPECT_EQ(prot.bits(), 5u);
  EXPECT_EQ(prot.decode(prot.encode("KWVTFISLL")), "KWVTFISLL");
}

TEST(Alphabet, RejectsBadConstruction) {
  EXPECT_THROW(Alphabet(""), std::invalid_argument);
  EXPECT_THROW(Alphabet("AAB"), std::invalid_argument);
}

TEST(Alphabet, RejectsUnknownSymbolsAndCodes) {
  const Alphabet abc("abc");
  EXPECT_EQ(abc.bits(), 2u);
  EXPECT_THROW((void)abc.code('z'), std::invalid_argument);
  EXPECT_THROW((void)abc.symbol(3), std::out_of_range);
}

GenericSequence random_generic(util::Xoshiro256& rng, std::size_t len,
                               std::size_t alphabet_size) {
  GenericSequence s(len);
  for (auto& c : s)
    c = static_cast<std::uint8_t>(rng.below(alphabet_size));
  return s;
}

TEST(GenericBatch, RoundTripAllWidths) {
  util::Xoshiro256 rng(11);
  for (unsigned bits : {1u, 2u, 3u, 5u, 8u}) {
    const std::size_t size = std::size_t{1} << bits;
    std::vector<GenericSequence> seqs;
    for (int k = 0; k < 40; ++k)
      seqs.push_back(random_generic(rng, 13, size));
    const auto planned = transpose_generic<std::uint32_t>(
        seqs, bits, TransposeMethod::kPlanned);
    const auto naive = transpose_generic<std::uint32_t>(
        seqs, bits, TransposeMethod::kNaive);
    ASSERT_EQ(planned.groups.size(), naive.groups.size());
    for (std::size_t g = 0; g < planned.groups.size(); ++g) {
      EXPECT_EQ(planned.groups[g].slices, naive.groups[g].slices)
          << "bits=" << bits << " group=" << g;
    }
    for (std::size_t k = 0; k < seqs.size(); ++k) {
      const auto& group = planned.groups[k / 32];
      for (std::size_t i = 0; i < 13; ++i) {
        ASSERT_EQ(read_code(group, k % 32, i), seqs[k][i])
            << "bits=" << bits << " k=" << k << " i=" << i;
      }
    }
  }
}

TEST(GenericBatch, ValidatesInput) {
  std::vector<GenericSequence> bad = {{0, 1}, {0}};
  EXPECT_THROW(transpose_generic<std::uint32_t>(bad, 2),
               std::invalid_argument);
  std::vector<GenericSequence> out_of_range = {{7}};
  EXPECT_THROW(transpose_generic<std::uint32_t>(out_of_range, 2),
               std::invalid_argument);
  std::vector<GenericSequence> ok = {{0, 1, 2}};
  EXPECT_THROW(transpose_generic<std::uint32_t>(ok, 0),
               std::invalid_argument);
}

}  // namespace
}  // namespace swbpbc::encoding
