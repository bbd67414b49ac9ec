// Crash-safe request journal: admitted/completed replay, the
// admitted-minus-completed pending set, torn-tail salvage after a
// simulated kill mid-append, and the typed rejections — foreign
// fingerprint (scoring config changed) and records damaged beyond the
// torn tail.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "encoding/random.hpp"
#include "service/journal.hpp"
#include "service/protocol.hpp"
#include "util/checkpoint.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace swbpbc::service {
namespace {

constexpr std::uint64_t kFp = 0xFEEDBEEF;

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "swbpbc_journal_" + name;
}

ScreenRequest make_request(const std::string& id, std::uint64_t seed = 3) {
  util::Xoshiro256 rng(seed);
  ScreenRequest req;
  req.id = id;
  req.tenant = "acme";
  req.xs = encoding::random_sequences(rng, 2, 8);
  req.ys = encoding::random_sequences(rng, 2, 24);
  return req;
}

ScreenResponse make_response(const std::string& id) {
  ScreenResponse resp;
  resp.id = id;
  resp.scores = {11, 7};
  return resp;
}

TEST(Journal, FreshJournalStartsEmpty) {
  const std::string path = temp_path("fresh.journal");
  std::remove(path.c_str());
  auto journal = RequestJournal::open(path, kFp);
  ASSERT_TRUE(journal.has_value()) << journal.status().to_string();
  EXPECT_EQ(journal->replayed(), 0u);
  EXPECT_TRUE(journal->take_pending().empty());
  EXPECT_TRUE(journal->take_completed().empty());
  std::remove(path.c_str());
}

TEST(Journal, ReplaysAdmittedMinusCompletedAsPending) {
  const std::string path = temp_path("replay.journal");
  std::remove(path.c_str());
  {
    auto journal = RequestJournal::open(path, kFp);
    ASSERT_TRUE(journal.has_value());
    ASSERT_TRUE(journal->record_admitted(make_request("done")).ok());
    ASSERT_TRUE(journal->record_admitted(make_request("pending")).ok());
    ASSERT_TRUE(journal->record_completed(make_response("done")).ok());
    EXPECT_EQ(journal->appended(), 3u);
  }  // "crash": destructor closes, no graceful shutdown bookkeeping

  auto journal = RequestJournal::open(path, kFp);
  ASSERT_TRUE(journal.has_value()) << journal.status().to_string();
  EXPECT_EQ(journal->replayed(), 3u);

  const auto pending = journal->take_pending();
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0].id, "pending");
  EXPECT_EQ(pending[0].xs, make_request("pending").xs);

  const auto completed = journal->take_completed();
  ASSERT_EQ(completed.size(), 1u);
  ASSERT_TRUE(completed.contains("done"));
  EXPECT_EQ(completed.find("done")->scores, make_response("done").scores);
  std::remove(path.c_str());
}

TEST(Journal, ReplayKeepsTheNewestCompletionsOnly) {
  const std::string path = temp_path("window.journal");
  std::remove(path.c_str());
  constexpr std::size_t kUnique = kResponseCacheCapacity + 3;
  {
    auto journal = RequestJournal::open(path, kFp);
    ASSERT_TRUE(journal.has_value());
    for (std::size_t k = 0; k < kUnique; ++k)
      ASSERT_TRUE(
          journal->record_completed(make_response(std::to_string(k))).ok());
  }
  auto journal = RequestJournal::open(path, kFp);
  ASSERT_TRUE(journal.has_value()) << journal.status().to_string();
  EXPECT_EQ(journal->replayed(), kUnique);
  const ResponseCache completed = journal->take_completed();
  EXPECT_EQ(completed.size(), kResponseCacheCapacity);
  EXPECT_FALSE(completed.contains("0"));  // evicted in journal order
  EXPECT_FALSE(completed.contains("2"));
  EXPECT_TRUE(completed.contains("3"));
  EXPECT_TRUE(completed.contains(std::to_string(kUnique - 1)));
  std::remove(path.c_str());
}

TEST(Journal, SurvivesRepeatedRestarts) {
  const std::string path = temp_path("restart.journal");
  std::remove(path.c_str());
  // Three generations, each appending after a replay — the sequence
  // numbering must keep advancing or records would overwrite.
  for (int gen = 0; gen < 3; ++gen) {
    auto journal = RequestJournal::open(path, kFp);
    ASSERT_TRUE(journal.has_value()) << journal.status().to_string();
    EXPECT_EQ(journal->replayed(), static_cast<std::uint64_t>(gen));
    ASSERT_TRUE(
        journal->record_admitted(make_request("g" + std::to_string(gen)))
            .ok());
  }
  auto journal = RequestJournal::open(path, kFp);
  ASSERT_TRUE(journal.has_value());
  const auto pending = journal->take_pending();
  ASSERT_EQ(pending.size(), 3u);
  EXPECT_EQ(pending[0].id, "g0");
  EXPECT_EQ(pending[2].id, "g2");
  std::remove(path.c_str());
}

TEST(Journal, DropsTornTailRecord) {
  const std::string path = temp_path("torn.journal");
  std::remove(path.c_str());
  {
    auto journal = RequestJournal::open(path, kFp);
    ASSERT_TRUE(journal.has_value());
    ASSERT_TRUE(journal->record_admitted(make_request("whole")).ok());
  }
  // A kill -9 mid-append leaves a partial record at the tail; fake one.
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    const char torn[] = {0x52, 0x45, 0x43, 0x00, 0x01};  // record marker...
    out.write(torn, sizeof(torn));
  }
  auto journal = RequestJournal::open(path, kFp);
  ASSERT_TRUE(journal.has_value()) << journal.status().to_string();
  EXPECT_EQ(journal->replayed(), 1u);
  const auto pending = journal->take_pending();
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0].id, "whole");
  // The tail was physically truncated: a new append then a clean reopen.
  ASSERT_TRUE(journal->record_admitted(make_request("after")).ok());
  auto reopened = RequestJournal::open(path, kFp);
  ASSERT_TRUE(reopened.has_value()) << reopened.status().to_string();
  EXPECT_EQ(reopened->take_pending().size(), 2u);
  std::remove(path.c_str());
}

TEST(Journal, RejectsForeignFingerprint) {
  const std::string path = temp_path("foreign.journal");
  std::remove(path.c_str());
  {
    auto journal = RequestJournal::open(path, kFp);
    ASSERT_TRUE(journal.has_value());
    ASSERT_TRUE(journal->record_admitted(make_request("r")).ok());
  }
  // Restarting under different scoring rules must refuse the journal
  // rather than serve scores computed under the old ones.
  auto journal = RequestJournal::open(path, kFp + 1);
  ASSERT_FALSE(journal.has_value());
  EXPECT_EQ(journal.status().code(), util::ErrorCode::kCheckpointMismatch);
  std::remove(path.c_str());
}

TEST(Journal, RejectsUndecodableRecordPayload) {
  const std::string path = temp_path("garbage.journal");
  std::remove(path.c_str());
  {
    // A checksum-valid record whose payload is not a journal record: the
    // stream layer accepts it, the journal layer must refuse to replay.
    auto writer = util::CheckpointWriter::try_create(path, kFp);
    ASSERT_TRUE(writer.has_value());
    const std::vector<std::uint8_t> garbage = {0x7F, 0x00, 0x01, 0x02};
    ASSERT_TRUE(writer->append(0, garbage).ok());
  }
  auto journal = RequestJournal::open(path, kFp);
  ASSERT_FALSE(journal.has_value());
  EXPECT_EQ(journal.status().code(), util::ErrorCode::kCheckpointCorrupt);
  std::remove(path.c_str());
}

TEST(Journal, CompletedResponsesRoundTripExactly) {
  const std::string path = temp_path("bits.journal");
  std::remove(path.c_str());
  ScreenResponse resp;
  resp.id = "bits";
  resp.code = util::ErrorCode::kOk;
  resp.scores = {0, 1, 0xFFFFFFFFu, 42};
  {
    auto journal = RequestJournal::open(path, kFp);
    ASSERT_TRUE(journal.has_value());
    ASSERT_TRUE(journal->record_admitted(make_request("bits")).ok());
    ASSERT_TRUE(journal->record_completed(resp).ok());
  }
  auto journal = RequestJournal::open(path, kFp);
  ASSERT_TRUE(journal.has_value());
  const auto completed = journal->take_completed();
  ASSERT_TRUE(completed.contains("bits"));
  // Bit-identical: the retrying client receives exactly the bytes the
  // crashed daemon would have sent.
  EXPECT_EQ(encode_response(*completed.find("bits")), encode_response(resp));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace swbpbc::service
