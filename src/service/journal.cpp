#include "service/journal.hpp"

#include <algorithm>
#include <utility>

namespace swbpbc::service {

namespace {

// Record kinds. Values are on-disk format — append only.
constexpr std::uint8_t kAdmitted = 1;
constexpr std::uint8_t kCompleted = 2;

std::vector<std::uint8_t> with_kind(std::uint8_t kind,
                                    std::vector<std::uint8_t> body) {
  std::vector<std::uint8_t> payload;
  payload.reserve(1 + body.size());
  payload.push_back(kind);
  payload.insert(payload.end(), body.begin(), body.end());
  return payload;
}

}  // namespace

util::Expected<RequestJournal> RequestJournal::open(
    const std::string& path, std::uint64_t fingerprint) {
  util::CheckpointData replayed;
  auto writer =
      util::CheckpointWriter::try_append(path, fingerprint, &replayed);
  if (!writer.has_value()) return writer.status();
  RequestJournal journal(std::move(writer).value());

  // Replay in journal order: admitted enters pending, completed moves
  // the id out of pending into the response cache.
  for (const util::CheckpointRecord& record : replayed.records) {
    journal.next_sequence_ =
        std::max(journal.next_sequence_, record.chunk_index + 1);
    if (record.payload.empty())
      return util::Status::checkpoint_corrupt(
          "journal '" + path + "' holds an empty record");
    const std::uint8_t kind = record.payload.front();
    const std::span<const std::uint8_t> body(record.payload.data() + 1,
                                             record.payload.size() - 1);
    if (kind == kAdmitted) {
      auto request = decode_request(body);
      if (!request.has_value())
        return util::Status::checkpoint_corrupt(
            "journal '" + path + "' holds an undecodable admitted record: " +
            request.status().message());
      journal.pending_.push_back(std::move(request).value());
    } else if (kind == kCompleted) {
      auto response = decode_response(body);
      if (!response.has_value())
        return util::Status::checkpoint_corrupt(
            "journal '" + path + "' holds an undecodable completed record: " +
            response.status().message());
      const std::string id = response->id;
      journal.completed_.insert(std::move(response).value());
      std::erase_if(journal.pending_,
                    [&id](const ScreenRequest& r) { return r.id == id; });
    } else {
      return util::Status::checkpoint_corrupt(
          "journal '" + path + "' holds a record of unknown kind " +
          std::to_string(kind));
    }
    ++journal.replayed_;
  }
  return journal;
}

util::Status RequestJournal::record_admitted(const ScreenRequest& request) {
  util::Status s = writer_.append(next_sequence_,
                                  with_kind(kAdmitted, encode_request(request)));
  if (!s.ok()) return s;
  ++next_sequence_;
  ++appended_;
  return {};
}

util::Status RequestJournal::record_completed(const ScreenResponse& response) {
  util::Status s = writer_.append(
      next_sequence_, with_kind(kCompleted, encode_response(response)));
  if (!s.ok()) return s;
  ++next_sequence_;
  ++appended_;
  return {};
}

std::vector<ScreenRequest> RequestJournal::take_pending() {
  return std::exchange(pending_, {});
}

ResponseCache RequestJournal::take_completed() {
  return std::exchange(completed_, {});
}

void ResponseCache::insert(ScreenResponse response) {
  if (auto it = by_id_.find(response.id); it != by_id_.end()) {
    it->second = std::move(response);
    return;
  }
  if (by_id_.size() == kResponseCacheCapacity) {
    by_id_.erase(order_.front());
    order_.pop_front();
  }
  order_.push_back(response.id);
  by_id_.emplace(order_.back(), std::move(response));
}

const ScreenResponse* ResponseCache::find(const std::string& id) const {
  const auto it = by_id_.find(id);
  return it != by_id_.end() ? &it->second : nullptr;
}

}  // namespace swbpbc::service
