// Crash-safe request journal: the daemon's exactly-once-computed memory.
//
// Two record kinds ride a util::CheckpointWriter append stream (so the
// journal inherits the checkpoint format's magic/version/fingerprint
// header, per-record checksums, and torn-tail salvage):
//   * admitted  — the full ScreenRequest payload, written BEFORE the
//     request is queued for compute;
//   * completed — the final ScreenResponse (id, code, scores), written
//     AFTER compute, before the response frame goes out.
//
// A daemon killed (-9) mid-batch therefore restarts into one of two
// states per request, both recoverable: admitted-only (recompute it —
// scoring is deterministic, so the scores come out bit-identical) or
// completed (serve the journaled response; the client retrying the same
// idempotency id gets the exact bytes it would have received). The
// journal's header fingerprint binds it to the scoring configuration, so
// a restart with different parameters refuses the journal (typed
// kCheckpointMismatch) instead of serving scores computed under other
// rules.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "service/protocol.hpp"
#include "util/checkpoint.hpp"

namespace swbpbc::service {

/// Retry window of the daemon's response cache: a client that retries one
/// of the last kResponseCacheCapacity completed ids is served the cached
/// bytes; an older id is recomputed (scoring is deterministic, so the
/// scores are the same). Bounds the daemon's memory, which otherwise grows
/// with every unique request id it ever completed.
inline constexpr std::size_t kResponseCacheCapacity = 4096;

/// Completed responses keyed by idempotency id, holding the newest
/// kResponseCacheCapacity insertions and evicting the oldest first.
class ResponseCache {
 public:
  /// Caches `response` under its id. Re-inserting a cached id replaces the
  /// response and keeps its place in the eviction order.
  void insert(ScreenResponse response);

  /// The cached response for `id`, or nullptr.
  [[nodiscard]] const ScreenResponse* find(const std::string& id) const;
  [[nodiscard]] bool contains(const std::string& id) const {
    return find(id) != nullptr;
  }
  [[nodiscard]] std::size_t size() const { return by_id_.size(); }
  [[nodiscard]] bool empty() const { return by_id_.empty(); }

 private:
  std::unordered_map<std::string, ScreenResponse> by_id_;
  std::deque<std::string> order_;  // insertion order, oldest first
};

class RequestJournal {
 public:
  /// Opens (or creates) the journal at `path`, replaying every valid
  /// record. `fingerprint` must cover the scoring configuration
  /// (sw::fingerprint_params + lane width); a journal written under a
  /// different fingerprint is rejected kCheckpointMismatch. A torn tail
  /// record (crash mid-append) is dropped and physically truncated.
  static util::Expected<RequestJournal> open(const std::string& path,
                                             std::uint64_t fingerprint);

  RequestJournal(RequestJournal&&) noexcept = default;
  RequestJournal& operator=(RequestJournal&&) noexcept = default;

  /// Journals a request at admission: one write() of the whole record,
  /// not fsync'd, so it survives a kill -9 of the daemon (the page cache
  /// keeps it) but not a host crash or power loss. Must succeed before
  /// the request may enter the compute queue.
  util::Status record_admitted(const ScreenRequest& request);

  /// Journals a terminal response for an id. Must succeed before the
  /// response frame is sent.
  util::Status record_completed(const ScreenResponse& response);

  /// Requests replayed as admitted-but-never-completed, in journal
  /// order. The daemon recomputes these at startup. Consumes the state.
  std::vector<ScreenRequest> take_pending();

  /// Responses replayed as completed, keyed by idempotency id: the newest
  /// kResponseCacheCapacity in journal order. The daemon seeds its
  /// response cache from this. Consumes the state.
  ResponseCache take_completed();

  /// Records appended since open (not counting replayed ones).
  [[nodiscard]] std::uint64_t appended() const { return appended_; }
  /// Records recovered from disk at open.
  [[nodiscard]] std::uint64_t replayed() const { return replayed_; }

 private:
  explicit RequestJournal(util::CheckpointWriter writer)
      : writer_(std::move(writer)) {}

  util::CheckpointWriter writer_;
  std::uint64_t next_sequence_ = 0;
  std::uint64_t appended_ = 0;
  std::uint64_t replayed_ = 0;
  std::vector<ScreenRequest> pending_;
  ResponseCache completed_;
};

}  // namespace swbpbc::service
