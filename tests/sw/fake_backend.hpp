// Test-only sw::Backend that scores each job through a caller-supplied
// function: the seam the recovery and cancellation tests use to corrupt
// scores, count calls, or trip a stop at a chosen chunk. Caps are all off,
// so the screen treats it as an opaque serial backend.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sw/backend.hpp"

namespace swbpbc::sw {

class FakeBackend final : public Backend {
 public:
  using ScoreFn = std::function<std::vector<std::uint32_t>(const ChunkJob&)>;

  explicit FakeBackend(ScoreFn score) : score_(std::move(score)) {}

  [[nodiscard]] BackendCaps caps() const override { return {}; }

  ChunkResult run(const ChunkJob& job) override {
    ChunkResult r;
    r.scores = score_(job);
    return r;
  }

 private:
  ScoreFn score_;
};

}  // namespace swbpbc::sw
