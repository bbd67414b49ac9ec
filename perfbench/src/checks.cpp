#include "checks.hpp"

#include <algorithm>
#include <array>
#include <set>
#include <stdexcept>
#include <string_view>

#include "common.hpp"
#include "encoding/alphabet.hpp"

namespace perfbench {

namespace enc = swbpbc::encoding;

namespace {

// BLOSUM62 as published by NCBI (rows and columns in this letter order).
constexpr std::string_view kBlosumOrder = "ARNDCQEGHILKMFPSTWYV";
constexpr std::array<std::array<int, 20>, 20> kBlosum62 = {{
    {4, -1, -2, -2, 0, -1, -1, 0, -2, -1, -1, -1, -1, -2, -1, 1, 0, -3, -2, 0},
    {-1, 5, 0, -2, -3, 1, 0, -2, 0, -3, -2, 2, -1, -3, -2, -1, -1, -3, -2, -3},
    {-2, 0, 6, 1, -3, 0, 0, 0, 1, -3, -3, 0, -2, -3, -2, 1, 0, -4, -2, -3},
    {-2, -2, 1, 6, -3, 0, 2, -1, -1, -3, -4, -1, -3, -3, -1, 0, -1, -4, -3, -3},
    {0, -3, -3, -3, 9, -3, -4, -3, -3, -1, -1, -3, -1, -2, -3, -1, -1, -2, -2, -1},
    {-1, 1, 0, 0, -3, 5, 2, -2, 0, -3, -2, 1, 0, -3, -1, 0, -1, -2, -1, -2},
    {-1, 0, 0, 2, -4, 2, 5, -2, 0, -3, -3, 1, -2, -3, -1, 0, -1, -3, -2, -2},
    {0, -2, 0, -1, -3, -2, -2, 6, -2, -4, -4, -2, -3, -3, -2, 0, -2, -2, -3, -3},
    {-2, 0, 1, -1, -3, 0, 0, -2, 8, -3, -3, -1, -2, -1, -2, -1, -2, -2, 2, -3},
    {-1, -3, -3, -3, -1, -3, -3, -4, -3, 4, 2, -3, 1, 0, -3, -2, -1, -3, -1, 3},
    {-1, -2, -3, -4, -1, -2, -3, -4, -3, 2, 4, -2, 2, 0, -3, -2, -1, -2, -1, 1},
    {-1, 2, 0, -1, -3, 1, 1, -2, -1, -3, -2, 5, -1, -3, -1, 0, -1, -3, -2, -2},
    {-1, -1, -2, -3, -1, 0, -2, -3, -2, 1, 2, -1, 5, 0, -2, -1, -1, -1, -1, 1},
    {-2, -3, -3, -3, -2, -3, -3, -3, -1, 0, 0, -3, 0, 6, -4, -2, -2, 1, 3, -1},
    {-1, -2, -2, -1, -3, -1, -1, -2, -2, -3, -3, -1, -2, -4, 7, -1, -1, -4, -3, -2},
    {1, -1, 1, 0, -1, 0, 0, 0, -1, -2, -2, 0, -1, -2, -1, 4, 1, -3, -2, -2},
    {0, -1, 0, -1, -1, -1, -1, -2, -2, -1, -1, -1, -1, -2, -1, 1, 5, -2, -2, 0},
    {-3, -3, -4, -4, -2, -2, -3, -2, -2, -3, -2, -3, -1, 1, -4, -3, -2, 11, 2, -3},
    {-2, -2, -2, -3, -2, -1, -2, -3, 2, -1, -1, -2, -1, 3, -3, -2, -2, 2, 7, -1},
    {0, -3, -3, -3, -1, -2, -2, -3, -3, 3, 1, -2, 1, -1, -2, -2, 0, -3, -1, 4},
}};

std::string pair_label(const std::string& label, std::size_t index) {
  return label + " pair " + std::to_string(index);
}

}  // namespace

std::uint32_t ref_sw_linear(const enc::Sequence& x, const enc::Sequence& y,
                            int match, int mismatch, int gap) {
  std::vector<int> prev(y.size() + 1, 0), cur(y.size() + 1, 0);
  int best = 0;
  for (std::size_t i = 1; i <= x.size(); ++i) {
    cur[0] = 0;
    for (std::size_t j = 1; j <= y.size(); ++j) {
      const int w = x[i - 1] == y[j - 1] ? match : -mismatch;
      const int h = std::max({0, prev[j - 1] + w, prev[j] - gap, cur[j - 1] - gap});
      cur[j] = h;
      best = std::max(best, h);
    }
    std::swap(prev, cur);
  }
  return static_cast<std::uint32_t>(best);
}

int ref_blosum62(char a, char b) {
  const std::size_t i = kBlosumOrder.find(a);
  const std::size_t j = kBlosumOrder.find(b);
  if (i == std::string_view::npos || j == std::string_view::npos)
    throw std::invalid_argument("not an amino-acid letter");
  return kBlosum62[i][j];
}

std::uint32_t ref_gotoh_blosum62(const std::string& x, const std::string& y,
                                 int open, int extend) {
  constexpr int kNone = -(1 << 28);
  const std::size_t n = y.size();
  std::vector<int> h_prev(n + 1, 0), h_cur(n + 1, 0), f(n + 1, kNone);
  int best = 0;
  for (std::size_t i = 1; i <= x.size(); ++i) {
    int e = kNone;
    h_cur[0] = 0;
    for (std::size_t j = 1; j <= n; ++j) {
      e = std::max(h_cur[j - 1] - open, e - extend);      // gap in x
      f[j] = std::max(h_prev[j] - open, f[j] - extend);   // gap in y
      const int diag = h_prev[j - 1] + ref_blosum62(x[i - 1], y[j - 1]);
      const int h = std::max({0, diag, e, f[j]});
      h_cur[j] = h;
      best = std::max(best, h);
    }
    std::swap(h_prev, h_cur);
  }
  return static_cast<std::uint32_t>(best);
}

std::string protein_letters(const enc::GenericSequence& s) {
  const enc::Alphabet& aa = enc::protein_alphabet();
  std::string out;
  out.reserve(s.size());
  for (const std::uint8_t c : s) out.push_back(aa.symbol(c));
  return out;
}

std::vector<std::string> check_dna_reference(std::span<const enc::Sequence> xs,
                                             std::span<const enc::Sequence> ys,
                                             std::span<const ScoredPair> pairs,
                                             const std::string& label) {
  std::vector<std::string> findings;
  for (const ScoredPair& p : pairs) {
    const std::uint32_t want = ref_sw_linear(xs[p.index], ys[p.index], 2, 1, 1);
    if (p.score != want)
      findings.push_back(pair_label(label, p.index) + ": score " +
                         std::to_string(p.score) + " != reference " +
                         std::to_string(want));
  }
  return findings;
}

std::vector<std::string> check_protein_reference(
    std::span<const enc::GenericSequence> xs,
    std::span<const enc::GenericSequence> ys, std::span<const ScoredPair> pairs,
    int open, int extend, const std::string& label) {
  std::vector<std::string> findings;
  for (const ScoredPair& p : pairs) {
    const std::uint32_t want = ref_gotoh_blosum62(
        protein_letters(xs[p.index]), protein_letters(ys[p.index]), open, extend);
    if (p.score != want)
      findings.push_back(pair_label(label, p.index) + ": score " +
                         std::to_string(p.score) + " != reference " +
                         std::to_string(want));
  }
  return findings;
}

std::vector<std::string> check_tracebacks(const enc::Sequence& query,
                                          std::span<const enc::Sequence> db,
                                          const swbpbc::sw::ScreenReport& report,
                                          std::uint32_t tau,
                                          const std::string& label) {
  std::vector<std::string> findings;
  std::set<std::size_t> listed;
  for (const swbpbc::sw::ScreenHit& hit : report.hits) {
    const std::string where = pair_label(label, hit.index);
    listed.insert(hit.index);
    if (!hit.detailed) {
      findings.push_back(where + ": hit has no traceback");
      continue;
    }
    const swbpbc::sw::Alignment& a = hit.detail;
    const std::string& xr = a.x_row;
    const std::string& yr = a.y_row;
    if (xr.size() != yr.size()) {
      findings.push_back(where + ": traceback rows differ in length");
      continue;
    }
    long long score = 0;
    std::string x_plain, y_plain;
    for (std::size_t c = 0; c < xr.size(); ++c) {
      if (xr[c] == '-' || yr[c] == '-') {
        score -= 1;
      } else {
        score += xr[c] == yr[c] ? 2 : -1;
      }
      if (xr[c] != '-') x_plain.push_back(xr[c]);
      if (yr[c] != '-') y_plain.push_back(yr[c]);
    }
    if (score != static_cast<long long>(hit.bpbc_score))
      findings.push_back(where + ": traceback re-scores to " +
                         std::to_string(score) + ", screen score " +
                         std::to_string(hit.bpbc_score));
    const enc::Sequence& y = db[hit.index];
    if (a.x_end > query.size() || a.x_begin > a.x_end || a.y_end > y.size() ||
        a.y_begin > a.y_end) {
      findings.push_back(where + ": traceback range out of bounds");
      continue;
    }
    const enc::Sequence xs(query.begin() + static_cast<std::ptrdiff_t>(a.x_begin),
                           query.begin() + static_cast<std::ptrdiff_t>(a.x_end));
    const enc::Sequence ys(y.begin() + static_cast<std::ptrdiff_t>(a.y_begin),
                           y.begin() + static_cast<std::ptrdiff_t>(a.y_end));
    if (x_plain != enc::to_string(xs) || y_plain != enc::to_string(ys))
      findings.push_back(where + ": traceback rows do not spell the x/y ranges");
  }
  for (std::size_t k = 0; k < report.scores.size(); ++k) {
    const bool above = report.scores[k] >= tau;
    if (above != (listed.count(k) != 0))
      findings.push_back(pair_label(label, k) + ": hit list disagrees with "
                         "score " + std::to_string(report.scores[k]) +
                         " at tau " + std::to_string(tau));
  }
  return findings;
}

std::vector<std::string> check_bounds(std::span<const std::uint32_t> scores,
                                      std::span<const std::size_t> planted,
                                      std::uint32_t floor, std::uint32_t ceiling,
                                      const std::string& label) {
  std::vector<std::string> findings;
  for (const std::size_t k : planted)
    if (scores[k] < floor)
      findings.push_back(pair_label(label, k) + ": planted homolog scores " +
                         std::to_string(scores[k]) + " < " +
                         std::to_string(floor));
  for (std::size_t k = 0; k < scores.size(); ++k)
    if (scores[k] > ceiling)
      findings.push_back(pair_label(label, k) + ": score " +
                         std::to_string(scores[k]) + " above the ceiling " +
                         std::to_string(ceiling));
  return findings;
}

std::vector<std::string> check_engines_agree(std::span<const std::uint32_t> bpbc,
                                             std::span<const std::uint32_t> striped,
                                             const std::string& label) {
  std::vector<std::string> findings;
  if (bpbc.size() != striped.size()) {
    findings.push_back(label + ": engines returned different pair counts");
    return findings;
  }
  for (std::size_t k = 0; k < bpbc.size(); ++k)
    if (bpbc[k] != striped[k])
      findings.push_back(pair_label(label, k) + ": bpbc " +
                         std::to_string(bpbc[k]) + " != striped " +
                         std::to_string(striped[k]));
  return findings;
}

std::vector<std::string> check_repeat(std::span<const std::uint32_t> first,
                                      std::span<const std::uint32_t> again,
                                      const std::string& label) {
  if (first.size() != again.size())
    return {label + ": repeat returned " + std::to_string(again.size()) + " scores, first " +
            std::to_string(first.size())};
  for (std::size_t k = 0; k < first.size(); ++k)
    if (first[k] != again[k])
      return {pair_label(label, k) + ": repeat scores " + std::to_string(again[k]) +
              ", first " + std::to_string(first[k])};
  return {};
}

std::vector<std::string> check_repeat(const swbpbc::sw::ScreenReport& first,
                                      const swbpbc::sw::ScreenReport& again,
                                      const std::string& label) {
  std::vector<std::string> findings = check_repeat(first.scores, again.scores, label);
  if (first.hits.size() != again.hits.size()) {
    findings.push_back(label + ": repeat listed " + std::to_string(again.hits.size()) +
                       " hits, first " + std::to_string(first.hits.size()));
    return findings;
  }
  for (std::size_t h = 0; h < first.hits.size(); ++h) {
    const swbpbc::sw::ScreenHit& x = first.hits[h];
    const swbpbc::sw::ScreenHit& y = again.hits[h];
    if (x.index != y.index || x.bpbc_score != y.bpbc_score || x.detailed != y.detailed ||
        x.detail.score != y.detail.score || x.detail.x_row != y.detail.x_row ||
        x.detail.y_row != y.detail.y_row || x.detail.x_begin != y.detail.x_begin ||
        x.detail.y_begin != y.detail.y_begin) {
      findings.push_back(pair_label(label, x.index) + ": repeat's hit differs from the first");
      break;
    }
  }
  return findings;
}

std::vector<std::string> check_serve_totals(const ServeTotals& client,
                                            const ServeTotals& server) {
  std::vector<std::string> findings;
  if (server.completed != client.completed)
    findings.push_back("daemon completed " + std::to_string(server.completed) +
                       " requests, client received " +
                       std::to_string(client.completed));
  if (server.pairs_scored != client.pairs_scored)
    findings.push_back("daemon scored " + std::to_string(server.pairs_scored) +
                       " pairs, client received " +
                       std::to_string(client.pairs_scored));
  if (server.cache_hits != 0)
    findings.push_back("daemon served " + std::to_string(server.cache_hits) +
                       " responses from its cache");
  return findings;
}

std::vector<std::size_t> sample_indices(std::uint64_t seed, std::size_t n,
                                        std::size_t count) {
  std::vector<std::size_t> all(n);
  for (std::size_t i = 0; i < n; ++i) all[i] = i;
  Rng rng(seed);
  count = std::min(count, n);
  for (std::size_t i = 0; i < count; ++i)
    std::swap(all[i], all[i + rng.below(n - i)]);
  all.resize(count);
  std::sort(all.begin(), all.end());
  return all;
}

}  // namespace perfbench
