// The self-test: runs small instances of the workloads, confirms every
// check passes on the program's real outputs, then corrupts one output in
// front of each check and confirms that check, by its own finding, fails.
#include <cstdio>

#include "checks.hpp"
#include "common.hpp"
#include "sw/scheme_aligner.hpp"
#include "sw/striped.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace sw = swbpbc::sw;

namespace {

struct Tally {
  std::vector<std::string> missed;
  void clean(const char* what, const std::vector<std::string>& findings) {
    for (const std::string& f : findings)
      missed.push_back(std::string(what) + " fails on correct output: " + f);
  }
  /// The check named `what` must report a finding containing `needle`.
  void caught(const char* what, const std::vector<std::string>& findings, const char* needle) {
    bool hit = false;
    for (const std::string& f : findings) hit = hit || f.find(needle) != std::string::npos;
    std::printf("self-test: %-44s %s\n", what, hit ? "caught" : "MISSED");
    if (!hit) missed.push_back(what);
  }
};

/// Replaces the first letter of `row` that is not a gap with another base.
bool edit_row_letter(std::string& row) {
  for (char& c : row) {
    if (c == '-') continue;
    c = c == 'A' ? 'C' : 'A';
    return true;
  }
  return false;
}

}  // namespace

std::vector<std::string> self_test() {
  Tally tally;

  // dna-filter instance: 64 entries of 128 bases, one query per length.
  const DnaInputs in = make_dna_inputs(1, 64, 128, 1);
  for (std::size_t q = 0; q < in.queries.size(); ++q) {
    const sw::ScreenReport report =
        sw::screen(in.xs[q], in.db, dna_screen_config(in.tau[q], nullptr, true, nullptr));
    tally.clean("dna checks", check_dna_call(in, q, report, 7));
    tally.clean("dna repeat", check_repeat(report, report, "repeat"));
    if (q != 0) continue;
    if (report.hits.empty()) {
      tally.missed.push_back("dna instance has no hit to corrupt");
      continue;
    }
    const sw::ScreenHit& hit = report.hits.front();
    const std::vector<ScoredPair> sample = {{hit.index, report.scores[hit.index] + 1}};
    tally.caught("reference score (linear SW)",
                 check_dna_reference(in.xs[q], in.db, sample, "corrupt"), "!= reference");

    sw::ScreenReport bad = report;
    bad.hits.front().bpbc_score += 1;
    tally.caught("traceback re-score",
                 check_tracebacks(in.queries[q], in.db, bad, in.tau[q], "corrupt"), "re-scores");
    bad = report;
    if (!edit_row_letter(bad.hits.front().detail.x_row))
      tally.missed.push_back("dna hit has an empty traceback row");
    tally.caught("traceback rows spell the x/y ranges",
                 check_tracebacks(in.queries[q], in.db, bad, in.tau[q], "corrupt"),
                 "do not spell");
    bad = report;
    bad.hits.pop_back();
    tally.caught("hit list = scores at or above tau",
                 check_tracebacks(in.queries[q], in.db, bad, in.tau[q], "corrupt"),
                 "hit list disagrees");

    // A planted exact copy scores exactly match * m, the floor and the
    // ceiling both; one below and one above must each be caught.
    const auto m = static_cast<std::uint32_t>(in.queries[q].size());
    const std::size_t planted = in.planted_exact[q].front();
    std::vector<std::uint32_t> scores = report.scores;
    scores[planted] -= 1;
    tally.caught("planted homolog floor (DNA)",
                 check_bounds(scores, in.planted_exact[q], 2 * m, 2 * m, "corrupt"),
                 "planted homolog");
    scores = report.scores;
    scores[planted] += 1;
    tally.caught("score ceiling (DNA)",
                 check_bounds(scores, in.planted_exact[q], 2 * m, 2 * m, "corrupt"),
                 "above the ceiling");

    bad = report;
    bad.scores[planted] += 1;
    tally.caught("repeat equals first (scores)", check_repeat(report, bad, "corrupt"),
                 "repeat scores");
    bad = report;
    bad.hits.front().detail.y_begin += 1;
    tally.caught("repeat equals first (tracebacks)", check_repeat(report, bad, "corrupt"),
                 "hit differs");
  }

  // protein-screen instance: the three groups at 1/8 of their pairs.
  const sw::ScoringScheme scheme = protein_scheme();
  const std::vector<ProteinGroup> groups = make_protein_groups(1, 8);
  for (const ProteinGroup& g : groups) {
    const std::vector<std::uint32_t> bpbc =
        sw::try_scheme_max_scores(g.xs, g.ys, scheme, sw::LaneWidth::kAuto).value();
    const std::vector<std::uint32_t> striped =
        sw::try_striped_max_scores(g.xs, g.ys, scheme).value();
    tally.clean("protein checks", check_protein_group(g, bpbc, 7));
    tally.clean("engine agreement", check_engines_agree(bpbc, striped, g.name));
    if (&g != &groups[1]) continue;
    const std::vector<ScoredPair> sample = {{0, bpbc[0] + 1}};
    tally.caught("reference score (Gotoh, BLOSUM62)",
                 check_protein_reference(g.xs, g.ys, sample, kGapOpen, kGapExtend, "corrupt"),
                 "!= reference");
    std::vector<std::uint32_t> bad = striped;
    bad[0] += 1;
    tally.caught("engine agreement", check_engines_agree(bpbc, bad, "corrupt"), "!= striped");
    // A planted copy may score above its own self-score, so the floor is
    // shown failing one below it rather than one below the real score.
    bad = bpbc;
    bad[g.planted.front()] = g.floor - 1;
    tally.caught("planted homolog floor (protein)", check_protein_group(g, bad, 7),
                 "planted homolog");
    bad = bpbc;
    bad[1] = static_cast<std::uint32_t>(ref_blosum62('W', 'W') * std::min(g.m, g.n)) + 1;
    tally.caught("score ceiling (protein)", check_protein_group(g, bad, 7), "above the ceiling");
    bad = bpbc;
    bad.back() += 1;
    tally.caught("repeat equals first (protein, serve)", check_repeat(bpbc, bad, "corrupt"),
                 "repeat scores");
  }

  // Daemon counters: one request or pair too many, one cache hit.
  const ServeTotals client{10, 160, 0};
  tally.clean("serve totals", check_serve_totals(client, client));
  tally.caught("daemon completed", check_serve_totals(client, {11, 160, 0}), "completed");
  tally.caught("daemon pairs scored", check_serve_totals(client, {10, 161, 0}), "scored");
  tally.caught("daemon cache hits", check_serve_totals(client, {10, 160, 1}), "cache");
  return tally.missed;
}

}  // namespace perfbench
