// The two in-process library workloads, each on one thread:
//
//   dna-filter      the paper's §III filter: DNA queries screened with
//                   sw::try_screen against a database served from a
//                   pre-transposed db store, hits re-aligned with traceback.
//   protein-screen  BLOSUM62 affine pairs in query-length groups on both
//                   sides of the dispatcher's crossover, each resolved with
//                   sw::resolve_backend_choice and run on the engine it picks.
#include <cstdio>
#include <stdexcept>

#include "bitsim/wide_word.hpp"
#include "checks.hpp"
#include "common.hpp"
#include "db/builder.hpp"
#include "db/reader.hpp"
#include "encoding/alphabet.hpp"
#include "encoding/generic_batch.hpp"
#include "run_dir.hpp"
#include "workloads.hpp"
#include "sw/dispatch.hpp"
#include "sw/lane.hpp"
#include "sw/scalar.hpp"
#include "sw/scheme_aligner.hpp"
#include "sw/striped.hpp"

namespace perfbench {

namespace enc = swbpbc::encoding;
namespace sw = swbpbc::sw;
namespace tel = swbpbc::telemetry;

// Set-up (`setup_s`) is the cold start plus a fixed warm-up of whole
// rounds of the workload's own calls, about three seconds in the fast speed
// regime. A cold start alone takes a few milliseconds and lands in one of
// the host's two speed regimes (~1.6x apart, each lasting 1-3 s; see
// README.md), so its median over a set of runs jumps between the two; a
// set-up that spans several regime periods averages them.
constexpr std::size_t kDnaWarmupRounds = 40;       // 16 calls each, ~70 ms
constexpr std::size_t kProteinWarmupRounds = 280;  // 3 calls each, ~10 ms

// --- dna-filter ----------------------------------------------------------

DnaInputs make_dna_inputs(std::uint64_t seed, std::size_t entries,
                          std::size_t length, std::size_t per_length) {
  constexpr std::size_t kQueryLengths[] = {24, 64};
  Rng rng(seed * 0x2545f4914f6cdd1dULL + 11);
  DnaInputs in;
  for (std::size_t k = 0; k < entries; ++k) in.db.push_back(random_dna(rng, length));
  for (const std::size_t m : kQueryLengths)
    for (std::size_t i = 0; i < per_length; ++i) in.queries.push_back(random_dna(rng, m));

  // Each query is planted into four distinct entries: two exact copies
  // (the homologs the score bounds check) and two with ~10% substitutions.
  const std::vector<std::size_t> hosts =
      sample_indices(rng.next(), entries, 4 * in.queries.size());
  std::vector<std::size_t> order = hosts;
  for (std::size_t i = order.size(); i > 1; --i) std::swap(order[i - 1], order[rng.below(i)]);
  in.planted_exact.resize(in.queries.size());
  for (std::size_t q = 0; q < in.queries.size(); ++q) {
    const enc::Sequence& query = in.queries[q];
    for (std::size_t copy = 0; copy < 4; ++copy) {
      const std::size_t host = order[4 * q + copy];
      enc::Sequence motif = query;
      if (copy >= 2)
        for (auto& b : motif)
          if (rng.below(10) == 0)
            b = enc::base_from_code(static_cast<std::uint8_t>(enc::code(b) + 1 + rng.below(3)));
      const std::size_t at = rng.below(length - query.size() + 1);
      std::copy(motif.begin(), motif.end(), in.db[host].begin() + static_cast<std::ptrdiff_t>(at));
      if (copy < 2) in.planted_exact[q].push_back(host);
    }
  }
  for (const enc::Sequence& q : in.queries) {
    in.xs.emplace_back(entries, q);
    in.tau.push_back(static_cast<std::uint32_t>(2 * q.size() * 3 / 4));
  }
  return in;
}

sw::ScreenConfig dna_screen_config(std::uint32_t tau, swbpbc::db::Reader* reader,
                                   bool traceback, tel::Telemetry* telemetry) {
  sw::ScreenConfig config;
  config.params = {2, 1, 1};
  config.threshold = tau;
  config.width = sw::LaneWidth::kAuto;
  config.traceback = traceback;
  config.database = reader;
  config.telemetry = telemetry;
  return config;
}

std::vector<std::string> check_dna_call(const DnaInputs& in, std::size_t q,
                                        const sw::ScreenReport& report,
                                        std::uint64_t sample_seed) {
  const std::string label = "dna-filter query " + std::to_string(q);
  const enc::Sequence& query = in.queries[q];
  std::vector<std::string> findings;
  if (report.scores.size() != in.db.size()) {
    findings.push_back(label + ": " + std::to_string(report.scores.size()) + " scores for " +
                       std::to_string(in.db.size()) + " entries");
    return findings;
  }
  std::vector<ScoredPair> pairs;
  for (const std::size_t k : sample_indices(sample_seed + q, in.db.size(), 16))
    pairs.push_back({k, report.scores[k]});
  for (const sw::ScreenHit& hit : report.hits) pairs.push_back({hit.index, report.scores[hit.index]});
  auto add = [&](std::vector<std::string> more) {
    findings.insert(findings.end(), more.begin(), more.end());
  };
  add(check_dna_reference(in.xs[q], in.db, pairs, label));
  add(check_tracebacks(query, in.db, report, in.tau[q], label));
  const auto m = static_cast<std::uint32_t>(query.size());
  const auto shorter = static_cast<std::uint32_t>(std::min(query.size(), in.db.front().size()));
  add(check_bounds(report.scores, in.planted_exact[q], 2 * m, 2 * shorter, label));
  return findings;
}

Result run_dna_filter(const Options& opt) {
  constexpr std::size_t kEntries = 256, kLength = 512, kPerLength = 8;
  Result res;
  RunDir dir;
  const DnaInputs in = make_dna_inputs(opt.seed, kEntries, kLength, kPerLength);
  const std::size_t queries = in.queries.size();

  const std::string store = dir.path() + "/dna.swdb";
  auto t = Clock::now();
  if (swbpbc::util::Status s = swbpbc::db::build_database(in.db, store); !s.ok()) {
    res.fail("db build: " + s.to_string());
    return res;
  }
  const double build_ms = ms_since(t);
  t = Clock::now();
  auto opened = swbpbc::db::Reader::open(store);
  const double open_ms = ms_since(t);
  if (!opened.has_value()) {
    res.fail("db open: " + opened.status().to_string());
    return res;
  }
  swbpbc::db::Reader reader = std::move(opened).value();

  // Warm-up: the first round's outputs are the ones every later call must
  // repeat. Set-up ends after the whole warm-up (see kDnaWarmupRounds).
  std::vector<sw::ScreenReport> expected;
  double cold_ms = 0;  // to the end of the first call: the cold part of set-up
  for (std::size_t round = 0; round < kDnaWarmupRounds; ++round) {
    for (std::size_t q = 0; q < queries; ++q) {
      ++res.attempted;
      auto r = sw::try_screen(in.xs[q], in.db, dna_screen_config(in.tau[q], &reader, true, nullptr));
      if (!r.has_value()) {
        res.fail("warm-up screen: " + r.status().to_string());
        return res;
      }
      if (round == 0 && q == 0) cold_ms = 1e3 * seconds_since_start();
      if (round == 0)
        expected.push_back(std::move(r).value());
      else
        res.absorb(check_repeat(expected[q], *r, "dna-filter query " + std::to_string(q) + " warm-up"));
    }
  }
  const double setup_s = seconds_since_start();

  std::vector<double> cells(queries);
  for (std::size_t q = 0; q < queries; ++q)
    cells[q] = static_cast<double>(kEntries * in.queries[q].size() * kLength);

  std::vector<std::vector<double>> full_ms(queries), traced_ms(queries), score_ms(queries),
      traceback_ms(queries);
  tel::TelemetryConfig tcfg;
  tcfg.enabled = opt.trace;
  tel::Telemetry session(tcfg);
  tel::Tracer* const tracer = session.enabled() ? session.tracer() : nullptr;
  if (tracer != nullptr) tracer->set_track_name(tel::kTrackClient, "perfbench");

  auto screen = [&](std::size_t q, bool traceback, tel::Telemetry* sink,
                    std::vector<double>& times) {
    ++res.attempted;
    const auto t0 = Clock::now();
    auto r = sw::try_screen(in.xs[q], in.db, dna_screen_config(in.tau[q], &reader, traceback, sink));
    times.push_back(ms_since(t0));
    if (!r.has_value()) {
      ++res.failed;
      return;
    }
    const std::string label = "dna-filter query " + std::to_string(q) + " repeat";
    res.absorb(traceback ? check_repeat(expected[q], *r, label)
                         : check_repeat(expected[q].scores, r->scores, label));
  };

  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration<double>(opt.seconds);
  while (Clock::now() < deadline) {
    for (std::size_t q = 0; q < queries; ++q) {
      screen(q, true, nullptr, full_ms[q]);
      if (!opt.trace) continue;
      {
        tel::Span span(tracer, "perfbench.screen", "perfbench", tel::kTrackClient);
        span.arg("query", static_cast<std::int64_t>(q));
        screen(q, true, session.sink(), traced_ms[q]);
      }
      {
        tel::Span span(tracer, "perfbench.screen_scores_only", "perfbench", tel::kTrackClient);
        screen(q, false, nullptr, score_ms[q]);
      }
      tel::Span span(tracer, "perfbench.traceback", "perfbench", tel::kTrackClient);
      const auto t0 = Clock::now();
      for (const sw::ScreenHit& hit : expected[q].hits) {
        const sw::Alignment a = sw::align(in.queries[q], in.db[hit.index], {2, 1, 1});
        if (a.score != hit.bpbc_score) res.fail("dna-filter: sw::align disagrees with the screen");
      }
      traceback_ms[q].push_back(ms_since(t0));
    }
  }

  for (std::size_t q = 0; q < queries; ++q)
    res.absorb(check_dna_call(in, q, expected[q], opt.seed ^ 0xd1a));

  const LibraryFigures fig = library_figures(full_ms, cells);
  std::printf("dna-filter: %llu calls, %.1f%% in the fast regime\n",
              static_cast<unsigned long long>(res.attempted), 100.0 * fig.fast_share);
  if (!opt.trace) {
    res.metric("setup_s", setup_s, "s");
    res.metric("gcups", fig.gcups, "GCUPS");
    res.metric("latency_p50_ms", fig.latency_p50_ms, "ms");
    res.metric("requests_per_s", fig.calls_per_s, "req/s");
    res.metric("peak_rss_mb", peak_rss_mb(), "MB");
    return res;
  }
  std::size_t hits = 0;
  std::vector<double> tb;
  for (std::size_t q = 0; q < queries; ++q) {
    hits += expected[q].hits.size();
    tb.push_back(median(traceback_ms[q]));
  }
  res.metric("setup.cold_ms", cold_ms, "ms");
  res.metric("db.build_ms", build_ms, "ms");
  res.metric("db.open_ms", open_ms, "ms");
  res.metric("sw.score_gcups", library_figures(score_ms, cells).gcups, "GCUPS");
  res.metric("sw.traceback_ms", mean(tb), "ms");
  res.metric("sw.hits", static_cast<double>(hits), "count");
  res.metric("trace.overhead", fig.gcups / library_figures(traced_ms, cells).gcups, "ratio");
  res.metric("bench.fast_share", fig.fast_share, "ratio");
  write_trace(opt, session);
  return res;
}

// --- protein-screen ------------------------------------------------------

sw::ScoringScheme protein_scheme() {
  sw::ScoringScheme scheme;
  scheme.matrix = sw::blosum62();
  scheme.gap_model = sw::GapModel::kAffine;
  scheme.gap_open = kGapOpen;
  scheme.gap_extend = kGapExtend;
  return scheme;
}

namespace {

std::uint32_t self_score(const enc::GenericSequence& s) {
  int total = 0;
  for (const char c : protein_letters(s)) total += ref_blosum62(c, c);
  return static_cast<std::uint32_t>(total);
}

swbpbc::util::Expected<std::vector<std::uint32_t>> run_engine(
    const ProteinGroup& g, const sw::ScoringScheme& scheme, sw::BackendChoice engine) {
  return engine == sw::BackendChoice::kStriped
             ? sw::try_striped_max_scores(g.xs, g.ys, scheme, swbpbc::bulk::Mode::kSerial)
             : sw::try_scheme_max_scores(g.xs, g.ys, scheme, sw::LaneWidth::kAuto,
                                         swbpbc::bulk::Mode::kSerial);
}

template <typename W>
double time_generic_w2b(const ProteinGroup& g, unsigned bits) {
  const auto t0 = Clock::now();
  const auto batch = enc::transpose_generic_planar<W>(g.ys, bits);
  const double ms = ms_since(t0);
  if (batch.count != g.ys.size()) throw std::runtime_error("generic W2B lost strings");
  return ms;
}

double time_generic_w2b(const ProteinGroup& g, unsigned bits, sw::LaneWidth width) {
  namespace bs = swbpbc::bitsim;
  switch (width) {
    case sw::LaneWidth::k32: return time_generic_w2b<std::uint32_t>(g, bits);
    case sw::LaneWidth::k64: return time_generic_w2b<std::uint64_t>(g, bits);
    case sw::LaneWidth::k128: return time_generic_w2b<bs::simd_word<128>>(g, bits);
    case sw::LaneWidth::k256: return time_generic_w2b<bs::simd_word<256>>(g, bits);
    case sw::LaneWidth::k512: return time_generic_w2b<bs::simd_word<512>>(g, bits);
    default: return time_generic_w2b<bs::wide_word<256, false>>(g, bits);
  }
}

}  // namespace

std::vector<ProteinGroup> make_protein_groups(std::uint64_t seed, std::size_t scale) {
  // Short full-lane, the BENCH_crossover.json narrow-margin region
  // (blosum62 m24 n200, margin 1.109), and a long under-filled group.
  struct Shape {
    const char* name;
    std::size_t m, n, pairs;
  };
  const Shape shapes[] = {{"short-full", 16, 256, 512 / scale},
                          {"narrow-margin", 24, 200, 256 / scale},
                          {"long-underfilled", 1200, 150, 6}};
  const enc::Alphabet& aa = enc::protein_alphabet();
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 3);
  auto random_protein = [&](std::size_t len) {
    enc::GenericSequence s(len);
    for (auto& c : s) c = static_cast<std::uint8_t>(rng.below(aa.size()));
    return s;
  };
  std::vector<ProteinGroup> groups;
  for (const Shape& sh : shapes) {
    ProteinGroup g;
    g.name = sh.name;
    g.m = sh.m;
    g.n = sh.n;
    const enc::GenericSequence query = random_protein(sh.m);
    g.xs.assign(sh.pairs, query);
    g.floor = ~std::uint32_t{0};
    for (std::size_t k = 0; k < sh.pairs; ++k) {
      enc::GenericSequence target = random_protein(sh.n);
      // Plant an exact homolog: the whole query, or for a query longer
      // than the target, a segment of half the target's length.
      if (k % 8 == 0 || sh.m > sh.n) {
        const std::size_t len = sh.m <= sh.n ? sh.m : sh.n / 2;
        const std::size_t from = rng.below(sh.m - len + 1);
        const std::size_t at = rng.below(sh.n - len + 1);
        const enc::GenericSequence motif(query.begin() + static_cast<std::ptrdiff_t>(from),
                                         query.begin() + static_cast<std::ptrdiff_t>(from + len));
        std::copy(motif.begin(), motif.end(), target.begin() + static_cast<std::ptrdiff_t>(at));
        g.planted.push_back(k);
        g.floor = std::min(g.floor, self_score(motif));
      }
      g.ys.push_back(std::move(target));
    }
    g.cells = static_cast<double>(sh.pairs * sh.m * sh.n);
    groups.push_back(std::move(g));
  }
  return groups;
}

std::vector<std::string> check_protein_group(const ProteinGroup& g,
                                             std::span<const std::uint32_t> scores,
                                             std::uint64_t sample_seed) {
  const std::string label = "protein-screen " + g.name;
  std::vector<std::string> findings;
  if (scores.size() != g.xs.size()) {
    findings.push_back(label + ": wrong score count");
    return findings;
  }
  std::vector<ScoredPair> pairs;
  std::vector<bool> seen(scores.size(), false);
  for (const std::size_t k : sample_indices(sample_seed, scores.size(), 16)) seen[k] = true;
  for (std::size_t k = 0; k < scores.size(); ++k)
    if (seen[k] || scores[k] >= g.m) pairs.push_back({k, scores[k]});  // tau = m, ~1 bit/aa
  auto add = [&](std::vector<std::string> more) {
    findings.insert(findings.end(), more.begin(), more.end());
  };
  add(check_protein_reference(g.xs, g.ys, pairs, kGapOpen, kGapExtend, label));
  const auto ceiling = static_cast<std::uint32_t>(ref_blosum62('W', 'W') * std::min(g.m, g.n));
  add(check_bounds(scores, g.planted, g.floor, ceiling, label));
  return findings;
}

Result run_protein_screen(const Options& opt) {
  Result res;
  const sw::ScoringScheme scheme = protein_scheme();
  const std::vector<ProteinGroup> groups = make_protein_groups(opt.seed, 1);
  const sw::LaneWidth resolved = sw::resolve_lane_width(sw::LaneWidth::kAuto);
  const unsigned lanes = sw::lane_width_bits(resolved);

  // Warm-up, as in dna-filter: the first round's outputs are the ones
  // every later call must repeat, and set-up ends after the whole warm-up.
  std::vector<std::vector<std::uint32_t>> expected;
  std::vector<sw::BackendChoice> picked;
  double cold_ms = 0;
  for (std::size_t round = 0; round < kProteinWarmupRounds; ++round) {
    for (std::size_t i = 0; i < groups.size(); ++i) {
      const ProteinGroup& g = groups[i];
      const sw::BackendChoice engine = sw::resolve_backend_choice(
          sw::BackendChoice::kAuto,
          sw::DispatchWorkload::from(scheme, g.xs.size(), g.m, g.n, resolved));
      ++res.attempted;
      auto r = run_engine(g, scheme, engine);
      if (!r.has_value()) {
        res.fail("warm-up " + g.name + ": " + r.status().to_string());
        return res;
      }
      if (round == 0 && i == 0) cold_ms = 1e3 * seconds_since_start();
      if (round == 0) {
        picked.push_back(engine);
        expected.push_back(std::move(r).value());
      } else {
        res.absorb(check_repeat(expected[i], *r, "protein-screen " + g.name + " warm-up"));
      }
    }
  }
  const double setup_s = seconds_since_start();
  for (std::size_t i = 0; i < groups.size(); ++i)
    std::printf("protein-screen: group %-16s m%-5zu n%-4zu %4zu pairs -> %s\n",
                groups[i].name.c_str(), groups[i].m, groups[i].n, groups[i].xs.size(),
                sw::backend_choice_name(picked[i]));

  tel::TelemetryConfig tcfg;
  tcfg.enabled = opt.trace;
  tel::Telemetry session(tcfg);
  tel::Tracer* const tracer = session.enabled() ? session.tracer() : nullptr;
  if (tracer != nullptr) tracer->set_track_name(tel::kTrackClient, "perfbench");

  const std::size_t ng = groups.size();
  std::vector<std::vector<double>> dispatched_ms(ng), traced_ms(ng), bpbc_ms(ng), striped_ms(ng),
      w2b_ms(ng);
  std::vector<double> cells(ng);
  for (std::size_t i = 0; i < ng; ++i) cells[i] = groups[i].cells;

  // One dispatched call: resolve the engine for the group's shape, run it.
  auto dispatched = [&](std::size_t i, std::vector<double>& times) {
    const ProteinGroup& g = groups[i];
    ++res.attempted;
    const auto t0 = Clock::now();
    const sw::BackendChoice engine = sw::resolve_backend_choice(
        sw::BackendChoice::kAuto, sw::DispatchWorkload::from(scheme, g.xs.size(), g.m, g.n, resolved));
    auto r = run_engine(g, scheme, engine);
    times.push_back(ms_since(t0));
    if (!r.has_value()) {
      ++res.failed;
      return;
    }
    res.absorb(check_repeat(expected[i], *r, "protein-screen " + g.name + " repeat"));
  };
  auto forced = [&](std::size_t i, sw::BackendChoice engine, std::vector<double>& times) {
    ++res.attempted;
    const auto t0 = Clock::now();
    auto r = run_engine(groups[i], scheme, engine);
    times.push_back(ms_since(t0));
    if (!r.has_value()) {
      ++res.failed;
      return;
    }
    res.absorb(check_engines_agree(expected[i], *r, "protein-screen " + groups[i].name));
  };

  const auto deadline = Clock::now() + std::chrono::duration<double>(opt.seconds);
  while (Clock::now() < deadline) {
    for (std::size_t i = 0; i < ng; ++i) {
      dispatched(i, dispatched_ms[i]);
      if (!opt.trace) continue;
      {
        tel::Span span(tracer, "perfbench.dispatched", "perfbench", tel::kTrackClient);
        span.arg("group", static_cast<std::int64_t>(i));
        span.arg("engine", static_cast<std::int64_t>(picked[i]));
        dispatched(i, traced_ms[i]);
      }
      {
        tel::Span span(tracer, "perfbench.scheme_bpbc", "perfbench", tel::kTrackClient);
        forced(i, sw::BackendChoice::kBpbc, bpbc_ms[i]);
      }
      {
        tel::Span span(tracer, "perfbench.striped", "perfbench", tel::kTrackClient);
        forced(i, sw::BackendChoice::kStriped, striped_ms[i]);
      }
      tel::Span span(tracer, "perfbench.generic_w2b", "perfbench", tel::kTrackClient);
      w2b_ms[i].push_back(time_generic_w2b(groups[i], scheme.alphabet_bits(), resolved));
    }
  }

  for (std::size_t i = 0; i < ng; ++i)
    res.absorb(check_protein_group(groups[i], expected[i], opt.seed ^ (0x9a0 + i)));
  // Both engines forced on the narrow-margin group's pairs must agree.
  {
    const ProteinGroup& g = groups[1];
    auto b = run_engine(g, scheme, sw::BackendChoice::kBpbc);
    auto s = run_engine(g, scheme, sw::BackendChoice::kStriped);
    if (!b.has_value() || !s.has_value())
      res.fail("protein-screen: forced engine run failed");
    else
      res.absorb(check_engines_agree(*b, *s, "protein-screen " + g.name));
  }

  const LibraryFigures fig = library_figures(dispatched_ms, cells);
  std::printf("protein-screen: %llu calls, %.1f%% in the fast regime\n",
              static_cast<unsigned long long>(res.attempted), 100.0 * fig.fast_share);
  if (!opt.trace) {
    res.metric("setup_s", setup_s, "s");
    res.metric("gcups", fig.gcups, "GCUPS");
    res.metric("latency_p50_ms", fig.latency_p50_ms, "ms");
    res.metric("requests_per_s", fig.calls_per_s, "req/s");
    res.metric("peak_rss_mb", peak_rss_mb(), "MB");
    return res;
  }
  double w2b = 0, pairs = 0, padded = 0, predicted_ns = 0, measured_ns = 0, picked_ms = 0,
         best_ms = 0;
  const sw::CostModel& model = sw::CostModel::measured();
  for (std::size_t i = 0; i < ng; ++i) {
    const ProteinGroup& g = groups[i];
    w2b += median(w2b_ms[i]);
    pairs += static_cast<double>(g.xs.size());
    padded += static_cast<double>((g.xs.size() + lanes - 1) / lanes * lanes);
    const auto w = sw::DispatchWorkload::from(scheme, g.xs.size(), g.m, g.n, resolved);
    const double bpbc = mean(fast_regime(bpbc_ms[i]));
    const double striped = mean(fast_regime(striped_ms[i]));
    const bool is_striped = picked[i] == sw::BackendChoice::kStriped;
    predicted_ns += is_striped ? model.striped_cost_ns(w) : model.bpbc_cost_ns(w);
    measured_ns += mean(fast_regime(dispatched_ms[i])) * 1e6;
    picked_ms += is_striped ? striped : bpbc;
    best_ms += std::min(bpbc, striped);
  }
  res.metric("setup.cold_ms", cold_ms, "ms");
  res.metric("encoding.generic_w2b_ms", w2b, "ms");
  res.metric("sw.scheme_bpbc_gcups", library_figures(bpbc_ms, cells).gcups, "GCUPS");
  res.metric("sw.striped_gcups", library_figures(striped_ms, cells).gcups, "GCUPS");
  res.metric("dispatch.lane_fill", pairs / padded, "ratio");
  res.metric("dispatch.model_ratio", predicted_ns / measured_ns, "ratio");
  res.metric("dispatch.regret", picked_ms / best_ms, "ratio");
  res.metric("trace.overhead", fig.gcups / library_figures(traced_ms, cells).gcups, "ratio");
  res.metric("bench.fast_share", fig.fast_share, "ratio");
  write_trace(opt, session);
  return res;
}

}  // namespace perfbench
