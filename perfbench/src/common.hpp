// Shared pieces of the perfbench binary: the run's options, its own
// seeded generator, timing, the statistics every end-to-end metric is
// taken with, and the result line it prints last.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "encoding/dna.hpp"
#include "telemetry/telemetry.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Where runs write their traces, layer tables and scratch directories,
/// relative to the checkout root (the binary's working directory).
inline constexpr const char* kOutDir = "perfbench/out";

/// splitmix64: the benchmark's own generator, so its inputs do not move
/// when the library's RNG changes.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(next() % n);
  }

 private:
  std::uint64_t state_;
};

swbpbc::encoding::Sequence random_dna(Rng& rng, std::size_t length);

using Clock = std::chrono::steady_clock;
inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Seconds since the process started (taken at static initialisation,
/// before main): a run's one cold set-up is timed from here.
double seconds_since_start();

// --- statistics --------------------------------------------------------

/// Linear-interpolated quantile, q in [0, 1]. Empty input yields 0.
double quantile(std::vector<double> values, double q);
double median(const std::vector<double>& values);
double mean(const std::vector<double>& values);

/// The calls of one call class that ran in the machine's fast speed
/// regime: those within 20% of the class's 2nd percentile. The host
/// alternates between two regimes ~1.6x apart every 1-3 s (see
/// README.md), so whole-run means and medians of compute-bound calls
/// swing with the regime mix; the fast-regime subset does not.
std::vector<double> fast_regime(const std::vector<double>& ms);

/// End-to-end figures of an in-process library workload whose calls fall
/// into classes (one per query or per query-length group); cells[c] is
/// the DP cell count of one call of class c.
struct LibraryFigures {
  double latency_p50_ms = 0;   // mean over classes of the fast median
  double gcups = 0;            // one round's cells / its fast-regime time
  double calls_per_s = 0;      // calls of one round / its fast time
  double fast_share = 0;       // share of calls in the fast regime
};
LibraryFigures library_figures(const std::vector<std::vector<double>>& ms,
                               const std::vector<double>& cells);

double peak_rss_mb();

// --- result ------------------------------------------------------------

/// The run's result: correctness, operation counts and named metrics.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::string> problems;  // failed checks, printed to stderr

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void fail(const std::string& what) {
    correct = false;
    problems.push_back(what);
  }
  /// Folds a list of check findings in.
  void absorb(const std::vector<std::string>& findings) {
    for (const std::string& f : findings) fail(f);
  }
};

/// Prints the per-layer table (traced runs) and writes it beside the
/// merged trace: `<out>/<workload>.layers.txt`.
void write_layer_table(const Options& opt, const Result& result);

/// Writes the session's spans as one Chrome trace to
/// `<out>/<workload>.trace.json`.
void write_trace(const Options& opt, swbpbc::telemetry::Telemetry& session);

/// The last line of standard output: {"correct":..,"attempted":..,"failed":..,
/// "metrics":{name:{"value":..,"unit":..}}}.
void print_result_line(const Result& result);

// --- workloads ---------------------------------------------------------

Result run_dna_filter(const Options& opt);
Result run_protein_screen(const Options& opt);
Result run_serve_small(const Options& opt);
Result run_serve_bulk(const Options& opt);

/// Corrupts one score by one in front of every output check and reports
/// each check that failed to notice. Empty = every check caught it.
std::vector<std::string> self_test();

}  // namespace perfbench
