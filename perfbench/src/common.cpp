#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <string>

namespace perfbench {

namespace {

const Clock::time_point g_process_start = Clock::now();

}  // namespace

double seconds_since_start() { return ms_since(g_process_start) / 1e3; }

swbpbc::encoding::Sequence random_dna(Rng& rng, std::size_t length) {
  swbpbc::encoding::Sequence s(length);
  std::uint64_t bits = 0;
  for (std::size_t i = 0; i < length; ++i) {
    if (i % 32 == 0) bits = rng.next();
    s[i] = swbpbc::encoding::base_from_code(static_cast<std::uint8_t>(bits & 3));
    bits >>= 2;
  }
  return s;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(const std::vector<double>& values) { return quantile(values, 0.5); }

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

std::vector<double> fast_regime(const std::vector<double>& ms) {
  const double cut = 1.2 * quantile(ms, 0.02);
  std::vector<double> fast;
  for (const double t : ms)
    if (t <= cut) fast.push_back(t);
  return fast;
}

LibraryFigures library_figures(const std::vector<std::vector<double>>& ms,
                               const std::vector<double>& cells) {
  LibraryFigures f;
  double round_cells = 0, round_fast_ms = 0, medians = 0;
  std::size_t calls = 0, fast_calls = 0;
  for (std::size_t c = 0; c < ms.size(); ++c) {
    const std::vector<double> fast = fast_regime(ms[c]);
    fast_calls += fast.size();
    medians += median(fast);
    round_cells += cells[c];
    round_fast_ms += mean(fast);
    calls += ms[c].size();
  }
  const auto classes = static_cast<double>(ms.size());
  f.latency_p50_ms = medians / classes;
  f.gcups = round_cells / (round_fast_ms * 1e6);
  f.calls_per_s = classes / (round_fast_ms / 1e3);
  f.fast_share = static_cast<double>(fast_calls) / static_cast<double>(calls);
  return f;
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter carries over the peak of
  // the process image before exec (here, the Python launcher).
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  return 0.0;
}

void write_layer_table(const Options& opt, const Result& result) {
  const std::string path = std::string(kOutDir) + "/" + opt.workload + ".layers.txt";
  std::ofstream out(path, std::ios::trunc);
  std::printf("per-layer (%s, seed %llu):\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed));
  for (const auto& [name, value] : result.metrics) {
    char line[160];
    std::snprintf(line, sizeof line, "  %-28s %14.4f %s\n", name.c_str(),
                  value.first, value.second.c_str());
    std::fputs(line, stdout);
    out << line;
  }
  std::printf("per-layer table written to %s\n", path.c_str());
}

void write_trace(const Options& opt, swbpbc::telemetry::Telemetry& session) {
  const std::string path = std::string(kOutDir) + "/" + opt.workload + ".trace.json";
  if (swbpbc::util::Status s = session.tracer()->write_chrome_trace(path); !s.ok())
    std::fprintf(stderr, "perfbench: trace write failed: %s\n", s.to_string().c_str());
  else
    std::printf("merged trace written to %s (%zu spans, %llu dropped)\n",
                path.c_str(), session.tracer()->size(),
                static_cast<unsigned long long>(session.tracer()->dropped()));
}

void print_result_line(const Result& result) {
  for (const std::string& p : result.problems)
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", p.c_str());
  std::string line = "{\"correct\": ";
  line += result.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : result.metrics) {
    char num[64];
    const double v = std::isfinite(value.first) ? value.first : 0.0;
    std::snprintf(num, sizeof num, "%.17g", v);
    if (!first) line += ", ";
    first = false;
    line += "\"" + name + "\": {\"value\": " + num + ", \"unit\": \"" +
            value.second + "\"}";
  }
  line += "}}";
  std::fflush(stderr);
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
