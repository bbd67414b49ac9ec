// perfbench: the repository's end-to-end benchmark binary.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//   perfbench --self-test
//
// Workloads: dna-filter, protein-screen, serve-small, serve-bulk (see
// README.md). The last line of standard output is one JSON object with the
// keys correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1 (which also writes a
// merged Chrome trace and a per-layer table under perfbench/out). Run it
// from the checkout root.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"

namespace {

struct Workload {
  const char* name;
  perfbench::Result (*run)(const perfbench::Options&);
};
constexpr Workload kWorkloads[] = {{"dna-filter", perfbench::run_dna_filter},
                                   {"protein-screen", perfbench::run_protein_screen},
                                   {"serve-small", perfbench::run_serve_small},
                                   {"serve-bulk", perfbench::run_serve_bulk}};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload dna-filter|protein-screen|serve-small|serve-bulk\n"
               "                 --seed N --seconds S --trace 0|1\n"
               "       perfbench --self-test\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      self_test = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      opt.trace = value != "0";
    } else {
      return usage();
    }
  }

  try {
    if (self_test) {
      const std::vector<std::string> missed = perfbench::self_test();
      for (const std::string& m : missed) std::printf("self-test: MISSED %s\n", m.c_str());
      std::printf("self-test: %s\n", missed.empty() ? "every check caught its corruption"
                                                    : "FAILED");
      return missed.empty() ? 0 : 1;
    }
    if (!(opt.seconds > 0)) return usage();
    const Workload* selected = nullptr;
    for (const Workload& w : kWorkloads)
      if (opt.workload == w.name) selected = &w;
    if (selected == nullptr) return usage();
    perfbench::Result result = selected->run(opt);
    if (result.attempted == 0) result.fail("no operation was attempted");
    if (opt.trace) {
      // Every per-layer metric is reported: the workload's own layers over
      // the run, the other workloads' layers from a one-second traced pass
      // of each (checked like any run).
      for (const Workload& other : kWorkloads) {
        if (&other == selected) continue;
        perfbench::Options probe = opt;
        probe.workload = other.name;
        probe.seconds = 1.0;
        const perfbench::Result extra = other.run(probe);
        result.attempted += extra.attempted;
        result.failed += extra.failed;
        result.absorb(extra.problems);
        for (const auto& metric : extra.metrics) {
          bool known = false;
          for (const auto& have : result.metrics) known = known || have.first == metric.first;
          if (!known) result.metrics.push_back(metric);
        }
      }
    }
    if (opt.trace) perfbench::write_layer_table(opt, result);
    perfbench::print_result_line(result);
    return result.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
