// The benchmark's four workloads (see README.md for why each exists).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  std::string spans_path;  // traced run: where the span dump goes
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Result {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;  // why `correct` is false
};

// Runs one workload for about `opts.seconds` seconds. Untraced: the
// end-to-end metrics. Traced: the per-layer metrics.
Result run_workload(const Options& opts);

}  // namespace perfbench
