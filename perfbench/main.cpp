// Benchmark entry point: runs one workload and prints its result as one JSON
// line (the last line of standard output).
//
//   meissa_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    [--spans FILE]
//
// Exit status: 0 when every correctness gate held, 1 when one failed (the
// result line is still printed, with "correct": false), 2 on bad usage or
// an exception.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: meissa_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--spans FILE]\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      opts.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      opts.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opts.seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      opts.trace = val == "1";
    } else if (key == "--spans") {
      opts.spans_path = val;
    } else {
      usage();
      return 2;
    }
  }
  if (!have_workload || argc % 2 == 0 || opts.seconds <= 0) {
    usage();
    return 2;
  }

  perfbench::Result r;
  try {
    r = perfbench::run_workload(opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  for (const std::string& e : r.errors) {
    std::fprintf(stderr, "perfbench: FAILED: %s\n", e.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const perfbench::Metric& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  return r.correct ? 0 : 1;
}
