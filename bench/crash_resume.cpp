// Crash-safety evaluation: (a) checkpoint overhead — generation wall time
// and template counts at different checkpoint cadences, which must
// reproduce the clean run's output exactly while making the wall-time
// cost of each cadence visible, and (b) resume correctness & cost —
// resuming from a full checkpoint must restore every pipeline and
// reproduce the template count exactly. Backs the "Crash safety &
// supervision" section in DESIGN.md.
#include <filesystem>

#include "bench_common.hpp"
#include "driver/generator.hpp"

namespace meissa::bench {
namespace {

namespace fs = std::filesystem;

struct RunResult {
  double seconds = 0;
  uint64_t templates = 0;
  uint64_t writes = 0;
  uint64_t failures = 0;
  bool resumed = false;
  uint64_t resumed_pipelines = 0;
};

RunResult run_once(const std::string& name, int threads,
                   const std::string& checkpoint_dir, uint64_t cadence,
                   bool resume) {
  ir::Context ctx;
  apps::AppBundle app = make_program(ctx, name);
  driver::GenOptions opts;
  opts.threads = threads;
  opts.checkpoint_dir = checkpoint_dir;
  opts.checkpoint_every = cadence;
  opts.resume = resume;
  Timer timer;
  driver::Generator gen(ctx, app.dp, app.rules, opts);
  (void)gen.generate();
  const driver::GenStats& s = gen.stats();
  RunResult r;
  r.seconds = timer.elapsed();
  r.templates = s.templates;
  r.writes = s.checkpoint_writes;
  r.failures = s.checkpoint_failures;
  r.resumed = s.resumed;
  r.resumed_pipelines = s.resumed_pipelines;
  return r;
}

void checkpoint_overhead(int threads) {
  std::printf("== Checkpoint overhead (threads=%d) ==\n", threads);
  std::printf("%-10s %-14s %10s %10s %10s %10s\n", "program", "cadence",
              "templates", "writes", "time", "overhead");
  fs::path root = fs::temp_directory_path() / "meissa-crash-resume-bench";
  // Each checkpoint write persists the full work-unit state, so the cost
  // scales with both cadence and program size; the every-result cadence on
  // the big gateways is the kill/resume stress suite's domain, not a bench
  // smoke's.
  for (const char* name : {"Router", "gw-2"}) {
    RunResult clean = run_once(name, threads, "", 8, false);
    std::printf("%-10s %-14s %10llu %10llu %9.3fs %10s\n", name, "off",
                static_cast<unsigned long long>(clean.templates),
                static_cast<unsigned long long>(clean.writes), clean.seconds,
                "(base)");
    struct Cadence {
      const char* label;
      uint64_t every;
    };
    for (Cadence c : {Cadence{"every-64", 64}, Cadence{"every-8", 8}}) {
      fs::path dir = root / (std::string(name) + "-" + c.label);
      fs::remove_all(dir);
      RunResult r = run_once(name, threads, dir.string(), c.every, false);
      std::printf("%-10s %-14s %10llu %10llu %9.3fs %9.2fx%s\n", name,
                  c.label, static_cast<unsigned long long>(r.templates),
                  static_cast<unsigned long long>(r.writes), r.seconds,
                  clean.seconds > 0 ? r.seconds / clean.seconds : 0.0,
                  r.templates == clean.templates ? "" : "  TEMPLATE-MISMATCH");
      if (r.failures != 0) std::printf("  !! %llu checkpoint write failure(s)\n",
                  static_cast<unsigned long long>(r.failures));
    }
  }
  fs::remove_all(root);
  std::printf(
      "expect: every cadence reproduces the base template count; tighter\n"
      "expect: cadences cost more wall time, never correctness.\n\n");
}

void resume_cost(int threads) {
  std::printf("== Resume correctness & cost (threads=%d) ==\n", threads);
  std::printf("%-10s %-14s %10s %10s %10s %10s\n", "program", "variant",
              "templates", "res.pipes", "time", "vs-first");
  fs::path root = fs::temp_directory_path() / "meissa-crash-resume-bench";
  for (const char* name : {"Router", "gw-2"}) {
    fs::path dir = root / (std::string(name) + "-resume");
    fs::remove_all(dir);
    RunResult first = run_once(name, threads, dir.string(), 64, false);
    std::printf("%-10s %-14s %10llu %10s %9.3fs %10s\n", name, "checkpointed",
                static_cast<unsigned long long>(first.templates), "-",
                first.seconds, "(base)");
    RunResult resumed = run_once(name, threads, dir.string(), 64, true);
    std::printf("%-10s %-14s %10llu %10llu %9.3fs %9.2fx%s%s\n", name,
                "resumed",
                static_cast<unsigned long long>(resumed.templates),
                static_cast<unsigned long long>(resumed.resumed_pipelines),
                resumed.seconds,
                resumed.seconds > 0 ? first.seconds / resumed.seconds : 0.0,
                resumed.resumed ? "" : "  NOT-RESUMED",
                resumed.templates == first.templates ? ""
                                                     : "  TEMPLATE-MISMATCH");
  }
  fs::remove_all(root);
  std::printf(
      "expect: resumed runs restore every pipeline from the checkpoint and\n"
      "expect: reproduce the checkpointed run's template count exactly.\n"
      "expect: (resumed runs keep checkpointing, so wall time stays in the\n"
      "expect: same band as the first checkpointed run, not the clean one.)\n");
}

}  // namespace
}  // namespace meissa::bench

int main(int argc, char** argv) {
  auto obs_session = meissa::bench::observe(argc, argv);
  int threads = meissa::bench::parse_threads(argc, argv, 4);
  meissa::bench::checkpoint_overhead(threads);
  meissa::bench::resume_cost(threads);
  return 0;
}
