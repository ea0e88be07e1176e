// m4test — the Meissa tester CLI: generate test cases for a data plane,
// inject them into the behavioral device, check, and report.
//
//   m4test [options] FILE.m4      test an M4 unit (program + topology +
//                                 optional rules; intents not supported
//                                 from files yet)
//   m4test [options] --app NAME   test a built-in demo app
//                                 (router, mtag, acl, switchp4, gw-1..gw-4)
//   m4test [options] --bug N      run bug-corpus scenario N (1..16) with
//                                 its fault injected — expect failures
//
// Options:
//   --json            machine-readable report (TestReport::to_json)
//   --templates       generation only: print each template, skip the device
//   --threads N       worker threads for summary + DFS (0 = hardware)
//   --seed N          TestRunOptions::seed (default 1): keys only the
//                     flaky-link backoff jitter, so reports do not
//                     depend on it
//   --metrics FILE    enable the metrics registry; write snapshot to FILE
//   --trace FILE      enable span tracing; write Chrome trace JSON to FILE
//   --validate-summary  prove the code-summary transform sound before
//                     testing; a refuted obligation aborts the run (exit 2)
//
// Crash safety & supervision:
//   --checkpoint DIR  write work-unit checkpoints (summary wave boundaries
//                     + DFS frontier snapshots) into DIR; crash-atomic
//   --resume          load DIR's newest valid checkpoint first; a killed
//                     run resumed this way emits templates byte-identical
//                     to an uninterrupted run
//   --checkpoint-every N  DFS snapshot cadence in emitted results per
//                     shard (default 8)
//   --stall-timeout-ms N  watchdog: cancel a shard whose heartbeat stalls
//                     this long; it is re-queued once, then degraded
//   --shard-deadline-ms N watchdog: per-shard-attempt wall-clock deadline
//   --inject SPEC     arm a runtime fault (repeatable). SPEC is
//                     site:kind[:after[:param[:times]]] with kind one of
//                     stall|abort|alloc-fail|truncate|corrupt; sites:
//                     shard.<i> (execution), checkpoint.serialize,
//                     checkpoint.write (data). E.g. shard.3:abort,
//                     checkpoint.write:corrupt:2:5
//
// Exit status: 0 all cases passed, 1 failures/quarantines, 2 usage or error.
#include <cstdio>
#include <string>
#include <vector>

#include "driver/tester.hpp"
#include "obs/session.hpp"
#include "sim/toolchain.hpp"
#include "tools/frontend.hpp"
#include "util/cli.hpp"
#include "util/faultinject.hpp"

namespace {

using namespace meissa;

int usage() {
  std::fprintf(stderr,
               "usage: m4test [options] (FILE.m4 | --app NAME | --bug N)\n"
               "  --app: router, mtag, acl, switchp4, gw-1, gw-2, gw-3, gw-4\n"
               "  --bug: bug-corpus scenario 1..%d\n"
               "  options: --json --templates --threads N --seed N\n"
               "           --metrics FILE --trace FILE --validate-summary\n"
               "           --checkpoint DIR --resume --checkpoint-every N\n"
               "           --stall-timeout-ms N --shard-deadline-ms N\n"
               "           --inject site:kind[:after[:param[:times]]]\n",
               apps::kNumBugs);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool templates_only = false;
  bool validate_summary = false;
  int threads = 0;
  uint64_t seed = 1;
  std::string metrics_file;
  std::string trace_file;
  tools::InputArgs input;
  std::string checkpoint_dir;
  bool resume = false;
  uint64_t checkpoint_every = 8;
  uint64_t stall_timeout_ms = 0;
  uint64_t shard_deadline_ms = 0;
  std::vector<std::string> inject_specs;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--templates") {
      templates_only = true;
    } else if (arg == "--validate-summary") {
      validate_summary = true;
    } else if (arg == "--threads" && i + 1 < argc) {
      if (!util::parse_flag(argv, i, threads)) return usage();
    } else if (arg == "--seed" && i + 1 < argc) {
      if (!util::parse_flag(argv, i, seed)) return usage();
    } else if (arg == "--metrics" && i + 1 < argc) {
      metrics_file = argv[++i];
    } else if (arg == "--trace" && i + 1 < argc) {
      trace_file = argv[++i];
    } else if (arg == "--checkpoint" && i + 1 < argc) {
      checkpoint_dir = argv[++i];
    } else if (arg == "--resume") {
      resume = true;
    } else if (arg == "--checkpoint-every" && i + 1 < argc) {
      if (!util::parse_flag(argv, i, checkpoint_every)) return usage();
    } else if (arg == "--stall-timeout-ms" && i + 1 < argc) {
      if (!util::parse_flag(argv, i, stall_timeout_ms)) return usage();
    } else if (arg == "--shard-deadline-ms" && i + 1 < argc) {
      if (!util::parse_flag(argv, i, shard_deadline_ms)) return usage();
    } else if (arg == "--inject" && i + 1 < argc) {
      inject_specs.emplace_back(argv[++i]);
    } else if (!input.take(argc, argv, i)) {
      return usage();
    }
  }
  if (!input.complete()) return usage();
  if (resume && checkpoint_dir.empty()) {
    std::fprintf(stderr, "m4test: --resume requires --checkpoint DIR\n");
    return 2;
  }

  obs::Session obs_session("m4test", metrics_file, trace_file);
  int status = 0;
  try {
    ir::Context ctx;
    const tools::Input in = tools::load_input(ctx, input);
    const p4::DataPlane& dp = in.bundle.dp;
    const p4::RuleSet& rules = in.bundle.rules;

    driver::TestRunOptions opts;
    opts.gen.threads = threads;
    opts.gen.validate_summary = validate_summary;
    opts.seed = seed;
    opts.gen.checkpoint_dir = checkpoint_dir;
    opts.gen.resume = resume;
    opts.gen.checkpoint_every = checkpoint_every;
    opts.gen.supervise.stall_timeout_ms = stall_timeout_ms;
    opts.gen.supervise.deadline_ms = shard_deadline_ms;
    util::FaultInjector injector;
    for (const std::string& spec : inject_specs) {
      injector.add(util::parse_fault_spec(spec));
    }
    if (!inject_specs.empty()) opts.gen.fault = &injector;

    if (templates_only) {
      driver::Meissa meissa(ctx, dp, rules, opts);
      std::vector<sym::TestCaseTemplate> ts = meissa.generate();
      std::printf("%zu template(s)\n", ts.size());
      for (const sym::TestCaseTemplate& t : ts) {
        std::fputs(sym::describe(t, ctx, meissa.graph()).c_str(), stdout);
      }
    } else {
      sim::DeviceProgram compiled = sim::compile(dp, rules, ctx, in.fault);
      sim::Device device(compiled, ctx);
      driver::Meissa meissa(ctx, dp, rules, opts);
      driver::TestReport r = meissa.test(device, in.bundle.intents);
      if (json) {
        std::printf("%s\n", r.to_json().c_str());
      } else {
        std::fputs(r.str().c_str(), stdout);
      }
      if (!r.all_passed()) status = 1;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "m4test: %s\n", e.what());
    status = 2;
  }
  if (!obs_session.finish() && status == 0) status = 2;
  return status;
}
