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
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "apps/apps.hpp"
#include "driver/tester.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "p4/dsl.hpp"
#include "sim/toolchain.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
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

// Same demo configurations as m4lint (small, deterministic).
apps::AppBundle load_app(ir::Context& ctx, const std::string& name) {
  if (name == "router") return apps::make_router(ctx, 6);
  if (name == "mtag") return apps::make_mtag(ctx, 4);
  if (name == "acl") return apps::make_acl(ctx, 4, 4);
  if (name == "switchp4") {
    apps::SwitchP4Config cfg;
    cfg.l2_hosts = 4;
    cfg.routes = 4;
    cfg.ecmp_ways = 2;
    cfg.acls = 4;
    cfg.mpls_labels = 4;
    return apps::make_switchp4(ctx, cfg);
  }
  if (name.rfind("gw-", 0) == 0 && name.size() == 4 && name[3] >= '1' &&
      name[3] <= '4') {
    apps::GwConfig cfg;
    cfg.level = name[3] - '0';
    cfg.elastic_ips = 4;
    return apps::make_gateway(ctx, cfg);
  }
  throw util::ValidationError("unknown app '" + name + "'");
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
  std::string app;
  int bug = 0;
  std::string file;
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
    } else if (arg == "--app" && i + 1 < argc) {
      app = argv[++i];
    } else if (arg == "--bug" && i + 1 < argc) {
      if (!util::parse_flag(argv, i, bug)) return usage();
      if (bug < 1 || bug > apps::kNumBugs) return usage();
    } else if (!arg.empty() && arg[0] != '-' && file.empty()) {
      file = arg;
    } else {
      return usage();
    }
  }
  if ((app.empty() ? 0 : 1) + (bug != 0 ? 1 : 0) + (file.empty() ? 0 : 1) !=
      1) {
    return usage();
  }
  if (resume && checkpoint_dir.empty()) {
    std::fprintf(stderr, "m4test: --resume requires --checkpoint DIR\n");
    return 2;
  }

  if (!metrics_file.empty()) obs::MetricsRegistry::set_enabled(true);
  if (!trace_file.empty()) obs::trace_start();

  int status = 0;
  try {
    ir::Context ctx;
    p4::DataPlane dp;
    p4::RuleSet rules;
    std::vector<spec::Intent> intents;
    sim::FaultSpec fault;
    if (!file.empty()) {
      std::ifstream in(file);
      if (!in) {
        std::fprintf(stderr, "m4test: cannot open '%s'\n", file.c_str());
        return 2;
      }
      std::ostringstream src;
      src << in.rdbuf();
      p4::ParsedUnit unit = p4::parse_m4(src.str(), ctx);
      dp = std::move(unit.dp);
      rules = std::move(unit.rules);
    } else if (!app.empty()) {
      apps::AppBundle b = load_app(ctx, app);
      dp = std::move(b.dp);
      rules = std::move(b.rules);
      intents = std::move(b.intents);
    } else {
      apps::BugScenario s = apps::make_bug(ctx, bug);
      dp = std::move(s.bundle.dp);
      rules = std::move(s.bundle.rules);
      intents = std::move(s.bundle.intents);
      fault = s.fault;
    }

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
      sim::DeviceProgram compiled = sim::compile(dp, rules, ctx, fault);
      sim::Device device(compiled, ctx);
      driver::Meissa meissa(ctx, dp, rules, opts);
      driver::TestReport r = meissa.test(device, intents);
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

  if (!trace_file.empty()) {
    obs::trace_stop();
    if (!obs::write_trace_file(trace_file)) {
      std::fprintf(stderr, "m4test: cannot write trace to '%s'\n",
                   trace_file.c_str());
      if (status == 0) status = 2;
    }
  }
  if (!metrics_file.empty() && !obs::write_metrics_file(metrics_file)) {
    std::fprintf(stderr, "m4test: cannot write metrics to '%s'\n",
                 metrics_file.c_str());
    if (status == 0) status = 2;
  }
  return status;
}
