// m4fuzz — the greybox fuzzing lane CLI: coverage-guided differential
// fuzzing of a compiled data plane over the batched execution core.
//
//   m4fuzz [options] --app NAME   fuzz a demo app against an identically
//                                 compiled reference (a determinism check:
//                                 divergences here mean simulator bugs)
//   m4fuzz [options] --bug N      fuzz bug-corpus scenario N (1..16): the
//                                 faulty compile runs against the intended
//                                 program — divergences are the bug
//
// Options:
//   --execs N            target executions (default 20000)
//   --seed N             RNG seed (default 1; same seed = same run)
//   --batch N            inputs per run_batch submission (default 64)
//   --json               machine-readable result (FuzzResult::to_json)
//   --no-template-seeds  skip Meissa path-template corpus seeding and
//                        start from synthesized random packets
//   --expect-divergence  exit 1 when no divergence was found
//   --metrics FILE       enable the metrics registry; snapshot to FILE
//   --trace FILE         enable span tracing; Chrome trace JSON to FILE
//
// Exit status: 0 ok, 1 expectation failed, 2 usage or error.
#include <cstdio>
#include <string>

#include "apps/apps.hpp"
#include "driver/sender.hpp"
#include "driver/tester.hpp"
#include "fuzz/fuzz.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/toolchain.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"

namespace {

using namespace meissa;

constexpr size_t kMaxTemplateSeeds = 256;

int usage() {
  std::fprintf(stderr,
               "usage: m4fuzz [options] (--app NAME | --bug N)\n"
               "  --app: router, mtag, acl, switchp4, gw-1, gw-2, gw-3, gw-4\n"
               "  --bug: bug-corpus scenario 1..%d\n"
               "  options: --execs N --seed N --batch N --json\n"
               "           --no-template-seeds --expect-divergence\n"
               "           --metrics FILE --trace FILE\n",
               apps::kNumBugs);
  return 2;
}

// Same demo configurations as m4test (small, deterministic).
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

// Seeds the corpus from Meissa's own path templates (the two lanes
// compose: symbolic enumeration contributes structurally-deep inputs the
// random walk may take long to find, mutation explores around them).
void seed_from_templates(fuzz::Fuzzer& fuzzer, ir::Context& ctx,
                         const p4::DataPlane& dp, const p4::RuleSet& rules,
                         uint64_t seed) {
  driver::TestRunOptions opts;
  opts.seed = seed;
  driver::Meissa meissa(ctx, dp, rules, opts);
  std::vector<sym::TestCaseTemplate> templates = meissa.generate();
  driver::Sender sender(ctx, dp, meissa.graph());
  size_t added = 0;
  for (const sym::TestCaseTemplate& t : templates) {
    if (added >= kMaxTemplateSeeds) break;
    std::optional<driver::TestCase> tc =
        sender.concretize(t, meissa.generator().engine());
    if (!tc) continue;
    fuzzer.add_seed(std::move(tc->input), tc->registers);
    ++added;
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool template_seeds = true;
  bool expect_divergence = false;
  fuzz::FuzzOptions fopts;
  std::string metrics_file;
  std::string trace_file;
  std::string app;
  int bug = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--no-template-seeds") {
      template_seeds = false;
    } else if (arg == "--expect-divergence") {
      expect_divergence = true;
    } else if (arg == "--execs" && i + 1 < argc) {
      if (!util::parse_flag(argv, i, fopts.execs)) return usage();
    } else if (arg == "--seed" && i + 1 < argc) {
      if (!util::parse_flag(argv, i, fopts.seed)) return usage();
    } else if (arg == "--batch" && i + 1 < argc) {
      if (!util::parse_flag(argv, i, fopts.batch)) return usage();
    } else if (arg == "--metrics" && i + 1 < argc) {
      metrics_file = argv[++i];
    } else if (arg == "--trace" && i + 1 < argc) {
      trace_file = argv[++i];
    } else if (arg == "--app" && i + 1 < argc) {
      app = argv[++i];
    } else if (arg == "--bug" && i + 1 < argc) {
      if (!util::parse_flag(argv, i, bug)) return usage();
      if (bug < 1 || bug > apps::kNumBugs) return usage();
    } else {
      return usage();
    }
  }
  if ((app.empty() ? 0 : 1) + (bug != 0 ? 1 : 0) != 1) return usage();

  if (!metrics_file.empty()) obs::MetricsRegistry::set_enabled(true);
  if (!trace_file.empty()) obs::trace_start();

  int status = 0;
  try {
    ir::Context ctx;
    p4::DataPlane dp;
    p4::RuleSet rules;
    sim::FaultSpec fault;
    p4::DataPlane ref_dp;
    p4::RuleSet ref_rules;
    if (!app.empty()) {
      apps::AppBundle b = load_app(ctx, app);
      dp = std::move(b.dp);
      rules = std::move(b.rules);
      ref_dp = dp;
      ref_rules = rules;
    } else {
      apps::BugScenario s = apps::make_bug(ctx, bug);
      dp = std::move(s.bundle.dp);
      rules = std::move(s.bundle.rules);
      fault = s.fault;
      apps::AppBundle intended = apps::make_bug_intended(ctx, bug);
      ref_dp = std::move(intended.dp);
      ref_rules = std::move(intended.rules);
    }

    sim::Device target(sim::compile(dp, rules, ctx, fault), ctx);
    sim::Device reference(sim::compile(ref_dp, ref_rules, ctx), ctx);
    fuzz::Fuzzer fuzzer(target, reference, dp, rules, fopts);
    if (template_seeds) {
      seed_from_templates(fuzzer, ctx, dp, rules, fopts.seed);
    }

    fuzz::FuzzResult r = fuzzer.run();
    if (json) {
      std::printf("%s\n", r.to_json().c_str());
    } else {
      std::printf(
          "execs %llu  seeds %zu  corpus %zu  edges %zu  "
          "divergences %llu  (%.0f execs/s)\n",
          static_cast<unsigned long long>(r.execs), r.seeds, r.corpus,
          r.coverage_edges, static_cast<unsigned long long>(r.divergences),
          r.execs_per_sec);
      for (const fuzz::Divergence& d : r.samples) {
        std::printf("  divergence @%llu [%s] port=%llu len=%zu\n",
                    static_cast<unsigned long long>(d.exec), d.kind.c_str(),
                    static_cast<unsigned long long>(d.input.port),
                    d.input.bytes.size());
      }
    }
    if (expect_divergence && !r.found()) status = 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "m4fuzz: %s\n", e.what());
    status = 2;
  }

  if (!trace_file.empty()) {
    obs::trace_stop();
    if (!obs::write_trace_file(trace_file)) {
      std::fprintf(stderr, "m4fuzz: cannot write trace to '%s'\n",
                   trace_file.c_str());
      if (status == 0) status = 2;
    }
  }
  if (!metrics_file.empty() && !obs::write_metrics_file(metrics_file)) {
    std::fprintf(stderr, "m4fuzz: cannot write metrics to '%s'\n",
                 metrics_file.c_str());
    if (status == 0) status = 2;
  }
  return status;
}
