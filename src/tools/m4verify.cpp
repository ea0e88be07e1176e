// m4verify — summary translation validation for M4 data planes.
//
// Runs the code-summary transform (summary::summarize) and then proves it
// sound: per pipeline, every eliminated path-fragment is discharged UNSAT
// under the public pre-condition, and the surviving summary is checked to
// be a simulation of the original subgraph (guards both ways, effects).
//
//   m4verify [opts] FILE.m4      verify an M4 unit
//   m4verify [opts] --app NAME   verify a built-in demo app
//                                (router, mtag, acl, switchp4, gw-1..gw-4)
//   m4verify [opts] --bug N      verify bug-corpus scenario N (1..16)
//
// Options:
//   --json            machine-readable output
//   --obligations     dump every obligation, not just unproven/refuted
//   --inject KIND     miscompile the summary first (drop-branch,
//                     widen-guard, drop-effect) — the validator must refute
//   --budget-ms N     per-obligation solver wall-clock budget
//   --z3              use the Z3 backend when built in
//
// Exit status: 0 proven (all obligations unsat), 1 sound but with
// unproven obligations, 2 refuted (or usage/load failure).
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "analysis/validate.hpp"
#include "apps/apps.hpp"
#include "cfg/build.hpp"
#include "p4/dsl.hpp"
#include "summary/summary.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"

namespace {

using namespace meissa;

int usage() {
  std::fprintf(
      stderr,
      "usage: m4verify [--json] [--obligations] [--inject KIND]\n"
      "                [--budget-ms N] [--z3] (FILE.m4 | --app NAME | "
      "--bug N)\n"
      "  --app:    router, mtag, acl, switchp4, gw-1, gw-2, gw-3, gw-4\n"
      "  --bug:    bug-corpus scenario 1..%d\n"
      "  --inject: drop-branch, widen-guard, drop-effect\n",
      apps::kNumBugs);
  return 2;
}

// Same demo configurations as m4lint / the test suite.
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
  bool dump = false;
  bool use_z3 = false;
  uint64_t budget_ms = 0;
  std::string inject;
  std::string app;
  int bug = 0;
  std::string file;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--obligations") {
      dump = true;
    } else if (arg == "--z3") {
      use_z3 = true;
    } else if (arg == "--inject" && i + 1 < argc) {
      inject = argv[++i];
      if (!analysis::parse_summary_fault(inject)) return usage();
    } else if (arg == "--budget-ms" && i + 1 < argc) {
      if (!util::parse_flag(argv, i, budget_ms)) return usage();
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

  try {
    ir::Context ctx;
    p4::DataPlane dp;
    p4::RuleSet rules;
    if (!file.empty()) {
      std::ifstream in(file);
      if (!in) {
        std::fprintf(stderr, "m4verify: cannot open '%s'\n", file.c_str());
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
    } else {
      apps::BugScenario s = apps::make_bug(ctx, bug);
      dp = std::move(s.bundle.dp);
      rules = std::move(s.bundle.rules);
    }

    const cfg::Cfg original = cfg::build_cfg(dp, rules, ctx);
    analysis::ValidateOptions vopts;
    vopts.use_z3 = use_z3;
    vopts.summary.use_z3 = use_z3;
    if (budget_ms > 0) vopts.budget.max_wall_ms = budget_ms;
    summary::SummaryResult sr =
        summary::summarize(ctx, original, vopts.summary);

    if (!inject.empty()) {
      std::optional<std::string> broke = analysis::inject_summary_fault(
          ctx, sr.graph, *analysis::parse_summary_fault(inject));
      if (!broke) {
        std::fprintf(stderr,
                     "m4verify: no applicable site for --inject %s\n",
                     inject.c_str());
        return 2;
      }
      std::fprintf(stderr, "m4verify: injected fault: %s\n", broke->c_str());
    }

    const analysis::ValidationResult res =
        analysis::validate_summary(ctx, original, sr.graph, vopts);
    const std::string out = json
                                ? analysis::validate_render_json(res, dump)
                                : analysis::validate_render_text(res, dump);
    std::fputs(out.c_str(), stdout);
    if (res.refuted > 0) return 2;
    if (res.unproven > 0) return 1;
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "m4verify: %s\n", e.what());
    return 2;
  }
}
