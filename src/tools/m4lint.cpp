// m4lint — static lint for M4 data planes and the built-in app corpus.
//
//   m4lint [--json] FILE.m4         lint an M4 unit (program + topology +
//                                   optional rules)
//   m4lint [--json] --app NAME      lint a built-in demo app
//                                   (router, mtag, acl, switchp4, gw-1..gw-4)
//   m4lint [--json] --bug N         lint bug-corpus scenario N (1..16)
//
// Exit status: 0 clean, 1 warnings only, 2 errors (or usage/load failure).
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "analysis/lint.hpp"
#include "apps/apps.hpp"
#include "cfg/build.hpp"
#include "p4/dsl.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"

namespace {

using namespace meissa;

int usage() {
  std::fprintf(stderr,
               "usage: m4lint [--json] (FILE.m4 | --app NAME | --bug N)\n"
               "  --app: router, mtag, acl, switchp4, gw-1, gw-2, gw-3, gw-4\n"
               "  --bug: bug-corpus scenario 1..%d\n",
               apps::kNumBugs);
  return 2;
}

// The demo configurations the test suite exercises (small, deterministic).
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
  std::string app;
  int bug = 0;
  std::string file;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
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
        std::fprintf(stderr, "m4lint: cannot open '%s'\n", file.c_str());
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

    cfg::Cfg g = cfg::build_cfg(dp, rules, ctx);
    analysis::LintResult res = analysis::lint_cfg(ctx, g);
    const std::string out =
        json ? analysis::render_json(res) : analysis::render_text(res);
    std::fputs(out.c_str(), stdout);
    if (res.errors > 0) return 2;
    if (res.warnings > 0) return 1;
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "m4lint: %s\n", e.what());
    return 2;
  }
}
