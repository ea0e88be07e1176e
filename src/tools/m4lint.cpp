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
#include <string>

#include "analysis/lint.hpp"
#include "cfg/build.hpp"
#include "tools/frontend.hpp"

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

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  tools::InputArgs input;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (!input.take(argc, argv, i)) {
      return usage();
    }
  }
  if (!input.complete()) return usage();

  try {
    ir::Context ctx;
    const tools::Input in = tools::load_input(ctx, input);
    cfg::Cfg g = cfg::build_cfg(in.bundle.dp, in.bundle.rules, ctx);
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
