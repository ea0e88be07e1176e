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
#include <string>

#include "analysis/validate.hpp"
#include "cfg/build.hpp"
#include "summary/summary.hpp"
#include "tools/frontend.hpp"
#include "util/cli.hpp"

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

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool dump = false;
  bool use_z3 = false;
  uint64_t budget_ms = 0;
  std::string inject;
  tools::InputArgs input;
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
    } else if (!input.take(argc, argv, i)) {
      return usage();
    }
  }
  if (!input.complete()) return usage();

  try {
    ir::Context ctx;
    const tools::Input in = tools::load_input(ctx, input);
    const cfg::Cfg original =
        cfg::build_cfg(in.bundle.dp, in.bundle.rules, ctx);
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
