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

#include "driver/sender.hpp"
#include "driver/tester.hpp"
#include "fuzz/fuzz.hpp"
#include "obs/session.hpp"
#include "sim/toolchain.hpp"
#include "tools/frontend.hpp"
#include "util/cli.hpp"

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
  tools::InputArgs input;
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
    } else if (!input.take(argc, argv, i, /*files=*/false)) {
      return usage();
    }
  }
  if (!input.complete()) return usage();

  obs::Session obs_session("m4fuzz", metrics_file, trace_file);
  int status = 0;
  try {
    ir::Context ctx;
    const tools::Input in = tools::load_input(ctx, input);
    const p4::DataPlane& dp = in.bundle.dp;
    const p4::RuleSet& rules = in.bundle.rules;
    // The reference: the app itself, or the bug scenario's intended
    // program compiled without its fault.
    const apps::AppBundle ref = input.bug != 0
                                    ? apps::make_bug_intended(ctx, input.bug)
                                    : in.bundle;

    sim::Device target(sim::compile(dp, rules, ctx, in.fault), ctx);
    sim::Device reference(sim::compile(ref.dp, ref.rules, ctx), ctx);
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

  if (!obs_session.finish() && status == 0) status = 2;
  return status;
}
