// Gauntlet-style survival analysis over the generated ground-truth bug
// corpus (DESIGN.md "Bug injection & survival analysis"): for each
// evaluation program, mutate every live injection site, then run the full
// detection stack (lint, summary validation, symbolic engine, greybox
// fuzz) over the variants and report which lane caught each one first.
// The last row is the legacy corpus — the 16 hand-written Table-2
// scenarios converted to the same manifest format.
//
// One JSON line per program:
//
//   {"program":..,"variants":N,"confirmed":N,"detected":N,"survived":N,
//    "detection_rate":F,"first_by":{"lint":..,"verify":..,"engine":..,
//    "fuzz":..},"corpus_seconds":F,"survival_seconds":F}
//
// By default the corpus is capped at --max-variants per program and the
// engine lane at --engine-templates generated templates (that lane
// re-concretizes its whole case set against every buggy device, which
// dominates at evaluation sizes — uncapped, switch.p4 and gw-4 run for
// tens of minutes). Pass 0 to either flag for the uncapped sweep.
//
// Usage: bug_survival [--execs N] [--seed N] [--threads N] [--scale N]
//                     [--max-variants N] [--engine-templates N]
//                     [--metrics FILE] [--trace FILE]
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "apps/corpus.hpp"
#include "apps/survival.hpp"
#include "bench_common.hpp"

using namespace meissa;

int main(int argc, char** argv) {
  auto obs = bench::observe(argc, argv);

  apps::corpus::CorpusOptions copts;
  apps::survival::SurvivalOptions sopts;
  copts.seed = bench::parse_numeric_arg<uint64_t>(argc, argv, "--seed", 1);
  sopts.seed = copts.seed;
  copts.threads = bench::parse_threads(argc, argv, /*fallback=*/0);
  sopts.threads = copts.threads;
  sopts.fuzz_execs =
      bench::parse_numeric_arg<uint64_t>(argc, argv, "--execs", 4096);
  copts.max_variants =
      bench::parse_numeric_arg<size_t>(argc, argv, "--max-variants", 24);
  sopts.engine_max_templates =
      bench::parse_numeric_arg<size_t>(argc, argv, "--engine-templates", 192);
  const int scale = bench::parse_numeric_arg(argc, argv, "--scale", 1);

  std::printf("Bug injection survival analysis (seed %llu, fuzz budget "
              "%llu execs)\n",
              static_cast<unsigned long long>(copts.seed),
              static_cast<unsigned long long>(sopts.fuzz_execs));
  std::printf("%-10s %9s %9s %9s %9s   %s\n", "program", "variants",
              "confirmed", "detected", "survived", "first detector");

  uint64_t grand_total = 0, grand_detected = 0;
  std::vector<std::string> rows = bench::program_names();
  rows.push_back("legacy");
  for (const std::string& name : rows) {
    ir::Context ctx;
    apps::AppBundle bundle;
    const apps::AppBundle* ref = nullptr;

    bench::Timer corpus_timer;
    apps::corpus::BugCorpus corpus;
    if (name == "legacy") {
      corpus = apps::corpus::build_legacy_corpus(copts);
    } else {
      bundle = bench::make_program(ctx, name, scale);
      corpus = apps::corpus::build_corpus(ctx, bundle, copts);
      ref = &bundle;
    }
    const double corpus_seconds = corpus_timer.elapsed();

    bench::Timer survival_timer;
    apps::survival::SurvivalReport rep =
        apps::survival::run_survival(corpus, ref, sopts);
    const double survival_seconds = survival_timer.elapsed();

    grand_total += rep.total;
    grand_detected += rep.detected;
    std::printf(
        "%-10s %9llu %9llu %9llu %9llu   lint %llu / verify %llu / "
        "engine %llu / fuzz %llu\n",
        name.c_str(), static_cast<unsigned long long>(rep.total),
        static_cast<unsigned long long>(corpus.confirmed),
        static_cast<unsigned long long>(rep.detected),
        static_cast<unsigned long long>(rep.survived),
        static_cast<unsigned long long>(rep.first_by[0]),
        static_cast<unsigned long long>(rep.first_by[1]),
        static_cast<unsigned long long>(rep.first_by[2]),
        static_cast<unsigned long long>(rep.first_by[3]));
    std::printf(
        "{\"program\":\"%s\",\"variants\":%llu,\"confirmed\":%llu,"
        "\"detected\":%llu,\"survived\":%llu,\"detection_rate\":%.4f,"
        "\"first_by\":{\"lint\":%llu,\"verify\":%llu,\"engine\":%llu,"
        "\"fuzz\":%llu},\"corpus_seconds\":%.3f,\"survival_seconds\":%.3f}\n",
        util::json_escape(name).c_str(),
        static_cast<unsigned long long>(rep.total),
        static_cast<unsigned long long>(corpus.confirmed),
        static_cast<unsigned long long>(rep.detected),
        static_cast<unsigned long long>(rep.survived),
        rep.detection_rate(),
        static_cast<unsigned long long>(rep.first_by[0]),
        static_cast<unsigned long long>(rep.first_by[1]),
        static_cast<unsigned long long>(rep.first_by[2]),
        static_cast<unsigned long long>(rep.first_by[3]), corpus_seconds,
        survival_seconds);
  }
  std::printf("aggregate: %llu/%llu detected (%.1f%%)\n",
              static_cast<unsigned long long>(grand_detected),
              static_cast<unsigned long long>(grand_total),
              grand_total ? 100.0 * static_cast<double>(grand_detected) /
                                static_cast<double>(grand_total)
                          : 0.0);
  return 0;
}
