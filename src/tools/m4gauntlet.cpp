// m4gauntlet — ground-truth bug corpus generation + survival analysis.
//
//   m4gauntlet [options] --app NAME   mutate a demo app at its live
//                                     injection sites and run the full
//                                     detection stack over every variant
//   m4gauntlet [options] --legacy     the 16 hand-written Table-2
//                                     scenarios, converted to the same
//                                     manifest format
//   m4gauntlet [options] --all        every demo app (router, mtag, acl,
//                                     switchp4, gw-1..gw-4), then the
//                                     legacy corpus
//
// Options:
//   --seed N             corpus + survival seed (default 1; deterministic)
//   --threads N          generation threads (same output at any value)
//   --max-variants N     cap generated variants per app (0 = unlimited)
//   --execs N            fuzz budget per variant (default 4096)
//   --keep-unconfirmed   keep variants without a replay witness
//   --lane-deadline-ms N wall-clock deadline per detection lane (0 =
//                        unlimited). A lane that hits it without detecting
//                        records a first-class "timeout" verdict (report
//                        lane_timeouts / per-outcome timeouts) instead of
//                        counting as a silent survival.
//   --no-lint --no-verify --no-engine --no-fuzz   disable a lane
//   --verify-all         run the verify lane on every variant (slow)
//   --json               machine-readable results on stdout
//   --manifest FILE      write the corpus manifest JSON (multi-target runs
//                        insert the target name before the extension)
//   --report FILE        write the survival report JSON (same naming)
//   --min-triggerable F  exit 1 when confirmed/variants < F (0..1)
//   --min-detection F    exit 1 when detected/variants < F (0..1)
//   --metrics FILE       enable the metrics registry; snapshot to FILE
//   --trace FILE         enable span tracing; Chrome trace JSON to FILE
//
// Exit status: 0 ok, 1 a gate failed, 2 usage or error.
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "apps/apps.hpp"
#include "apps/corpus.hpp"
#include "apps/survival.hpp"
#include "obs/session.hpp"
#include "util/cli.hpp"

namespace {

using namespace meissa;

int usage() {
  std::fprintf(
      stderr,
      "usage: m4gauntlet [options] (--app NAME | --legacy | --all)\n"
      "  --app: router, mtag, acl, switchp4, gw-1, gw-2, gw-3, gw-4\n"
      "  options: --seed N --threads N --max-variants N --execs N\n"
      "           --lane-deadline-ms N\n"
      "           --keep-unconfirmed --verify-all --json\n"
      "           --no-lint --no-verify --no-engine --no-fuzz\n"
      "           --manifest FILE --report FILE\n"
      "           --min-triggerable F --min-detection F\n"
      "           --metrics FILE --trace FILE\n");
  return 2;
}

// "out.json" + "router" -> "out.router.json" (multi-target runs).
std::string target_path(const std::string& base, const std::string& target,
                        bool multi) {
  if (!multi || base.empty()) return base;
  const size_t dot = base.rfind('.');
  if (dot == std::string::npos || base.find('/', dot) != std::string::npos) {
    return base + "." + target;
  }
  return base.substr(0, dot) + "." + target + base.substr(dot);
}

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) return false;
  out << content;
  return out.good();
}

struct TargetResult {
  std::string name;
  uint64_t variants = 0;
  uint64_t confirmed = 0;
  uint64_t detected = 0;
  std::string manifest;
  std::string survival_json;
  std::string survival_text;
};

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool legacy = false;
  bool all = false;
  std::string app;
  std::string manifest_file;
  std::string report_file;
  std::string metrics_file;
  std::string trace_file;
  double min_triggerable = -1;
  double min_detection = -1;
  apps::corpus::CorpusOptions copts;
  apps::survival::SurvivalOptions sopts;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--legacy") {
      legacy = true;
    } else if (arg == "--all") {
      all = true;
    } else if (arg == "--app" && i + 1 < argc) {
      app = argv[++i];
    } else if (arg == "--seed" && i + 1 < argc) {
      if (!util::parse_flag(argv, i, copts.seed)) return usage();
      sopts.seed = copts.seed;
    } else if (arg == "--threads" && i + 1 < argc) {
      if (!util::parse_flag(argv, i, copts.threads)) return usage();
      sopts.threads = copts.threads;
    } else if (arg == "--max-variants" && i + 1 < argc) {
      if (!util::parse_flag(argv, i, copts.max_variants)) return usage();
    } else if (arg == "--execs" && i + 1 < argc) {
      if (!util::parse_flag(argv, i, sopts.fuzz_execs)) return usage();
    } else if (arg == "--lane-deadline-ms" && i + 1 < argc) {
      if (!util::parse_flag(argv, i, sopts.lane_deadline_ms)) return usage();
    } else if (arg == "--keep-unconfirmed") {
      copts.keep_unconfirmed = true;
    } else if (arg == "--verify-all") {
      sopts.verify_all = true;
    } else if (arg == "--no-lint") {
      sopts.run_lint = false;
    } else if (arg == "--no-verify") {
      sopts.run_verify = false;
      copts.summary_variants = false;
    } else if (arg == "--no-engine") {
      sopts.run_engine = false;
    } else if (arg == "--no-fuzz") {
      sopts.run_fuzz = false;
    } else if (arg == "--manifest" && i + 1 < argc) {
      manifest_file = argv[++i];
    } else if (arg == "--report" && i + 1 < argc) {
      report_file = argv[++i];
    } else if (arg == "--min-triggerable" && i + 1 < argc) {
      if (!util::parse_flag(argv, i, min_triggerable)) return usage();
    } else if (arg == "--min-detection" && i + 1 < argc) {
      if (!util::parse_flag(argv, i, min_detection)) return usage();
    } else if (arg == "--metrics" && i + 1 < argc) {
      metrics_file = argv[++i];
    } else if (arg == "--trace" && i + 1 < argc) {
      trace_file = argv[++i];
    } else {
      return usage();
    }
  }
  if ((app.empty() ? 0 : 1) + (legacy ? 1 : 0) + (all ? 1 : 0) != 1) {
    return usage();
  }

  obs::Session obs_session("m4gauntlet", metrics_file, trace_file);

  std::vector<std::string> targets;
  if (all) {
    targets.assign(apps::kDemoApps.begin(), apps::kDemoApps.end());
    targets.emplace_back("legacy");
  } else if (legacy) {
    targets = {"legacy"};
  } else {
    targets = {app};
  }
  const bool multi = targets.size() > 1;

  int status = 0;
  std::vector<TargetResult> results;
  try {
    for (const std::string& target : targets) {
      TargetResult res;
      res.name = target;

      ir::Context ctx;
      apps::corpus::BugCorpus corpus;
      apps::AppBundle bundle;
      const apps::AppBundle* ref = nullptr;
      if (target == "legacy") {
        corpus = apps::corpus::build_legacy_corpus(copts);
      } else {
        bundle = apps::demo_app(ctx, target);
        corpus = apps::corpus::build_corpus(ctx, bundle, copts);
        ref = &bundle;
      }
      res.variants = corpus.variants.size();
      res.confirmed = corpus.confirmed;
      res.manifest = apps::corpus::manifest_json(corpus);
      if (!manifest_file.empty()) {
        const std::string path = target_path(manifest_file, target, multi);
        if (!write_file(path, res.manifest)) {
          std::fprintf(stderr, "m4gauntlet: cannot write manifest '%s'\n",
                       path.c_str());
          status = 2;
        }
      }

      apps::survival::SurvivalReport rep =
          apps::survival::run_survival(corpus, ref, sopts);
      res.detected = rep.detected;
      res.survival_json = rep.to_json();
      res.survival_text = rep.render_text();
      if (!report_file.empty()) {
        const std::string path = target_path(report_file, target, multi);
        if (!write_file(path, res.survival_json)) {
          std::fprintf(stderr, "m4gauntlet: cannot write report '%s'\n",
                       path.c_str());
          status = 2;
        }
      }

      const double triggerable =
          res.variants
              ? static_cast<double>(res.confirmed) /
                    static_cast<double>(res.variants)
              : 0.0;
      const double detection =
          res.variants
              ? static_cast<double>(res.detected) /
                    static_cast<double>(res.variants)
              : 0.0;
      if (!json) {
        std::printf("== %s: %llu variants (%llu confirmed, %.1f%% "
                    "triggerable)\n",
                    target.c_str(),
                    static_cast<unsigned long long>(res.variants),
                    static_cast<unsigned long long>(res.confirmed),
                    100.0 * triggerable);
        std::fputs(res.survival_text.c_str(), stdout);
      }
      if (min_triggerable >= 0 && triggerable < min_triggerable) {
        std::fprintf(stderr,
                     "m4gauntlet: %s triggerable %.3f below gate %.3f\n",
                     target.c_str(), triggerable, min_triggerable);
        if (status == 0) status = 1;
      }
      if (min_detection >= 0 && detection < min_detection) {
        std::fprintf(stderr,
                     "m4gauntlet: %s detection %.3f below gate %.3f\n",
                     target.c_str(), detection, min_detection);
        if (status == 0) status = 1;
      }
      results.push_back(std::move(res));
    }

    if (json) {
      std::string out = "{\"schema\":\"meissa-gauntlet-v1\",\"targets\":[";
      for (size_t i = 0; i < results.size(); ++i) {
        if (i) out += ",";
        out += "{\"target\":\"" + results[i].name + "\"";
        out += ",\"manifest\":" + results[i].manifest;
        out += ",\"survival\":" + results[i].survival_json + "}";
      }
      out += "]}";
      std::printf("%s\n", out.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "m4gauntlet: %s\n", e.what());
    status = 2;
  }

  if (!obs_session.finish() && status == 0) status = 2;
  return status;
}
