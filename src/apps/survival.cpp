#include "apps/survival.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <set>

#include "analysis/lint.hpp"
#include "analysis/validate.hpp"
#include "cfg/build.hpp"
#include "driver/sender.hpp"
#include "driver/tester.hpp"
#include "fuzz/fuzz.hpp"
#include "obs/metrics.hpp"
#include "sim/toolchain.hpp"
#include "summary/summary.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/supervise.hpp"

namespace meissa::apps::survival {

using corpus::BugVariant;
using corpus::MutationKind;

const char* detector_name(Detector d) noexcept {
  switch (d) {
    case Detector::kLint: return "lint";
    case Detector::kVerify: return "verify";
    case Detector::kEngine: return "engine";
    case Detector::kFuzz: return "fuzz";
    case Detector::kNone: return "none";
  }
  return "?";
}

namespace {

// Canonical diagnostic key for the lint diff (node ids shift between the
// baseline and the mutated graph, so they are excluded).
std::set<std::string> lint_keys(const analysis::LintResult& r) {
  std::set<std::string> keys;
  for (const analysis::Diagnostic& d : r.diagnostics) {
    keys.insert(d.code + "\x1f" + d.instance + "\x1f" + d.field + "\x1f" +
                d.message);
  }
  return keys;
}

// Everything the differential lanes need about one reference program:
// lint baseline, engine model (cached generation), and the fuzz seed pool.
// Built once for the app bundle and shared by every variant without its
// own reference; built per variant for legacy scenarios.
struct ReferenceState {
  ir::Context& ctx;
  const p4::DataPlane& dp;
  const p4::RuleSet& rules;
  const std::vector<spec::Intent>& intents;
  std::optional<std::set<std::string>> lint_baseline;
  std::unique_ptr<driver::Meissa> meissa;
  sim::DeviceProgram ref_prog;
  bool compiled = false;
  std::vector<driver::TestCase> seeds;
  bool seeded = false;
  std::optional<summary::SummaryResult> summarized;
  std::optional<cfg::Cfg> lint_graph;  // unsummarized graph (verify lane)

  ReferenceState(ir::Context& c, const p4::DataPlane& d,
                 const p4::RuleSet& r, const std::vector<spec::Intent>& in)
      : ctx(c), dp(d), rules(r), intents(in) {}

  const std::set<std::string>& baseline() {
    if (!lint_baseline) {
      cfg::Cfg g = cfg::build_cfg(dp, rules, ctx);
      lint_baseline = lint_keys(analysis::lint_cfg(ctx, g));
    }
    return *lint_baseline;
  }

  driver::Meissa& engine(const SurvivalOptions& opts) {
    if (!meissa) {
      driver::TestRunOptions topts;
      topts.seed = opts.seed;
      topts.gen.threads = opts.threads;
      if (opts.engine_max_templates) {
        topts.gen.max_templates = opts.engine_max_templates;
      }
      meissa = std::make_unique<driver::Meissa>(ctx, dp, rules, topts);
      meissa->generate();
    }
    return *meissa;
  }

  const sim::DeviceProgram& reference_program() {
    if (!compiled) {
      ref_prog = sim::compile(dp, rules, ctx);
      compiled = true;
    }
    return ref_prog;
  }

  const std::vector<driver::TestCase>& fuzz_seeds(const SurvivalOptions& o) {
    if (!seeded) {
      seeded = true;
      driver::Meissa& m = engine(o);
      driver::Sender sender(ctx, dp, m.graph());
      for (const sym::TestCaseTemplate& t : m.generate()) {
        if (seeds.size() >= o.fuzz_seeds) break;
        std::optional<driver::TestCase> tc =
            sender.concretize(t, m.generator().engine());
        if (tc) seeds.push_back(std::move(*tc));
      }
    }
    return seeds;
  }

  const cfg::Cfg& original_graph() {
    if (!lint_graph) lint_graph = cfg::build_cfg(dp, rules, ctx);
    return *lint_graph;
  }

  const summary::SummaryResult& summary() {
    if (!summarized) {
      summarized = summary::summarize(ctx, original_graph(), {});
    }
    return *summarized;
  }
};

bool lint_lane(ReferenceState& ref, const BugVariant& v,
               VariantOutcome& o) {
  if (!v.code_bug) return false;  // source program unchanged by definition
  try {
    cfg::Cfg g = cfg::build_cfg(v.dp, v.rules, *v.ctx);
    std::set<std::string> keys = lint_keys(analysis::lint_cfg(*v.ctx, g));
    const std::set<std::string>& base = ref.baseline();
    for (const std::string& k : keys) {
      if (base.count(k)) continue;
      const size_t cut = k.find('\x1f');
      o.detail = "new diagnostic: " + k.substr(0, cut);
      return true;
    }
  } catch (const util::Error&) {
    // An unlintable mutant is itself a loud detection.
    o.detail = "mutated program failed to build a CFG";
    return true;
  }
  return false;
}

bool verify_lane(ReferenceState& ref, const BugVariant& v,
                 VariantOutcome& o) {
  try {
    if (v.kind == MutationKind::kSummary) {
      std::optional<analysis::SummaryFaultKind> fk =
          analysis::parse_summary_fault(v.summary_fault);
      if (!fk) return false;
      cfg::Cfg broken = ref.summary().graph;
      if (!analysis::inject_summary_fault(*v.ctx, broken, *fk)) return false;
      analysis::ValidationResult vr =
          analysis::validate_summary(*v.ctx, ref.original_graph(), broken);
      if (!vr.sound()) {
        const analysis::Obligation* ob = vr.first_refuted();
        o.detail = "refuted obligation";
        if (ob) {
          o.detail += std::string(": ") +
                      analysis::obligation_kind_name(ob->kind) + " in '" +
                      ob->pipeline + "'";
        }
        return true;
      }
      return false;
    }
    // Non-summary variants: summarize the mutated program and validate the
    // transform against the mutated original — sound summaries mean the
    // bug is invisible to translation validation (the expected outcome).
    cfg::Cfg g = cfg::build_cfg(v.dp, v.rules, *v.ctx);
    summary::SummaryResult s = summary::summarize(*v.ctx, g, {});
    analysis::ValidationResult vr =
        analysis::validate_summary(*v.ctx, g, s.graph);
    if (!vr.sound()) {
      o.detail = "refuted obligation on the mutated program's own summary";
      return true;
    }
  } catch (const util::Error&) {
    return false;
  }
  return false;
}

bool engine_lane(ReferenceState& ref, const BugVariant& v,
                 const SurvivalOptions& opts, VariantOutcome& o,
                 const util::CancelToken* cancel) {
  try {
    sim::Device device(sim::compile(v.dp, v.rules, *v.ctx, v.fault),
                       *v.ctx);
    driver::TestReport r =
        ref.engine(opts).test(device, ref.intents, cancel);
    if (r.failed > 0) {
      const driver::CaseRecord& f = r.failures.front();
      o.engine_cases = f.case_id;
      o.detail = !f.model_problems.empty()    ? f.model_problems.front()
                 : !f.intent_problems.empty() ? f.intent_problems.front()
                                              : "case failed";
      return true;
    }
    o.engine_cases = r.cases;
  } catch (const util::Error& e) {
    o.engine_cases = 0;
    o.detail = std::string("engine lane error: ") + e.what();
    return true;  // an uncompilable/untestable device is a detection
  }
  return false;
}

bool fuzz_lane(ReferenceState& ref, const BugVariant& v,
               const SurvivalOptions& opts, VariantOutcome& o,
               const util::CancelToken* cancel) {
  try {
    sim::Device target(sim::compile(v.dp, v.rules, *v.ctx, v.fault),
                       *v.ctx);
    sim::Device reference(ref.reference_program(), *v.ctx);
    fuzz::FuzzOptions fo;
    fo.execs = opts.fuzz_execs;
    fo.seed = opts.seed;
    fo.cancel = cancel;
    fuzz::Fuzzer fuzzer(target, reference, v.dp, v.rules, fo);
    for (const driver::TestCase& tc : ref.fuzz_seeds(opts)) {
      fuzzer.add_seed(tc.input, tc.registers);
    }
    fuzz::FuzzResult r = fuzzer.run();
    o.fuzz_execs = r.samples.empty() ? r.execs : r.samples.front().exec;
    if (r.found()) {
      o.detail = "divergence [" + r.samples.front().kind + "] after " +
                 std::to_string(o.fuzz_execs) + " execs";
      return true;
    }
  } catch (const util::Error&) {
    return false;
  }
  return false;
}

}  // namespace

SurvivalReport run_survival(const corpus::BugCorpus& c, const AppBundle* app,
                            const SurvivalOptions& opts) {
  SurvivalReport rep;
  rep.app = c.app;
  rep.seed = opts.seed;

  // Variants from build_corpus all share one context (the caller's); the
  // shared reference state lives in it.
  std::optional<ReferenceState> shared;
  if (app && !c.variants.empty() && c.variants.front().ctx) {
    shared.emplace(*c.variants.front().ctx, app->dp, app->rules,
                   app->intents);
  }

  // Lane watchdog: the engine and fuzz lanes run as supervised tasks whose
  // token they poll; lint and verify are single monolithic calls and are
  // classified post hoc. A detection that lands before the trip is kept —
  // timeout only replaces silence, never evidence.
  util::SuperviseOptions so;
  so.deadline_ms = opts.lane_deadline_ms;
  util::Supervisor lane_watch(so);
  auto supervised = [&](Detector d, VariantOutcome& o, auto&& lane) {
    if (!so.enabled()) return lane(static_cast<const util::CancelToken*>(nullptr));
    util::Supervisor::Task* task =
        lane_watch.begin(std::string("lane.") + detector_name(d));
    const bool hit = lane(&task->token());
    const bool tripped = lane_watch.end(task);
    if (tripped && !hit) o.timeout[static_cast<int>(d)] = true;
    return hit;
  };
  auto post_hoc = [&](Detector d, VariantOutcome& o, auto&& lane) {
    const auto t0 = std::chrono::steady_clock::now();
    const bool hit = lane();
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    if (so.enabled() && !hit &&
        ms >= static_cast<double>(opts.lane_deadline_ms)) {
      o.timeout[static_cast<int>(d)] = true;
    }
    return hit;
  };

  for (const BugVariant& v : c.variants) {
    VariantOutcome o;
    o.variant = v.id;
    o.vid = v.vid;
    o.kind = v.kind;
    o.code_bug = v.code_bug;
    o.confirmed = v.confirmed;

    // Resolve this variant's reference state.
    std::optional<ReferenceState> own;
    ReferenceState* ref = nullptr;
    if (v.has_reference) {
      own.emplace(*v.ctx, v.ref_dp, v.ref_rules, v.ref_intents);
      ref = &*own;
    } else if (shared) {
      ref = &*shared;
    }
    if (!ref || !v.ctx) continue;

    const bool device_lanes = v.kind != MutationKind::kSummary;
    if (opts.run_lint && device_lanes) {
      o.lint = post_hoc(Detector::kLint, o,
                        [&] { return lint_lane(*ref, v, o); });
    }
    std::string lint_detail = o.lint ? o.detail : "";
    if (opts.run_verify &&
        (v.kind == MutationKind::kSummary || opts.verify_all)) {
      o.verify = post_hoc(Detector::kVerify, o,
                          [&] { return verify_lane(*ref, v, o); });
    }
    std::string verify_detail = o.verify ? o.detail : "";
    if (opts.run_engine && device_lanes) {
      o.engine = supervised(Detector::kEngine, o,
                            [&](const util::CancelToken* cancel) {
                              return engine_lane(*ref, v, opts, o, cancel);
                            });
    }
    std::string engine_detail = o.engine ? o.detail : "";
    if (opts.run_fuzz && device_lanes) {
      o.fuzz = supervised(Detector::kFuzz, o,
                          [&](const util::CancelToken* cancel) {
                            return fuzz_lane(*ref, v, opts, o, cancel);
                          });
    }

    if (o.lint) {
      o.first = Detector::kLint;
      o.detail = lint_detail;
    } else if (o.verify) {
      o.first = Detector::kVerify;
      o.detail = verify_detail;
    } else if (o.engine) {
      o.first = Detector::kEngine;
      o.detail = engine_detail;
    } else if (o.fuzz) {
      o.first = Detector::kFuzz;
    } else {
      o.first = Detector::kNone;
      o.detail.clear();
    }

    ++rep.total;
    if (o.first != Detector::kNone) {
      ++rep.detected;
      ++rep.first_by[static_cast<int>(o.first)];
    } else {
      ++rep.survived;
    }
    if (o.lint) ++rep.lane_detected[static_cast<int>(Detector::kLint)];
    if (o.verify) ++rep.lane_detected[static_cast<int>(Detector::kVerify)];
    if (o.engine) ++rep.lane_detected[static_cast<int>(Detector::kEngine)];
    if (o.fuzz) ++rep.lane_detected[static_cast<int>(Detector::kFuzz)];
    for (int d = 0; d < kNumDetectors; ++d) {
      if (o.timeout[d]) ++rep.lane_timeouts[d];
    }
    rep.outcomes.push_back(std::move(o));
  }

  obs::metrics().counter("gauntlet.variants").add(rep.total);
  obs::metrics().counter("gauntlet.detected").add(rep.detected);
  obs::metrics().counter("gauntlet.survived").add(rep.survived);
  for (int d = 0; d < kNumDetectors; ++d) {
    obs::metrics()
        .counter(std::string("gauntlet.first.") +
                 detector_name(static_cast<Detector>(d)))
        .add(rep.first_by[d]);
    obs::metrics()
        .counter(std::string("gauntlet.lane.") +
                 detector_name(static_cast<Detector>(d)))
        .add(rep.lane_detected[d]);
    obs::metrics()
        .counter(std::string("gauntlet.timeout.") +
                 detector_name(static_cast<Detector>(d)))
        .add(rep.lane_timeouts[d]);
  }
  return rep;
}

std::string SurvivalReport::render_text() const {
  std::string out;
  out += "survival analysis: " + app + "\n";
  out += util::format("  variants %llu  detected %llu (%.1f%%)  survived "
                      "%llu\n",
                      static_cast<unsigned long long>(total),
                      static_cast<unsigned long long>(detected),
                      100.0 * detection_rate(),
                      static_cast<unsigned long long>(survived));
  out += "  first detector:";
  for (int d = 0; d < kNumDetectors; ++d) {
    out += util::format(" %s %llu", detector_name(static_cast<Detector>(d)),
                        static_cast<unsigned long long>(first_by[d]));
  }
  out += util::format(" none %llu\n",
                      static_cast<unsigned long long>(survived));
  out += "  lane totals:  ";
  for (int d = 0; d < kNumDetectors; ++d) {
    out += util::format(" %s %llu", detector_name(static_cast<Detector>(d)),
                        static_cast<unsigned long long>(lane_detected[d]));
  }
  out += "\n";
  uint64_t any_timeouts = 0;
  for (int d = 0; d < kNumDetectors; ++d) any_timeouts += lane_timeouts[d];
  if (any_timeouts > 0) {
    out += "  lane timeouts:";
    for (int d = 0; d < kNumDetectors; ++d) {
      out += util::format(" %s %llu", detector_name(static_cast<Detector>(d)),
                          static_cast<unsigned long long>(lane_timeouts[d]));
    }
    out += "\n";
  }

  // Detection by mutation kind.
  std::map<std::string, std::pair<uint64_t, uint64_t>> by_kind;  // det, tot
  for (const VariantOutcome& o : outcomes) {
    auto& [det, tot] = by_kind[corpus::mutation_kind_name(o.kind)];
    ++tot;
    if (o.first != Detector::kNone) ++det;
  }
  out += "  by mutation kind:\n";
  for (const auto& [kind, dt] : by_kind) {
    out += util::format("    %-22s %llu/%llu\n", kind.c_str(),
                        static_cast<unsigned long long>(dt.first),
                        static_cast<unsigned long long>(dt.second));
  }

  // Fuzz-latency survival curve: of the variants only the fuzz lane saw,
  // how many needed more than 2^k executions.
  std::vector<uint64_t> fuzz_lat;
  for (const VariantOutcome& o : outcomes) {
    if (o.first == Detector::kFuzz) fuzz_lat.push_back(o.fuzz_execs);
  }
  if (!fuzz_lat.empty()) {
    std::sort(fuzz_lat.begin(), fuzz_lat.end());
    out += "  fuzz-only latency (execs to first divergence):\n";
    for (uint64_t budget = 64; ; budget *= 4) {
      const size_t within = static_cast<size_t>(
          std::upper_bound(fuzz_lat.begin(), fuzz_lat.end(), budget) -
          fuzz_lat.begin());
      out += util::format("    <=%-8llu %zu/%zu\n",
                          static_cast<unsigned long long>(budget), within,
                          fuzz_lat.size());
      if (within == fuzz_lat.size()) break;
      if (budget > (1ull << 40)) break;
    }
  }

  bool any_survivor = false;
  for (const VariantOutcome& o : outcomes) {
    if (o.first != Detector::kNone) continue;
    if (!any_survivor) {
      out += "  survivors:\n";
      any_survivor = true;
    }
    out += "    " + o.vid + "\n";
  }
  return out;
}

std::string SurvivalReport::to_json() const {
  std::string out = "{\"schema\":\"meissa-bug-survival-v1\"";
  out += ",\"app\":\"" + util::json_escape(app) + "\"";
  out += ",\"seed\":" + std::to_string(seed);
  out += ",\"total\":" + std::to_string(total);
  out += ",\"detected\":" + std::to_string(detected);
  out += ",\"survived\":" + std::to_string(survived);
  out += util::format(",\"detection_rate\":%.4f", detection_rate());
  out += ",\"first_by\":{";
  for (int d = 0; d < kNumDetectors; ++d) {
    if (d) out += ",";
    out += std::string("\"") + detector_name(static_cast<Detector>(d)) +
           "\":" + std::to_string(first_by[d]);
  }
  out += "},\"lane_detected\":{";
  for (int d = 0; d < kNumDetectors; ++d) {
    if (d) out += ",";
    out += std::string("\"") + detector_name(static_cast<Detector>(d)) +
           "\":" + std::to_string(lane_detected[d]);
  }
  out += "},\"lane_timeouts\":{";
  for (int d = 0; d < kNumDetectors; ++d) {
    if (d) out += ",";
    out += std::string("\"") + detector_name(static_cast<Detector>(d)) +
           "\":" + std::to_string(lane_timeouts[d]);
  }
  out += "},\"outcomes\":[";
  for (size_t i = 0; i < outcomes.size(); ++i) {
    const VariantOutcome& o = outcomes[i];
    if (i) out += ",";
    out += "{\"variant\":" + std::to_string(o.variant);
    out += ",\"vid\":\"" + util::json_escape(o.vid) + "\"";
    out += ",\"kind\":\"";
    out += corpus::mutation_kind_name(o.kind);
    out += "\",\"code_bug\":";
    out += o.code_bug ? "true" : "false";
    out += ",\"confirmed\":";
    out += o.confirmed ? "true" : "false";
    out += ",\"lint\":";
    out += o.lint ? "true" : "false";
    out += ",\"verify\":";
    out += o.verify ? "true" : "false";
    out += ",\"engine\":";
    out += o.engine ? "true" : "false";
    out += ",\"fuzz\":";
    out += o.fuzz ? "true" : "false";
    out += ",\"first\":\"";
    out += detector_name(o.first);
    out += "\",\"timeouts\":{";
    for (int d = 0; d < kNumDetectors; ++d) {
      if (d) out += ",";
      out += std::string("\"") + detector_name(static_cast<Detector>(d)) +
             "\":" + (o.timeout[d] ? "true" : "false");
    }
    out += "},\"engine_cases\":" + std::to_string(o.engine_cases);
    out += ",\"fuzz_execs\":" + std::to_string(o.fuzz_execs);
    out += ",\"detail\":\"" + util::json_escape(o.detail) + "\"}";
  }
  out += "]}";
  return out;
}

}  // namespace meissa::apps::survival
