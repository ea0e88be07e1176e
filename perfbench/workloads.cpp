#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <optional>

#include "apps/apps.hpp"
#include "apps/table2.hpp"
#include "cfg/build.hpp"
#include "driver/checker.hpp"
#include "driver/incremental.hpp"
#include "driver/report.hpp"
#include "driver/sender.hpp"
#include "driver/tester.hpp"
#include "sim/toolchain.hpp"
#include "spans.hpp"
#include "spec/intent.hpp"
#include "summary/summary.hpp"
#include "sym/template.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace perfbench {
namespace {

using namespace meissa;
using Counters = std::map<std::string, double>;
using Scope = SpanRecorder::Scope;

// ---------------------------------------------------------------- helpers

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// The highest sample with at least ten samples above it; 0 when there are
// fewer than eleven samples.
double tail_ten_beyond(std::vector<double> v) {
  if (v.size() < 11) return 0;
  std::sort(v.begin(), v.end());
  return v[v.size() - 11];
}

double quartile(std::vector<double> v, int q) {
  std::sort(v.begin(), v.end());
  return v[(v.size() - 1) * q / 4];
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// The host's speed drifts by up to tens of percent within a minute, so
// result and set-up samples are interleaved to span the same window: after
// each pass, set-up repetitions run for this share of the pass's time.
constexpr double kSetupShare = 0.25;
constexpr size_t kMinPasses = 2;

void fail(Result& r, std::string why) {
  r.correct = false;
  r.errors.push_back(std::move(why));
}

std::vector<std::string> signatures(const ir::Context& ctx, const cfg::Cfg& g,
                                    const std::vector<sym::TestCaseTemplate>& ts) {
  std::vector<std::string> out;
  out.reserve(ts.size());
  for (const sym::TestCaseTemplate& t : ts) {
    out.push_back(driver::IncrementalSession::full_signature(ctx, g, t));
  }
  return out;
}

apps::AppBundle make_gw(ir::Context& ctx, int level, int eips, uint64_t seed) {
  apps::GwConfig cfg;
  cfg.level = level;
  cfg.elastic_ips = eips;
  cfg.seed = seed;
  return apps::make_gateway(ctx, cfg);
}

// ------------------------------------------------- layer-by-layer driving
//
// The traced run calls each layer's public entry point itself, with the
// options driver::Generator and driver::Meissa::test use, so that a span
// can sit around every call. The untraced run goes through the facades;
// the traced run must reproduce their templates and verdicts exactly.

struct LayeredGen {
  cfg::Cfg original;
  std::optional<summary::SummaryResult> summarized;
  analysis::Facts facts;  // must outlive `engine`
  std::unique_ptr<sym::Engine> engine;
  std::vector<sym::TestCaseTemplate> templates;
  const cfg::Cfg& graph() const { return summarized->graph; }
};

void layered_build(SpanRecorder& rec, ir::Context& ctx,
                   const apps::AppBundle& app, LayeredGen& g, Counters& c) {
  Scope s(rec, "cfg");
  g.original = cfg::build_cfg(app.dp, app.rules, ctx, {});
  c["cfg.nodes"] += static_cast<double>(g.original.size());
}

void layered_generate(SpanRecorder& rec, ir::Context& ctx, int threads,
                      const std::vector<ir::ExprRef>& assumes, LayeredGen& g,
                      Counters& c) {
  {
    Scope s(rec, "summary");
    summary::SummaryOptions so;
    so.threads = threads;
    g.summarized = summary::summarize(ctx, g.original, so);
  }
  c["summary.smt_checks"] += static_cast<double>(g.summarized->total_smt_checks);
  c["summary.smt_skipped"] +=
      static_cast<double>(g.summarized->total_smt_skipped);
  for (const summary::PipelineSummary& p : g.summarized->per_pipeline) {
    c["summary.paths_after"] += static_cast<double>(p.paths_after);
  }
  {
    Scope s(rec, "analysis");
    g.facts = analysis::compute_facts(ctx, g.graph(), g.graph().entry());
  }
  {
    Scope s(rec, "sym");
    sym::EngineOptions eo;
    eo.fresh_ns = "dfs";
    eo.pc_cache = true;
    eo.solver_portfolio = true;
    eo.facts = &g.facts;
    g.engine = std::make_unique<sym::Engine>(ctx, g.graph(), eo);
    for (ir::ExprRef a : assumes) {
      g.engine->add_precondition(spec::assume_to_precondition(a, ctx));
    }
    g.engine->run_parallel(
        [&](const sym::PathResult& r) {
          g.templates.push_back(
              sym::make_template(ctx, g.graph(), r, g.templates.size()));
        },
        threads);
    std::stable_sort(g.templates.begin(), g.templates.end(),
                     [](const sym::TestCaseTemplate& a,
                        const sym::TestCaseTemplate& b) { return a.id < b.id; });
  }
  const sym::EngineStats& st = g.engine->stats();
  c["sym.templates"] += static_cast<double>(g.templates.size());
  c["sym.nodes_visited"] += static_cast<double>(st.nodes_visited);
  c["sym.backend_checks"] += static_cast<double>(st.solver.checks);
  c["sym.sat_calls"] += static_cast<double>(st.solver.sat_calls);
  c["sym.fast_path_hits"] += static_cast<double>(st.solver.fast_path_hits);
  c["sym.fast_path_skipped"] += static_cast<double>(st.solver.fast_path_skipped);
  c["sym.static_prunes"] += static_cast<double>(st.static_prunes);
  c["sym.pc_cache_hits"] += static_cast<double>(st.pc_cache_hits);
  c["sym.pc_cache_misses"] += static_cast<double>(st.pc_cache_misses);
  c["sym.pc_model_reuse"] += static_cast<double>(st.pc_model_reuse);
}

struct Verdicts {
  uint64_t cases = 0;
  uint64_t passed = 0;
  uint64_t failed = 0;
  uint64_t removed_by_hash = 0;
  bool operator==(const Verdicts&) const = default;
};

Verdicts verdicts_of(const driver::TestReport& r) {
  return {r.cases, r.passed, r.failed, r.removed_by_hash};
}

// Mirrors driver::Meissa::test on a perfect link (default TestRunOptions
// apart from the seed): concretize, batched execution with a flush before
// every register install, check, and trace rendering for the first
// recorded failures.
Verdicts layered_test(SpanRecorder& rec, ir::Context& ctx,
                      const p4::DataPlane& dp, LayeredGen& g,
                      sim::Device& device,
                      const std::vector<spec::Intent>& intents, uint64_t seed,
                      Counters& c) {
  const driver::TestRunOptions defaults;
  Verdicts v;
  driver::Sender sender(ctx, dp, g.graph(), seed);
  sim::ExecArena arena;
  arena.collect_trace = defaults.collect_traces;
  std::vector<const sym::TestCaseTemplate*> pend_t;
  std::vector<driver::TestCase> pend_c;
  std::vector<sim::DeviceInput> inputs;
  std::vector<sim::DeviceOutput> outputs;
  uint64_t recorded = 0;

  auto flush = [&] {
    if (pend_c.empty()) return;
    inputs.clear();
    for (driver::TestCase& tc : pend_c) inputs.push_back(std::move(tc.input));
    outputs.resize(pend_c.size());
    {
      Scope s(rec, "sim.exec");
      device.run_batch(inputs, outputs, arena);
    }
    c["sim.packets"] += static_cast<double>(pend_c.size());
    for (size_t i = 0; i < pend_c.size(); ++i) {
      for (const sim::TraceEvent& ev : outputs[i].trace) {
        if (ev.kind == sim::TraceEventKind::kEvalFallback) {
          c["sim.eval_fallbacks"] += 1;
        }
      }
      pend_c[i].input = std::move(inputs[i]);
      Scope s(rec, "driver.check");
      driver::CheckResult cr =
          driver::check_case(ctx, dp.program, pend_c[i], outputs[i], intents);
      ++v.cases;
      if (cr.pass) {
        ++v.passed;
        continue;
      }
      ++v.failed;
      if (recorded < defaults.max_recorded_failures) {
        ++recorded;
        Scope r(rec, "driver.trace_render");
        (void)driver::symbolic_trace(ctx, g.graph(), pend_t[i]->path,
                                     pend_c[i].input_state, 200);
        (void)device.render_trace(outputs[i].trace);
      }
    }
    pend_t.clear();
    // Destroying the concretized cases (each holds a complete input state)
    // is a visible share of the tester's time, so it gets its own span.
    Scope s(rec, "driver.release");
    pend_c.clear();
  };

  for (const sym::TestCaseTemplate& t : g.templates) {
    std::optional<driver::TestCase> tc;
    {
      Scope s(rec, "driver.concretize");
      tc = sender.concretize(t, *g.engine);
    }
    if (!tc) continue;
    if (!tc->registers.empty()) {
      flush();
      Scope s(rec, "sim.exec");
      device.set_registers(tc->registers);
    }
    pend_t.push_back(&t);
    pend_c.push_back(std::move(*tc));
    if (pend_c.size() >= defaults.batch) flush();
  }
  flush();
  v.removed_by_hash = sender.removed_by_hash();
  c["driver.cases"] += static_cast<double>(v.cases);
  c["driver.failed"] += static_cast<double>(v.failed);
  c["driver.removed_by_hash"] += static_cast<double>(sender.removed_by_hash());
  c["driver.hash_repairs"] +=
      static_cast<double>(sender.hash_repair_attempts());
  return v;
}

// ------------------------------------------------------- run bookkeeping

// What one traced pass produced: its deterministic counts, the result-phase
// wall times measured around the layer calls, and the part of those times
// the layer spans cover.
struct TracedPass {
  Counters counts;
  std::vector<double> result_s;
  double covered_s = 0;
};

// One workload, as the generic schedule below drives it.
struct Workload {
  // One untraced pass: appends its result-time samples. With `keep_refs`
  // it also records the templates and verdicts the traced pass must match.
  std::function<void(std::vector<double>& result, bool keep_refs)> pass;
  // One untraced set-up, timed.
  std::function<double()> setup_once;
  // One traced pass of the same work as `pass`.
  std::function<void(SpanRecorder&, TracedPass&)> traced_pass;
  // Runs first, unmeasured; when unset, one pass (recording the reference
  // outputs in traced runs) warms up.
  std::function<void()> warm_up;
};

// The traced run's report: the per-layer table (calls, total, self time
// and share of wall time, per traced pass), the counts of the first traced
// pass, the completeness check and the tracing overhead.
void finish_traced(const Options& opts, const SpanRecorder& rec,
                   const std::vector<TracedPass>& traced,
                   const std::vector<double>& untraced_result, Result& r) {
  const double passes = static_cast<double>(traced.size());
  for (size_t i = 1; i < traced.size(); ++i) {
    if (traced[i].counts != traced[0].counts) {
      fail(r, "per-layer counts differ between traced passes");
    }
  }
  const Counters& c0 = traced[0].counts;
  for (const auto& [name, value] : c0) {
    r.metrics.push_back({name, value, "count"});
  }
  const auto get = [&](const char* k) {
    return c0.count(k) != 0 ? c0.at(k) : 0.0;
  };
  const double lookups = get("sym.pc_cache_hits") + get("sym.pc_cache_misses");
  r.metrics.push_back({"sym.pc_cache_hit_ratio",
                       lookups > 0 ? get("sym.pc_cache_hits") / lookups : 0,
                       "ratio"});

  static const std::map<std::string, std::string> kTotalName = {
      {"apps", "apps.build_s"},
      {"sim.compile", "sim.compile_s"},
      {"cfg", "cfg.build_s"},
      {"summary", "summary.s"},
      {"analysis", "analysis.facts_s"},
      {"sym", "sym.dfs_s"},
      {"driver.concretize", "driver.concretize_s"},
      {"sim.exec", "sim.exec_s"},
      {"driver.check", "driver.check_s"},
      {"driver.trace_render", "driver.trace_render_s"},
      {"driver.release", "driver.release_s"},
      {"driver.incremental", "driver.incremental_s"},
  };
  const double wall = rec.unit_seconds();
  for (const auto& [layer, t] : rec.layer_totals()) {
    r.metrics.push_back({kTotalName.at(layer), t.total_s / passes, "s"});
    r.metrics.push_back(
        {layer + ".calls", static_cast<double>(t.calls) / passes, "count"});
    r.metrics.push_back({layer + ".self_s", t.self_s / passes, "s"});
    r.metrics.push_back({layer + ".share", t.self_s / wall, "ratio"});
    if (layer == "driver.concretize" && get("driver.cases") > 0) {
      r.metrics.push_back({"driver.concretize_us_per_case",
                           t.total_s / passes / get("driver.cases") * 1e6,
                           "us"});
    }
  }

  std::vector<double> result;
  double coverage = 1;
  for (const TracedPass& p : traced) {
    double sum = 0;
    for (double s : p.result_s) sum += s;
    result.insert(result.end(), p.result_s.begin(), p.result_s.end());
    coverage = std::min(coverage, p.covered_s / sum);
  }
  r.metrics.push_back({"trace.coverage", coverage, "ratio"});
  if (coverage < 0.95) {
    fail(r, util::format("layer spans cover %.3f of the result time (< 0.95)",
                         coverage));
  }
  r.metrics.push_back({"trace.overhead_ratio",
                       median(result) / median(untraced_result), "ratio"});
  r.metrics.push_back({"trace.wall_s", wall / passes, "s"});
  if (!opts.spans_path.empty() && !rec.write_json(opts.spans_path)) {
    fail(r, "cannot write spans to " + opts.spans_path);
  }
}

// Untraced: passes, each followed by set-up repetitions, at least
// kMinPasses of them. Traced: a traced and an untraced pass per round, at
// least one round. Rounds repeat while the next one is expected to end
// within the run's time.
void drive(const Options& opts, Workload& w, Result& r) {
  const Clock::time_point start = Clock::now();
  double round_s = 0;
  auto more = [&](size_t done, size_t min) {
    return done < min || seconds_since(start) + round_s <= opts.seconds;
  };
  std::vector<double> result;
  if (w.warm_up) {
    w.warm_up();
  } else {
    std::vector<double> discard;
    w.pass(discard, opts.trace);
  }
  if (!opts.trace) {
    std::vector<double> setup;
    for (size_t passes = 0; more(passes, kMinPasses); ++passes) {
      const Clock::time_point t0 = Clock::now();
      w.pass(result, false);
      const double budget = kSetupShare * seconds_since(t0);
      const Clock::time_point t1 = Clock::now();
      do {
        setup.push_back(w.setup_once());
      } while (seconds_since(t1) < budget);
      round_s = seconds_since(t0);
    }
    // The in-process spread, for the record (standard error only).
    std::fprintf(stderr, "perfbench: %zu result samples:", result.size());
    for (double x : result) std::fprintf(stderr, " %.4f", x);
    std::fprintf(stderr,
                 "\nperfbench: %zu setup samples, quartiles %.6f %.6f %.6f\n",
                 setup.size(), quartile(setup, 1), quartile(setup, 2),
                 quartile(setup, 3));
    r.metrics = {{"setup_s", median(setup), "s"},
                 {"result_s", median(result), "s"},
                 {"peak_rss_mb", peak_rss_mb(), "MB"}};
    return;
  }
  SpanRecorder rec(true);
  std::vector<TracedPass> traced;
  while (more(traced.size(), 1)) {
    const Clock::time_point t0 = Clock::now();
    w.traced_pass(rec, traced.emplace_back());
    w.pass(result, false);
    round_s = seconds_since(t0);
  }
  finish_traced(opts, rec, traced, result, r);
}

// ------------------------------------------------------------- gw-test
//
// Full test (generate, concretize, execute, check) of gw-1..gw-4 at eight
// elastic IPs on two threads: the user's time to verdict.

constexpr int kGwTestThreads = 2;
constexpr int kGwTestEips = 8;
struct GwPinned {
  int level;
  uint64_t templates;
  uint64_t cases;
};
constexpr GwPinned kGwTestPinned[] = {
    {1, 451, 451}, {2, 323, 323}, {3, 323, 323}, {4, 323, 323}};

struct Reference {
  std::vector<std::string> sigs;
  Verdicts verdicts;
};

Result run_gw_test(const Options& opts) {
  Result r;
  driver::TestRunOptions topts;
  topts.seed = opts.seed;
  topts.gen.threads = kGwTestThreads;
  std::vector<Reference> refs(std::size(kGwTestPinned));

  Workload w;
  w.pass = [&](std::vector<double>& result, bool keep_refs) {
    double total = 0;
    for (size_t k = 0; k < std::size(kGwTestPinned); ++k) {
      const GwPinned& pin = kGwTestPinned[k];
      ir::Context ctx;
      apps::AppBundle app = make_gw(ctx, pin.level, kGwTestEips, opts.seed);
      sim::Device device(sim::compile(app.dp, app.rules, ctx), ctx);
      driver::Meissa meissa(ctx, app.dp, app.rules, topts);
      const Clock::time_point t1 = Clock::now();
      driver::TestReport rep = meissa.test(device, app.intents);
      total += seconds_since(t1);
      r.attempted += rep.cases;
      r.failed += rep.failed;
      if (rep.failed != 0 || rep.templates != pin.templates ||
          rep.cases != pin.cases) {
        fail(r, util::format(
                    "gw-%d: %llu templates, %llu cases, %llu failed; pinned "
                    "%llu templates, %llu cases, none failed",
                    pin.level, static_cast<unsigned long long>(rep.templates),
                    static_cast<unsigned long long>(rep.cases),
                    static_cast<unsigned long long>(rep.failed),
                    static_cast<unsigned long long>(pin.templates),
                    static_cast<unsigned long long>(pin.cases)));
      }
      if (keep_refs) {
        refs[k].sigs = signatures(ctx, meissa.graph(), meissa.generate());
        refs[k].verdicts = verdicts_of(rep);
      }
    }
    result.push_back(total);
  };
  w.setup_once = [&] {
    double total = 0;
    for (const GwPinned& pin : kGwTestPinned) {
      ir::Context ctx;
      const Clock::time_point t0 = Clock::now();
      apps::AppBundle app = make_gw(ctx, pin.level, kGwTestEips, opts.seed);
      sim::Device device(sim::compile(app.dp, app.rules, ctx), ctx);
      driver::Meissa meissa(ctx, app.dp, app.rules, topts);
      total += seconds_since(t0);
    }
    return total;
  };
  w.traced_pass = [&](SpanRecorder& rec, TracedPass& tp) {
    double total = 0;
    for (size_t k = 0; k < std::size(kGwTestPinned); ++k) {
      const GwPinned& pin = kGwTestPinned[k];
      // Declared before the unit span opens, so that signing the
      // templates and tearing down fall outside it.
      ir::Context ctx;
      std::optional<apps::AppBundle> app;
      std::optional<sim::Device> device;
      LayeredGen g;
      std::optional<Scope> unit;
      unit.emplace(rec, util::format("gw-%d", pin.level), true);
      {
        Scope s(rec, "apps");
        app = make_gw(ctx, pin.level, kGwTestEips, opts.seed);
      }
      {
        Scope s(rec, "sim.compile");
        device.emplace(sim::compile(app->dp, app->rules, ctx), ctx);
      }
      layered_build(rec, ctx, *app, g, tp.counts);
      const double t1 = rec.now();
      layered_generate(rec, ctx, kGwTestThreads, {}, g, tp.counts);
      const Verdicts v = layered_test(rec, ctx, app->dp, g, *device,
                                      app->intents, opts.seed, tp.counts);
      total += rec.now() - t1;
      tp.covered_s += rec.covered_since(t1);
      tp.counts["ir.fields_interned"] += static_cast<double>(ctx.fields.size());
      unit.reset();
      r.attempted += v.cases;
      r.failed += v.failed;
      if (v != refs[k].verdicts ||
          signatures(ctx, g.graph(), g.templates) != refs[k].sigs) {
        ++r.failed;
        fail(r, util::format("gw-%d: traced run differs from Meissa::test",
                             pin.level));
      }
    }
    tp.result_s.push_back(total);
  };
  drive(opts, w, r);
  return r;
}

// -------------------------------------------------------------- gw-gen
//
// Generation only (no device) on gw-4 at set-4 size, one thread: the
// paper's scalability axis.

constexpr int kGenEips = 32;
constexpr uint64_t kGenTemplates = 2487;

Result run_gw_gen(const Options& opts) {
  Result r;
  driver::GenOptions gopts;
  gopts.threads = 1;
  Reference ref;

  auto check = [&](uint64_t templates) {
    ++r.attempted;
    if (templates != kGenTemplates) {
      ++r.failed;
      fail(r, util::format("gw-4/set-4: %llu templates, pinned %llu",
                           static_cast<unsigned long long>(templates),
                           static_cast<unsigned long long>(kGenTemplates)));
    }
  };
  Workload w;
  w.pass = [&](std::vector<double>& result, bool keep_refs) {
    ir::Context ctx;
    apps::AppBundle app = make_gw(ctx, 4, kGenEips, opts.seed);
    driver::Generator gen(ctx, app.dp, app.rules, gopts);
    const Clock::time_point t1 = Clock::now();
    std::vector<sym::TestCaseTemplate> ts = gen.generate();
    result.push_back(seconds_since(t1));
    check(ts.size());
    if (keep_refs) ref.sigs = signatures(ctx, gen.graph(), ts);
  };
  w.setup_once = [&] {
    ir::Context ctx;
    const Clock::time_point t0 = Clock::now();
    apps::AppBundle app = make_gw(ctx, 4, kGenEips, opts.seed);
    driver::Generator gen(ctx, app.dp, app.rules, gopts);
    return seconds_since(t0);
  };
  w.traced_pass = [&](SpanRecorder& rec, TracedPass& tp) {
    ir::Context ctx;
    std::optional<apps::AppBundle> app;
    LayeredGen g;
    std::optional<Scope> unit;
    unit.emplace(rec, "gw-4/set-4", true);
    {
      Scope s(rec, "apps");
      app = make_gw(ctx, 4, kGenEips, opts.seed);
    }
    layered_build(rec, ctx, *app, g, tp.counts);
    const double t1 = rec.now();
    layered_generate(rec, ctx, 1, {}, g, tp.counts);
    tp.result_s.push_back(rec.now() - t1);
    tp.covered_s += rec.covered_since(t1);
    tp.counts["ir.fields_interned"] += static_cast<double>(ctx.fields.size());
    unit.reset();
    check(g.templates.size());
    if (signatures(ctx, g.graph(), g.templates) != ref.sigs) {
      ++r.failed;
      fail(r, "gw-4/set-4: traced templates differ from Generator's");
    }
  };
  drive(opts, w, r);
  return r;
}

// ----------------------------------------------------------- gw-retest
//
// Incremental re-testing of gw-4 at eight elastic IPs under a seeded
// churn of single-entry rule updates, one thread.

constexpr int kRetestEips = 8;

// Seeded rule churn over a base rule set: even steps remove a random entry
// of the next table in a seeded cyclic order of all tables, odd steps put
// it back (a rollback). The rule set never drifts more than one entry from
// the base, so the seed varies which entries churn but not how large the
// rule set, and with it each update's cost, gets.
class Churn {
 public:
  Churn(const p4::RuleSet& base, uint64_t seed) : base_(base), rng_(seed) {
    for (const p4::TableEntry& e : base.entries) {
      if (std::find(tables_.begin(), tables_.end(), e.table) == tables_.end()) {
        tables_.push_back(e.table);
      }
    }
    for (size_t i = tables_.size(); i > 1; --i) {
      std::swap(tables_[i - 1], tables_[rng_.below(i)]);
    }
  }

  size_t tables() const { return tables_.size(); }

  p4::RuleSet next() {
    p4::RuleSet rules = base_;
    if (removed_) {
      removed_.reset();
      return rules;
    }
    const std::string& table = tables_[step_++ % tables_.size()];
    std::vector<size_t> candidates;
    for (size_t i = 0; i < base_.entries.size(); ++i) {
      if (base_.entries[i].table == table) candidates.push_back(i);
    }
    removed_ = candidates[rng_.below(candidates.size())];
    rules.entries.erase(rules.entries.begin() +
                        static_cast<std::ptrdiff_t>(*removed_));
    return rules;
  }

 private:
  const p4::RuleSet& base_;
  util::Rng rng_;
  std::vector<std::string> tables_;
  size_t step_ = 0;
  std::optional<size_t> removed_;
};

void count_update(const driver::UpdateReport& u, Counters& c) {
  c["impact.regions_dirty"] += static_cast<double>(u.impact.dirty.size());
  c["impact.regions_clean"] += static_cast<double>(u.impact.clean.size());
  c["incremental.summaries_reused"] += static_cast<double>(u.summaries_reused);
  c["incremental.backend_checks"] += static_cast<double>(u.smt_checks);
  c["incremental.pc_cache_hits"] += static_cast<double>(u.pc_cache_hits);
  c["incremental.templates_added"] += static_cast<double>(u.added);
  c["incremental.templates_removed"] += static_cast<double>(u.removed);
  c["sym.templates"] += static_cast<double>(u.templates.size());
  const sym::EngineStats& st = u.stats.engine;
  c["sym.nodes_visited"] += static_cast<double>(st.nodes_visited);
  c["sym.backend_checks"] += static_cast<double>(st.solver.checks);
  c["sym.sat_calls"] += static_cast<double>(st.solver.sat_calls);
  c["sym.fast_path_hits"] += static_cast<double>(st.solver.fast_path_hits);
  c["sym.fast_path_skipped"] += static_cast<double>(st.solver.fast_path_skipped);
  c["sym.static_prunes"] += static_cast<double>(st.static_prunes);
  c["sym.pc_cache_hits"] += static_cast<double>(st.pc_cache_hits);
  c["sym.pc_cache_misses"] += static_cast<double>(st.pc_cache_misses);
  c["sym.pc_model_reuse"] += static_cast<double>(st.pc_model_reuse);
  // Replayed regions report their stored solver counts; only the regions
  // explored in this run paid theirs.
  for (size_t i = 0; i < u.stats.pipelines.size(); ++i) {
    if (i < u.regions.size() && u.regions[i].reused) continue;
    const summary::PipelineSummary& p = u.stats.pipelines[i];
    c["summary.smt_checks"] += static_cast<double>(p.smt_checks);
    c["summary.smt_skipped"] += static_cast<double>(p.smt_skipped);
    c["summary.paths_after"] += static_cast<double>(p.paths_after);
  }
}

Result run_gw_retest(const Options& opts) {
  Result r;
  driver::IncrementalOptions iopts;
  iopts.gen.threads = 1;

  // Outside the timed region: the last update's templates must be
  // byte-identical to a from-scratch generation of the final rule set.
  auto check_final = [&](const p4::RuleSet& rules,
                         const driver::UpdateReport& last) {
    ir::Context ctx;
    apps::AppBundle app = make_gw(ctx, 4, kRetestEips, opts.seed);
    driver::Generator gen(ctx, app.dp, rules, iopts.gen);
    std::vector<std::string> sigs = signatures(ctx, gen.graph(), gen.generate());
    std::sort(sigs.begin(), sigs.end());
    if (sigs != last.full_sigs) {
      ++r.failed;
      fail(r, "gw-retest: final update differs from a from-scratch "
              "generation");
    }
  };

  // One session: set-up (app + baseline run, which fills the verdict
  // cache), then the churn. `on_update` gets each update's time measured
  // around the call and the part of it the layer spans cover.
  using OnUpdate = std::function<void(double, double)>;
  auto session = [&](SpanRecorder& rec, const OnUpdate& on_update,
                     Counters* c) {
    ir::Context ctx;
    std::optional<apps::AppBundle> app;
    std::optional<driver::IncrementalSession> s;
    {
      Scope unit(rec, "baseline", true);
      {
        Scope a(rec, "apps");
        app = make_gw(ctx, 4, kRetestEips, opts.seed);
      }
      Scope i(rec, "driver.incremental");
      s.emplace(ctx, app->dp, iopts);
      s->run(app->rules);
    }
    const double base_fields = static_cast<double>(ctx.fields.size());
    // One remove-and-restore pair per table.
    Churn churn(app->rules, opts.seed);
    const size_t updates = 2 * churn.tables();
    p4::RuleSet rules;
    driver::UpdateReport last;
    for (size_t u = 0; u < updates; ++u) {
      rules = churn.next();
      Scope unit(rec, util::format("update %zu", u + 1), true);
      const double t0 = rec.now();
      const Clock::time_point t1 = Clock::now();
      {
        Scope i(rec, "driver.incremental");
        last = s->run(rules);
      }
      on_update(seconds_since(t1), rec.covered_since(t0));
      ++r.attempted;
      if (c != nullptr) count_update(last, *c);
    }
    if (c != nullptr) {
      (*c)["ir.fields_interned"] = static_cast<double>(ctx.fields.size());
      (*c)["ir.fields_interned_growth"] =
          static_cast<double>(ctx.fields.size()) - base_fields;
    }
    check_final(rules, last);
  };

  SpanRecorder off(false);
  Workload w;
  // A baseline run warms up; a whole session would cost several seconds.
  w.warm_up = [&] { (void)w.setup_once(); };
  w.pass = [&](std::vector<double>& result, bool) {
    session(off, [&](double s, double) { result.push_back(s); }, nullptr);
  };
  w.setup_once = [&] {
    ir::Context ctx;
    const Clock::time_point t0 = Clock::now();
    apps::AppBundle app = make_gw(ctx, 4, kRetestEips, opts.seed);
    driver::IncrementalSession s(ctx, app.dp, iopts);
    s.run(app.rules);
    return seconds_since(t0);
  };
  std::vector<double> traced_updates;
  w.traced_pass = [&](SpanRecorder& rec, TracedPass& tp) {
    session(rec, [&](double s, double covered) {
      tp.result_s.push_back(s);
      tp.covered_s += covered;
      traced_updates.push_back(s);
    }, &tp.counts);
  };
  drive(opts, w, r);
  if (opts.trace) {
    r.metrics.push_back(
        {"incremental.update_tail_s", tail_ten_beyond(traced_updates), "s"});
  }
  return r;
}

// ---------------------------------------------------------------- bugs
//
// The 16 Table-2 scenarios under the paper's §6 workflow, one thread: a
// full run, then one assumes-scoped run per intent until detection.

constexpr int kBugThreads = 1;

Result run_bugs(const Options& opts) {
  Result r;
  // Per scenario: templates and verdicts of each run, in order.
  std::vector<std::vector<Reference>> refs(apps::kNumBugs + 1);

  auto check = [&](int index, bool detected) {
    ++r.attempted;
    if (detected != apps::paper_matrix(index)[0]) {
      ++r.failed;
      fail(r, util::format("bug %d: detected=%d, Table 2 expects %d", index,
                           detected, apps::paper_matrix(index)[0]));
    }
  };
  auto run_opts = [&](const std::vector<ir::ExprRef>& assumes) {
    driver::TestRunOptions o;
    o.seed = opts.seed;
    o.gen.threads = kBugThreads;
    o.gen.assumes = assumes;
    return o;
  };

  Workload w;
  w.pass = [&](std::vector<double>& result, bool keep_refs) {
    double total = 0;
    for (int i = 1; i <= apps::kNumBugs; ++i) {
      ir::Context ctx;
      apps::BugScenario bug = apps::make_bug(ctx, i);
      const p4::DataPlane& dp = bug.bundle.dp;
      sim::Device device(sim::compile(dp, bug.bundle.rules, ctx, bug.fault),
                         ctx);
      std::optional<driver::Meissa> m;
      m.emplace(ctx, dp, bug.bundle.rules, run_opts({}));
      const Clock::time_point t1 = Clock::now();
      auto record = [&](driver::Meissa& mm, const driver::TestReport& rep) {
        if (keep_refs) {
          refs[i].push_back(
              {signatures(ctx, mm.graph(), mm.generate()), verdicts_of(rep)});
        }
      };
      if (keep_refs) refs[i].clear();
      driver::TestReport rep = m->test(device, bug.bundle.intents);
      record(*m, rep);
      bool detected = rep.failed > 0;
      for (const spec::Intent& intent : bug.bundle.intents) {
        if (detected) break;
        m.emplace(ctx, dp, bug.bundle.rules, run_opts(intent.assumes));
        driver::TestReport sub = m->test(device, {intent});
        record(*m, sub);
        detected = sub.failed > 0;
      }
      total += seconds_since(t1);
      check(i, detected);
    }
    result.push_back(total);
  };
  w.setup_once = [&] {
    double total = 0;
    for (int i = 1; i <= apps::kNumBugs; ++i) {
      ir::Context ctx;
      const Clock::time_point t0 = Clock::now();
      apps::BugScenario bug = apps::make_bug(ctx, i);
      sim::Device device(
          sim::compile(bug.bundle.dp, bug.bundle.rules, ctx, bug.fault), ctx);
      driver::Meissa m(ctx, bug.bundle.dp, bug.bundle.rules, run_opts({}));
      total += seconds_since(t0);
    }
    return total;
  };
  w.traced_pass = [&](SpanRecorder& rec, TracedPass& tp) {
    double total = 0;
    for (int i = 1; i <= apps::kNumBugs; ++i) {
      ir::Context ctx;
      std::optional<apps::BugScenario> bug;
      std::optional<sim::Device> device;
      // Every run's generation stays alive until the verdict time is
      // taken, so that signing its templates happens outside that time.
      std::vector<std::unique_ptr<LayeredGen>> gens;
      std::vector<Verdicts> verdicts;
      std::vector<Reference> got;
      std::optional<Scope> unit;
      unit.emplace(rec, util::format("bug %d", i), true);
      {
        Scope s(rec, "apps");
        bug = apps::make_bug(ctx, i);
      }
      const p4::DataPlane& dp = bug->bundle.dp;
      {
        Scope s(rec, "sim.compile");
        device.emplace(sim::compile(dp, bug->bundle.rules, ctx, bug->fault),
                       ctx);
      }
      auto run_once = [&](const std::vector<ir::ExprRef>& assumes,
                          const std::vector<spec::Intent>& intents) {
        LayeredGen& g = *gens.back();
        layered_generate(rec, ctx, kBugThreads, assumes, g, tp.counts);
        verdicts.push_back(layered_test(rec, ctx, dp, g, *device, intents,
                                        opts.seed, tp.counts));
        return verdicts.back().failed > 0;
      };
      // The first CFG build is set-up; everything after it is the verdict.
      gens.push_back(std::make_unique<LayeredGen>());
      layered_build(rec, ctx, bug->bundle, *gens.back(), tp.counts);
      const double t1 = rec.now();
      bool detected = run_once({}, bug->bundle.intents);
      for (const spec::Intent& intent : bug->bundle.intents) {
        if (detected) break;
        gens.push_back(std::make_unique<LayeredGen>());
        layered_build(rec, ctx, bug->bundle, *gens.back(), tp.counts);
        detected = run_once(intent.assumes, {intent});
      }
      total += rec.now() - t1;
      tp.covered_s += rec.covered_since(t1);
      tp.counts["ir.fields_interned"] += static_cast<double>(ctx.fields.size());
      unit.reset();
      for (size_t k = 0; k < gens.size(); ++k) {
        got.push_back({signatures(ctx, gens[k]->graph(), gens[k]->templates),
                       verdicts[k]});
      }
      check(i, detected);
      if (got.size() != refs[i].size()) {
        ++r.failed;
        fail(r, util::format("bug %d: traced run differs from Meissa::test",
                             i));
        continue;
      }
      for (size_t k = 0; k < got.size(); ++k) {
        if (got[k].verdicts != refs[i][k].verdicts ||
            got[k].sigs != refs[i][k].sigs) {
          ++r.failed;
          fail(r, util::format("bug %d: traced run differs from Meissa::test",
                               i));
          break;
        }
      }
    }
    tp.result_s.push_back(total);
  };
  drive(opts, w, r);
  return r;
}

}  // namespace

Result run_workload(const Options& opts) {
  if (opts.workload == "gw-test") return run_gw_test(opts);
  if (opts.workload == "gw-gen") return run_gw_gen(opts);
  if (opts.workload == "gw-retest") return run_gw_retest(opts);
  if (opts.workload == "bugs") return run_bugs(opts);
  Result r;
  fail(r, "unknown workload " + opts.workload);
  return r;
}

}  // namespace perfbench
