#include "driver/incremental.hpp"

#include <algorithm>
#include <string>
#include <unordered_set>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace meissa::driver {

namespace {

const std::string& instance_name(const cfg::Cfg& g, int idx,
                                 const std::string& fallback) {
  if (idx < 0 || static_cast<size_t>(idx) >= g.instances().size()) {
    return fallback;
  }
  return g.instances()[idx].name;
}

}  // namespace

std::string IncrementalSession::coverage_signature(
    const ir::Context& ctx, const cfg::Cfg& g,
    const sym::TestCaseTemplate& t) {
  static const std::string kNone = "-";
  std::string s;
  s += t.exit == cfg::ExitKind::kEmit   ? "emit"
       : t.exit == cfg::ExitKind::kDrop ? "drop"
                                        : "none";
  s += '|';
  s += instance_name(g, t.entry_instance, kNone);
  s += '|';
  s += instance_name(g, t.emit_instance, kNone);
  s += '|';
  if (t.path_condition != nullptr) {
    s += ir::to_string(t.path_condition, ctx.fields);
  }
  for (const auto& [f, v] : sym::by_name(t.values, ctx.fields)) {
    s += '|';
    s += ctx.fields.name(f);
    s += '=';
    s += ir::to_string(v, ctx.fields);
  }
  for (const sym::HashObligation& o : t.obligations) {
    s += "|#";
    if (o.placeholder != ir::kInvalidField) {
      s += ctx.fields.name(o.placeholder);
    }
    for (ir::ExprRef k : o.key_exprs) {
      s += ',';
      s += ir::to_string(k, ctx.fields);
    }
  }
  return s;
}

namespace {

// full_signature from the template's rendered coverage signature.
std::string append_path(std::string sig, const sym::TestCaseTemplate& t) {
  sig += "|path:";
  for (cfg::NodeId n : t.path) {
    sig += std::to_string(n);
    sig += ',';
  }
  return sig;
}

}  // namespace

std::string IncrementalSession::full_signature(const ir::Context& ctx,
                                               const cfg::Cfg& g,
                                               const sym::TestCaseTemplate& t) {
  return append_path(coverage_signature(ctx, g, t), t);
}

IncrementalSession::IncrementalSession(ir::Context& ctx,
                                       const p4::DataPlane& dp,
                                       IncrementalOptions opts)
    : ctx_(ctx), dp_(dp), opts_(std::move(opts)) {
  util::check(opts_.gen.code_summary,
              "incremental: code_summary is the reuse grain and must be on");
  util::check(opts_.gen.checkpoint_dir.empty(),
              "incremental: checkpoint_dir displaces the session's summary "
              "hooks; use one or the other");
}

UpdateReport IncrementalSession::run(const p4::RuleSet& rules) {
  UpdateReport report;
  report.run = runs_;
  obs::Span span("incremental.update", "incremental");
  span.arg("run", runs_);

  // The session's own summary hooks: capture every unit (for the next
  // run's replay) and hand the previous run's clean units back as resume
  // input. Valid only because checkpoint_dir is empty — the generator
  // installs its own hooks otherwise.
  std::unordered_map<std::string, summary::SummaryUnit> captured;
  summary::SummaryHooks hooks;
  hooks.on_unit = [&](size_t, const summary::SummaryUnit& u) {
    captured[u.instance] = u;
  };
  GenOptions gopts = opts_.gen;
  gopts.summary.hooks = &hooks;
  gopts.shared_pc_cache = &cache_;

  Generator gen(ctx_, dp_, rules, gopts);

  // Change impact: fingerprint + def-use model of the current build,
  // diffed against the previous run's.
  analysis::ImpactModel model =
      analysis::build_impact_model(ctx_, gen.original_graph(), rules);
  if (opts_.mutate_model) opts_.mutate_model(model);
  std::unordered_map<std::string, summary::SummaryUnit> resume_units;
  if (model_.has_value()) {
    report.impact = analysis::compute_impact(*model_, model);
    for (const std::string& name : report.impact.clean) {
      auto it = units_.find(name);
      if (it != units_.end()) resume_units.emplace(name, it->second);
    }
  } else {
    // Baseline: everything dirty, nothing to reuse.
    report.impact.full = true;
    report.impact.dirty = model.fps.instances;
  }
  if (!resume_units.empty()) hooks.resume = &resume_units;

  report.templates = gen.generate();
  report.stats = gen.stats();
  report.summaries_reused = report.stats.resumed_pipelines;
  // The summary reports a replayed unit's *stored* solver counts (so the
  // per-pipeline table stays meaningful); those checks were never paid
  // this run and must not count against the update.
  uint64_t replayed_checks = 0;
  {
    std::unordered_set<std::string> reused;
    for (const auto& [name, u] : resume_units) reused.insert(name);
    for (const summary::PipelineSummary& p : report.stats.pipelines) {
      if (reused.count(p.instance) != 0) replayed_checks += p.smt_checks;
    }
  }
  report.smt_checks = report.stats.smt_checks >= replayed_checks
                          ? report.stats.smt_checks - replayed_checks
                          : 0;
  // The cross-run cache answers the summary engines' checks as well as
  // the final DFS's; a replayed unit reports none.
  report.pc_cache_hits = report.stats.engine.pc_cache_hits;
  for (const summary::PipelineSummary& p : report.stats.pipelines) {
    report.pc_cache_hits += p.pc_cache_hits;
  }
  report.seconds = report.stats.total_seconds;

  // Delta coverage: sorted-multiset diff of semantic signatures against
  // the previous run.
  std::vector<std::string> sigs;
  sigs.reserve(report.templates.size());
  report.full_sigs.reserve(report.templates.size());
  for (const sym::TestCaseTemplate& t : report.templates) {
    sigs.push_back(coverage_signature(ctx_, gen.graph(), t));
    report.full_sigs.push_back(append_path(sigs.back(), t));
  }
  std::sort(sigs.begin(), sigs.end());
  std::sort(report.full_sigs.begin(), report.full_sigs.end());
  {
    size_t i = 0;
    size_t j = 0;
    while (i < sigs.size() && j < prev_sigs_.size()) {
      if (sigs[i] == prev_sigs_[j]) {
        ++report.unchanged;
        ++i;
        ++j;
      } else if (sigs[i] < prev_sigs_[j]) {
        ++report.added;
        ++i;
      } else {
        ++report.removed;
        ++j;
      }
    }
    report.added += sigs.size() - i;
    report.removed += prev_sigs_.size() - j;
  }

  // Per-region path counts, replay-flagged. Clean regions' counts come
  // from the replayed unit — the summary reports them either way.
  {
    std::unordered_set<std::string> reused;
    for (const auto& [name, u] : resume_units) reused.insert(name);
    for (const summary::PipelineSummary& p : report.stats.pipelines) {
      report.regions.push_back(
          {p.instance, p.paths_after, reused.count(p.instance) != 0});
    }
  }

  if (obs::metrics_enabled()) {
    obs::metrics()
        .counter("impact.regions_dirty")
        .add(report.impact.dirty.size());
    obs::metrics()
        .counter("impact.regions_clean")
        .add(report.impact.clean.size());
    obs::metrics()
        .counter("impact.summaries_reused")
        .add(report.summaries_reused);
  }
  span.arg("dirty", report.impact.dirty.size());
  span.arg("clean", report.impact.clean.size());
  span.arg("reused", report.summaries_reused);
  span.arg("added", report.added);
  span.arg("removed", report.removed);

  units_ = std::move(captured);
  model_ = std::move(model);
  report.coverage_sigs = sigs;
  prev_sigs_ = std::move(sigs);
  ++runs_;
  return report;
}

}  // namespace meissa::driver
