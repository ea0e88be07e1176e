#include "driver/report.hpp"

#include <sstream>

#include "obs/metrics.hpp"
#include "util/strings.hpp"

namespace meissa::driver {

std::string TestReport::str() const {
  std::ostringstream os;
  os << "test report: " << passed << "/" << cases << " cases passed ("
     << templates << " templates";
  if (removed_by_hash > 0) {
    os << ", " << removed_by_hash << " removed by hash filtering";
  }
  os << ")\n";
  os << "  generation: " << util::format("%.3fs", gen.total_seconds) << " ("
     << gen.smt_checks << " SMT calls";
  if (gen.smt_calls_skipped > 0) {
    os << ", " << gen.smt_calls_skipped << " skipped by static analysis";
  }
  os << ")\n";
  if (gen.engine.pc_cache_hits > 0 || gen.engine.pc_cache_misses > 0) {
    os << "  solver cache: " << gen.engine.pc_cache_hits << " hit(s), "
       << gen.engine.pc_cache_misses << " miss(es)";
    if (gen.engine.pc_model_reuse > 0) {
      os << ", " << gen.engine.pc_model_reuse << " model reuse(s)";
    }
    if (gen.engine.solver.fast_path_skipped > 0) {
      os << ", " << gen.engine.solver.fast_path_skipped
         << " fast-path skip(s) (portfolio)";
    }
    os << "\n";
  }
  if (gen.engine.degraded_paths > 0) {
    os << "  coverage: " << gen.engine.valid_paths << " exact + "
       << gen.engine.degraded_paths << " degraded path(s) ("
       << gen.engine.solver.unknowns << " budget-exhausted SMT check(s))\n";
  }
  if (gen.engine.requeued_shards > 0 || gen.engine.degraded_shards > 0) {
    os << "  supervision: " << gen.engine.requeued_shards
       << " shard(s) re-queued, " << gen.engine.degraded_shards
       << " degraded (subtree coverage unknown)\n";
  }
  if (gen.resumed || gen.checkpoint_writes > 0 ||
      gen.checkpoint_failures > 0) {
    os << "  crash safety: " << gen.checkpoint_writes
       << " checkpoint(s) written, " << gen.checkpoint_failures
       << " failed";
    if (gen.resumed) {
      os << "; resumed (" << gen.resumed_pipelines << " pipeline(s), "
         << gen.engine.resumed_shards << " shard(s) restored)";
    }
    os << "\n";
  }
  if (gen.diagnostics > 0) {
    os << "  static analysis: " << gen.diagnostics << " diagnostic(s)\n";
  }
  if (gen.validate_obligations > 0) {
    os << "  summary validation: " << gen.validate_obligations
       << " obligation(s): " << gen.validate_unsat << " unsat, "
       << gen.validate_unproven << " unproven, " << gen.validate_refuted
       << " refuted ("
       << util::format("%.3fs", gen.validate_seconds) << ")\n";
  }
  if (send_retries > 0 || install_retries > 0 || !quarantined.empty()) {
    os << "  link robustness: " << send_retries << " resend(s), "
       << install_retries << " install retry(ies), " << dedup_dropped
       << " deduped, " << corruption_detected << " corrupted, "
       << quarantined.size() << " quarantined\n";
  }
  for (const CaseRecord& f : failures) {
    os << "  FAIL template #" << f.template_id << " case #" << f.case_id
       << "\n";
    for (const std::string& p : f.model_problems) {
      os << "    [model] " << p << "\n";
    }
    for (const std::string& p : f.intent_problems) {
      os << "    [intent] " << p << "\n";
    }
  }
  return os.str();
}

std::string TestReport::to_json() const {
  std::ostringstream os;
  os << "{";
  os << "\"templates\":" << templates;
  os << ",\"cases\":" << cases;
  os << ",\"passed\":" << passed;
  os << ",\"failed\":" << failed;
  os << ",\"removed_by_hash\":" << removed_by_hash;
  os << ",\"hash_repair_attempts\":" << hash_repair_attempts;
  os << ",\"exact_paths\":" << gen.engine.valid_paths;
  os << ",\"degraded_paths\":" << gen.engine.degraded_paths;
  os << ",\"smt_unknowns\":" << gen.engine.solver.unknowns;
  os << ",\"pc_cache_hits\":" << gen.engine.pc_cache_hits;
  os << ",\"pc_cache_misses\":" << gen.engine.pc_cache_misses;
  os << ",\"pc_model_reuse\":" << gen.engine.pc_model_reuse;
  os << ",\"fast_path_skipped\":" << gen.engine.solver.fast_path_skipped;
  os << ",\"validate_obligations\":" << gen.validate_obligations;
  os << ",\"validate_unsat\":" << gen.validate_unsat;
  os << ",\"validate_unproven\":" << gen.validate_unproven;
  os << ",\"validate_refuted\":" << gen.validate_refuted;
  os << ",\"requeued_shards\":" << gen.engine.requeued_shards;
  os << ",\"degraded_shards\":" << gen.engine.degraded_shards;
  os << ",\"resumed_shards\":" << gen.engine.resumed_shards;
  os << ",\"resumed\":" << (gen.resumed ? "true" : "false");
  os << ",\"resumed_pipelines\":" << gen.resumed_pipelines;
  os << ",\"checkpoint_writes\":" << gen.checkpoint_writes;
  os << ",\"checkpoint_failures\":" << gen.checkpoint_failures;
  os << ",\"send_retries\":" << send_retries;
  os << ",\"install_retries\":" << install_retries;
  os << ",\"dedup_dropped\":" << dedup_dropped;
  os << ",\"corruption_detected\":" << corruption_detected;
  os << ",\"backoff_units\":" << backoff_units;
  os << ",\"quarantined\":[";
  for (size_t i = 0; i < quarantined.size(); ++i) {
    if (i > 0) os << ",";
    os << quarantined[i];
  }
  os << "]";
  os << ",\"link\":{";
  os << "\"frames_sent\":" << link.frames_sent;
  os << ",\"dropped\":" << link.dropped;
  os << ",\"duplicated\":" << link.duplicated;
  os << ",\"reordered\":" << link.reordered;
  os << ",\"corrupted\":" << link.corrupted;
  os << ",\"install_failures\":" << link.install_failures;
  os << "}";
  // Failure details carry arbitrary strings (trace lines include action and
  // field names from the program under test), so every one goes through
  // json_escape — a table named `a"b` must not produce invalid JSON.
  os << ",\"failures\":[";
  for (size_t i = 0; i < failures.size(); ++i) {
    const CaseRecord& f = failures[i];
    if (i > 0) os << ",";
    os << "{\"template_id\":" << f.template_id;
    os << ",\"case_id\":" << f.case_id;
    os << ",\"pass\":" << (f.pass ? "true" : "false");
    os << ",\"model_problems\":[";
    for (size_t j = 0; j < f.model_problems.size(); ++j) {
      if (j > 0) os << ",";
      os << "\"" << util::json_escape(f.model_problems[j]) << "\"";
    }
    os << "],\"intent_problems\":[";
    for (size_t j = 0; j < f.intent_problems.size(); ++j) {
      if (j > 0) os << ",";
      os << "\"" << util::json_escape(f.intent_problems[j]) << "\"";
    }
    os << "],\"symbolic_trace\":\"" << util::json_escape(f.symbolic_trace)
       << "\"";
    os << ",\"physical_trace\":[";
    for (size_t j = 0; j < f.physical_trace.size(); ++j) {
      if (j > 0) os << ",";
      os << "\"" << util::json_escape(f.physical_trace[j]) << "\"";
    }
    os << "]}";
  }
  os << "]";
  if (obs::metrics_enabled()) {
    // Fold the metrics snapshot in so one file answers "what happened and
    // where did the time go". Key order stays stable: the registry sorts
    // by metric name. The snapshot renders as {"metrics":[...]}.
    os << ",\"observability\":" << obs::metrics().to_json();
  }
  os << "}";
  return os.str();
}

std::string symbolic_trace(const ir::Context& ctx, const cfg::Cfg& g,
                           const cfg::Path& path,
                           const ir::ConcreteState& input, size_t max_lines) {
  std::ostringstream os;
  ir::DenseState s;
  s.reset(ctx.fields.size(), ctx.fields.size());
  s.load(input);
  size_t lines = 0;
  for (cfg::NodeId id : path) {
    if (lines >= max_lines) {
      os << "  ... (truncated)\n";
      break;
    }
    const cfg::Node& n = g.node(id);
    if (n.is_hash) {
      // A hash node fails before writing, so `s` is unchanged on failure.
      os << "  hash -> " << ctx.fields.name(n.hash.dest);
      if (cfg::eval_path(g, {id}, s, ctx)) {
        os << " = " << util::hex(s.get(n.hash.dest));
      } else {
        os << " (unevaluable)";
      }
      os << "\n";
      ++lines;
      continue;
    }
    switch (n.stmt.kind) {
      case ir::StmtKind::kNop:
        break;
      case ir::StmtKind::kAssign: {
        auto v = ir::eval(n.stmt.expr, s);
        os << "  " << ctx.fields.name(n.stmt.target) << " <- "
           << ir::to_string(n.stmt.expr, ctx.fields);
        if (v) {
          os << "  [= " << util::hex(*v) << "]";
          s.set(n.stmt.target, *v);
        }
        os << "\n";
        ++lines;
        break;
      }
      case ir::StmtKind::kAssume: {
        auto v = ir::eval(n.stmt.expr, s);
        os << "  assume " << ir::to_string(n.stmt.expr, ctx.fields) << "  [=> "
           << (v ? (*v ? "true" : "FALSE") : "?") << "]\n";
        ++lines;
        break;
      }
    }
  }
  return os.str();
}

}  // namespace meissa::driver
