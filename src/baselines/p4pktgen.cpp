#include <chrono>

#include "baselines/baseline.hpp"

namespace meissa::baselines {

BaselineResult run_p4pktgen(ir::Context& ctx, const p4::DataPlane& dp,
                            const p4::RuleSet& rules, sim::Device* device,
                            const P4pktgenOptions& opts) {
  BaselineResult r;
  if (dp.topology.instances.size() > 1) {
    r.supported = false;
    r.unsupported_reason = "multi-pipeline programs not supported";
    return r;
  }
  if (dp.topology.num_switches() > 1) {
    r.supported = false;
    r.unsupported_reason = "multi-switch programs not supported";
    return r;
  }
  if (!dp.program.registers.empty()) {
    r.supported = false;
    r.unsupported_reason = "production features (registers) not supported";
    return r;
  }

  auto t0 = std::chrono::steady_clock::now();
  // p4pktgen "does not test table rules": it explores default behaviour
  // only, so the provided rule set is ignored.
  p4::RuleSet no_rules;
  no_rules.name = "p4pktgen-default";
  (void)rules;
  driver::GenOptions gen;
  gen.threads = 1;  // the modelled tool explores on one thread
  gen.code_summary = false;
  gen.incremental = false;  // fresh solver per satisfiability query
  gen.static_pruning = false;  // baseline: every query reaches the solver
  gen.build.elide_disjoint_negations = false;  // standard encoding
  gen.time_budget_seconds = opts.time_budget_seconds;
  if (opts.action_cover) {
    gen.build.table_mode = cfg::BuildOptions::TableMode::kActionCover;
  }
  driver::Generator generator(ctx, dp, no_rules, gen);
  std::vector<sym::TestCaseTemplate> templates = generator.generate();
  r.templates = templates.size();
  r.smt_checks = generator.stats().smt_checks;
  r.timed_out = generator.stats().engine.timed_out;
  // Static findings (invalid-header reads) count as detections.
  r.failures += generator.stats().diagnostics;

  if (device != nullptr && !r.timed_out) {
    driver::Sender sender(ctx, dp, generator.graph());
    for (const sym::TestCaseTemplate& t : templates) {
      auto tc = sender.concretize(t, generator.engine());
      if (!tc) continue;
      device->set_registers(tc->registers);
      sim::DeviceOutput out = device->inject(tc->input);
      // No spec: only model-vs-device comparison.
      driver::CheckResult cr =
          driver::check_case(ctx, dp.program, *tc, out, {});
      ++r.cases;
      if (!cr.model_problems.empty()) ++r.failures;
    }
  }
  r.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return r;
}

}  // namespace meissa::baselines
