#include <chrono>

#include "baselines/baseline.hpp"

namespace meissa::baselines {

BaselineResult run_gauntlet(ir::Context& ctx, const p4::DataPlane& dp,
                            const p4::RuleSet& rules, sim::Device* device,
                            const GauntletOptions& opts) {
  BaselineResult r;
  if (dp.topology.instances.size() > 1 || dp.topology.num_switches() > 1) {
    r.supported = false;
    r.unsupported_reason =
        "model-based mode translates single-pipeline programs only";
    return r;
  }
  if (!dp.program.registers.empty()) {
    r.supported = false;
    r.unsupported_reason =
        "production features (registers/stateful externs) not translated";
    return r;
  }

  auto t0 = std::chrono::steady_clock::now();
  driver::GenOptions gen;
  gen.code_summary = false;
  gen.early_termination = false;  // every complete path checked at the leaf
  gen.static_pruning = false;  // baseline: every query reaches the solver
  gen.build.elide_disjoint_negations = false;  // standard encoding
  gen.time_budget_seconds = opts.time_budget_seconds;
  driver::Generator generator(ctx, dp, rules, gen);
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
      driver::CheckResult cr =
          driver::check_case(ctx, dp.program, *tc, out, {});
      ++r.cases;
      // Compiled-vs-source differential only (no specification).
      if (!cr.model_problems.empty()) ++r.failures;
    }
  }
  r.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return r;
}

}  // namespace meissa::baselines
