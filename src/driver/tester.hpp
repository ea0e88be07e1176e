// The Meissa facade: end-to-end testing of a data plane against a device.
// Wires together generation (CFG, code summary, DFS), the sender, the
// device under test, and the checker, producing a TestReport (Fig. 2).
#pragma once

#include "driver/report.hpp"

namespace meissa::driver {

struct TestRunOptions {
  GenOptions gen;
  // Keys the flaky-link retry backoff jitter; concretization does not
  // depend on it.
  uint64_t seed = 1;
  size_t max_recorded_failures = 25;
  bool collect_traces = true;  // symbolic + physical traces on failure

  // Transport faults on the tester<->device link. Default = perfect link,
  // in which case the driver takes the exact direct injection path (one
  // install + one inject per case, no retry machinery on the wire).
  sim::LinkFaultSpec link;
  // Cases per run_batch submission on the perfect-link path (batches also
  // flush at register-install boundaries, so verdicts are byte-identical
  // to per-case injection). 0 behaves like 1.
  size_t batch = 64;
  // Per-case resends after silence or a damaged verdict before the case is
  // quarantined. With the default 8 retries a 5%-lossy link quarantines
  // with probability ~5e-12 per case.
  int max_send_retries = 8;
  // Retries for transient register-install failures, per install.
  int max_install_retries = 8;
  // Cap on the exponent of the simulated exponential backoff between
  // resends (backoff is accounted in TestReport::backoff_units, not slept).
  int max_backoff_exponent = 6;
};

class Meissa {
 public:
  Meissa(ir::Context& ctx, const p4::DataPlane& dp, const p4::RuleSet& rules,
         TestRunOptions opts = {});

  // Generation only (no device): the paper's scalability experiments.
  std::vector<sym::TestCaseTemplate> generate();

  // Full run: generate, inject into `device`, check against `intents`.
  // `cancel`, when set, is polled between cases: a fired token stops the
  // run cleanly with the verdicts settled so far (TestReport::cancelled).
  TestReport test(sim::Device& device, const std::vector<spec::Intent>& intents,
                  const util::CancelToken* cancel = nullptr);

  const GenStats& gen_stats() const { return gen_.stats(); }
  const cfg::Cfg& graph() const { return gen_.graph(); }
  Generator& generator() { return gen_; }

 private:
  ir::Context& ctx_;
  const p4::DataPlane& dp_;
  TestRunOptions opts_;
  Generator gen_;
  std::vector<sym::TestCaseTemplate> templates_;
  bool generated_ = false;
};

}  // namespace meissa::driver
