#include "driver/tester.hpp"

#include <algorithm>
#include <optional>
#include <unordered_set>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace meissa::driver {

Meissa::Meissa(ir::Context& ctx, const p4::DataPlane& dp,
               const p4::RuleSet& rules, TestRunOptions opts)
    : ctx_(ctx), dp_(dp), opts_(std::move(opts)), gen_(ctx, dp, rules,
                                                      opts_.gen) {}

std::vector<sym::TestCaseTemplate> Meissa::generate() {
  if (!generated_) {
    templates_ = gen_.generate();
    generated_ = true;
  }
  return templates_;
}

TestReport Meissa::test(sim::Device& device,
                        const std::vector<spec::Intent>& intents,
                        const util::CancelToken* cancel) {
  generate();
  TestReport report;
  report.templates = templates_.size();

  Sender sender(ctx_, dp_, gen_.graph());

  // Checks one settled verdict and folds it into the report.
  auto record = [&](const sym::TestCaseTemplate& t, const TestCase& tc,
                    const sim::DeviceOutput& out) {
    CheckResult cr = check_case(ctx_, dp_.program, tc, out, intents);
    ++report.cases;
    if (cr.pass) {
      ++report.passed;
      return;
    }
    ++report.failed;
    if (report.failures.size() < opts_.max_recorded_failures) {
      CaseRecord rec;
      rec.template_id = tc.template_id;
      rec.case_id = tc.case_id;
      rec.pass = false;
      rec.model_problems = std::move(cr.model_problems);
      rec.intent_problems = std::move(cr.intent_problems);
      if (opts_.collect_traces) {
        rec.symbolic_trace =
            symbolic_trace(ctx_, gen_.graph(), t.path, tc.input_state, 200);
        rec.physical_trace = device.render_trace(out.trace);
      }
      report.failures.push_back(std::move(rec));
    }
  };

  if (opts_.link.none()) {
    // Perfect link: batched submission through one recycled arena.
    // Register installs merge into persistent device state, so a pending
    // batch flushes before every install — each case then executes after
    // exactly the installs that preceded it serially, which keeps verdicts
    // byte-identical to the old one-install-one-inject loop.
    sim::ExecArena arena;
    arena.collect_trace = opts_.collect_traces;
    const size_t batch = std::max<size_t>(1, opts_.batch);
    std::vector<const sym::TestCaseTemplate*> pend_t;
    std::vector<TestCase> pend_c;
    std::vector<sim::DeviceInput> inputs;
    std::vector<sim::DeviceOutput> outputs;

    auto flush = [&] {
      if (pend_c.empty()) return;
      inputs.clear();
      for (TestCase& tc : pend_c) inputs.push_back(std::move(tc.input));
      outputs.resize(pend_c.size());
      device.run_batch(inputs, outputs, arena);
      for (size_t i = 0; i < pend_c.size(); ++i) {
        obs::Span span("send/check", "driver");
        span.arg("case", pend_c[i].case_id);
        pend_c[i].input = std::move(inputs[i]);  // checker reads the input
        record(*pend_t[i], pend_c[i], outputs[i]);
      }
      pend_t.clear();
      pend_c.clear();
    };

    for (const sym::TestCaseTemplate& t : templates_) {
      if (cancel != nullptr && cancel->cancelled()) {
        report.cancelled = true;
        break;
      }
      std::optional<TestCase> tc = sender.concretize(t, gen_.engine());
      if (!tc) continue;  // removed by hash filtering (§4)
      if (!tc->registers.empty()) {
        flush();
        device.set_registers(tc->registers);
      }
      pend_t.push_back(&t);
      pend_c.push_back(std::move(*tc));
      if (pend_c.size() >= batch) flush();
    }
    flush();
  } else {
    // Flaky link: per-case install+send with capped-backoff retry, stamp-
    // based dedup and corruption detection, quarantine on exhaustion.
    sim::FlakyLink link(device, opts_.link);
    std::unordered_set<uint64_t> settled;

    for (const sym::TestCaseTemplate& t : templates_) {
      if (cancel != nullptr && cancel->cancelled()) {
        report.cancelled = true;
        break;
      }
      std::optional<TestCase> tc = sender.concretize(t, gen_.engine());
      if (!tc) continue;
      obs::Span span("send/check", "driver");
      span.arg("case", tc->case_id);
      // Drain reordered stragglers of earlier cases first: afterwards only
      // this case's frames are in flight, which is what makes unstamped
      // drop verdicts attributable to it. Two collects empty the link's
      // two-stage reorder pipeline completely.
      for (int d = 0; d < 2; ++d) {
        for (const sim::DeviceOutput& stale : link.collect()) {
          (void)stale;
          ++report.dedup_dropped;
        }
      }

      std::optional<sim::DeviceOutput> verdict;
      for (int attempt = 0; attempt <= opts_.max_send_retries; ++attempt) {
        if (attempt > 0) {
          ++report.send_retries;
          // Capped exponential backoff with *equal jitter*, accounted in
          // simulated units: each retry waits between half and the full
          // exponential step, so concurrent retriers decorrelate without
          // ever collapsing to zero wait. The jitter is drawn from a
          // (seed, case, attempt)-keyed stream — a pure function of the
          // run's inputs, so the accounted units are byte-identical per
          // seed, independent of wall-clock or scheduling.
          int e = std::min(attempt - 1, opts_.max_backoff_exponent);
          const uint64_t base = uint64_t{1} << e;
          util::Rng jitter(opts_.seed ^
                           (tc->case_id * 0x9E3779B97F4A7C15ull) ^
                           static_cast<uint64_t>(attempt));
          report.backoff_units += (base + 1) / 2 + jitter.below(base / 2 + 1);
        }
        // (Re-)install registers before every send: installs can fail
        // transiently, and a resend must observe pristine register state.
        bool installed = false;
        for (int i = 0; i <= opts_.max_install_retries; ++i) {
          if (i > 0) ++report.install_retries;
          if (link.install_registers(tc->registers)) {
            installed = true;
            break;
          }
        }
        if (!installed) break;  // quarantined below

        link.send(tc->input);
        for (sim::DeviceOutput& out : link.collect()) {
          if (verdict) {
            ++report.dedup_dropped;  // duplicate of a settled verdict
            continue;
          }
          if (out.dropped || !out.accepted) {
            // Drop verdicts carry no stamp; the drain above guarantees
            // they belong to the case in flight.
            verdict = std::move(out);
            continue;
          }
          switch (classify_frame(out.bytes, tc->case_id, settled)) {
            case FrameClass::kOurs:
              verdict = std::move(out);
              break;
            case FrameClass::kStale:
              ++report.dedup_dropped;
              break;
            case FrameClass::kCorrupt:
              ++report.corruption_detected;
              break;
          }
        }
        if (verdict) break;
      }

      settled.insert(tc->case_id);
      if (!verdict) {
        ++report.cases;
        report.quarantined.push_back(tc->case_id);
        obs::instant("case quarantined", "driver");
        continue;
      }
      record(t, *tc, *verdict);
    }
    report.link = link.stats();
  }

  report.removed_by_hash = sender.removed_by_hash();
  report.hash_repair_attempts = sender.hash_repair_attempts();
  report.gen = gen_.stats();
  if (obs::metrics_enabled()) {
    // Retry-protocol totals (run-level, emitted once: cheaper and just as
    // informative as per-event counting on the serial driver loop).
    obs::metrics().counter("driver.cases").add(report.cases);
    obs::metrics().counter("driver.failed").add(report.failed);
    obs::metrics().counter("driver.send_retries").add(report.send_retries);
    obs::metrics()
        .counter("driver.install_retries")
        .add(report.install_retries);
    obs::metrics().counter("driver.dedup_dropped").add(report.dedup_dropped);
    obs::metrics()
        .counter("driver.corruption_detected")
        .add(report.corruption_detected);
    obs::metrics().counter("driver.backoff_units").add(report.backoff_units);
    obs::metrics()
        .counter("driver.quarantined")
        .add(report.quarantined.size());
    obs::metrics()
        .counter("driver.hash_repair_attempts")
        .add(report.hash_repair_attempts);
  }
  return report;
}

}  // namespace meissa::driver
