// Test reports: per-case verdicts, aggregate counts, and the symbolic
// trace used for bug localization (paper §7).
#pragma once

#include <string>
#include <vector>

#include "driver/checker.hpp"
#include "driver/generator.hpp"
#include "sim/link.hpp"

namespace meissa::driver {

struct CaseRecord {
  uint64_t template_id = 0;
  uint64_t case_id = 0;
  bool pass = true;
  std::vector<std::string> model_problems;
  std::vector<std::string> intent_problems;
  std::string symbolic_trace;              // populated on failure
  std::vector<std::string> physical_trace;  // device trace, on failure
};

struct TestReport {
  uint64_t templates = 0;
  uint64_t cases = 0;
  uint64_t passed = 0;
  uint64_t failed = 0;
  uint64_t removed_by_hash = 0;  // paper §4 hash filtering
  // Hash-obligation repair re-solves performed by the sender (bounded per
  // case by Sender::kMaxHashRepairRounds).
  uint64_t hash_repair_attempts = 0;

  // Robustness counters (all zero on a fault-free link).
  uint64_t send_retries = 0;         // per-case resends after silence/garbage
  uint64_t install_retries = 0;      // register installs retried
  uint64_t dedup_dropped = 0;        // duplicate/stale verdicts discarded
  uint64_t corruption_detected = 0;  // verdicts discarded as corrupted
  uint64_t backoff_units = 0;        // total simulated backoff waited
  std::vector<uint64_t> quarantined;  // case ids that exhausted retries
  sim::LinkStats link;               // what the link actually did

  // A cancel token handed to Meissa::test fired mid-run: the verdict
  // counts cover only the cases settled before the stop.
  bool cancelled = false;

  std::vector<CaseRecord> failures;
  GenStats gen;

  // Quarantined cases are counted in `cases` but are neither passed nor
  // failed: a run with quarantine is not a clean pass.
  bool all_passed() const noexcept {
    return failed == 0 && quarantined.empty() && cases > 0;
  }
  // Multi-line human-readable summary.
  std::string str() const;
  // Machine-readable summary (single JSON object; stable key order).
  std::string to_json() const;
};

// Renders a symbolic execution trace of `path` driven by `input`: executed
// statements with concrete values at each step (paper §7: "a trace that
// shows all executed actions, hit table rules, branching, and assignment
// statements, along with the values of corresponding arguments").
// Fields `input` does not assign read 0, so a test case's sparse
// `input_state` renders exactly as the state the sender replayed.
std::string symbolic_trace(const ir::Context& ctx, const cfg::Cfg& g,
                           const cfg::Path& path,
                           const ir::ConcreteState& input, size_t max_lines);

}  // namespace meissa::driver
