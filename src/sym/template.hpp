// Test case templates (paper §2.1/§3.2): the per-path artifact handed to
// the test driver. A template fixes the execution path, the input-pattern
// constraint (path condition), and the symbolic output (final V), from
// which the driver derives concrete input packets and expected outputs.
#pragma once

#include <string>

#include "sym/engine.hpp"

namespace meissa::sym {

// The engine's path record (path, conds, final V as `values`, obligations,
// exit, emitting deparser) plus what the driver adds to it.
struct TestCaseTemplate : PathResult {
  uint64_t id = 0;
  ir::ExprRef path_condition = nullptr;  // conjunction of `conds`
  int entry_instance = -1;  // pipeline instance whose parser sees the input
  // Static diagnostics found on this path (e.g. reads of invalid-header
  // fields — the class of problem p4pktgen-style tools flag).
  std::vector<std::string> diagnostics;
};

// Scans a path for reads of content fields whose header is invalid at the
// reading instance (validity is tracked concretely along the path, which
// is exact on unsummarized CFGs). Returns human-readable findings.
std::vector<std::string> find_invalid_header_reads(const ir::Context& ctx,
                                                   const cfg::Cfg& g,
                                                   const cfg::Path& path);

// Converts an engine result into a template (resolving entry instance).
TestCaseTemplate make_template(ir::Context& ctx, const cfg::Cfg& g,
                               const PathResult& r, uint64_t id);

// Human-readable rendering (for reports and the bug-localization trace).
std::string describe(const TestCaseTemplate& t, const ir::Context& ctx,
                     const cfg::Cfg& g);

}  // namespace meissa::sym
