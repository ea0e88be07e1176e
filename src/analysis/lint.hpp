// IR/CFG lint — the diagnostics the dataflow pass can prove without a
// solver (the m4lint CLI front-end renders these):
//
//   invalid-header-read         reading a content field of a header whose
//                               validity bit is statically 0 (error) or
//                               possibly 0 (warning) at the reading node
//   read-before-valid           reading a content field at a node that no
//                               parser state or action setting the header
//                               valid can reach — structural (pure graph
//                               reachability over validity writers), so it
//                               holds even where the value domain loses
//                               the validity bit at a join
//   contradictory-predicate     an assume node statically refuted by the
//                               value analysis (shadowed table entries,
//                               impossible checksum guards, dead branches)
//   unreachable-code            nodes no feasible flow reaches (orphaned
//                               parser states, code behind dead predicates)
//   uninitialized-metadata-read a pipeline reads a metadata field it never
//                               writes, and only the implicit entry
//                               zero-initialization reaches the read —
//                               a cross-pipeline pre-condition violation
//   header-never-emitted        a header can leave a pipeline valid but is
//                               absent from its deparser's emit order
//   constant-guard              an if-statement guard the value-domain
//                               analysis proves always-true/always-false
//                               (injection-analysis guard-constancy facts:
//                               one arm dead, the test vacuous)
//   unused-write                a header/metadata field written by a
//                               reachable pipeline node that no downstream
//                               node ever reads and no downstream deparser
//                               emits — dead code or a missing read (the
//                               def-use notion shared with analysis/impact)
//
// Diagnostics are deterministic and deduplicated: a finding reachable via
// multiple CFG paths emits once, keyed by (detector, node, field), sorted
// by (node, code, field, message), with locations taken from the CFG's
// interned source labels.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/dataflow.hpp"
#include "cfg/cfg.hpp"

namespace meissa::analysis {

enum class Severity : uint8_t { kWarning, kError };

struct Diagnostic {
  Severity severity = Severity::kWarning;
  std::string code;      // stable slug, e.g. "invalid-header-read"
  cfg::NodeId node = cfg::kNoNode;
  std::string instance;  // owning pipeline instance name; empty for glue
  std::string location;  // the node's source label (may be empty)
  std::string field;     // subject field/header; empty for node-level codes
  std::string message;
};

struct LintResult {
  std::vector<Diagnostic> diagnostics;
  uint64_t errors = 0;
  uint64_t warnings = 0;

  bool clean() const noexcept { return diagnostics.empty(); }
};

// Runs the value/validity/reaching-definition analysis over `g` from its
// entry and collects all diagnostics.
LintResult lint_cfg(const ir::Context& ctx, const cfg::Cfg& g);

// Human-readable rendering, one line per diagnostic plus a summary line.
std::string render_text(const LintResult& r);

// Deterministic JSON rendering (stable key order, sorted diagnostics).
std::string render_json(const LintResult& r);

}  // namespace meissa::analysis
