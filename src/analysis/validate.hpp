// Summary translation validation (run after summary::summarize): a static
// equivalence checker that re-derives, per pipeline, the set of valid
// internal paths the summarizer is allowed to keep, and discharges one SMT
// obligation per decision the transform made:
//
//   elimination       an eliminated path-fragment's condition is UNSAT
//                     under the pipeline's public pre-condition (every
//                     pruned edge was genuinely infeasible)
//   guard-cover       a surviving original path implies its summarized
//                     branch's guard (the summary simulates the original)
//   guard-precision   a summarized branch's guard implies its original
//                     path condition (the summary admits nothing new)
//   effect            original and summarized final field values agree
//                     under the shared path condition
//   coverage          the summarized branch list and the re-derived valid
//                     path list align one-to-one (nothing dropped, nothing
//                     invented)
//   structure         the summarized subgraph has the encoder's shape
//                     (linear chains, exactly one guard each)
//
// Obligations are discharged through smt::Solver under a per-check Budget;
// an exhausted check is reported as `unproven` — never silently passed —
// and a walk degraded by exhaustion downgrades would-be refutations to
// `unproven` too (an undecided branch must not masquerade as a proof
// either way). `refuted` therefore always names a real, reproducible
// divergence at a specific pipeline and edge.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cfg/cfg.hpp"
#include "smt/solver.hpp"
#include "summary/summary.hpp"

namespace meissa::analysis {

enum class ObligationKind : uint8_t {
  kElimination,
  kGuardCover,
  kGuardPrecision,
  kEffect,
  kCoverage,
  kStructure,
};

enum class ObligationVerdict : uint8_t { kUnsat, kUnproven, kRefuted };

const char* obligation_kind_name(ObligationKind k) noexcept;
const char* obligation_verdict_name(ObligationVerdict v) noexcept;

// One discharged (or undischargeable) proof obligation. Node ids refer to
// the original graph for walk-side facts (`orig_from -> orig_node` is the
// eliminated or diverging edge) and to the summarized graph for
// `summary_node` (the branch's guard node).
struct Obligation {
  ObligationKind kind = ObligationKind::kElimination;
  ObligationVerdict verdict = ObligationVerdict::kUnsat;
  std::string pipeline;
  cfg::NodeId orig_from = cfg::kNoNode;
  cfg::NodeId orig_node = cfg::kNoNode;
  cfg::NodeId summary_node = cfg::kNoNode;
  std::string field;   // effect obligations: the disagreeing field
  std::string detail;  // human-readable context (condition, counts, ...)
  uint64_t smt_checks = 0;
};

// Fate of one original intra-pipeline edge under the transform.
enum class EdgeStatus : uint8_t {
  kRetained,    // lies on a surviving valid path
  kEliminated,  // pruned, with an elimination obligation on record
  kSubsumed,    // unreachable given eliminations elsewhere on its paths
  kOfftarget,   // leaves the entry->exit region (never part of a result)
};

struct EdgeLedgerEntry {
  cfg::NodeId from = cfg::kNoNode;
  cfg::NodeId to = cfg::kNoNode;
  EdgeStatus status = EdgeStatus::kRetained;
  int obligation = -1;  // kEliminated: index into obligations (first proof)
};

struct PipelineValidation {
  std::string instance;
  std::vector<Obligation> obligations;
  std::vector<EdgeLedgerEntry> ledger;
  uint64_t surviving_paths = 0;   // re-derived valid internal paths
  uint64_t summary_branches = 0;  // branch chains found in the summary
  uint64_t unsat = 0;
  uint64_t unproven = 0;
  uint64_t refuted = 0;
  uint64_t smt_checks = 0;
  double seconds = 0;
};

struct ValidationResult {
  std::vector<PipelineValidation> pipelines;
  uint64_t obligations = 0;
  uint64_t unsat = 0;
  uint64_t unproven = 0;
  uint64_t refuted = 0;
  uint64_t smt_checks = 0;
  double seconds = 0;

  // No refuted obligation: the transform is sound as far as we could
  // decide. NOT the same as proven(): unproven obligations remain open.
  bool sound() const noexcept { return refuted == 0; }
  // Every obligation discharged UNSAT: the transform is proved.
  bool proven() const noexcept { return refuted == 0 && unproven == 0; }

  // First refuted obligation across pipelines, or nullptr.
  const Obligation* first_refuted() const noexcept;
};

struct ValidateOptions {
  bool use_z3 = false;
  // Per-obligation solver budget. Exhaustion yields `unproven`.
  smt::Budget budget;
  // Cap on re-derived paths per pipeline; exceeding it aborts that
  // pipeline's walk with an `unproven` coverage obligation (explicitly
  // reported, never silently passed).
  uint64_t max_walk_paths = 1u << 17;
  // Mirrors the SummaryOptions the summarize() call used, so the validator
  // re-derives public pre-conditions the same way (filtering on/off,
  // static pruning).
  summary::SummaryOptions summary;
};

// Validates `summarized` (the summarize() output graph) against
// `original` (the graph summarize() was given; node ids are shared).
ValidationResult validate_summary(ir::Context& ctx, const cfg::Cfg& original,
                                  const cfg::Cfg& summarized,
                                  const ValidateOptions& opts = {});

// Deterministic renderings for the m4verify CLI.
std::string validate_render_text(const ValidationResult& r,
                                 bool obligations_dump);
std::string validate_render_json(const ValidationResult& r,
                                 bool obligations_dump);

// --- Summary miscompilation injector (testing the validator) -------------
//
// sim::FaultKind models device-toolchain miscompiles of the *device
// program*; these operate on the summarized CFG itself — the artifact the
// validator guards — so tests and CI can assert that a miscompiled summary
// is flagged at the exact pipeline and edge.
enum class SummaryFaultKind : uint8_t {
  kDropBranch,   // unlink a summarized branch chain (lost coverage)
  kWidenGuard,   // replace a branch guard with `true` (spurious admission)
  kDropEffect,   // splice one post-guard effect assign out of a chain
};

const char* summary_fault_name(SummaryFaultKind k) noexcept;
std::optional<SummaryFaultKind> parse_summary_fault(const std::string& name);

// Applies the fault to the first applicable site (deterministic scan in
// instance order). Returns a description of what was broken, or nullopt if
// no applicable site exists.
std::optional<std::string> inject_summary_fault(ir::Context& ctx, cfg::Cfg& g,
                                                SummaryFaultKind kind);

}  // namespace meissa::analysis
