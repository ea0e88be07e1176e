// Static injection-point analysis — the enumeration half of the
// ground-truth bug corpus (LAVA/Gauntlet-style, see DESIGN.md "Bug
// injection & survival analysis").
//
// A mutation is only usable as labeled ground truth when the mutated
// construct is *live*: some feasible execution reaches it, so the mutation
// has an observable trigger. This pass walks the CFG once with the PR 2
// value/validity dataflow domain and enumerates every mutation site the
// facts prove live:
//
//   kGuard             an if-statement guard predicate (both arms feasible
//                      or at least the mutated construct reachable)
//   kParserTransition  a parser select case (value/mask are mutable)
//   kTableEntry        a table entry's match/action/args
//   kEntryRank         a pair of overlapping entries whose winner is
//                      decided by priority or install order (rank metadata
//                      is mutable without touching the match space)
//   kChecksum          a deparser checksum update (source list mutable)
//   kEmit              a deparser emit list with >= 2 headers
//   kRegisterIndex     an action op referencing a register cell that has a
//                      neighbouring cell to skew into
//   kToolchain         a sim::FaultSpec target validated live (the
//                      device-toolchain transform sites of Table 2)
//   kSummary           a summary-transform fault site (analysis/validate's
//                      SummaryFaultKind; detected by m4verify, not devices)
//
// Every retained site records its anchor node and a human-readable
// liveness proof derived from the dataflow facts (reachable, feasible IN
// state, predicate not refuted). Sites that fail the proof are counted,
// never emitted. The companion guard-constancy scan powers the m4lint
// `constant-guard` detector: an if whose ValueRange verdict is kTrue or
// kFalse has a dead or vacuous arm.
//
// Enumeration order is deterministic (node-id scan + declaration order),
// so site ids are stable for a given program — the corpus manifest keys on
// them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/dataflow.hpp"
#include "cfg/cfg.hpp"
#include "p4/rules.hpp"
#include "sim/fault.hpp"

namespace meissa::analysis {

enum class SiteKind : uint8_t {
  kGuard,
  kParserTransition,
  kTableEntry,
  kEntryRank,
  kChecksum,
  kEmit,
  kRegisterIndex,
  kToolchain,
  kSummary,
};
inline constexpr int kNumSiteKinds = 9;

const char* site_kind_name(SiteKind k) noexcept;

struct InjectionSite {
  uint32_t id = 0;
  SiteKind kind = SiteKind::kGuard;
  // Live anchor node in the analyzed graph: the liveness proof holds here,
  // and witness search covers templates whose path visits it.
  cfg::NodeId node = cfg::kNoNode;
  int instance = -1;          // cfg instance index of the anchor, -1 = glue
  std::string instance_name;  // "" for program-level anchors
  std::string pipeline;       // owning PipelineDef name ("" if n/a)
  // What to mutate; interpretation depends on kind:
  //   kGuard             ref = pipeline, index = pre-order if ordinal
  //   kParserTransition  ref = state name, index = case index
  //   kTableEntry        ref = table name, index = ordered-entry position
  //   kEntryRank         ref = table name, index/entry_b = ordered positions
  //   kChecksum          ref = dest field, index = update index
  //   kEmit              ref = pipeline, index = emit position
  //   kRegisterIndex     ref = action name, index = op index,
  //                      field = the register cell name
  //   kToolchain         ref = fault kind slug, fault = full spec
  //   kSummary           ref = summary fault slug ("drop-branch", ...)
  std::string ref;
  int32_t index = -1;
  int32_t sub = -1;
  int32_t entry_b = -1;
  std::string field;      // kRegisterIndex: the referenced register cell
  sim::FaultSpec fault;   // kToolchain only
  std::string liveness;   // human-readable proof the site is live
};

// Constancy verdicts for one expanded if-statement fork (one per live
// pipeline instance). `then_verdict` is the three-valued truth of the
// guard at the fork; `else_verdict` of its negation. kTrue/kFalse on
// either side means a dead or vacuous arm — the `constant-guard` lint.
struct GuardFact {
  cfg::NodeId then_node = cfg::kNoNode;
  cfg::NodeId else_node = cfg::kNoNode;
  int instance = -1;
  std::string instance_name;
  std::string pipeline;
  int32_t ordinal = -1;
  Ternary then_verdict = Ternary::kUnknown;
  Ternary else_verdict = Ternary::kUnknown;

  bool always_true() const noexcept {
    return then_verdict == Ternary::kTrue ||
           else_verdict == Ternary::kFalse;
  }
  bool always_false() const noexcept {
    return then_verdict == Ternary::kFalse ||
           else_verdict == Ternary::kTrue;
  }
};

struct InjectOptions {
  // Cap on (nodes x tracked fields) of the retained per-node IN states:
  // above it the value domain degrades to validity bits, then to
  // structural reachability only (sites stay sound — a structurally dead
  // site is still never emitted).
  size_t state_budget = 4'000'000;
  // Cap on kEntryRank pairs emitted per table (closest-rank pairs first).
  size_t max_rank_pairs_per_table = 8;
};

struct InjectResult {
  std::vector<InjectionSite> sites;
  std::vector<GuardFact> guards;
  uint64_t considered = 0;  // candidate sites enumerated
  uint64_t dead = 0;        // filtered out by the liveness proof
  uint64_t by_kind[kNumSiteKinds] = {};
};

// Enumerates and liveness-filters every mutation site of `dp`/`rules` over
// `g` (the *original* — unsummarized — CFG built from them; template paths
// used for witness replay must come from the same graph).
InjectResult find_injection_sites(const ir::Context& ctx,
                                  const p4::DataPlane& dp,
                                  const p4::RuleSet& rules, const cfg::Cfg& g,
                                  const InjectOptions& opts = {});

// The guard-constancy scan alone (what m4lint's constant-guard detector
// consumes); equivalent to find_injection_sites(...).guards without the
// site enumeration cost.
std::vector<GuardFact> guard_constancy(const ir::Context& ctx,
                                       const cfg::Cfg& g,
                                       size_t state_budget = 4'000'000);

}  // namespace meissa::analysis
