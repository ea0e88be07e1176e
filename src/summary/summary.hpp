// Code summary — the paper's core contribution (§3.3, Algorithm 2).
//
// Processes pipeline instances in topological order. For each pipeline it
//   1. computes the *public pre-condition* (C_pub, V_pub): constraints and
//      value bindings shared by every valid path from the CFG entry to the
//      pipeline's entry (inter-pipeline public pre-condition filtering),
//      by enumerating those paths exactly (Algorithm 2 lines 4-7),
//   2. symbolically executes the pipeline body under that pre-condition,
//      collecting its valid internal paths (intra-pipeline redundancy
//      elimination), and
//   3. replaces the pipeline subgraph with one compact branch per valid
//      path: entry-value snapshots (`@field@inst <- field`), hash
//      definitions, a single predicate node carrying the path's guard
//      conjunction, and the path's overall assignment effects — the
//      auxiliary-variable encoding of §3.3 that preserves simultaneous-
//      update atomicity.
//
// The pass preserves the set of valid paths and their path conditions
// (paper §3.4); tests/summary_test.cpp checks this property on randomized
// multi-pipeline programs.
#pragma once

#include <functional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "sym/engine.hpp"

namespace meissa::summary {

// One pipeline's explore-phase output in checkpointable form: everything
// the sequential encode phase needs to splice the pipeline without
// re-exploring it. Field references are by *name* (FieldId numbering is
// interning-order — i.e. scheduling — dependent), expressions are live
// ExprRefs in the owning context; the driver's checkpoint layer turns
// those into bytes and back.
struct SummaryUnit {
  std::string instance;
  uint64_t paths_after = 0;
  uint64_t smt_checks = 0;
  uint64_t smt_skipped = 0;
  double seconds = 0.0;  // the original explore's cost (kept over resumes)
  std::vector<sym::PathResult> internal;
  // (@snapshot name, original name, width), in seeding order.
  struct SeedSnap {
    std::string at;
    std::string orig;
    int width = 0;
  };
  std::vector<SeedSnap> seed_snaps;
};

struct SummaryHooks {
  // Fired from the sequential encode loop — a wave-boundary point, so the
  // unit is complete and every earlier unit has been spliced — with the
  // pipeline's index (instance order) and its checkpointable work.
  std::function<void(size_t, const SummaryUnit&)> on_unit;
  // Prior units by instance name; their pipelines skip the explore phase
  // entirely and splice the restored paths.
  const std::unordered_map<std::string, SummaryUnit>* resume = nullptr;
};

struct SummaryOptions {
  // Inter-pipeline public pre-condition filtering (ablatable; intra-
  // pipeline redundancy elimination always runs).
  bool precondition_filtering = true;
  bool use_z3 = false;
  bool check_every_predicate = false;  // paper-faithful Algorithm 1/2 mode
  // Worker threads for the per-pipeline explore phase (1 = sequential).
  // Pipelines are grouped into dependency waves (instance k depends on j
  // when j's exit reaches k's entry); each wave's pre-condition + body
  // explorations run concurrently, then the graph splices are applied
  // sequentially in instance order — so the summarized graph (node ids
  // included) is identical for every thread count.
  int threads = 1;
  // Static pruning for the body/enumeration engines: per-instance dataflow
  // facts (validity lattice and value ranges from the instance entry) plus
  // the per-path abstract environment decide predicates before the solver.
  // Solver-equivalent, so the summarized graph is identical on/off.
  bool static_pruning = true;
  // Cooperative cancellation, polled by every explore engine and between
  // waves. A cancelled wave is never spliced (a partial exploration would
  // silently change the graph); SummaryResult::cancelled reports it and
  // the partially-summarized graph must not be used. Must outlive the run.
  const util::CancelToken* cancel = nullptr;
  // Checkpoint/resume hooks (may be null). Must outlive the run.
  const SummaryHooks* hooks = nullptr;
  // Externally-owned path-condition verdict cache, handed to every
  // pre-condition and body engine (see sym::EngineOptions::shared_pc_cache
  // for the cross-engine soundness argument). The incremental re-testing
  // session warms it on the baseline run so updates re-pay only the checks
  // a change actually altered. Must outlive the run.
  smt::PathCondCache* shared_pc_cache = nullptr;
};

// The public pre-condition of one pipeline: constraints over program
// inputs, plus the values every valid path agrees on. `values` has the
// type of each path's own final V (FieldId-sorted, so compute_precondition
// intersects path by path with one merge); a field in neither `values` nor
// `tops` is untouched, i.e. still the input symbol.
struct PreCondition {
  std::vector<ir::ExprRef> conds;
  sym::Values values;
  std::unordered_set<ir::FieldId> tops;  // paths disagree: value unknown
  // For tops whose per-path values are all constants: the merged value set
  // (the paper's §7 "group pre-conditions by packet type ... merge them
  // into a full summary", kept as one disjunctive pre-condition).
  std::unordered_map<ir::FieldId, std::vector<uint64_t>> value_sets;
  // Work counters of the enumeration that produced this pre-condition.
  uint64_t prefix_paths = 0;  // valid entry→target paths enumerated
  uint64_t prefix_nodes = 0;  // CFG nodes it visited (frontier loads: none)
  uint64_t smt_checks = 0;    // solver checks it spent
  uint64_t smt_skipped = 0;   // checks static pruning avoided
  uint64_t pc_cache_hits = 0;  // checks the path-condition cache answered
  // The enumerated paths' states at the target, in DFS order, for a
  // dominated pipeline to extend.
  sym::Frontier frontier;
};

struct PreconditionOptions {
  // Enumerate by extending this frontier — the valid paths to a node that
  // dominates the target — instead of starting at the CFG entry with an
  // empty state. Must outlive the call.
  const sym::Frontier* from = nullptr;
  // Namespace for the enumeration's fresh symbols (deterministic names
  // under concurrent summarization); empty = the shared Context counter.
  std::string fresh_ns;
  bool static_pruning = true;
  const util::CancelToken* cancel = nullptr;
  smt::PathCondCache* shared_pc_cache = nullptr;
};

// Algorithm 2 lines 4-7 verbatim: enumerates every valid entry→target
// path and intersects their constraints and value stacks. There is no cap:
// the cost is O(k * m^k) in the number of prefix pipelines, like body
// exploration, and `cancel` is polled throughout.
//
// Extending the frontier F_d of a node d that dominates the target gives
// the same result as starting at the entry: the CFG is a DAG, so the
// entry DFS visits exactly the pairs (path to d, continuation from d), in
// the same order. Only the names of fresh symbols differ.
PreCondition compute_precondition(ir::Context& ctx, const cfg::Cfg& g,
                                  cfg::NodeId target,
                                  const PreconditionOptions& opts = {});

// For each instance of `g`, the nearest other instance whose entry
// dominates its entry (every path from the CFG entry to it passes there),
// or -1 when there is none or the instance is unreachable from the entry.
std::vector<int> nearest_dominators(const cfg::Cfg& g);

// A pre-condition restated over one pipeline's entry snapshots, ready to
// seed an engine (or any other walk) at that pipeline's entry.
struct EntryState {
  // (@<field>@<inst>, field) pairs in seeding order: the tops, then the
  // fields with a known value, each in field-name order.
  std::vector<std::pair<ir::FieldId, ir::FieldId>> snapshots;
  // In assertion order: pc.conds, then each value-set top's disjunction
  // `@f == v1 || ...`, then each known field's `@f == V_pub(f)`. Engines
  // fold this order into their verdict-cache signature, so it is fixed.
  std::vector<ir::ExprRef> constraints;
};

// Interns the `@<field>@<inst_name>` snapshots for `pc` and builds the
// entry constraints over them. FieldId numbering is interning order, which
// is scheduling-dependent under concurrent exploration; every order here
// is by field name instead.
EntryState entry_state(ir::Context& ctx, const PreCondition& pc,
                       const std::string& inst_name);

struct PipelineSummary {
  std::string instance;
  util::BigCount paths_before;  // possible paths in the original subgraph
  uint64_t paths_after = 0;     // summarized (valid) paths
  uint64_t smt_checks = 0;      // solver checks spent summarizing
  double seconds = 0.0;
  uint64_t smt_skipped = 0;     // checks avoided by static pruning
  // Checks the path-condition cache answered (0 when resumed).
  uint64_t pc_cache_hits = 0;
  // The pre-condition enumeration's work this run (0 when resumed).
  uint64_t prefix_paths = 0;
  uint64_t prefix_nodes = 0;
};

struct SummaryResult {
  cfg::Cfg graph;  // the summarized CFG
  std::vector<PipelineSummary> per_pipeline;
  uint64_t total_smt_checks = 0;
  uint64_t total_smt_skipped = 0;
  // SummaryOptions::cancel fired: the graph is partially summarized and
  // must not be explored; per_pipeline covers completed pipelines only.
  bool cancelled = false;
  // Pipelines restored from SummaryHooks::resume (explore skipped).
  uint64_t resumed_pipelines = 0;
};

// Runs code summary over `g` (which must have instance metadata).
SummaryResult summarize(ir::Context& ctx, const cfg::Cfg& g,
                        const SummaryOptions& opts = {});

}  // namespace meissa::summary
