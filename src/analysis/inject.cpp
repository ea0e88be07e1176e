#include "analysis/inject.hpp"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <string>
#include <tuple>
#include <unordered_set>
#include <utility>

#include "util/strings.hpp"

namespace meissa::analysis {

namespace {

using cfg::NodeId;
using cfg::OriginKind;

// One dataflow run kept alive for liveness queries (compute_facts discards
// the per-node IN states; the site filter needs them).
struct LiveView {
  const cfg::Cfg* g = nullptr;
  std::optional<ValueDomain> dom;
  std::optional<ForwardResult<ValueDomain>> flow;

  bool reachable(NodeId n) const { return flow->reachable[n] != 0; }

  // Live = structurally reachable, some feasible dataflow state reaches the
  // node, and (for assumes) the predicate is not statically refuted there.
  bool live(NodeId n) const {
    if (!flow->reachable[n] || !flow->in[n]) return false;
    return dom->feasible(n, *flow->in[n]);
  }

  Ternary verdict(NodeId n) const {
    if (!flow->in[n]) return Ternary::kFalse;
    return dom->eval_assume(n, *flow->in[n]);
  }
};

LiveView analyze(const ir::Context& ctx, const cfg::Cfg& g,
                 size_t state_budget) {
  std::unordered_map<ir::FieldId, int> relevant =
      ValueDomain::compute_relevant(ctx, g);
  if (g.size() * relevant.size() > state_budget) {
    // Degrade to validity bits only, then to structural reachability only
    // (empty relevant set — every transfer is trivially feasible, so
    // liveness degrades soundly to reachability).
    relevant.clear();
    for (const cfg::InstanceInfo& inst : g.instances()) {
      for (const auto& [h, vf] : inst.validity) relevant.emplace(vf, 1);
    }
    if (g.size() * relevant.size() > state_budget) relevant.clear();
  }
  LiveView v;
  v.g = &g;
  v.dom.emplace(ctx, g);
  v.dom->set_relevant(std::move(relevant));
  v.flow = run_forward(g, g.entry(), *v.dom);
  return v;
}

const char* fault_slug(sim::FaultKind k) noexcept {
  switch (k) {
    case sim::FaultKind::kNone: return "none";
    case sim::FaultKind::kParserSkipSelect: return "parser-skip-select";
    case sim::FaultKind::kMaskFoldBug: return "mask-fold";
    case sim::FaultKind::kDropAssignment: return "drop-assignment";
    case sim::FaultKind::kWrongDefaultAction: return "wrong-default-action";
    case sim::FaultKind::kAddCarryLeak: return "add-carry-leak";
    case sim::FaultKind::kWrongCompareWidth: return "wrong-compare-width";
    case sim::FaultKind::kSwappedAssignments: return "swapped-assignments";
    case sim::FaultKind::kDropSetValid: return "drop-setvalid";
    case sim::FaultKind::kFieldOverlap: return "field-overlap";
    case sim::FaultKind::kSkipMetadataZero: return "skip-metadata-zero";
  }
  return "?";
}

// A candidate anchor: the lowest-id node carrying the canonical origin,
// preferring live nodes (a construct expanded into several subtrees — a
// parser state reached from two cases — is live iff any expansion is).
struct Cand {
  NodeId any = cfg::kNoNode;
  NodeId live = cfg::kNoNode;

  void offer(NodeId n, bool is_live) {
    if (any == cfg::kNoNode) any = n;
    if (is_live && live == cfg::kNoNode) live = n;
  }
};

std::string liveness_proof(const cfg::Cfg& g, NodeId anchor) {
  std::string s = "anchor node " + std::to_string(anchor);
  const std::string& label = g.label(anchor);
  if (!label.empty()) s += " [" + label + "]";
  const cfg::Node& n = g.node(anchor);
  s += ": reachable, feasible dataflow state";
  if (!n.is_hash && n.stmt.kind == ir::StmtKind::kAssume) {
    s += ", predicate not refuted";
  }
  return s;
}

struct Enumerator {
  const ir::Context& ctx;
  const p4::DataPlane& dp;
  const p4::RuleSet& rules;
  const cfg::Cfg& g;
  const InjectOptions& opts;
  const LiveView& view;
  InjectResult& out;

  Enumerator(const ir::Context& ctx_in, const p4::DataPlane& dp_in,
             const p4::RuleSet& rules_in, const cfg::Cfg& g_in,
             const InjectOptions& opts_in, const LiveView& view_in,
             InjectResult& out_in)
      : ctx(ctx_in), dp(dp_in), rules(rules_in), g(g_in), opts(opts_in),
        view(view_in), out(out_in) {}

  const std::string& pipeline_of(int instance) const {
    static const std::string empty;
    if (instance < 0) return empty;
    return g.instances()[static_cast<size_t>(instance)].pipeline;
  }
  const std::string& instance_name(int instance) const {
    static const std::string empty;
    if (instance < 0) return empty;
    return g.instances()[static_cast<size_t>(instance)].name;
  }

  void emit(SiteKind kind, NodeId anchor, std::string ref, int32_t index,
            int32_t sub = -1, int32_t entry_b = -1, std::string field = {},
            sim::FaultSpec fault = {}, std::string pipeline = {}) {
    InjectionSite s;
    s.id = static_cast<uint32_t>(out.sites.size());
    s.kind = kind;
    s.node = anchor;
    s.instance = anchor == cfg::kNoNode ? -1 : g.node(anchor).instance;
    s.instance_name = instance_name(s.instance);
    s.pipeline = pipeline.empty() ? pipeline_of(s.instance)
                                  : std::move(pipeline);
    s.ref = std::move(ref);
    s.index = index;
    s.sub = sub;
    s.entry_b = entry_b;
    s.field = std::move(field);
    s.fault = std::move(fault);
    s.liveness = liveness_proof(g, anchor);
    ++out.by_kind[static_cast<int>(kind)];
    out.sites.push_back(std::move(s));
  }

  // Counts one candidate; returns its live anchor or kNoNode.
  NodeId consider(const Cand& c) {
    ++out.considered;
    if (c.live == cfg::kNoNode) ++out.dead;
    return c.live;
  }

  // ---- origin scan ------------------------------------------------------

  // Canonical-key maps, all ordered so enumeration is deterministic.
  std::map<std::pair<std::string, int32_t>, Cand> guard_sites;  // (pipe, ord)
  std::map<std::tuple<int, int32_t>, std::pair<NodeId, NodeId>>
      guard_arms;  // (instance, ord) -> (then, else) expansion nodes
  std::map<std::tuple<std::string, std::string, int32_t>, Cand>
      parser_cases;  // (pipe, state, case)
  std::map<std::pair<std::string, std::string>, Cand>
      parser_states;  // (pipe, state) — kToolchain parser-skip-select
  std::map<std::pair<std::string, int32_t>, Cand> table_entries;
  std::map<std::string, Cand> table_misses;
  std::map<std::pair<std::string, int32_t>, Cand> action_ops;
  std::map<std::pair<std::string, int32_t>, std::pair<Cand, std::string>>
      checksums;  // (pipe, idx) -> (cand, dest)

  void scan_origins() {
    for (NodeId n = 0; n < g.size(); ++n) {
      const cfg::Origin& o = g.origin(n);
      if (o.kind == OriginKind::kNone) continue;
      const cfg::Node& node = g.node(n);
      const bool is_live = view.live(n);
      const std::string& ref = g.origin_ref(n);
      switch (o.kind) {
        case OriginKind::kIfGuard: {
          guard_sites[{ref, o.index}].offer(n, is_live);
          auto [it, fresh] = guard_arms.try_emplace(
              std::make_tuple(node.instance, o.index),
              std::make_pair(cfg::kNoNode, cfg::kNoNode));
          (o.sub == 0 ? it->second.first : it->second.second) = n;
          break;
        }
        case OriginKind::kParserCase:
          parser_cases[{pipeline_of(node.instance), ref, o.index}].offer(
              n, is_live);
          break;
        case OriginKind::kParserState:
          parser_states[{pipeline_of(node.instance), ref}].offer(n, is_live);
          break;
        case OriginKind::kTableEntry:
          table_entries[{ref, o.index}].offer(n, is_live);
          break;
        case OriginKind::kTableMiss:
          table_misses[ref].offer(n, is_live);
          break;
        case OriginKind::kActionOp:
          action_ops[{ref, o.index}].offer(n, is_live);
          break;
        case OriginKind::kChecksum:
          if (o.sub == 0) {
            auto& slot = checksums[{pipeline_of(node.instance), o.index}];
            slot.first.offer(n, is_live);
            slot.second = ref;
          }
          break;
        default:
          break;
      }
    }
  }

  // ---- per-kind enumeration ---------------------------------------------

  void guards() {
    for (const auto& [key, cand] : guard_sites) {
      NodeId a = consider(cand);
      if (a == cfg::kNoNode) continue;
      emit(SiteKind::kGuard, a, key.first, key.second, g.origin(a).sub, -1,
           {}, {}, key.first);
    }
    // Constancy facts: one per live expanded fork.
    for (const auto& [key, arms] : guard_arms) {
      auto [inst, ord] = key;
      GuardFact f;
      f.then_node = arms.first;
      f.else_node = arms.second;
      f.instance = inst;
      f.instance_name = instance_name(inst);
      f.pipeline = pipeline_of(inst);
      f.ordinal = ord;
      bool any_reachable = false;
      if (f.then_node != cfg::kNoNode && view.reachable(f.then_node)) {
        any_reachable = true;
        f.then_verdict = view.verdict(f.then_node);
      }
      if (f.else_node != cfg::kNoNode && view.reachable(f.else_node)) {
        any_reachable = true;
        f.else_verdict = view.verdict(f.else_node);
      }
      if (any_reachable) out.guards.push_back(std::move(f));
    }
  }

  void parser_transitions() {
    for (const auto& [key, cand] : parser_cases) {
      NodeId a = consider(cand);
      if (a == cfg::kNoNode) continue;
      emit(SiteKind::kParserTransition, a, std::get<1>(key),
           std::get<2>(key), -1, -1, {}, {}, std::get<0>(key));
    }
  }

  void entries_and_ranks() {
    for (const p4::TableDef& t : dp.program.tables) {
      std::vector<const p4::TableEntry*> ordered = rules.ordered_entries(t);
      std::vector<NodeId> anchors(ordered.size(), cfg::kNoNode);
      for (size_t i = 0; i < ordered.size(); ++i) {
        auto it = table_entries.find({t.name, static_cast<int32_t>(i)});
        if (it == table_entries.end()) continue;  // table never applied
        anchors[i] = consider(it->second);
        if (anchors[i] != cfg::kNoNode) {
          emit(SiteKind::kTableEntry, anchors[i], t.name,
               static_cast<int32_t>(i));
        }
      }
      // Rank pairs: adjacent ordered entries that overlap and whose winner
      // is decided by priority or install order — swapping the metadata
      // flips the winner without touching the match space. Prefix-decided
      // pairs are skipped: rank is derived from the match itself there.
      size_t emitted = 0;
      for (size_t i = 0; i + 1 < ordered.size() &&
                         emitted < opts.max_rank_pairs_per_table;
           ++i) {
        const size_t j = i + 1;
        if (!p4::may_overlap(t, *ordered[i], *ordered[j])) continue;
        bool prefix_decided = false;
        for (size_t k = 0; k < t.keys.size(); ++k) {
          if (t.keys[k].kind == p4::MatchKind::kLpm &&
              ordered[i]->matches[k].prefix_len !=
                  ordered[j]->matches[k].prefix_len) {
            prefix_decided = true;
            break;
          }
        }
        if (prefix_decided) continue;
        ++out.considered;
        if (anchors[i] == cfg::kNoNode || anchors[j] == cfg::kNoNode) {
          ++out.dead;
          continue;
        }
        const int32_t decided_by =
            ordered[i]->priority != ordered[j]->priority ? 0 : 1;
        emit(SiteKind::kEntryRank, anchors[i], t.name,
             static_cast<int32_t>(i), decided_by, static_cast<int32_t>(j));
        ++emitted;
      }
    }
  }

  void checksum_sites() {
    for (const auto& [key, slot] : checksums) {
      NodeId a = consider(slot.first);
      if (a == cfg::kNoNode) continue;
      emit(SiteKind::kChecksum, a, slot.second, key.second, -1, -1, {}, {},
           key.first);
    }
  }

  void emit_sites() {
    for (const p4::PipelineDef& def : dp.program.pipelines) {
      if (def.deparser.emit_order.size() < 2) continue;
      // Anchor: entry node of the first live instance of this pipeline.
      NodeId anchor = cfg::kNoNode;
      for (const cfg::InstanceInfo& inst : g.instances()) {
        if (inst.pipeline != def.name) continue;
        if (view.live(inst.entry)) {
          anchor = inst.entry;
          break;
        }
      }
      for (size_t i = 0; i + 1 < def.deparser.emit_order.size(); ++i) {
        ++out.considered;
        if (anchor == cfg::kNoNode) {
          ++out.dead;
          continue;
        }
        emit(SiteKind::kEmit, anchor, def.name, static_cast<int32_t>(i), -1,
             -1, {}, {}, def.name);
      }
    }
  }

  void register_sites() {
    for (const p4::ActionDef& a : dp.program.actions) {
      for (size_t i = 0; i < a.ops.size(); ++i) {
        const p4::ActionOp& op = a.ops[i];
        // Register cells referenced by this op (dest or value operands).
        std::vector<std::string> cells;
        auto add_cell = [&](const std::string& name) {
          if (!util::starts_with(name, "REG:")) return;
          if (std::find(cells.begin(), cells.end(), name) == cells.end()) {
            cells.push_back(name);
          }
        };
        if (op.kind == p4::ActionOp::Kind::kAssign ||
            op.kind == p4::ActionOp::Kind::kHash) {
          add_cell(op.dest);
        }
        if (op.value != nullptr) {
          std::unordered_set<ir::FieldId> fields;
          ir::collect_fields(op.value, fields);
          std::vector<std::string> names;
          for (ir::FieldId f : fields) names.push_back(ctx.fields.name(f));
          std::sort(names.begin(), names.end());
          for (const std::string& n : names) add_cell(n);
        }
        for (const std::string& cell : cells) {
          // Skew target: the neighbouring cell, when declared.
          const size_t pos_at = cell.rfind("-POS:");
          if (pos_at == std::string::npos) continue;
          const uint64_t pos =
              std::strtoull(cell.c_str() + pos_at + 5, nullptr, 10);
          const std::string base = cell.substr(4, pos_at - 4);
          std::string skewed = p4::register_field(base, pos + 1);
          if (!dp.program.field_width(skewed).has_value()) {
            if (pos == 0) continue;  // single-cell register: nothing to skew
            skewed = p4::register_field(base, pos - 1);
            if (!dp.program.field_width(skewed).has_value()) continue;
          }
          ++out.considered;
          auto it = action_ops.find({a.name, static_cast<int32_t>(i)});
          NodeId anchor =
              it == action_ops.end() ? cfg::kNoNode : it->second.live;
          if (anchor == cfg::kNoNode) {
            ++out.dead;
            continue;
          }
          emit(SiteKind::kRegisterIndex, anchor, a.name,
               static_cast<int32_t>(i), -1, -1, cell);
        }
      }
    }
  }

  void toolchain_sites() {
    auto emit_fault = [&](NodeId anchor, sim::FaultSpec spec) {
      emit(SiteKind::kToolchain, anchor, fault_slug(spec.kind), -1, -1, -1,
           {}, std::move(spec));
    };

    // kParserSkipSelect: per live (instance, state) with select cases.
    for (const auto& [key, cand] : parser_states) {
      const p4::PipelineDef* def = dp.program.find_pipeline(key.first);
      if (def == nullptr) continue;
      const p4::ParserState* st = def->parser.find_state(key.second);
      if (st == nullptr || st->cases.empty()) continue;
      ++out.considered;
      if (cand.live == cfg::kNoNode) {
        ++out.dead;
        continue;
      }
      sim::FaultSpec spec;
      spec.kind = sim::FaultKind::kParserSkipSelect;
      spec.instance = instance_name(g.node(cand.live).instance);
      spec.parser_state = key.second;
      emit_fault(cand.live, std::move(spec));
    }

    // Per-action faults, anchored at a live expansion of the first
    // qualifying op.
    for (const p4::ActionDef& a : dp.program.actions) {
      std::vector<int32_t> assigns;
      for (size_t i = 0; i < a.ops.size(); ++i) {
        if (a.ops[i].kind == p4::ActionOp::Kind::kAssign) {
          assigns.push_back(static_cast<int32_t>(i));
        }
      }
      auto live_op = [&](int32_t idx) -> NodeId {
        auto it = action_ops.find({a.name, idx});
        return it == action_ops.end() ? cfg::kNoNode : it->second.live;
      };
      if (!assigns.empty()) {
        ++out.considered;
        NodeId anchor = live_op(assigns[0]);
        if (anchor == cfg::kNoNode) {
          ++out.dead;
        } else {
          sim::FaultSpec spec;
          spec.kind = sim::FaultKind::kDropAssignment;
          spec.action = a.name;
          emit_fault(anchor, std::move(spec));
        }
      }
      if (assigns.size() >= 2 && a.ops[assigns[0]].dest != a.ops[assigns[1]].dest) {
        ++out.considered;
        NodeId anchor = live_op(assigns[0]);
        if (anchor == cfg::kNoNode) {
          ++out.dead;
        } else {
          sim::FaultSpec spec;
          spec.kind = sim::FaultKind::kSwappedAssignments;
          spec.action = a.name;
          emit_fault(anchor, std::move(spec));
        }
      }
      // kDropSetValid: per live setValid op, scoped to its instance.
      for (size_t i = 0; i < a.ops.size(); ++i) {
        if (a.ops[i].kind != p4::ActionOp::Kind::kSetValid) continue;
        ++out.considered;
        NodeId anchor = live_op(static_cast<int32_t>(i));
        if (anchor == cfg::kNoNode) {
          ++out.dead;
          continue;
        }
        sim::FaultSpec spec;
        spec.kind = sim::FaultKind::kDropSetValid;
        spec.instance = instance_name(g.node(anchor).instance);
        spec.header = a.ops[i].header;
        emit_fault(anchor, std::move(spec));
      }
    }

    // kWrongDefaultAction: per table with a live miss path whose default
    // action does something (clearing a no-op default is not a bug).
    for (const p4::TableDef& t : dp.program.tables) {
      std::string def_action = t.default_action;
      auto ov = rules.default_overrides.find(t.name);
      if (ov != rules.default_overrides.end()) def_action = ov->second.action;
      const p4::ActionDef* da = dp.program.find_action(def_action);
      if (da == nullptr || da->ops.empty()) continue;
      ++out.considered;
      auto it = table_misses.find(t.name);
      NodeId anchor = it == table_misses.end() ? cfg::kNoNode : it->second.live;
      if (anchor == cfg::kNoNode) {
        ++out.dead;
        continue;
      }
      sim::FaultSpec spec;
      spec.kind = sim::FaultKind::kWrongDefaultAction;
      spec.table = t.name;
      emit_fault(anchor, std::move(spec));
    }

    // kMaskFoldBug / kWrongCompareWidth: keyed off live table entries.
    std::map<std::string, NodeId> wide_fields;  // field -> anchor
    bool any_ternary = false;
    NodeId ternary_anchor = cfg::kNoNode;
    for (const p4::TableDef& t : dp.program.tables) {
      NodeId anchor = cfg::kNoNode;
      for (size_t i = 0; i < rules.ordered_entries(t).size(); ++i) {
        auto it = table_entries.find({t.name, static_cast<int32_t>(i)});
        if (it != table_entries.end() && it->second.live != cfg::kNoNode) {
          anchor = it->second.live;
          break;
        }
      }
      if (anchor == cfg::kNoNode) continue;
      for (const p4::TableKey& k : t.keys) {
        if (k.kind == p4::MatchKind::kTernary && !any_ternary) {
          any_ternary = true;
          ternary_anchor = anchor;
        }
        std::optional<int> w = dp.program.field_width(k.field);
        if (w.has_value() && *w > 16 && !wide_fields.count(k.field)) {
          wide_fields.emplace(k.field, anchor);
        }
      }
    }
    if (any_ternary) {
      ++out.considered;
      sim::FaultSpec spec;
      spec.kind = sim::FaultKind::kMaskFoldBug;
      emit_fault(ternary_anchor, std::move(spec));
    }
    for (const auto& [field, anchor] : wide_fields) {
      ++out.considered;
      sim::FaultSpec spec;
      spec.kind = sim::FaultKind::kWrongCompareWidth;
      spec.field = field;
      emit_fault(anchor, std::move(spec));
    }

    // kSkipMetadataZero: one program-level site when metadata exists.
    if (!dp.program.metadata.empty()) {
      ++out.considered;
      sim::FaultSpec spec;
      spec.kind = sim::FaultKind::kSkipMetadataZero;
      emit_fault(g.entry(), std::move(spec));
    }
  }

  void summary_sites() {
    static const char* kSlugs[] = {"drop-branch", "widen-guard",
                                   "drop-effect"};
    for (int i = 0; i < 3; ++i) {
      ++out.considered;
      emit(SiteKind::kSummary, g.entry(), kSlugs[i], i);
    }
  }

  void run() {
    scan_origins();
    guards();
    parser_transitions();
    entries_and_ranks();
    checksum_sites();
    emit_sites();
    register_sites();
    toolchain_sites();
    summary_sites();
  }
};

}  // namespace

const char* site_kind_name(SiteKind k) noexcept {
  switch (k) {
    case SiteKind::kGuard: return "guard";
    case SiteKind::kParserTransition: return "parser-transition";
    case SiteKind::kTableEntry: return "table-entry";
    case SiteKind::kEntryRank: return "entry-rank";
    case SiteKind::kChecksum: return "checksum";
    case SiteKind::kEmit: return "emit";
    case SiteKind::kRegisterIndex: return "register-index";
    case SiteKind::kToolchain: return "toolchain";
    case SiteKind::kSummary: return "summary";
  }
  return "?";
}

InjectResult find_injection_sites(const ir::Context& ctx,
                                  const p4::DataPlane& dp,
                                  const p4::RuleSet& rules, const cfg::Cfg& g,
                                  const InjectOptions& opts) {
  InjectResult out;
  LiveView view = analyze(ctx, g, opts.state_budget);
  Enumerator e(ctx, dp, rules, g, opts, view, out);
  e.run();
  return out;
}

std::vector<GuardFact> guard_constancy(const ir::Context& ctx,
                                       const cfg::Cfg& g,
                                       size_t state_budget) {
  LiveView view = analyze(ctx, g, state_budget);
  std::map<std::tuple<int, int32_t>, std::pair<NodeId, NodeId>> arms;
  for (NodeId n = 0; n < g.size(); ++n) {
    const cfg::Origin& o = g.origin(n);
    if (o.kind != OriginKind::kIfGuard) continue;
    auto [it, fresh] = arms.try_emplace(
        std::make_tuple(g.node(n).instance, o.index),
        std::make_pair(cfg::kNoNode, cfg::kNoNode));
    (o.sub == 0 ? it->second.first : it->second.second) = n;
  }
  std::vector<GuardFact> out;
  for (const auto& [key, pair] : arms) {
    GuardFact f;
    f.then_node = pair.first;
    f.else_node = pair.second;
    f.instance = std::get<0>(key);
    if (f.instance >= 0) {
      const cfg::InstanceInfo& inst =
          g.instances()[static_cast<size_t>(f.instance)];
      f.instance_name = inst.name;
      f.pipeline = inst.pipeline;
    }
    f.ordinal = std::get<1>(key);
    bool any = false;
    if (f.then_node != cfg::kNoNode && view.reachable(f.then_node)) {
      any = true;
      f.then_verdict = view.verdict(f.then_node);
    }
    if (f.else_node != cfg::kNoNode && view.reachable(f.else_node)) {
      any = true;
      f.else_verdict = view.verdict(f.else_node);
    }
    if (any) out.push_back(std::move(f));
  }
  return out;
}

}  // namespace meissa::analysis
