#include "analysis/dataflow.hpp"

#include <algorithm>
#include <iterator>

#include "p4/program.hpp"

namespace meissa::analysis {

namespace {

// Decomposed predicate of one assume node (empty for other nodes).
std::vector<smt::Atom> node_atoms(const cfg::Cfg& g, cfg::NodeId id) {
  std::vector<smt::Atom> atoms;
  const cfg::Node& n = g.node(id);
  if (!n.is_hash && n.stmt.kind == ir::StmtKind::kAssume) {
    std::vector<ir::ExprRef> opaque;
    smt::decompose_conjunction(n.stmt.expr, atoms, opaque);
  }
  return atoms;
}

}  // namespace

std::vector<cfg::NodeId> region_order(const cfg::Cfg& g, cfg::NodeId start,
                                      cfg::NodeId stop,
                                      std::vector<uint8_t>& in_region) {
  in_region.assign(g.size(), 0);
  std::vector<cfg::NodeId> order;
  std::vector<std::pair<cfg::NodeId, size_t>> stack{{start, 0}};
  in_region[start] = 1;
  while (!stack.empty()) {
    auto& [n, i] = stack.back();
    const std::vector<cfg::NodeId>& succ = g.node(n).succ;
    if (n != stop && i < succ.size()) {
      const cfg::NodeId s = succ[i++];
      if (!in_region[s]) {
        in_region[s] = 1;
        stack.emplace_back(s, 0);
      }
    } else {
      order.push_back(n);
      stack.pop_back();
    }
  }
  std::reverse(order.begin(), order.end());
  return order;
}

ValueDomain::ValueDomain(const ir::Context& ctx, const cfg::Cfg& g)
    : ctx_(ctx), g_(g) {
  vfields_.resize(g.instances().size());
  for (size_t i = 0; i < g.instances().size(); ++i) {
    const cfg::InstanceInfo& inst = g.instances()[i];
    if (inst.validity.size() > kMaxValidityBits) continue;
    std::vector<std::pair<std::string, ir::FieldId>> named(
        inst.validity.begin(), inst.validity.end());
    std::sort(named.begin(), named.end());
    for (const auto& [h, f] : named) {
      vbit_.emplace(f, std::make_pair(static_cast<int>(i),
                                      static_cast<int>(vfields_[i].size())));
      vfields_[i].push_back(f);
    }
  }
}

// Switches the combo refinement to `instance` once every one of its
// validity bits is a per-field constant (true right after the instance's
// validity-reset prologue). The single resulting combo is exact for every
// concrete state the per-field constants represent, so this strengthens
// the state soundly; if some bit is not constant yet, the previous combos
// (about a different instance's bits, which this instance never writes)
// remain valid and are kept.
void ValueDomain::maybe_activate(State& s, int instance) const {
  if (s.vcfg.active && s.vcfg.instance == instance) return;
  const std::vector<ir::FieldId>& fields =
      vfields_[static_cast<size_t>(instance)];
  if (fields.empty()) return;
  uint32_t combo = 0;
  for (size_t b = 0; b < fields.size(); ++b) {
    auto it = s.values.find(fields[b]);
    uint64_t v = 0;
    if (it == s.values.end() || !it->second.is_constant(v)) return;
    if (v != 0) combo |= uint32_t{1} << b;
  }
  s.vcfg.active = true;
  s.vcfg.instance = instance;
  s.vcfg.combos = {combo};
}

std::unordered_map<ir::FieldId, int> ValueDomain::compute_relevant(
    const ir::Context& ctx, const cfg::Cfg& g,
    std::span<const uint8_t> region) {
  std::unordered_map<ir::FieldId, int> relevant;
  std::vector<std::pair<ir::FieldId, ir::FieldId>> copies;  // target <- src
  for (cfg::NodeId id = 0; id < g.size(); ++id) {
    if (!region.empty() && region[id] == 0) continue;
    const cfg::Node& n = g.node(id);
    if (n.is_hash) continue;
    if (n.stmt.kind == ir::StmtKind::kAssume) {
      for (const smt::Atom& a : node_atoms(g, id)) {
        if (a.field != ir::kInvalidField) relevant.emplace(a.field, a.width);
      }
    } else if (n.stmt.kind == ir::StmtKind::kAssign &&
               n.stmt.expr->kind == ir::ExprKind::kField) {
      copies.emplace_back(n.stmt.target, n.stmt.expr->field);
    }
  }
  for (const cfg::InstanceInfo& inst : g.instances()) {
    for (const auto& [h, f] : inst.validity) relevant.emplace(f, 1);
  }
  // Transitive copy sources: `t <- s` makes s relevant whenever t is.
  bool grew = true;
  while (grew) {
    grew = false;
    for (const auto& [t, s] : copies) {
      if (relevant.count(t) != 0 && relevant.count(s) == 0) {
        relevant.emplace(s, ctx.fields.width(s));
        grew = true;
      }
    }
  }
  return relevant;
}

std::unordered_map<ir::FieldId, int> ValueDomain::compute_meta(
    const ir::Context& ctx, const cfg::Cfg& g) {
  std::unordered_map<ir::FieldId, int> meta;
  for (cfg::NodeId id = 0; id < g.size(); ++id) {
    const cfg::Node& n = g.node(id);
    if (n.is_hash || n.instance != -1 ||
        n.stmt.kind != ir::StmtKind::kAssign) {
      continue;
    }
    const std::string& name = ctx.fields.name(n.stmt.target);
    if (name == p4::kDropFlag || name == p4::kEgressSpec) continue;
    meta.emplace(n.stmt.target, ctx.fields.width(n.stmt.target));
  }
  return meta;
}

Ternary ValueDomain::validity_of(const State& in, int instance,
                                 ir::FieldId vf) const {
  auto it = in.values.find(vf);
  uint64_t v = 0;
  if (it != in.values.end() && it->second.is_constant(v)) {
    return v != 0 ? Ternary::kTrue : Ternary::kFalse;
  }
  if (in.vcfg.active && in.vcfg.instance == instance) {
    auto bit = vbit_.find(vf);
    if (bit != vbit_.end() && bit->second.first == instance) {
      bool any0 = false, any1 = false;
      for (uint32_t c : in.vcfg.combos) {
        ((c >> bit->second.second) & 1u) != 0 ? any1 = true : any0 = true;
      }
      if (any1 && !any0) return Ternary::kTrue;
      if (any0 && !any1) return Ternary::kFalse;
    }
  }
  return Ternary::kUnknown;
}

Ternary ValueDomain::eval_assume(cfg::NodeId n, const State& in) const {
  const cfg::Node& node = g_.node(n);
  if (node.is_hash || node.stmt.kind != ir::StmtKind::kAssume) {
    return Ternary::kTrue;
  }
  Ternary result = Ternary::kTrue;
  std::vector<ir::ExprRef> opaque;
  std::vector<smt::Atom> atoms;
  smt::decompose_conjunction(node.stmt.expr, atoms, opaque);
  if (!opaque.empty()) result = Ternary::kUnknown;
  for (const smt::Atom& a : atoms) {
    if (a.field == ir::kInvalidField) return Ternary::kFalse;
    auto it = in.values.find(a.field);
    if (it == in.values.end()) {
      result = Ternary::kUnknown;
      continue;
    }
    switch (it->second.eval(a)) {
      case Ternary::kFalse:
        return Ternary::kFalse;  // one false conjunct refutes the node
      case Ternary::kUnknown:
        result = Ternary::kUnknown;
        break;
      case Ternary::kTrue:
        break;
    }
  }
  return result;
}

bool ValueDomain::transfer(cfg::NodeId id, State& out) const {
  const cfg::Node& n = g_.node(id);
  if (n.instance >= 0 &&
      static_cast<size_t>(n.instance) < vfields_.size()) {
    maybe_activate(out, n.instance);
  }
  // Writes to a validity bit tracked by the active combo set: constants
  // update every combo in place, anything else drops the refinement.
  auto write_validity = [&](ir::FieldId target,
                            const std::optional<uint64_t>& cval) {
    if (!out.vcfg.active) return;
    auto bit = vbit_.find(target);
    if (bit == vbit_.end() || bit->second.first != out.vcfg.instance) return;
    if (!cval) {
      out.vcfg = ValidityCombos{};
      return;
    }
    const uint32_t m = uint32_t{1} << bit->second.second;
    for (uint32_t& c : out.vcfg.combos) c = *cval != 0 ? c | m : c & ~m;
    std::sort(out.vcfg.combos.begin(), out.vcfg.combos.end());
    out.vcfg.combos.erase(
        std::unique(out.vcfg.combos.begin(), out.vcfg.combos.end()),
        out.vcfg.combos.end());
  };
  if (n.is_hash) {
    out.values.erase(n.hash.dest);
    if (meta_.count(n.hash.dest) != 0) {
      out.defs[n.hash.dest] = DefKind::kWritten;
    }
    write_validity(n.hash.dest, std::nullopt);
    return true;
  }
  switch (n.stmt.kind) {
    case ir::StmtKind::kNop:
      return true;
    case ir::StmtKind::kAssign: {
      const ir::FieldId target = n.stmt.target;
      std::optional<uint64_t> cval;
      auto rit = relevant_.find(target);
      if (rit != relevant_.end()) {
        ir::ExprRef e = n.stmt.expr;
        bool tracked = false;
        if (e->kind == ir::ExprKind::kConst) {
          out.values.insert_or_assign(
              target, ValueRange::constant(e->value, rit->second));
          cval = e->value;
          tracked = true;
        } else if (e->kind == ir::ExprKind::kField &&
                   e->width == rit->second) {
          auto sit = out.values.find(e->field);
          if (sit != out.values.end()) {
            ValueRange copied = sit->second;
            uint64_t v = 0;
            if (copied.is_constant(v)) cval = v;
            out.values.insert_or_assign(target, std::move(copied));
            tracked = true;
          }
        }
        if (!tracked) out.values.erase(target);
      }
      write_validity(target, cval);
      if (meta_.count(target) != 0) {
        out.defs[target] =
            n.instance >= 0 ? DefKind::kWritten : DefKind::kImplicit;
      }
      return true;
    }
    case ir::StmtKind::kAssume: {
      if (eval_assume(id, out) == Ternary::kFalse) return false;
      std::vector<smt::Atom> atoms;
      std::vector<ir::ExprRef> opaque;
      smt::decompose_conjunction(n.stmt.expr, atoms, opaque);
      for (const smt::Atom& a : atoms) {
        if (a.field == ir::kInvalidField) return false;
        auto rit = relevant_.find(a.field);
        if (rit == relevant_.end()) continue;
        auto it = out.values.find(a.field);
        ValueRange r =
            it != out.values.end() ? it->second : ValueRange(rit->second);
        r.refine(a);
        if (r.is_bottom()) return false;  // jointly contradictory
        if (r.is_top()) {
          if (it != out.values.end()) out.values.erase(it);
        } else if (it != out.values.end()) {
          it->second = std::move(r);
        } else {
          out.values.emplace(a.field, std::move(r));
        }
      }
      // Combo filtering: drop combos whose bit value falsifies an atom on a
      // tracked validity field. An emptied set refutes the whole predicate
      // (no reachable validity assignment satisfies it).
      if (out.vcfg.active) {
        for (const smt::Atom& a : atoms) {
          auto bit = vbit_.find(a.field);
          if (bit == vbit_.end() || bit->second.first != out.vcfg.instance) {
            continue;
          }
          const int shift = bit->second.second;
          auto& combos = out.vcfg.combos;
          combos.erase(std::remove_if(combos.begin(), combos.end(),
                                      [&](uint32_t c) {
                                        return !smt::atom_holds(
                                            (c >> shift) & 1u, a);
                                      }),
                       combos.end());
        }
        if (out.vcfg.combos.empty()) return false;
      }
      return true;
    }
  }
  return true;
}

void ValueDomain::join(State& into, const State& from) const {
  for (auto it = into.values.begin(); it != into.values.end();) {
    auto fit = from.values.find(it->first);
    if (fit == from.values.end()) {
      it = into.values.erase(it);  // absent = top
      continue;
    }
    it->second.join(fit->second);
    if (it->second.is_top()) {
      it = into.values.erase(it);
      continue;
    }
    ++it;
  }
  for (const auto& [f, kind] : from.defs) {
    auto [it, fresh] = into.defs.emplace(f, kind);
    if (!fresh && it->second != kind) it->second = DefKind::kMixed;
  }
  if (into.vcfg.active) {
    if (!from.vcfg.active || from.vcfg.instance != into.vcfg.instance) {
      into.vcfg = ValidityCombos{};  // inactive = top
    } else {
      std::vector<uint32_t> merged;
      merged.reserve(into.vcfg.combos.size() + from.vcfg.combos.size());
      std::set_union(into.vcfg.combos.begin(), into.vcfg.combos.end(),
                     from.vcfg.combos.begin(), from.vcfg.combos.end(),
                     std::back_inserter(merged));
      if (merged.size() > kMaxCombos) {
        into.vcfg = ValidityCombos{};
      } else {
        into.vcfg.combos = std::move(merged);
      }
    }
  }
}

Facts compute_facts(const ir::Context& ctx, const cfg::Cfg& g,
                    cfg::NodeId start, cfg::NodeId stop) {
  Facts f;
  f.refuted.assign(g.size(), 0);
  f.unreachable.assign(g.size(), 0);

  std::vector<uint8_t> in_region;
  const std::vector<cfg::NodeId> order = region_order(g, start, stop, in_region);
  std::unordered_map<ir::FieldId, int> relevant =
      ValueDomain::compute_relevant(ctx, g, in_region);
  if (relevant.empty()) return f;
  ValueDomain dom(ctx, g);
  dom.set_relevant(std::move(relevant));

  // Live IN states by topological position: a state is created by the
  // node's first processed predecessor and consumed by the node itself.
  std::vector<uint32_t> pos(g.size());
  for (size_t i = 0; i < order.size(); ++i) {
    pos[order[i]] = static_cast<uint32_t>(i);
  }
  std::vector<std::optional<AbsState>> live(order.size());
  live[0] = dom.boundary();
  for (size_t i = 0; i < order.size(); ++i) {
    const cfg::NodeId id = order[i];
    if (!live[i]) {
      f.unreachable[id] = 1;
      ++f.unreachable_count;
      continue;
    }
    AbsState s = std::move(*live[i]);
    live[i].reset();
    if (!dom.transfer(id, s)) {  // only assume nodes can fail
      f.refuted[id] = 1;
      ++f.refuted_count;
      continue;
    }
    if (id == stop) continue;  // flow ends at the region's exit
    const std::vector<cfg::NodeId>& succ = g.node(id).succ;
    for (size_t k = 0; k < succ.size(); ++k) {
      std::optional<AbsState>& to = live[pos[succ[k]]];
      if (to) {
        dom.join(*to, s);
      } else if (k + 1 == succ.size()) {
        to = std::move(s);
      } else {
        to = s;
      }
    }
  }
  return f;
}

}  // namespace meissa::analysis
