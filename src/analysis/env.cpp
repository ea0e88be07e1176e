#include "analysis/env.hpp"

namespace meissa::analysis {

smt::Domain PathEnv::domain_copy(ir::FieldId f, int width) const {
  auto it = slots_.find(f);
  if (it != slots_.end()) return it->second.dom;
  return smt::Domain(width);
}

void PathEnv::absorb(const std::vector<smt::Atom>& atoms,
                     const std::vector<ir::ExprRef>& opaque, bool undoable) {
  for (const smt::Atom& a : atoms) {
    auto [it, fresh] = slots_.try_emplace(a.field, Slot(a.width));
    if (undoable) {
      undo_.push_back(
          Undo{a.field, false, fresh ? std::nullopt
                                     : std::optional<smt::Domain>(it->second.dom)});
    }
    it->second.dom.require(a);
  }
  for (ir::ExprRef e : opaque) {
    std::unordered_set<ir::FieldId> fields;
    ir::collect_fields(e, fields);
    for (ir::FieldId f : fields) {
      auto [it, fresh] = slots_.try_emplace(f, Slot(ctx_.fields.width(f)));
      (void)fresh;
      ++it->second.poison;
      if (undoable) undo_.push_back(Undo{f, true, std::nullopt});
    }
  }
}

void PathEnv::add_precondition(ir::ExprRef c) {
  if (c == nullptr) return;
  std::vector<smt::Atom> atoms;
  std::vector<ir::ExprRef> opaque;
  smt::decompose_conjunction(c, atoms, opaque);
  for (const smt::Atom& a : atoms) {
    if (a.field == ir::kInvalidField) {
      base_contradictory_ = true;
      return;
    }
  }
  absorb(atoms, opaque, /*undoable=*/false);
  for (const smt::Atom& a : atoms) {
    if (slots_.at(a.field).dom.contradictory()) base_contradictory_ = true;
  }
}

Verdict PathEnv::assume(ir::ExprRef c) {
  if (base_contradictory_) return Verdict::kRefuted;
  std::vector<smt::Atom> atoms;
  std::vector<ir::ExprRef> opaque;
  smt::decompose_conjunction(c, atoms, opaque);
  for (const smt::Atom& a : atoms) {
    if (a.field == ir::kInvalidField) return Verdict::kRefuted;
  }

  // Refutation: refine copies of the touched domains by all atoms.
  std::unordered_map<ir::FieldId, smt::Domain> refined;
  for (const smt::Atom& a : atoms) {
    smt::Domain& d =
        refined.try_emplace(a.field, domain_copy(a.field, a.width)).first->second;
    d.require(a);
    if (d.contradictory()) return Verdict::kRefuted;
  }

  Verdict v = Verdict::kUnknown;
  if (opaque.empty() && !atoms.empty()) {
    bool all_implied = true;
    for (const smt::Atom& a : atoms) {
      smt::Domain neg = domain_copy(a.field, a.width);
      neg.require(smt::negate_atom(a));
      if (!neg.contradictory()) {
        all_implied = false;
        break;
      }
    }
    if (all_implied) {
      v = Verdict::kImplied;
    } else {
      bool complete = true;  // no involved field ever poisoned
      for (const auto& [f, d] : refined) {
        auto it = slots_.find(f);
        if (it != slots_.end() && it->second.poison > 0) {
          complete = false;
          break;
        }
      }
      if (complete) {
        bool witnessed = true;
        for (const auto& [f, d] : refined) {
          bool decided = true;
          std::optional<uint64_t> w = d.pick_value(decided);
          if (!decided || !w) {
            witnessed = false;
            break;
          }
        }
        if (witnessed) v = Verdict::kSatisfiable;
      }
    }
  } else if (opaque.empty() && atoms.empty()) {
    // Constant-true after decomposition.
    v = Verdict::kImplied;
  }

  absorb(atoms, opaque, /*undoable=*/true);
  return v;
}

void PathEnv::rollback(Mark m) {
  while (undo_.size() > m) {
    Undo& u = undo_.back();
    auto it = slots_.find(u.field);
    if (u.poisoned) {
      --it->second.poison;
    } else if (u.dom) {
      it->second.dom = std::move(*u.dom);
    } else {
      slots_.erase(it);  // the atom created the slot
    }
    undo_.pop_back();
  }
}

}  // namespace meissa::analysis
