// Dense concrete field state — the one concrete-state representation the
// device's execution arena, the sender's concretization and cfg::eval_path
// share.
//
// Cells are indexed by FieldId and epoch-stamped: cells_[f].value is live
// iff cells_[f].stamp == epoch_, so forgetting every write (one packet, one
// test case) is one counter bump instead of a clear over the whole field
// universe. Value and stamp share a cell so a field access touches one
// cache line.
#pragma once

#include <optional>
#include <vector>

#include "ir/expr.hpp"

namespace meissa::ir {

class DenseState {
 public:
  // Forgets every write and makes room for `nfields` fields. Until written,
  // fields below `zero_limit` read 0 (a sender completing its model with
  // zeros passes the field-table size); the others are unbound (the
  // device, and every replay that must see unbound reads, pass 0).
  void reset(size_t nfields, size_t zero_limit = 0) {
    if (++epoch_ == 0) {
      // Epoch wrap: stamps written 2^32 resets ago could alias the fresh
      // epoch, so refill once and restart from 1.
      for (Cell& c : cells_) c.stamp = 0;
      epoch_ = 1;
    }
    if (nfields > cells_.size()) cells_.resize(nfields);
    zero_limit_ = zero_limit;
  }

  // The field's value, or nullopt when it is unbound.
  std::optional<uint64_t> find(FieldId f) const noexcept {
    if (written(f)) return cells_[f].value;
    if (f < zero_limit_) return 0;
    return std::nullopt;
  }
  bool has(FieldId f) const noexcept { return written(f) || f < zero_limit_; }
  // The field's value; unbound fields read 0.
  uint64_t get(FieldId f) const noexcept {
    return written(f) ? cells_[f].value : 0;
  }

  // Grows the store when `f` was interned after the last reset.
  void set(FieldId f, uint64_t v) {
    if (f >= cells_.size()) cells_.resize(static_cast<size_t>(f) + 1);
    cells_[f].value = v;
    cells_[f].stamp = epoch_;
  }
  void load(const ConcreteState& s) {
    for (const auto& [f, v] : s) set(f, v);
  }

  // Number of fields the store has room for.
  size_t size() const noexcept { return cells_.size(); }

 private:
  struct Cell {
    uint64_t value = 0;
    uint32_t stamp = 0;
  };

  bool written(FieldId f) const noexcept {
    return f < cells_.size() && cells_[f].stamp == epoch_;
  }

  std::vector<Cell> cells_;
  uint32_t epoch_ = 1;  // fresh cells carry stamp 0: never live
  size_t zero_limit_ = 0;
};

inline std::optional<uint64_t> eval(ExprRef e, const DenseState& state) {
  return eval_with(e, [&state](FieldId f) { return state.find(f); });
}

}  // namespace meissa::ir
