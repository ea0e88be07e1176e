// Symbolic state for DFS path exploration: the paper's value stack V and
// condition stack C (§3.2, Fig. 6), with O(1) undo for backtracking.
#pragma once

#include <deque>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cfg/cfg.hpp"
#include "ir/stmt.hpp"

namespace meissa::sym {

// A hash whose keys were not pinned to constants at execution time: the
// destination was left as the fresh symbol `placeholder`, and the test
// driver must later verify hash(keys...) == model(placeholder) (paper §4).
struct HashObligation {
  ir::FieldId placeholder = ir::kInvalidField;
  p4::HashAlgo algo = p4::HashAlgo::kCrc16;
  std::vector<ir::ExprRef> key_exprs;  // input-terms at execution time
  std::vector<int> key_widths;
};

// Paper §4's concrete-hash rule, shared by the engine and the summary
// validator so both make the same decisions: a hash is computed when every
// key is a constant or is pinned by an `expr == const` conjunct of `conds`
// or `preconds` (e.g. an exact table match). Pinned keys are rewritten to
// constants in place. Returns the `dest_width`-bit hash value, or nullptr
// when some key stays symbolic.
ir::ExprRef concrete_hash(ir::Context& ctx, p4::HashAlgo algo,
                          std::vector<ir::ExprRef>& keys, int dest_width,
                          const std::vector<ir::ExprRef>& conds,
                          const std::vector<ir::ExprRef>& preconds);

// The mutable symbolic state of one DFS exploration. All three stacks
// (values, conditions, hash obligations) support mark/rollback.
class SymState {
 public:
  explicit SymState(ir::Context& ctx) : ctx_(ctx) {}

  // Namespaces this exploration's fresh symbols: "$free.<ns>.<k>" with a
  // local counter, instead of "$free.<N>" from the shared Context counter.
  // A deterministic ns makes fresh-symbol names (and thus every expression
  // built from them) independent of thread scheduling.
  void set_fresh_ns(std::string ns) {
    fresh_ns_ = std::move(ns);
    fresh_local_ = 0;
  }

  // Current symbolic value of a field: its assigned expression, or the
  // field variable itself when never assigned (the input symbol).
  ir::ExprRef value_of(ir::FieldId f) {
    auto it = values_.find(f);
    if (it != values_.end()) return it->second;
    return ctx_.var(f);
  }

  // ⟦V⟧e — substitutes current values into `e` (re-simplifying).
  ir::ExprRef subst(ir::ExprRef e) {
    return ir::substitute(e, ctx_.arena, [this](ir::FieldId f, int) {
      auto it = values_.find(f);
      return it != values_.end() ? it->second : nullptr;
    });
  }

  void assign(ir::FieldId f, ir::ExprRef value) {
    auto it = values_.find(f);
    undo_.push_back({f, it != values_.end() ? it->second : nullptr});
    values_[f] = value;
  }

  void add_cond(ir::ExprRef c) { conds_.push_back(c); }
  void add_obligation(HashObligation o) { obligations_.push_back(std::move(o)); }

  const std::vector<ir::ExprRef>& conds() const { return conds_; }
  const std::vector<HashObligation>& obligations() const {
    return obligations_;
  }
  const std::unordered_map<ir::FieldId, ir::ExprRef>& values() const {
    return values_;
  }

  struct Mark {
    size_t undo;
    size_t conds;
    size_t obligations;
  };
  Mark mark() const { return {undo_.size(), conds_.size(), obligations_.size()}; }

  void rollback(const Mark& m) {
    while (undo_.size() > m.undo) {
      auto& [f, prev] = undo_.back();
      if (prev == nullptr) {
        values_.erase(f);
      } else {
        values_[f] = prev;
      }
      undo_.pop_back();
    }
    conds_.resize(m.conds);
    obligations_.resize(m.obligations);
  }

  // Allocates a fresh, never-constrained symbol of the given width
  // (used for unpinned hash results). While pinned names are queued (see
  // pin_fresh), those are consumed first — without advancing the counter —
  // so a resumed exploration re-mints the exact names its checkpointed
  // prefix minted, then continues numbering where the original left off.
  ir::FieldId fresh_symbol(int width) {
    if (!pinned_.empty()) {
      std::pair<std::string, int> p = std::move(pinned_.front());
      pinned_.pop_front();
      return ctx_.fields.intern(p.first, p.second);
    }
    std::string name =
        fresh_ns_.empty()
            ? "$free." + std::to_string(ctx_.fresh_counter++)
            : "$free." + fresh_ns_ + "." + std::to_string(fresh_local_++);
    return ctx_.fields.intern(name, width);
  }

  // Checkpoint/resume support. The local counter is monotonic across one
  // exploration (abandoned branches bump it and never give indices back),
  // so a work-unit snapshot must carry it; pin_fresh queues the (name,
  // width) pairs the frontier path minted, in mint order.
  uint64_t fresh_counter() const { return fresh_local_; }
  void set_fresh_counter(uint64_t c) { fresh_local_ = c; }
  void pin_fresh(std::vector<std::pair<std::string, int>> names) {
    pinned_.assign(std::make_move_iterator(names.begin()),
                   std::make_move_iterator(names.end()));
  }
  bool has_pinned_fresh() const { return !pinned_.empty(); }

  ir::Context& ctx() { return ctx_; }

 private:
  ir::Context& ctx_;
  std::string fresh_ns_;
  uint64_t fresh_local_ = 0;
  std::deque<std::pair<std::string, int>> pinned_;
  std::unordered_map<ir::FieldId, ir::ExprRef> values_;
  std::vector<std::pair<ir::FieldId, ir::ExprRef>> undo_;
  std::vector<ir::ExprRef> conds_;
  std::vector<HashObligation> obligations_;
};

}  // namespace meissa::sym
