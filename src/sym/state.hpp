// Symbolic state for DFS path exploration: the paper's value stack V and
// condition stack C (§3.2, Fig. 6), with O(1) undo for backtracking. V is
// a dense FieldId-indexed store and ⟦V⟧e reuses one substitution memo, so
// executing a node allocates nothing once the buffers have grown.
#pragma once

#include <algorithm>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "cfg/cfg.hpp"
#include "ir/stmt.hpp"

namespace meissa::sym {

// A path's final V: each assigned field once, sorted by FieldId, so
// comparing or merging two paths' values is one linear pass. FieldId order
// depends on thread scheduling: output ordered by field uses by_name().
using Values = std::vector<std::pair<ir::FieldId, ir::ExprRef>>;

// The value `vs` gives `f`, or nullptr when `f` is absent.
inline ir::ExprRef find_value(const Values& vs, ir::FieldId f) {
  auto it = std::lower_bound(
      vs.begin(), vs.end(), f,
      [](const auto& p, ir::FieldId x) { return p.first < x; });
  return it != vs.end() && it->first == f ? it->second : nullptr;
}

// One linear merge: visit(f, va, vb, in_a) for each field of either list,
// in FieldId order, where a side that lacks f reads as missing(f).
template <class Missing, class Visit>
void merge_values(const Values& a, const Values& b, Missing&& missing,
                  Visit&& visit) {
  auto i = a.begin();
  auto j = b.begin();
  while (i != a.end() || j != b.end()) {
    const bool in_a = j == b.end() || (i != a.end() && i->first <= j->first);
    const bool in_b = i == a.end() || (j != b.end() && j->first <= i->first);
    const ir::FieldId f = in_a ? i->first : j->first;
    const ir::ExprRef va = in_a ? (i++)->second : missing(f);
    const ir::ExprRef vb = in_b ? (j++)->second : missing(f);
    visit(f, va, vb, in_a);
  }
}

// `vs` in field-name order, the scheduling-independent one. Each name is
// looked up once, not once per comparison.
inline Values by_name(const Values& vs, const ir::FieldTable& fields) {
  std::vector<std::pair<const std::string*, size_t>> order;
  order.reserve(vs.size());
  for (size_t i = 0; i < vs.size(); ++i) {
    order.emplace_back(&fields.name(vs[i].first), i);
  }
  std::sort(order.begin(), order.end(),
            [](const auto& a, const auto& b) { return *a.first < *b.first; });
  Values out;
  out.reserve(vs.size());
  for (const auto& [name, i] : order) out.push_back(vs[i]);
  return out;
}

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
    ir::ExprRef v = assigned(f);
    return v != nullptr ? v : ctx_.var(f);
  }

  // ⟦V⟧e — substitutes current values into `e` (re-simplifying).
  ir::ExprRef subst(ir::ExprRef e) {
    return ir::substitute(
        e, ctx_.arena, [this](ir::FieldId f, int) { return assigned(f); },
        memo_);
  }

  void assign(ir::FieldId f, ir::ExprRef value) {
    // Grown on demand: the store spans the largest field ever assigned,
    // not the whole field table.
    if (f >= values_.size()) values_.resize(static_cast<size_t>(f) + 1);
    undo_.push_back({f, values_[f]});
    values_[f] = value;
  }

  void add_cond(ir::ExprRef c) { conds_.push_back(c); }
  void add_obligation(HashObligation o) { obligations_.push_back(std::move(o)); }

  const std::vector<ir::ExprRef>& conds() const { return conds_; }
  const std::vector<HashObligation>& obligations() const {
    return obligations_;
  }
  // Every assigned field with its current value, built from the undo log
  // (the path's assignments, not the field table). A field assigned twice
  // yields equal pairs, which sort next to each other.
  Values values() const {
    Values out;
    out.reserve(undo_.size());
    for (const auto& [f, prev] : undo_) out.emplace_back(f, values_[f]);
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }

  struct Mark {
    size_t undo;
    size_t conds;
    size_t obligations;
  };
  Mark mark() const { return {undo_.size(), conds_.size(), obligations_.size()}; }

  void rollback(const Mark& m) {
    while (undo_.size() > m.undo) {
      values_[undo_.back().first] = undo_.back().second;
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
  ir::ExprRef assigned(ir::FieldId f) const {
    return f < values_.size() ? values_[f] : nullptr;
  }

  ir::Context& ctx_;
  std::string fresh_ns_;
  uint64_t fresh_local_ = 0;
  std::deque<std::pair<std::string, int>> pinned_;
  // V as a dense FieldId -> value store; nullptr means never assigned.
  std::vector<ir::ExprRef> values_;
  std::vector<std::pair<ir::FieldId, ir::ExprRef>> undo_;  // (field, prev)
  ir::SubstMemo memo_;  // scratch of subst(), reused across calls
  std::vector<ir::ExprRef> conds_;
  std::vector<HashObligation> obligations_;
};

}  // namespace meissa::sym
