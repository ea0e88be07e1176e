// Table rule sets — the control-plane state against which a data plane is
// tested. Meissa takes the rule set as an input alongside the program
// (Fig. 2) and expands each table into per-entry CFG branches.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "p4/program.hpp"

namespace meissa::p4 {

// One key's match specification; interpretation depends on MatchKind:
//   exact   — value
//   ternary — value/mask
//   lpm     — value/prefix_len
//   range   — [lo, hi]
struct KeyMatch {
  uint64_t value = 0;
  uint64_t mask = 0;
  int prefix_len = 0;
  uint64_t lo = 0;
  uint64_t hi = 0;

  static KeyMatch exact(uint64_t v);
  static KeyMatch ternary(uint64_t v, uint64_t m);
  static KeyMatch lpm(uint64_t v, int prefix_len);
  static KeyMatch range(uint64_t lo, uint64_t hi);
  static KeyMatch wildcard();  // ternary with zero mask
};

struct TableEntry {
  std::string table;
  std::vector<KeyMatch> matches;  // one per table key
  std::string action;
  std::vector<uint64_t> args;  // one per action parameter
  int priority = 0;            // smaller value = higher priority (ternary)
};

struct RuleSet {
  std::string name;
  std::vector<TableEntry> entries;
  // Per-table override of the program's default action ("miss" behavior).
  struct DefaultAction {
    std::string action;
    std::vector<uint64_t> args;
  };
  std::unordered_map<std::string, DefaultAction> default_overrides;

  void add(TableEntry e) { entries.push_back(std::move(e)); }
  // Removes `table`'s last installed entry (one rule-churn update); false
  // when the table has none left.
  bool remove_last_entry(std::string_view table);

  // Entries of one table in match order (see entry_rank below): longest
  // prefix first, then ascending priority number, then install order.
  // Exact-only tables keep pure insertion order (no rank dimensions apply).
  std::vector<const TableEntry*> ordered_entries(const TableDef& table) const;

  // Synthetic rule-set "lines": one line per entry plus one per override —
  // the measure behind the paper's "set-4 is more than 200,000 LOC".
  size_t loc() const {
    return entries.size() + default_overrides.size();
  }
};

// The explicit winner rule for entries that match the same key values:
//   1. longest prefix first — lexicographically over every lpm key, so a
//      /24 route always beats a /16 whatever order they were installed in;
//   2. then ascending priority number (the ternary/range tiebreak);
//   3. then install order (the caller's index; this function returns 0).
// Returns <0 when `a` outranks `b`, >0 when `b` outranks `a`, 0 on a full
// tie. Shared by RuleSet::ordered_entries (which fixes the symbolic
// engine's branch order) and sim::Device's concrete lookup, so the two
// semantics cannot diverge on overlapping entries.
int entry_rank(const std::vector<MatchKind>& key_kinds, const TableEntry& a,
               const TableEntry& b);

// Builds the match predicate of one key against `field_expr`.
ir::ExprRef key_predicate(ir::ExprArena& arena, ir::ExprRef field_expr,
                          MatchKind kind, const KeyMatch& m);

// Conjunction of all key predicates of `entry` for `table`.
ir::ExprRef entry_predicate(ir::Context& ctx, const Program& prog,
                            const TableDef& table, const TableEntry& entry,
                            const std::function<ir::ExprRef(std::string_view)>&
                                field_lookup);

// Conservative static overlap test: false only when the two entries can
// never match the same key values (used to avoid emitting useless
// higher-priority negations during table expansion).
bool may_overlap(const TableDef& table, const TableEntry& a,
                 const TableEntry& b);

// Validates every entry of `rules` against `prog` (tables exist, key
// arity/widths fit, actions permitted, argument arity/widths fit).
void validate_rules(const Program& prog, const RuleSet& rules);

}  // namespace meissa::p4
