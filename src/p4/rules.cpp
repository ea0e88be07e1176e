#include "p4/rules.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace meissa::p4 {

KeyMatch KeyMatch::exact(uint64_t v) {
  KeyMatch m;
  m.value = v;
  return m;
}

KeyMatch KeyMatch::ternary(uint64_t v, uint64_t mask) {
  KeyMatch m;
  m.value = v;
  m.mask = mask;
  return m;
}

KeyMatch KeyMatch::lpm(uint64_t v, int prefix_len) {
  KeyMatch m;
  m.value = v;
  m.prefix_len = prefix_len;
  return m;
}

KeyMatch KeyMatch::range(uint64_t lo, uint64_t hi) {
  KeyMatch m;
  m.lo = lo;
  m.hi = hi;
  return m;
}

KeyMatch KeyMatch::wildcard() { return ternary(0, 0); }

namespace {

uint64_t lpm_mask(int prefix_len, int width) {
  if (prefix_len <= 0) return 0;
  if (prefix_len >= width) return util::mask_bits(width);
  return util::mask_bits(width) ^ util::mask_bits(width - prefix_len);
}

}  // namespace

int entry_rank(const std::vector<MatchKind>& key_kinds, const TableEntry& a,
               const TableEntry& b) {
  // 1. Longest prefix, lexicographically over every lpm key. The old rule
  // consulted only the first lpm key (later ones never broke ties) and, in
  // mixed lpm+ternary tables, let the priority number override prefix
  // length — so a /16 with a smaller priority value shadowed a /24.
  for (size_t i = 0; i < key_kinds.size(); ++i) {
    if (key_kinds[i] != MatchKind::kLpm) continue;
    if (a.matches[i].prefix_len != b.matches[i].prefix_len) {
      return a.matches[i].prefix_len > b.matches[i].prefix_len ? -1 : 1;
    }
  }
  // 2. Priority number (smaller wins) for everything prefixes left tied.
  if (a.priority != b.priority) return a.priority < b.priority ? -1 : 1;
  // 3. Full tie: install order, owned by the caller's indexing.
  return 0;
}

bool RuleSet::remove_last_entry(std::string_view table) {
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
    if (it->table == table) {
      entries.erase(std::next(it).base());
      return true;
    }
  }
  return false;
}

std::vector<const TableEntry*> RuleSet::ordered_entries(
    const TableDef& table) const {
  std::vector<const TableEntry*> out;
  for (const TableEntry& e : entries) {
    if (e.table == table.name) out.push_back(&e);
  }
  bool has_lpm = false;
  bool has_ternary_or_range = false;
  std::vector<MatchKind> kinds;
  kinds.reserve(table.keys.size());
  for (const TableKey& k : table.keys) {
    kinds.push_back(k.kind);
    has_lpm |= k.kind == MatchKind::kLpm;
    has_ternary_or_range |=
        k.kind == MatchKind::kTernary || k.kind == MatchKind::kRange;
  }
  if (has_lpm || has_ternary_or_range) {
    // Stable sort: entry_rank's full ties keep install order.
    std::stable_sort(out.begin(), out.end(),
                     [&](const TableEntry* a, const TableEntry* b) {
                       return entry_rank(kinds, *a, *b) < 0;
                     });
  }
  return out;
}

ir::ExprRef key_predicate(ir::ExprArena& arena, ir::ExprRef field_expr,
                          MatchKind kind, const KeyMatch& m) {
  const int w = field_expr->width;
  switch (kind) {
    case MatchKind::kExact:
      return arena.cmp(ir::CmpOp::kEq, field_expr,
                       arena.constant(m.value, w));
    case MatchKind::kTernary:
      return arena.masked_eq(field_expr, m.mask, m.value & m.mask);
    case MatchKind::kLpm: {
      uint64_t mask = lpm_mask(m.prefix_len, w);
      return arena.masked_eq(field_expr, mask, m.value & mask);
    }
    case MatchKind::kRange:
      return arena.band(
          arena.cmp(ir::CmpOp::kGe, field_expr, arena.constant(m.lo, w)),
          arena.cmp(ir::CmpOp::kLe, field_expr, arena.constant(m.hi, w)));
  }
  throw util::InternalError("key_predicate: bad MatchKind");
}

ir::ExprRef entry_predicate(
    ir::Context& ctx, const Program& prog, const TableDef& table,
    const TableEntry& entry,
    const std::function<ir::ExprRef(std::string_view)>& field_lookup) {
  util::check(entry.matches.size() == table.keys.size(),
              "entry_predicate: key arity mismatch");
  (void)prog;
  ir::ExprRef acc = ctx.arena.bool_const(true);
  for (size_t i = 0; i < table.keys.size(); ++i) {
    ir::ExprRef f = field_lookup(table.keys[i].field);
    acc = ctx.arena.band(
        acc, key_predicate(ctx.arena, f, table.keys[i].kind, entry.matches[i]));
  }
  return acc;
}

namespace {

// Match-set intersection test for a single key.
bool key_may_overlap(MatchKind kind, const KeyMatch& a, const KeyMatch& b,
                     int width) {
  switch (kind) {
    case MatchKind::kExact:
      return a.value == b.value;
    case MatchKind::kTernary: {
      uint64_t both = a.mask & b.mask;
      return ((a.value ^ b.value) & both) == 0;
    }
    case MatchKind::kLpm: {
      uint64_t both = lpm_mask(std::min(a.prefix_len, b.prefix_len), width);
      return ((a.value ^ b.value) & both) == 0;
    }
    case MatchKind::kRange:
      return a.lo <= b.hi && b.lo <= a.hi;
  }
  return true;
}

}  // namespace

bool may_overlap(const TableDef& table, const TableEntry& a,
                 const TableEntry& b) {
  for (size_t i = 0; i < table.keys.size(); ++i) {
    // Widths only matter for lpm masks; callers validated declarations, so
    // a conservative 64 is sound here only for equal prefixes — look the
    // width up from neither program nor context: use 64 and rely on
    // prefix_len <= width from validation.
    if (!key_may_overlap(table.keys[i].kind, a.matches[i], b.matches[i], 64)) {
      return false;
    }
  }
  return true;
}

void validate_rules(const Program& prog, const RuleSet& rules) {
  for (const TableEntry& e : rules.entries) {
    const TableDef* t = prog.find_table(e.table);
    if (t == nullptr) {
      throw util::ValidationError("rule references unknown table '" + e.table +
                                  "'");
    }
    if (e.matches.size() != t->keys.size()) {
      throw util::ValidationError("rule for '" + e.table +
                                  "' has wrong key arity");
    }
    for (size_t i = 0; i < t->keys.size(); ++i) {
      std::optional<int> w = prog.field_width(t->keys[i].field);
      util::check(w.has_value(), "validated table has unknown key field");
      const KeyMatch& m = e.matches[i];
      switch (t->keys[i].kind) {
        case MatchKind::kExact:
          if (!util::fits(m.value, *w)) {
            throw util::ValidationError("exact match value too wide for '" +
                                        t->keys[i].field + "'");
          }
          break;
        case MatchKind::kTernary:
          if (!util::fits(m.mask, *w) || !util::fits(m.value, *w)) {
            throw util::ValidationError("ternary match too wide for '" +
                                        t->keys[i].field + "'");
          }
          break;
        case MatchKind::kLpm:
          if (m.prefix_len < 0 || m.prefix_len > *w) {
            throw util::ValidationError("lpm prefix out of range for '" +
                                        t->keys[i].field + "'");
          }
          break;
        case MatchKind::kRange:
          if (m.lo > m.hi || !util::fits(m.hi, *w)) {
            throw util::ValidationError("bad range match for '" +
                                        t->keys[i].field + "'");
          }
          break;
      }
    }
    const ActionDef* a = prog.find_action(e.action);
    if (a == nullptr) {
      throw util::ValidationError("rule uses unknown action '" + e.action +
                                  "'");
    }
    bool permitted = false;
    for (const std::string& name : t->actions) permitted |= name == e.action;
    if (!permitted) {
      throw util::ValidationError("action '" + e.action +
                                  "' not permitted in table '" + e.table + "'");
    }
    if (e.args.size() != a->params.size()) {
      throw util::ValidationError("rule for '" + e.table +
                                  "' has wrong argument arity for action '" +
                                  e.action + "'");
    }
    for (size_t i = 0; i < e.args.size(); ++i) {
      if (!util::fits(e.args[i], a->params[i].width)) {
        throw util::ValidationError("argument " + std::to_string(i) +
                                    " too wide for action '" + e.action + "'");
      }
    }
  }
  for (const auto& [tname, def] : rules.default_overrides) {
    const TableDef* t = prog.find_table(tname);
    if (t == nullptr) {
      throw util::ValidationError("default override for unknown table '" +
                                  tname + "'");
    }
    const ActionDef* a = prog.find_action(def.action);
    if (a == nullptr || def.args.size() != a->params.size()) {
      throw util::ValidationError("bad default override for table '" + tname +
                                  "'");
    }
  }
}

}  // namespace meissa::p4
