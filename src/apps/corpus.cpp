#include "apps/corpus.hpp"

#include <algorithm>
#include <cstdlib>
#include <unordered_map>

#include "analysis/validate.hpp"
#include "driver/sender.hpp"
#include "driver/tester.hpp"
#include "sim/toolchain.hpp"
#include "summary/summary.hpp"
#include "util/bits.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace meissa::apps::corpus {

using analysis::InjectionSite;
using analysis::SiteKind;

const char* mutation_kind_name(MutationKind k) noexcept {
  switch (k) {
    case MutationKind::kGuardOffByOne: return "guard-off-by-one";
    case MutationKind::kGuardDropValidity: return "guard-drop-validity";
    case MutationKind::kParserValueBump: return "parser-value-bump";
    case MutationKind::kParserMaskTruncate: return "parser-mask-truncate";
    case MutationKind::kEntryMaskTruncate: return "entry-mask-truncate";
    case MutationKind::kEntryWrongAction: return "entry-wrong-action";
    case MutationKind::kRankInversion: return "rank-inversion";
    case MutationKind::kChecksumDropSource: return "checksum-drop-source";
    case MutationKind::kEmitSwap: return "emit-swap";
    case MutationKind::kRegisterSkew: return "register-skew";
    case MutationKind::kToolchain: return "toolchain";
    case MutationKind::kSummary: return "summary";
    case MutationKind::kLegacy: return "legacy";
  }
  return "?";
}

namespace {

// ------------------------------------------------- expression mutation

int count_constants(ir::ExprRef e) {
  if (!e) return 0;
  if (e->kind == ir::ExprKind::kConst) return 1;
  return count_constants(e->lhs) + count_constants(e->rhs);
}

// Rebuilds `e` with its n-th (pre-order) constant bumped by +1, width-
// truncated. `n` counts down; the result may equal `e` when the arena's
// folding cancels the change.
ir::ExprRef bump_nth_constant(ir::ExprArena& a, ir::ExprRef e, int& n) {
  if (!e) return e;
  switch (e->kind) {
    case ir::ExprKind::kConst:
      if (n-- == 0) {
        return a.constant(util::truncate(e->value + 1, e->width), e->width);
      }
      return e;
    case ir::ExprKind::kField:
    case ir::ExprKind::kBoolConst:
      return e;
    case ir::ExprKind::kArith: {
      ir::ExprRef l = bump_nth_constant(a, e->lhs, n);
      ir::ExprRef r = bump_nth_constant(a, e->rhs, n);
      return (l == e->lhs && r == e->rhs) ? e : a.arith(e->arith_op(), l, r);
    }
    case ir::ExprKind::kCmp: {
      ir::ExprRef l = bump_nth_constant(a, e->lhs, n);
      ir::ExprRef r = bump_nth_constant(a, e->rhs, n);
      return (l == e->lhs && r == e->rhs) ? e : a.cmp(e->cmp_op(), l, r);
    }
    case ir::ExprKind::kBool: {
      ir::ExprRef l = bump_nth_constant(a, e->lhs, n);
      ir::ExprRef r = bump_nth_constant(a, e->rhs, n);
      if (l == e->lhs && r == e->rhs) return e;
      return e->bool_op() == ir::BoolOp::kAnd ? a.band(l, r) : a.bor(l, r);
    }
    case ir::ExprKind::kNot: {
      ir::ExprRef l = bump_nth_constant(a, e->lhs, n);
      return l == e->lhs ? e : a.bnot(l);
    }
  }
  return e;
}

void collect_conjuncts(ir::ExprRef e, std::vector<ir::ExprRef>& out) {
  if (e->kind == ir::ExprKind::kBool &&
      e->bool_op() == ir::BoolOp::kAnd) {
    collect_conjuncts(e->lhs, out);
    collect_conjuncts(e->rhs, out);
    return;
  }
  out.push_back(e);
}

// `hdr.X.$valid == c` (either operand order) — the shape
// ProgramBuilder::is_valid produces at the program level.
bool is_validity_test(const ir::Context& ctx, ir::ExprRef e) {
  if (e->kind != ir::ExprKind::kCmp || e->cmp_op() != ir::CmpOp::kEq) {
    return false;
  }
  for (ir::ExprRef side : {e->lhs, e->rhs}) {
    if (side && side->kind == ir::ExprKind::kField &&
        util::ends_with(ctx.fields.name(side->field), ".$valid")) {
      return true;
    }
  }
  return false;
}

// ------------------------------------------------- program-IR locators

// The if-statement with pre-order ordinal `ord` — the same walk order the
// CFG builder assigns kIfGuard origins in (the if itself, then its then
// block, then its else block).
p4::ControlStmt* nth_if(p4::ControlBlock& b, int& ord) {
  for (p4::ControlStmt& s : b.stmts) {
    if (s.kind != p4::ControlStmt::Kind::kIf) continue;
    if (ord == 0) return &s;
    --ord;
    if (p4::ControlStmt* r = nth_if(s.then_block, ord)) return r;
    if (p4::ControlStmt* r = nth_if(s.else_block, ord)) return r;
  }
  return nullptr;
}

p4::PipelineDef* find_pipeline(p4::DataPlane& dp, const std::string& name) {
  for (p4::PipelineDef& p : dp.program.pipelines) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

p4::ActionDef* find_action(p4::DataPlane& dp, const std::string& name) {
  for (p4::ActionDef& a : dp.program.actions) {
    if (a.name == name) return &a;
  }
  return nullptr;
}

// Raw RuleSet::entries index of the entry at `ordered_pos` in the match
// order of `table`, or -1.
int raw_entry_index(const p4::RuleSet& rules, const p4::TableDef& table,
                    int32_t ordered_pos) {
  std::vector<const p4::TableEntry*> ordered = rules.ordered_entries(table);
  if (ordered_pos < 0 || static_cast<size_t>(ordered_pos) >= ordered.size()) {
    return -1;
  }
  return static_cast<int>(ordered[ordered_pos] - rules.entries.data());
}

// ------------------------------------------------- candidate mutations

// One materialized mutation: the rewritten program (or the original plus a
// toolchain fault) and a description of what changed.
struct Candidate {
  MutationKind kind = MutationKind::kGuardOffByOne;
  int k = 0;  // sub-index within (site, kind), for the vid suffix
  p4::DataPlane dp;
  p4::RuleSet rules;
  sim::FaultSpec fault;
  std::string summary_fault;
  std::string description;
  bool code_bug = true;
};

void guard_candidates(ir::Context& ctx, const AppBundle& app,
                      const InjectionSite& site, size_t max_per_site,
                      std::vector<Candidate>& out) {
  const p4::PipelineDef* def_src =
      app.dp.program.find_pipeline(site.ref);
  if (!def_src) return;
  // Locate the guard once on the original to plan, then re-locate on each
  // candidate's copy to apply.
  int ord = site.index;
  p4::ControlStmt* probe =
      nth_if(const_cast<p4::PipelineDef*>(def_src)->control, ord);
  if (!probe || !probe->cond) return;
  ir::ExprRef guard = probe->cond;

  const int n_consts = count_constants(guard);
  const int bumps =
      std::min<int>(n_consts, static_cast<int>(max_per_site));
  for (int k = 0; k < bumps; ++k) {
    int n = k;
    ir::ExprRef mutated = bump_nth_constant(ctx.arena, guard, n);
    if (mutated == guard) continue;
    Candidate c;
    c.kind = MutationKind::kGuardOffByOne;
    c.k = k;
    c.dp = app.dp;
    c.rules = app.rules;
    p4::PipelineDef* def = find_pipeline(c.dp, site.ref);
    int o = site.index;
    p4::ControlStmt* s = nth_if(def->control, o);
    s->cond = mutated;
    c.description = "if #" + std::to_string(site.index) + " of pipeline '" +
                    site.ref + "': constant #" + std::to_string(k) +
                    " bumped by one";
    out.push_back(std::move(c));
  }

  std::vector<ir::ExprRef> conj;
  collect_conjuncts(guard, conj);
  for (size_t i = 0; i < conj.size(); ++i) {
    if (!is_validity_test(ctx, conj[i])) continue;
    std::vector<ir::ExprRef> rest;
    for (size_t j = 0; j < conj.size(); ++j) {
      if (j != i) rest.push_back(conj[j]);
    }
    Candidate c;
    c.kind = MutationKind::kGuardDropValidity;
    c.dp = app.dp;
    c.rules = app.rules;
    p4::PipelineDef* def = find_pipeline(c.dp, site.ref);
    int o = site.index;
    p4::ControlStmt* s = nth_if(def->control, o);
    s->cond = rest.empty() ? ctx.arena.bool_const(true)
                           : ctx.arena.all_of(rest);
    c.description = "if #" + std::to_string(site.index) + " of pipeline '" +
                    site.ref + "': validity conjunct dropped";
    out.push_back(std::move(c));
    break;  // one dropped-validity variant per guard
  }
}

void parser_candidates(const AppBundle& app, const InjectionSite& site,
                       std::vector<Candidate>& out) {
  const p4::PipelineDef* def = app.dp.program.find_pipeline(site.pipeline);
  if (!def) return;
  const p4::ParserState* st = def->parser.find_state(site.ref);
  if (!st || site.index < 0 ||
      static_cast<size_t>(site.index) >= st->cases.size()) {
    return;
  }
  const p4::ParserTransition& tr = st->cases[site.index];

  auto locate = [&](Candidate& c) -> p4::ParserTransition* {
    p4::PipelineDef* d = find_pipeline(c.dp, site.pipeline);
    for (p4::ParserState& s : d->parser.states) {
      if (s.name == site.ref) return &s.cases[site.index];
    }
    return nullptr;
  };

  if (tr.mask != 0) {
    const uint64_t low_bit = tr.mask & (~tr.mask + 1);
    Candidate c;
    c.kind = MutationKind::kParserValueBump;
    c.dp = app.dp;
    c.rules = app.rules;
    locate(c)->value = tr.value ^ low_bit;
    c.description = "parser state '" + site.ref + "' case #" +
                    std::to_string(site.index) + ": select value bit " +
                    util::hex(low_bit) + " flipped";
    out.push_back(std::move(c));

    Candidate m;
    m.kind = MutationKind::kParserMaskTruncate;
    m.dp = app.dp;
    m.rules = app.rules;
    locate(m)->mask = tr.mask & (tr.mask - 1);
    m.description = "parser state '" + site.ref + "' case #" +
                    std::to_string(site.index) + ": select mask bit " +
                    util::hex(low_bit) + " cleared";
    out.push_back(std::move(m));
  }
}

void entry_candidates(const AppBundle& app, const InjectionSite& site,
                      size_t max_per_site, std::vector<Candidate>& out) {
  const p4::TableDef* td = app.dp.program.find_table(site.ref);
  if (!td) return;
  const int raw = raw_entry_index(app.rules, *td, site.index);
  if (raw < 0) return;
  const p4::TableEntry& entry = app.rules.entries[raw];

  // Per-key match-space mutations, at most max_per_site.
  size_t emitted = 0;
  for (size_t j = 0; j < td->keys.size() && emitted < max_per_site; ++j) {
    if (j >= entry.matches.size()) break;
    const p4::KeyMatch& km = entry.matches[j];
    const int width =
        app.dp.program.field_width(td->keys[j].field).value_or(64);
    Candidate c;
    c.kind = MutationKind::kEntryMaskTruncate;
    c.k = static_cast<int>(emitted);
    std::string what;
    p4::KeyMatch nm = km;
    switch (td->keys[j].kind) {
      case p4::MatchKind::kLpm:
        if (km.prefix_len <= 0) continue;
        nm.prefix_len = km.prefix_len - 1;
        what = "lpm prefix shortened to /" + std::to_string(nm.prefix_len);
        break;
      case p4::MatchKind::kTernary:
        if (km.mask == 0) continue;
        nm.mask = km.mask & (km.mask - 1);
        what = "ternary mask truncated to " + util::hex(nm.mask);
        break;
      case p4::MatchKind::kExact:
        nm.value = util::truncate(km.value + 1, width);
        what = "exact value bumped to " + util::hex(nm.value);
        break;
      case p4::MatchKind::kRange:
        if (!util::truncate(km.hi + 1, width)) continue;  // already max
        nm.hi = km.hi + 1;
        what = "range widened to hi=" + util::hex(nm.hi);
        break;
    }
    c.dp = app.dp;
    c.rules = app.rules;
    c.rules.entries[raw].matches[j] = nm;
    c.description = "table '" + site.ref + "' entry #" +
                    std::to_string(site.index) + " key '" +
                    td->keys[j].field + "': " + what;
    out.push_back(std::move(c));
    ++emitted;
  }

  // Wrong-action substitution: the first permitted action whose parameter
  // list can take the entry's existing arguments (or none at all).
  const p4::ActionDef* cur = app.dp.program.find_action(entry.action);
  for (const std::string& name : td->actions) {
    if (name == entry.action) continue;
    const p4::ActionDef* ad = app.dp.program.find_action(name);
    if (!ad) continue;
    bool args_fit = cur && ad->params.size() == entry.args.size();
    if (args_fit) {
      for (size_t i = 0; i < entry.args.size(); ++i) {
        if (util::truncate(entry.args[i], ad->params[i].width) !=
            entry.args[i]) {
          args_fit = false;
          break;
        }
      }
    }
    if (!args_fit && !ad->params.empty()) continue;
    Candidate c;
    c.kind = MutationKind::kEntryWrongAction;
    c.dp = app.dp;
    c.rules = app.rules;
    c.rules.entries[raw].action = name;
    if (!args_fit) c.rules.entries[raw].args.clear();
    c.description = "table '" + site.ref + "' entry #" +
                    std::to_string(site.index) + ": action '" +
                    entry.action + "' replaced with '" + name + "'";
    out.push_back(std::move(c));
    break;
  }
}

void rank_candidates(const AppBundle& app, const InjectionSite& site,
                     std::vector<Candidate>& out) {
  const p4::TableDef* td = app.dp.program.find_table(site.ref);
  if (!td) return;
  const int raw_a = raw_entry_index(app.rules, *td, site.index);
  const int raw_b = raw_entry_index(app.rules, *td, site.entry_b);
  if (raw_a < 0 || raw_b < 0 || raw_a == raw_b) return;
  Candidate c;
  c.kind = MutationKind::kRankInversion;
  c.dp = app.dp;
  c.rules = app.rules;
  if (site.sub == 0) {
    std::swap(c.rules.entries[raw_a].priority,
              c.rules.entries[raw_b].priority);
    c.description = "table '" + site.ref + "' entries #" +
                    std::to_string(site.index) + "/#" +
                    std::to_string(site.entry_b) + ": priorities swapped";
  } else {
    std::swap(c.rules.entries[raw_a], c.rules.entries[raw_b]);
    c.description = "table '" + site.ref + "' entries #" +
                    std::to_string(site.index) + "/#" +
                    std::to_string(site.entry_b) + ": install order swapped";
  }
  out.push_back(std::move(c));
}

void checksum_candidates(const AppBundle& app, const InjectionSite& site,
                         std::vector<Candidate>& out) {
  const p4::PipelineDef* def = app.dp.program.find_pipeline(site.pipeline);
  if (!def || site.index < 0 ||
      static_cast<size_t>(site.index) >=
          def->deparser.checksum_updates.size()) {
    return;
  }
  const p4::ChecksumUpdate& u = def->deparser.checksum_updates[site.index];
  if (u.dest != site.ref || u.sources.size() < 2) return;
  Candidate c;
  c.kind = MutationKind::kChecksumDropSource;
  c.dp = app.dp;
  c.rules = app.rules;
  p4::PipelineDef* d = find_pipeline(c.dp, site.pipeline);
  d->deparser.checksum_updates[site.index].sources.pop_back();
  c.description = "checksum update #" + std::to_string(site.index) +
                  " of pipeline '" + site.pipeline + "' (dest '" + site.ref +
                  "'): source '" + u.sources.back() + "' dropped";
  out.push_back(std::move(c));
}

void emit_candidates(const AppBundle& app, const InjectionSite& site,
                     std::vector<Candidate>& out) {
  const p4::PipelineDef* def = app.dp.program.find_pipeline(site.ref);
  if (!def || site.index < 0 ||
      static_cast<size_t>(site.index) + 1 >=
          def->deparser.emit_order.size()) {
    return;
  }
  Candidate c;
  c.kind = MutationKind::kEmitSwap;
  c.dp = app.dp;
  c.rules = app.rules;
  p4::PipelineDef* d = find_pipeline(c.dp, site.ref);
  std::swap(d->deparser.emit_order[site.index],
            d->deparser.emit_order[site.index + 1]);
  c.description = "pipeline '" + site.ref + "' deparser: emit slots #" +
                  std::to_string(site.index) + " ('" +
                  def->deparser.emit_order[site.index] + "') and #" +
                  std::to_string(site.index + 1) + " ('" +
                  def->deparser.emit_order[site.index + 1] + "') swapped";
  out.push_back(std::move(c));
}

void register_candidates(ir::Context& ctx, const AppBundle& app,
                         const InjectionSite& site,
                         std::vector<Candidate>& out) {
  const std::string& cell = site.field;
  const size_t pos_at = cell.rfind("-POS:");
  if (!util::starts_with(cell, "REG:") || pos_at == std::string::npos) return;
  const std::string reg = cell.substr(4, pos_at - 4);
  const uint64_t idx =
      std::strtoull(cell.c_str() + pos_at + 5, nullptr, 10);
  auto declared = [&](const std::string& name) {
    for (const p4::FieldDef& r : app.dp.program.registers) {
      if (r.name == name) return true;
    }
    return false;
  };
  std::string skewed = p4::register_field(reg, idx + 1);
  if (!declared(skewed)) {
    if (idx == 0) return;
    skewed = p4::register_field(reg, idx - 1);
    if (!declared(skewed)) return;
  }

  const ir::FieldId old_fid = ctx.fields.find(cell);
  if (old_fid == ir::kInvalidField) return;
  const int width = ctx.fields.width(old_fid);
  const ir::ExprRef skewed_var = ctx.field_var(skewed, width);

  Candidate c;
  c.kind = MutationKind::kRegisterSkew;
  c.dp = app.dp;
  c.rules = app.rules;
  p4::ActionDef* ad = find_action(c.dp, site.ref);
  if (!ad || site.index < 0 ||
      static_cast<size_t>(site.index) >= ad->ops.size()) {
    return;
  }
  p4::ActionOp& op = ad->ops[site.index];
  bool changed = false;
  if (op.dest == cell) {
    op.dest = skewed;
    changed = true;
  }
  if (op.value) {
    ir::SubstMemo memo;
    ir::ExprRef nv = ir::substitute(
        op.value, ctx.arena,
        [&](ir::FieldId f, int) -> ir::ExprRef {
          return f == old_fid ? skewed_var : nullptr;
        },
        memo);
    if (nv != op.value) {
      op.value = nv;
      changed = true;
    }
  }
  for (std::string& k : op.hash_keys) {
    if (k == cell) {
      k = skewed;
      changed = true;
    }
  }
  if (!changed) return;
  c.description = "action '" + site.ref + "' op #" +
                  std::to_string(site.index) + ": register cell '" + cell +
                  "' skewed to '" + skewed + "'";
  out.push_back(std::move(c));
}

void toolchain_candidates(const AppBundle& app, const InjectionSite& site,
                          std::vector<Candidate>& out) {
  Candidate c;
  c.kind = MutationKind::kToolchain;
  c.dp = app.dp;
  c.rules = app.rules;
  c.fault = site.fault;
  c.code_bug = false;
  c.description = std::string("toolchain fault '") +
                  sim::fault_kind_name(site.fault.kind) + "'";
  if (!site.fault.instance.empty()) {
    c.description += " in instance '" + site.fault.instance + "'";
  }
  out.push_back(std::move(c));
}

std::vector<Candidate> make_candidates(ir::Context& ctx, const AppBundle& app,
                                       const InjectionSite& site,
                                       const CorpusOptions& opts) {
  std::vector<Candidate> out;
  switch (site.kind) {
    case SiteKind::kGuard:
      guard_candidates(ctx, app, site, opts.max_per_site, out);
      break;
    case SiteKind::kParserTransition:
      parser_candidates(app, site, out);
      break;
    case SiteKind::kTableEntry:
      entry_candidates(app, site, opts.max_per_site, out);
      break;
    case SiteKind::kEntryRank:
      rank_candidates(app, site, out);
      break;
    case SiteKind::kChecksum:
      checksum_candidates(app, site, out);
      break;
    case SiteKind::kEmit:
      emit_candidates(app, site, out);
      break;
    case SiteKind::kRegisterIndex:
      register_candidates(ctx, app, site, out);
      break;
    case SiteKind::kToolchain:
      toolchain_candidates(app, site, out);
      break;
    case SiteKind::kSummary:
      break;  // handled by the verify-lane path in build_corpus
  }
  return out;
}

// ------------------------------------------------- witness confirmation

struct WitnessPool {
  std::vector<driver::TestCase> cases;
  // node -> pool indices whose template path visits it (pool order).
  std::unordered_map<cfg::NodeId, std::vector<uint32_t>> covering;
};

WitnessPool concretize_pool(ir::Context& ctx, const p4::DataPlane& dp,
                            driver::Meissa& meissa,
                            const std::vector<sym::TestCaseTemplate>& ts,
                            const CorpusOptions& opts) {
  WitnessPool pool;
  driver::Sender sender(ctx, dp, meissa.graph());
  for (const sym::TestCaseTemplate& t : ts) {
    if (pool.cases.size() >= opts.witness_templates) break;
    std::optional<driver::TestCase> tc =
        sender.concretize(t, meissa.generator().engine());
    if (!tc) continue;
    const uint32_t at = static_cast<uint32_t>(pool.cases.size());
    for (cfg::NodeId n : t.path) pool.covering[n].push_back(at);
    pool.cases.push_back(std::move(*tc));
  }
  return pool;
}

// Probe order for one site: covering templates of the anchor first, then
// the pool prefix, capped at opts.witness_probes.
std::vector<uint32_t> probe_order(const WitnessPool& pool, cfg::NodeId anchor,
                                  size_t cap) {
  std::vector<uint32_t> order;
  std::vector<char> taken(pool.cases.size(), 0);
  auto it = pool.covering.find(anchor);
  if (it != pool.covering.end()) {
    for (uint32_t p : it->second) {
      if (order.size() >= cap) break;
      order.push_back(p);
      taken[p] = 1;
    }
  }
  for (uint32_t p = 0; p < pool.cases.size() && order.size() < cap; ++p) {
    if (!taken[p]) order.push_back(p);
  }
  return order;
}

const char* diverges(const sim::DeviceOutput& t, const sim::DeviceOutput& r) {
  if (t.accepted != r.accepted) return "accepted";
  if (t.dropped != r.dropped) return "dropped";
  if (t.dropped) return nullptr;
  if (t.port != r.port) return "port";
  if (t.bytes != r.bytes) return "bytes";
  return nullptr;
}

// Replays probe cases through the candidate's compile against the clean
// reference; fills the variant's witness on the first divergence.
bool confirm(ir::Context& ctx, const Candidate& c,
             const sim::DeviceProgram& ref_prog, const WitnessPool& pool,
             const std::vector<uint32_t>& probes, BugVariant& v) {
  sim::DeviceProgram tgt_prog;
  try {
    tgt_prog = sim::compile(c.dp, c.rules, ctx, c.fault);
  } catch (const util::Error&) {
    return false;  // mutation produced an uncompilable program
  }
  sim::Device target(std::move(tgt_prog), ctx);
  sim::Device reference(ref_prog, ctx);
  for (uint32_t p : probes) {
    const driver::TestCase& tc = pool.cases[p];
    target.set_registers(tc.registers);
    reference.set_registers(tc.registers);
    sim::DeviceOutput to = target.inject(tc.input);
    sim::DeviceOutput ro = reference.inject(tc.input);
    if (const char* kind = diverges(to, ro)) {
      v.confirmed = true;
      v.witness = tc.input;
      v.witness_registers = tc.registers;
      v.witness_template = tc.template_id;
      v.witness_divergence = kind;
      return true;
    }
  }
  return false;
}

// ------------------------------------------------- manifest rendering

void append_hex_bytes(std::string& out, const std::vector<uint8_t>& bytes) {
  static const char* kHex = "0123456789abcdef";
  for (uint8_t b : bytes) {
    out += kHex[b >> 4];
    out += kHex[b & 0xf];
  }
}

void append_variant_json(std::string& out, const BugVariant& v) {
  out += "{\"id\":" + std::to_string(v.id);
  out += ",\"vid\":\"" + util::json_escape(v.vid) + "\"";
  out += ",\"kind\":\"";
  out += mutation_kind_name(v.kind);
  out += "\"";
  if (v.kind == MutationKind::kLegacy) {
    out += ",\"site\":null,\"site_kind\":null";
  } else {
    out += ",\"site\":" + std::to_string(v.site);
    out += ",\"site_kind\":\"";
    out += analysis::site_kind_name(v.site_kind);
    out += "\"";
  }
  out += ",\"code_bug\":";
  out += v.code_bug ? "true" : "false";
  out += ",\"fault\":";
  if (v.fault.none()) {
    out += "null";
  } else {
    out += "\"";
    out += sim::fault_kind_name(v.fault.kind);
    out += "\"";
  }
  out += ",\"summary_fault\":";
  if (v.summary_fault.empty()) {
    out += "null";
  } else {
    out += "\"" + util::json_escape(v.summary_fault) + "\"";
  }
  out += ",\"description\":\"" + util::json_escape(v.description) + "\"";
  out += ",\"liveness\":\"" + util::json_escape(v.liveness) + "\"";
  out += ",\"confirmed\":";
  out += v.confirmed ? "true" : "false";
  out += ",\"witness\":";
  if (!v.confirmed || v.kind == MutationKind::kSummary) {
    out += "null";
  } else {
    out += "{\"template\":" + std::to_string(v.witness_template);
    out += ",\"divergence\":\"" + util::json_escape(v.witness_divergence) +
           "\"";
    out += ",\"port\":" + std::to_string(v.witness.port);
    out += ",\"bytes\":\"";
    append_hex_bytes(out, v.witness.bytes);
    out += "\",\"registers\":{";
    std::vector<std::pair<std::string, uint64_t>> regs;
    for (const auto& [f, val] : v.witness_registers) {
      regs.emplace_back(v.ctx ? v.ctx->fields.name(f)
                              : std::to_string(f),
                        val);
    }
    std::sort(regs.begin(), regs.end());
    for (size_t i = 0; i < regs.size(); ++i) {
      if (i) out += ",";
      out += "\"" + util::json_escape(regs[i].first) +
             "\":" + std::to_string(regs[i].second);
    }
    out += "}}";
  }
  out += "}";
}

}  // namespace

BugCorpus build_corpus(ir::Context& ctx, const AppBundle& app,
                       const CorpusOptions& opts) {
  BugCorpus out;
  out.app = app.name;
  out.seed = opts.seed;

  // One generation without code summary: template paths then share node
  // ids with the injection analysis graph, so anchor coverage is a direct
  // path-membership test.
  driver::TestRunOptions topts;
  topts.seed = opts.seed;
  topts.gen.code_summary = false;
  topts.gen.threads = opts.threads;
  topts.gen.max_templates = opts.witness_templates;
  driver::Meissa meissa(ctx, app.dp, app.rules, topts);
  std::vector<sym::TestCaseTemplate> templates = meissa.generate();
  const cfg::Cfg& graph = meissa.graph();

  out.sites = analysis::find_injection_sites(ctx, app.dp, app.rules, graph,
                                             opts.inject);
  WitnessPool pool = concretize_pool(ctx, app.dp, meissa, templates, opts);
  out.witness_pool = pool.cases.size();
  const sim::DeviceProgram ref_prog =
      sim::compile(app.dp, app.rules, ctx);

  // Summary-transform machinery, materialized lazily (solver-backed).
  std::optional<summary::SummaryResult> summarized;

  for (const InjectionSite& site : out.sites.sites) {
    if (opts.max_variants && out.variants.size() >= opts.max_variants) break;

    if (site.kind == SiteKind::kSummary) {
      if (!opts.summary_variants) continue;
      std::optional<analysis::SummaryFaultKind> fk =
          analysis::parse_summary_fault(site.ref);
      if (!fk) continue;
      if (!summarized) {
        summarized = summary::summarize(ctx, graph, topts.gen.summary);
      }
      ++out.candidates;
      cfg::Cfg broken = summarized->graph;
      std::optional<std::string> what =
          analysis::inject_summary_fault(ctx, broken, *fk);
      if (!what) {
        ++out.discarded_unconfirmed;
        continue;
      }
      analysis::ValidationResult vr =
          analysis::validate_summary(ctx, graph, broken);
      BugVariant v;
      v.id = static_cast<uint32_t>(out.variants.size());
      v.vid = out.app + ":s" + std::to_string(site.id) + ":summary";
      v.kind = MutationKind::kSummary;
      v.site = site.id;
      v.site_kind = site.kind;
      v.summary_fault = site.ref;
      v.code_bug = false;
      v.description = "summary transform fault: " + *what;
      v.liveness = site.liveness;
      v.ctx = &ctx;
      v.confirmed = !vr.sound();
      v.witness_divergence = v.confirmed ? "refuted-obligation" : "";
      if (!v.confirmed && !opts.keep_unconfirmed) {
        ++out.discarded_unconfirmed;
        continue;
      }
      if (v.confirmed) ++out.confirmed;
      ++out.by_kind[static_cast<int>(v.kind)];
      out.variants.push_back(std::move(v));
      continue;
    }

    std::vector<uint32_t> probes =
        probe_order(pool, site.node, opts.witness_probes);
    for (Candidate& c : make_candidates(ctx, app, site, opts)) {
      if (opts.max_variants && out.variants.size() >= opts.max_variants) {
        break;
      }
      ++out.candidates;
      BugVariant v;
      v.id = static_cast<uint32_t>(out.variants.size());
      v.vid = out.app + ":s" + std::to_string(site.id) + ":" +
              mutation_kind_name(c.kind);
      if (c.k > 0) v.vid += ":" + std::to_string(c.k);
      v.kind = c.kind;
      v.site = site.id;
      v.site_kind = site.kind;
      v.description = std::move(c.description);
      v.liveness = site.liveness;
      v.fault = c.fault;
      v.code_bug = c.code_bug;
      v.ctx = &ctx;
      const bool hit = confirm(ctx, c, ref_prog, pool, probes, v);
      if (!hit && !opts.keep_unconfirmed) {
        ++out.discarded_unconfirmed;
        continue;
      }
      v.dp = std::move(c.dp);
      v.rules = std::move(c.rules);
      if (hit) ++out.confirmed;
      ++out.by_kind[static_cast<int>(v.kind)];
      out.variants.push_back(std::move(v));
    }
  }
  return out;
}

BugCorpus build_legacy_corpus(const CorpusOptions& opts,
                              const std::vector<int>& indices) {
  BugCorpus out;
  out.app = "legacy-table2";
  out.seed = opts.seed;
  std::vector<int> rows = indices;
  if (rows.empty()) {
    for (int i = 1; i <= kNumBugs; ++i) rows.push_back(i);
  }
  for (int idx : rows) {
    auto ctx = std::make_shared<ir::Context>();
    BugScenario s = make_bug(*ctx, idx);
    AppBundle intended = make_bug_intended(*ctx, idx);
    ++out.candidates;

    BugVariant v;
    v.id = static_cast<uint32_t>(out.variants.size());
    v.vid = "legacy:b" + std::to_string(idx);
    v.kind = MutationKind::kLegacy;
    v.description = "Table 2 #" + std::to_string(idx) + ": " + s.name;
    v.code_bug = s.code_bug;
    v.fault = s.fault;
    v.dp = s.bundle.dp;
    v.rules = s.bundle.rules;
    v.ctx = ctx.get();
    v.has_reference = true;
    v.ref_dp = intended.dp;
    v.ref_rules = intended.rules;
    v.ref_intents = intended.intents;
    v.liveness = "hand-written Table 2 scenario (ground truth by "
                 "construction)";

    // Witness search: the production compile against the intended one,
    // probed with the scenario's own unit-test inputs first, then the
    // intended program's concretized templates.
    try {
      sim::Device target(sim::compile(s.bundle.dp, s.bundle.rules, *ctx,
                                      s.fault),
                         *ctx);
      sim::Device reference(sim::compile(intended.dp, intended.rules, *ctx),
                            *ctx);
      auto probe = [&](const sim::DeviceInput& in,
                       const ir::ConcreteState& regs, uint64_t tmpl) {
        if (v.confirmed) return;
        target.set_registers(regs);
        reference.set_registers(regs);
        sim::DeviceOutput to = target.inject(in);
        sim::DeviceOutput ro = reference.inject(in);
        if (const char* kind = diverges(to, ro)) {
          v.confirmed = true;
          v.witness = in;
          v.witness_registers = regs;
          v.witness_template = tmpl;
          v.witness_divergence = kind;
        }
      };
      for (const auto& [in, expect_drop] : s.pta_inputs) {
        (void)expect_drop;
        probe(in, {}, 0);
      }
      if (!v.confirmed) {
        driver::TestRunOptions topts;
        topts.seed = opts.seed;
        topts.gen.code_summary = false;
        topts.gen.threads = opts.threads;
        topts.gen.max_templates = opts.witness_templates;
        driver::Meissa meissa(*ctx, intended.dp, intended.rules, topts);
        std::vector<sym::TestCaseTemplate> templates = meissa.generate();
        WitnessPool pool =
            concretize_pool(*ctx, intended.dp, meissa, templates, opts);
        for (const driver::TestCase& tc : pool.cases) {
          probe(tc.input, tc.registers, tc.template_id);
          if (v.confirmed) break;
        }
      }
    } catch (const util::Error&) {
      // A scenario whose production compile cannot even be probed stays
      // unconfirmed; it is still ground truth and is kept below.
    }

    if (v.confirmed) ++out.confirmed;
    ++out.by_kind[static_cast<int>(MutationKind::kLegacy)];
    out.variants.push_back(std::move(v));
    out.owned_contexts.push_back(std::move(ctx));
  }
  return out;
}

std::string manifest_json(const BugCorpus& c) {
  std::string out = "{\"schema\":\"meissa-bug-corpus-v1\"";
  out += ",\"app\":\"" + util::json_escape(c.app) + "\"";
  out += ",\"seed\":" + std::to_string(c.seed);
  out += ",\"sites\":{\"total\":" + std::to_string(c.sites.sites.size());
  out += ",\"considered\":" + std::to_string(c.sites.considered);
  out += ",\"dead\":" + std::to_string(c.sites.dead);
  out += ",\"by_kind\":{";
  for (int k = 0; k < analysis::kNumSiteKinds; ++k) {
    if (k) out += ",";
    out += "\"";
    out += analysis::site_kind_name(static_cast<SiteKind>(k));
    out += "\":" + std::to_string(c.sites.by_kind[k]);
  }
  out += "}}";
  out += ",\"witness_pool\":" + std::to_string(c.witness_pool);
  out += ",\"candidates\":" + std::to_string(c.candidates);
  out += ",\"confirmed\":" + std::to_string(c.confirmed);
  out += ",\"discarded_unconfirmed\":" +
         std::to_string(c.discarded_unconfirmed);
  out += ",\"by_kind\":{";
  for (int k = 0; k < kNumMutationKinds; ++k) {
    if (k) out += ",";
    out += "\"";
    out += mutation_kind_name(static_cast<MutationKind>(k));
    out += "\":" + std::to_string(c.by_kind[k]);
  }
  out += "},\"variants\":[";
  for (size_t i = 0; i < c.variants.size(); ++i) {
    if (i) out += ",";
    append_variant_json(out, c.variants[i]);
  }
  out += "]}";
  return out;
}

}  // namespace meissa::apps::corpus
