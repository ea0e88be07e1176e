#include "cfg/build.hpp"

#include <unordered_map>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace meissa::cfg {

namespace {

using p4::ActionDef;
using p4::ActionOp;
using p4::ControlBlock;
using p4::ControlStmt;
using p4::ParserState;
using p4::ParserTransition;
using p4::PipelineDef;
using p4::TableDef;
using p4::TableEntry;

// A linear chain of nodes under construction.
struct Chain {
  NodeId head = kNoNode;
  NodeId tail = kNoNode;
};

class Builder {
 public:
  Builder(const p4::DataPlane& dp, const p4::RuleSet& rules, ir::Context& ctx,
          const BuildOptions& opts)
      : dp_(dp), rules_(rules), ctx_(ctx), opts_(opts) {}

  Cfg build();

 private:
  // ---- small helpers -----------------------------------------------------

  // All node creators tag the node with the instance being built
  // (inst_index_ is -1 while building glue).
  NodeId nop() { return tag(g_.add(ir::Stmt::nop())); }
  NodeId tag(NodeId n) {
    g_.node(n).instance = inst_index_;
    return n;
  }

  void append(Chain& c, NodeId n) {
    if (c.head == kNoNode) {
      c.head = c.tail = n;
    } else {
      g_.link(c.tail, n);
      c.tail = n;
    }
  }
  void append_stmt(Chain& c, ir::Stmt s) {
    append(c, tag(g_.add(std::move(s))));
  }
  void append_labeled(Chain& c, ir::Stmt s, const std::string& label) {
    append_stmt(c, std::move(s));
    g_.set_label(c.tail, label);
  }

  ir::FieldId fid(std::string_view name) {
    std::optional<int> w = dp_.program.field_width(name);
    util::check(w.has_value(), "builder: unknown field");
    return ctx_.fields.intern(name, *w);
  }

  ir::FieldId valid_fid(const InstanceInfo& inst, std::string_view header) {
    return inst.validity.at(std::string(header));
  }

  // Rewrites placeholder validity fields ("hdr.h.$valid") to this
  // instance's copies. Content/metadata/register fields pass through.
  ir::ExprRef localize(ir::ExprRef e, const InstanceInfo& inst) {
    if (e == nullptr) return nullptr;
    return ir::substitute(
        e, ctx_.arena,
        [&](ir::FieldId f, int w) -> ir::ExprRef {
          const std::string& name = ctx_.fields.name(f);
          if (util::ends_with(name, ".$valid")) {
            // name = "hdr.<h>.$valid"
            std::string h(name.substr(4, name.size() - 4 - 7));
            return ctx_.arena.field(valid_fid(inst, h), w);
          }
          return nullptr;
        },
        memo_);
  }

  // Substitutes action parameters with the entry's constant arguments and
  // localizes validity placeholders.
  ir::ExprRef bind_args(ir::ExprRef e, const InstanceInfo& inst,
                        const ActionDef& action,
                        const std::vector<uint64_t>& args) {
    if (e == nullptr) return nullptr;
    const std::string prefix = "$arg." + action.name + ".";
    return ir::substitute(
        e, ctx_.arena,
        [&](ir::FieldId f, int w) -> ir::ExprRef {
          const std::string& name = ctx_.fields.name(f);
          if (util::starts_with(name, prefix)) {
            std::string_view pname =
                std::string_view(name).substr(prefix.size());
            for (size_t i = 0; i < action.params.size(); ++i) {
              if (action.params[i].name == pname) {
                return ctx_.arena.constant(args.at(i), w);
              }
            }
            throw util::InternalError("bind_args: unknown parameter");
          }
          if (util::ends_with(name, ".$valid")) {
            std::string h(name.substr(4, name.size() - 4 - 7));
            return ctx_.arena.field(valid_fid(inst, h), w);
          }
          return nullptr;
        },
        memo_);
  }

  ir::ExprRef localized_var(std::string_view name, const InstanceInfo& inst) {
    ir::FieldId f = fid(name);
    return localize(ctx_.arena.field(f, ctx_.fields.width(f)), inst);
  }

  // ---- program pieces ----------------------------------------------------

  void expand_action_body(Chain& c, const InstanceInfo& inst,
                          const ActionDef& action,
                          const std::vector<uint64_t>& args) {
    for (size_t i = 0; i < action.ops.size(); ++i) {
      expand_op(c, inst, action.ops[i], &action, &args);
      g_.set_origin(c.tail, OriginKind::kActionOp, action.name,
                    static_cast<int32_t>(i));
    }
  }

  // Action body with *symbolic* parameters (action-cover mode): parameter
  // fields are left free, modeling "some entry with some arguments".
  void expand_action_body_symbolic(Chain& c, const InstanceInfo& inst,
                                   const ActionDef& action) {
    for (size_t i = 0; i < action.ops.size(); ++i) {
      expand_op(c, inst, action.ops[i], nullptr, nullptr);
      g_.set_origin(c.tail, OriginKind::kActionOp, action.name,
                    static_cast<int32_t>(i));
    }
  }

  void expand_op(Chain& c, const InstanceInfo& inst, const ActionOp& op,
                 const ActionDef* action, const std::vector<uint64_t>* args) {
    switch (op.kind) {
      case ActionOp::Kind::kAssign: {
        ir::ExprRef v = action != nullptr ? bind_args(op.value, inst, *action, *args)
                                          : localize(op.value, inst);
        append_stmt(c, ir::Stmt::assign(fid(op.dest), v));
        break;
      }
      case ActionOp::Kind::kSetValid:
        append_stmt(c, ir::Stmt::assign(valid_fid(inst, op.header),
                                        ctx_.arena.constant(1, 1)));
        break;
      case ActionOp::Kind::kSetInvalid:
        append_stmt(c, ir::Stmt::assign(valid_fid(inst, op.header),
                                        ctx_.arena.constant(0, 1)));
        break;
      case ActionOp::Kind::kHash: {
        HashStmt h;
        h.dest = fid(op.dest);
        h.algo = op.algo;
        for (const std::string& k : op.hash_keys) h.keys.push_back(fid(k));
        append(c, tag(g_.add_hash(std::move(h))));
        break;
      }
    }
  }

  // Expands one table application; returns a single-entry single-exit pair.
  Chain expand_table(const TableDef& table, const InstanceInfo& inst) {
    Chain outer;
    NodeId head = nop();
    NodeId tail = nop();
    outer.head = head;
    outer.tail = tail;

    if (opts_.table_mode == BuildOptions::TableMode::kActionCover) {
      // One branch per declared action (entry synthesized, args free),
      // plus the default-action (miss) branch.
      for (const std::string& aname : table.actions) {
        Chain b;
        append(b, nop());
        g_.set_label(b.head, inst.name + ": table " + table.name +
                                 " action " + aname);
        const ActionDef* a = dp_.program.find_action(aname);
        expand_action_body_symbolic(b, inst, *a);
        g_.link(head, b.head);
        g_.link(b.tail, tail);
      }
      Chain miss;
      append(miss, nop());
      g_.set_label(miss.head, inst.name + ": table " + table.name + " miss (" +
                                  table.default_action + ")");
      const ActionDef* da = dp_.program.find_action(table.default_action);
      expand_action_body(miss, inst, *da, table.default_args);
      g_.link(head, miss.head);
      g_.link(miss.tail, tail);
      return outer;
    }

    std::vector<const TableEntry*> entries = rules_.ordered_entries(table);
    std::vector<ir::ExprRef> match_preds;
    auto lookup = [&](std::string_view f) { return localized_var(f, inst); };
    for (const TableEntry* e : entries) {
      match_preds.push_back(
          p4::entry_predicate(ctx_, dp_.program, table, *e, lookup));
    }

    // One branch per entry: negations of overlapping higher-priority
    // entries, the entry's own match, then its action body.
    for (size_t i = 0; i < entries.size(); ++i) {
      Chain b;
      for (size_t j = 0; j < i; ++j) {
        if (!opts_.elide_disjoint_negations ||
            p4::may_overlap(table, *entries[j], *entries[i])) {
          append_stmt(b, ir::Stmt::assume(ctx_.arena.bnot(match_preds[j])));
        }
      }
      append_labeled(b, ir::Stmt::assume(match_preds[i]),
                     inst.name + ": table " + table.name + " entry #" +
                         std::to_string(i) + " (" + entries[i]->action + ")");
      g_.set_origin(b.tail, OriginKind::kTableEntry, table.name,
                    static_cast<int32_t>(i));
      const ActionDef* a = dp_.program.find_action(entries[i]->action);
      expand_action_body(b, inst, *a, entries[i]->args);
      g_.link(head, b.head);
      g_.link(b.tail, tail);
    }

    // Miss branch: no entry matched; run the default action.
    std::string def_action = table.default_action;
    std::vector<uint64_t> def_args = table.default_args;
    auto it = rules_.default_overrides.find(table.name);
    if (it != rules_.default_overrides.end()) {
      def_action = it->second.action;
      def_args = it->second.args;
    }
    Chain miss;
    for (size_t j = 0; j < entries.size(); ++j) {
      append_stmt(miss, ir::Stmt::assume(ctx_.arena.bnot(match_preds[j])));
    }
    const ActionDef* da = dp_.program.find_action(def_action);
    expand_action_body(miss, inst, *da, def_args);
    if (miss.head == kNoNode) append(miss, nop());
    g_.set_label(miss.head, inst.name + ": table " + table.name + " miss (" +
                                def_action + ")");
    if (g_.origin(miss.head).kind == OriginKind::kNone) {
      g_.set_origin(miss.head, OriginKind::kTableMiss, table.name, -1);
    }
    g_.link(head, miss.head);
    g_.link(miss.tail, tail);
    return outer;
  }

  Chain expand_control(const ControlBlock& block, const InstanceInfo& inst) {
    Chain c;
    for (const ControlStmt& s : block.stmts) {
      switch (s.kind) {
        case ControlStmt::Kind::kApply: {
          Chain t = expand_table(*dp_.program.find_table(s.table), inst);
          if (c.head == kNoNode) {
            c = t;
          } else {
            g_.link(c.tail, t.head);
            c.tail = t.tail;
          }
          break;
        }
        case ControlStmt::Kind::kIf: {
          ir::ExprRef cond = localize(s.cond, inst);
          const int32_t if_ord = if_count_++;
          const std::string where =
              inst.name + ": if #" + std::to_string(if_ord);
          NodeId fork = nop();
          NodeId join = nop();
          Chain then_c;
          append_labeled(then_c, ir::Stmt::assume(cond), where + " then");
          g_.set_origin(then_c.head, OriginKind::kIfGuard, inst.pipeline,
                        if_ord, 0);
          Chain then_body = expand_control(s.then_block, inst);
          if (then_body.head != kNoNode) {
            g_.link(then_c.tail, then_body.head);
            then_c.tail = then_body.tail;
          }
          Chain else_c;
          append_labeled(else_c, ir::Stmt::assume(ctx_.arena.bnot(cond)),
                         where + " else");
          g_.set_origin(else_c.head, OriginKind::kIfGuard, inst.pipeline,
                        if_ord, 1);
          Chain else_body = expand_control(s.else_block, inst);
          if (else_body.head != kNoNode) {
            g_.link(else_c.tail, else_body.head);
            else_c.tail = else_body.tail;
          }
          g_.link(fork, then_c.head);
          g_.link(fork, else_c.head);
          g_.link(then_c.tail, join);
          g_.link(else_c.tail, join);
          append(c, fork);
          c.tail = join;
          break;
        }
        case ControlStmt::Kind::kOp: {
          Chain oc;
          expand_op(oc, inst, s.op, nullptr, nullptr);
          if (c.head == kNoNode) {
            c = oc;
          } else {
            g_.link(c.tail, oc.head);
            c.tail = oc.tail;
          }
          break;
        }
      }
    }
    return c;
  }

  // Expands a parser state as a tree; every accept leaf links to `accept`,
  // every reject sets the drop flag and links to `exit_to` (the instance
  // exit) so the subgraph stays single-exit.
  NodeId expand_parser_state(const p4::Parser& parser, const std::string& name,
                             const InstanceInfo& inst, NodeId accept,
                             NodeId reject) {
    if (name == "accept") return accept;
    if (name == "reject") return reject;
    const ParserState* s = parser.find_state(name);
    Chain c;
    append(c, nop());
    g_.set_label(c.head, inst.name + ": parser state " + name);
    g_.set_origin(c.head, OriginKind::kParserState, name);
    for (const std::string& h : s->extracts) {
      append_stmt(c, ir::Stmt::assign(valid_fid(inst, h),
                                      ctx_.arena.constant(1, 1)));
    }
    if (s->select_field.empty()) {
      NodeId next =
          expand_parser_state(parser, s->default_next, inst, accept, reject);
      g_.link(c.tail, next);
      return c.head;
    }
    ir::ExprRef sel = localized_var(s->select_field, inst);
    NodeId fork = nop();
    g_.link(c.tail, fork);
    std::vector<ir::ExprRef> case_preds;
    for (const ParserTransition& t : s->cases) {
      case_preds.push_back(ctx_.arena.masked_eq(sel, t.mask, t.value & t.mask));
    }
    for (size_t i = 0; i < s->cases.size(); ++i) {
      Chain b;
      for (size_t j = 0; j < i; ++j) {
        // First matching case wins; negate overlapping earlier cases.
        uint64_t both = s->cases[i].mask & s->cases[j].mask;
        bool overlap = ((s->cases[i].value ^ s->cases[j].value) & both) == 0;
        if (overlap) {
          append_stmt(b, ir::Stmt::assume(ctx_.arena.bnot(case_preds[j])));
        }
      }
      append_labeled(b, ir::Stmt::assume(case_preds[i]),
                     inst.name + ": parser state " + name + " case -> " +
                         s->cases[i].next);
      g_.set_origin(b.tail, OriginKind::kParserCase, name,
                    static_cast<int32_t>(i));
      NodeId next = expand_parser_state(parser, s->cases[i].next, inst, accept,
                                        reject);
      g_.link(b.tail, next);
      g_.link(fork, b.head);
    }
    Chain d;
    for (size_t j = 0; j < s->cases.size(); ++j) {
      append_stmt(d, ir::Stmt::assume(ctx_.arena.bnot(case_preds[j])));
    }
    if (d.head == kNoNode) append(d, nop());
    g_.set_label(d.head, inst.name + ": parser state " + name +
                             " default -> " + s->default_next);
    g_.set_origin(d.head, OriginKind::kParserDefault, name, -1);
    NodeId next =
        expand_parser_state(parser, s->default_next, inst, accept, reject);
    g_.link(d.tail, next);
    g_.link(fork, d.head);
    return c.head;
  }

  // Builds one instance subgraph; fills the InstanceInfo entry/exit.
  void build_instance(InstanceInfo& inst) {
    const PipelineDef& def = *dp_.program.find_pipeline(inst.pipeline);
    if_count_ = 0;
    NodeId entry = nop();
    NodeId exit = nop();
    inst.entry = entry;
    inst.exit = exit;
    g_.set_label(entry, inst.name + ": entry");
    g_.set_label(exit, inst.name + ": exit");

    // Reset this instance's view of header validity, then parse.
    Chain init;
    append(init, entry);
    for (const p4::HeaderDef& h : dp_.program.headers) {
      append_stmt(init, ir::Stmt::assign(valid_fid(inst, h.name),
                                         ctx_.arena.constant(0, 1)));
    }

    // Parser reject: set the drop flag and bypass the pipeline body.
    Chain reject;
    append_stmt(reject, ir::Stmt::assign(fid(p4::kDropFlag),
                                         ctx_.arena.constant(1, 1)));
    g_.link(reject.tail, exit);

    NodeId accept = nop();
    NodeId parse_head = expand_parser_state(def.parser, def.parser.start, inst,
                                            accept, reject.head);
    g_.link(init.tail, parse_head);

    Chain body = expand_control(def.control, inst);
    NodeId after_control;
    if (body.head != kNoNode) {
      g_.link(accept, body.head);
      after_control = body.tail;
    } else {
      after_control = accept;
    }

    // Deparser checksum updates, each guarded by its header's validity.
    NodeId cur = after_control;
    int32_t cksum_idx = 0;
    for (const p4::ChecksumUpdate& u : def.deparser.checksum_updates) {
      NodeId fork = nop();
      NodeId join = nop();
      g_.link(cur, fork);
      ir::ExprRef valid = ctx_.arena.cmp(
          ir::CmpOp::kEq,
          ctx_.arena.field(valid_fid(inst, u.guard_header), 1),
          ctx_.arena.constant(1, 1));
      Chain yes;
      append_labeled(yes, ir::Stmt::assume(valid),
                     inst.name + ": deparser checksum " + u.dest + " (" +
                         u.guard_header + " valid)");
      g_.set_origin(yes.head, OriginKind::kChecksum, u.dest, cksum_idx, 0);
      HashStmt h;
      h.dest = fid(u.dest);
      h.algo = u.algo;
      for (const std::string& s : u.sources) h.keys.push_back(fid(s));
      append(yes, tag(g_.add_hash(std::move(h))));
      Chain no;
      append_labeled(no, ir::Stmt::assume(ctx_.arena.bnot(valid)),
                     inst.name + ": deparser checksum " + u.dest + " (" +
                         u.guard_header + " invalid)");
      g_.set_origin(no.head, OriginKind::kChecksum, u.dest, cksum_idx, 1);
      ++cksum_idx;
      g_.link(fork, yes.head);
      g_.link(fork, no.head);
      g_.link(yes.tail, join);
      g_.link(no.tail, join);
      cur = join;
    }
    g_.link(cur, exit);
  }

  const p4::DataPlane& dp_;
  const p4::RuleSet& rules_;
  ir::Context& ctx_;
  BuildOptions opts_;
  Cfg g_;
  ir::SubstMemo memo_;  // scratch of localize() and bind_args()
  int inst_index_ = -1;
  int if_count_ = 0;
};

Cfg Builder::build() {
  p4::validate(dp_, ctx_);
  p4::validate_rules(dp_.program, rules_);

  // Instance metadata first (validity fields for every header x instance).
  std::vector<std::string> order = dp_.topology.topo_order();
  std::unordered_map<std::string, int> index_of;
  for (const std::string& name : order) {
    const p4::PipeInstance* pi = dp_.topology.find_instance(name);
    const PipelineDef* def = dp_.program.find_pipeline(pi->pipeline);
    InstanceInfo info;
    info.name = name;
    info.pipeline = pi->pipeline;
    info.switch_id = pi->switch_id;
    info.emit_order = def->deparser.emit_order;
    for (const p4::HeaderDef& h : dp_.program.headers) {
      info.validity.emplace(
          h.name, ctx_.fields.intern(p4::validity_field_at(h.name, name), 1));
    }
    index_of.emplace(name, static_cast<int>(g_.instances().size()));
    g_.instances().push_back(std::move(info));
  }

  // Build each instance subgraph.
  for (const std::string& name : order) {
    inst_index_ = index_of[name];
    build_instance(g_.instances()[static_cast<size_t>(inst_index_)]);
  }
  inst_index_ = -1;

  // Program entry: zero metadata and intrinsics, then fan out to entries.
  Chain init;
  append(init, nop());
  for (const p4::FieldDef& m : dp_.program.metadata) {
    append_stmt(init, ir::Stmt::assign(fid(m.name),
                                       ctx_.arena.constant(0, m.width)));
    if (m.telemetry) g_.telemetry().push_back(m.name);
  }
  append_stmt(init, ir::Stmt::assign(fid(p4::kDropFlag),
                                     ctx_.arena.constant(0, 1)));
  append_stmt(init, ir::Stmt::assign(fid(p4::kEgressSpec),
                                     ctx_.arena.constant(0, p4::kPortWidth)));
  g_.set_entry(init.head);

  for (const p4::EntryPoint& e : dp_.topology.entries) {
    NodeId target = g_.instances()[static_cast<size_t>(index_of[e.instance])].entry;
    if (e.guard == nullptr) {
      g_.link(init.tail, target);
    } else {
      NodeId guard = g_.add(ir::Stmt::assume(e.guard));
      g_.link(init.tail, guard);
      g_.link(guard, target);
    }
  }

  // Routing glue after each instance exit.
  for (const std::string& name : order) {
    const InstanceInfo& info = g_.instances()[static_cast<size_t>(index_of[name])];
    NodeId exit = info.exit;

    // Drop check.
    NodeId drop_term = g_.add(ir::Stmt::assume(ctx_.arena.cmp(
        ir::CmpOp::kEq, ctx_.arena.field(fid(p4::kDropFlag), 1),
        ctx_.arena.constant(1, 1))));
    g_.node(drop_term).exit = ExitKind::kDrop;
    g_.set_label(drop_term, name + ": dropped");
    g_.link(exit, drop_term);

    NodeId alive = g_.add(ir::Stmt::assume(ctx_.arena.cmp(
        ir::CmpOp::kEq, ctx_.arena.field(fid(p4::kDropFlag), 1),
        ctx_.arena.constant(0, 1))));
    g_.set_label(alive, name + ": forwarded");
    g_.link(exit, alive);

    std::vector<const p4::TopoEdge*> outs = dp_.topology.edges_from(name);
    NodeId cur = alive;  // node whose "no earlier edge matched" branch hangs
    std::vector<ir::ExprRef> guards;
    bool unconditional = false;
    int32_t edge_idx = -1;
    for (const p4::TopoEdge* e : outs) {
      ++edge_idx;
      NodeId target = g_.instances()[static_cast<size_t>(index_of[e->to])].entry;
      if (e->guard == nullptr) {
        g_.link(cur, target);
        unconditional = true;
        break;
      }
      NodeId take = g_.add(ir::Stmt::assume(e->guard));
      g_.set_label(take, name + ": link to " + e->to);
      g_.set_origin(take, OriginKind::kTopoGuard, e->to, edge_idx);
      g_.link(cur, take);
      g_.link(take, target);
      NodeId skip = g_.add(ir::Stmt::assume(ctx_.arena.bnot(e->guard)));
      g_.set_label(skip, name + ": skip link to " + e->to);
      g_.node(skip).synthetic = true;
      g_.link(cur, skip);
      cur = skip;
      guards.push_back(e->guard);
    }
    if (!unconditional) {
      // No edge matched: the packet leaves the data plane here.
      NodeId emit = nop();
      g_.node(emit).exit = ExitKind::kEmit;
      g_.node(emit).emit_instance = index_of[name];
      g_.link(cur, emit);
    }
  }

  g_.check_well_formed();
  return std::move(g_);
}

}  // namespace

Cfg build_cfg(const p4::DataPlane& dp, const p4::RuleSet& rules,
              ir::Context& ctx, const BuildOptions& opts) {
  return Builder(dp, rules, ctx, opts).build();
}

}  // namespace meissa::cfg
