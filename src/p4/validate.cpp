// Program and topology validation: every cross-reference in a Program must
// resolve against its own declarations before the CFG builder or the
// toolchain touch it.
#include <unordered_set>

#include "p4/program.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace meissa::p4 {

namespace {

void require(bool cond, const std::string& what) {
  if (!cond) throw util::ValidationError(what);
}

void check_field_exists(const Program& prog, std::string_view full_name,
                        const std::string& where) {
  require(prog.field_width(full_name).has_value(),
          where + ": unknown field '" + std::string(full_name) + "'");
}

void check_expr_fields(const Program& prog, const ir::Context& ctx,
                       ir::ExprRef e, const std::string& where,
                       const ActionDef* enclosing_action) {
  if (e == nullptr) return;
  std::unordered_set<ir::FieldId> fs;
  ir::collect_fields(e, fs);
  for (ir::FieldId f : fs) {
    const std::string& name = ctx.fields.name(f);
    if (util::starts_with(name, "$arg.")) {
      require(enclosing_action != nullptr,
              where + ": action argument '" + name + "' outside an action");
      // Must belong to the enclosing action.
      std::string prefix = "$arg." + enclosing_action->name + ".";
      require(util::starts_with(name, prefix),
              where + ": argument '" + name + "' of a different action");
      continue;
    }
    check_field_exists(prog, name, where);
  }
}

void check_action_op(const Program& prog, const ir::Context& ctx,
                     const ActionOp& op, const std::string& where,
                     const ActionDef* enclosing) {
  switch (op.kind) {
    case ActionOp::Kind::kAssign:
      check_field_exists(prog, op.dest, where);
      require(op.value != nullptr, where + ": assignment without value");
      require(!op.value->is_bool(), where + ": boolean assigned to field");
      require(prog.field_width(op.dest) == op.value->width,
              where + ": width mismatch assigning to '" + op.dest + "'");
      check_expr_fields(prog, ctx, op.value, where, enclosing);
      break;
    case ActionOp::Kind::kSetValid:
    case ActionOp::Kind::kSetInvalid:
      require(prog.find_header(op.header) != nullptr,
              where + ": unknown header '" + op.header + "'");
      break;
    case ActionOp::Kind::kHash:
      check_field_exists(prog, op.dest, where);
      require(!op.hash_keys.empty(), where + ": hash with no keys");
      for (const std::string& k : op.hash_keys) {
        check_field_exists(prog, k, where);
      }
      break;
  }
}

void check_control(const Program& prog, const ir::Context& ctx,
                   const ControlBlock& block, const std::string& where) {
  for (const ControlStmt& s : block.stmts) {
    switch (s.kind) {
      case ControlStmt::Kind::kApply:
        require(prog.find_table(s.table) != nullptr,
                where + ": applies unknown table '" + s.table + "'");
        break;
      case ControlStmt::Kind::kIf:
        require(s.cond != nullptr && s.cond->is_bool(),
                where + ": if-condition must be boolean");
        check_expr_fields(prog, ctx, s.cond, where, nullptr);
        check_control(prog, ctx, s.then_block, where);
        check_control(prog, ctx, s.else_block, where);
        break;
      case ControlStmt::Kind::kOp:
        check_action_op(prog, ctx, s.op, where, nullptr);
        break;
    }
  }
}

void check_parser(const Program& prog, const Parser& parser,
                  const std::string& where) {
  require(!parser.states.empty(), where + ": parser has no states");
  std::unordered_set<std::string> names;
  for (const ParserState& s : parser.states) {
    require(names.insert(s.name).second,
            where + ": duplicate parser state '" + s.name + "'");
  }
  require(parser.find_state(parser.start) != nullptr,
          where + ": missing start state '" + parser.start + "'");
  auto check_next = [&](const std::string& next) {
    require(next == "accept" || next == "reject" ||
                parser.find_state(next) != nullptr,
            where + ": transition to unknown state '" + next + "'");
  };
  for (const ParserState& s : parser.states) {
    for (const std::string& h : s.extracts) {
      require(prog.find_header(h) != nullptr,
              where + ": extracts unknown header '" + h + "'");
    }
    if (!s.select_field.empty()) {
      check_field_exists(prog, s.select_field, where);
    } else {
      require(s.cases.empty(),
              where + ": select cases without a select field in '" + s.name +
                  "'");
    }
    for (const ParserTransition& t : s.cases) check_next(t.next);
    check_next(s.default_next);
  }
  // Acyclicity: DFS from start; the CFG requires bounded parse depth.
  std::unordered_set<std::string> visiting, done;
  auto dfs = [&](auto&& self, const std::string& name) -> void {
    if (name == "accept" || name == "reject" || done.count(name)) return;
    require(visiting.insert(name).second,
            where + ": parser loop through state '" + name + "'");
    const ParserState* s = parser.find_state(name);
    for (const ParserTransition& t : s->cases) self(self, t.next);
    self(self, s->default_next);
    visiting.erase(name);
    done.insert(name);
  };
  dfs(dfs, parser.start);
}

}  // namespace

void validate(const Program& prog, const ir::Context& ctx) {
  const ir::Context& scratch = ctx;  // resolves expression field ids
  std::unordered_set<std::string> names;
  for (const HeaderDef& h : prog.headers) {
    require(names.insert("hdr:" + h.name).second,
            "duplicate header '" + h.name + "'");
    require(!h.fields.empty(), "header '" + h.name + "' has no fields");
    require(h.bit_size() % 8 == 0,
            "header '" + h.name + "' is not byte-aligned");
    std::unordered_set<std::string> fnames;
    for (const FieldDef& f : h.fields) {
      util::check_width(f.width);
      require(fnames.insert(f.name).second, "duplicate field '" + f.name +
                                                "' in header '" + h.name + "'");
    }
  }
  for (const ActionDef& a : prog.actions) {
    require(names.insert("act:" + a.name).second,
            "duplicate action '" + a.name + "'");
    for (const ActionOp& op : a.ops) {
      check_action_op(prog, scratch, op, "action '" + a.name + "'", &a);
    }
  }
  for (const TableDef& t : prog.tables) {
    require(names.insert("tbl:" + t.name).second,
            "duplicate table '" + t.name + "'");
    require(!t.keys.empty(), "table '" + t.name + "' has no keys");
    for (const TableKey& k : t.keys) {
      check_field_exists(prog, k.field, "table '" + t.name + "'");
    }
    require(!t.actions.empty(), "table '" + t.name + "' permits no actions");
    for (const std::string& a : t.actions) {
      require(prog.find_action(a) != nullptr,
              "table '" + t.name + "' permits unknown action '" + a + "'");
    }
    const ActionDef* def = prog.find_action(t.default_action);
    require(def != nullptr, "table '" + t.name + "' has unknown default '" +
                                t.default_action + "'");
    require(def->params.size() == t.default_args.size(),
            "table '" + t.name + "': default action argument arity");
  }
  require(!prog.pipelines.empty(), "program has no pipelines");
  for (const PipelineDef& p : prog.pipelines) {
    require(names.insert("ppl:" + p.name).second,
            "duplicate pipeline '" + p.name + "'");
    const std::string where = "pipeline '" + p.name + "'";
    check_parser(prog, p.parser, where);
    check_control(prog, scratch, p.control, where);
    for (const std::string& h : p.deparser.emit_order) {
      require(prog.find_header(h) != nullptr,
              where + ": deparser emits unknown header '" + h + "'");
    }
    for (const ChecksumUpdate& c : p.deparser.checksum_updates) {
      check_field_exists(prog, c.dest, where);
      require(prog.find_header(c.guard_header) != nullptr,
              where + ": checksum guarded by unknown header '" +
                  c.guard_header + "'");
      for (const std::string& s : c.sources) {
        check_field_exists(prog, s, where);
      }
    }
  }
}

void validate(const DataPlane& dp, const ir::Context& ctx) {
  validate(dp.program, ctx);
  const Topology& topo = dp.topology;
  require(!topo.instances.empty(), "topology has no pipeline instances");
  std::unordered_set<std::string> names;
  for (const PipeInstance& i : topo.instances) {
    require(names.insert(i.name).second,
            "duplicate pipeline instance '" + i.name + "'");
    require(dp.program.find_pipeline(i.pipeline) != nullptr,
            "instance '" + i.name + "' uses unknown pipeline '" + i.pipeline +
                "'");
    require(i.switch_id >= 0 && i.switch_id <= kMaxSwitchId,
            "instance '" + i.name + "' switch id " +
                std::to_string(i.switch_id) + " out of range [0, " +
                std::to_string(kMaxSwitchId) + "]");
  }
  for (const TopoEdge& e : topo.edges) {
    require(topo.find_instance(e.from) != nullptr,
            "edge from unknown instance '" + e.from + "'");
    require(topo.find_instance(e.to) != nullptr,
            "edge to unknown instance '" + e.to + "'");
    require(e.guard == nullptr || e.guard->is_bool(),
            "edge guard must be boolean");
  }
  require(!topo.entries.empty(), "topology has no entry points");
  for (const EntryPoint& e : topo.entries) {
    require(topo.find_instance(e.instance) != nullptr,
            "entry at unknown instance '" + e.instance + "'");
    require(e.guard == nullptr || e.guard->is_bool(),
            "entry guard must be boolean");
  }
  topo.topo_order();  // throws on cycles
}

}  // namespace meissa::p4
