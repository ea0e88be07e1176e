#include "sim/toolchain.hpp"

#include <algorithm>
#include <unordered_map>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace meissa::sim {

namespace {

class Compiler {
 public:
  Compiler(const p4::DataPlane& dp, const p4::RuleSet& rules, ir::Context& ctx,
           const FaultSpec& fault)
      : dp_(dp), rules_(rules), ctx_(ctx), fault_(fault) {}

  DeviceProgram compile() {
    p4::validate(dp_, ctx_);
    p4::validate_rules(dp_.program, rules_);
    out_.program = dp_.program;

    std::unordered_map<std::string, int> index_of;
    for (const p4::PipeInstance& pi : dp_.topology.instances) {
      index_of.emplace(pi.name, static_cast<int>(out_.instances.size()));
      out_.instances.push_back(compile_instance(pi));
    }
    for (const p4::TopoEdge& e : dp_.topology.edges) {
      out_.edges.push_back({index_of.at(e.from), index_of.at(e.to),
                            mutate_cond(e.guard, "")});
    }
    for (const p4::EntryPoint& e : dp_.topology.entries) {
      out_.entries.push_back({index_of.at(e.instance), e.guard});
    }
    apply_global_faults();
    return std::move(out_);
  }

 private:
  bool fault_applies(const std::string& instance) const {
    return fault_.instance.empty() || fault_.instance == instance;
  }

  ir::FieldId fid(std::string_view name) {
    std::optional<int> w = dp_.program.field_width(name);
    util::check(w.has_value(), "toolchain: unknown field");
    return ctx_.fields.intern(name, *w);
  }

  // Compile-time expression mutations (fault #8 / #12 analogs). These act
  // on every condition the device evaluates for the faulted instance.
  ir::ExprRef mutate_cond(ir::ExprRef e, const std::string& instance) {
    if (e == nullptr) return nullptr;
    if (fault_.kind == FaultKind::kMaskFoldBug && fault_applies(instance)) {
      // (f & m) == v miscompiled to f == v: strip the mask.
      e = strip_masks(e);
    }
    if (fault_.kind == FaultKind::kWrongCompareWidth &&
        fault_applies(instance)) {
      ir::FieldId f = fid(fault_.field);
      int w = ctx_.fields.width(f);
      if (w > 16) {
        e = ir::substitute(
            e, ctx_.arena,
            [&](ir::FieldId id, int width) -> ir::ExprRef {
              if (id != f) return nullptr;
              // The comparison only sees the low 16 bits of the container.
              return ctx_.arena.arith(ir::ArithOp::kAnd,
                                      ctx_.arena.field(id, width),
                                      ctx_.arena.constant(0xffff, width));
            },
            memo_);
      }
    }
    return e;
  }

  ir::ExprRef strip_masks(ir::ExprRef e) {
    switch (e->kind) {
      case ir::ExprKind::kCmp: {
        ir::ExprRef lhs = e->lhs;
        if (lhs->kind == ir::ExprKind::kArith &&
            lhs->arith_op() == ir::ArithOp::kAnd &&
            lhs->rhs->kind == ir::ExprKind::kConst &&
            lhs->lhs->kind == ir::ExprKind::kField) {
          return ctx_.arena.cmp(e->cmp_op(), lhs->lhs, e->rhs);
        }
        return e;
      }
      case ir::ExprKind::kBool: {
        ir::ExprRef a = strip_masks(e->lhs);
        ir::ExprRef b = strip_masks(e->rhs);
        return e->bool_op() == ir::BoolOp::kAnd ? ctx_.arena.band(a, b)
                                                : ctx_.arena.bor(a, b);
      }
      case ir::ExprKind::kNot:
        return ctx_.arena.bnot(strip_masks(e->lhs));
      default:
        return e;
    }
  }

  std::vector<DevOp> compile_ops(const p4::ActionDef& action,
                                 const std::vector<uint64_t>& args,
                                 const std::string& instance) {
    std::vector<DevOp> ops;
    for (const p4::ActionOp& op : action.ops) {
      DevOp d;
      switch (op.kind) {
        case p4::ActionOp::Kind::kAssign: {
          d.kind = DevOp::Kind::kAssign;
          d.dest = fid(op.dest);
          d.value = bind_args(op.value, action, args);
          break;
        }
        case p4::ActionOp::Kind::kSetValid:
          d.kind = DevOp::Kind::kAssign;
          d.origin = DevOp::Origin::kSetValid;
          d.header = op.header;
          d.dest = fid(p4::validity_field(op.header));
          d.value = ctx_.arena.constant(1, 1);
          break;
        case p4::ActionOp::Kind::kSetInvalid:
          d.kind = DevOp::Kind::kAssign;
          d.origin = DevOp::Origin::kSetInvalid;
          d.header = op.header;
          d.dest = fid(p4::validity_field(op.header));
          d.value = ctx_.arena.constant(0, 1);
          break;
        case p4::ActionOp::Kind::kHash: {
          d.kind = DevOp::Kind::kHash;
          d.dest = fid(op.dest);
          d.algo = op.algo;
          for (const std::string& k : op.hash_keys) d.keys.push_back(fid(k));
          break;
        }
      }
      ops.push_back(std::move(d));
    }
    // --- per-action faults ------------------------------------------------
    if (fault_applies(instance) && fault_.action == action.name &&
        !fault_.action.empty()) {
      if (fault_.kind == FaultKind::kDropAssignment && !ops.empty()) {
        for (size_t i = 0; i < ops.size(); ++i) {
          if (ops[i].kind == DevOp::Kind::kAssign &&
              ops[i].origin == DevOp::Origin::kGeneric) {
            ops.erase(ops.begin() + static_cast<long>(i));
            break;
          }
        }
      }
      if (fault_.kind == FaultKind::kSwappedAssignments) {
        // The first two generic assignments write each other's dests.
        std::vector<size_t> idx;
        for (size_t i = 0; i < ops.size() && idx.size() < 2; ++i) {
          if (ops[i].kind == DevOp::Kind::kAssign &&
              ops[i].origin == DevOp::Origin::kGeneric) {
            idx.push_back(i);
          }
        }
        if (idx.size() == 2) std::swap(ops[idx[0]].dest, ops[idx[1]].dest);
      }
    }
    if (fault_.kind == FaultKind::kDropSetValid && fault_applies(instance)) {
      ops.erase(std::remove_if(ops.begin(), ops.end(),
                               [&](const DevOp& d) {
                                 return d.origin == DevOp::Origin::kSetValid &&
                                        d.header == fault_.header;
                               }),
                ops.end());
    }
    return ops;
  }

  ir::ExprRef bind_args(ir::ExprRef e, const p4::ActionDef& action,
                        const std::vector<uint64_t>& args) {
    const std::string prefix = "$arg." + action.name + ".";
    return ir::substitute(
        e, ctx_.arena,
        [&](ir::FieldId f, int w) -> ir::ExprRef {
          const std::string& name = ctx_.fields.name(f);
          if (!util::starts_with(name, prefix)) return nullptr;
          std::string_view pname = std::string_view(name).substr(prefix.size());
          for (size_t i = 0; i < action.params.size(); ++i) {
            if (action.params[i].name == pname) {
              return ctx_.arena.constant(args.at(i), w);
            }
          }
          throw util::InternalError("toolchain: unknown action parameter");
        },
        memo_);
  }

  DevTable compile_table(const p4::TableDef& t, const std::string& instance) {
    DevTable out;
    out.name = t.name;
    for (const p4::TableKey& k : t.keys) {
      DevKey dk;
      dk.field = fid(k.field);
      dk.width = ctx_.fields.width(dk.field);
      dk.kind = k.kind;
      if (fault_.kind == FaultKind::kMaskFoldBug && fault_applies(instance) &&
          dk.kind == p4::MatchKind::kTernary) {
        // The miscompiled ternary behaves as an exact match on value.
        dk.kind = p4::MatchKind::kExact;
      }
      out.keys.push_back(dk);
    }
    for (const p4::TableEntry* e : rules_.ordered_entries(t)) {
      DevEntry de;
      de.source = *e;
      de.matches = e->matches;
      de.ops = compile_ops(*dp_.program.find_action(e->action), e->args,
                           instance);
      out.entries.push_back(std::move(de));
    }
    std::string def_action = t.default_action;
    std::vector<uint64_t> def_args = t.default_args;
    auto it = rules_.default_overrides.find(t.name);
    if (it != rules_.default_overrides.end()) {
      def_action = it->second.action;
      def_args = it->second.args;
    }
    out.default_action = def_action;
    out.default_ops =
        compile_ops(*dp_.program.find_action(def_action), def_args, instance);
    if (fault_.kind == FaultKind::kWrongDefaultAction &&
        fault_applies(instance) && fault_.table == t.name) {
      out.default_ops.clear();  // miss silently does nothing
    }
    return out;
  }

  DevControlBlock compile_block(const p4::ControlBlock& b,
                                DevInstance& inst,
                                const std::string& instance) {
    DevControlBlock out;
    for (const p4::ControlStmt& s : b.stmts) {
      DevControlStmt d;
      switch (s.kind) {
        case p4::ControlStmt::Kind::kApply: {
          d.kind = DevControlStmt::Kind::kApply;
          d.table = inst.tables.size();
          inst.tables.push_back(
              compile_table(*dp_.program.find_table(s.table), instance));
          break;
        }
        case p4::ControlStmt::Kind::kIf:
          d.kind = DevControlStmt::Kind::kIf;
          d.cond = mutate_cond(s.cond, instance);
          d.then_block = compile_block(s.then_block, inst, instance);
          d.else_block = compile_block(s.else_block, inst, instance);
          break;
        case p4::ControlStmt::Kind::kOp: {
          d.kind = DevControlStmt::Kind::kOp;
          p4::ActionDef tmp;
          tmp.name = "$inline";
          tmp.ops = {s.op};
          std::vector<DevOp> ops = compile_ops(tmp, {}, instance);
          util::check(ops.size() == 1, "toolchain: inline op count");
          d.op = ops[0];
          break;
        }
      }
      out.stmts.push_back(std::move(d));
    }
    return out;
  }

  DevInstance compile_instance(const p4::PipeInstance& pi) {
    const p4::PipelineDef& def = *dp_.program.find_pipeline(pi.pipeline);
    DevInstance inst;
    inst.name = pi.name;
    inst.switch_id = pi.switch_id;

    // Parser: states by index.
    std::unordered_map<std::string, int> state_idx;
    for (const p4::ParserState& s : def.parser.states) {
      state_idx.emplace(s.name, static_cast<int>(state_idx.size()));
    }
    auto next_of = [&](const std::string& n) {
      if (n == "accept") return kAccept;
      if (n == "reject") return kReject;
      return state_idx.at(n);
    };
    std::unordered_map<std::string, size_t> header_idx;
    for (size_t i = 0; i < dp_.program.headers.size(); ++i) {
      header_idx.emplace(dp_.program.headers[i].name, i);
    }
    for (const p4::ParserState& s : def.parser.states) {
      DevParserState ds;
      ds.name = s.name;
      for (const std::string& h : s.extracts) {
        ds.extracts.push_back(header_idx.at(h));
      }
      if (!s.select_field.empty()) {
        ds.select = fid(s.select_field);
        ds.select_width = ctx_.fields.width(ds.select);
      }
      const bool skip_cases = fault_.kind == FaultKind::kParserSkipSelect &&
                              fault_applies(pi.name) &&
                              fault_.parser_state == s.name;
      if (!skip_cases) {
        for (const p4::ParserTransition& t : s.cases) {
          uint64_t mask = t.mask;
          if (fault_.kind == FaultKind::kMaskFoldBug && fault_applies(pi.name)) {
            // The frontend folds the mask away: the case matches the raw
            // value exactly.
            mask = util::mask_bits(ds.select_width == 0 ? 64
                                                        : ds.select_width);
          }
          ds.cases.push_back({t.value, mask, next_of(t.next)});
        }
      }
      ds.default_next = next_of(s.default_next);
      inst.parser.push_back(std::move(ds));
    }
    inst.start_state = state_idx.at(def.parser.start);

    inst.control = compile_block(def.control, inst, pi.name);

    inst.emit_order = def.deparser.emit_order;
    for (const p4::ChecksumUpdate& u : def.deparser.checksum_updates) {
      DevChecksum c;
      c.dest = fid(u.dest);
      c.guard_header = u.guard_header;
      c.algo = u.algo;
      for (const std::string& s : u.sources) c.sources.push_back(fid(s));
      inst.checksums.push_back(std::move(c));
    }
    return inst;
  }

  void apply_global_faults() {
    switch (fault_.kind) {
      case FaultKind::kSkipMetadataZero:
        out_.zero_metadata = false;
        break;
      case FaultKind::kFieldOverlap:
        out_.overlap_writer = fid(fault_.field_a);
        out_.overlap_victim = fid(fault_.field_b);
        break;
      case FaultKind::kAddCarryLeak:
        out_.carry_victim = fid(fault_.field_b);
        out_.carry_instance = fault_.instance;
        break;
      default:
        break;
    }
  }

  const p4::DataPlane& dp_;
  const p4::RuleSet& rules_;
  ir::Context& ctx_;
  FaultSpec fault_;
  DeviceProgram out_;
  ir::SubstMemo memo_;  // scratch of mutate_cond() and bind_args()
};

}  // namespace

DeviceProgram compile(const p4::DataPlane& dp, const p4::RuleSet& rules,
                      ir::Context& ctx, const FaultSpec& fault) {
  return Compiler(dp, rules, ctx, fault).compile();
}

}  // namespace meissa::sim
