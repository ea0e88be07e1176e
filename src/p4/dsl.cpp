#include "p4/dsl.hpp"

#include <climits>

#include "p4/parse.hpp"
#include "util/bits.hpp"

namespace meissa::p4 {

namespace {

// The most cells one `register` declaration may intern.
constexpr uint64_t kMaxRegisterCells = 4096;

class M4Parser final : public ExprParser {
 public:
  M4Parser(std::string_view src, ir::Context& ctx)
      : ExprParser(src, ctx), builder_(ctx, "m4") {}

  ParsedUnit parse() {
    // `program <name>;`
    expect_ident("program");
    prog_name_ = take_ident();
    expect_punct(";");
    while (lex_.peek().kind != Tok::kEnd) {
      const std::string& kw = take_ident();
      if (kw == "header") {
        parse_header();
      } else if (kw == "metadata") {
        parse_metadata();
      } else if (kw == "register") {
        parse_register();
      } else if (kw == "action") {
        parse_action();
      } else if (kw == "table") {
        parse_table();
      } else if (kw == "pipeline") {
        parse_pipeline();
      } else if (kw == "topology") {
        parse_topology();
      } else if (kw == "rules") {
        parse_rules();
      } else {
        fail("unexpected top-level keyword '" + kw + "'");
      }
    }
    ParsedUnit unit;
    unit.dp.program = builder_.build();
    unit.dp.program.name = prog_name_;
    unit.dp.topology = std::move(topology_);
    validate(unit.dp, ctx_);
    unit.rules = std::move(rules_);
    validate_rules(unit.dp.program, unit.rules);
    return unit;
  }

 private:
  int expect_width() {
    return static_cast<int>(expect_number(1, 64, "bit width"));
  }
  int expect_int(std::string_view what) {
    return static_cast<int>(expect_number(0, INT_MAX, what));
  }

  // ----- declarations -----------------------------------------------------

  void parse_header() {
    std::string name = take_ident();
    expect_punct("{");
    std::vector<FieldDef> fields;
    while (!accept_punct("}")) {
      std::string f = take_ident();
      expect_punct(":");
      fields.push_back({f, expect_width()});
      expect_punct(";");
    }
    builder_.header(std::move(name), std::move(fields));
  }

  void parse_metadata() {
    std::string name = take_ident();
    expect_punct(":");
    int width = expect_width();
    expect_punct(";");
    builder_.metadata_field(std::move(name), width);
  }

  void parse_register() {
    std::string name = take_ident();
    expect_punct(":");
    int width = expect_width();
    expect_punct("[");
    size_t cells = expect_number(0, kMaxRegisterCells, "register cell count");
    expect_punct("]");
    expect_punct(";");
    builder_.register_array(std::move(name), width, cells);
  }

  void parse_action() {
    ActionDef a;
    a.name = take_ident();
    expect_punct("(");
    if (!accept_punct(")")) {
      do {
        std::string p = take_ident();
        expect_punct(":");
        a.params.push_back({p, expect_width()});
      } while (accept_punct(","));
      expect_punct(")");
    }
    // Params must be interned before the body references them.
    current_action_ = &a;
    for (const FieldDef& p : a.params) {
      ctx_.fields.intern(param_field(a.name, p.name), p.width);
    }
    expect_punct("{");
    while (!accept_punct("}")) {
      a.ops.push_back(parse_stmt());
    }
    current_action_ = nullptr;
    builder_.action(std::move(a));
  }

  ActionOp parse_stmt() {
    std::string head = take_ident();
    if (head == "set_valid" || head == "set_invalid") {
      expect_punct("(");
      std::string h = take_ident();
      expect_punct(")");
      expect_punct(";");
      return head == "set_valid" ? ActionOp::set_valid(std::move(h))
                                 : ActionOp::set_invalid(std::move(h));
    }
    expect_punct("=");
    // Hash forms: dest = crc16(f, ...);
    if (lex_.peek().kind == Tok::kIdent &&
        (lex_.peek().text == "crc16" || lex_.peek().text == "crc32" ||
         lex_.peek().text == "csum16" || lex_.peek().text == "xorfold")) {
      std::string algo = lex_.take().text;
      expect_punct("(");
      std::vector<std::string> keys;
      do {
        keys.push_back(take_ident());
      } while (accept_punct(","));
      expect_punct(")");
      expect_punct(";");
      HashAlgo h = algo == "crc16"    ? HashAlgo::kCrc16
                   : algo == "crc32"  ? HashAlgo::kCrc32
                   : algo == "csum16" ? HashAlgo::kCsum16
                                      : HashAlgo::kIdentityXor;
      return ActionOp::hash(std::move(head), h, std::move(keys));
    }
    ir::ExprRef value = parse_expr();
    expect_punct(";");
    std::optional<int> w = field_width(head);
    if (!w) fail("assignment to unknown field '" + head + "'");
    if (value->is_bool()) fail("boolean value assigned to '" + head + "'");
    if (value->width != *w) {
      fail("width mismatch assigning to '" + head + "' (" +
           std::to_string(value->width) + " vs " + std::to_string(*w) + ")");
    }
    return ActionOp::assign(std::move(head), value);
  }

  // ----- expression leaves --------------------------------------------------

  std::optional<int> field_width(const std::string& name) {
    if (current_action_ != nullptr) {
      for (const FieldDef& p : current_action_->params) {
        if (p.name == name) return p.width;
      }
    }
    // The program is still being built: declared fields are interned
    // eagerly, so the context knows their widths.
    ir::FieldId f = ctx_.fields.find(name);
    if (f != ir::kInvalidField) return ctx_.fields.width(f);
    if (name == kIngressPort || name == kEgressSpec) return kPortWidth;
    if (name == kDropFlag) return 1;
    return std::nullopt;
  }

  // An M4 leaf: `valid(<header>)`, an action parameter, or a field.
  ir::ExprRef leaf(const Token& ident) override {
    const std::string& name = ident.text;
    if (name == "valid" && accept_punct("(")) {
      std::string h = take_ident();
      expect_punct(")");
      return builder_.is_valid(h);
    }
    if (current_action_ != nullptr) {
      for (const FieldDef& p : current_action_->params) {
        if (p.name == name) {
          return builder_.arg(current_action_->name, p.name, p.width);
        }
      }
    }
    std::optional<int> w = field_width(name);
    if (!w) lex_.fail_at(ident, "unknown field '" + name + "' in expression");
    return ctx_.field_var(name, *w);
  }

  // ----- tables -------------------------------------------------------------

  void parse_table() {
    TableDef t;
    t.name = take_ident();
    expect_punct("{");
    while (!accept_punct("}")) {
      std::string kw = take_ident();
      if (kw == "key") {
        do {
          std::string f = take_ident();
          expect_punct(":");
          std::string kind = take_ident();
          MatchKind mk;
          if (kind == "exact") mk = MatchKind::kExact;
          else if (kind == "ternary") mk = MatchKind::kTernary;
          else if (kind == "lpm") mk = MatchKind::kLpm;
          else if (kind == "range") mk = MatchKind::kRange;
          else fail("unknown match kind '" + kind + "'");
          t.keys.push_back({std::move(f), mk});
        } while (accept_punct(","));
        expect_punct(";");
      } else if (kw == "actions") {
        do {
          t.actions.push_back(take_ident());
        } while (accept_punct(","));
        expect_punct(";");
      } else if (kw == "default") {
        t.default_action = take_ident();
        expect_punct("(");
        if (!accept_punct(")")) {
          do {
            t.default_args.push_back(expect(Tok::kNumber).number);
          } while (accept_punct(","));
          expect_punct(")");
        }
        expect_punct(";");
      } else {
        fail("unexpected table clause '" + kw + "'");
      }
    }
    builder_.table(std::move(t));
  }

  // ----- pipelines ----------------------------------------------------------

  void parse_pipeline() {
    PipelineDef p;
    p.name = take_ident();
    expect_punct("{");
    while (!accept_punct("}")) {
      std::string kw = take_ident();
      if (kw == "parser") {
        parse_parser(p.parser);
      } else if (kw == "control") {
        expect_punct("{");
        p.control = parse_block();
      } else if (kw == "deparser") {
        parse_deparser(p.deparser);
      } else {
        fail("unexpected pipeline section '" + kw + "'");
      }
    }
    builder_.pipeline(std::move(p));
  }

  void parse_parser(p4::Parser& parser) {
    expect_punct("{");
    bool first = true;
    while (!accept_punct("}")) {
      expect_ident("state");
      ParserState s;
      s.name = take_ident();
      if (first) {
        parser.start = s.name;
        first = false;
      }
      expect_punct("{");
      while (!accept_punct("}")) {
        std::string kw = take_ident();
        if (kw == "extract") {
          do {
            s.extracts.push_back(take_ident());
          } while (accept_punct(","));
          expect_punct(";");
        } else if (kw == "goto") {
          s.default_next = take_ident();
          expect_punct(";");
        } else if (kw == "select") {
          s.select_field = take_ident();
          std::optional<int> w = field_width(s.select_field);
          if (!w) fail("select on unknown field '" + s.select_field + "'");
          expect_punct("{");
          while (!accept_punct("}")) {
            if (accept_ident("default")) {
              expect_punct("->");
              s.default_next = take_ident();
              expect_punct(";");
              continue;
            }
            ParserTransition tr;
            tr.value = expect(Tok::kNumber).number;
            tr.mask = util::mask_bits(*w);
            if (accept_punct("/")) tr.mask = expect(Tok::kNumber).number;
            expect_punct("->");
            tr.next = take_ident();
            expect_punct(";");
            s.cases.push_back(tr);
          }
        } else {
          fail("unexpected parser clause '" + kw + "'");
        }
      }
      parser.states.push_back(std::move(s));
    }
  }

  ControlBlock parse_block() {
    ControlBlock b;
    while (!accept_punct("}")) {
      if (accept_ident("apply")) {
        b.stmts.push_back(ControlStmt::apply(take_ident()));
        expect_punct(";");
      } else if (accept_ident("if")) {
        Nested nested(*this);
        expect_punct("(");
        ir::ExprRef cond = parse_expr();
        if (!cond->is_bool()) fail("if-condition must be boolean");
        expect_punct(")");
        expect_punct("{");
        ControlBlock then_block = parse_block();
        ControlBlock else_block;
        if (accept_ident("else")) {
          expect_punct("{");
          else_block = parse_block();
        }
        b.stmts.push_back(ControlStmt::if_else(cond, std::move(then_block),
                                               std::move(else_block)));
      } else {
        b.stmts.push_back(ControlStmt::inline_op(parse_stmt()));
      }
    }
    return b;
  }

  void parse_deparser(Deparser& d) {
    expect_punct("{");
    while (!accept_punct("}")) {
      std::string kw = take_ident();
      if (kw == "emit") {
        do {
          d.emit_order.push_back(take_ident());
        } while (accept_punct(","));
        expect_punct(";");
      } else if (kw == "checksum") {
        ChecksumUpdate u;
        u.dest = take_ident();
        expect_ident("over");
        u.guard_header = take_ident();
        expect_punct("(");
        do {
          u.sources.push_back(take_ident());
        } while (accept_punct(","));
        expect_punct(")");
        expect_punct(";");
        d.checksum_updates.push_back(std::move(u));
      } else {
        fail("unexpected deparser clause '" + kw + "'");
      }
    }
  }

  // ----- topology & rules -----------------------------------------------------

  void parse_topology() {
    expect_punct("{");
    while (!accept_punct("}")) {
      std::string kw = take_ident();
      if (kw == "instance") {
        PipeInstance inst;
        inst.name = take_ident();
        expect_punct("=");
        inst.pipeline = take_ident();
        expect_punct("@");
        expect_ident("switch");
        inst.switch_id = expect_int("switch id");
        expect_punct(";");
        topology_.instances.push_back(std::move(inst));
      } else if (kw == "entry") {
        EntryPoint e;
        e.instance = take_ident();
        if (accept_ident("when")) e.guard = parse_expr();
        expect_punct(";");
        topology_.entries.push_back(std::move(e));
      } else if (kw == "edge") {
        TopoEdge e;
        e.from = take_ident();
        expect_punct("->");
        e.to = take_ident();
        if (accept_ident("when")) e.guard = parse_expr();
        expect_punct(";");
        topology_.edges.push_back(std::move(e));
      } else {
        fail("unexpected topology clause '" + kw + "'");
      }
    }
  }

  void parse_rules() {
    expect_punct("{");
    while (!accept_punct("}")) {
      TableEntry e;
      e.table = take_ident();
      expect_punct(":");
      do {
        std::string kind = take_ident();
        KeyMatch m;
        if (kind == "exact") {
          m = KeyMatch::exact(expect(Tok::kNumber).number);
        } else if (kind == "ternary") {
          uint64_t v = expect(Tok::kNumber).number;
          expect_punct("/");
          m = KeyMatch::ternary(v, expect(Tok::kNumber).number);
        } else if (kind == "lpm") {
          uint64_t v = expect(Tok::kNumber).number;
          expect_punct("/");
          m = KeyMatch::lpm(v, expect_int("prefix length"));
        } else if (kind == "range") {
          uint64_t lo = expect(Tok::kNumber).number;
          expect_punct("..");
          m = KeyMatch::range(lo, expect(Tok::kNumber).number);
        } else if (kind == "any") {
          m = KeyMatch::wildcard();
        } else {
          fail("unknown match '" + kind + "'");
        }
        e.matches.push_back(m);
      } while (accept_punct(","));
      if (accept_ident("prio")) {
        e.priority = expect_int("priority");
      }
      expect_punct("->");
      e.action = take_ident();
      expect_punct("(");
      if (!accept_punct(")")) {
        do {
          e.args.push_back(expect(Tok::kNumber).number);
        } while (accept_punct(","));
        expect_punct(")");
      }
      expect_punct(";");
      rules_.add(std::move(e));
    }
  }

  ProgramBuilder builder_;
  std::string prog_name_;
  ActionDef* current_action_ = nullptr;
  Topology topology_;
  RuleSet rules_;
};

}  // namespace

ParsedUnit parse_m4(std::string_view source, ir::Context& ctx) {
  return M4Parser(source, ctx).parse();
}

}  // namespace meissa::p4
