#include "testlib.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

namespace meissa::testlib {

std::optional<ConcreteOutcome> concrete_run(const cfg::Cfg& g,
                                            ir::ConcreteState initial,
                                            const ir::Context& ctx) {
  // Backtracking walk: at forks, try successors in order; commit to the
  // first that completes. Each node steps through cfg::eval_path, on a
  // copy of the state so a failed branch leaves its parent's intact.
  std::optional<ConcreteOutcome> result;
  cfg::Path path;
  auto walk = [&](auto&& self, cfg::NodeId id, ir::DenseState s) -> bool {
    const cfg::Node& n = g.node(id);
    if (!cfg::eval_path(g, {id}, s, ctx)) return false;
    path.push_back(id);
    if (n.succ.empty()) {
      ConcreteOutcome out;
      out.terminal = id;
      out.exit = n.exit;
      out.emit_instance = n.emit_instance;
      for (ir::FieldId f = 0; f < s.size(); ++f) {
        if (auto v = s.find(f)) out.state[f] = *v;
      }
      out.path = path;
      result = out;
      return true;
    }
    for (cfg::NodeId succ : n.succ) {
      if (self(self, succ, s)) return true;
    }
    path.pop_back();
    return false;
  };
  walk(walk, g.entry(), dense(initial, ctx));
  return result;
}

ir::DenseState dense(const ir::ConcreteState& s, const ir::Context& ctx) {
  ir::DenseState d;
  d.reset(ctx.fields.size());
  d.load(s);
  return d;
}

std::vector<ir::FieldId> random_cfg_fields(ir::Context& ctx) {
  std::vector<ir::FieldId> fs;
  for (int i = 0; i < 4; ++i) {
    std::string name = "x";
    name += std::to_string(i);
    fs.push_back(ctx.fields.intern(name, 8));
  }
  return fs;
}

cfg::Cfg random_pipeline_cfg(ir::Context& ctx, util::Rng& rng, int k,
                             int diamonds_per_pipe) {
  std::vector<ir::FieldId> fields = random_cfg_fields(ctx);
  cfg::Cfg g;
  auto rand_aexp = [&](int depth) -> ir::ExprRef {
    auto self = [&](auto&& rec, int d) -> ir::ExprRef {
      if (d == 0 || rng.chance(1, 3)) {
        if (rng.chance(1, 2)) {
          return ctx.arena.constant(rng.bits(8), 8);
        }
        return ctx.var(fields[rng.below(fields.size())]);
      }
      const ir::ArithOp ops[] = {ir::ArithOp::kAdd, ir::ArithOp::kSub,
                                 ir::ArithOp::kAnd, ir::ArithOp::kOr,
                                 ir::ArithOp::kXor};
      return ctx.arena.arith(ops[rng.below(5)], rec(rec, d - 1), rec(rec, d - 1));
    };
    return self(self, depth);
  };
  auto rand_cond = [&]() {
    return ctx.arena.cmp(static_cast<ir::CmpOp>(rng.below(6)),
                         ctx.var(fields[rng.below(fields.size())]),
                         ctx.arena.constant(rng.bits(rng.chance(1, 2) ? 2 : 8), 8));
  };

  cfg::NodeId entry = g.add(ir::Stmt::nop());
  g.set_entry(entry);
  cfg::NodeId cur = entry;
  for (int pipe = 0; pipe < k; ++pipe) {
    cfg::InstanceInfo info;
    info.name = "p";
    info.name += std::to_string(pipe);
    info.pipeline = info.name;
    cfg::NodeId pentry = g.add(ir::Stmt::nop());
    g.link(cur, pentry);
    info.entry = pentry;
    cfg::NodeId c = pentry;
    for (int d = 0; d < diamonds_per_pipe; ++d) {
      ir::ExprRef cond = rand_cond();
      cfg::NodeId fork = g.add(ir::Stmt::nop());
      g.link(c, fork);
      cfg::NodeId join = g.add(ir::Stmt::nop());
      for (int side = 0; side < 2; ++side) {
        ir::ExprRef guard = side == 0 ? cond : ctx.arena.bnot(cond);
        cfg::NodeId a = g.add(ir::Stmt::assume(guard));
        g.link(fork, a);
        cfg::NodeId b = a;
        int assigns = static_cast<int>(rng.range(0, 2));
        for (int i = 0; i < assigns; ++i) {
          cfg::NodeId asg = g.add(ir::Stmt::assign(
              fields[rng.below(fields.size())], rand_aexp(2)));
          g.link(b, asg);
          b = asg;
        }
        g.link(b, join);
      }
      c = join;
    }
    cfg::NodeId pexit = g.add(ir::Stmt::nop());
    g.link(c, pexit);
    info.exit = pexit;
    for (cfg::NodeId n = pentry; n <= pexit; ++n) {
      g.node(n).instance = static_cast<int>(g.instances().size());
    }
    g.instances().push_back(std::move(info));
    cur = pexit;
  }
  cfg::NodeId emit = g.add(ir::Stmt::nop());
  g.node(emit).exit = cfg::ExitKind::kEmit;
  g.node(emit).emit_instance = k - 1;
  g.link(cur, emit);
  g.check_well_formed();
  return g;
}

namespace json {

namespace {

// Recursive-descent parser over a string_view; throws std::runtime_error
// with the byte offset on the first violation.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing garbage after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("json parse error at offset " +
                             std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Value parse_value() {
    skip_ws();
    char c = peek();
    Value v;
    switch (c) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"':
        v.kind = Value::Kind::kString;
        v.str = parse_string();
        return v;
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        v.kind = Value::Kind::kBool;
        v.boolean = true;
        return v;
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        v.kind = Value::Kind::kBool;
        v.boolean = false;
        return v;
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        v.kind = Value::Kind::kNull;
        return v;
      default:
        return parse_number();
    }
  }

  Value parse_object() {
    expect('{');
    Value v;
    v.kind = Value::Kind::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      if (peek() != '"') fail("object key must be a string");
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.object.emplace_back(std::move(key), parse_value());
      skip_ws();
      char c = peek();
      ++pos_;
      if (c == '}') return v;
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  Value parse_array() {
    expect('[');
    Value v;
    v.kind = Value::Kind::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(parse_value());
      skip_ws();
      char c = peek();
      ++pos_;
      if (c == ']') return v;
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      char c = peek();
      ++pos_;
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("raw control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      char esc = peek();
      ++pos_;
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = peek();
            ++pos_;
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape digit");
          }
          // The repo's emitters only \u-escape control characters, so a
          // one-byte decode suffices; anything else is an emitter bug.
          if (code > 0x7F) fail("unexpected non-ASCII \\u escape");
          out += static_cast<char>(code);
          break;
        }
        default:
          fail("bad escape character");
      }
    }
  }

  Value parse_number() {
    size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (!std::isdigit(static_cast<unsigned char>(peek()))) {
      fail("bad number");
    }
    // Leading zeros are invalid JSON ("01"): a lone 0 must be followed by
    // '.', 'e', or a delimiter.
    bool leading_zero = peek() == '0';
    size_t digits_start = pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (leading_zero && pos_ - digits_start > 1) fail("leading zero");
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        fail("digit required after decimal point");
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        fail("digit required in exponent");
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    Value v;
    v.kind = Value::Kind::kNumber;
    v.number = std::strtod(std::string(text_.substr(start, pos_ - start)).c_str(),
                           nullptr);
    if (!std::isfinite(v.number)) fail("number out of range");
    return v;
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

const Value* Value::find(const std::string& key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Value& Value::at(const std::string& key) const {
  const Value* v = find(key);
  if (v == nullptr) throw std::runtime_error("json: missing key '" + key + "'");
  return *v;
}

const std::string& Value::as_string() const {
  if (kind != Kind::kString) throw std::runtime_error("json: not a string");
  return str;
}

double Value::as_number() const {
  if (kind != Kind::kNumber) throw std::runtime_error("json: not a number");
  return number;
}

bool Value::as_bool() const {
  if (kind != Kind::kBool) throw std::runtime_error("json: not a bool");
  return boolean;
}

Value parse(std::string_view text) { return Parser(text).parse_document(); }

}  // namespace json

}  // namespace meissa::testlib
