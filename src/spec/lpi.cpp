#include "spec/lpi.hpp"

#include <cctype>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace meissa::spec {

namespace {

// A small self-contained lexer (shares the M4 token conventions).
struct Token {
  enum class Kind : uint8_t { kIdent, kNumber, kPunct, kEnd } kind = Kind::kEnd;
  std::string text;
  uint64_t number = 0;
  int line = 1;
};

class Lexer {
 public:
  explicit Lexer(std::string_view src) : src_(src) { advance(); }
  const Token& peek() const { return tok_; }
  Token take() {
    Token t = tok_;
    advance();
    return t;
  }
  int line() const { return tok_.line; }

 private:
  void advance() {
    while (pos_ < src_.size()) {
      char c = src_[pos_];
      if (c == '\n') {
        ++line_;
        ++pos_;
      } else if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '#') {
        while (pos_ < src_.size() && src_[pos_] != '\n') ++pos_;
      } else {
        break;
      }
    }
    tok_ = Token{};
    tok_.line = line_;
    if (pos_ >= src_.size()) return;
    char c = src_[pos_];
    auto ident_char = [&](size_t at) {
      char x = src_[at];
      if (std::isalnum(static_cast<unsigned char>(x)) || x == '_' || x == '$') {
        return true;
      }
      return x == '.' && at + 1 < src_.size() &&
             (std::isalnum(static_cast<unsigned char>(src_[at + 1])) ||
              src_[at + 1] == '_' || src_[at + 1] == '$');
    };
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == '$') {
      size_t start = pos_;
      while (pos_ < src_.size() && ident_char(pos_)) ++pos_;
      tok_.kind = Token::Kind::kIdent;
      tok_.text = std::string(src_.substr(start, pos_ - start));
      return;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t start = pos_;
      int base = 10;
      if (c == '0' && pos_ + 1 < src_.size() &&
          (src_[pos_ + 1] == 'x' || src_[pos_ + 1] == 'X')) {
        base = 16;
        pos_ += 2;
      }
      while (pos_ < src_.size() &&
             std::isxdigit(static_cast<unsigned char>(src_[pos_]))) {
        ++pos_;
      }
      std::string text(src_.substr(start, pos_ - start));
      tok_.kind = Token::Kind::kNumber;
      tok_.text = text;
      tok_.number =
          std::stoull(base == 16 ? text.substr(2) : text, nullptr, base);
      return;
    }
    static const char* multi[] = {"==", "!=", "<=", ">=", "&&", "||",
                                  "<<", ">>"};
    for (const char* m : multi) {
      if (src_.substr(pos_).rfind(m, 0) == 0) {
        tok_.kind = Token::Kind::kPunct;
        tok_.text = m;
        pos_ += 2;
        return;
      }
    }
    tok_.kind = Token::Kind::kPunct;
    tok_.text = std::string(1, c);
    ++pos_;
  }

  std::string_view src_;
  size_t pos_ = 0;
  int line_ = 1;
  Token tok_;
};

class LpiParser {
 public:
  LpiParser(std::string_view src, ir::Context& ctx, const p4::Program& prog)
      : lex_(src), ctx_(ctx), prog_(prog) {}

  std::vector<Intent> parse() {
    std::vector<Intent> intents;
    while (lex_.peek().kind != Token::Kind::kEnd) {
      expect_ident("intent");
      IntentBuilder ib(ctx_, prog_, expect(Token::Kind::kIdent).text);
      expect_punct("{");
      while (!accept_punct("}")) {
        std::string kw = expect(Token::Kind::kIdent).text;
        if (kw == "assume") {
          ib.assume(parse_expr());
          expect_punct(";");
        } else if (kw == "expect") {
          parse_expect(ib);
        } else {
          fail("expected 'assume' or 'expect', got '" + kw + "'");
        }
      }
      intents.push_back(ib.build());
    }
    return intents;
  }

 private:
  [[noreturn]] void fail(const std::string& what) {
    throw util::ParseError(what, lex_.line());
  }

  Token expect(Token::Kind kind) {
    if (lex_.peek().kind != kind) {
      fail("unexpected token '" + lex_.peek().text + "'");
    }
    return lex_.take();
  }

  void expect_punct(const std::string& p) {
    if (lex_.peek().kind != Token::Kind::kPunct || lex_.peek().text != p) {
      fail("expected '" + p + "', got '" + lex_.peek().text + "'");
    }
    lex_.take();
  }

  void expect_ident(const std::string& w) {
    if (lex_.peek().kind != Token::Kind::kIdent || lex_.peek().text != w) {
      fail("expected '" + w + "', got '" + lex_.peek().text + "'");
    }
    lex_.take();
  }

  bool accept_punct(const std::string& p) {
    if (lex_.peek().kind == Token::Kind::kPunct && lex_.peek().text == p) {
      lex_.take();
      return true;
    }
    return false;
  }

  bool accept_ident(const std::string& w) {
    if (lex_.peek().kind == Token::Kind::kIdent && lex_.peek().text == w) {
      lex_.take();
      return true;
    }
    return false;
  }

  void parse_expect(IntentBuilder& ib) {
    if (accept_ident("delivered")) {
      ib.expect_delivered();
      expect_punct(";");
      return;
    }
    if (accept_ident("dropped")) {
      ib.expect_dropped();
      expect_punct(";");
      return;
    }
    if (accept_ident("header")) {
      std::string h = expect(Token::Kind::kIdent).text;
      bool present;
      if (accept_ident("present")) {
        present = true;
      } else if (accept_ident("absent")) {
        present = false;
      } else {
        fail("expected 'present' or 'absent'");
      }
      ib.expect_header(std::move(h), present);
      expect_punct(";");
      return;
    }
    if (accept_ident("checksum")) {
      std::string dest = expect(Token::Kind::kIdent).text;
      expect_ident("over");
      expect_punct("(");
      std::vector<std::string> sources;
      do {
        sources.push_back(expect(Token::Kind::kIdent).text);
      } while (accept_punct(","));
      expect_punct(")");
      expect_punct(";");
      ib.expect_checksum(std::move(dest), std::move(sources));
      return;
    }
    ib.expect(parse_expr());
    expect_punct(";");
  }

  // ----- expressions -------------------------------------------------------

  std::optional<int> field_width(const std::string& name) {
    std::string_view raw = name;
    if (util::starts_with(raw, "in.")) raw = raw.substr(3);
    else if (util::starts_with(raw, "out.")) raw = raw.substr(4);
    else return std::nullopt;  // intents may only reference in./out. fields
    if (raw == "$port") return p4::kPortWidth;
    return prog_.field_width(raw);
  }

  ir::ExprRef leaf_for(const std::string& name) {
    std::optional<int> w = field_width(name);
    if (!w) fail("unknown intent field '" + name + "'");
    return ctx_.field_var(name, *w);
  }

  ir::ExprRef parse_primary(int width_hint) {
    if (accept_punct("(")) {
      ir::ExprRef e = parse_expr(width_hint);
      expect_punct(")");
      return e;
    }
    if (accept_punct("!")) {
      ir::ExprRef e = parse_primary(width_hint);
      if (!e->is_bool()) fail("'!' applied to non-boolean");
      return ctx_.arena.bnot(e);
    }
    if (lex_.peek().kind == Token::Kind::kNumber) {
      Token t = lex_.take();
      int w = width_hint;
      if (w <= 0) {
        w = 1;
        while (!util::fits(t.number, w)) ++w;
      }
      if (!util::fits(t.number, w)) {
        fail("constant does not fit in " + std::to_string(w) + " bits");
      }
      return ctx_.arena.constant(t.number, w);
    }
    return leaf_for(expect(Token::Kind::kIdent).text);
  }

  static int precedence(std::string_view op) {
    if (op == "||") return 1;
    if (op == "&&") return 2;
    if (op == "==" || op == "!=" || op == "<" || op == "<=" || op == ">" ||
        op == ">=") {
      return 3;
    }
    if (op == "|") return 4;
    if (op == "^") return 5;
    if (op == "&") return 6;
    if (op == "<<" || op == ">>") return 7;
    if (op == "+" || op == "-") return 8;
    return -1;
  }

  ir::ExprRef combine(const std::string& op, ir::ExprRef a, ir::ExprRef b) {
    if (op == "||" || op == "&&") {
      if (!a->is_bool() || !b->is_bool()) fail("non-boolean operand");
      return op == "||" ? ctx_.arena.bor(a, b) : ctx_.arena.band(a, b);
    }
    if (a->is_bool() || b->is_bool()) fail("boolean operand to '" + op + "'");
    if (a->width != b->width) fail("operand width mismatch for '" + op + "'");
    if (op == "==") return ctx_.arena.cmp(ir::CmpOp::kEq, a, b);
    if (op == "!=") return ctx_.arena.cmp(ir::CmpOp::kNe, a, b);
    if (op == "<") return ctx_.arena.cmp(ir::CmpOp::kLt, a, b);
    if (op == "<=") return ctx_.arena.cmp(ir::CmpOp::kLe, a, b);
    if (op == ">") return ctx_.arena.cmp(ir::CmpOp::kGt, a, b);
    if (op == ">=") return ctx_.arena.cmp(ir::CmpOp::kGe, a, b);
    if (op == "+") return ctx_.arena.arith(ir::ArithOp::kAdd, a, b);
    if (op == "-") return ctx_.arena.arith(ir::ArithOp::kSub, a, b);
    if (op == "&") return ctx_.arena.arith(ir::ArithOp::kAnd, a, b);
    if (op == "|") return ctx_.arena.arith(ir::ArithOp::kOr, a, b);
    if (op == "^") return ctx_.arena.arith(ir::ArithOp::kXor, a, b);
    if (op == "<<") return ctx_.arena.arith(ir::ArithOp::kShl, a, b);
    if (op == ">>") return ctx_.arena.arith(ir::ArithOp::kShr, a, b);
    fail("unknown operator '" + op + "'");
  }

  ir::ExprRef parse_expr(int width_hint = 0) {
    return parse_binary(parse_primary(width_hint), 0, width_hint);
  }

  ir::ExprRef parse_binary(ir::ExprRef lhs, int min_prec, int width_hint) {
    while (lex_.peek().kind == Token::Kind::kPunct &&
           precedence(lex_.peek().text) >= std::max(min_prec, 1)) {
      std::string op = lex_.take().text;
      int prec = precedence(op);
      int hint = lhs->is_bool() ? width_hint : lhs->width;
      ir::ExprRef rhs = parse_primary(hint);
      while (lex_.peek().kind == Token::Kind::kPunct &&
             precedence(lex_.peek().text) > prec) {
        rhs = parse_binary(rhs, precedence(lex_.peek().text), hint);
      }
      lhs = combine(op, lhs, rhs);
    }
    return lhs;
  }

  Lexer lex_;
  ir::Context& ctx_;
  const p4::Program& prog_;
};

}  // namespace

std::vector<Intent> parse_lpi(std::string_view source, ir::Context& ctx,
                              const p4::Program& prog) {
  return LpiParser(source, ctx, prog).parse();
}

}  // namespace meissa::spec
