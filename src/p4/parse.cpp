#include "p4/parse.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>

#include "util/bits.hpp"
#include "util/error.hpp"

namespace meissa::p4 {

namespace {

bool word_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '$';
}

// Binary operator precedence (higher binds tighter); -1 for non-operators.
int precedence(std::string_view op) {
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

bool is_operator(const Token& t) {
  return t.kind == Tok::kPunct && precedence(t.text) > 0;
}

}  // namespace

// ------------------------------------------------------------------ Lexer

Lexer::Lexer(std::string_view src) : src_(src) { advance(); }

Token Lexer::take() {
  Token t = std::move(tok_);
  advance();
  return t;
}

void Lexer::fail_at(const Token& at, const std::string& what) const {
  size_t end = src_.find('\n', at.line_start);
  if (end == std::string_view::npos) end = src_.size();
  throw util::ParseError(
      what, at.line, at.column,
      std::string(src_.substr(at.line_start, end - at.line_start)));
}

void Lexer::advance() {
  skip_space_and_comments();
  tok_ = Token{};
  tok_.line = line_;
  tok_.column = static_cast<int>(pos_ - line_start_) + 1;
  tok_.line_start = line_start_;
  if (pos_ >= src_.size()) return;
  const char c = src_[pos_];
  if (std::isdigit(static_cast<unsigned char>(c))) {
    lex_number();
    return;
  }
  if (word_char(c)) {
    const size_t start = pos_;
    while (pos_ < src_.size() && ident_char(pos_)) ++pos_;
    tok_.kind = Tok::kIdent;
    tok_.text = std::string(src_.substr(start, pos_ - start));
    return;
  }
  tok_.kind = Tok::kPunct;
  // Multi-character punctuation first.
  for (std::string_view m :
       {"->", "==", "!=", "<=", ">=", "&&", "||", "<<", ">>", ".."}) {
    if (src_.substr(pos_, 2) == m) {
      tok_.text = m;
      pos_ += 2;
      return;
    }
  }
  tok_.text = std::string(1, c);
  ++pos_;
}

void Lexer::lex_number() {
  const size_t start = pos_;
  while (pos_ < src_.size() &&
         std::isalnum(static_cast<unsigned char>(src_[pos_]))) {
    ++pos_;
  }
  tok_.kind = Tok::kNumber;
  tok_.text = std::string(src_.substr(start, pos_ - start));
  std::string_view digits = tok_.text;
  int base = 10;
  if (digits.size() > 1 && digits[0] == '0' &&
      (digits[1] == 'x' || digits[1] == 'X')) {
    digits.remove_prefix(2);
    base = 16;
  }
  const char* end = digits.data() + digits.size();
  auto [ptr, ec] = std::from_chars(digits.data(), end, tok_.number, base);
  if (ec == std::errc::result_out_of_range) {
    fail_at(tok_, "number " + tok_.text + " does not fit in 64 bits");
  }
  if (ec != std::errc() || ptr != end) {
    fail_at(tok_, "malformed number '" + tok_.text + "'");
  }
}

bool Lexer::ident_char(size_t at) const {
  if (word_char(src_[at])) return true;
  // A dot continues an identifier only when another identifier character
  // follows (so `0..5` and `a . b` don't glue).
  return src_[at] == '.' && at + 1 < src_.size() && word_char(src_[at + 1]);
}

void Lexer::skip_space_and_comments() {
  while (pos_ < src_.size()) {
    const char c = src_[pos_];
    if (c == '\n') {
      ++line_;
      ++pos_;
      line_start_ = pos_;
    } else if (std::isspace(static_cast<unsigned char>(c))) {
      ++pos_;
    } else if (c == '#' || src_.substr(pos_, 2) == "//") {
      while (pos_ < src_.size() && src_[pos_] != '\n') ++pos_;
    } else {
      break;
    }
  }
}

// ------------------------------------------------------------ ExprParser

Token ExprParser::expect(Tok kind) {
  if (lex_.peek().kind != kind) {
    fail("expected " + std::string(kind == Tok::kIdent    ? "identifier"
                                   : kind == Tok::kNumber ? "number"
                                                          : "symbol") +
         ", got '" + lex_.peek().text + "'");
  }
  return lex_.take();
}

std::string ExprParser::take_ident() { return expect(Tok::kIdent).text; }

void ExprParser::expect_punct(std::string_view p) {
  if (!accept_punct(p)) {
    fail("expected '" + std::string(p) + "', got '" + lex_.peek().text + "'");
  }
}

void ExprParser::expect_ident(std::string_view word) {
  if (!accept_ident(word)) {
    fail("expected '" + std::string(word) + "', got '" + lex_.peek().text +
         "'");
  }
}

bool ExprParser::accept_punct(std::string_view p) {
  if (lex_.peek().kind == Tok::kPunct && lex_.peek().text == p) {
    lex_.take();
    return true;
  }
  return false;
}

bool ExprParser::accept_ident(std::string_view word) {
  if (lex_.peek().kind == Tok::kIdent && lex_.peek().text == word) {
    lex_.take();
    return true;
  }
  return false;
}

uint64_t ExprParser::expect_number(uint64_t lo, uint64_t hi,
                                   std::string_view what) {
  const uint64_t v = lex_.peek().number;
  if (lex_.peek().kind == Tok::kNumber && (v < lo || v > hi)) {
    fail(std::string(what) + " " + lex_.peek().text + " out of range [" +
         std::to_string(lo) + ", " + std::to_string(hi) + "]");
  }
  return expect(Tok::kNumber).number;
}

ExprParser::Nested::Nested(ExprParser& p) : p_(p) {
  if (p_.depth_ >= kMaxNesting) {
    p_.fail("nesting deeper than " + std::to_string(kMaxNesting));
  }
  ++p_.depth_;
}

ir::ExprRef ExprParser::parse_expr(int width_hint) {
  return parse_binary(parse_primary(width_hint), 0, width_hint);
}

ir::ExprRef ExprParser::parse_primary(int width_hint) {
  if (accept_punct("(")) {
    Nested nested(*this);
    ir::ExprRef e = parse_expr(width_hint);
    expect_punct(")");
    return e;
  }
  if (accept_punct("!")) {
    Nested nested(*this);
    ir::ExprRef e = parse_primary(width_hint);
    if (!e->is_bool()) fail("'!' applied to a non-boolean");
    return ctx_.arena.bnot(e);
  }
  if (lex_.peek().kind == Tok::kNumber) {
    const Token t = lex_.take();
    int w = width_hint;
    if (w <= 0) {
      w = 1;
      while (!util::fits(t.number, w)) ++w;
    }
    if (!util::fits(t.number, w)) {
      lex_.fail_at(t, "constant " + t.text + " does not fit in " +
                          std::to_string(w) + " bits");
    }
    return ctx_.arena.constant(t.number, w);
  }
  return leaf(expect(Tok::kIdent));
}

ir::ExprRef ExprParser::parse_binary(ir::ExprRef lhs, int min_prec,
                                     int width_hint) {
  // Each recursive call binds a strictly tighter operator, so the depth
  // is bounded by the number of precedence levels.
  while (is_operator(lex_.peek()) &&
         precedence(lex_.peek().text) >= std::max(min_prec, 1)) {
    const std::string op = lex_.take().text;
    const int prec = precedence(op);
    const int hint = lhs->is_bool() ? width_hint : lhs->width;
    ir::ExprRef rhs = parse_primary(hint);
    while (is_operator(lex_.peek()) && precedence(lex_.peek().text) > prec) {
      rhs = parse_binary(rhs, precedence(lex_.peek().text), hint);
    }
    lhs = combine(op, lhs, rhs);
  }
  return lhs;
}

ir::ExprRef ExprParser::combine(const std::string& op, ir::ExprRef a,
                                ir::ExprRef b) {
  if (op == "||" || op == "&&") {
    if (!a->is_bool() || !b->is_bool()) {
      fail("non-boolean operand to '" + op + "'");
    }
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
  return ctx_.arena.arith(ir::ArithOp::kShr, a, b);
}

}  // namespace meissa::p4
