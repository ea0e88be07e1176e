// The front end shared by Meissa's two textual inputs: M4 programs
// (p4/dsl.hpp) and LPI intents (spec/lpi.hpp). One lexer, one set of token
// helpers and one expression grammar; each language derives its parser from
// ExprParser and supplies the one hook, `leaf`, that says what an
// identifier inside an expression denotes.
//
// Tokens: identifiers (letters, digits, `_` and `$`, with `.` joining two
// of them), numbers (decimal or `0x` hex, at most 64 bits), and
// punctuation, where -> == != <= >= && || << >> .. are single tokens.
// `#` and `//` start a comment that runs to the end of the line.
//
// Expressions: || && ! == != < <= > >= + - & | ^ << >> and parentheses,
// with the usual precedence. Parentheses and `!` nest at most kMaxNesting
// deep. Every malformed input ends in a util::ParseError carrying the line,
// the column and a caret-annotated snippet of the offending token.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "ir/stmt.hpp"

namespace meissa::p4 {

// The deepest nesting of parentheses, `!` chains and M4 `if` blocks a
// parser accepts. Deeper input is a ParseError, not unbounded recursion.
inline constexpr int kMaxNesting = 256;

enum class Tok : uint8_t { kIdent, kNumber, kPunct, kEnd };

struct Token {
  Tok kind = Tok::kEnd;
  std::string text;
  uint64_t number = 0;
  int line = 1;
  int column = 1;         // 1-based column of the token's first character
  size_t line_start = 0;  // source offset where the token's line begins
};

class Lexer {
 public:
  explicit Lexer(std::string_view src);

  const Token& peek() const { return tok_; }
  Token take();
  // Throws a ParseError located at `at`.
  [[noreturn]] void fail_at(const Token& at, const std::string& what) const;

 private:
  void advance();
  void lex_number();
  bool ident_char(size_t at) const;
  void skip_space_and_comments();

  std::string_view src_;
  size_t pos_ = 0;
  int line_ = 1;
  size_t line_start_ = 0;  // offset where the current scan line begins
  Token tok_;
};

// Recursive-descent base: token helpers and the expression grammar.
class ExprParser {
 protected:
  ExprParser(std::string_view src, ir::Context& ctx) : lex_(src), ctx_(ctx) {}
  ~ExprParser() = default;

  // The hook: the expression that the identifier `ident` (already taken
  // from the lexer) denotes.
  virtual ir::ExprRef leaf(const Token& ident) = 0;

  // Throws a ParseError located at the next token.
  [[noreturn]] void fail(const std::string& what) const {
    lex_.fail_at(lex_.peek(), what);
  }
  Token expect(Tok kind);
  // Takes an identifier and returns its text.
  std::string take_ident();
  void expect_punct(std::string_view p);
  void expect_ident(std::string_view word);
  bool accept_punct(std::string_view p);
  bool accept_ident(std::string_view word);
  // Takes a number that must lie in [lo, hi]; `what` names it in the error.
  uint64_t expect_number(uint64_t lo, uint64_t hi, std::string_view what);

  // A boolean or bit-vector expression. A constant right operand takes
  // the left operand's width; any other constant takes `width_hint`, or
  // when that is 0 the least width that fits.
  ir::ExprRef parse_expr(int width_hint = 0);

  // One level of nesting for as long as it lives; the constructor throws
  // past kMaxNesting.
  class Nested {
   public:
    explicit Nested(ExprParser& p);
    ~Nested() { --p_.depth_; }
    Nested(const Nested&) = delete;
    Nested& operator=(const Nested&) = delete;

   private:
    ExprParser& p_;
  };

  Lexer lex_;
  ir::Context& ctx_;

 private:
  ir::ExprRef parse_primary(int width_hint);
  ir::ExprRef parse_binary(ir::ExprRef lhs, int min_prec, int width_hint);
  ir::ExprRef combine(const std::string& op, ir::ExprRef a, ir::ExprRef b);

  int depth_ = 0;
};

}  // namespace meissa::p4
