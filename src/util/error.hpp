// Error handling primitives shared by all Meissa modules.
//
// Meissa uses exceptions for genuinely exceptional conditions (malformed
// inputs, internal invariant violations) and plain return values for
// expected outcomes (UNSAT queries, failed test cases).
#pragma once

#include <algorithm>
#include <stdexcept>
#include <string>

namespace meissa::util {

// Base class for all errors thrown by Meissa.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

// Input that does not conform to the expected language/format.
class ParseError : public Error {
 public:
  // `context` is the offending source line, rendered beneath the message
  // with a caret under `column` (1-based).
  ParseError(const std::string& what, int line, int column,
             const std::string& context)
      : Error(annotate(what, line, column, context)),
        line_(line),
        column_(column) {}
  int line() const noexcept { return line_; }
  // 1-based column of the offending token.
  int column() const noexcept { return column_; }

 private:
  static std::string annotate(const std::string& what, int line, int column,
                              const std::string& context) {
    std::string msg = "parse error (line " + std::to_string(line) + ", col " +
                      std::to_string(column) + "): " + what;
    if (!context.empty()) {
      // A long line shows only the kSnippet characters around the column.
      size_t caret = column > 1 ? static_cast<size_t>(column - 1) : 0;
      size_t from = 0;
      if (context.size() > kSnippet && caret > kSnippet / 2) {
        from = std::min(caret - kSnippet / 2, context.size() - kSnippet);
      }
      caret -= from;
      msg += "\n  " + context.substr(from, kSnippet) + "\n  ";
      // Tabs in the snippet keep their width-1 rendering here, so the
      // caret stays aligned with how the snippet itself is printed.
      msg.append(caret, ' ');
      msg += '^';
    }
    return msg;
  }
  static constexpr size_t kSnippet = 120;

  int line_;
  int column_;
};

// A semantic problem in an otherwise well-formed program (e.g. a table
// matching on an undeclared field).
class ValidationError : public Error {
 public:
  explicit ValidationError(const std::string& what)
      : Error("validation error: " + what) {}
};

// An internal invariant was violated; indicates a bug in Meissa itself.
class InternalError : public Error {
 public:
  explicit InternalError(const std::string& what)
      : Error("internal error: " + what) {}
};

// Throws InternalError when `cond` is false. Used for invariants that must
// hold regardless of user input; never for validating external data.
inline void check(bool cond, const char* msg) {
  if (!cond) throw InternalError(msg);
}

}  // namespace meissa::util
