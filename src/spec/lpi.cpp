#include "spec/lpi.hpp"

#include "p4/parse.hpp"
#include "util/strings.hpp"

namespace meissa::spec {

namespace {

class LpiParser final : public p4::ExprParser {
 public:
  LpiParser(std::string_view src, ir::Context& ctx, const p4::Program& prog)
      : ExprParser(src, ctx), prog_(prog) {}

  std::vector<Intent> parse() {
    std::vector<Intent> intents;
    while (lex_.peek().kind != p4::Tok::kEnd) {
      expect_ident("intent");
      IntentBuilder ib(ctx_, prog_, take_ident());
      expect_punct("{");
      while (!accept_punct("}")) {
        std::string kw = take_ident();
        if (kw == "assume") {
          ib.assume(parse_condition());
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
      const p4::Token h = expect(p4::Tok::kIdent);
      if (prog_.find_header(h.text) == nullptr) {
        lex_.fail_at(h, "unknown header '" + h.text + "'");
      }
      const bool present = accept_ident("present");
      if (!present && !accept_ident("absent")) {
        fail("expected 'present' or 'absent'");
      }
      ib.expect_header(h.text, present);
      expect_punct(";");
      return;
    }
    if (accept_ident("checksum")) {
      std::string dest = take_ident();
      expect_ident("over");
      expect_punct("(");
      std::vector<std::string> sources;
      do {
        sources.push_back(take_ident());
      } while (accept_punct(","));
      expect_punct(")");
      expect_punct(";");
      ib.expect_checksum(std::move(dest), std::move(sources));
      return;
    }
    ib.expect(parse_condition());
    expect_punct(";");
  }

  ir::ExprRef parse_condition() {
    const p4::Token at = lex_.peek();
    ir::ExprRef cond = parse_expr();
    if (!cond->is_bool()) lex_.fail_at(at, "intent condition must be boolean");
    return cond;
  }

  // An LPI leaf: a program field prefixed with `in.` or `out.`.
  ir::ExprRef leaf(const p4::Token& ident) override {
    std::string_view raw = ident.text;
    std::optional<int> w;
    if (util::starts_with(raw, "in.") || util::starts_with(raw, "out.")) {
      raw.remove_prefix(raw.find('.') + 1);
      w = raw == "$port" ? p4::kPortWidth : prog_.field_width(raw);
    }
    if (!w) lex_.fail_at(ident, "unknown intent field '" + ident.text + "'");
    return ctx_.field_var(ident.text, *w);
  }

  const p4::Program& prog_;
};

}  // namespace

std::vector<Intent> parse_lpi(std::string_view source, ir::Context& ctx,
                              const p4::Program& prog) {
  return LpiParser(source, ctx, prog).parse();
}

}  // namespace meissa::spec
