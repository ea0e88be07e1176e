// Tests for the front end shared by M4 programs and LPI intents
// (p4/parse.hpp): located numerals, bounded nesting, checked narrowing of
// numbers, located LPI errors, and a seeded mutation run over the in-repo
// M4 and LPI sources in which every mutant either parses or ends in a
// ParseError or ValidationError.
#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <sstream>

#include "p4/dsl.hpp"
#include "p4/parse.hpp"
#include "spec/lpi.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace meissa::p4 {
namespace {

// Parses `src` as M4 and returns the ParseError it must raise.
util::ParseError m4_error(const std::string& src) {
  ir::Context ctx;
  try {
    parse_m4(src, ctx);
  } catch (const util::ParseError& e) {
    return e;
  }
  ADD_FAILURE() << "expected a ParseError for:\n" << src;
  return util::ParseError("", 0, 0, "");
}

constexpr const char* kTinyM4 = R"m4(program t;
header ipv4 { ttl:8; dst:32; }
pipeline p {
  parser { state start { extract ipv4; goto accept; } }
  control { }
  deparser { emit ipv4; }
}
topology { instance i = p @ switch 0; entry i; }
)m4";

// Parses `src` as LPI against kTinyM4 and returns the ParseError it must
// raise.
util::ParseError lpi_error(const std::string& src) {
  ir::Context ctx;
  ParsedUnit unit = parse_m4(kTinyM4, ctx);
  try {
    spec::parse_lpi(src, ctx, unit.dp.program);
  } catch (const util::ParseError& e) {
    return e;
  }
  ADD_FAILURE() << "expected a ParseError for:\n" << src;
  return util::ParseError("", 0, 0, "");
}

void expect_at(const util::ParseError& e, int line, int column,
               const std::string& text) {
  EXPECT_EQ(e.line(), line) << e.what();
  EXPECT_EQ(e.column(), column) << e.what();
  const std::string msg = e.what();
  EXPECT_NE(msg.find(text), std::string::npos) << msg;
  EXPECT_NE(msg.find('^'), std::string::npos) << msg;
}

TEST(FrontEnd, NumeralsAreLocated) {
  // `a` sits at column 12 of "header h { a:...", the literal at 14.
  expect_at(m4_error("program x;\nheader h { a:0x; }\n"), 2, 14,
            "malformed number '0x'");
  expect_at(m4_error("program x;\nheader h { a:12345678901234567890123; }\n"),
            2, 14, "does not fit in 64 bits");
  expect_at(m4_error("program x;\nheader h { a:8q; }\n"), 2, 14,
            "malformed number '8q'");
  expect_at(lpi_error("intent x {\n  assume in.hdr.ipv4.ttl == 0x;\n}\n"), 2,
            29, "malformed number '0x'");
  expect_at(lpi_error("intent x { assume in.hdr.ipv4.dst == "
                      "0x1ffffffffffffffff; }"),
            1, 38, "does not fit in 64 bits");
}

TEST(FrontEnd, WidthsAndCountsAreChecked) {
  expect_at(m4_error("program x;\nheader h { a:99; }\n"), 2, 14,
            "bit width 99 out of range [1, 64]");
  expect_at(m4_error("program x;\nheader h { a:0; }\n"), 2, 14,
            "bit width 0 out of range");
  // 2^32 + 8 used to wrap to 8 through an unchecked int cast.
  expect_at(m4_error("program x;\nheader h { a:4294967304; }\n"), 2, 14,
            "bit width 4294967304 out of range");
  expect_at(m4_error("program x;\nmetadata m.a:65;\n"), 2, 14, "bit width 65");
  expect_at(m4_error("program x;\naction f(p:65) { }\n"), 2, 12,
            "bit width 65");
  expect_at(m4_error("program x;\nregister r:65[1];\n"), 2, 12,
            "bit width 65");
  expect_at(m4_error("program x;\nregister r:8[4097];\n"), 2, 14,
            "register cell count 4097 out of range [0, 4096]");
  expect_at(m4_error("program x;\n"
                     "topology { instance i = p @ switch 2147483648; }\n"),
            2, 36, "switch id 2147483648 out of range");
  expect_at(m4_error("program x;\nrules { t: lpm 1/2147483648 -> a(); }\n"), 2,
            18, "prefix length 2147483648 out of range");
  expect_at(m4_error("program x;\nrules { t: any prio 2147483648 -> a(); }\n"),
            2, 21, "priority 2147483648 out of range");
}

TEST(FrontEnd, SwitchIdsAreBounded) {
  // INT_MAX used to parse and validate, and Topology::num_switches then
  // overflowed computing max_id + 1.
  expect_at(m4_error("program x;\n"
                     "topology { instance i = p @ switch 2147483647; }\n"),
            2, 36, "switch id 2147483647 out of range [0, 65535]");
  expect_at(m4_error("program x;\n"
                     "topology { instance i = p @ switch 65536; }\n"),
            2, 36, "switch id 65536 out of range [0, 65535]");
  // The largest id is accepted and counted exactly.
  std::string top = kTinyM4;
  top.replace(top.find("switch 0"), 8, "switch 65535");
  ir::Context ctx;
  ParsedUnit unit = parse_m4(top, ctx);
  EXPECT_EQ(unit.dp.topology.num_switches(), 65536);
  // A topology built in code meets the same bound in validation.
  unit.dp.topology.instances[0].switch_id = 2147483647;
  EXPECT_THROW(validate(unit.dp, ctx), util::ValidationError);
}

TEST(FrontEnd, NestingIsBounded) {
  const std::string decl = "program x;\nheader h { a:8; }\naction f() { ";
  const int cap = kMaxNesting;
  // At the cap, parentheses parse.
  {
    ir::Context ctx;
    ParsedUnit unit = parse_m4(kTinyM4, ctx);
    EXPECT_EQ(spec::parse_lpi("intent x { assume " + std::string(cap, '(') +
                                  "in.hdr.ipv4.ttl == 1" +
                                  std::string(cap, ')') + "; }",
                              ctx, unit.dp.program)
                  .size(),
              1u);
  }
  // One past the cap, the token after the (cap + 1)-th '(' is reported.
  const int col = static_cast<int>(std::string("action f() { hdr.h.a = ")
                                       .size()) + cap + 2;
  expect_at(m4_error(decl + "hdr.h.a = " + std::string(cap + 1, '(') +
                     "hdr.h.a"),
            3, col, "nesting deeper than 256");
  expect_at(m4_error(decl + "hdr.h.a = " + std::string(cap + 1, '!') +
                     "hdr.h.a"),
            3, col, "nesting deeper than 256");
  // Nested `if` blocks share the bound.
  std::string ifs = "program x;\nheader h { a:8; }\npipeline p { control {\n";
  for (int i = 0; i <= cap; ++i) ifs += "if (valid(h)) {\n";
  expect_at(m4_error(ifs), 4 + cap, 4, "nesting deeper than 256");
  expect_at(lpi_error("intent x { assume " + std::string(cap + 1, '(') +
                      "in.hdr.ipv4.ttl == 1"),
            1, 18 + cap + 2, "nesting deeper than 256");
}

TEST(FrontEnd, LpiErrorsAreLocated) {
  util::ParseError e =
      lpi_error("intent x {\n  assume in.hdr.ipv4.ttl > ;\n}\n");
  expect_at(e, 2, 28, "got ';'");
  EXPECT_NE(std::string(e.what()).find("\n  " + std::string(27, ' ') + "^"),
            std::string::npos)
      << e.what();
  expect_at(lpi_error("intent x { assume hdr.ipv4.ttl > 1; }"), 1, 19,
            "unknown intent field 'hdr.ipv4.ttl'");
  // Conditions must be boolean and headers declared: both are parse
  // errors, not internal ones.
  expect_at(lpi_error("intent x { assume in.hdr.ipv4.ttl + 1; }"), 1, 19,
            "must be boolean");
  expect_at(lpi_error("intent x { expect header ghost present; }"), 1, 26,
            "unknown header 'ghost'");
}

TEST(FrontEnd, LpiAcceptsSlashComments) {
  ir::Context ctx;
  ParsedUnit unit = parse_m4(kTinyM4, ctx);
  std::vector<spec::Intent> intents = spec::parse_lpi(
      "// TTL guard\nintent x { assume in.hdr.ipv4.ttl > 1; // live\n"
      "expect delivered; }\n",
      ctx, unit.dp.program);
  ASSERT_EQ(intents.size(), 1u);
  EXPECT_EQ(intents[0].assumes.size(), 1u);
}

TEST(FrontEnd, LongLinesGetAClippedSnippet) {
  util::ParseError e = m4_error("program x " + std::string(5000, '(') + ";");
  EXPECT_EQ(e.column(), 11);
  EXPECT_LT(std::string(e.what()).size(), 400u) << e.what();
  e = m4_error("program x;\nheader h { a:8; }\naction f() { hdr.h.a = " +
               std::string(100000, '('));
  EXPECT_LT(std::string(e.what()).size(), 400u);
  const std::string msg = e.what();
  const size_t snippet = msg.find("\n  ") + 3;
  const size_t caret = msg.find('^');
  const size_t under = caret - msg.find('\n', snippet) - 3;
  EXPECT_EQ(msg[snippet + under], '(') << msg;
}

// ------------------------------------------------------- mutation run

// One in-repo source: an M4 unit, or LPI intents with the M4 unit they
// are written against.
struct Source {
  std::string m4;
  std::string lpi;  // empty for an M4 source
};

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in) << "cannot open " << path;
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

// The raw-string M4 (`R"m4(`, `R"(`) and LPI (`R"lpi(`) sources of a C++
// file. The first M4 unit of a file is the one its intents are written
// against.
void collect_sources(const std::string& path, std::vector<Source>& out) {
  const std::string text = read_file(path);
  std::string first_m4;
  for (size_t at = text.find("R\""); at != std::string::npos;
       at = text.find("R\"", at + 2)) {
    const size_t open = text.find('(', at);
    if (open == std::string::npos) break;
    const std::string delim = text.substr(at + 2, open - at - 2);
    if (delim != "m4" && delim != "lpi" && !delim.empty()) continue;
    const size_t close = text.find(")" + delim + "\"", open);
    if (close == std::string::npos) break;
    const std::string body = text.substr(open + 1, close - open - 1);
    if (delim == "lpi") {
      out.push_back({first_m4, body});
      continue;
    }
    if (first_m4.empty()) first_m4 = body;
    out.push_back({body, ""});
  }
}

// 1-3 random byte or token edits: delete, duplicate, or splice in digits,
// punctuation or a run past the nesting bound.
std::string mutate(std::string s, util::Rng& rng) {
  static const char* kSplices[] = {
      "0x", "0", "99", "65", "4294967304", "18446744073709551616",
      "123456789012345678901234", "0xfffffffffffffffff", "0x1g", "7e",
      "(", ")", "{", "}", ";", ":", ",", ".", "..", "->", "!", "==", "/",
      "[", "]", "@", "#", "//", "&&", "<<", "valid(", "if (", "\n"};
  const int edits = 1 + static_cast<int>(rng.below(3));
  for (int i = 0; i < edits && !s.empty(); ++i) {
    const size_t at = rng.below(s.size());
    switch (rng.below(6)) {
      case 0:  // delete bytes
        s.erase(at, 1 + rng.below(8));
        break;
      case 1:  // duplicate bytes
        s.insert(at, s.substr(at, 1 + rng.below(16)));
        break;
      case 2:  // splice a digit or punctuation token
        s.insert(at, kSplices[rng.below(std::size(kSplices))]);
        break;
      case 3: {  // delete or duplicate a whole token
        size_t b = s.find_last_of(" \n", at);
        b = b == std::string::npos ? 0 : b + 1;
        size_t e = s.find_first_of(" \n", at);
        if (e == std::string::npos) e = s.size();
        if (rng.chance(1, 2)) {
          s.erase(b, e - b);
        } else {
          s.insert(b, s.substr(b, e - b) + " ");
        }
        break;
      }
      case 4:  // overwrite one byte
        s[at] = static_cast<char>(' ' + rng.below(95));
        break;
      default:  // a run just past the nesting bound
        s.insert(at,
                 std::string(kMaxNesting + 1, rng.chance(1, 2) ? '(' : '!'));
        break;
    }
  }
  return s;
}

// Only ParseError and ValidationError are caught: any other exception
// escapes and fails the test. A mutant is a function of (seed, i), so the
// pair reproduces a failure.
TEST(FrontEnd, SeededMutantsParseOrFailWithLocatedErrors) {
  std::vector<Source> sources;
  collect_sources(MEISSA_SOURCE_DIR "/tests/dsl_test.cpp", sources);
  collect_sources(MEISSA_SOURCE_DIR "/examples/dsl_router.cpp", sources);
  size_t lpi_sources = 0;
  for (const Source& s : sources) lpi_sources += s.lpi.empty() ? 0 : 1;
  // kRouterM4, kRouterLpi, the test units, and the example's pair.
  ASSERT_GE(sources.size(), 8u);
  ASSERT_EQ(lpi_sources, 2u);

  size_t parsed = 0, parse_errors = 0, validation_errors = 0;
  for (uint64_t seed : {1, 2, 3}) {
    util::Rng rng(seed);
    for (int i = 0; i < 500; ++i) {
      const Source& src = sources[static_cast<size_t>(i) % sources.size()];
      const bool lpi = !src.lpi.empty();
      const std::string mutant = mutate(lpi ? src.lpi : src.m4, rng);
      ir::Context ctx;
      try {
        if (lpi) {
          ParsedUnit unit = parse_m4(src.m4, ctx);
          spec::parse_lpi(mutant, ctx, unit.dp.program);
        } else {
          parse_m4(mutant, ctx);
        }
        ++parsed;
      } catch (const util::ParseError& e) {
        ++parse_errors;
        EXPECT_GT(e.line(), 0);
        EXPECT_GT(e.column(), 0);
      } catch (const util::ValidationError&) {
        ++validation_errors;
      }
    }
  }
  // All three outcomes occur, so the run reaches past the lexer.
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(parse_errors, 0u);
  EXPECT_GT(validation_errors, 0u);
}

}  // namespace
}  // namespace meissa::p4
