// The "M4" textual front-end: a compact P4-like language for writing data
// planes, topologies and rule sets as text (the role p4c's source syntax
// plays for the real system). The grammar (informally):
//
//   program <name> ;
//   header <h> { <field>:<width>; ... }
//   metadata <full.name>:<width> ;
//   register <name>:<width>[<cells>] ;
//   action <a>(<param>:<w>, ...) { <stmt>; ... }
//     stmt := <field> = <expr>
//           | <field> = crc16(<field>, ...) | crc32(...) | csum16(...)
//           | set_valid(<header>) | set_invalid(<header>)
//   table <t> { key <field>:<exact|ternary|lpm|range>, ...;
//               actions <a>, ...; default <a>(<int>, ...); }
//   pipeline <p> {
//     parser { state <s> { extract <h>, ...;
//                          select <field> { <int>[/<mask>] -> <s'>; ...
//                                           default -> <s'|accept|reject>; }
//                        | goto <s'|accept|reject>; } ... }
//     control { apply <t>; if (<expr>) { ... } [else { ... }] <stmt>; ... }
//     deparser { emit <h>, ...; [checksum <field> over <h> (<field>,...);] }
//   }
//   topology { instance <name> = <pipeline> @ <switch#>;
//              entry <name> [when <expr>];
//              edge <from> -> <to> [when <expr>]; }
//   rules { <table>: <match>, ... [prio <n>] -> <action>(<int>, ...); ... }
//     match := exact <int> | ternary <int>/<int> | lpm <int>/<len>
//            | range <int>..<int> | any
//
// Tokens, comments and expressions are the shared front end's
// (p4/parse.hpp); `valid(<header>)` abbreviates `hdr.<h>.$valid == 1`.
// Widths lie in [1, 64], a register has at most 4,096 cells, and switch
// ids, prefix lengths and priorities fit an int.
#pragma once

#include <string_view>

#include "p4/rules.hpp"

namespace meissa::p4 {

struct ParsedUnit {
  DataPlane dp;
  RuleSet rules;
};

// Parses a full M4 unit (program + topology + optional rules). Throws
// util::ParseError with line, column and snippet on malformed input and
// util::ValidationError on semantic problems.
ParsedUnit parse_m4(std::string_view source, ir::Context& ctx);

}  // namespace meissa::p4
