// Textual LPI intents — the operator-facing specification syntax:
//
//   intent <name> {
//     assume <boolean expression over in.* fields>;
//     expect delivered;                  // or: expect dropped;
//     expect header <h> present;         // or: absent
//     expect checksum <field> over (<field>, ...);
//     expect <boolean expression over in.*/out.* fields>;
//   }
//   ... more intents ...
//
// Field references use the program's full field names prefixed with `in.`
// or `out.` (e.g. in.hdr.ipv4.dst, out.hdr.tcp.dport, in.$port).
// Tokens, comments and expressions are the M4 DSL's (p4/parse.hpp).
#pragma once

#include <string_view>
#include <vector>

#include "spec/intent.hpp"

namespace meissa::spec {

// Parses a sequence of intents against `prog`'s declarations. Throws
// util::ParseError (with line, column and snippet) or
// util::ValidationError on bad input.
std::vector<Intent> parse_lpi(std::string_view source, ir::Context& ctx,
                              const p4::Program& prog);

}  // namespace meissa::spec
