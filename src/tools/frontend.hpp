// The front end the m4* command-line tools share: the input a tool runs
// on, named on its command line as `FILE.m4`, `--app NAME` (one of
// apps::kDemoApps) or `--bug N` (a bug-corpus scenario, 1..kNumBugs).
#pragma once

#include <string>

#include "apps/apps.hpp"
#include "sim/fault.hpp"

namespace meissa::tools {

// The input's source, as named on the command line.
struct InputArgs {
  std::string file;
  std::string app;
  int bug = 0;

  // Takes argv[i] (and its value, advancing i) when it names the input:
  // `--app NAME`, `--bug N` or, when `files` is set, the first argument
  // that is not a flag. False when argv[i] is none of these or --bug's
  // value is malformed or out of range: the tool prints its usage.
  bool take(int argc, char** argv, int& i, bool files = true);
  // Exactly one source was named.
  bool complete() const;
};

// The data plane under test: an M4 unit's program and rules (no intents),
// a demo app, or a bug scenario with its toolchain fault.
struct Input {
  apps::AppBundle bundle;
  sim::FaultSpec fault;  // kNone unless a bug scenario injects one
};

// Loads `args`' source. Throws util::Error "cannot open '<file>'" for an
// unreadable file, and whatever p4::parse_m4 or apps::demo_app throw.
Input load_input(ir::Context& ctx, const InputArgs& args);

}  // namespace meissa::tools
