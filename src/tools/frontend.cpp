#include "tools/frontend.hpp"

#include <fstream>
#include <sstream>

#include "p4/dsl.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"

namespace meissa::tools {

bool InputArgs::take(int argc, char** argv, int& i, bool files) {
  const std::string arg = argv[i];
  if (arg == "--app" && i + 1 < argc) {
    app = argv[++i];
    return true;
  }
  if (arg == "--bug" && i + 1 < argc) {
    return util::parse_flag(argv, i, bug) && bug >= 1 &&
           bug <= apps::kNumBugs;
  }
  if (files && !arg.empty() && arg[0] != '-' && file.empty()) {
    file = arg;
    return true;
  }
  return false;
}

bool InputArgs::complete() const {
  return (app.empty() ? 0 : 1) + (bug != 0 ? 1 : 0) + (file.empty() ? 0 : 1) ==
         1;
}

Input load_input(ir::Context& ctx, const InputArgs& args) {
  Input in;
  if (!args.file.empty()) {
    std::ifstream file(args.file);
    if (!file) throw util::Error("cannot open '" + args.file + "'");
    std::ostringstream src;
    src << file.rdbuf();
    p4::ParsedUnit unit = p4::parse_m4(src.str(), ctx);
    in.bundle.dp = std::move(unit.dp);
    in.bundle.rules = std::move(unit.rules);
  } else if (!args.app.empty()) {
    in.bundle = apps::demo_app(ctx, args.app);
  } else {
    apps::BugScenario s = apps::make_bug(ctx, args.bug);
    in.bundle = std::move(s.bundle);
    in.fault = s.fault;
  }
  return in;
}

}  // namespace meissa::tools
