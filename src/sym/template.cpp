#include "sym/template.hpp"

#include <sstream>
#include <unordered_set>

#include "util/strings.hpp"

namespace meissa::sym {

std::vector<std::string> find_invalid_header_reads(const ir::Context& ctx,
                                                   const cfg::Cfg& g,
                                                   const cfg::Path& path) {
  std::vector<std::string> out;
  // Concrete validity tracking: validity fields are only ever assigned
  // constants, so a linear scan decides every read.
  std::unordered_map<ir::FieldId, uint64_t> validity;
  std::unordered_set<std::string> reported;
  auto header_of = [](const std::string& name) -> std::string {
    // "hdr.<h>.<field>" -> "<h>"; validity and non-hdr fields -> "".
    if (!util::starts_with(name, "hdr.")) return "";
    size_t dot = name.find('.', 4);
    if (dot == std::string::npos) return "";
    if (name.find(".$valid") != std::string::npos) return "";
    return name.substr(4, dot - 4);
  };
  for (cfg::NodeId id : path) {
    const cfg::Node& n = g.node(id);
    std::unordered_set<ir::FieldId> reads;
    if (n.is_hash) {
      for (ir::FieldId k : n.hash.keys) reads.insert(k);
      for (ir::ExprRef e : n.hash.key_exprs) ir::collect_fields(e, reads);
    } else if (n.stmt.kind != ir::StmtKind::kNop && n.stmt.expr != nullptr) {
      ir::collect_fields(n.stmt.expr, reads);
    }
    // Short-circuit idiom: an expression that itself tests a header's
    // validity (hdr.h.isValid() && hdr.h.f ...) guards its own reads.
    std::unordered_set<std::string> self_guarded;
    for (ir::FieldId f : reads) {
      const std::string& name = ctx.fields.name(f);
      size_t pos = name.find(".$valid");
      if (util::starts_with(name, "hdr.") && pos != std::string::npos) {
        self_guarded.insert(name.substr(4, pos - 4));
      }
    }
    if (n.instance >= 0) {
      const cfg::InstanceInfo& inst =
          g.instances()[static_cast<size_t>(n.instance)];
      for (ir::FieldId f : reads) {
        std::string h = header_of(ctx.fields.name(f));
        if (h.empty()) continue;
        if (self_guarded.count(h)) continue;
        auto vit = inst.validity.find(h);
        if (vit == inst.validity.end()) continue;
        auto cur = validity.find(vit->second);
        uint64_t valid = cur == validity.end() ? 0 : cur->second;
        if (valid == 0) {
          std::string key = inst.name + "/" + h;
          if (reported.insert(key).second) {
            out.push_back("read of invalid header '" + h + "' in " +
                          inst.name + " (field " + ctx.fields.name(f) + ")");
          }
        }
      }
    }
    if (!n.is_hash && n.stmt.kind == ir::StmtKind::kAssign &&
        n.stmt.expr->is_const()) {
      const std::string& tname = ctx.fields.name(n.stmt.target);
      if (tname.find(".$valid") != std::string::npos) {
        validity[n.stmt.target] = n.stmt.expr->value;
      }
    }
  }
  return out;
}

TestCaseTemplate make_template(ir::Context& ctx, const cfg::Cfg& g,
                               const PathResult& r, uint64_t id) {
  TestCaseTemplate t;
  static_cast<PathResult&>(t) = r;
  t.id = id;
  t.path_condition = ctx.arena.all_of(r.conds);
  for (cfg::NodeId n : r.path) {
    if (g.node(n).instance >= 0) {
      t.entry_instance = g.node(n).instance;
      break;
    }
  }
  return t;
}

std::string describe(const TestCaseTemplate& t, const ir::Context& ctx,
                     const cfg::Cfg& g) {
  std::ostringstream os;
  os << "template #" << t.id << ": "
     << (t.exit == cfg::ExitKind::kEmit ? "emit" : "drop") << ", "
     << t.path.size() << " nodes";
  if (t.entry_instance >= 0) {
    os << ", enters " << g.instances()[static_cast<size_t>(t.entry_instance)].name;
  }
  if (t.exit == cfg::ExitKind::kEmit && t.emit_instance >= 0) {
    os << ", leaves " << g.instances()[static_cast<size_t>(t.emit_instance)].name;
  }
  os << "\n  condition: " << ir::to_string(t.path_condition, ctx.fields);
  return os.str();
}

}  // namespace meissa::sym
