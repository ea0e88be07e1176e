#include "analysis/lint.hpp"

#include <algorithm>
#include <cstdio>
#include <unordered_set>

#include "analysis/inject.hpp"
#include "util/strings.hpp"

namespace meissa::analysis {

namespace {

// Header name of a content field ("hdr.<h>.<f>"); empty for validity
// placeholders, snapshots, metadata and everything else.
std::string content_header(const std::string& name) {
  if (name.rfind("hdr.", 0) != 0) return {};
  const size_t dot = name.find('.', 4);
  if (dot == std::string::npos) return {};
  if (name[dot + 1] == '$') return {};  // "hdr.<h>.$valid[@inst]"
  return name.substr(4, dot - 4);
}

// Fields a node reads (expression fields for assign/assume, keys for hash).
void node_reads(const cfg::Cfg& g, cfg::NodeId id,
                std::unordered_set<ir::FieldId>& out) {
  const cfg::Node& n = g.node(id);
  if (n.is_hash) {
    for (ir::FieldId k : n.hash.keys) out.insert(k);
    for (ir::ExprRef e : n.hash.key_exprs) ir::collect_fields(e, out);
    return;
  }
  if (n.stmt.kind == ir::StmtKind::kAssign ||
      n.stmt.kind == ir::StmtKind::kAssume) {
    ir::collect_fields(n.stmt.expr, out);
  }
}

// Whether the assume node carries its own validity guard for `vf` (the
// `valid(h) && <reads of h>` idiom, or its negation on the else arm): any
// mention of the validity bit in the same predicate counts as the guard
// deliberately correlating the reads with the header's presence.
bool self_guards(const cfg::Cfg& g, cfg::NodeId id, ir::FieldId vf) {
  const cfg::Node& n = g.node(id);
  if (n.is_hash || n.stmt.kind != ir::StmtKind::kAssume) return false;
  std::unordered_set<ir::FieldId> fields;
  ir::collect_fields(n.stmt.expr, fields);
  return fields.count(vf) != 0;
}

// A refuted assume whose atoms all *exclude* the valid state of some
// header is the builder's own "header absent" arm (deparser checksum
// guards and the like) being dead because the header is always present —
// benign, unlike a dead *valid* arm, which means the guarded work never
// runs.
bool is_benign_invalid_arm(const cfg::Cfg& g, cfg::NodeId id,
                           const std::unordered_set<ir::FieldId>& vfields) {
  const cfg::Node& n = g.node(id);
  if (n.is_hash || n.stmt.kind != ir::StmtKind::kAssume) return false;
  std::vector<smt::Atom> atoms;
  std::vector<ir::ExprRef> opaque;
  smt::decompose_conjunction(n.stmt.expr, atoms, opaque);
  if (!opaque.empty() || atoms.empty()) return false;
  for (const smt::Atom& a : atoms) {
    if (vfields.count(a.field) == 0 || smt::atom_holds(1, a)) return false;
  }
  return true;
}

const char* severity_name(Severity s) {
  return s == Severity::kError ? "error" : "warning";
}

}  // namespace

LintResult lint_cfg(const ir::Context& ctx, const cfg::Cfg& g) {
  LintResult res;
  if (g.size() == 0) return res;

  ValueDomain dom(ctx, g);
  dom.set_relevant(ValueDomain::compute_relevant(ctx, g));
  dom.set_meta(ValueDomain::compute_meta(ctx, g));
  ForwardResult<ValueDomain> flow = run_forward(g, g.entry(), dom);

  // One finding per (detector, node, field): a diagnostic derivable along
  // several CFG paths (or from several atoms of one predicate) must not
  // repeat in the output.
  std::unordered_set<std::string> emitted;
  auto emit = [&](Severity sev, std::string code, cfg::NodeId id,
                  std::string field, std::string message) {
    if (!emitted.insert(code + '\x1f' + std::to_string(id) + '\x1f' + field)
             .second) {
      return;
    }
    const cfg::Node& n = g.node(id);
    Diagnostic d;
    d.severity = sev;
    d.code = std::move(code);
    d.node = id;
    if (n.instance >= 0) {
      d.instance = g.instances()[static_cast<size_t>(n.instance)].name;
    }
    d.location = g.label(id);
    d.field = std::move(field);
    d.message = std::move(message);
    res.diagnostics.push_back(std::move(d));
  };

  // Predecessor counts (for orphan detection) and per-instance write sets
  // (for the pure-consumer metadata rule).
  std::vector<uint32_t> pred_count(g.size(), 0);
  std::vector<std::unordered_set<ir::FieldId>> writes(g.instances().size());
  for (cfg::NodeId id = 0; id < g.size(); ++id) {
    const cfg::Node& n = g.node(id);
    for (cfg::NodeId s : n.succ) ++pred_count[s];
    if (n.instance < 0) continue;
    auto& w = writes[static_cast<size_t>(n.instance)];
    if (n.is_hash) {
      w.insert(n.hash.dest);
    } else if (n.stmt.kind == ir::StmtKind::kAssign) {
      w.insert(n.stmt.target);
    }
  }

  const auto& meta = ValueDomain::compute_meta(ctx, g);
  std::unordered_set<ir::FieldId> vfields;
  for (const cfg::InstanceInfo& info : g.instances()) {
    for (const auto& [h, vf] : info.validity) vfields.insert(vf);
  }

  // read-before-valid support: per validity field, the nodes lying
  // strictly after a potential setter (an assign of a possibly-nonzero
  // value, or a hash landing in the bit) on some path from anywhere in the
  // graph. Lazily computed — most validity fields never face an unguarded
  // read.
  std::unordered_map<ir::FieldId, std::vector<bool>> set_reach;
  auto validity_set_reaches = [&](ir::FieldId vf, cfg::NodeId at) -> bool {
    auto it = set_reach.find(vf);
    if (it == set_reach.end()) {
      std::vector<bool> reach(g.size(), false);
      std::vector<cfg::NodeId> work;
      for (cfg::NodeId id = 0; id < g.size(); ++id) {
        const cfg::Node& n = g.node(id);
        const bool sets =
            n.is_hash
                ? n.hash.dest == vf
                : n.stmt.kind == ir::StmtKind::kAssign &&
                      n.stmt.target == vf &&
                      !(n.stmt.expr->is_const() && n.stmt.expr->value == 0);
        if (!sets) continue;
        for (cfg::NodeId s : n.succ) {
          if (!reach[s]) {
            reach[s] = true;
            work.push_back(s);
          }
        }
      }
      while (!work.empty()) {
        const cfg::NodeId cur = work.back();
        work.pop_back();
        for (cfg::NodeId s : g.node(cur).succ) {
          if (!reach[s]) {
            reach[s] = true;
            work.push_back(s);
          }
        }
      }
      it = set_reach.emplace(vf, std::move(reach)).first;
    }
    return it->second[at];
  };

  for (cfg::NodeId id = 0; id < g.size(); ++id) {
    const cfg::Node& n = g.node(id);

    // ---- unreachable-code: orphaned labeled subgraph heads (no incoming
    // edges; unlabeled orphans are builder scaffolding), and labeled
    // flow-dead frontier nodes (a feasible predecessor exists but no
    // feasible flow continues into this node).
    if (!flow.reachable[id]) {
      if (pred_count[id] == 0 && id != g.entry() && !g.label(id).empty()) {
        emit(Severity::kWarning, "unreachable-code", id, {},
             "node is disconnected from the program entry");
      }
      continue;
    }
    if (!flow.in[id]) {
      if (!g.label(id).empty()) {
        bool frontier = false;
        for (cfg::NodeId p = 0; p < g.size() && !frontier; ++p) {
          const auto& succ = g.node(p).succ;
          if (flow.in[p] &&
              std::find(succ.begin(), succ.end(), id) != succ.end()) {
            frontier = true;
          }
        }
        if (frontier) {
          emit(Severity::kWarning, "unreachable-code", id, {},
               "no feasible execution reaches this point");
        }
      }
      continue;
    }
    const AbsState& in = *flow.in[id];

    // ---- contradictory-predicate: the assume refutes against the value
    // analysis (transfer yields no feasible outcome).
    if (!n.is_hash && n.stmt.kind == ir::StmtKind::kAssume && !n.synthetic &&
        !dom.feasible(id, in) && !is_benign_invalid_arm(g, id, vfields)) {
      emit(Severity::kWarning, "contradictory-predicate", id, {},
           "predicate is statically contradictory; this branch can never "
           "be taken");
    }

    // ---- read detectors need the fields this node reads.
    std::unordered_set<ir::FieldId> reads;
    node_reads(g, id, reads);
    if (reads.empty() || n.instance < 0) continue;
    const cfg::InstanceInfo& info =
        g.instances()[static_cast<size_t>(n.instance)];

    std::vector<ir::FieldId> ordered(reads.begin(), reads.end());
    ctx.fields.sort_by_name(ordered);
    for (ir::FieldId f : ordered) {
      const std::string& name = ctx.fields.name(f);

      // ---- invalid-header-read.
      const std::string header = content_header(name);
      if (!header.empty()) {
        auto vit = info.validity.find(header);
        if (vit != info.validity.end() && !self_guards(g, id, vit->second)) {
          switch (dom.validity_of(in, n.instance, vit->second)) {
            case Ternary::kTrue:
              break;
            case Ternary::kFalse:
              emit(Severity::kError, "invalid-header-read", id, name,
                   "reads '" + name + "' but header '" + header +
                       "' is always invalid here");
              break;
            case Ternary::kUnknown:
              emit(Severity::kWarning, "invalid-header-read", id, name,
                   "reads '" + name + "' while header '" + header +
                       "' may be invalid on some path to this point");
              break;
          }
          // ---- read-before-valid: structural — no node that could set
          // this validity bit reaches the read on any path, so whatever
          // the value domain concluded, no parser state or action can
          // have made the header valid here.
          if (!validity_set_reaches(vit->second, id)) {
            emit(Severity::kError, "read-before-valid", id, name,
                 "reads '" + name + "' but no parser state or action "
                 "setting header '" +
                     header + "' valid reaches this point");
          }
        }
      }

      // ---- uninitialized-metadata-read: this pipeline never writes the
      // field, and a path on which only the implicit entry zero reaches
      // the read exists.
      if (meta.count(f) != 0 &&
          writes[static_cast<size_t>(n.instance)].count(f) == 0) {
        auto dit = in.defs.find(f);
        const bool implicit_component =
            dit == in.defs.end() || dit->second == DefKind::kImplicit ||
            dit->second == DefKind::kMixed;
        if (implicit_component) {
          emit(Severity::kWarning, "uninitialized-metadata-read", id, name,
               "reads metadata '" + name + "' that pipeline '" + info.name +
                   "' never writes; the value is the implicit zero");
        }
      }
    }
  }

  // ---- constant-guard: an if-statement whose guard the value analysis
  // proves always-true or always-false (injection-analysis guard-constancy
  // facts): one arm is dead and the test is vacuous. Complements
  // contradictory-predicate — the constancy verdict checks *both* arms, so
  // it fires even where only the negated arm decomposes into atoms.
  for (const GuardFact& gf : guard_constancy(ctx, g)) {
    const cfg::NodeId anchor =
        gf.then_node != cfg::kNoNode ? gf.then_node : gf.else_node;
    if (anchor == cfg::kNoNode) continue;
    const std::string where =
        "if #" + std::to_string(gf.ordinal) + " of pipeline '" +
        gf.pipeline + "'";
    if (gf.always_true()) {
      emit(Severity::kWarning, "constant-guard", anchor, {},
           "guard of " + where +
               " is always true here; the else branch is dead and the "
               "test is vacuous");
    } else if (gf.always_false()) {
      emit(Severity::kWarning, "constant-guard", anchor, {},
           "guard of " + where +
               " is always false here; the then branch is dead and the "
               "test is vacuous");
    }
  }

  // ---- header-never-emitted: a header can be valid when the pipeline
  // exits, yet its deparser never emits it (the content is silently lost).
  for (size_t ii = 0; ii < g.instances().size(); ++ii) {
    const cfg::InstanceInfo& info = g.instances()[ii];
    if (info.exit == cfg::kNoNode || !flow.in[info.exit]) continue;
    const AbsState& at_exit = *flow.in[info.exit];
    std::vector<std::string> headers;
    headers.reserve(info.validity.size());
    for (const auto& [h, vf] : info.validity) headers.push_back(h);
    std::sort(headers.begin(), headers.end());
    for (const std::string& h : headers) {
      if (std::find(info.emit_order.begin(), info.emit_order.end(), h) !=
          info.emit_order.end()) {
        continue;
      }
      const ir::FieldId vf = info.validity.at(h);
      if (dom.validity_of(at_exit, static_cast<int>(ii), vf) ==
          Ternary::kFalse) {
        continue;  // provably invalid at exit: nothing lost
      }
      emit(Severity::kWarning, "header-never-emitted", info.exit, h,
           "header '" + h + "' can leave pipeline '" + info.name +
               "' valid but its deparser never emits it");
    }
  }

  // ---- unused-write: a flow-reachable, non-synthetic pipeline node
  // writes a header/metadata field that no node downstream of it — in any
  // region or the inter-pipeline glue — ever reads, and (for header
  // content) that no downstream deparser emits. Same def-use notion as
  // analysis/impact's dependency graph: a write nothing consumes is
  // either dead code or a missing read. Validity bits, '@' summary
  // snapshots and architecture intrinsics (ports, drop flags — consumed
  // outside the program) are out of scope.
  {
    // Use sites per field: reading nodes, plus each emitting instance's
    // exit for the fields of headers its deparser serializes.
    std::unordered_map<ir::FieldId, std::unordered_set<cfg::NodeId>> uses;
    for (cfg::NodeId id = 0; id < g.size(); ++id) {
      std::unordered_set<ir::FieldId> r;
      node_reads(g, id, r);
      for (ir::FieldId f : r) uses[f].insert(id);
    }
    for (const cfg::InstanceInfo& info : g.instances()) {
      if (info.exit == cfg::kNoNode) continue;
      for (ir::FieldId f = 0; f < ctx.fields.size(); ++f) {
        const std::string h = content_header(ctx.fields.name(f));
        if (h.empty()) continue;
        if (std::find(info.emit_order.begin(), info.emit_order.end(), h) !=
            info.emit_order.end()) {
          uses[f].insert(info.exit);
        }
      }
    }
    const std::unordered_set<std::string> telemetry(g.telemetry().begin(),
                                                    g.telemetry().end());
    auto eligible = [&](ir::FieldId f) {
      if (vfields.count(f) != 0) return false;
      const std::string& name = ctx.fields.name(f);
      if (!name.empty() && name[0] == '@') return false;
      if (name.find(".$") != std::string::npos) return false;
      if (telemetry.count(name) != 0) return false;
      return name.rfind("hdr.", 0) == 0 || name.rfind("meta.", 0) == 0;
    };
    auto used_downstream = [&](cfg::NodeId from, ir::FieldId f) {
      auto it = uses.find(f);
      if (it == uses.end()) return false;
      const std::unordered_set<cfg::NodeId>& sinks = it->second;
      std::vector<bool> seen(g.size(), false);
      std::vector<cfg::NodeId> work(g.node(from).succ.begin(),
                                    g.node(from).succ.end());
      for (cfg::NodeId s : work) seen[s] = true;
      while (!work.empty()) {
        const cfg::NodeId cur = work.back();
        work.pop_back();
        if (sinks.count(cur) != 0) return true;
        for (cfg::NodeId s : g.node(cur).succ) {
          if (!seen[s]) {
            seen[s] = true;
            work.push_back(s);
          }
        }
      }
      return false;
    };
    for (cfg::NodeId id = 0; id < g.size(); ++id) {
      const cfg::Node& n = g.node(id);
      if (n.instance < 0 || n.synthetic || !flow.reachable[id]) continue;
      const ir::FieldId f = n.is_hash ? n.hash.dest
                            : n.stmt.kind == ir::StmtKind::kAssign
                                ? n.stmt.target
                                : ir::kInvalidField;
      if (f == ir::kInvalidField || !eligible(f)) continue;
      if (used_downstream(id, f)) continue;
      emit(Severity::kWarning, "unused-write", id, ctx.fields.name(f),
           "field '" + ctx.fields.name(f) +
               "' is written here but nothing downstream reads it and no "
               "deparser emits it");
    }
  }

  std::sort(res.diagnostics.begin(), res.diagnostics.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              if (a.node != b.node) return a.node < b.node;
              if (a.code != b.code) return a.code < b.code;
              if (a.field != b.field) return a.field < b.field;
              return a.message < b.message;
            });
  for (const Diagnostic& d : res.diagnostics) {
    if (d.severity == Severity::kError) {
      ++res.errors;
    } else {
      ++res.warnings;
    }
  }
  return res;
}

std::string render_text(const LintResult& r) {
  std::string out;
  for (const Diagnostic& d : r.diagnostics) {
    out += severity_name(d.severity);
    out += ": [";
    out += d.code;
    out += "] ";
    if (!d.location.empty()) {
      out += d.location;
    } else if (!d.instance.empty()) {
      out += d.instance;
      out += ": node ";
      out += std::to_string(d.node);
    } else {
      out += "node ";
      out += std::to_string(d.node);
    }
    out += ": ";
    out += d.message;
    out += '\n';
  }
  out += util::format("%llu error(s), %llu warning(s)\n",
                      static_cast<unsigned long long>(r.errors),
                      static_cast<unsigned long long>(r.warnings));
  return out;
}

std::string render_json(const LintResult& r) {
  std::string out = "{\n  \"diagnostics\": [";
  bool first = true;
  for (const Diagnostic& d : r.diagnostics) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"severity\": \"";
    out += severity_name(d.severity);
    out += "\", \"code\": \"";
    out += util::json_escape(d.code);
    out += "\", \"node\": ";
    out += std::to_string(d.node);
    out += ", \"instance\": \"";
    out += util::json_escape(d.instance);
    out += "\", \"location\": \"";
    out += util::json_escape(d.location);
    out += "\", \"field\": \"";
    out += util::json_escape(d.field);
    out += "\", \"message\": \"";
    out += util::json_escape(d.message);
    out += "\"}";
  }
  out += first ? "],\n" : "\n  ],\n";
  out += "  \"errors\": " + std::to_string(r.errors) + ",\n";
  out += "  \"warnings\": " + std::to_string(r.warnings) + "\n}\n";
  return out;
}

}  // namespace meissa::analysis
