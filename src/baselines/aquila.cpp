#include <chrono>

#include "baselines/baseline.hpp"
#include "smt/bv_solver.hpp"
#include "sym/template.hpp"
#include "util/clock.hpp"
#include "util/strings.hpp"

namespace meissa::baselines {

namespace {

// Rewrites an intent expectation into path terms: "in.X" becomes the input
// symbol X, "out.X" becomes the path's final symbolic value of X.
ir::ExprRef expectation_to_path_terms(ir::ExprRef e, ir::Context& ctx,
                                      const sym::Values& final_values) {
  ir::SubstMemo memo;
  return ir::substitute(
      e, ctx.arena,
      [&](ir::FieldId f, int w) -> ir::ExprRef {
        const std::string& name = ctx.fields.name(f);
        auto value_of = [&](std::string_view raw_name) -> ir::ExprRef {
          std::string raw(raw_name);
          if (raw == "$port") raw = std::string(p4::kEgressSpec);
          ir::FieldId rf = ctx.fields.intern(raw, w);
          ir::ExprRef v = sym::find_value(final_values, rf);
          return v != nullptr ? v : ctx.var(rf);
        };
        if (util::starts_with(name, "in.")) {
          std::string raw(name.substr(3));
          if (raw == "$port") raw = std::string(p4::kIngressPort);
          return ctx.field_var(raw, w);
        }
        if (util::starts_with(name, "out.")) {
          return value_of(name.substr(4));
        }
        return nullptr;
      },
      memo);
}

}  // namespace

BaselineResult run_aquila(ir::Context& ctx, const p4::DataPlane& dp,
                          const p4::RuleSet& rules,
                          const std::vector<spec::Intent>& intents,
                          const AquilaOptions& opts) {
  BaselineResult r;
  auto t0 = std::chrono::steady_clock::now();
  auto deadline = util::steady_deadline_after(t0, opts.time_budget_seconds);

  cfg::BuildOptions bopts;
  bopts.elide_disjoint_negations = false;  // standard encoding
  cfg::Cfg g = cfg::build_cfg(dp, rules, ctx, bopts);

  sym::EngineOptions eopts;
  eopts.time_budget_seconds = opts.time_budget_seconds;
  // Aquila re-encodes the whole program monolithically per query rather
  // than reusing incremental solver state across the DFS.
  eopts.incremental = false;
  eopts.static_pruning = false;  // baseline: every query reaches the solver
  sym::Engine eng(ctx, g, eopts);

  // Aquila encodes each verification query for a general SMT solver and
  // has no per-field domain procedure, so these queries skip the fast
  // path and go to the SAT core (the DFS above uses the engine's solver).
  auto solver = [&ctx]() {
    auto s = std::make_unique<smt::BvSolver>(ctx);
    s->set_force_blast(true);
    return s;
  };

  // Headers each intent's assumes reference ("in.hdr.<h>.*"): the intent
  // only applies to paths whose entry parser produced those headers.
  std::vector<std::vector<std::string>> assumed_headers(intents.size());
  for (size_t i = 0; i < intents.size(); ++i) {
    std::unordered_set<ir::FieldId> fs;
    for (ir::ExprRef a : intents[i].assumes) ir::collect_fields(a, fs);
    for (ir::FieldId f : fs) {
      const std::string& name = ctx.fields.name(f);
      if (util::starts_with(name, "in.hdr.")) {
        size_t dot = name.find('.', 7);
        if (dot != std::string::npos) {
          assumed_headers[i].push_back(name.substr(7, dot - 7));
        }
      }
    }
  }

  eng.run([&](const sym::PathResult& pr) {
    ++r.templates;
    if (std::chrono::steady_clock::now() > deadline) {
      r.timed_out = true;
      return;
    }
    // Header-validity safety (p4v/bf4-style checks): reading a field of an
    // invalid header is itself a reportable defect.
    r.failures += sym::find_invalid_header_reads(ctx, g, pr.path).size();

    // Headers made valid somewhere in the path's entry instance: the
    // conservative "this input can carry h" test for intent applicability.
    int entry_inst = -1;
    for (cfg::NodeId id : pr.path) {
      if (g.node(id).instance >= 0) {
        entry_inst = g.node(id).instance;
        break;
      }
    }
    std::unordered_set<std::string> available;
    if (entry_inst >= 0) {
      const cfg::InstanceInfo& inst =
          g.instances()[static_cast<size_t>(entry_inst)];
      for (cfg::NodeId id : pr.path) {
        const cfg::Node& n = g.node(id);
        if (n.instance != entry_inst || n.is_hash ||
            n.stmt.kind != ir::StmtKind::kAssign ||
            !n.stmt.expr->is_const() || n.stmt.expr->value != 1) {
          continue;
        }
        for (const auto& [h, vf] : inst.validity) {
          if (vf == n.stmt.target) available.insert(h);
        }
      }
    }

    for (size_t ii = 0; ii < intents.size(); ++ii) {
      const spec::Intent& intent = intents[ii];
      bool headers_ok = true;
      for (const std::string& h : assumed_headers[ii]) {
        headers_ok &= available.count(h) != 0;
      }
      if (!headers_ok) continue;
      // Applicability: path condition ∧ assumes satisfiable.
      auto s = solver();
      for (ir::ExprRef c : pr.conds) s->add(c);
      for (ir::ExprRef a : intent.assumes) {
        s->add(spec::assume_to_precondition(a, ctx));
      }
      ++r.smt_checks;
      if (s->check() != smt::CheckResult::kSat) continue;

      for (const spec::Expectation& e : intent.expects) {
        ++r.cases;
        switch (e.kind) {
          case spec::Expectation::Kind::kDropped:
            if (pr.exit == cfg::ExitKind::kEmit) ++r.failures;
            break;
          case spec::Expectation::Kind::kDelivered:
            if (pr.exit == cfg::ExitKind::kDrop) ++r.failures;
            break;
          case spec::Expectation::Kind::kBool: {
            if (pr.exit != cfg::ExitKind::kEmit) break;  // delivery-gated
            ir::ExprRef in_terms =
                expectation_to_path_terms(e.expr, ctx, pr.values);
            // Validity query: does some input drive this path while
            // violating the expectation?
            s->add(ctx.arena.bnot(in_terms));
            ++r.smt_checks;
            if (s->check() == smt::CheckResult::kSat) ++r.failures;
            break;
          }
          case spec::Expectation::Kind::kHeaderPresent:
          case spec::Expectation::Kind::kHeaderAbsent: {
            if (pr.exit != cfg::ExitKind::kEmit || pr.emit_instance < 0) {
              break;  // delivery-gated
            }
            const cfg::InstanceInfo& inst =
                g.instances()[static_cast<size_t>(pr.emit_instance)];
            ir::FieldId vf = inst.validity.at(e.header);
            ir::ExprRef v = sym::find_value(pr.values, vf);
            bool valid = v != nullptr && v->is_const() && v->value == 1;
            // A header reaches the wire only if valid AND emitted by the
            // deparser (catches wrong-deparser-emit code bugs, Table 2 #5).
            bool emitted = false;
            for (const std::string& h : inst.emit_order) emitted |= h == e.header;
            bool present = valid && emitted;
            bool want = e.kind == spec::Expectation::Kind::kHeaderPresent;
            if (present != want) ++r.failures;
            break;
          }
          case spec::Expectation::Kind::kChecksum:
            // Out of scope for SMT-based verification (paper §6: p4v/Aquila
            // "could not detect this bug, because verifying checksum is not
            // well supported by SMT solvers").
            break;
        }
      }
    }
  });
  if (eng.stats().timed_out) r.timed_out = true;
  r.smt_checks += eng.stats().solver.checks;
  r.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return r;
}

}  // namespace meissa::baselines
