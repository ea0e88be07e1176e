// Summary translation validation: the demo summaries must be fully
// proven, every injected miscompilation of the summarized graph must be
// refuted at a named pipeline and edge, budget exhaustion must surface as
// `unproven` (never as a pass), and turning validation on must not perturb
// the emitted templates.
#include <gtest/gtest.h>

#include <sstream>

#include "analysis/validate.hpp"
#include "apps/apps.hpp"
#include "cfg/build.hpp"
#include "driver/generator.hpp"
#include "summary/summary.hpp"
#include "sym/template.hpp"
#include "testlib.hpp"
#include "util/error.hpp"

namespace meissa::analysis {
namespace {

apps::AppBundle router_app(ir::Context& ctx) {
  return apps::make_router(ctx, 6);
}

apps::AppBundle nat_gateway_app(ir::Context& ctx) {
  return apps::demo_app(ctx, "gw-2");  // ingress + egress NAT gateway
}

struct Validated {
  cfg::Cfg original;
  summary::SummaryResult summary;
  ValidationResult result;
};

Validated summarize_and_validate(
    ir::Context& ctx, const apps::AppBundle& app,
    const ValidateOptions& vopts = {},
    std::optional<SummaryFaultKind> fault = std::nullopt) {
  Validated v;
  v.original = cfg::build_cfg(app.dp, app.rules, ctx);
  v.summary = summary::summarize(ctx, v.original, vopts.summary);
  if (fault) {
    std::optional<std::string> what =
        inject_summary_fault(ctx, v.summary.graph, *fault);
    EXPECT_TRUE(what.has_value())
        << "no applicable site for " << summary_fault_name(*fault);
  }
  v.result = validate_summary(ctx, v.original, v.summary.graph, vopts);
  return v;
}

TEST(Validate, RouterSummaryFullyProven) {
  ir::Context ctx;
  Validated v = summarize_and_validate(ctx, router_app(ctx));
  const ValidationResult& r = v.result;
  EXPECT_TRUE(r.proven());
  EXPECT_TRUE(r.sound());
  EXPECT_GT(r.obligations, 0u);
  EXPECT_EQ(r.unsat, r.obligations);
  EXPECT_EQ(r.unproven, 0u);
  EXPECT_EQ(r.refuted, 0u);
  EXPECT_EQ(r.first_refuted(), nullptr);
  EXPECT_EQ(r.pipelines.size(), v.original.instances().size());
  for (const PipelineValidation& p : r.pipelines) {
    EXPECT_FALSE(p.instance.empty());
    // Every summarized branch paired with a surviving original path.
    EXPECT_EQ(p.surviving_paths, p.summary_branches) << p.instance;
    EXPECT_FALSE(p.ledger.empty()) << p.instance;
    // The totals are per-pipeline sums.
    EXPECT_EQ(p.unsat + p.unproven + p.refuted, p.obligations.size())
        << p.instance;
  }
}

TEST(Validate, NatGatewaySummaryFullyProven) {
  ir::Context ctx;
  Validated v = summarize_and_validate(ctx, nat_gateway_app(ctx));
  EXPECT_TRUE(v.result.proven());
  EXPECT_GT(v.result.obligations, 0u);
  // The transform eliminated something on this app, and each elimination
  // carries a ledger entry pointing at its proof obligation.
  uint64_t eliminated_edges = 0;
  for (const PipelineValidation& p : v.result.pipelines) {
    for (const EdgeLedgerEntry& e : p.ledger) {
      if (e.status != EdgeStatus::kEliminated) continue;
      ++eliminated_edges;
      ASSERT_GE(e.obligation, 0);
      ASSERT_LT(static_cast<size_t>(e.obligation), p.obligations.size());
      const Obligation& o = p.obligations[static_cast<size_t>(e.obligation)];
      EXPECT_EQ(o.kind, ObligationKind::kElimination);
      EXPECT_EQ(o.orig_from, e.from);
      EXPECT_EQ(o.orig_node, e.to);
    }
  }
  EXPECT_GT(eliminated_edges, 0u);
}

void expect_fault_refuted(SummaryFaultKind kind) {
  ir::Context ctx;
  Validated v = summarize_and_validate(ctx, nat_gateway_app(ctx), {}, kind);
  const ValidationResult& r = v.result;
  EXPECT_FALSE(r.sound()) << summary_fault_name(kind);
  EXPECT_GT(r.refuted, 0u) << summary_fault_name(kind);
  const Obligation* o = r.first_refuted();
  ASSERT_NE(o, nullptr) << summary_fault_name(kind);
  // The refutation names the miscompiled pipeline and carries context.
  EXPECT_FALSE(o->pipeline.empty());
  EXPECT_FALSE(o->detail.empty());
  const std::string text = validate_render_text(r, /*obligations_dump=*/false);
  EXPECT_NE(text.find("REFUTED"), std::string::npos) << text;
}

TEST(Validate, DropBranchFaultIsRefuted) {
  expect_fault_refuted(SummaryFaultKind::kDropBranch);
}

TEST(Validate, WidenGuardFaultIsRefuted) {
  expect_fault_refuted(SummaryFaultKind::kWidenGuard);
}

TEST(Validate, DropEffectFaultIsRefuted) {
  expect_fault_refuted(SummaryFaultKind::kDropEffect);
}

TEST(Validate, EffectOnAnUnchangedSeededFieldIsRefuted) {
  // Fig. 8's egress pipeline is seeded with the egress spec's known entry
  // value and never writes it, so each original path lists the field at its
  // seed. A summarized branch that ends by writing it must still be
  // refuted: the effect check walks the fields either side changes.
  ir::Context ctx;
  p4::DataPlane dp = testlib::make_fig8_plane(ctx);
  const cfg::Cfg original = cfg::build_cfg(dp, testlib::fig8_rules(), ctx);
  summary::SummaryResult sr = summary::summarize(ctx, original);
  cfg::Cfg& g = sr.graph;
  const cfg::InstanceInfo eg = g.instances()[1];
  const ir::FieldId spec = ctx.fields.require(std::string(p4::kEgressSpec));
  cfg::NodeId last = g.node(eg.entry).succ.at(0);
  while (g.node(last).succ.at(0) != eg.exit) last = g.node(last).succ[0];
  const cfg::NodeId write = g.add(ir::Stmt::assign(
      spec, ctx.arena.arith(ir::ArithOp::kAdd, ctx.var(spec),
                            ctx.arena.constant(1, ctx.fields.width(spec)))));
  g.node(write).instance = 1;
  g.node(last).succ = {write};
  g.link(write, eg.exit);

  const ValidationResult r = validate_summary(ctx, original, g, {});
  bool refuted = false;
  for (const Obligation& o : r.pipelines.at(1).obligations) {
    refuted |= o.kind == ObligationKind::kEffect &&
               o.verdict == ObligationVerdict::kRefuted &&
               o.field == p4::kEgressSpec;
  }
  EXPECT_TRUE(refuted) << validate_render_text(r, /*obligations_dump=*/true);
}

TEST(Validate, ExhaustedBudgetReportsUnprovenNeverPassed) {
  // A budget no real check fits in: every obligation must come back
  // `unproven` or (rarely) still-decided, and none may be silently counted
  // as a pass — proven() is false even though nothing was refuted.
  // gw-4: its register-update bindings are arithmetic, so its obligations
  // reach the SAT core (gw-2's are all decided by the domain fast path,
  // which the budget does not limit).
  ir::Context ctx;
  ValidateOptions vopts;
  vopts.budget.max_conflicts = 1;
  vopts.budget.max_propagations = 1;
  Validated v = summarize_and_validate(
      ctx, apps::make_gateway(ctx, {.level = 4, .elastic_ips = 2}), vopts);
  const ValidationResult& r = v.result;
  EXPECT_GT(r.unproven, 0u);
  EXPECT_FALSE(r.proven());
  // Degraded walks downgrade would-be refutations: a sound summary under
  // an exhausted budget stays sound, it just isn't proved.
  EXPECT_EQ(r.refuted, 0u);
  EXPECT_TRUE(r.sound());
  EXPECT_EQ(r.unsat + r.unproven, r.obligations);
}

TEST(Validate, FaultNamesRoundTrip) {
  for (SummaryFaultKind k :
       {SummaryFaultKind::kDropBranch, SummaryFaultKind::kWidenGuard,
        SummaryFaultKind::kDropEffect}) {
    std::optional<SummaryFaultKind> parsed =
        parse_summary_fault(summary_fault_name(k));
    ASSERT_TRUE(parsed.has_value()) << summary_fault_name(k);
    EXPECT_EQ(*parsed, k);
  }
  EXPECT_FALSE(parse_summary_fault("no-such-fault").has_value());
}

TEST(Validate, RenderingsAreWellFormed) {
  ir::Context ctx;
  Validated v = summarize_and_validate(ctx, router_app(ctx));
  const std::string text = validate_render_text(v.result, true);
  EXPECT_NE(text.find("PROVEN"), std::string::npos) << text;
  const std::string json = validate_render_json(v.result, true);
  EXPECT_NE(json.find("\"sound\": true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"proven\": true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"pipelines\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"obligations\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"edges\""), std::string::npos) << json;
}

// ------------------------------------------------------- driver integration

std::vector<std::string> generate_signature(driver::GenOptions opts,
                                            driver::GenStats* stats = nullptr,
                                            bool* had_validation = nullptr) {
  ir::Context ctx;
  apps::AppBundle app = nat_gateway_app(ctx);
  driver::Generator gen(ctx, app.dp, app.rules, opts);
  std::vector<sym::TestCaseTemplate> templates = gen.generate();
  if (stats != nullptr) *stats = gen.stats();
  if (had_validation != nullptr) *had_validation = gen.validation() != nullptr;
  std::vector<std::string> sig;
  sig.reserve(templates.size());
  for (const sym::TestCaseTemplate& t : templates) {
    std::ostringstream os;
    os << sym::describe(t, ctx, gen.graph()) << "\n  path:";
    for (cfg::NodeId n : t.path) os << " " << n;
    sig.push_back(os.str());
  }
  return sig;
}

TEST(Validate, GeneratorValidationDoesNotPerturbTemplates) {
  const std::vector<std::string> base = generate_signature({});
  driver::GenOptions opts;
  opts.validate_summary = true;
  driver::GenStats stats;
  bool had_validation = false;
  const std::vector<std::string> got =
      generate_signature(opts, &stats, &had_validation);
  EXPECT_TRUE(had_validation);
  EXPECT_GT(stats.validate_obligations, 0u);
  EXPECT_EQ(stats.validate_unsat, stats.validate_obligations);
  EXPECT_EQ(stats.validate_refuted, 0u);
  EXPECT_FALSE(base.empty());
  ASSERT_EQ(got.size(), base.size());
  for (size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(got[i], base[i]) << "template " << i;
  }
}

TEST(Validate, GeneratorOffByDefaultReportsNoValidation) {
  driver::GenStats stats;
  bool had_validation = true;
  (void)generate_signature({}, &stats, &had_validation);
  EXPECT_FALSE(had_validation);
  EXPECT_EQ(stats.validate_obligations, 0u);
  EXPECT_EQ(stats.validate_seconds, 0.0);
}

TEST(Validate, GenStatsMergeAccumulatesValidationCounters) {
  driver::GenStats a;
  a.validate_obligations = 10;
  a.validate_unsat = 8;
  a.validate_unproven = 1;
  a.validate_refuted = 1;
  a.validate_seconds = 0.5;
  driver::GenStats b;
  b.validate_obligations = 5;
  b.validate_unsat = 5;
  b.validate_seconds = 0.25;
  a += b;
  EXPECT_EQ(a.validate_obligations, 15u);
  EXPECT_EQ(a.validate_unsat, 13u);
  EXPECT_EQ(a.validate_unproven, 1u);
  EXPECT_EQ(a.validate_refuted, 1u);
  EXPECT_DOUBLE_EQ(a.validate_seconds, 0.75);
}

}  // namespace
}  // namespace meissa::analysis
