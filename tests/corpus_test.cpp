// The ground-truth bug corpus: injection-site analysis liveness, manifest
// determinism across thread counts, witness-replay triggerability, the
// legacy Table-2 conversion, the survival harness, the constant-guard
// lint, and the IntendedVariantClean property (every corrected Table-2
// bundle is divergence-free against itself and summarizes soundly).
#include <gtest/gtest.h>

#include <set>

#include "analysis/inject.hpp"
#include "analysis/lint.hpp"
#include "analysis/validate.hpp"
#include "apps/corpus.hpp"
#include "apps/survival.hpp"
#include "apps/table2.hpp"
#include "cfg/build.hpp"
#include "fuzz/fuzz.hpp"
#include "sim/toolchain.hpp"
#include "summary/summary.hpp"

namespace meissa::apps {
namespace {

AppBundle router_app(ir::Context& ctx) { return make_router(ctx, 6); }

corpus::CorpusOptions fast_opts() {
  corpus::CorpusOptions opts;
  opts.witness_templates = 256;
  opts.summary_variants = false;  // keep the solver out of the hot tests
  return opts;
}

// ------------------------------------------------- injection-site analysis

TEST(InjectionSites, RouterEnumeratesLiveKinds) {
  ir::Context ctx;
  AppBundle app = router_app(ctx);
  cfg::Cfg g = cfg::build_cfg(app.dp, app.rules, ctx);
  analysis::InjectResult r =
      analysis::find_injection_sites(ctx, app.dp, app.rules, g);
  ASSERT_FALSE(r.sites.empty());
  EXPECT_GT(r.by_kind[static_cast<int>(analysis::SiteKind::kTableEntry)], 0u);
  EXPECT_GT(r.by_kind[static_cast<int>(analysis::SiteKind::kToolchain)], 0u);
  EXPECT_GE(r.considered, r.sites.size() + r.dead);
  for (const analysis::InjectionSite& s : r.sites) {
    EXPECT_FALSE(s.liveness.empty()) << "site " << s.id;
    if (s.kind != analysis::SiteKind::kSummary) {
      EXPECT_NE(s.node, cfg::kNoNode) << "site " << s.id;
    }
  }
}

TEST(InjectionSites, EnumerationIsDeterministic) {
  ir::Context ctx;
  AppBundle app = router_app(ctx);
  cfg::Cfg g = cfg::build_cfg(app.dp, app.rules, ctx);
  analysis::InjectResult a =
      analysis::find_injection_sites(ctx, app.dp, app.rules, g);
  analysis::InjectResult b =
      analysis::find_injection_sites(ctx, app.dp, app.rules, g);
  ASSERT_EQ(a.sites.size(), b.sites.size());
  for (size_t i = 0; i < a.sites.size(); ++i) {
    EXPECT_EQ(a.sites[i].id, b.sites[i].id);
    EXPECT_EQ(a.sites[i].kind, b.sites[i].kind);
    EXPECT_EQ(a.sites[i].ref, b.sites[i].ref);
    EXPECT_EQ(a.sites[i].index, b.sites[i].index);
    EXPECT_EQ(a.sites[i].liveness, b.sites[i].liveness);
  }
}

// ------------------------------------------------------- constant-guard

// A vacuous if inserted into a demo pipeline must trip the lint: the
// guard `field >= 0` is provably always true (unsigned), so the else arm
// is dead. The untouched program stays clean of the code.
TEST(Lint, ConstantGuardFiresOnVacuousIf) {
  ir::Context ctx;
  AppBundle app = router_app(ctx);
  {
    cfg::Cfg g = cfg::build_cfg(app.dp, app.rules, ctx);
    for (const analysis::Diagnostic& d :
         analysis::lint_cfg(ctx, g).diagnostics) {
      EXPECT_NE(d.code, "constant-guard") << d.message;
    }
  }
  ASSERT_FALSE(app.dp.program.pipelines.empty());
  p4::PipelineDef& pipe = app.dp.program.pipelines.front();
  ASSERT_FALSE(app.dp.program.headers.empty());
  const p4::HeaderDef& hdr = app.dp.program.headers.front();
  ASSERT_FALSE(hdr.fields.empty());
  const std::string fname = "hdr." + hdr.name + "." + hdr.fields.front().name;
  const ir::FieldId f = ctx.fields.find(fname);
  ASSERT_NE(f, ir::kInvalidField) << fname;
  const int w = ctx.fields.width(f);
  p4::ControlBlock then_block;  // empty arms: the branch is pure control
  pipe.control.stmts.insert(
      pipe.control.stmts.begin(),
      p4::ControlStmt::if_else(
          ctx.arena.cmp(ir::CmpOp::kGe, ctx.var(f),
                        ctx.arena.constant(0, w)),
          then_block));
  cfg::Cfg g = cfg::build_cfg(app.dp, app.rules, ctx);
  bool fired = false;
  for (const analysis::Diagnostic& d :
       analysis::lint_cfg(ctx, g).diagnostics) {
    if (d.code == "constant-guard") {
      fired = true;
      EXPECT_NE(d.message.find("always true"), std::string::npos)
          << d.message;
    }
  }
  EXPECT_TRUE(fired);
}

// ------------------------------------------------------------ the corpus

TEST(Corpus, ManifestByteIdenticalAcrossThreadCounts) {
  corpus::CorpusOptions opts = fast_opts();
  opts.seed = 7;
  opts.threads = 1;
  ir::Context ctx1;
  AppBundle app1 = router_app(ctx1);
  corpus::BugCorpus c1 = corpus::build_corpus(ctx1, app1, opts);

  opts.threads = 4;
  ir::Context ctx2;
  AppBundle app2 = router_app(ctx2);
  corpus::BugCorpus c2 = corpus::build_corpus(ctx2, app2, opts);

  ASSERT_FALSE(c1.variants.empty());
  EXPECT_EQ(corpus::manifest_json(c1), corpus::manifest_json(c2));
}

TEST(Corpus, WitnessReplayRetriggersEveryVariant) {
  ir::Context ctx;
  AppBundle app = router_app(ctx);
  corpus::BugCorpus c = corpus::build_corpus(ctx, app, fast_opts());
  ASSERT_FALSE(c.variants.empty());
  size_t replayed = 0, triggered = 0;
  for (const corpus::BugVariant& v : c.variants) {
    if (v.kind == corpus::MutationKind::kSummary) continue;
    ASSERT_TRUE(v.confirmed) << v.vid;
    ++replayed;
    sim::Device buggy(sim::compile(v.dp, v.rules, ctx, v.fault), ctx);
    sim::Device clean(sim::compile(app.dp, app.rules, ctx), ctx);
    buggy.set_registers(v.witness_registers);
    clean.set_registers(v.witness_registers);
    const sim::DeviceOutput t = buggy.inject(v.witness);
    const sim::DeviceOutput r = clean.inject(v.witness);
    const bool diverges = t.accepted != r.accepted || t.dropped != r.dropped ||
                          (!t.dropped && t.accepted &&
                           (t.port != r.port || t.bytes != r.bytes));
    if (diverges) ++triggered;
  }
  ASSERT_GT(replayed, 0u);
  // The acceptance gate is >= 90%; by construction replay should re-trigger
  // every confirmed variant.
  EXPECT_GE(triggered * 10, replayed * 9)
      << triggered << "/" << replayed << " witnesses re-triggered";
}

TEST(Corpus, AtLeastTwoHundredVariantsAcrossDemoApps) {
  const corpus::CorpusOptions opts = fast_opts();
  size_t total = 0;
  for (const char* name :
       {"router", "mtag", "acl", "switchp4", "gw-3", "gw-4"}) {
    ir::Context ctx;
    AppBundle app = demo_app(ctx, name);
    total += corpus::build_corpus(ctx, app, opts).variants.size();
  }
  EXPECT_GE(total, 200u);
}

TEST(Corpus, VariantIdsAreUniqueAndManifestIsLabeled) {
  ir::Context ctx;
  AppBundle app = router_app(ctx);
  corpus::BugCorpus c = corpus::build_corpus(ctx, app, fast_opts());
  std::set<std::string> vids;
  for (const corpus::BugVariant& v : c.variants) {
    EXPECT_TRUE(vids.insert(v.vid).second) << "duplicate vid " << v.vid;
    EXPECT_FALSE(v.liveness.empty()) << v.vid;
    EXPECT_FALSE(v.description.empty()) << v.vid;
  }
  const std::string manifest = corpus::manifest_json(c);
  EXPECT_NE(manifest.find("\"schema\":\"meissa-bug-corpus-v1\""),
            std::string::npos);
  EXPECT_NE(manifest.find("\"witness\":{"), std::string::npos);
}

TEST(Corpus, LegacyConversionCoversAllSixteen) {
  corpus::BugCorpus c = corpus::build_legacy_corpus();
  ASSERT_EQ(c.variants.size(), 16u);
  EXPECT_EQ(c.app, "legacy-table2");
  for (size_t i = 0; i < c.variants.size(); ++i) {
    const corpus::BugVariant& v = c.variants[i];
    EXPECT_EQ(v.kind, corpus::MutationKind::kLegacy);
    EXPECT_EQ(v.vid, "legacy:b" + std::to_string(i + 1));
    EXPECT_TRUE(v.has_reference) << v.vid;
    EXPECT_NE(v.ctx, nullptr) << v.vid;
  }
  const std::string manifest = corpus::manifest_json(c);
  EXPECT_NE(manifest.find("\"app\":\"legacy-table2\""), std::string::npos);
}

// -------------------------------------------------------------- survival

TEST(Survival, DetectsEveryVariantOfASmallCorpus) {
  ir::Context ctx;
  AppBundle app = make_acl(ctx, 4, 4);
  corpus::CorpusOptions copts = fast_opts();
  copts.max_variants = 10;
  corpus::BugCorpus c = corpus::build_corpus(ctx, app, copts);
  ASSERT_FALSE(c.variants.empty());

  survival::SurvivalOptions sopts;
  sopts.fuzz_execs = 512;
  survival::SurvivalReport rep = survival::run_survival(c, &app, sopts);
  EXPECT_EQ(rep.total, c.variants.size());
  EXPECT_EQ(rep.detected, rep.total);
  EXPECT_EQ(rep.survived, 0u);
  uint64_t first_sum = 0;
  for (int d = 0; d < survival::kNumDetectors; ++d) {
    first_sum += rep.first_by[d];
  }
  EXPECT_EQ(first_sum, rep.detected);
  const std::string json = rep.to_json();
  EXPECT_NE(json.find("\"schema\":\"meissa-bug-survival-v1\""),
            std::string::npos);
  EXPECT_NE(rep.render_text().find("first detector"), std::string::npos);
}

TEST(Survival, GenerousLaneDeadlineIsTransparent) {
  // A deadline no lane comes near must change nothing: same detections,
  // zero timeout verdicts.
  ir::Context ctx;
  AppBundle app = make_acl(ctx, 4, 4);
  corpus::CorpusOptions copts = fast_opts();
  copts.max_variants = 4;
  corpus::BugCorpus c = corpus::build_corpus(ctx, app, copts);
  ASSERT_FALSE(c.variants.empty());
  survival::SurvivalOptions sopts;
  sopts.fuzz_execs = 512;
  survival::SurvivalReport base = survival::run_survival(c, &app, sopts);
  sopts.lane_deadline_ms = 600000;
  survival::SurvivalReport rep = survival::run_survival(c, &app, sopts);
  EXPECT_EQ(rep.detected, base.detected);
  for (int d = 0; d < survival::kNumDetectors; ++d) {
    EXPECT_EQ(rep.lane_timeouts[d], 0u) << survival::detector_name(
        static_cast<survival::Detector>(d));
  }
}

TEST(Survival, TinyLaneDeadlineRecordsTimeoutVerdictsNotSilence) {
  // Starved lanes must surface as first-class "timeout" verdicts — never
  // as silent survivals — and a timeout never overrides a detection the
  // lane made before its deadline tripped.
  ir::Context ctx;
  AppBundle app = make_acl(ctx, 4, 4);
  corpus::CorpusOptions copts = fast_opts();
  copts.max_variants = 4;
  corpus::BugCorpus c = corpus::build_corpus(ctx, app, copts);
  ASSERT_FALSE(c.variants.empty());
  survival::SurvivalOptions sopts;
  sopts.fuzz_execs = 512;
  sopts.lane_deadline_ms = 1;
  survival::SurvivalReport rep = survival::run_survival(c, &app, sopts);
  EXPECT_EQ(rep.total, c.variants.size());
  uint64_t timeouts = 0;
  for (int d = 0; d < survival::kNumDetectors; ++d) {
    timeouts += rep.lane_timeouts[d];
  }
  EXPECT_GT(timeouts, 0u);
  for (const survival::VariantOutcome& o : rep.outcomes) {
    const bool hit[survival::kNumDetectors] = {o.lint, o.verify, o.engine,
                                               o.fuzz};
    for (int d = 0; d < survival::kNumDetectors; ++d) {
      if (o.timeout[d]) {
        EXPECT_FALSE(hit[d]) << o.vid << " lane "
                             << survival::detector_name(
                                    static_cast<survival::Detector>(d));
      }
    }
  }
  const std::string json = rep.to_json();
  EXPECT_NE(json.find("\"lane_timeouts\":"), std::string::npos);
  EXPECT_NE(json.find("\"timeouts\":{"), std::string::npos);
}

// ------------------------------------------- satellite: IntendedVariantClean

// Every corrected Table-2 bundle must be self-consistent ground truth: the
// intended program fuzzed against itself never diverges, and its code
// summary passes translation validation.
class IntendedVariantClean : public ::testing::TestWithParam<int> {};

TEST_P(IntendedVariantClean, FuzzSelfDiffAndSummaryValidation) {
  const int index = GetParam();
  ir::Context ctx;
  AppBundle intended = make_bug_intended(ctx, index);

  sim::Device target(sim::compile(intended.dp, intended.rules, ctx), ctx);
  sim::Device reference(sim::compile(intended.dp, intended.rules, ctx), ctx);
  fuzz::FuzzOptions fopts;
  fopts.execs = 1024;
  fopts.seed = 1;
  fuzz::Fuzzer fuzzer(target, reference, intended.dp, intended.rules, fopts);
  fuzz::FuzzResult r = fuzzer.run();
  EXPECT_FALSE(r.found()) << "bug " << index << ": " << r.divergences
                          << " self-divergences";

  cfg::Cfg original = cfg::build_cfg(intended.dp, intended.rules, ctx);
  summary::SummaryResult s = summary::summarize(ctx, original, {});
  analysis::ValidationResult vr =
      analysis::validate_summary(ctx, original, s.graph, {});
  EXPECT_TRUE(vr.sound()) << "bug " << index;
}

INSTANTIATE_TEST_SUITE_P(AllBugs, IntendedVariantClean,
                         ::testing::Range(1, 17));

}  // namespace
}  // namespace meissa::apps
