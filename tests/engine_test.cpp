// Tests for the symbolic-execution engine (Algorithm 1): valid-path
// discovery, early termination, template generation, model soundness.
#include <gtest/gtest.h>

#include <unordered_map>

#include "sym/state.hpp"
#include "sym/template.hpp"
#include "testlib.hpp"
#include "util/rng.hpp"

namespace meissa::sym {
namespace {

class Fig7Engine : public ::testing::Test {
 protected:
  void SetUp() override {
    dp = testlib::make_fig7_plane(ctx);
    rules = testlib::fig7_rules(3);
    g = cfg::build_cfg(dp, rules, ctx);
  }
  ir::Context ctx;
  p4::DataPlane dp;
  p4::RuleSet rules;
  cfg::Cfg g;
};

TEST_F(Fig7Engine, FindsExactlyTheValidPaths) {
  // 3 host paths (emit) + table miss (drop) + non-ip (emit).
  Engine eng(ctx, g);
  std::vector<PathResult> rs;
  eng.run([&](const PathResult& r) { rs.push_back(r); });
  EXPECT_EQ(rs.size(), 5u);
  int emits = 0, drops = 0;
  for (const auto& r : rs) {
    emits += r.exit == cfg::ExitKind::kEmit;
    drops += r.exit == cfg::ExitKind::kDrop;
  }
  EXPECT_EQ(emits, 4);
  EXPECT_EQ(drops, 1);
}

TEST_F(Fig7Engine, IntraPipelineRedundancyFoldsMacChecks) {
  // After ipv4_host pins egressPort, the mac_agent predicates are concrete
  // (Fig. 5b/7): they fold without SMT calls.
  Engine eng(ctx, g);
  eng.run([](const PathResult&) {});
  EXPECT_GT(eng.stats().folded_checks, 0u);
}

TEST_F(Fig7Engine, EveryModelDrivesItsOwnPath) {
  Engine eng(ctx, g);
  std::vector<PathResult> rs;
  eng.run([&](const PathResult& r) { rs.push_back(r); });
  for (const auto& r : rs) {
    auto model = eng.solve_for_model(r.conds);
    ASSERT_TRUE(model.has_value());
    // Complete the model with defaults for unconstrained inputs.
    ir::ConcreteState s;
    for (auto& [f, v] : *model) s[f] = v;
    for (ir::FieldId f = 0; f < ctx.fields.size(); ++f) s.try_emplace(f, 0);
    ir::DenseState end = testlib::dense(s, ctx);
    EXPECT_TRUE(cfg::eval_path(g, r.path, end, ctx))
        << "model did not drive its path";
    // And the concrete interpreter reaches the same terminal.
    auto out = testlib::concrete_run(g, s, ctx);
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->terminal, r.path.back());
  }
}

TEST_F(Fig7Engine, EarlyTerminationOffFindsTheSamePaths) {
  EngineOptions lazy;
  lazy.early_termination = false;
  Engine e1(ctx, g);
  Engine e2(ctx, g, lazy);
  std::vector<cfg::Path> p1, p2;
  e1.run([&](const PathResult& r) { p1.push_back(r.path); });
  e2.run([&](const PathResult& r) { p2.push_back(r.path); });
  EXPECT_EQ(p1, p2);
  // In Fig. 7 all infeasibility folds away constant-wise, so early
  // termination cannot visit more nodes (and usually visits fewer).
  EXPECT_LE(e1.stats().nodes_visited, e2.stats().nodes_visited);
}

TEST_F(Fig7Engine, NonIncrementalModeFindsTheSamePaths) {
  EngineOptions fresh;
  fresh.incremental = false;
  Engine e1(ctx, g);
  Engine e2(ctx, g, fresh);
  std::vector<cfg::Path> p1, p2;
  e1.run([&](const PathResult& r) { p1.push_back(r.path); });
  e2.run([&](const PathResult& r) { p2.push_back(r.path); });
  EXPECT_EQ(p1, p2);
}

TEST_F(Fig7Engine, PreconditionRestrictsPaths) {
  // Pin the destination to host 2: only its path plus non-ip remain
  // (non-ip is still compatible since dst constraint says nothing about
  // the ether type).
  Engine eng(ctx, g);
  eng.add_precondition(ctx.arena.cmp(ir::CmpOp::kEq,
                                     ctx.field_var("hdr.ipv4.dst", 32),
                                     ctx.arena.constant(0x0a000002, 32)));
  std::vector<PathResult> rs;
  eng.run([&](const PathResult& r) { rs.push_back(r); });
  EXPECT_EQ(rs.size(), 2u);
}

TEST_F(Fig7Engine, TemplatesCarryEntryAndExitInstances) {
  Engine eng(ctx, g);
  uint64_t id = 0;
  eng.run([&](const PathResult& r) {
    TestCaseTemplate t = make_template(ctx, g, r, id++);
    EXPECT_EQ(t.entry_instance, 0);
    if (t.exit == cfg::ExitKind::kEmit) {
      EXPECT_EQ(t.emit_instance, 0);
    }
    EXPECT_NE(t.path_condition, nullptr);
    EXPECT_FALSE(describe(t, ctx, g).empty());
  });
  EXPECT_EQ(id, 5u);
}

TEST_F(Fig7Engine, MaxResultsAborts) {
  EngineOptions capped;
  capped.max_results = 2;
  Engine eng(ctx, g, capped);
  std::vector<PathResult> rs;
  eng.run([&](const PathResult& r) { rs.push_back(r); });
  EXPECT_EQ(rs.size(), 2u);
}

class Fig8Engine : public ::testing::Test {
 protected:
  void SetUp() override {
    dp = testlib::make_fig8_plane(ctx);
    rules = testlib::fig8_rules();
    g = cfg::build_cfg(dp, rules, ctx);
  }
  ir::Context ctx;
  p4::DataPlane dp;
  p4::RuleSet rules;
  cfg::Cfg g;
};

TEST_F(Fig8Engine, EarlyTerminationPrunesSolverInfeasibleBranches) {
  // proto == 6 vs the UDP parse case needs the solver, not just folding:
  // early termination must cut those subtrees. PathEnv's static verdicts
  // refute them too, so both engines run without static pruning.
  EngineOptions eager_opts;
  eager_opts.static_pruning = false;
  EngineOptions lazy = eager_opts;
  lazy.early_termination = false;
  Engine eager(ctx, g, eager_opts);
  Engine lazy_eng(ctx, g, lazy);
  std::vector<cfg::Path> p1, p2;
  eager.run([&](const PathResult& r) { p1.push_back(r.path); });
  lazy_eng.run([&](const PathResult& r) { p2.push_back(r.path); });
  EXPECT_EQ(p1, p2);
  EXPECT_LT(eager.stats().nodes_visited, lazy_eng.stats().nodes_visited);
}

TEST_F(Fig8Engine, MultiPipelineValidPaths) {
  Engine eng(ctx, g);
  std::vector<PathResult> rs;
  eng.run([&](const PathResult& r) { rs.push_back(r); });
  // non-ip reject, udp drop, other-proto drop, tcp:443, tcp:other.
  EXPECT_EQ(rs.size(), 5u);
  int through_egress = 0;
  for (const auto& r : rs) {
    if (r.exit == cfg::ExitKind::kEmit) {
      EXPECT_EQ(r.emit_instance, 1);
      ++through_egress;
    }
  }
  EXPECT_EQ(through_egress, 2);
}

TEST_F(Fig8Engine, CrossPipelineInvalidCombinationsArePruned) {
  // Brute-force oracle: of all 238 possible paths, exactly the 5 valid
  // ones admit a satisfying input (checked via fresh solvers).
  auto paths = cfg::enumerate_paths(g, 1000);
  EXPECT_EQ(paths.size(), 238u);
  Engine eng(ctx, g);
  std::vector<PathResult> rs;
  eng.run([&](const PathResult& r) { rs.push_back(r); });
  for (const auto& r : rs) {
    auto model = eng.solve_for_model(r.conds);
    ASSERT_TRUE(model.has_value());
    ir::ConcreteState s;
    for (auto& [f, v] : *model) s[f] = v;
    for (ir::FieldId f = 0; f < ctx.fields.size(); ++f) s.try_emplace(f, 0);
    ir::DenseState d = testlib::dense(s, ctx);
    EXPECT_TRUE(cfg::eval_path(g, r.path, d, ctx));
  }
}

TEST(EngineHash, ConcreteKeysFoldToConstants) {
  // A pipeline that hashes a field pinned by a table match: the engine
  // must compute the hash concretely (paper §4).
  ir::Context ctx;
  cfg::Cfg g;
  ir::FieldId src = ctx.fields.intern("hdr.ipv4.src", 32);
  ir::FieldId h = ctx.fields.intern("meta.hash", 16);
  cfg::NodeId n0 = g.add(ir::Stmt::assume(ctx.arena.cmp(
      ir::CmpOp::kEq, ctx.var(src), ctx.arena.constant(0x01020304, 32))));
  g.set_entry(n0);
  cfg::HashStmt hs;
  hs.dest = h;
  hs.algo = p4::HashAlgo::kCrc16;
  hs.keys = {src};
  cfg::NodeId n1 = g.add_hash(hs);
  g.link(n0, n1);
  cfg::NodeId n2 = g.add(ir::Stmt::nop());
  g.node(n2).exit = cfg::ExitKind::kEmit;
  g.link(n1, n2);

  Engine eng(ctx, g);
  std::vector<PathResult> rs;
  eng.run([&](const PathResult& r) { rs.push_back(r); });
  ASSERT_EQ(rs.size(), 1u);
  ir::ExprRef hv = find_value(rs[0].values, h);
  ASSERT_NE(hv, nullptr);
  ASSERT_TRUE(hv->is_const());
  EXPECT_EQ(hv->value,
            p4::compute_hash(p4::HashAlgo::kCrc16, {0x01020304}, {32}, 16));
  EXPECT_TRUE(rs[0].obligations.empty());
}

TEST(EngineHash, SymbolicKeysLeaveObligation) {
  ir::Context ctx;
  cfg::Cfg g;
  ir::FieldId src = ctx.fields.intern("hdr.ipv4.src", 32);
  ir::FieldId h = ctx.fields.intern("meta.hash", 16);
  cfg::HashStmt hs;
  hs.dest = h;
  hs.algo = p4::HashAlgo::kCrc16;
  hs.keys = {src};
  cfg::NodeId n1 = g.add_hash(hs);
  g.set_entry(n1);
  // Branch on the (symbolic) hash result.
  cfg::NodeId br = g.add(ir::Stmt::assume(ctx.arena.cmp(
      ir::CmpOp::kEq, ctx.var(h), ctx.arena.constant(0x1234, 16))));
  g.link(n1, br);
  cfg::NodeId leaf = g.add(ir::Stmt::nop());
  g.node(leaf).exit = cfg::ExitKind::kEmit;
  g.link(br, leaf);

  Engine eng(ctx, g);
  std::vector<PathResult> rs;
  eng.run([&](const PathResult& r) { rs.push_back(r); });
  ASSERT_EQ(rs.size(), 1u);
  ASSERT_EQ(rs[0].obligations.size(), 1u);
  EXPECT_EQ(rs[0].obligations[0].algo, p4::HashAlgo::kCrc16);
  // The path condition mentions the placeholder, not the original dest.
  std::unordered_set<ir::FieldId> fs;
  ir::collect_fields(rs[0].conds[0], fs);
  EXPECT_TRUE(fs.count(rs[0].obligations[0].placeholder));
}

TEST(SymStateTest, PropertyAgreesWithAMapModelAcrossRollbacks) {
  // Random assign / mark / rollback sequences against the obvious model: a
  // map from field to value plus a stack of map snapshots. values() must
  // list the model's fields strictly increasing in FieldId. Fields are
  // interned as the run goes, so later assignments land past the store's
  // current size and grow it.
  ir::Context ctx;
  util::Rng rng(20);
  SymState st(ctx);
  std::vector<ir::FieldId> fs;
  using Model = std::unordered_map<ir::FieldId, ir::ExprRef>;
  Model model;
  std::vector<std::pair<SymState::Mark, Model>> marks;
  for (int step = 0; step < 4000; ++step) {
    if (fs.size() < 40 && rng.chance(1, 20)) {
      fs.push_back(ctx.fields.intern("f" + std::to_string(fs.size()), 8));
    }
    const uint64_t action = rng.below(10);
    if (fs.empty() || action < 5) {
      if (fs.empty()) continue;
      const ir::FieldId f = fs[rng.below(fs.size())];
      ir::ExprRef v = rng.chance(1, 2)
                          ? ctx.arena.constant(rng.bits(8), 8)
                          : ctx.arena.arith(ir::ArithOp::kAdd,
                                            st.value_of(fs[rng.below(fs.size())]),
                                            ctx.arena.constant(1, 8));
      st.assign(f, v);
      model[f] = v;
    } else if (action < 7) {
      marks.emplace_back(st.mark(), model);
    } else if (!marks.empty()) {
      const size_t keep = rng.below(marks.size());
      st.rollback(marks[keep].first);
      model = marks[keep].second;
      marks.resize(keep);
    }
    for (ir::FieldId f : fs) {
      auto it = model.find(f);
      ASSERT_EQ(st.value_of(f), it != model.end() ? it->second : ctx.var(f))
          << "step " << step;
    }
    // values() is the model as a list strictly increasing in FieldId.
    const Values vs = st.values();
    for (size_t i = 1; i < vs.size(); ++i) {
      ASSERT_LT(vs[i - 1].first, vs[i].first) << "step " << step;
    }
    ASSERT_EQ(Model(vs.begin(), vs.end()), model) << "step " << step;
    if (fs.size() >= 2) {
      // ⟦V⟧ of a two-field sum is the sum of the two current values.
      ir::FieldId a = fs[rng.below(fs.size())];
      ir::FieldId b = fs[rng.below(fs.size())];
      ASSERT_EQ(st.subst(ctx.arena.arith(ir::ArithOp::kXor, ctx.var(a),
                                         ctx.var(b))),
                ctx.arena.arith(ir::ArithOp::kXor, st.value_of(a),
                                st.value_of(b)));
    }
  }
}

}  // namespace
}  // namespace meissa::sym
