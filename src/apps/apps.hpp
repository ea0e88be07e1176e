// The program corpus of the evaluation (paper Table 1): open-source-style
// programs (Router, mTag, ACL, switch.p4) and production-style gateway
// programs (gw-1..gw-4), plus rule-set generators (random sets and the
// set-1..4 scaling family) and the 16-bug corpus of Table 2.
#pragma once

#include <array>
#include <string_view>

#include "driver/tester.hpp"
#include "p4/rules.hpp"
#include "sim/fault.hpp"
#include "spec/intent.hpp"
#include "util/rng.hpp"

namespace meissa::apps {

// A complete unit of evaluation: program + layout + rules + intents.
struct AppBundle {
  std::string name;
  p4::DataPlane dp;
  p4::RuleSet rules;
  std::vector<spec::Intent> intents;
  bool p4_14 = false;  // PTA supports only P4-14-era programs
};

// ----------------------------------------------------------- open source

// "A simple router based on switch.p4 that only contains layer-3 routing."
AppBundle make_router(ir::Context& ctx, int n_routes, uint64_t seed = 1);

// "mTag-edge that inserts and removes tags in switches attached to hosts."
AppBundle make_mtag(ir::Context& ctx, int n_hosts, uint64_t seed = 2);

// "ACL filtering on dst_addr, src_addr and ECN, based on Router."
AppBundle make_acl(ir::Context& ctx, int n_routes, int n_acls,
                   uint64_t seed = 3);

// "Multifunctional data plane program, including L2 switching, L3 routing,
// ECMP, tunnel, ACLs, MPLS, etc."
struct SwitchP4Config {
  int l2_hosts = 16;
  int routes = 16;
  int ecmp_ways = 4;
  int acls = 8;
  int mpls_labels = 8;
  uint64_t seed = 4;
};
AppBundle make_switchp4(ir::Context& ctx, const SwitchP4Config& cfg = {});

// ------------------------------------------------------------ production

// Production-style gateway family. `level` selects the Table 1 row:
//   1: single-pipe VXLAN gateway          (gw-1)
//   2: ingress+egress, VXLAN+ACL+routing  (gw-2)
//   3: 4 pipes, proprietary proto + switch pipes (gw-3)
//   4: 8 pipes across 2 switches (Fig. 1) (gw-4)
// `elastic_ips` scales the rule sets: the paper's set-k family doubles it
// per step (set-1 = base, set-4 = 8x).
struct GwConfig {
  int level = 1;
  int elastic_ips = 8;
  uint64_t seed = 5;
};
AppBundle make_gateway(ir::Context& ctx, const GwConfig& cfg);

// Rule-set scaling family for Figures 10/12: set-1..set-4.
int elastic_ips_for_set(int set_index, int base = 8);  // set_index 1..4

// ------------------------------------------------------------- demo apps

// The demo apps at the small, deterministic sizes the m4* tools and the
// tests run: router 6 routes, mtag 4 hosts, acl 4 routes / 4 ACLs, a
// reduced switch.p4, and gw-1..gw-4 with 4 elastic IPs.
inline constexpr std::array<std::string_view, 8> kDemoApps = {
    "router", "mtag", "acl", "switchp4", "gw-1", "gw-2", "gw-3", "gw-4"};

// Builds demo app `name` (one of kDemoApps). Throws util::ValidationError
// "unknown app '<name>'" for any other name.
AppBundle demo_app(ir::Context& ctx, std::string_view name);

// ------------------------------------------------------------ bug corpus

// One Table 2 scenario: a (possibly misprogrammed) bundle plus a
// (possibly non-trivial) toolchain fault, with the handwritten PTA unit
// tests an engineer would have had for it.
struct BugScenario {
  int index = 0;  // Table 2 row
  std::string name;
  bool code_bug = true;
  AppBundle bundle;
  sim::FaultSpec fault;  // kNone for code bugs
  // Handwritten unit tests (PTA input): built against the *intended*
  // behaviour; empty when engineers had no suite (or PTA is unsupported).
  std::vector<std::pair<sim::DeviceInput, bool /*expect_drop*/>> pta_inputs;
  // Expected outputs for those inputs, computed against the intended
  // (bug-free) variant of the program.
  std::vector<std::pair<uint64_t /*port*/, std::vector<uint8_t>>> pta_expect;
};

// Builds scenario `index` in 1..16 (Table 2 rows).
BugScenario make_bug(ir::Context& ctx, int index);
inline constexpr int kNumBugs = 16;

// The *intended* (bug-free) variant of scenario `index`: for code bugs the
// corrected program/rules, for toolchain bugs the same bundle (compiled
// without the fault). The fuzz lane's divergence oracle runs this as the
// reference device.
AppBundle make_bug_intended(ir::Context& ctx, int index);

}  // namespace meissa::apps
