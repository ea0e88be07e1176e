// Shared helpers for the evaluation benches (one binary per paper
// table/figure). Each binary prints a plain-text table mirroring the
// paper's rows/series plus the shape expectations being reproduced.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <utility>
#include <string>
#include <vector>

#include "apps/apps.hpp"
#include "baselines/baseline.hpp"
#include "obs/session.hpp"
#include "sim/toolchain.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"

namespace meissa::bench {

// The eight evaluation programs (paper Table 1), sized for a single-core
// reproduction: structure (pipes/switches/features) matches the paper;
// absolute rule counts are scaled down.
inline apps::AppBundle make_program(ir::Context& ctx, const std::string& name,
                                    int rule_scale = 1) {
  if (name == "Router") return apps::make_router(ctx, 16 * rule_scale);
  if (name == "mTag") return apps::make_mtag(ctx, 12 * rule_scale);
  if (name == "ACL") return apps::make_acl(ctx, 12 * rule_scale, 10);
  if (name == "switch.p4") {
    apps::SwitchP4Config cfg;
    cfg.routes = 12 * rule_scale;
    return apps::make_switchp4(ctx, cfg);
  }
  apps::GwConfig cfg;
  if (name == "gw-1") cfg.level = 1;
  if (name == "gw-2") cfg.level = 2;
  if (name == "gw-3") cfg.level = 3;
  if (name == "gw-4") cfg.level = 4;
  // Like the paper: gw-1..gw-3 use parts of the rule sets, gw-4 the full
  // set family (base 4 keeps the single-core run bounded; rule_scale is
  // the Figure 10/12 sweep knob).
  cfg.elastic_ips = apps::elastic_ips_for_set(cfg.level, /*base=*/4) * rule_scale;
  return apps::make_gateway(ctx, cfg);
}

inline const std::vector<std::string>& program_names() {
  static const std::vector<std::string> names = {
      "Router", "mTag", "ACL", "switch.p4", "gw-1", "gw-2", "gw-3", "gw-4"};
  return names;
}

inline bool is_production(const std::string& name) {
  return name.rfind("gw-", 0) == 0;
}

// Formats a baseline outcome like the paper's Figure 9 marks:
// a time, "timeout" (◦), or "no-support" (×).
inline std::string outcome(const baselines::BaselineResult& r) {
  if (!r.supported) return "x (no-support)";
  if (r.timed_out) return "o (timeout)";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2fs", r.seconds);
  return buf;
}

// Parses the value of numeric flag `name` (`<name> N`) from the bench
// binary's command line with util::parse_number; `fallback` when absent.
// A malformed value is a usage error: the message names the flag, exit 2.
template <typename T>
T parse_numeric_arg(int argc, char** argv, const std::string& name,
                    T fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (argv[i] != name) continue;
    T v = fallback;
    if (!util::parse_flag(argv, i, v)) std::exit(2);
    return v;
  }
  return fallback;
}

// Parses `--threads N` (0 = hardware concurrency); any other argument is
// ignored.
inline int parse_threads(int argc, char** argv, int fallback = 1) {
  return parse_numeric_arg(argc, argv, "--threads", fallback);
}

// Parses `<name> FILE` from the command line; empty when absent.
inline std::string parse_path_arg(int argc, char** argv,
                                  const std::string& name) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (argv[i] == name) return argv[i + 1];
  }
  return {};
}

// The bench's observability session: `--metrics FILE` turns the metrics
// registry on, `--trace FILE` starts span collection, and both files are
// written when the session leaves scope (end of main). Declare it first
// thing in main() as `auto obs_session = bench::observe(argc, argv);`.
inline obs::Session observe(int argc, char** argv) {
  return obs::Session("bench", parse_path_arg(argc, argv, "--metrics"),
                      parse_path_arg(argc, argv, "--trace"));
}

// One ratio per row of a summary-effectiveness table (w/o over w/).
using RatioRow = std::pair<std::string, double>;

// A "Shape checks" line computed from the ratios the table printed: the
// rows whose ratio is above 1 and the rows whose ratio is not.
inline void print_ratio_check(const char* what,
                              const std::vector<RatioRow>& rows) {
  std::string above;
  std::string rest;
  for (const auto& [name, ratio] : rows) {
    std::string& side = ratio > 1 ? above : rest;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%s%s %.2fx", side.empty() ? "" : ", ",
                  name.c_str(), ratio);
    side += buf;
  }
  std::printf("  %s > 1: %s; not > 1: %s\n", what,
              above.empty() ? "none" : above.c_str(),
              rest.empty() ? "none" : rest.c_str());
}

// True when each row's ratio is at least the previous row's.
inline bool ratios_grow(const std::vector<RatioRow>& rows) {
  for (size_t i = 1; i < rows.size(); ++i) {
    if (rows[i].second < rows[i - 1].second) return false;
  }
  return true;
}

// SAT-core decisions per SAT-core solve (0 when no check reached the core).
inline double decisions_per_solve(const smt::SolverStats& s) {
  return s.sat_calls == 0 ? 0.0
                          : static_cast<double>(s.sat_decisions) /
                                static_cast<double>(s.sat_calls);
}

// One machine-readable line per run: per-phase wall times and headline
// counters, for scripted scaling sweeps over --threads. The SAT counters
// are the final DFS's; prefix_paths/prefix_nodes sum the summary's public
// pre-condition enumerations (summary::PipelineSummary).
inline void print_phase_json(const std::string& program, const char* variant,
                             int threads, const driver::GenStats& s) {
  uint64_t prefix_paths = 0;
  uint64_t prefix_nodes = 0;
  for (const summary::PipelineSummary& p : s.pipelines) {
    prefix_paths += p.prefix_paths;
    prefix_nodes += p.prefix_nodes;
  }
  std::printf(
      "{\"program\":\"%s\",\"variant\":\"%s\",\"threads\":%d,"
      "\"build_seconds\":%.6f,\"summary_seconds\":%.6f,"
      "\"dfs_seconds\":%.6f,\"total_seconds\":%.6f,"
      "\"templates\":%llu,\"smt_checks\":%llu,\"smt_calls_skipped\":%llu,"
      "\"pc_cache_hits\":%llu,\"pc_cache_misses\":%llu,"
      "\"pc_model_reuse\":%llu,\"fast_path_skipped\":%llu,"
      "\"sat_calls\":%llu,\"sat_decisions_per_solve\":%.1f,"
      "\"prefix_paths\":%llu,\"prefix_nodes\":%llu,"
      "\"timed_out\":%s}\n",
      util::json_escape(program).c_str(), util::json_escape(variant).c_str(),
      threads, s.build_seconds, s.summary_seconds,
      s.dfs_seconds, s.total_seconds,
      static_cast<unsigned long long>(s.templates),
      static_cast<unsigned long long>(s.smt_checks),
      static_cast<unsigned long long>(s.smt_calls_skipped),
      static_cast<unsigned long long>(s.engine.pc_cache_hits),
      static_cast<unsigned long long>(s.engine.pc_cache_misses),
      static_cast<unsigned long long>(s.engine.pc_model_reuse),
      static_cast<unsigned long long>(s.engine.solver.fast_path_skipped),
      static_cast<unsigned long long>(s.engine.solver.sat_calls),
      decisions_per_solve(s.engine.solver),
      static_cast<unsigned long long>(prefix_paths),
      static_cast<unsigned long long>(prefix_nodes),
      s.engine.timed_out ? "true" : "false");
}

inline double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Timer {
  double t0 = now_seconds();
  double elapsed() const { return now_seconds() - t0; }
};

}  // namespace meissa::bench
