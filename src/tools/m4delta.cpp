// m4delta — incremental re-testing CLI: run a baseline generation for a
// built-in app, apply N single-table rule updates, and report *delta
// coverage* per update (templates added/removed/unchanged), the regions
// the change-impact analysis kept clean, and the solver work saved vs
// full regeneration.
//
//   m4delta --app NAME [options]
//
// Options:
//   --app NAME        router, mtag, acl, switchp4, gw-1..gw-4
//   --updates N       number of rule updates to apply (default 1); update
//                     k removes the target table's last remaining entry
//   --table NAME      table to update (default: the table of the rule
//                     set's last installed entry — a late-pipeline table,
//                     so upstream regions stay clean)
//   --json            machine-readable report
//   --threads N       worker threads (0 = hardware)
//   --no-verify       skip the byte-identity check against a from-scratch
//                     regeneration of each updated program (the check is
//                     also what measures the full-regen SMT cost)
//   --metrics FILE    enable the metrics registry; write snapshot to FILE
//   --trace FILE      enable span tracing; write Chrome trace JSON to FILE
//
// Exit status: 0 ok, 1 byte-identity mismatch, 2 usage or error.
#include <cstdio>
#include <string>
#include <vector>

#include "apps/apps.hpp"
#include "driver/incremental.hpp"
#include "obs/session.hpp"
#include "util/cli.hpp"

namespace {

using namespace meissa;

int usage() {
  std::fprintf(stderr,
               "usage: m4delta --app NAME [options]\n"
               "  --app: router, mtag, acl, switchp4, gw-1, gw-2, gw-3, gw-4\n"
               "  options: --updates N --table NAME --json --threads N\n"
               "           --no-verify --metrics FILE --trace FILE\n");
  return 2;
}

std::string join(const std::vector<std::string>& v) {
  std::string s;
  for (const std::string& x : v) {
    if (!s.empty()) s += ",";
    s += x;
  }
  return s;
}

std::string json_list(const std::vector<std::string>& v) {
  std::string s = "[";
  for (const std::string& x : v) {
    if (s.size() > 1) s += ",";
    s += "\"" + x + "\"";
  }
  return s + "]";
}

struct UpdateRow {
  driver::UpdateReport rep;
  bool verified = false;
  bool byte_identical = false;
  uint64_t full_smt_checks = 0;
  double full_seconds = 0;
};

}  // namespace

int main(int argc, char** argv) {
  std::string app;
  std::string table;
  int updates = 1;
  bool json = false;
  bool verify = true;
  int threads = 0;
  std::string metrics_file;
  std::string trace_file;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--app" && i + 1 < argc) {
      app = argv[++i];
    } else if (arg == "--table" && i + 1 < argc) {
      table = argv[++i];
    } else if (arg == "--updates" && i + 1 < argc) {
      if (!util::parse_flag(argv, i, updates)) return usage();
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--no-verify") {
      verify = false;
    } else if (arg == "--threads" && i + 1 < argc) {
      if (!util::parse_flag(argv, i, threads)) return usage();
    } else if (arg == "--metrics" && i + 1 < argc) {
      metrics_file = argv[++i];
    } else if (arg == "--trace" && i + 1 < argc) {
      trace_file = argv[++i];
    } else {
      return usage();
    }
  }
  if (app.empty() || updates < 1) return usage();

  obs::Session obs_session("m4delta", metrics_file, trace_file);
  int status = 0;
  try {
    ir::Context ctx;
    apps::AppBundle b = apps::demo_app(ctx, app);
    if (table.empty()) {
      if (b.rules.entries.empty()) {
        std::fprintf(stderr, "m4delta: app '%s' installs no rules\n",
                     app.c_str());
        return 2;
      }
      table = b.rules.entries.back().table;
    }

    driver::IncrementalOptions iopts;
    iopts.gen.threads = threads;
    driver::IncrementalSession session(ctx, b.dp, iopts);

    p4::RuleSet rules = b.rules;
    std::vector<UpdateRow> rows;
    rows.push_back({session.run(rules), false, false, 0, 0});
    int applied = 0;
    for (int u = 1; u <= updates; ++u) {
      if (!rules.remove_last_entry(table)) {
        std::fprintf(stderr,
                     "m4delta: table '%s' out of entries after %d update(s)\n",
                     table.c_str(), applied);
        break;
      }
      ++applied;
      UpdateRow row;
      row.rep = session.run(rules);
      if (verify) {
        // From-scratch regeneration of the updated program in a fresh
        // context: same app, same removals, no reused state. Byte-identity
        // compares the strict signatures (path condition, final values,
        // exact node path).
        ir::Context ctx2;
        apps::AppBundle b2 = apps::demo_app(ctx2, app);
        p4::RuleSet rules2 = b2.rules;
        for (int k = 0; k < applied; ++k) rules2.remove_last_entry(table);
        driver::GenOptions gopts;
        gopts.threads = threads;
        driver::Generator gen(ctx2, b2.dp, rules2, gopts);
        std::vector<sym::TestCaseTemplate> full = gen.generate();
        std::vector<std::string> c;
        for (const sym::TestCaseTemplate& t : full) {
          c.push_back(driver::IncrementalSession::full_signature(
              ctx2, gen.graph(), t));
        }
        std::sort(c.begin(), c.end());
        row.verified = true;
        row.byte_identical = row.rep.full_sigs == c;
        row.full_smt_checks = gen.stats().smt_checks;
        row.full_seconds = gen.stats().total_seconds;
        if (!row.byte_identical) status = 1;
      }
      rows.push_back(std::move(row));
    }

    if (json) {
      std::string out = "{\"app\":\"" + app + "\",\"table\":\"" + table +
                        "\",\"runs\":[";
      for (size_t i = 0; i < rows.size(); ++i) {
        const UpdateRow& r = rows[i];
        if (i > 0) out += ",";
        out += "{\"run\":" + std::to_string(r.rep.run);
        out += ",\"templates\":" + std::to_string(r.rep.templates.size());
        out += ",\"regions_dirty\":" + std::to_string(r.rep.impact.dirty.size());
        out += ",\"regions_clean\":" + std::to_string(r.rep.impact.clean.size());
        out += ",\"dirty\":" + json_list(r.rep.impact.dirty);
        out += ",\"tainted_fields\":" + json_list(r.rep.impact.tainted_fields);
        out += ",\"changed_tables\":" + json_list(r.rep.impact.changed_tables);
        out += ",\"summaries_reused\":" + std::to_string(r.rep.summaries_reused);
        out += ",\"added\":" + std::to_string(r.rep.added);
        out += ",\"removed\":" + std::to_string(r.rep.removed);
        out += ",\"unchanged\":" + std::to_string(r.rep.unchanged);
        out += ",\"smt_checks\":" + std::to_string(r.rep.smt_checks);
        out += ",\"pc_cache_hits\":" + std::to_string(r.rep.pc_cache_hits);
        if (r.verified) {
          out += std::string(",\"byte_identical\":") +
                 (r.byte_identical ? "true" : "false");
          out += ",\"full_smt_checks\":" + std::to_string(r.full_smt_checks);
          // 0 paid checks (everything cache-hit) counts as 1 so the ratio
          // stays finite and monotone in the savings.
          double ratio = double(r.full_smt_checks) /
                         double(r.rep.smt_checks > 0 ? r.rep.smt_checks : 1);
          char buf[32];
          std::snprintf(buf, sizeof(buf), "%.2f", ratio);
          out += std::string(",\"check_ratio\":") + buf;
        }
        out += "}";
      }
      out += "]}";
      std::printf("%s\n", out.c_str());
    } else {
      std::printf("m4delta: app=%s table=%s\n", app.c_str(), table.c_str());
      for (const UpdateRow& r : rows) {
        if (r.rep.run == 0) {
          std::printf("baseline: %zu template(s), %llu SMT check(s)\n",
                      r.rep.templates.size(),
                      (unsigned long long)r.rep.smt_checks);
          continue;
        }
        std::printf(
            "update %d: tables[%s] dirty=%zu clean=%zu reused=%llu | "
            "templates %zu (+%llu -%llu =%llu) | %llu SMT check(s)",
            r.rep.run, join(r.rep.impact.changed_tables).c_str(),
            r.rep.impact.dirty.size(), r.rep.impact.clean.size(),
            (unsigned long long)r.rep.summaries_reused,
            r.rep.templates.size(), (unsigned long long)r.rep.added,
            (unsigned long long)r.rep.removed,
            (unsigned long long)r.rep.unchanged,
            (unsigned long long)r.rep.smt_checks);
        if (r.verified) {
          std::printf(" | full-regen %llu (%.1fx) %s",
                      (unsigned long long)r.full_smt_checks,
                      double(r.full_smt_checks) /
                          double(r.rep.smt_checks > 0 ? r.rep.smt_checks : 1),
                      r.byte_identical ? "byte-identical" : "MISMATCH");
        }
        std::printf("\n");
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "m4delta: %s\n", e.what());
    status = 2;
  }

  if (!obs_session.finish() && status == 0) status = 2;
  return status;
}
