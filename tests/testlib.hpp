// Shared fixtures for Meissa tests: small hand-built data planes, a
// random-CFG generator for property tests, and a concrete reference
// interpreter used as the ground-truth oracle.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "apps/demos.hpp"
#include "cfg/build.hpp"
#include "p4/rules.hpp"
#include "util/rng.hpp"

namespace meissa::testlib {

// The paper's Fig. 7 workload (ipv4_host chained into mac_agent, single
// pipeline) and Fig. 8 shape (an ingress that routes TCP to an egress
// whose UDP branch the public pre-condition summarizes away).
using apps::demos::fig7_rules;
using apps::demos::fig8_rules;
using apps::demos::make_fig7_plane;
using apps::demos::make_fig8_plane;

// Result of concretely interpreting a CFG: which terminal was reached and
// the final state. Interpretation backtracks at forks (assume-guarded
// branches), so it is a ground-truth "which path does this input drive"
// oracle independent of the symbolic engine.
struct ConcreteOutcome {
  cfg::NodeId terminal = cfg::kNoNode;
  cfg::ExitKind exit = cfg::ExitKind::kNone;
  int emit_instance = -1;
  ir::ConcreteState state;
  cfg::Path path;
};

std::optional<ConcreteOutcome> concrete_run(const cfg::Cfg& g,
                                            ir::ConcreteState initial,
                                            const ir::Context& ctx);

// `s` as a dense state sized to the context's fields; fields `s` does not
// assign stay unbound.
ir::DenseState dense(const ir::ConcreteState& s, const ir::Context& ctx);

// Random multi-pipeline CFG for property tests: `k` pipeline instances in
// a chain, each a DAG of assume/assign diamonds over a small field set.
cfg::Cfg random_pipeline_cfg(ir::Context& ctx, util::Rng& rng, int k,
                             int diamonds_per_pipe);

// The fields random_pipeline_cfg draws from (interned as x0..x3, 8 bits).
std::vector<ir::FieldId> random_cfg_fields(ir::Context& ctx);

namespace json {

// Strict mini JSON value/parser for round-tripping the JSON the repo
// emits (reports, lint results, metrics snapshots, Chrome traces). Strict
// means: exactly one top-level value, no trailing garbage, no trailing
// commas, full string-escape validation — so a test failure points at a
// real emitter bug, not parser leniency.
struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<Value> array;
  // Insertion order preserved (the emitters promise stable key order).
  std::vector<std::pair<std::string, Value>> object;

  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  // Object member lookup; nullptr when absent or not an object.
  const Value* find(const std::string& key) const;
  // Checked accessors: test-fail (throw) on kind mismatch or missing key.
  const Value& at(const std::string& key) const;
  const std::string& as_string() const;
  double as_number() const;
  bool as_bool() const;
};

// Parses one JSON document. Throws std::runtime_error (with an offset)
// on any syntax violation.
Value parse(std::string_view text);

}  // namespace json

}  // namespace meissa::testlib
