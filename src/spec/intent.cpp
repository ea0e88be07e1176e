#include "spec/intent.hpp"

#include "util/error.hpp"
#include "util/strings.hpp"

namespace meissa::spec {

std::string Expectation::describe(const ir::FieldTable& fields) const {
  switch (kind) {
    case Kind::kDelivered: return "expect delivered";
    case Kind::kDropped: return "expect dropped";
    case Kind::kBool: return "expect " + ir::to_string(expr, fields);
    case Kind::kHeaderPresent: return "expect header " + header + " present";
    case Kind::kHeaderAbsent: return "expect header " + header + " absent";
    case Kind::kChecksum: return "expect checksum " + csum_dest;
  }
  return "?";
}

IntentBuilder::IntentBuilder(ir::Context& ctx, const p4::Program& prog,
                             std::string name)
    : ctx_(ctx), prog_(prog) {
  intent_.name = std::move(name);
}

ir::ExprRef IntentBuilder::in(std::string_view full_name) {
  std::optional<int> w = prog_.field_width(full_name);
  if (!w) {
    throw util::ValidationError("intent: unknown field '" +
                                std::string(full_name) + "'");
  }
  return ctx_.field_var("in." + std::string(full_name), *w);
}

ir::ExprRef IntentBuilder::out(std::string_view full_name) {
  std::optional<int> w = prog_.field_width(full_name);
  if (!w) {
    throw util::ValidationError("intent: unknown field '" +
                                std::string(full_name) + "'");
  }
  return ctx_.field_var("out." + std::string(full_name), *w);
}

ir::ExprRef IntentBuilder::in_port() {
  return ctx_.field_var("in.$port", p4::kPortWidth);
}

ir::ExprRef IntentBuilder::out_port() {
  return ctx_.field_var("out.$port", p4::kPortWidth);
}

ir::ExprRef IntentBuilder::num(uint64_t v, int width) {
  return ctx_.arena.constant(v, width);
}

IntentBuilder& IntentBuilder::assume(ir::ExprRef cond) {
  util::check(cond != nullptr && cond->is_bool(), "assume must be boolean");
  intent_.assumes.push_back(cond);
  return *this;
}

IntentBuilder& IntentBuilder::expect(ir::ExprRef cond) {
  util::check(cond != nullptr && cond->is_bool(), "expect must be boolean");
  Expectation e;
  e.kind = Expectation::Kind::kBool;
  e.expr = cond;
  intent_.expects.push_back(std::move(e));
  return *this;
}

IntentBuilder& IntentBuilder::expect_delivered() {
  Expectation e;
  e.kind = Expectation::Kind::kDelivered;
  intent_.expects.push_back(std::move(e));
  return *this;
}

IntentBuilder& IntentBuilder::expect_dropped() {
  Expectation e;
  e.kind = Expectation::Kind::kDropped;
  intent_.expects.push_back(std::move(e));
  return *this;
}

IntentBuilder& IntentBuilder::expect_header(std::string header, bool present) {
  util::check(prog_.find_header(header) != nullptr,
              "intent: unknown header");
  Expectation e;
  e.kind = present ? Expectation::Kind::kHeaderPresent
                   : Expectation::Kind::kHeaderAbsent;
  e.header = std::move(header);
  intent_.expects.push_back(std::move(e));
  return *this;
}

IntentBuilder& IntentBuilder::expect_checksum(std::string dest,
                                              std::vector<std::string> sources,
                                              p4::HashAlgo algo) {
  Expectation e;
  e.kind = Expectation::Kind::kChecksum;
  e.csum_dest = std::move(dest);
  e.csum_sources = std::move(sources);
  e.csum_algo = algo;
  intent_.expects.push_back(std::move(e));
  return *this;
}

ir::ExprRef assume_to_precondition(ir::ExprRef assume, ir::Context& ctx) {
  ir::SubstMemo memo;
  return ir::substitute(
      assume, ctx.arena,
      [&](ir::FieldId f, int w) -> ir::ExprRef {
        const std::string& name = ctx.fields.name(f);
        if (util::starts_with(name, "in.")) {
          std::string raw(name.substr(3));
          if (raw == "$port") raw = std::string(p4::kIngressPort);
          return ctx.field_var(raw, w);
        }
        return nullptr;
      },
      memo);
}

ir::ConcreteState observation_state(const Observation& obs, ir::Context& ctx) {
  ir::ConcreteState s;
  auto load = [&](const packet::Packet& pkt, const std::string& prefix) {
    for (const packet::HeaderValues& h : pkt.headers) {
      const p4::HeaderDef* def = obs.prog->find_header(h.header);
      for (size_t i = 0; i < def->fields.size(); ++i) {
        std::string name =
            prefix + p4::content_field(h.header, def->fields[i].name);
        s[ctx.fields.intern(name, def->fields[i].width)] = h.values[i];
      }
    }
  };
  load(obs.input, "in.");
  if (obs.delivered) load(obs.output, "out.");
  s[ctx.fields.intern("in.$port", p4::kPortWidth)] =
      util::truncate(obs.in_port, p4::kPortWidth);
  if (obs.delivered) {
    s[ctx.fields.intern("out.$port", p4::kPortWidth)] =
        util::truncate(obs.out_port, p4::kPortWidth);
  }
  return s;
}

bool applicable(const Intent& intent, const ir::ConcreteState& state) {
  for (ir::ExprRef a : intent.assumes) {
    auto v = ir::eval(a, state);
    // An assume over a field absent from the input (e.g. a header the
    // packet does not carry) does not apply.
    if (!v || *v == 0) return false;
  }
  return true;
}

std::vector<std::string> check(const Intent& intent, const Observation& obs,
                               const ir::ConcreteState& s, ir::Context& ctx) {
  std::vector<std::string> failures;
  for (const Expectation& e : intent.expects) {
    switch (e.kind) {
      case Expectation::Kind::kDelivered:
        if (!obs.delivered) failures.push_back("packet was dropped");
        break;
      case Expectation::Kind::kDropped:
        if (obs.delivered) failures.push_back("packet was not dropped");
        break;
      case Expectation::Kind::kBool: {
        // Output-relating expectations are implicitly conditioned on
        // delivery; a dropped packet is judged by kDropped/kDelivered.
        if (!obs.delivered) break;
        auto v = ir::eval(e.expr, s);
        if (!v) {
          failures.push_back("cannot evaluate: " +
                             e.describe(ctx.fields) +
                             " (field missing from packets)");
        } else if (*v == 0) {
          failures.push_back("violated: " + e.describe(ctx.fields));
        }
        break;
      }
      case Expectation::Kind::kHeaderPresent:
        if (obs.delivered && obs.output.find(e.header) == nullptr) {
          failures.push_back("missing header " + e.header);
        }
        break;
      case Expectation::Kind::kHeaderAbsent:
        if (obs.delivered && obs.output.find(e.header) != nullptr) {
          failures.push_back("unexpected header " + e.header);
        }
        break;
      case Expectation::Kind::kChecksum: {
        if (!obs.delivered) {
          failures.push_back("packet was dropped; checksum unverifiable");
          break;
        }
        std::vector<uint64_t> kv;
        std::vector<int> kw;
        bool ok = true;
        for (const std::string& src : e.csum_sources) {
          std::optional<int> w = obs.prog->field_width(src);
          ir::FieldId f = ctx.fields.intern("out." + src, *w);
          auto it = s.find(f);
          if (it == s.end()) {
            failures.push_back("checksum source '" + src +
                               "' missing from output");
            ok = false;
            break;
          }
          kv.push_back(it->second);
          kw.push_back(*w);
        }
        if (!ok) break;
        std::optional<int> dw = obs.prog->field_width(e.csum_dest);
        ir::FieldId df = ctx.fields.intern("out." + e.csum_dest, *dw);
        auto it = s.find(df);
        if (it == s.end()) {
          failures.push_back("checksum field '" + e.csum_dest +
                             "' missing from output");
          break;
        }
        uint64_t want = p4::compute_hash(e.csum_algo, kv, kw, *dw);
        if (it->second != want) {
          failures.push_back("checksum error in " + e.csum_dest +
                             ": expected " + util::hex(want) + ", got " +
                             util::hex(it->second));
        }
        break;
      }
    }
  }
  return failures;
}

}  // namespace meissa::spec
