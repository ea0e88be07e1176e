#include "driver/sender.hpp"

#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace meissa::driver {

void stamp_payload(std::vector<uint8_t>& payload, uint64_t case_id) {
  for (int i = 7; i >= 0; --i) {
    payload.push_back(static_cast<uint8_t>(case_id >> (8 * i)));
  }
  for (int i = 0; i < 8; ++i) {
    payload.push_back(static_cast<uint8_t>(0xA0 + i));
  }
}

FrameClass classify_frame(const std::vector<uint8_t>& bytes, uint64_t want,
                          const std::unordered_set<uint64_t>& settled) {
  if (bytes.size() < kStampBytes) return FrameClass::kCorrupt;
  const size_t base = bytes.size() - kStampBytes;
  uint64_t id = 0;
  for (int i = 0; i < 8; ++i) id = (id << 8) | bytes[base + i];
  for (int i = 0; i < 8; ++i) {
    if (bytes[base + 8 + i] != static_cast<uint8_t>(0xA0 + i)) {
      return FrameClass::kCorrupt;
    }
  }
  if (id == want) return FrameClass::kOurs;
  if (settled.count(id) != 0) return FrameClass::kStale;
  return FrameClass::kCorrupt;
}

Sender::Sender(ir::Context& ctx, const p4::DataPlane& dp,
               const cfg::Cfg& graph, uint64_t /*seed*/)
    : ctx_(ctx),
      dp_(dp),
      graph_(graph),
      ingress_port_(ctx.fields.require(std::string(p4::kIngressPort))),
      egress_spec_(ctx.fields.require(std::string(p4::kEgressSpec))) {
  for (const p4::HeaderDef& h : dp_.program.headers) {
    std::vector<ir::FieldId>& ids = header_fields_[h.name];
    for (const p4::FieldDef& f : h.fields) {
      ids.push_back(ctx_.fields.require(p4::content_field(h.name, f.name)));
    }
  }
}

std::vector<std::string> Sender::simulate_parse(
    const std::string& instance) const {
  const p4::PipeInstance* pi = dp_.topology.find_instance(instance);
  util::check(pi != nullptr, "sender: unknown entry instance");
  const p4::Parser& parser = dp_.program.find_pipeline(pi->pipeline)->parser;

  std::vector<std::string> seq;
  const p4::ParserState* state = parser.find_state(parser.start);
  while (state != nullptr) {
    for (const std::string& h : state->extracts) {
      seq.push_back(h);
    }
    std::string next = state->default_next;
    if (!state->select_field.empty()) {
      uint64_t v = state_.get(ctx_.fields.require(state->select_field));
      for (const p4::ParserTransition& t : state->cases) {
        if ((v & t.mask) == (t.value & t.mask)) {
          next = t.next;
          break;
        }
      }
    }
    if (next == "accept" || next == "reject") break;
    state = parser.find_state(next);
  }
  return seq;
}

packet::HeaderValues Sender::header_values(const std::string& h) const {
  packet::HeaderValues hv;
  hv.header = h;
  for (ir::FieldId f : header_fields_.at(h)) hv.values.push_back(state_.get(f));
  return hv;
}

std::optional<TestCase> Sender::concretize(const sym::TestCaseTemplate& t,
                                           sym::Engine& engine) {
  // 1. A model of the path condition — with hash-obligation repair: if the
  // model's placeholder value disagrees with the recomputed hash, pin the
  // placeholder and re-solve; give up (remove the case) after a few rounds.
  // Each round loads its model into `state_` over zeros for every other
  // field: hash keys evaluate there, and the accepted round's state is the
  // input the path is replayed from.
  // The path condition, then the placeholder pins of the last repair round.
  std::vector<ir::ExprRef> conds = t.conds;
  std::optional<smt::Model> model;
  {
    obs::Span span("solve", "sender");
    span.arg("template", t.id);
    for (int round = 0; round <= kMaxHashRepairRounds; ++round) {
      model = engine.solve_for_model(conds);
      if (!model) {
        ++removed_by_hash_;
        return std::nullopt;  // over-constrained by repair: remove (§4)
      }
      const size_t nfields = ctx_.fields.size();
      state_.reset(nfields, nfields);
      state_.load(*model);
      bool consistent = true;
      conds.resize(t.conds.size());
      for (const sym::HashObligation& o : t.obligations) {
        std::vector<uint64_t> kv;
        std::vector<int> kw;
        bool known = true;
        for (size_t i = 0; i < o.key_exprs.size(); ++i) {
          auto v = ir::eval(o.key_exprs[i], state_);
          known = v.has_value();
          if (!known) break;
          kv.push_back(*v);
          kw.push_back(o.key_widths[i]);
        }
        if (!known) continue;
        int w = ctx_.fields.width(o.placeholder);
        uint64_t want = p4::compute_hash(o.algo, kv, kw, w);
        auto got = model->find(o.placeholder);
        if (got == model->end() || got->second != want) {
          consistent = false;
        }
        conds.push_back(ctx_.arena.cmp(ir::CmpOp::kEq,
                                       ctx_.arena.field(o.placeholder, w),
                                       ctx_.arena.constant(want, w)));
      }
      if (consistent) break;
      if (round == kMaxHashRepairRounds) {
        ++removed_by_hash_;
        return std::nullopt;
      }
      ++hash_repair_attempts_;  // another pinned re-solve round follows
    }
  }  // solve span ends before the packet is built

  TestCase tc;
  tc.template_id = t.id;
  tc.case_id = next_case_id_++;
  {
    // 2. The input packet, from the initial state: parser simulation at
    // the entry instance, then the unique-id payload (paper §4).
    obs::Span span("packet", "sender");
    util::check(t.entry_instance >= 0, "template without entry instance");
    const cfg::InstanceInfo& entry =
        graph_.instances()[static_cast<size_t>(t.entry_instance)];
    for (const std::string& h : simulate_parse(entry.name)) {
      tc.input_packet.headers.push_back(header_values(h));
    }
    stamp_payload(tc.input_packet.payload, tc.case_id);
    tc.input.port = state_.get(ingress_port_);
    tc.input.bytes = packet::serialize(dp_.program, tc.input_packet);

    // Register cells referenced by the model must be installed.
    for (const auto& [f, v] : *model) {
      if (util::starts_with(ctx_.fields.name(f), "REG:")) {
        tc.registers[f] = v;
      }
    }
    tc.input_state = std::move(*model);
  }

  // 3. Replay the path concretely, in place: yields the exact final state
  // (including real hash results) or rejects a model that does not drive
  // the path.
  {
    obs::Span span("replay", "sender");
    if (!cfg::eval_path(graph_, t.path, state_, ctx_)) {
      ++removed_by_hash_;
      return std::nullopt;
    }
  }

  // 4. Expected output from the final state.
  if (t.exit == cfg::ExitKind::kDrop) {
    tc.expect_drop = true;
    return tc;
  }
  obs::Span span("packet", "sender");
  util::check(t.emit_instance >= 0, "emit template without instance");
  const cfg::InstanceInfo& emit =
      graph_.instances()[static_cast<size_t>(t.emit_instance)];
  tc.expect_port = state_.get(egress_spec_);
  for (const std::string& h : emit.emit_order) {
    if (state_.get(emit.validity.at(h)) == 0) continue;
    tc.expect_packet.headers.push_back(header_values(h));
  }
  tc.expect_packet.payload = tc.input_packet.payload;
  tc.expect_bytes = packet::serialize(dp_.program, tc.expect_packet);
  return tc;
}

}  // namespace meissa::driver
