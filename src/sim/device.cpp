#include "sim/device.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "packet/wire.hpp"
#include "sim/coverage.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace meissa::sim {

namespace {
// Garbage pattern left in metadata when the zeroing flag is missing
// (fault #16): deterministic, nonzero, width-truncated.
constexpr uint64_t kGarbage = 0xdeadbeefcafef00dull;
}  // namespace

void ExecArena::begin_packet(size_t nfields) {
  state_.reset(nfields);
  trace_.clear();
  payload_off_ = 0;
  cur_instance_ = -1;
  dropped_ = false;
}

Device::Device(DeviceProgram prog, ir::Context& ctx)
    : prog_(std::move(prog)), ctx_(ctx) {
  // Intern the full field universe up front: the execution path indexes
  // these caches and never builds a name or takes the field-table lock.
  port_fid_ =
      ctx_.fields.intern(std::string(p4::kIngressPort), p4::kPortWidth);
  drop_fid_ = ctx_.fields.intern(std::string(p4::kDropFlag), 1);
  egspec_fid_ =
      ctx_.fields.intern(std::string(p4::kEgressSpec), p4::kPortWidth);

  headers_.reserve(prog_.program.headers.size());
  for (const p4::HeaderDef& def : prog_.program.headers) {
    HeaderLayout lay;
    lay.validity = ctx_.fields.intern(p4::validity_field(def.name), 1);
    for (const p4::FieldDef& f : def.fields) {
      lay.fields.push_back(
          ctx_.fields.intern(p4::content_field(def.name, f.name), f.width));
      lay.widths.push_back(f.width);
      lay.total_bits += static_cast<size_t>(f.width);
    }
    headers_.push_back(std::move(lay));
  }

  for (const p4::FieldDef& m : prog_.program.metadata) {
    uint64_t v = prog_.zero_metadata ? 0 : util::truncate(kGarbage, m.width);
    metadata_init_.emplace_back(ctx_.fields.intern(m.name, m.width), v);
  }

  auto header_index = [this](const std::string& name) {
    for (size_t i = 0; i < prog_.program.headers.size(); ++i) {
      if (prog_.program.headers[i].name == name) return static_cast<int>(i);
    }
    return -1;
  };

  emits_.resize(prog_.instances.size());
  csum_guards_.resize(prog_.instances.size());
  key_kinds_.resize(prog_.instances.size());
  pre_matches_.resize(prog_.instances.size());
  entry_order_.resize(prog_.instances.size());
  for (size_t i = 0; i < prog_.instances.size(); ++i) {
    const DevInstance& inst = prog_.instances[i];
    for (const std::string& hname : inst.emit_order) {
      EmitSlot slot;
      slot.validity = ctx_.fields.intern(p4::validity_field(hname), 1);
      slot.header = header_index(hname);
      util::check(slot.header >= 0, "device: emit of undeclared header");
      emits_[i].push_back(slot);
    }
    for (const DevChecksum& c : inst.checksums) {
      csum_guards_[i].push_back(
          ctx_.fields.intern(p4::validity_field(c.guard_header), 1));
    }
    key_kinds_[i].resize(inst.tables.size());
    pre_matches_[i].resize(inst.tables.size());
    entry_order_[i].resize(inst.tables.size());
    for (size_t t = 0; t < inst.tables.size(); ++t) {
      const DevTable& tab = inst.tables[t];
      std::vector<p4::MatchKind>& kinds = key_kinds_[i][t];
      for (const DevKey& k : tab.keys) kinds.push_back(k.kind);

      // Rank the entries once (entry_rank is a strict weak order; the
      // stable sort keeps install order on full ties), so the per-packet
      // scan takes the first hit instead of rank-comparing every hit.
      std::vector<int32_t>& order = entry_order_[i][t];
      order.resize(tab.entries.size());
      for (size_t ei = 0; ei < order.size(); ++ei) {
        order[ei] = static_cast<int32_t>(ei);
      }
      std::stable_sort(order.begin(), order.end(),
                       [&](int32_t x, int32_t y) {
                         return p4::entry_rank(
                                    kinds,
                                    tab.entries[static_cast<size_t>(x)].source,
                                    tab.entries[static_cast<size_t>(y)]
                                        .source) < 0;
                       });

      std::vector<PreMatch>& pre = pre_matches_[i][t];
      pre.reserve(tab.entries.size() * tab.keys.size());
      for (int32_t oi : order) {
        const DevEntry& e = tab.entries[static_cast<size_t>(oi)];
        for (size_t ki = 0; ki < tab.keys.size(); ++ki) {
          const DevKey& k = tab.keys[ki];
          const p4::KeyMatch& m = e.matches[ki];
          PreMatch pm;
          switch (k.kind) {
            case p4::MatchKind::kExact:
              pm.mask = ~uint64_t{0};
              pm.value = m.value;
              break;
            case p4::MatchKind::kTernary:
              pm.mask = m.mask;
              pm.value = m.value & m.mask;
              break;
            case p4::MatchKind::kLpm:
              pm.mask = m.prefix_len <= 0
                            ? 0
                            : util::mask_bits(k.width) ^
                                  util::mask_bits(
                                      std::max(0, k.width - m.prefix_len));
              pm.value = m.value & pm.mask;
              break;
            case p4::MatchKind::kRange:
              pm.value = m.lo;
              pm.mask = m.hi;
              break;
          }
          pre.push_back(pm);
        }
      }
    }
  }

  widths_.resize(ctx_.fields.size());
  for (ir::FieldId f = 0; f < widths_.size(); ++f) {
    widths_[f] = ctx_.fields.width(f);
  }
}

void Device::set_register(std::string_view reg, uint64_t index,
                          uint64_t value) {
  std::string name = p4::register_field(reg, index);
  std::optional<int> w = prog_.program.field_width(name);
  util::check(w.has_value(), "set_register: unknown register cell");
  registers_[ctx_.fields.intern(name, *w)] = util::truncate(value, *w);
  registers_flat_.assign(registers_.begin(), registers_.end());
}

void Device::set_registers(const ir::ConcreteState& regs) {
  for (auto& [f, v] : regs) registers_[f] = v;
  registers_flat_.assign(registers_.begin(), registers_.end());
}

std::optional<uint64_t> Device::get_register(std::string_view reg,
                                             uint64_t index) const {
  ir::FieldId f = ctx_.fields.find(p4::register_field(reg, index));
  if (f == ir::kInvalidField) return std::nullopt;
  auto it = registers_.find(f);
  if (it == registers_.end()) return std::nullopt;
  return it->second;
}

void Device::note(ExecArena& a, TraceEventKind kind, int16_t table,
                  int32_t aux) const {
  if (a.coverage != nullptr) {
    a.coverage->hit(coverage_key(static_cast<uint8_t>(kind), a.cur_instance_,
                                 table, aux));
  }
  if (a.collect_trace) {
    a.trace_.push_back({kind, a.cur_instance_, table, aux});
  }
}

int32_t Device::first_missing(ir::ExprRef e, const ExecArena& a) const {
  switch (e->kind) {
    case ir::ExprKind::kConst:
    case ir::ExprKind::kBoolConst:
      return -1;
    case ir::ExprKind::kField:
      return a.state_.has(e->field) ? -1 : static_cast<int32_t>(e->field);
    case ir::ExprKind::kNot:
      return first_missing(e->lhs, a);
    default: {
      int32_t m = first_missing(e->lhs, a);
      if (m >= 0) return m;
      return e->rhs != nullptr ? first_missing(e->rhs, a) : -1;
    }
  }
}

uint64_t Device::eval_or_zero(ir::ExprRef e, ExecArena& a) const {
  auto v = ir::eval(e, a.state_);
  if (v) return *v;
  // Reading an uninitialized field on hardware yields whatever the PHV
  // container holds; zero is the deterministic simulator choice. The
  // coercion is counted and traced so divergences it causes are
  // attributable (not silent).
  if (obs::metrics_enabled()) {
    obs::metrics().counter("sim.eval_fallbacks").add();
  }
  note(a, TraceEventKind::kEvalFallback, -1, first_missing(e, a));
  return 0;
}

void Device::store(ir::FieldId f, uint64_t v, ExecArena& a) const {
  v = util::truncate(v, width_of(f));
  a.state_.set(f, v);
  if (f == prog_.overlap_writer && prog_.overlap_victim != ir::kInvalidField) {
    // Pragma-misuse fault (#15): the two fields share a container.
    a.state_.set(prog_.overlap_victim,
                 util::truncate(v, width_of(prog_.overlap_victim)));
  }
}

bool Device::parse(const DevInstance& inst, ExecArena& a) const {
  const uint8_t* data = a.wire_.data();
  const size_t nbits = a.wire_.size() * 8;
  size_t pos = 0;
  // Unchecked MSB-first extraction: bounds are validated once per header
  // (total_bits), not once per field.
  auto get_bits = [&](int width) noexcept {
    uint64_t v = 0;
    int left = width;
    int bit = static_cast<int>(pos % 8);
    if (bit != 0) {
      int take = 8 - bit < left ? 8 - bit : left;
      v = (data[pos / 8] >> (8 - bit - take)) & util::mask_bits(take);
      pos += static_cast<size_t>(take);
      left -= take;
    }
    while (left >= 8) {
      v = (v << 8) | data[pos / 8];
      pos += 8;
      left -= 8;
    }
    if (left > 0) {
      v = (v << left) | (data[pos / 8] >> (8 - left));
      pos += static_cast<size_t>(left);
    }
    return v;
  };
  int state = inst.start_state;
  while (state >= 0) {
    const DevParserState& s = inst.parser[static_cast<size_t>(state)];
    for (size_t hidx : s.extracts) {
      const HeaderLayout& lay = headers_[hidx];
      if (pos + lay.total_bits > nbits) {
        note(a, TraceEventKind::kParserShort, -1, state);
        return false;
      }
      for (size_t i = 0; i < lay.fields.size(); ++i) {
        a.state_.set(lay.fields[i], get_bits(lay.widths[i]));
      }
      a.state_.set(lay.validity, 1);
      note(a, TraceEventKind::kParseHeader, -1, static_cast<int32_t>(hidx));
    }
    int next = s.default_next;
    if (s.select != ir::kInvalidField) {
      uint64_t sval = a.state_.get(s.select);
      for (const DevTransition& t : s.cases) {
        if ((sval & t.mask) == (t.value & t.mask)) {
          next = t.next;
          break;
        }
      }
    }
    if (next == kReject) {
      note(a, TraceEventKind::kParserReject);
      return false;
    }
    state = next;
  }
  // Payload: bytes not consumed by the accepted parse. Kept as an offset
  // into wire_ (deparse appends it before recycling the buffer).
  util::check(pos % 8 == 0, "parser left unaligned position");
  a.payload_off_ = pos / 8;
  return true;
}

void Device::run_op(const DevOp& op, ExecArena& a) const {
  switch (op.kind) {
    case DevOp::Kind::kAssign: {
      uint64_t v = eval_or_zero(op.value, a);
      // Carry-leak fault (#11 analog): additions leak their carry into a
      // neighbouring container's low bit.
      if (prog_.carry_victim != ir::kInvalidField &&
          op.value != nullptr && op.value->kind == ir::ExprKind::kArith &&
          op.value->arith_op() == ir::ArithOp::kAdd) {
        uint64_t x = eval_or_zero(op.value->lhs, a);
        uint64_t y = eval_or_zero(op.value->rhs, a);
        int w = op.value->width;
        if (w < 64 && ((x + y) >> w) != 0) {
          ir::FieldId victim = prog_.carry_victim;
          a.state_.set(victim, a.state_.get(victim) ^ 1u);
        }
      }
      store(op.dest, v, a);
      break;
    }
    case DevOp::Kind::kHash: {
      a.hash_vals_.clear();
      a.hash_widths_.clear();
      for (ir::FieldId k : op.keys) {
        a.hash_vals_.push_back(a.state_.get(k));
        a.hash_widths_.push_back(width_of(k));
      }
      store(op.dest,
            p4::compute_hash(op.algo, a.hash_vals_, a.hash_widths_,
                             width_of(op.dest)),
            a);
      break;
    }
  }
}

void Device::apply_table(const DevInstance& inst, size_t table_idx,
                         ExecArena& a) const {
  const DevTable& t = inst.tables[table_idx];
  const std::vector<p4::MatchKind>& kinds =
      key_kinds_[static_cast<size_t>(a.cur_instance_)][table_idx];

  // The winner is picked by the explicit rule — longest prefix, then
  // priority, then install order (p4::entry_rank, the same rule that fixes
  // the symbolic engine's branch order).
  // Key fields are read once per table, not once per entry; the entries
  // were precompiled into PreMatch rows in entry_rank order at load, so
  // the scan is mask-compare only and the first hit IS the winner (a full
  // rank tie kept install order via the stable sort).
  const size_t nkeys = t.keys.size();
  a.key_vals_.clear();
  for (const DevKey& k : t.keys) a.key_vals_.push_back(a.state_.get(k.field));
  const size_t ii = static_cast<size_t>(a.cur_instance_);
  const std::vector<int32_t>& order = entry_order_[ii][table_idx];
  const PreMatch* pre = pre_matches_[ii][table_idx].data();

  const DevEntry* best = nullptr;
  int32_t best_idx = -1;
  for (size_t row = 0; row < order.size(); ++row, pre += nkeys) {
    bool hit = true;
    for (size_t i = 0; i < nkeys && hit; ++i) {
      const uint64_t v = a.key_vals_[i];
      if (kinds[i] == p4::MatchKind::kRange) {
        hit = v >= pre[i].value && v <= pre[i].mask;  // value/mask = lo/hi
      } else {
        hit = (v & pre[i].mask) == pre[i].value;
      }
    }
    if (hit) {
      best_idx = order[row];
      best = &t.entries[static_cast<size_t>(best_idx)];
      break;
    }
  }
  if (best != nullptr) {
    note(a, TraceEventKind::kTableHit, static_cast<int16_t>(table_idx),
         best_idx);
    for (const DevOp& op : best->ops) run_op(op, a);
    return;
  }
  note(a, TraceEventKind::kTableMiss, static_cast<int16_t>(table_idx));
  for (const DevOp& op : t.default_ops) run_op(op, a);
}

void Device::run_block(const DevInstance& inst, const DevControlBlock& b,
                       ExecArena& a) const {
  for (const DevControlStmt& s : b.stmts) {
    switch (s.kind) {
      case DevControlStmt::Kind::kApply:
        apply_table(inst, s.table, a);
        break;
      case DevControlStmt::Kind::kIf:
        if (eval_or_zero(s.cond, a) != 0) {
          run_block(inst, s.then_block, a);
        } else {
          run_block(inst, s.else_block, a);
        }
        break;
      case DevControlStmt::Kind::kOp:
        run_op(s.op, a);
        break;
    }
  }
}

void Device::deparse(const DevInstance& inst, ExecArena& a) const {
  const size_t ii = static_cast<size_t>(a.cur_instance_);
  for (size_t ci = 0; ci < inst.checksums.size(); ++ci) {
    const DevChecksum& c = inst.checksums[ci];
    if (a.state_.get(csum_guards_[ii][ci]) == 0) continue;
    a.hash_vals_.clear();
    a.hash_widths_.clear();
    for (ir::FieldId f : c.sources) {
      a.hash_vals_.push_back(a.state_.get(f));
      a.hash_widths_.push_back(width_of(f));
    }
    store(c.dest,
          p4::compute_hash(c.algo, a.hash_vals_, a.hash_widths_,
                           width_of(c.dest)),
          a);
    note(a, TraceEventKind::kChecksum, -1, static_cast<int32_t>(ci));
  }
  packet::BitWriter w;
  w.reset(std::move(a.emit_buf_));
  const std::vector<EmitSlot>& slots = emits_[ii];
  for (size_t si = 0; si < slots.size(); ++si) {
    if (a.state_.get(slots[si].validity) == 0) continue;
    const HeaderLayout& lay = headers_[static_cast<size_t>(slots[si].header)];
    for (size_t i = 0; i < lay.fields.size(); ++i) {
      w.put(a.state_.get(lay.fields[i]), lay.widths[i]);
    }
    note(a, TraceEventKind::kEmitHeader, -1, static_cast<int32_t>(si));
  }
  w.put_bytes(a.wire_.data() + a.payload_off_,
              a.wire_.size() - a.payload_off_);
  a.emit_buf_ = std::move(a.wire_);  // recycle the old wire capacity
  a.wire_ = std::move(w).take();
}

void Device::run_instance(const DevInstance& inst, ExecArena& a) const {
  // Fresh per-pipe view of header validity.
  for (const HeaderLayout& h : headers_) a.state_.set(h.validity, 0);
  if (!parse(inst, a)) {
    a.dropped_ = true;
    return;
  }
  run_block(inst, inst.control, a);
  if (a.state_.get(drop_fid_) != 0) {
    note(a, TraceEventKind::kDropped);
    a.dropped_ = true;
    return;
  }
  deparse(inst, a);
}

void Device::run_one(const DeviceInput& in, DeviceOutput& out, ExecArena& a) {
  a.begin_packet(ctx_.fields.size());
  if (a.coverage != nullptr) a.coverage->boundary();
  a.wire_.assign(in.bytes.begin(), in.bytes.end());
  // Installed register snapshot, then intrinsics & metadata.
  for (auto& [f, v] : registers_flat_) a.state_.set(f, v);
  a.state_.set(port_fid_, util::truncate(in.port, p4::kPortWidth));
  for (auto& [f, v] : metadata_init_) a.state_.set(f, v);
  a.state_.set(drop_fid_, 0);
  a.state_.set(egspec_fid_, 0);

  out.accepted = true;
  out.dropped = false;
  out.port = 0;
  out.bytes.clear();

  // Pick the entry point.
  int cur = -1;
  for (const DevEntryPoint& e : prog_.entries) {
    if (e.guard == nullptr || eval_or_zero(e.guard, a) != 0) {
      cur = e.instance;
      break;
    }
  }
  if (cur < 0) {
    out.accepted = false;
    out.trace.assign(a.trace_.begin(), a.trace_.end());
    return;
  }

  size_t hops = 0;
  while (cur >= 0) {
    util::check(++hops <= prog_.instances.size() + 1,
                "device: pipeline loop (unrolled topologies are acyclic)");
    a.cur_instance_ = static_cast<int16_t>(cur);
    run_instance(prog_.instances[static_cast<size_t>(cur)], a);
    if (a.dropped_) {
      out.dropped = true;
      out.trace.assign(a.trace_.begin(), a.trace_.end());
      return;
    }
    int next = -1;
    for (const DevEdge& e : prog_.edges) {
      if (e.from != cur) continue;
      if (e.guard == nullptr || eval_or_zero(e.guard, a) != 0) {
        next = e.to;
        break;
      }
    }
    cur = next;
  }
  out.dropped = false;
  out.port = a.state_.get(egspec_fid_);
  out.bytes.assign(a.wire_.begin(), a.wire_.end());
  out.trace.assign(a.trace_.begin(), a.trace_.end());
}

void Device::run_batch(std::span<const DeviceInput> in,
                       std::span<DeviceOutput> out, ExecArena& arena) {
  util::check(in.size() == out.size(), "run_batch: input/output size mismatch");
  for (size_t i = 0; i < in.size(); ++i) run_one(in[i], out[i], arena);
}

DeviceOutput Device::inject(const DeviceInput& in) {
  ExecArena arena;  // fresh per call: the per-packet baseline path
  DeviceOutput out;
  run_batch({&in, 1}, {&out, 1}, arena);
  return out;
}

std::string Device::event_to_string(const TraceEvent& ev) const {
  const DevInstance* inst =
      ev.instance >= 0 &&
              static_cast<size_t>(ev.instance) < prog_.instances.size()
          ? &prog_.instances[static_cast<size_t>(ev.instance)]
          : nullptr;
  const std::string who = inst != nullptr ? inst->name : "device";
  switch (ev.kind) {
    case TraceEventKind::kParseHeader:
      return who + ": parsed " +
             prog_.program.headers[static_cast<size_t>(ev.aux)].name;
    case TraceEventKind::kParserShort:
      return who + ": parser ran out of packet in " +
             inst->parser[static_cast<size_t>(ev.aux)].name;
    case TraceEventKind::kParserReject:
      return who + ": parser reject";
    case TraceEventKind::kTableHit: {
      const DevTable& t = inst->tables[static_cast<size_t>(ev.table)];
      return who + ": table " + t.name + " hit -> " +
             t.entries[static_cast<size_t>(ev.aux)].source.action;
    }
    case TraceEventKind::kTableMiss: {
      const DevTable& t = inst->tables[static_cast<size_t>(ev.table)];
      return who + ": table " + t.name + " miss -> " + t.default_action;
    }
    case TraceEventKind::kChecksum:
      return who + ": checksum update into " +
             ctx_.fields.name(
                 inst->checksums[static_cast<size_t>(ev.aux)].dest);
    case TraceEventKind::kEmitHeader:
      return who + ": emitted " + inst->emit_order[static_cast<size_t>(ev.aux)];
    case TraceEventKind::kDropped:
      return who + ": dropped";
    case TraceEventKind::kEvalFallback:
      return who + ": eval fallback -> 0 (" +
             (ev.aux >= 0 ? ctx_.fields.name(static_cast<ir::FieldId>(ev.aux))
                          : std::string("?")) +
             ")";
  }
  return who + ": ?";
}

std::vector<std::string> Device::render_trace(
    const std::vector<TraceEvent>& trace) const {
  std::vector<std::string> lines;
  lines.reserve(trace.size());
  for (const TraceEvent& ev : trace) lines.push_back(event_to_string(ev));
  return lines;
}

}  // namespace meissa::sim
