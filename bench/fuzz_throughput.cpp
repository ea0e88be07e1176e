// Throughput of the batched execution core vs the legacy per-packet path,
// on the programs the fuzz lane actually hammers (gw-1 and gw-4). One JSON
// line per (program, variant):
//
//   per_packet         the pre-refactor execution model (ported verbatim
//                      from the seed's src/sim/device.cpp): map-backed
//                      ExecState rebuilt per packet, per-packet field
//                      interning, eager string traces, bit-at-a-time wire
//                      I/O — the baseline the ISSUE's >=5x criterion is
//                      measured against
//   per_packet_arena   inject() + render_trace — the refactored core run
//                      one packet at a time (fresh arena per call) with
//                      traces still rendered to strings
//   per_packet_events  inject() only — typed events, rendering deferred
//   batched_trace      run_batch, trace collection on
//   batched_no_trace   run_batch, trace collection off (fuzz hot loop)
//   batched_coverage   run_batch, trace off + coverage map on (greybox)
//
// Before timing anything, the bench cross-checks the legacy interpreter
// against Device::inject on a prefix of the inputs (verdict, port, bytes,
// and rendered trace lines must all agree), so the baseline provably runs
// the same semantics, just with the old cost structure.
//
// Usage: fuzz_throughput [--inputs N] [--seconds S] [--metrics FILE]
//                        [--trace FILE]
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "fuzz/mutator.hpp"
#include "ir/expr.hpp"
#include "sim/coverage.hpp"
#include "sim/device.hpp"
#include "util/bits.hpp"
#include "util/error.hpp"

namespace {

using namespace meissa;

constexpr size_t kBatch = 64;

// Sink so outputs are observably consumed in every variant.
uint64_t g_sink = 0;

void consume(const sim::DeviceOutput& out) {
  g_sink += out.port + out.bytes.size() + (out.dropped ? 1 : 0) +
            out.trace.size();
}

std::vector<sim::DeviceInput> make_inputs(const p4::DataPlane& dp,
                                          const p4::RuleSet& rules,
                                          size_t n) {
  fuzz::Mutator mut(dp, rules);
  util::Rng rng(0xf00du);
  std::vector<sim::DeviceInput> ins;
  ins.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    sim::DeviceInput in = mut.random_packet(rng);
    if (i % 2 == 1) mut.mutate(in, rng);
    ins.push_back(std::move(in));
  }
  return ins;
}

// ---------------------------------------------------------------------------
// The legacy per-packet interpreter: the pre-refactor Device::inject, ported
// from the seed revision of src/sim/device.cpp (and packet/wire.cpp) against
// the same public DeviceProgram structures. Everything that made it slow is
// kept on purpose — std::unordered_map field state, ctx.fields.intern() name
// building on the hot path, std::string trace lines, bit-at-a-time wire I/O,
// full-scan table matching ranked at lookup time — because that cost model
// is what "per-packet baseline" means here.
namespace legacy {

constexpr uint64_t kGarbage = 0xdeadbeefcafef00dull;

class BitWriter {
 public:
  void put(uint64_t v, int width) {
    util::check_width(width);
    v = util::truncate(v, width);
    for (int i = width - 1; i >= 0; --i) {
      if (bit_pos_ == 0) data_.push_back(0);
      if (util::bit_at(v, i)) {
        data_.back() |= static_cast<uint8_t>(1u << (7 - bit_pos_));
      }
      bit_pos_ = (bit_pos_ + 1) % 8;
    }
  }
  void put_bytes(const std::vector<uint8_t>& bytes) {
    util::check(bit_pos_ == 0, "put_bytes: not byte aligned");
    data_.insert(data_.end(), bytes.begin(), bytes.end());
  }
  std::vector<uint8_t> take() && { return std::move(data_); }

 private:
  std::vector<uint8_t> data_;
  int bit_pos_ = 0;
};

class BitReader {
 public:
  explicit BitReader(const std::vector<uint8_t>& data) : data_(data) {}
  std::optional<uint64_t> get(int width) {
    util::check_width(width);
    if (pos_ + static_cast<size_t>(width) > data_.size() * 8) {
      return std::nullopt;
    }
    uint64_t v = 0;
    for (int i = 0; i < width; ++i) {
      size_t byte = pos_ / 8;
      int bit = static_cast<int>(pos_ % 8);
      v = (v << 1) | ((data_[byte] >> (7 - bit)) & 1u);
      ++pos_;
    }
    return v;
  }
  size_t bit_position() const { return pos_; }

 private:
  const std::vector<uint8_t>& data_;
  size_t pos_ = 0;
};

struct ExecState {
  ir::ConcreteState fields;
  std::vector<uint8_t> wire;
  std::vector<uint8_t> payload;
  bool dropped = false;
  std::vector<std::string> trace;
};

struct Output {
  bool accepted = true;
  bool dropped = false;
  uint64_t port = 0;
  std::vector<uint8_t> bytes;
  std::vector<std::string> trace;
};

class Device {
 public:
  Device(sim::DeviceProgram prog, ir::Context& ctx)
      : prog_(std::move(prog)), ctx_(ctx) {}

  Output inject(const sim::DeviceInput& in);

 private:
  uint64_t eval_or_zero(ir::ExprRef e, const ir::ConcreteState& s) const {
    return ir::eval(e, s).value_or(0);
  }

  void store(ir::FieldId f, uint64_t v, ExecState& st) const {
    v = util::truncate(v, ctx_.fields.width(f));
    st.fields[f] = v;
    if (f == prog_.overlap_writer &&
        prog_.overlap_victim != ir::kInvalidField) {
      st.fields[prog_.overlap_victim] =
          util::truncate(v, ctx_.fields.width(prog_.overlap_victim));
    }
  }

  bool parse(const sim::DevInstance& inst, ExecState& st) const;
  void run_op(const sim::DevOp& op, ExecState& st) const;
  void apply_table(const sim::DevInstance& inst, const sim::DevTable& t,
                   ExecState& st) const;
  void run_block(const sim::DevInstance& inst, const sim::DevControlBlock& b,
                 ExecState& st) const;
  void deparse(const sim::DevInstance& inst, ExecState& st) const;
  void run_instance(const sim::DevInstance& inst, ExecState& st) const;

  sim::DeviceProgram prog_;
  ir::Context& ctx_;
  ir::ConcreteState registers_;
};

bool Device::parse(const sim::DevInstance& inst, ExecState& st) const {
  BitReader r(st.wire);
  int state = inst.start_state;
  while (state >= 0) {
    const sim::DevParserState& s = inst.parser[static_cast<size_t>(state)];
    for (size_t hidx : s.extracts) {
      const p4::HeaderDef& def = prog_.program.headers[hidx];
      for (const p4::FieldDef& f : def.fields) {
        auto v = r.get(f.width);
        if (!v) {
          st.trace.push_back(inst.name + ": parser ran out of packet in " +
                             s.name);
          return false;
        }
        ir::FieldId fid =
            ctx_.fields.intern(p4::content_field(def.name, f.name), f.width);
        st.fields[fid] = *v;
      }
      ir::FieldId vf = ctx_.fields.intern(p4::validity_field(def.name), 1);
      st.fields[vf] = 1;
      st.trace.push_back(inst.name + ": parsed " + def.name);
    }
    int next = s.default_next;
    if (s.select != ir::kInvalidField) {
      auto sel = st.fields.find(s.select);
      uint64_t sval = sel == st.fields.end() ? 0 : sel->second;
      for (const sim::DevTransition& t : s.cases) {
        if ((sval & t.mask) == (t.value & t.mask)) {
          next = t.next;
          break;
        }
      }
    }
    if (next == sim::kReject) {
      st.trace.push_back(inst.name + ": parser reject");
      return false;
    }
    state = next;
  }
  size_t consumed_bits = r.bit_position();
  util::check(consumed_bits % 8 == 0, "parser left unaligned position");
  st.payload.assign(st.wire.begin() + static_cast<long>(consumed_bits / 8),
                    st.wire.end());
  return true;
}

void Device::run_op(const sim::DevOp& op, ExecState& st) const {
  switch (op.kind) {
    case sim::DevOp::Kind::kAssign: {
      uint64_t v = eval_or_zero(op.value, st.fields);
      if (prog_.carry_victim != ir::kInvalidField && op.value != nullptr &&
          op.value->kind == ir::ExprKind::kArith &&
          op.value->arith_op() == ir::ArithOp::kAdd) {
        uint64_t a = eval_or_zero(op.value->lhs, st.fields);
        uint64_t b = eval_or_zero(op.value->rhs, st.fields);
        int w = op.value->width;
        if (w < 64 && ((a + b) >> w) != 0) {
          ir::FieldId victim = prog_.carry_victim;
          uint64_t old = st.fields.count(victim) ? st.fields[victim] : 0;
          st.fields[victim] = old ^ 1u;
        }
      }
      store(op.dest, v, st);
      break;
    }
    case sim::DevOp::Kind::kHash: {
      std::vector<uint64_t> kv;
      std::vector<int> kw;
      for (ir::FieldId k : op.keys) {
        kv.push_back(st.fields.count(k) ? st.fields.at(k) : 0);
        kw.push_back(ctx_.fields.width(k));
      }
      store(op.dest,
            p4::compute_hash(op.algo, kv, kw, ctx_.fields.width(op.dest)),
            st);
      break;
    }
  }
}

void Device::apply_table(const sim::DevInstance& inst, const sim::DevTable& t,
                         ExecState& st) const {
  std::vector<p4::MatchKind> kinds;
  kinds.reserve(t.keys.size());
  for (const sim::DevKey& k : t.keys) kinds.push_back(k.kind);

  const sim::DevEntry* best = nullptr;
  for (const sim::DevEntry& e : t.entries) {
    bool hit = true;
    for (size_t i = 0; i < t.keys.size() && hit; ++i) {
      const sim::DevKey& k = t.keys[i];
      uint64_t v = st.fields.count(k.field) ? st.fields.at(k.field) : 0;
      const p4::KeyMatch& m = e.matches[i];
      switch (k.kind) {
        case p4::MatchKind::kExact:
          hit = v == m.value;
          break;
        case p4::MatchKind::kTernary:
          hit = (v & m.mask) == (m.value & m.mask);
          break;
        case p4::MatchKind::kLpm: {
          uint64_t mask =
              m.prefix_len <= 0
                  ? 0
                  : util::mask_bits(k.width) ^
                        util::mask_bits(std::max(0, k.width - m.prefix_len));
          hit = (v & mask) == (m.value & mask);
          break;
        }
        case p4::MatchKind::kRange:
          hit = v >= m.lo && v <= m.hi;
          break;
      }
    }
    if (hit && (best == nullptr ||
                p4::entry_rank(kinds, e.source, best->source) < 0)) {
      best = &e;
    }
  }
  if (best != nullptr) {
    st.trace.push_back(inst.name + ": table " + t.name + " hit -> " +
                       best->source.action);
    for (const sim::DevOp& op : best->ops) run_op(op, st);
    return;
  }
  st.trace.push_back(inst.name + ": table " + t.name + " miss -> " +
                     t.default_action);
  for (const sim::DevOp& op : t.default_ops) run_op(op, st);
}

void Device::run_block(const sim::DevInstance& inst,
                       const sim::DevControlBlock& b, ExecState& st) const {
  for (const sim::DevControlStmt& s : b.stmts) {
    switch (s.kind) {
      case sim::DevControlStmt::Kind::kApply:
        apply_table(inst, inst.tables[s.table], st);
        break;
      case sim::DevControlStmt::Kind::kIf:
        if (eval_or_zero(s.cond, st.fields) != 0) {
          run_block(inst, s.then_block, st);
        } else {
          run_block(inst, s.else_block, st);
        }
        break;
      case sim::DevControlStmt::Kind::kOp:
        run_op(s.op, st);
        break;
    }
  }
}

void Device::deparse(const sim::DevInstance& inst, ExecState& st) const {
  for (const sim::DevChecksum& c : inst.checksums) {
    ir::FieldId guard =
        ctx_.fields.intern(p4::validity_field(c.guard_header), 1);
    if (!st.fields.count(guard) || st.fields.at(guard) == 0) continue;
    std::vector<uint64_t> kv;
    std::vector<int> kw;
    for (ir::FieldId f : c.sources) {
      kv.push_back(st.fields.count(f) ? st.fields.at(f) : 0);
      kw.push_back(ctx_.fields.width(f));
    }
    store(c.dest, p4::compute_hash(c.algo, kv, kw, ctx_.fields.width(c.dest)),
          st);
    st.trace.push_back(inst.name + ": checksum update into " +
                       ctx_.fields.name(c.dest));
  }
  BitWriter w;
  for (const std::string& hname : inst.emit_order) {
    ir::FieldId vf = ctx_.fields.intern(p4::validity_field(hname), 1);
    if (!st.fields.count(vf) || st.fields.at(vf) == 0) continue;
    const p4::HeaderDef* def = prog_.program.find_header(hname);
    for (const p4::FieldDef& f : def->fields) {
      ir::FieldId fid =
          ctx_.fields.intern(p4::content_field(hname, f.name), f.width);
      w.put(st.fields.count(fid) ? st.fields.at(fid) : 0, f.width);
    }
    st.trace.push_back(inst.name + ": emitted " + hname);
  }
  w.put_bytes(st.payload);
  st.wire = std::move(w).take();
}

void Device::run_instance(const sim::DevInstance& inst, ExecState& st) const {
  for (const p4::HeaderDef& h : prog_.program.headers) {
    st.fields[ctx_.fields.intern(p4::validity_field(h.name), 1)] = 0;
  }
  if (!parse(inst, st)) {
    st.dropped = true;
    return;
  }
  run_block(inst, inst.control, st);
  ir::FieldId drop = ctx_.fields.intern(std::string(p4::kDropFlag), 1);
  if (st.fields.count(drop) && st.fields.at(drop) != 0) {
    st.trace.push_back(inst.name + ": dropped");
    st.dropped = true;
    return;
  }
  deparse(inst, st);
}

Output Device::inject(const sim::DeviceInput& in) {
  ExecState st;
  st.wire = in.bytes;
  st.fields = registers_;

  st.fields[ctx_.fields.intern(std::string(p4::kIngressPort),
                               p4::kPortWidth)] =
      util::truncate(in.port, p4::kPortWidth);
  for (const p4::FieldDef& m : prog_.program.metadata) {
    uint64_t v = prog_.zero_metadata ? 0 : util::truncate(kGarbage, m.width);
    st.fields[ctx_.fields.intern(m.name, m.width)] = v;
  }
  st.fields[ctx_.fields.intern(std::string(p4::kDropFlag), 1)] = 0;
  st.fields[ctx_.fields.intern(std::string(p4::kEgressSpec),
                               p4::kPortWidth)] = 0;

  Output out;
  int cur = -1;
  for (const sim::DevEntryPoint& e : prog_.entries) {
    if (e.guard == nullptr || eval_or_zero(e.guard, st.fields) != 0) {
      cur = e.instance;
      break;
    }
  }
  if (cur < 0) {
    out.accepted = false;
    return out;
  }

  size_t hops = 0;
  while (cur >= 0) {
    util::check(++hops <= prog_.instances.size() + 1,
                "legacy device: pipeline loop");
    const sim::DevInstance& inst = prog_.instances[static_cast<size_t>(cur)];
    run_instance(inst, st);
    if (st.dropped) {
      out.dropped = true;
      out.trace = std::move(st.trace);
      return out;
    }
    int next = -1;
    for (const sim::DevEdge& e : prog_.edges) {
      if (e.from != cur) continue;
      if (e.guard == nullptr || eval_or_zero(e.guard, st.fields) != 0) {
        next = e.to;
        break;
      }
    }
    cur = next;
  }
  out.dropped = false;
  out.port = st.fields.at(
      ctx_.fields.intern(std::string(p4::kEgressSpec), p4::kPortWidth));
  out.bytes = std::move(st.wire);
  out.trace = std::move(st.trace);
  return out;
}

}  // namespace legacy

// Asserts the ported legacy interpreter and the refactored core agree on
// verdict, egress, bytes, and trace lines for the first packets — the
// baseline must be a different cost model of the *same* semantics, or the
// speedup number is meaningless. kEvalFallback events are excluded from
// the comparison: they are new-core diagnostics with no legacy line.
void cross_check(legacy::Device& old, sim::Device& device,
                 const std::vector<sim::DeviceInput>& ins, size_t limit) {
  for (size_t i = 0; i < std::min(limit, ins.size()); ++i) {
    legacy::Output a = old.inject(ins[i]);
    sim::DeviceOutput b = device.inject(ins[i]);
    util::check(a.accepted == b.accepted && a.dropped == b.dropped,
                "legacy cross-check: verdict mismatch");
    if (!a.dropped && a.accepted) {
      util::check(a.port == b.port, "legacy cross-check: port mismatch");
      util::check(a.bytes == b.bytes, "legacy cross-check: bytes mismatch");
    }
    std::vector<sim::TraceEvent> ev;
    for (const sim::TraceEvent& e : b.trace) {
      if (e.kind != sim::TraceEventKind::kEvalFallback) ev.push_back(e);
    }
    util::check(a.trace == device.render_trace(ev),
                "legacy cross-check: trace mismatch");
  }
}

struct Row {
  std::string variant;
  uint64_t execs = 0;
  double seconds = 0;
  double execs_per_sec = 0;
};

// Runs `pass` (one full sweep over the inputs, returning executions done)
// once for warm-up, then repeatedly until `min_seconds` of timed work.
template <typename Pass>
Row measure(const char* variant, double min_seconds, Pass&& pass) {
  pass();  // warm-up (and arena right-sizing)
  Row row;
  row.variant = variant;
  bench::Timer t;
  do {
    row.execs += pass();
    row.seconds = t.elapsed();
  } while (row.seconds < min_seconds);
  row.execs_per_sec = static_cast<double>(row.execs) / row.seconds;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  auto obs = bench::observe(argc, argv);
  const size_t n_inputs =
      bench::parse_numeric_arg<size_t>(argc, argv, "--inputs", 512);
  const double min_seconds =
      bench::parse_numeric_arg(argc, argv, "--seconds", 0.5);

  for (const std::string& name : {std::string("gw-1"), std::string("gw-4")}) {
    ir::Context ctx;
    apps::AppBundle app = bench::make_program(ctx, name);
    sim::DeviceProgram prog = sim::compile(app.dp, app.rules, ctx);
    legacy::Device old(prog, ctx);  // copies; device takes the original
    sim::Device device(std::move(prog), ctx);
    std::vector<sim::DeviceInput> ins =
        make_inputs(app.dp, app.rules, n_inputs);
    cross_check(old, device, ins, 64);

    std::vector<Row> rows;
    rows.push_back(measure("per_packet", min_seconds, [&] {
      for (const sim::DeviceInput& in : ins) {
        legacy::Output out = old.inject(in);
        g_sink += out.port + out.bytes.size() + (out.dropped ? 1 : 0);
        for (const std::string& line : out.trace) g_sink += line.size();
      }
      return ins.size();
    }));
    rows.push_back(measure("per_packet_arena", min_seconds, [&] {
      for (const sim::DeviceInput& in : ins) {
        sim::DeviceOutput out = device.inject(in);
        for (const std::string& line : device.render_trace(out.trace)) {
          g_sink += line.size();
        }
        consume(out);
      }
      return ins.size();
    }));
    rows.push_back(measure("per_packet_events", min_seconds, [&] {
      for (const sim::DeviceInput& in : ins) consume(device.inject(in));
      return ins.size();
    }));

    std::vector<sim::DeviceOutput> outs(kBatch);
    auto batched_pass = [&](sim::ExecArena& arena) {
      for (size_t base = 0; base < ins.size(); base += kBatch) {
        size_t n = std::min(kBatch, ins.size() - base);
        device.run_batch({ins.data() + base, n}, {outs.data(), n}, arena);
        for (size_t i = 0; i < n; ++i) consume(outs[i]);
      }
      return ins.size();
    };
    {
      sim::ExecArena arena;
      rows.push_back(measure("batched_trace", min_seconds,
                             [&] { return batched_pass(arena); }));
    }
    {
      sim::ExecArena arena;
      arena.collect_trace = false;
      rows.push_back(measure("batched_no_trace", min_seconds,
                             [&] { return batched_pass(arena); }));
    }
    {
      sim::ExecArena arena;
      arena.collect_trace = false;
      sim::CoverageMap cov;
      arena.coverage = &cov;
      rows.push_back(measure("batched_coverage", min_seconds,
                             [&] { return batched_pass(arena); }));
    }

    const double baseline = rows[0].execs_per_sec;
    for (const Row& r : rows) {
      std::printf(
          "{\"program\":\"%s\",\"variant\":\"%s\",\"execs\":%llu,"
          "\"seconds\":%.4f,\"execs_per_sec\":%.0f,"
          "\"speedup_vs_per_packet\":%.2f}\n",
          name.c_str(), r.variant.c_str(),
          static_cast<unsigned long long>(r.execs), r.seconds,
          r.execs_per_sec, r.execs_per_sec / baseline);
    }
  }
  if (g_sink == 0x5eed) std::fprintf(stderr, "sink\n");
  return 0;
}
