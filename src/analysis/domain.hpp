// Abstract value domains for the static-analysis pass (no solver).
//
// Data-plane predicates are overwhelmingly conjunctions of single-field
// atoms — exact/ternary matches, range checks, validity guards, and
// negations of higher-priority entries. The atoms and their decomposer,
// `smt::decompose_conjunction`, live in smt/domain.hpp next to
// `smt::Domain`, the exact per-field domain of the solver's fast path and
// `PathEnv`. `ValueRange` is the per-field abstract value the dataflow
// pass joins and refines with those atoms: an unsigned interval plus
// known bits plus a small exclusion list, or an exact value bitmap for
// narrow fields (<= 6 bits).
#pragma once

#include <cstdint>
#include <vector>

#include "ir/expr.hpp"
#include "smt/domain.hpp"

namespace meissa::analysis {

enum class Ternary : uint8_t { kFalse, kTrue, kUnknown };

// Abstract set of values of one `width`-bit field.
class ValueRange {
 public:
  explicit ValueRange(int width);
  static ValueRange constant(uint64_t v, int width);

  int width() const noexcept { return width_; }
  bool is_bottom() const noexcept;           // provably empty
  bool is_top() const noexcept;              // no information
  bool is_constant(uint64_t& v) const noexcept;

  // Least upper bound; returns true when *this widened.
  bool join(const ValueRange& o);
  // Meet with one atom (greatest lower bound approximation).
  void refine(const smt::Atom& a);
  // Three-valued truth of `a` over every value in this set. Sound in both
  // directions for any over-approximation: kTrue means every concrete
  // value satisfies `a`, kFalse means none does.
  Ternary eval(const smt::Atom& a) const;

 private:
  static constexpr int kSmallWidth = 6;  // exact bitmap up to 64 values
  static constexpr size_t kMaxExcluded = 8;

  bool small() const noexcept { return width_ <= kSmallWidth; }
  uint64_t full_mask() const noexcept;

  int width_;
  // Narrow fields: bit v of `bitmap_` set <=> value v possible.
  uint64_t bitmap_ = 0;
  // Wide fields: interval + known bits + excluded (mask, value) pairs.
  uint64_t lo_ = 0;
  uint64_t hi_ = 0;
  uint64_t known_mask_ = 0;
  uint64_t known_val_ = 0;
  std::vector<std::pair<uint64_t, uint64_t>> excluded_;
};

}  // namespace meissa::analysis
