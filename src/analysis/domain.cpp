#include "analysis/domain.hpp"

#include <algorithm>

#include "util/bits.hpp"

namespace meissa::analysis {

using ir::CmpOp;

// ---------------------------------------------------------------- ValueRange

ValueRange::ValueRange(int width) : width_(width) {
  if (small()) {
    bitmap_ = util::mask_bits(1 << width);
  } else {
    hi_ = util::mask_bits(width);
  }
}

ValueRange ValueRange::constant(uint64_t v, int width) {
  ValueRange r(width);
  v = util::truncate(v, width);
  if (r.small()) {
    r.bitmap_ = uint64_t{1} << v;
  } else {
    r.lo_ = r.hi_ = v;
    r.known_mask_ = r.full_mask();
    r.known_val_ = v;
  }
  return r;
}

uint64_t ValueRange::full_mask() const noexcept {
  return util::mask_bits(width_);
}

bool ValueRange::is_bottom() const noexcept {
  if (small()) return bitmap_ == 0;
  return lo_ > hi_;
}

bool ValueRange::is_top() const noexcept {
  if (small()) return bitmap_ == util::mask_bits(1 << width_);
  return lo_ == 0 && hi_ == full_mask() && known_mask_ == 0 &&
         excluded_.empty();
}

bool ValueRange::is_constant(uint64_t& v) const noexcept {
  if (small()) {
    if (bitmap_ != 0 && (bitmap_ & (bitmap_ - 1)) == 0) {
      v = static_cast<uint64_t>(__builtin_ctzll(bitmap_));
      return true;
    }
    return false;
  }
  if (is_bottom()) return false;
  if (lo_ == hi_) {
    v = lo_;
    return true;
  }
  if (known_mask_ == full_mask()) {
    v = known_val_;
    return true;
  }
  return false;
}

bool ValueRange::join(const ValueRange& o) {
  if (o.is_bottom()) return false;
  if (is_bottom()) {
    *this = o;
    return true;
  }
  if (small()) {
    const uint64_t merged = bitmap_ | o.bitmap_;
    const bool changed = merged != bitmap_;
    bitmap_ = merged;
    return changed;
  }
  bool changed = false;
  if (o.lo_ < lo_) { lo_ = o.lo_; changed = true; }
  if (o.hi_ > hi_) { hi_ = o.hi_; changed = true; }
  const uint64_t agree =
      known_mask_ & o.known_mask_ & ~(known_val_ ^ o.known_val_);
  if (agree != known_mask_) {
    known_mask_ = agree;
    known_val_ &= agree;
    changed = true;
  }
  if (!excluded_.empty()) {
    auto kept = excluded_;
    kept.erase(std::remove_if(kept.begin(), kept.end(),
                              [&](const std::pair<uint64_t, uint64_t>& p) {
                                return std::find(o.excluded_.begin(),
                                                 o.excluded_.end(),
                                                 p) == o.excluded_.end();
                              }),
               kept.end());
    if (kept.size() != excluded_.size()) {
      excluded_ = std::move(kept);
      changed = true;
    }
  }
  return changed;
}

void ValueRange::refine(const smt::Atom& a) {
  if (small()) {
    uint64_t kept = 0;
    for (uint64_t v = 0; v < (uint64_t{1} << width_); ++v) {
      if ((bitmap_ >> v) & 1) {
        if (smt::atom_holds(v, a)) kept |= uint64_t{1} << v;
      }
    }
    bitmap_ = kept;
    return;
  }
  if (!a.set.empty()) {
    // Interval hull of the membership set.
    lo_ = std::max(lo_, a.set.front().lo);
    hi_ = std::min(hi_, a.set.back().hi);
    return;
  }
  const bool exact = a.is_exact_mask();
  switch (a.op) {
    case CmpOp::kEq:
      if ((known_val_ ^ a.value) & a.mask & known_mask_) {
        lo_ = 1;
        hi_ = 0;  // bit conflict: empty
        return;
      }
      known_val_ = (known_val_ & ~a.mask) | a.value;
      known_mask_ |= a.mask;
      if (exact) {
        lo_ = std::max(lo_, a.value);
        hi_ = std::min(hi_, a.value);
      }
      break;
    case CmpOp::kNe:
      if (exact && lo_ == hi_ && lo_ == a.value) {
        lo_ = 1;
        hi_ = 0;
        return;
      }
      if (exact && a.value == lo_ && lo_ < hi_) {
        ++lo_;
      } else if (exact && a.value == hi_ && lo_ < hi_) {
        --hi_;
      } else if (excluded_.size() < kMaxExcluded) {
        const std::pair<uint64_t, uint64_t> p{a.mask, a.value};
        if (std::find(excluded_.begin(), excluded_.end(), p) ==
            excluded_.end()) {
          excluded_.push_back(p);
        }
      }
      break;
    case CmpOp::kLt:
      if (a.value == 0) {
        lo_ = 1;
        hi_ = 0;
      } else {
        hi_ = std::min(hi_, a.value - 1);
      }
      break;
    case CmpOp::kLe:
      hi_ = std::min(hi_, a.value);
      break;
    case CmpOp::kGt:
      if (a.value == full_mask()) {
        lo_ = 1;
        hi_ = 0;
      } else {
        lo_ = std::max(lo_, a.value + 1);
      }
      break;
    case CmpOp::kGe:
      lo_ = std::max(lo_, a.value);
      break;
  }
  if (lo_ > hi_) return;
  // Fully-known value: collapse the interval and check exclusions.
  if (known_mask_ == full_mask()) {
    if (known_val_ < lo_ || known_val_ > hi_) {
      lo_ = 1;
      hi_ = 0;
      return;
    }
    lo_ = hi_ = known_val_;
    for (const auto& [m, v] : excluded_) {
      if ((known_val_ & m) == v) {
        lo_ = 1;
        hi_ = 0;
        return;
      }
    }
  }
}

Ternary ValueRange::eval(const smt::Atom& a) const {
  if (is_bottom()) return Ternary::kUnknown;  // unreachable state: no claim
  if (small()) {
    bool any = false;
    bool all = true;
    for (uint64_t v = 0; v < (uint64_t{1} << width_); ++v) {
      if ((bitmap_ >> v) & 1) {
        if (smt::atom_holds(v, a)) {
          any = true;
        } else {
          all = false;
        }
      }
    }
    if (all) return Ternary::kTrue;
    if (!any) return Ternary::kFalse;
    return Ternary::kUnknown;
  }
  auto plausible = [&](uint64_t v) {
    if (v < lo_ || v > hi_) return false;
    if ((v & known_mask_) != known_val_) return false;
    for (const auto& [m, ev] : excluded_) {
      if ((v & m) == ev) return false;
    }
    return true;
  };
  uint64_t c = 0;
  if (is_constant(c)) {
    return smt::atom_holds(c, a) ? Ternary::kTrue : Ternary::kFalse;
  }
  if (hi_ - lo_ < 256) {
    bool any = false;
    bool all = true;
    for (uint64_t v = lo_;; ++v) {
      if (plausible(v)) {
        if (smt::atom_holds(v, a)) {
          any = true;
        } else {
          all = false;
        }
      }
      if (v == hi_) break;
    }
    if (any && all) return Ternary::kTrue;
    if (!any) return Ternary::kFalse;
    return Ternary::kUnknown;
  }
  if (!a.set.empty()) {
    // A member interval of up to 256 values is checked value by value;
    // a wider one that overlaps [lo_, hi_] may hold a plausible value.
    for (size_t k = 0; k < a.set.size(); ++k) {
      const smt::Interval i = a.set[k];
      if (i.hi - i.lo >= 256) {
        if (i.lo <= hi_ && lo_ <= i.hi) return Ternary::kUnknown;
        continue;
      }
      for (uint64_t s = i.lo;; ++s) {
        if (plausible(s)) return Ternary::kUnknown;
        if (s == i.hi) break;
      }
    }
    return Ternary::kFalse;
  }
  switch (a.op) {
    case CmpOp::kEq: {
      if ((a.value ^ known_val_) & a.mask & known_mask_) return Ternary::kFalse;
      if ((a.mask & ~known_mask_) == 0) return Ternary::kTrue;
      if (a.is_exact_mask() && !plausible(a.value)) return Ternary::kFalse;
      return Ternary::kUnknown;
    }
    case CmpOp::kNe: {
      if ((a.value ^ known_val_) & a.mask & known_mask_) return Ternary::kTrue;
      if ((a.mask & ~known_mask_) == 0) return Ternary::kFalse;
      for (const auto& [m, v] : excluded_) {
        if (m == a.mask && v == a.value) return Ternary::kTrue;
      }
      return Ternary::kUnknown;
    }
    case CmpOp::kLt:
      if (hi_ < a.value) return Ternary::kTrue;
      if (lo_ >= a.value) return Ternary::kFalse;
      return Ternary::kUnknown;
    case CmpOp::kLe:
      if (hi_ <= a.value) return Ternary::kTrue;
      if (lo_ > a.value) return Ternary::kFalse;
      return Ternary::kUnknown;
    case CmpOp::kGt:
      if (lo_ > a.value) return Ternary::kTrue;
      if (hi_ <= a.value) return Ternary::kFalse;
      return Ternary::kUnknown;
    case CmpOp::kGe:
      if (lo_ >= a.value) return Ternary::kTrue;
      if (hi_ < a.value) return Ternary::kFalse;
      return Ternary::kUnknown;
  }
  return Ternary::kUnknown;
}

}  // namespace meissa::analysis
