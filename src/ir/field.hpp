// Header-field variables (the `field_id` of the paper's CFG syntax, Fig. 3).
//
// Every variable a data-plane program reads or writes — packet header
// fields, per-pipeline header validity bits, intrinsic metadata, registers
// with constant indices (modeled as `REG:<name>-POS:<i>` per paper §4) —
// is interned into a FieldTable and referenced by a dense FieldId.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/bits.hpp"
#include "util/error.hpp"

namespace meissa::ir {

using FieldId = uint32_t;
inline constexpr FieldId kInvalidField = ~FieldId{0};

// Interning table mapping field names to ids and recording bit widths.
// Field names follow the dotted convention of the paper: "hdr.ipv4.dst_addr",
// "pkt.ig_port", "hdr.ipv4.$valid@ingress0".
//
// Thread safety: concurrent intern/lookup is safe (reader-writer lock; a
// name already interned is found under the shared lock, and only an insert
// takes the exclusive one; entries live in a deque so references returned
// by name() stay valid across later interns). Ids are dense and assigned
// in intern order — with concurrent interning the *numbering* is
// scheduling-dependent, so nothing user-visible may depend on numeric id
// order (sort by name instead).
class FieldTable {
 public:
  // Interns `name` with the given bit width. Re-interning an existing name
  // with the same width returns the existing id; a different width throws.
  FieldId intern(std::string_view name, int width);

  // Returns the id for `name`, or kInvalidField when absent.
  FieldId find(std::string_view name) const;

  // Like find(), but throws ValidationError when absent.
  FieldId require(std::string_view name) const;

  // Orders `fs` by name, looking each name up once under one lock (a
  // comparator calling name() would take the lock twice per comparison).
  void sort_by_name(std::vector<FieldId>& fs) const;

  const std::string& name(FieldId id) const {
    std::shared_lock<std::shared_mutex> lk(mu_);
    return entries_.at(id).name;
  }
  int width(FieldId id) const {
    std::shared_lock<std::shared_mutex> lk(mu_);
    return entries_.at(id).width;
  }
  size_t size() const {
    std::shared_lock<std::shared_mutex> lk(mu_);
    return entries_.size();
  }

 private:
  struct Entry {
    std::string name;
    int width;
  };
  // Transparent hashing: lookups by string_view build no std::string.
  struct NameHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };
  mutable std::shared_mutex mu_;
  std::deque<Entry> entries_;  // stable addresses for name() references
  std::unordered_map<std::string, FieldId, NameHash, std::equal_to<>> by_name_;
};

}  // namespace meissa::ir
