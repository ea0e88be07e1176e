#include "ir/field.hpp"

#include <algorithm>
#include <mutex>

namespace meissa::ir {

namespace {

FieldId checked(FieldId id, int have, std::string_view name, int width) {
  if (have != width) {
    throw util::ValidationError("field '" + std::string(name) +
                                "' re-declared with different width");
  }
  return id;
}

}  // namespace

FieldId FieldTable::intern(std::string_view name, int width) {
  util::check_width(width);
  {
    std::shared_lock<std::shared_mutex> lk(mu_);
    auto it = by_name_.find(name);
    if (it != by_name_.end()) {
      return checked(it->second, entries_[it->second].width, name, width);
    }
  }
  std::unique_lock<std::shared_mutex> lk(mu_);
  // Another thread may have inserted the name since the shared lock fell.
  auto it = by_name_.find(name);
  if (it != by_name_.end()) {
    return checked(it->second, entries_[it->second].width, name, width);
  }
  FieldId id = static_cast<FieldId>(entries_.size());
  entries_.push_back({std::string(name), width});
  by_name_.emplace(entries_.back().name, id);
  return id;
}

void FieldTable::sort_by_name(std::vector<FieldId>& fs) const {
  std::vector<std::pair<const std::string*, FieldId>> named;
  named.reserve(fs.size());
  {
    std::shared_lock<std::shared_mutex> lk(mu_);
    for (FieldId f : fs) named.emplace_back(&entries_.at(f).name, f);
  }
  std::sort(named.begin(), named.end(),
            [](const auto& a, const auto& b) { return *a.first < *b.first; });
  for (size_t i = 0; i < fs.size(); ++i) fs[i] = named[i].second;
}

FieldId FieldTable::find(std::string_view name) const {
  std::shared_lock<std::shared_mutex> lk(mu_);
  auto it = by_name_.find(name);
  return it == by_name_.end() ? kInvalidField : it->second;
}

FieldId FieldTable::require(std::string_view name) const {
  FieldId id = find(name);
  if (id == kInvalidField) {
    throw util::ValidationError("unknown field '" + std::string(name) + "'");
  }
  return id;
}

}  // namespace meissa::ir
