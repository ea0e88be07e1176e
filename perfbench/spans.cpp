#include "spans.hpp"

#include <cstdio>

namespace perfbench {

SpanRecorder::Scope::Scope(SpanRecorder& rec, const char* layer) {
  if (rec.enabled_) {
    rec_ = &rec;
    index_ = rec.open(layer, false);
  }
}

SpanRecorder::Scope::Scope(SpanRecorder& rec, const std::string& unit_label,
                           bool /*unit*/) {
  if (rec.enabled_) {
    rec_ = &rec;
    rec.unit_labels_.push_back(unit_label);
    index_ = rec.open("unit", true);
  }
}

SpanRecorder::Scope::~Scope() {
  if (rec_ != nullptr) rec_->close(index_);
}

int SpanRecorder::open(const char* name, bool new_unit) {
  SpanRecord s;
  s.name = name;
  s.parent = new_unit || stack_.empty() ? -1 : stack_.back();
  // A unit's id is its label's index; a layer span joins its parent's unit.
  s.unit = s.parent >= 0 ? spans_[s.parent].unit
           : unit_labels_.empty()
               ? 0
               : static_cast<uint32_t>(unit_labels_.size() - 1);
  s.start = now();
  spans_.push_back(s);
  stack_.push_back(static_cast<int>(spans_.size()) - 1);
  return stack_.back();
}

void SpanRecorder::close(int index) {
  spans_[index].end = now();
  stack_.pop_back();
}

std::map<std::string, LayerTotals> SpanRecorder::layer_totals() const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const SpanRecord& s : spans_) {
    if (s.parent >= 0) child[s.parent] += s.end - s.start;
  }
  std::map<std::string, LayerTotals> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    if (s.parent < 0) continue;
    LayerTotals& t = out[s.name];
    ++t.calls;
    t.total_s += s.end - s.start;
    t.self_s += s.end - s.start - child[i];
  }
  return out;
}

double SpanRecorder::covered_since(double from) const {
  double sum = 0;
  for (const SpanRecord& s : spans_) {
    if (s.parent >= 0 && spans_[s.parent].parent < 0 && s.start >= from) {
      sum += s.end - s.start;
    }
  }
  return sum;
}

double SpanRecorder::unit_seconds() const {
  double sum = 0;
  for (const SpanRecord& s : spans_) {
    if (s.parent < 0) sum += s.end - s.start;
  }
  return sum;
}

bool SpanRecorder::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"units\":[");
  for (size_t i = 0; i < unit_labels_.size(); ++i) {
    std::fprintf(f, "%s\"%s\"", i == 0 ? "" : ",", unit_labels_[i].c_str());
  }
  std::fprintf(f, "],\"spans\":[");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"id\":%zu,\"name\":\"%s\",\"unit\":%u,\"parent\":%d,"
                 "\"start_us\":%.3f,\"end_us\":%.3f}",
                 i == 0 ? "" : ",", i, s.name, s.unit, s.parent,
                 s.start * 1e6, s.end * 1e6);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
