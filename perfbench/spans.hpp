// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded by the benchmark itself, around its own calls into
// each layer's public entry point; the library is not instrumented. Each
// span has a name, a start, an end and a parent; every span of one unit
// (one program, one update or one scenario) carries that unit's id. The
// recorder is single-threaded: layers may run worker threads internally,
// but they are always entered from the benchmark's main thread.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct SpanRecord {
  const char* name = "";  // layer name; "unit" for a unit's root span
  double start = 0;       // seconds since the recorder was created
  double end = 0;
  int parent = -1;  // index of the enclosing span; -1 for a unit root
  uint32_t unit = 0;
};

struct LayerTotals {
  uint64_t calls = 0;
  double total_s = 0;
  double self_s = 0;  // total minus the time covered by child spans
};

class SpanRecorder {
 public:
  // A disabled recorder records nothing; its scopes cost one branch.
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  double now() const { return seconds_since(origin_); }

  // RAII span. A unit scope opens a new unit and is its root span; a layer
  // scope nests under the innermost open span, which is a unit's root or
  // another layer span of that unit.
  class Scope {
   public:
    Scope(SpanRecorder& rec, const char* layer);
    Scope(SpanRecorder& rec, const std::string& unit_label, bool /*unit*/);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* rec_ = nullptr;
    int index_ = -1;
  };

  // Per-layer call count, total and self time over every recorded span
  // except unit roots.
  std::map<std::string, LayerTotals> layer_totals() const;
  // Summed duration of the layer spans that sit directly under a unit root
  // and start at or after `from` (seconds on the recorder's clock).
  double covered_since(double from) const;
  // Wall time of all unit roots together.
  double unit_seconds() const;

  // Writes every span as JSON. Returns false when the file cannot be
  // written.
  bool write_json(const std::string& path) const;

 private:
  int open(const char* name, bool new_unit);
  void close(int index);

  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<SpanRecord> spans_;
  std::vector<std::string> unit_labels_;
  std::vector<int> stack_;
};

}  // namespace perfbench
