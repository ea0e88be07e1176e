#include "obs/session.hpp"

#include <cstdio>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace meissa::obs {

Session::Session(std::string tool, std::string metrics_file,
                 std::string trace_file)
    : tool_(std::move(tool)),
      metrics_file_(std::move(metrics_file)),
      trace_file_(std::move(trace_file)) {
  if (!metrics_file_.empty()) MetricsRegistry::set_enabled(true);
  if (!trace_file_.empty()) trace_start();
}

Session::~Session() { finish(); }

bool Session::finish() {
  if (finished_) return true;
  finished_ = true;
  bool ok = true;
  if (!trace_file_.empty()) {
    trace_stop();
    if (!write_trace_file(trace_file_)) {
      std::fprintf(stderr, "%s: cannot write trace to '%s'\n", tool_.c_str(),
                   trace_file_.c_str());
      ok = false;
    }
  }
  if (!metrics_file_.empty() && !write_metrics_file(metrics_file_)) {
    std::fprintf(stderr, "%s: cannot write metrics to '%s'\n", tool_.c_str(),
                 metrics_file_.c_str());
    ok = false;
  }
  return ok;
}

}  // namespace meissa::obs
