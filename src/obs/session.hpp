// One run's observability, shared by the m4* tools and the benches: the
// `--metrics FILE` / `--trace FILE` pair. Construction turns the metrics
// registry on and starts span collection for the files asked for;
// finish() stops tracing and writes them. With both names empty a
// Session is inert and the run's output is unchanged.
#pragma once

#include <string>

namespace meissa::obs {

class Session {
 public:
  // `tool` prefixes the diagnostics; an empty file name leaves that half
  // off.
  Session(std::string tool, std::string metrics_file, std::string trace_file);
  // Finishes a session that finish() has not, ignoring the result.
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // Stops tracing and writes the trace, then the metrics snapshot. Each
  // failed write prints "<tool>: cannot write trace to '<file>'" (or
  // "metrics") and makes the result false. Later calls write nothing and
  // return true.
  bool finish();

 private:
  std::string tool_;
  std::string metrics_file_;
  std::string trace_file_;
  bool finished_ = false;
};

}  // namespace meissa::obs
