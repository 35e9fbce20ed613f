// The benchmark's workloads. Each returns its metrics and fills the
// operation accounting; `correct` is false when any output check failed.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "util.h"

namespace servebench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string necd;     ///< path of the necd binary
  std::string out_dir;  ///< logs and the span trace go here
};

struct RunResult {
  bool correct = false;
  Accounting acct;
  std::vector<Metric> metrics;
  std::map<std::string, double> detail;  ///< printed on the detail line
};

/// End-to-end workloads (untraced).
RunResult RunInprocSaturated(const RunArgs& args);
RunResult RunFleetPaced(const RunArgs& args);
RunResult RunFleetChurn(const RunArgs& args);

/// The traced per-layer walk (same for every workload name).
RunResult RunLayerWalk(const RunArgs& args);

}  // namespace servebench
