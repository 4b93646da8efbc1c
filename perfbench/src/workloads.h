#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "report.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  /// false: the served (untraced) run, end-to-end metrics. true: the same
  /// served run followed by a traced replay of the request stream through
  /// each layer's entry points, per-layer metrics.
  bool trace = false;
  /// Directory for data directories and trace files.
  std::string work_dir = ".";
};

const std::vector<std::string>& WorkloadNames();

/// Runs one workload: set-up, served run, answer checks and, with
/// `trace`, the traced replay.
RunResult RunWorkload(const Options& options);

}  // namespace perfbench
