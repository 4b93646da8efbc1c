#pragma once

// Metric names and units, sample statistics, and the result of one run.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Printed with --trace 0: what a user of the system sees.
extern const std::vector<MetricSpec> kEndToEndMetrics;
/// Printed with --trace 1: one layer's time or work each, from the traced
/// run. A layer a workload never reaches reports 0.
extern const std::vector<MetricSpec> kPerLayerMetrics;

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> values;
  std::vector<std::string> problems;  ///< failed answer checks
  std::string attribution;            ///< traced run: markdown table

  void Fail(const std::string& problem) {
    correct = false;
    problems.push_back(problem);
  }
};

/// Nearest-rank percentile (q in [0, 1]); 0 for an empty sample. Sorts.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// Peak resident set size of this process in MiB.
double PeakRssMb();

/// Latency of a failed request in the percentiles: later than any real
/// answer (JSON has no infinity).
inline constexpr double kFailedLatencyMs = 1e9;

}  // namespace perfbench
