// galaxy_perfbench: runs one benchmark workload against the galaxy
// libraries and prints its metrics as one JSON object on the last line of
// standard output. Usually started through perfbench/run.py, which builds
// it first.
//
//   galaxy_perfbench --workload skyline_cold --seed 1 --seconds 20
//                    --trace 0 [--work-dir DIR] [--revision REV]
//                    [--attribution-out FILE]
//
// With --trace 1 the traced run's attribution table (where an uncached
// query spends its time) goes to standard error, or to FILE.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "report.h"
#include "workloads.h"

namespace {

int Usage(const char* error) {
  std::fprintf(stderr,
               "galaxy_perfbench: %s\nusage: galaxy_perfbench --workload "
               "NAME --seed N --seconds S --trace 0|1 [--work-dir DIR] "
               "[--revision REV] [--attribution-out FILE]\n",
               error);
  return 2;
}

std::string JsonNumber(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  std::string revision = "unknown";
  std::string attribution_out;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage("--seed must be an integer");
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0)) {
        return Usage("--seconds must be positive");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace must be 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--revision") {
      revision = value;
    } else if (flag == "--attribution-out") {
      attribution_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  bool known = false;
  for (const std::string& name : perfbench::WorkloadNames()) {
    known = known || name == options.workload;
  }
  if (!have_workload || !known) return Usage("unknown or missing --workload");
  std::error_code ignored;
  std::filesystem::create_directories(options.work_dir, ignored);

  // Run metadata: absolute numbers only mean something next to these.
  std::printf(
      "{\"meta\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"hardware_threads\": %u, \"build_type\": \"%s\", "
      "\"compiler\": \"%s\", \"fsync_policy\": \"interval\", "
      "\"revision\": \"%s\"}}\n",
      options.workload.c_str(), static_cast<unsigned long long>(options.seed),
      JsonNumber(options.seconds).c_str(), options.trace ? 1 : 0,
      std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
      PERFBENCH_COMPILER, revision.c_str());
  std::fflush(stdout);

  // The workload runs on a thread of its own, like the server's workers,
  // so the replayed calls allocate from a thread arena as they do there.
  perfbench::RunResult result;
  std::thread runner([&] { result = perfbench::RunWorkload(options); });
  runner.join();

  const auto& specs = options.trace ? perfbench::kPerLayerMetrics
                                    : perfbench::kEndToEndMetrics;
  std::string metrics;
  for (const perfbench::MetricSpec& spec : specs) {
    auto it = result.values.find(spec.name);
    if (result.correct && it == result.values.end()) {
      result.Fail(std::string("metric not measured: ") + spec.name);
    }
    const double value = it == result.values.end() ? 0.0 : it->second;
    if (!std::isfinite(value)) {
      result.Fail(std::string("metric not finite: ") + spec.name);
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + std::string(spec.name) + "\": {\"value\": " +
               JsonNumber(std::isfinite(value) ? value : 0.0) +
               ", \"unit\": \"" + spec.unit + "\"}";
  }
  for (const std::string& problem : result.problems) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", problem.c_str());
  }
  if (!result.attribution.empty()) {
    std::FILE* out = attribution_out.empty()
                         ? stderr
                         : std::fopen(attribution_out.c_str(), "w");
    if (out == nullptr) {
      result.Fail("cannot write " + attribution_out);
    } else {
      std::fprintf(out, "%s\n", result.attribution.c_str());
      if (out != stderr) std::fclose(out);
    }
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      result.correct ? "true" : "false",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed), metrics.c_str());
  return 0;
}
