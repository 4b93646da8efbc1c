// Microbenchmark of the dominance-counting kernels (core/count_kernel.h):
// raw CountBlock throughput against the scalar per-pair loop across
// dimensionalities and distributions, and ClassifyPair on each side of its
// kernel rule (d = 4 tiles, d = 6 runs the sorted kernel). Emits a
// machine-readable JSON report (default BENCH_kernel.json) whose speedup
// ratios — not absolute times — feed the CI regression gate
// (scripts/check_bench_regression.py); ratios compare two code paths on
// the same machine and stay stable across hardware.
//
// Usage: kernel_microbench [--quick] [--out=PATH]
//   --quick   smaller workloads and shorter timing windows (CI smoke mode)
//   --out     report path; "-" suppresses the file

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/count_kernel.h"
#include "core/gamma.h"
#include "core/group.h"
#include "skyline/dominance.h"

namespace galaxy::bench {
namespace {

uint64_t g_sink = 0;  // defeats dead-code elimination across timed calls

// Rows drawn from the paper's record distributions, MAX-oriented in [0,1].
std::vector<double> MakeRows(Rng& rng, size_t n, size_t dims, bool anti) {
  std::vector<double> rows(n * dims);
  for (size_t i = 0; i < n; ++i) {
    if (anti) {
      // Anti-correlated: points near the hyperplane sum(x) = d/2.
      double remaining = static_cast<double>(dims) / 2.0;
      for (size_t k = 0; k + 1 < dims; ++k) {
        double v = rng.Uniform(0.0, 1.0);
        rows[i * dims + k] = v;
        remaining -= v;
      }
      double last = remaining + rng.Uniform(-0.1, 0.1);
      rows[i * dims + dims - 1] = std::min(1.0, std::max(0.0, last));
    } else {
      for (size_t k = 0; k < dims; ++k) {
        rows[i * dims + k] = rng.NextDouble();
      }
    }
  }
  return rows;
}

// The pre-kernel hot loop: one span-based CompareDominance per pair.
uint64_t ScalarCountPairs(const double* rows1, size_t n1, const double* rows2,
                          size_t n2, size_t dims) {
  uint64_t n12 = 0, n21 = 0;
  for (size_t i = 0; i < n1; ++i) {
    std::span<const double> a{rows1 + i * dims, dims};
    for (size_t j = 0; j < n2; ++j) {
      skyline::DominanceResult cmp =
          skyline::CompareDominance(a, {rows2 + j * dims, dims});
      if (cmp == skyline::DominanceResult::kLeftDominates) {
        ++n12;
      } else if (cmp == skyline::DominanceResult::kRightDominates) {
        ++n21;
      }
    }
  }
  return n12 * 1000003u + n21;
}

// Mean seconds per call: warm up once, then repeat until the window fills.
template <typename F>
double TimeOp(F&& op, double min_seconds) {
  op();
  WallTimer timer;
  int reps = 0;
  do {
    op();
    ++reps;
  } while (timer.ElapsedSeconds() < min_seconds);
  return timer.ElapsedSeconds() / reps;
}

void PrintEntry(const BenchJsonEntry& entry) {
  std::printf("%-32s", entry.name.c_str());
  for (const auto& [key, value] : entry.metrics) {
    std::printf("  %s=%.4g", key.c_str(), value);
  }
  std::printf("\n");
}

}  // namespace

int Main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_kernel.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--out=PATH]\n", argv[0]);
      return 2;
    }
  }

  const double window = quick ? 0.05 : 0.3;
  std::vector<BenchJsonEntry> entries;
  Rng rng(42);

  // ---- Raw block-counting throughput vs the scalar loop. -----------------
  const size_t block_n = quick ? 256 : 1024;
  const std::vector<size_t> dims_list =
      quick ? std::vector<size_t>{2, 4}
            : std::vector<size_t>{2, 3, 4, 5, 6, 7, 8};
  for (bool anti : {false, true}) {
    if (quick && anti) break;
    for (size_t dims : dims_list) {
      std::vector<double> rows1 = MakeRows(rng, block_n, dims, anti);
      std::vector<double> rows2 = MakeRows(rng, block_n, dims, anti);
      const double pairs = static_cast<double>(block_n) * block_n;
      double scalar_s = TimeOp(
          [&] {
            g_sink +=
                ScalarCountPairs(rows1.data(), block_n, rows2.data(),
                                 block_n, dims);
          },
          window);
      double kernel_s = TimeOp(
          [&] {
            core::kernel::KernelCounts c = core::kernel::CountBlock(
                rows1.data(), block_n, rows2.data(), block_n, dims);
            g_sink += c.n12 * 1000003u + c.n21;
          },
          window);
      BenchJsonEntry e;
      e.name = "count_block_d" + std::to_string(dims) +
               (anti ? "_anti" : "_indep");
      e.metrics.emplace_back("pairs_per_sec", pairs / kernel_s);
      e.metrics.emplace_back("scalar_pairs_per_sec", pairs / scalar_s);
      e.metrics.emplace_back("speedup", scalar_s / kernel_s);
      PrintEntry(e);
      entries.push_back(std::move(e));
    }
  }

  // ---- ClassifyPair on each side of the kernel rule (stop rule on). -----
  // The entry name carries the kernel the rule chose.
  for (size_t dims : {4u, 6u}) {
    const size_t k = quick ? 1000 : 4000;
    core::Group g1(0, "a", MakeRows(rng, k, dims, false), dims);
    core::Group g2(1, "b", MakeRows(rng, k, dims, false), dims);
    core::GammaThresholds thresholds =
        core::GammaThresholds::FromGamma(0.8);
    core::PairCompareStats stats;
    double s = TimeOp(
        [&] {
          stats = core::PairCompareStats{};
          core::PairOutcome outcome = core::ClassifyPair(
              g1, g2, thresholds, core::PairCompareOptions{}, &stats);
          g_sink += static_cast<uint64_t>(outcome);
        },
        window);
    BenchJsonEntry e;
    e.name = "classify_pair_d" + std::to_string(dims) + "_" +
             core::KernelPolicyToString(stats.kernel_used);
    e.metrics.emplace_back("seconds_per_call", s);
    e.metrics.emplace_back("record_comparisons",
                           static_cast<double>(stats.record_comparisons));
    PrintEntry(e);
    entries.push_back(std::move(e));
  }

  if (out_path != "-") {
    if (!WriteBenchJson(out_path, "galaxy-kernel-bench-v1", quick, entries)) {
      std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
      return 1;
    }
    std::printf("report written to %s\n", out_path.c_str());
  }
  // The sink must survive to keep every timed call observable.
  std::printf("checksum %llu\n", static_cast<unsigned long long>(g_sink));
  return 0;
}

}  // namespace galaxy::bench

int main(int argc, char** argv) { return galaxy::bench::Main(argc, argv); }
