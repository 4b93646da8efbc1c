// Fuzzing front-end with three targets:
//
//   galaxy_fuzz [--target=diff|sql|faults|http|conn|wal] [--seed N]
//               [--runs N] [--max-seconds S] [--verbose]
//
//   diff    (default) drives every aggregate-skyline configuration against
//           the exhaustive oracle on adversarial generated datasets;
//   sql     feeds mutated SKYLINE OF statements through the full lexer ->
//           parser -> executor pipeline, asserting clean Status objects;
//   faults  injects cancellation / deadline / budget trips at randomized
//           comparison counts across the differential matrix and checks
//           the control-plane contract (bounded unwind, sound supersets);
//   http    feeds generated/mutated/garbage byte strings through the
//           serving layer's HTTP request parser, asserting round-trips on
//           valid requests and definite verdicts everywhere else;
//   conn    feeds pipelined request streams through the event engine's
//           per-connection state machine across randomized read-boundary
//           splits, asserting in-order extraction, no fabricated requests
//           from partial prefixes, and sticky poisoning after a framing
//           error;
//   wal     feeds clean/truncated/flipped/garbage log images through the
//           write-ahead-log decoder and full crash recovery, asserting the
//           decoder never accepts a record whose checksum failed and
//           recovery never refuses to start on a torn tail.
//
// Each run derives a per-dataset seed from the base seed, so any failure is
// replayable in isolation with --seed <dataset seed> --runs 1. On a
// divergence the input is shrunk to a local minimum (diff target) and
// printed as a ready-to-paste gtest case (see README "Correctness
// testing"); the process exits 1.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>

#include "common/rng.h"
#include "testing/http_fuzz.h"
#include "testing/wal_fuzz.h"
#include "testing/differential.h"
#include "testing/fault_injection.h"
#include "testing/oracle.h"
#include "testing/property_gen.h"
#include "testing/sql_fuzz.h"

#include "flags.h"

namespace {

using galaxy::tools::Flags;

struct FuzzOptions {
  std::string target;
  uint64_t seed = 0;
  uint64_t runs = 0;
  double max_seconds = 0.0;  // 0 = unbounded
  bool verbose = false;
};

void Usage() {
  std::fprintf(stderr,
               "usage: galaxy_fuzz [--target=diff|sql|faults|http|conn|wal] "
               "[--seed N] [--runs N] [--max-seconds S] [--verbose]\n");
}

// One-line diagnostic, then false, on an unknown flag, a malformed number
// or an unknown target.
bool ParseFlags(int argc, char** argv, FuzzOptions* options) {
  Flags flags(argc, argv, 1);
  if (!flags.ok() || !flags.CheckAllowed({"target", "seed", "runs",
                                          "max-seconds", "verbose"})) {
    std::fprintf(stderr, "%s\n", flags.error().c_str());
    return false;
  }
  auto seed = flags.GetInt("seed", 1);
  auto runs = flags.GetInt("runs", 1000);
  auto max_seconds = flags.GetDouble("max-seconds", 0.0);
  for (const galaxy::Status& status :
       {seed.status(), runs.status(), max_seconds.status()}) {
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.message().c_str());
      return false;
    }
  }
  options->target = flags.Get("target", "diff");
  options->seed = static_cast<uint64_t>(*seed);
  options->runs = static_cast<uint64_t>(*runs);
  options->max_seconds = *max_seconds;
  options->verbose = flags.Has("verbose");
  if (options->target != "diff" && options->target != "sql" &&
      options->target != "faults" && options->target != "http" &&
      options->target != "conn" && options->target != "wal") {
    std::fprintf(stderr, "unknown --target: %s\n", options->target.c_str());
    return false;
  }
  return true;
}

int RunSqlTarget(const FuzzOptions& options) {
  std::printf("galaxy_fuzz: target=sql seed=%llu runs=%llu\n",
              static_cast<unsigned long long>(options.seed),
              static_cast<unsigned long long>(options.runs));
  galaxy::testing::SqlFuzzStats stats;
  std::string detail = galaxy::testing::FuzzSql(
      options.seed, static_cast<int>(options.runs), &stats);
  std::printf(
      "galaxy_fuzz: %llu statements (%llu ok, %llu parse errors, %llu "
      "exec errors)\n",
      static_cast<unsigned long long>(stats.executed),
      static_cast<unsigned long long>(stats.ok),
      static_cast<unsigned long long>(stats.parse_errors),
      static_cast<unsigned long long>(stats.exec_errors));
  if (!detail.empty()) {
    std::printf("\nSQL FUZZ FAILURE: %s\n", detail.c_str());
    return 1;
  }
  std::printf("galaxy_fuzz: OK — every statement produced a clean Status\n");
  return 0;
}

int RunFaultsTarget(const FuzzOptions& options) {
  std::printf("galaxy_fuzz: target=faults seed=%llu runs=%llu\n",
              static_cast<unsigned long long>(options.seed),
              static_cast<unsigned long long>(options.runs));
  uint64_t points = 0;
  galaxy::testing::FaultDivergence divergence = galaxy::testing::FuzzFaults(
      options.seed, static_cast<int>(options.runs), &points);
  std::printf("galaxy_fuzz: %llu fault points checked\n",
              static_cast<unsigned long long>(points));
  if (divergence.found) {
    std::printf(
        "\nFAULT DIVERGENCE (dataset seed %llu, gamma %.17g)\n"
        "  config: %s\n  plan:   %s\n  detail: %s\n",
        static_cast<unsigned long long>(divergence.dataset_seed),
        divergence.gamma, divergence.config.Name().c_str(),
        divergence.plan.Name().c_str(), divergence.detail.c_str());
    return 1;
  }
  std::printf("galaxy_fuzz: OK — control-plane contract held everywhere\n");
  return 0;
}

int RunHttpTarget(const FuzzOptions& options) {
  std::printf("galaxy_fuzz: target=http seed=%llu runs=%llu\n",
              static_cast<unsigned long long>(options.seed),
              static_cast<unsigned long long>(options.runs));
  galaxy::server::HttpFuzzStats stats;
  std::string detail = galaxy::server::FuzzHttp(
      options.seed, static_cast<int>(options.runs), &stats);
  std::printf(
      "galaxy_fuzz: %llu inputs (%llu parsed, %llu incomplete, %llu "
      "rejected)\n",
      static_cast<unsigned long long>(stats.inputs),
      static_cast<unsigned long long>(stats.parsed),
      static_cast<unsigned long long>(stats.need_more),
      static_cast<unsigned long long>(stats.errors));
  if (!detail.empty()) {
    std::printf("\nHTTP FUZZ FAILURE: %s\n", detail.c_str());
    return 1;
  }
  std::printf("galaxy_fuzz: OK — the parser contract held everywhere\n");
  return 0;
}

int RunConnTarget(const FuzzOptions& options) {
  std::printf("galaxy_fuzz: target=conn seed=%llu runs=%llu\n",
              static_cast<unsigned long long>(options.seed),
              static_cast<unsigned long long>(options.runs));
  galaxy::server::ConnFuzzStats stats;
  std::string detail = galaxy::server::FuzzConnection(
      options.seed, static_cast<int>(options.runs), &stats);
  std::printf(
      "galaxy_fuzz: %llu streams in %llu chunks (%llu requests extracted, "
      "%llu poisoned)\n",
      static_cast<unsigned long long>(stats.streams),
      static_cast<unsigned long long>(stats.chunks),
      static_cast<unsigned long long>(stats.requests),
      static_cast<unsigned long long>(stats.poisoned));
  if (!detail.empty()) {
    std::printf("\nCONN FUZZ FAILURE: %s\n", detail.c_str());
    return 1;
  }
  std::printf(
      "galaxy_fuzz: OK — the connection state machine contract held "
      "everywhere\n");
  return 0;
}

int RunWalTarget(const FuzzOptions& options) {
  std::printf("galaxy_fuzz: target=wal seed=%llu runs=%llu\n",
              static_cast<unsigned long long>(options.seed),
              static_cast<unsigned long long>(options.runs));
  galaxy::storage::WalFuzzStats stats;
  std::string detail = galaxy::storage::FuzzWal(
      options.seed, static_cast<int>(options.runs), &stats);
  std::printf(
      "galaxy_fuzz: %llu log images (%llu records decoded, %llu torn tails, "
      "%llu recoveries)\n",
      static_cast<unsigned long long>(stats.inputs),
      static_cast<unsigned long long>(stats.records_decoded),
      static_cast<unsigned long long>(stats.torn_tails),
      static_cast<unsigned long long>(stats.recoveries));
  if (!detail.empty()) {
    std::printf("\nWAL FUZZ FAILURE: %s\n", detail.c_str());
    return 1;
  }
  std::printf(
      "galaxy_fuzz: OK — decode and recovery contracts held everywhere\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  FuzzOptions options;
  if (!ParseFlags(argc, argv, &options)) {
    Usage();
    return 2;
  }

  if (options.target == "sql") return RunSqlTarget(options);
  if (options.target == "faults") return RunFaultsTarget(options);
  if (options.target == "http") return RunHttpTarget(options);
  if (options.target == "conn") return RunConnTarget(options);
  if (options.target == "wal") return RunWalTarget(options);

  using Clock = std::chrono::steady_clock;
  const Clock::time_point start = Clock::now();
  auto elapsed = [&]() {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };

  const size_t num_configs = galaxy::testing::AllConfigurations().size();
  std::printf("galaxy_fuzz: seed=%llu runs=%llu configs=%zu\n",
              static_cast<unsigned long long>(options.seed),
              static_cast<unsigned long long>(options.runs), num_configs);

  uint64_t completed = 0;
  for (uint64_t run = 0; run < options.runs; ++run) {
    if (options.max_seconds > 0.0 && elapsed() >= options.max_seconds) {
      std::printf("galaxy_fuzz: time budget reached after %llu datasets\n",
                  static_cast<unsigned long long>(completed));
      break;
    }
    // Independent per-dataset seed: failures replay without re-running the
    // whole campaign.
    const uint64_t dataset_seed = options.seed + run * 0x9e3779b97f4a7c15ull;
    galaxy::Rng rng(dataset_seed);
    galaxy::testing::PointGroups points =
        galaxy::testing::GenerateAdversarialPoints(rng);
    const double gamma = galaxy::testing::PickAdversarialGamma(rng);
    galaxy::core::GroupedDataset dataset =
        galaxy::testing::PointsToDataset(points);

    if (options.verbose) {
      std::printf("  run %llu: seed=%llu groups=%zu dims=%zu gamma=%.12g\n",
                  static_cast<unsigned long long>(run),
                  static_cast<unsigned long long>(dataset_seed),
                  dataset.num_groups(), dataset.dims(), gamma);
    }

    galaxy::testing::Divergence divergence =
        galaxy::testing::CheckDataset(dataset, gamma);
    if (divergence.found) {
      std::printf(
          "\nDIVERGENCE at run %llu (dataset seed %llu, gamma %.17g)\n"
          "  config: %s\n  detail: %s\n\nshrinking...\n",
          static_cast<unsigned long long>(run),
          static_cast<unsigned long long>(dataset_seed), gamma,
          divergence.config.Name().c_str(), divergence.detail.c_str());
      galaxy::testing::Reproducer repro =
          galaxy::testing::Shrink(points, gamma, divergence.config);
      repro.dataset_seed = dataset_seed;
      std::printf("shrunk reproducer (%s):\n\n%s\n",
                  repro.detail.empty() ? "did not re-fail; unshrunk input"
                                       : repro.detail.c_str(),
                  galaxy::testing::ReproducerToCpp(repro).c_str());
      return 1;
    }
    ++completed;
  }

  std::printf("galaxy_fuzz: OK — %llu datasets, %.1fs, no divergence\n",
              static_cast<unsigned long long>(completed), elapsed());
  return 0;
}
