// galaxy_cli — command-line front end for the galaxy library.
//
//   galaxy_cli query    --csv data.csv --sql "SELECT ..." [--table data]
//                       [--timeout-ms N] [--max-comparisons N] [--strict]
//   galaxy_cli skyline  --csv data.csv --group-by col --attrs a,b[,c...]
//                       [--gamma 0.5] [--algorithm NL|TR|SI|IN|LO|BF|AUTO]
//                       (AUTO, the default, is the configuration
//                       GROUP BY … SKYLINE OF serves: exact safe-mode IN)
//                       [--rank] [--representatives K]
//                       [--timeout-ms N] [--max-comparisons N] [--strict]
//   galaxy_cli generate --type imdb|nba|grouped --out out.csv
//                       [--records N] [--seed S]
//
// --timeout-ms / --max-comparisons bound the run through the execution
// control plane; by default an interrupted skyline degrades to a sound
// over-approximation (reported as "# quality: approximate-superset"),
// while --strict turns any trip into a non-zero-exit error instead.
//
// Exit status: 0 on success, 1 on execution errors, 2 on usage errors
// (unknown flag, malformed number, out-of-range gamma).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/str_util.h"
#include "core/aggregate_skyline.h"
#include "core/exec_context.h"
#include "core/representative.h"
#include "datagen/groups.h"
#include "datagen/imdb_gen.h"
#include "nba/nba_gen.h"
#include "relation/csv.h"
#include "sql/catalog.h"
#include "sql/executor.h"

namespace {

using galaxy::Status;
using galaxy::Table;

// Minimal --flag value parser; flags may appear in any order. Numeric
// accessors parse strictly (whole string must be a number) and fail with a
// usage error instead of throwing.
class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) == 0) {
        std::string name = arg.substr(2);
        if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
          values_[name] = argv[++i];
        } else {
          values_[name] = "true";  // boolean flag
        }
      } else {
        error_ = "unexpected argument: " + arg;
        return;
      }
    }
  }

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }

  /// One-line diagnostic + exit 2 on a flag not in `allowed`.
  bool CheckAllowed(std::initializer_list<const char*> allowed) {
    std::set<std::string> names(allowed.begin(), allowed.end());
    for (const auto& [name, value] : values_) {
      if (names.count(name) == 0) {
        error_ = "unknown flag: --" + name;
        return false;
      }
    }
    return true;
  }

  bool Has(const std::string& name) const { return values_.count(name) > 0; }
  std::string Get(const std::string& name,
                  const std::string& fallback = "") const {
    auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
  }

  galaxy::Result<double> GetDouble(const std::string& name,
                                   double fallback) const {
    if (!Has(name)) return fallback;
    const std::string& text = values_.at(name);
    char* end = nullptr;
    errno = 0;
    double v = std::strtod(text.c_str(), &end);
    if (errno != 0 || end != text.c_str() + text.size() || text.empty()) {
      return Status::InvalidArgument("--" + name +
                                     " expects a number, got: " + text);
    }
    return v;
  }

  galaxy::Result<int64_t> GetInt(const std::string& name,
                                 int64_t fallback) const {
    if (!Has(name)) return fallback;
    const std::string& text = values_.at(name);
    char* end = nullptr;
    errno = 0;
    long long v = std::strtoll(text.c_str(), &end, 10);
    if (errno != 0 || end != text.c_str() + text.size() || text.empty()) {
      return Status::InvalidArgument("--" + name +
                                     " expects an integer, got: " + text);
    }
    return static_cast<int64_t>(v);
  }

 private:
  std::map<std::string, std::string> values_;
  std::string error_;
};

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int UsageError(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 2;
}

int Usage() {
  std::fprintf(stderr,
               "usage: galaxy_cli <query|skyline|generate> "
               "[--flags]\n(see the header of tools/galaxy_cli.cpp)\n");
  return 2;
}

galaxy::Result<Table> LoadCsv(const Flags& flags) {
  if (!flags.Has("csv")) {
    return Status::InvalidArgument("--csv FILE is required");
  }
  return galaxy::ReadCsvFile(flags.Get("csv"));
}

// Shared --timeout-ms / --max-comparisons / --strict handling. Parsing is
// split from arming so the deadline clock starts right before execution,
// not while the CSV is still loading.
struct ControlPlaneFlags {
  int64_t timeout_ms = 0;
  int64_t max_comparisons = 0;
  bool allow_approximate = true;

  // Returns the configured context, or null when no bound was requested
  // (keeping the null-exec fast path active).
  galaxy::core::ExecutionContext* Arm(
      galaxy::core::ExecutionContext* storage) const {
    galaxy::core::ExecutionContext* exec = nullptr;
    if (timeout_ms > 0) {
      storage->set_timeout(std::chrono::milliseconds(timeout_ms));
      exec = storage;
    }
    if (max_comparisons > 0) {
      storage->set_max_comparisons(static_cast<uint64_t>(max_comparisons));
      exec = storage;
    }
    return exec;
  }
};

galaxy::Result<ControlPlaneFlags> ParseControlPlane(const Flags& flags) {
  ControlPlaneFlags out;
  GALAXY_ASSIGN_OR_RETURN(out.timeout_ms, flags.GetInt("timeout-ms", 0));
  GALAXY_ASSIGN_OR_RETURN(out.max_comparisons,
                          flags.GetInt("max-comparisons", 0));
  if (out.timeout_ms < 0) {
    return Status::InvalidArgument("--timeout-ms must be non-negative");
  }
  if (out.max_comparisons < 0) {
    return Status::InvalidArgument("--max-comparisons must be non-negative");
  }
  out.allow_approximate = !flags.Has("strict");
  return out;
}

int RunQuery(Flags& flags) {
  if (!flags.CheckAllowed({"csv", "sql", "table", "timeout-ms",
                           "max-comparisons", "strict"})) {
    return UsageError(flags.error());
  }
  auto table = LoadCsv(flags);
  if (!table.ok()) return Fail(table.status());
  if (!flags.Has("sql")) {
    return Fail(Status::InvalidArgument("--sql \"SELECT ...\" is required"));
  }
  auto control = ParseControlPlane(flags);
  if (!control.ok()) return UsageError(control.status().message());

  galaxy::sql::Database db;
  db.Register(flags.Get("table", "data"), *table);

  galaxy::core::ExecutionContext exec_storage;
  galaxy::sql::ExecOptions exec_options;
  exec_options.exec = control->Arm(&exec_storage);
  exec_options.allow_approximate = control->allow_approximate;

  galaxy::sql::ExecStats stats;
  auto result = db.Query(flags.Get("sql"), exec_options, &stats);
  if (!result.ok()) return Fail(result.status());
  std::printf("%s", result->ToString(/*max_rows=*/1000).c_str());
  std::printf("(%zu rows)\n", result->num_rows());
  if (exec_options.exec != nullptr) {
    std::printf("# quality: %s\n",
                galaxy::core::ResultQualityToString(stats.skyline_quality));
  }
  return 0;
}

galaxy::Result<galaxy::core::Algorithm> ParseAlgorithm(
    const std::string& name) {
  std::string upper = galaxy::AsciiUpper(name);
  if (upper == "BF") return galaxy::core::Algorithm::kBruteForce;
  if (upper == "NL") return galaxy::core::Algorithm::kNestedLoop;
  if (upper == "TR") return galaxy::core::Algorithm::kTransitive;
  if (upper == "SI") return galaxy::core::Algorithm::kSorted;
  if (upper == "IN") return galaxy::core::Algorithm::kIndexed;
  if (upper == "LO") return galaxy::core::Algorithm::kIndexedBbox;
  if (upper == "AUTO") return galaxy::core::Algorithm::kAuto;
  return Status::InvalidArgument("unknown algorithm: " + name);
}

galaxy::Result<galaxy::core::GroupedDataset> BuildGrouping(
    const Flags& flags, const Table& table) {
  if (!flags.Has("group-by") || !flags.Has("attrs")) {
    return Status::InvalidArgument(
        "--group-by COL and --attrs a,b[,c...] are required");
  }
  std::vector<std::string> group_cols =
      galaxy::StrSplit(flags.Get("group-by"), ',');
  std::vector<std::string> attrs = galaxy::StrSplit(flags.Get("attrs"), ',');
  // Attributes prefixed with '-' are minimized.
  galaxy::skyline::PreferenceList prefs;
  for (std::string& a : attrs) {
    if (!a.empty() && a[0] == '-') {
      prefs.push_back(galaxy::skyline::Preference::kMin);
      a = a.substr(1);
    } else {
      prefs.push_back(galaxy::skyline::Preference::kMax);
    }
  }
  return galaxy::core::GroupedDataset::FromTable(table, group_cols, attrs,
                                                 prefs);
}

int RunSkyline(Flags& flags) {
  if (!flags.CheckAllowed({"csv", "group-by", "attrs", "gamma", "algorithm",
                           "rank", "representatives", "timeout-ms",
                           "max-comparisons", "strict"})) {
    return UsageError(flags.error());
  }
  // Validate all flag values before touching the filesystem so a bad
  // --gamma is a usage error even when the CSV is also bad.
  galaxy::core::AggregateSkylineOptions options;
  auto gamma = flags.GetDouble("gamma", 0.5);
  if (!gamma.ok()) return UsageError(gamma.status().message());
  if (*gamma < 0.5 || *gamma > 1.0) {
    return UsageError("--gamma must be in [0.5, 1], got " +
                      flags.Get("gamma"));
  }
  options.gamma = *gamma;
  auto algorithm = ParseAlgorithm(flags.Get("algorithm", "AUTO"));
  if (!algorithm.ok()) return UsageError(algorithm.status().message());
  options.algorithm = *algorithm;

  auto control = ParseControlPlane(flags);
  if (!control.ok()) return UsageError(control.status().message());
  options.allow_approximate = control->allow_approximate;

  auto table = LoadCsv(flags);
  if (!table.ok()) return Fail(table.status());
  auto dataset = BuildGrouping(flags, *table);
  if (!dataset.ok()) return Fail(dataset.status());

  // Arm the deadline only now: CSV parsing must not eat the budget.
  galaxy::core::ExecutionContext exec_storage;
  options.exec = control->Arm(&exec_storage);

  auto bounded = galaxy::core::ComputeAggregateSkylineBounded(*dataset,
                                                              options);
  if (!bounded.ok()) return Fail(bounded.status());
  const galaxy::core::AggregateSkylineResult& result = *bounded;
  std::printf("# %zu groups, gamma=%.3f, algorithm=%s\n",
              dataset->num_groups(), options.gamma,
              galaxy::core::AlgorithmToString(result.algorithm_used));
  if (options.exec != nullptr) {
    std::printf("# quality: %s\n",
                galaxy::core::ResultQualityToString(result.quality));
  }
  std::printf("# skyline size: %zu\n", result.skyline.size());
  for (const std::string& label : result.Labels(*dataset)) {
    std::printf("%s\n", label.c_str());
  }

  if (flags.Has("rank")) {
    std::printf("\n# groups ranked by minimal gamma\n");
    for (const auto& rg : galaxy::core::RankByGamma(*dataset)) {
      if (rg.always_dominated) {
        std::printf("%-30s never\n", rg.label.c_str());
      } else {
        std::printf("%-30s %.4f\n", rg.label.c_str(), rg.min_gamma);
      }
    }
  }
  if (flags.Has("representatives")) {
    auto k_flag = flags.GetInt("representatives", 3);
    if (!k_flag.ok()) return UsageError(k_flag.status().message());
    size_t k = static_cast<size_t>(*k_flag);
    auto reps = galaxy::core::SelectRepresentatives(*dataset, k,
                                                    options.gamma);
    std::printf("\n# top-%zu representative skyline groups "
                "(cover %zu of %zu dominated groups)\n",
                k, reps.covered, reps.dominated_total);
    for (const auto& rep : reps.representatives) {
      std::printf("%-30s +%zu\n", dataset->group(rep.id).label().c_str(),
                  rep.marginal_coverage);
    }
  }
  return 0;
}

int RunGenerate(Flags& flags) {
  if (!flags.CheckAllowed({"out", "type", "records", "seed"})) {
    return UsageError(flags.error());
  }
  if (!flags.Has("out")) {
    return Fail(Status::InvalidArgument("--out FILE is required"));
  }
  auto records_flag = flags.GetInt("records", 0);
  if (!records_flag.ok()) return UsageError(records_flag.status().message());
  auto seed_flag = flags.GetInt("seed", 0);
  if (!seed_flag.ok()) return UsageError(seed_flag.status().message());
  auto records = [&](int64_t fallback) {
    return static_cast<size_t>(flags.Has("records") ? *records_flag
                                                    : fallback);
  };
  auto seed = [&](int64_t fallback) {
    return static_cast<uint64_t>(flags.Has("seed") ? *seed_flag : fallback);
  };
  std::string type = flags.Get("type", "imdb");
  Table table;
  if (type == "imdb") {
    galaxy::datagen::ImdbConfig config;
    config.target_movies = records(20000);
    config.seed = seed(1894);
    table = galaxy::datagen::ToTable(
        galaxy::datagen::GenerateImdbCorpus(config));
  } else if (type == "nba") {
    galaxy::nba::NbaConfig config;
    config.target_records = records(15000);
    config.seed = seed(1979);
    table = galaxy::nba::ToTable(galaxy::nba::GenerateLeagueHistory(config));
  } else if (type == "grouped") {
    galaxy::datagen::GroupedWorkloadConfig config;
    config.num_records = records(10000);
    config.seed = seed(42);
    table = galaxy::datagen::GroupedDatasetToTable(
        galaxy::datagen::GenerateGrouped(config));
  } else {
    return Fail(Status::InvalidArgument("unknown --type: " + type));
  }
  Status status = galaxy::WriteCsvFile(table, flags.Get("out"));
  if (!status.ok()) return Fail(status);
  std::printf("wrote %zu rows to %s\n", table.num_rows(),
              flags.Get("out").c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string command = argv[1];
  Flags flags(argc, argv, 2);
  if (!flags.ok()) return UsageError(flags.error());
  if (command == "query") return RunQuery(flags);
  if (command == "skyline") return RunSkyline(flags);
  if (command == "generate") return RunGenerate(flags);
  return UsageError("unknown command: " + command);
}
