#include "testing/differential.h"

#include <cmath>
#include <cstdint>
#include <cstdio>

#include "common/logging.h"

namespace galaxy::testing {

namespace {

const char* AlgorithmEnumLiteral(core::Algorithm algorithm) {
  switch (algorithm) {
    case core::Algorithm::kBruteForce:
      return "core::Algorithm::kBruteForce";
    case core::Algorithm::kNestedLoop:
      return "core::Algorithm::kNestedLoop";
    case core::Algorithm::kTransitive:
      return "core::Algorithm::kTransitive";
    case core::Algorithm::kSorted:
      return "core::Algorithm::kSorted";
    case core::Algorithm::kIndexed:
      return "core::Algorithm::kIndexed";
    case core::Algorithm::kIndexedBbox:
      return "core::Algorithm::kIndexedBbox";
    case core::Algorithm::kAuto:
      return "core::Algorithm::kAuto";
  }
  return "?";
}

const char* GroupOrderingEnumLiteral(core::GroupOrdering ordering) {
  switch (ordering) {
    case core::GroupOrdering::kCornerDistance:
      return "core::GroupOrdering::kCornerDistance";
    case core::GroupOrdering::kSmallestFirst:
      return "core::GroupOrdering::kSmallestFirst";
    case core::GroupOrdering::kSmallestFirstThenCorner:
      return "core::GroupOrdering::kSmallestFirstThenCorner";
  }
  return "?";
}

std::string FormatCoord(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string DescribeGroup(const core::GroupedDataset& dataset, uint32_t id) {
  return "group " + std::to_string(id) + " ('" +
         dataset.group(id).label() + "', " +
         std::to_string(dataset.group(id).size()) + " records)";
}

}  // namespace

bool DifferentialConfig::exact() const {
  // BF/NL classify every unordered pair; safe mode disables the only
  // unsound skip, and kAuto always runs in safe mode.
  return algorithm == core::Algorithm::kBruteForce ||
         algorithm == core::Algorithm::kNestedLoop ||
         algorithm == core::Algorithm::kAuto || !prune_strongly_dominated;
}

std::string DifferentialConfig::Name() const {
  std::string out = core::AlgorithmToString(algorithm);
  out += " prune=" + std::to_string(prune_strongly_dominated ? 1 : 0);
  if (ordering != core::GroupOrdering::kCornerDistance) {
    out += " ord=";
    out += core::GroupOrderingToString(ordering);
  }
  out += " mbb=" + std::to_string(use_mbb ? 1 : 0) +
         " stop=" + std::to_string(use_stop_rule ? 1 : 0);
  return out;
}

std::vector<DifferentialConfig> AllConfigurations() {
  std::vector<DifferentialConfig> out;

  // The reference mode itself: one configuration (its knobs are forced off
  // internally).
  {
    DifferentialConfig c;
    c.algorithm = core::Algorithm::kBruteForce;
    c.use_stop_rule = false;
    out.push_back(c);
  }

  for (bool mbb : {false, true}) {
    for (bool stop : {false, true}) {
      DifferentialConfig c;
      c.algorithm = core::Algorithm::kNestedLoop;
      c.use_mbb = mbb;
      c.use_stop_rule = stop;
      out.push_back(c);
    }
  }

  for (core::Algorithm algorithm :
       {core::Algorithm::kTransitive, core::Algorithm::kSorted,
        core::Algorithm::kIndexed, core::Algorithm::kIndexedBbox}) {
    for (bool mbb : {false, true}) {
      for (bool stop : {false, true}) {
        for (bool prune : {false, true}) {
          DifferentialConfig c;
          c.algorithm = algorithm;
          c.use_mbb = mbb;
          c.use_stop_rule = stop;
          c.prune_strongly_dominated = prune;
          out.push_back(c);
        }
      }
    }
  }

  // The alternative group ordering for the order-sensitive algorithms.
  for (core::Algorithm algorithm :
       {core::Algorithm::kSorted, core::Algorithm::kIndexed,
        core::Algorithm::kIndexedBbox}) {
    DifferentialConfig c;
    c.algorithm = algorithm;
    c.ordering = core::GroupOrdering::kSmallestFirstThenCorner;
    out.push_back(c);
  }

  // kAuto exactly as GROUP BY … SKYLINE OF requests it. Pruning is left at
  // its default (on): kAuto must switch it off itself.
  {
    DifferentialConfig c;
    c.algorithm = core::Algorithm::kAuto;
    out.push_back(c);
  }
  return out;
}

core::AggregateSkylineResult RunConfiguration(
    const core::GroupedDataset& dataset, double gamma,
    const DifferentialConfig& config) {
  core::AggregateSkylineOptions options;
  options.gamma = gamma;
  options.algorithm = config.algorithm;
  options.use_mbb = config.use_mbb;
  options.use_stop_rule = config.use_stop_rule;
  options.prune_strongly_dominated = config.prune_strongly_dominated;
  options.ordering = config.ordering;
  return core::ComputeAggregateSkyline(dataset, options);
}

std::string CheckResult(const core::GroupedDataset& dataset, double gamma,
                        const DifferentialConfig& config,
                        const OracleResult& oracle,
                        const core::AggregateSkylineResult& result) {
  const uint32_t n = static_cast<uint32_t>(dataset.num_groups());
  if (result.dominated.size() != n || result.strongly_dominated.size() != n) {
    return "mark vector size mismatch (" +
           std::to_string(result.dominated.size()) + "/" +
           std::to_string(result.strongly_dominated.size()) + " for " +
           std::to_string(n) + " groups)";
  }

  // kAuto resolves to the served safe-mode IN.
  const core::Algorithm expected_algorithm =
      config.algorithm == core::Algorithm::kAuto ? core::Algorithm::kIndexed
                                                 : config.algorithm;
  if (result.algorithm_used != expected_algorithm) {
    return std::string("algorithm_used reports ") +
           core::AlgorithmToString(result.algorithm_used) + " instead of " +
           core::AlgorithmToString(expected_algorithm);
  }

  // Structural invariants of the result type itself.
  std::vector<uint32_t> unmarked;
  for (uint32_t i = 0; i < n; ++i) {
    if (result.strongly_dominated[i] != 0 && result.dominated[i] == 0) {
      return "strongly_dominated set without dominated for " +
             DescribeGroup(dataset, i);
    }
    if (result.dominated[i] == 0) unmarked.push_back(i);
  }
  if (result.skyline != unmarked) {
    return "skyline vector does not equal the ascending unmarked groups";
  }

  // Soundness: every mark the algorithm set must be true per the oracle.
  for (uint32_t i = 0; i < n; ++i) {
    if (result.dominated[i] != 0 && oracle.dominated[i] == 0) {
      return "false dominated mark on " + DescribeGroup(dataset, i) +
             " (no group gamma-dominates it)";
    }
    if (result.strongly_dominated[i] != 0 && oracle.strongly_dominated[i] == 0) {
      return "false strongly_dominated mark on " + DescribeGroup(dataset, i);
    }
  }

  if (config.exact()) {
    for (uint32_t i = 0; i < n; ++i) {
      if (result.dominated[i] != oracle.dominated[i]) {
        return "dominated[" + std::to_string(i) + "] = " +
               std::to_string(result.dominated[i]) + ", oracle says " +
               std::to_string(oracle.dominated[i]) + " for " +
               DescribeGroup(dataset, i);
      }
      if (result.strongly_dominated[i] != oracle.strongly_dominated[i]) {
        return "strongly_dominated[" + std::to_string(i) + "] = " +
               std::to_string(result.strongly_dominated[i]) +
               ", oracle says " +
               std::to_string(oracle.strongly_dominated[i]) + " for " +
               DescribeGroup(dataset, i);
      }
    }
    return "";
  }

  // Pruned TR/SI/IN/LO: the skyline may be a superset of the oracle's, but
  // only through the documented weak-transitivity gap — a surplus group
  // survives only if every group that γ-dominates it was skipped as
  // strongly dominated (per the algorithm's own marks, which soundness
  // already validated above).
  for (uint32_t i = 0; i < n; ++i) {
    if (oracle.dominated[i] == 0 || result.dominated[i] != 0) continue;
    for (uint32_t j = 0; j < n; ++j) {
      if (j == i) continue;
      if (!OracleGammaDominates(dataset.group(j), dataset.group(i), gamma)) {
        continue;
      }
      if (result.strongly_dominated[j] == 0) {
        return "surplus skyline " + DescribeGroup(dataset, i) +
               " not explained by the weak-transitivity gap: its dominator " +
               DescribeGroup(dataset, j) + " is not strongly dominated";
      }
    }
  }
  return "";
}

std::string RunAndCheck(const core::GroupedDataset& dataset, double gamma,
                        const DifferentialConfig& config,
                        const OracleResult& oracle) {
  core::AggregateSkylineResult result =
      RunConfiguration(dataset, gamma, config);
  return CheckResult(dataset, gamma, config, oracle, result);
}

Divergence CheckDataset(const core::GroupedDataset& dataset, double gamma) {
  OracleResult oracle =
      ComputeOracle(dataset, core::GammaThresholds::FromGamma(gamma));
  Divergence divergence;
  for (const DifferentialConfig& config : AllConfigurations()) {
    std::string detail = RunAndCheck(dataset, gamma, config, oracle);
    if (!detail.empty()) {
      divergence.found = true;
      divergence.config = config;
      divergence.detail = std::move(detail);
      return divergence;
    }
  }
  return divergence;
}

namespace {

// Re-runs config on the candidate; true if it still disagrees with the
// oracle.
bool StillFails(const PointGroups& groups, double gamma,
                const DifferentialConfig& config, std::string* detail) {
  if (groups.empty()) return false;
  bool any_records = false;
  for (const std::vector<Point>& g : groups) {
    if (!g.empty()) any_records = true;
  }
  if (!any_records) return false;

  core::GroupedDataset dataset = PointsToDataset(groups);
  OracleResult oracle =
      ComputeOracle(dataset, core::GammaThresholds::FromGamma(gamma));
  std::string d = RunAndCheck(dataset, gamma, config, oracle);
  if (d.empty()) return false;
  if (detail != nullptr) *detail = std::move(d);
  return true;
}

PointGroups RoundToGrid(const PointGroups& groups, double grid) {
  PointGroups out = groups;
  for (std::vector<Point>& g : out) {
    for (Point& p : g) {
      for (double& v : p) v = std::round(v / grid) * grid;
    }
  }
  return out;
}

}  // namespace

Reproducer Shrink(const PointGroups& groups, double gamma,
                  const DifferentialConfig& config) {
  Reproducer repro;
  repro.groups = groups;
  repro.gamma = gamma;
  repro.config = config;
  // If the failure does not reproduce from the raw input, return it
  // unshrunk.
  if (!StillFails(repro.groups, gamma, config, &repro.detail)) {
    return repro;
  }

  bool changed = true;
  while (changed) {
    changed = false;

    // Pass 1: drop whole groups.
    for (size_t g = 0; g < repro.groups.size() && repro.groups.size() > 1;) {
      PointGroups candidate = repro.groups;
      candidate.erase(candidate.begin() + static_cast<std::ptrdiff_t>(g));
      std::string detail;
      if (StillFails(candidate, gamma, config, &detail)) {
        repro.groups = std::move(candidate);
        repro.detail = std::move(detail);
        changed = true;
      } else {
        ++g;
      }
    }

    // Pass 2: drop individual records.
    for (size_t g = 0; g < repro.groups.size(); ++g) {
      for (size_t i = 0; i < repro.groups[g].size();) {
        PointGroups candidate = repro.groups;
        candidate[g].erase(candidate[g].begin() +
                           static_cast<std::ptrdiff_t>(i));
        std::string detail;
        if (StillFails(candidate, gamma, config, &detail)) {
          repro.groups = std::move(candidate);
          repro.detail = std::move(detail);
          changed = true;
        } else {
          ++i;
        }
      }
    }

    // Pass 3: round coordinates onto coarser grids (coarsest first).
    for (double grid : {0.25, 0.125, 0.0625, 0.015625}) {
      PointGroups candidate = RoundToGrid(repro.groups, grid);
      if (candidate == repro.groups) continue;
      std::string detail;
      if (StillFails(candidate, gamma, config, &detail)) {
        repro.groups = std::move(candidate);
        repro.detail = std::move(detail);
        changed = true;
        break;
      }
    }
  }
  return repro;
}

namespace {

// Deterministic test-name hash: FNV-1a over the configuration name, gamma
// and every coordinate, so the generated test keeps the same identity when
// the campaign is re-run and distinct failures get distinct names.
uint64_t ReproducerFingerprint(const Reproducer& repro) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](const void* data, size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      h ^= bytes[i];
      h *= 0x100000001b3ULL;
    }
  };
  std::string config_name = repro.config.Name();
  mix(config_name.data(), config_name.size());
  mix(&repro.gamma, sizeof(repro.gamma));
  for (const std::vector<Point>& group : repro.groups) {
    uint64_t marker = group.size();
    mix(&marker, sizeof(marker));
    for (const Point& p : group) {
      mix(p.data(), p.size() * sizeof(double));
    }
  }
  return h;
}

}  // namespace

std::string ReproducerToCpp(const Reproducer& repro) {
  char name[64];
  std::snprintf(name, sizeof(name), "Repro_%016llx_Seed%llu",
                static_cast<unsigned long long>(ReproducerFingerprint(repro)),
                static_cast<unsigned long long>(repro.dataset_seed));
  std::string out;
  out += "// Shrunk reproducer from the differential harness.\n";
  out += "// Disagreement: " + repro.detail + "\n";
  out += "TEST(DifferentialRegressionTest, " + std::string(name) + ") {\n";
  out += "  core::GroupedDataset ds = core::GroupedDataset::FromPoints({\n";
  for (const std::vector<Point>& g : repro.groups) {
    out += "      {";
    for (size_t i = 0; i < g.size(); ++i) {
      out += "{";
      for (size_t d = 0; d < g[i].size(); ++d) {
        out += FormatCoord(g[i][d]);
        if (d + 1 < g[i].size()) out += ", ";
      }
      out += "}";
      if (i + 1 < g.size()) out += ", ";
    }
    out += "},\n";
  }
  out += "  });\n";
  out += "  testing::DifferentialConfig config;\n";
  out += "  config.algorithm = " +
         std::string(AlgorithmEnumLiteral(repro.config.algorithm)) + ";\n";
  out += "  config.prune_strongly_dominated = " +
         std::string(repro.config.prune_strongly_dominated ? "true" : "false") +
         ";\n";
  out += "  config.use_mbb = " +
         std::string(repro.config.use_mbb ? "true" : "false") + ";\n";
  out += "  config.use_stop_rule = " +
         std::string(repro.config.use_stop_rule ? "true" : "false") + ";\n";
  if (repro.config.ordering != core::GroupOrdering::kCornerDistance) {
    out += "  config.ordering = " +
           std::string(GroupOrderingEnumLiteral(repro.config.ordering)) +
           ";\n";
  }
  out += "  const double gamma = " + FormatCoord(repro.gamma) + ";\n";
  out += "  testing::OracleResult oracle =\n";
  out += "      testing::ComputeOracle(ds, "
         "core::GammaThresholds::FromGamma(gamma));\n";
  out += "  EXPECT_EQ(testing::RunAndCheck(ds, gamma, config, oracle), "
         "\"\");\n";
  out += "}\n";
  return out;
}

}  // namespace galaxy::testing
