#include "testing/fault_injection.h"

#include <algorithm>

#include "core/aggregate_skyline.h"

namespace galaxy::testing {

namespace {

// Builds the bounded-call options for one differential configuration.
core::AggregateSkylineOptions BoundedOptions(const DifferentialConfig& config,
                                             double gamma) {
  core::AggregateSkylineOptions options;
  options.gamma = gamma;
  options.algorithm = config.algorithm;
  options.use_mbb = config.use_mbb;
  options.use_stop_rule = config.use_stop_rule;
  options.prune_strongly_dominated = config.prune_strongly_dominated;
  options.ordering = config.ordering;
  options.kernel = config.kernel;
  return options;
}

// Upper bound on comparisons charged after the trigger: the one charge
// batch in flight, one MBB preclassification charge (2 corner tests per
// record of the pair) and one poll round, with a factor-two margin.
uint64_t LatencySlack(const core::GroupedDataset& dataset) {
  size_t max_group = 0;
  for (size_t g = 0; g < dataset.num_groups(); ++g) {
    max_group = std::max(max_group, dataset.group(g).size());
  }
  const uint64_t per_pair_preclass = 4 * static_cast<uint64_t>(max_group);
  return 2 * (core::ExecutionContext::kChargeBatch + per_pair_preclass + 64);
}

std::string CheckDegraded(const core::GroupedDataset& dataset,
                          const OracleResult& oracle,
                          const core::AggregateSkylineResult& result) {
  const uint32_t n = static_cast<uint32_t>(dataset.num_groups());
  if (result.dominated.size() != n || result.strongly_dominated.size() != n) {
    return "degraded result has wrong mark vector sizes";
  }
  // Structural: skyline = the unmarked groups, ascending.
  std::vector<uint32_t> unmarked;
  for (uint32_t g = 0; g < n; ++g) {
    if (result.dominated[g] == 0) unmarked.push_back(g);
  }
  if (result.skyline != unmarked) {
    return "degraded skyline disagrees with its own dominated marks";
  }
  // Soundness: every mark the degraded run carries is true.
  for (uint32_t g = 0; g < n; ++g) {
    if (result.dominated[g] != 0 && oracle.dominated[g] == 0) {
      return "degraded run marked group " + std::to_string(g) +
             " dominated, but the oracle disagrees (unsound mark)";
    }
    if (result.strongly_dominated[g] != 0 &&
        oracle.strongly_dominated[g] == 0) {
      return "degraded run marked group " + std::to_string(g) +
             " strongly dominated, but the oracle disagrees (unsound mark)";
    }
  }
  // Superset: no oracle-skyline group may be missing.
  for (uint32_t g : oracle.skyline) {
    if (!std::binary_search(result.skyline.begin(), result.skyline.end(),
                            g)) {
      return "degraded skyline lost oracle-skyline group " +
             std::to_string(g) + " (not a superset)";
    }
  }
  // A kExact claim must be backed by exact equality.
  if (result.quality == core::ResultQuality::kExact &&
      result.skyline != oracle.skyline) {
    return "degraded result claims kExact but differs from the oracle";
  }
  return "";
}

}  // namespace

const char* FaultKindToString(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCancel:
      return "cancel";
    case FaultKind::kDeadline:
      return "deadline";
    case FaultKind::kComparisonBudget:
      return "comparison-budget";
  }
  return "?";
}

std::string FaultPlan::Name() const {
  std::string out = FaultKindToString(kind);
  out += "@" + std::to_string(trigger);
  out += allow_approximate ? " approx=1" : " approx=0";
  return out;
}

FaultCheckOutcome RunFaultCheck(const core::GroupedDataset& dataset,
                                double gamma,
                                const DifferentialConfig& config,
                                const OracleResult& oracle,
                                const FaultPlan& plan) {
  core::ExecutionContext exec;
  switch (plan.kind) {
    case FaultKind::kCancel:
      exec.InjectCancelAtComparison(plan.trigger);
      break;
    case FaultKind::kDeadline:
      exec.InjectDeadlineAtComparison(plan.trigger);
      break;
    case FaultKind::kComparisonBudget:
      exec.set_max_comparisons(plan.trigger);
      break;
  }

  core::AggregateSkylineOptions options = BoundedOptions(config, gamma);
  options.exec = &exec;
  options.allow_approximate = plan.allow_approximate;

  auto bounded = core::ComputeAggregateSkylineBounded(dataset, options);

  FaultCheckOutcome outcome;
  outcome.tripped = exec.stopped();
  auto fail = [&](std::string detail) {
    outcome.ok = false;
    outcome.detail = std::move(detail);
    return outcome;
  };

  // Bounded unwind latency: comparisons charged past the trigger are
  // capped by the in-flight charge batches.
  if (outcome.tripped) {
    const uint64_t slack = LatencySlack(dataset);
    if (exec.comparisons() > plan.trigger + slack) {
      return fail("run kept charging after the trip: " +
                  std::to_string(exec.comparisons()) +
                  " comparisons, trigger " + std::to_string(plan.trigger) +
                  ", slack " + std::to_string(slack));
    }
  }

  if (!outcome.tripped) {
    // The fault never fired: this must be indistinguishable from an
    // unbounded run.
    if (!bounded.ok()) {
      return fail("no fault fired but the run errored: " +
                  bounded.status().ToString());
    }
    if (bounded->quality != core::ResultQuality::kExact) {
      return fail("no fault fired but quality is not kExact");
    }
    std::string detail =
        CheckResult(dataset, gamma, config, oracle, *bounded);
    if (!detail.empty()) return fail("exact-path check: " + detail);
    outcome.ok = true;
    return outcome;
  }

  if (!plan.allow_approximate) {
    if (bounded.ok()) {
      return fail("fault fired without allow_approximate but a result "
                  "was returned");
    }
    StatusCode expected = StatusCode::kCancelled;
    if (plan.kind == FaultKind::kDeadline) {
      expected = StatusCode::kDeadlineExceeded;
    } else if (plan.kind == FaultKind::kComparisonBudget) {
      expected = StatusCode::kResourceExhausted;
    }
    if (bounded.status().code() != expected) {
      return fail(std::string("fault ") + FaultKindToString(plan.kind) +
                  " surfaced as " + bounded.status().ToString());
    }
    outcome.ok = true;
    return outcome;
  }

  // Degraded path: a result must come back and be a sound superset.
  if (!bounded.ok()) {
    return fail("allow_approximate set but the run errored: " +
                bounded.status().ToString());
  }
  std::string detail = CheckDegraded(dataset, oracle, *bounded);
  if (!detail.empty()) return fail(std::move(detail));
  outcome.ok = true;
  return outcome;
}

FaultPlan RandomFaultPlan(Rng& rng, uint64_t reference_total_comparisons) {
  FaultPlan plan;
  switch (rng.UniformInt(0, 2)) {
    case 0:
      plan.kind = FaultKind::kCancel;
      break;
    case 1:
      plan.kind = FaultKind::kDeadline;
      break;
    default:
      plan.kind = FaultKind::kComparisonBudget;
      break;
  }
  const uint64_t ref = reference_total_comparisons;
  switch (rng.UniformInt(0, 6)) {
    case 0:
      plan.trigger = 0;
      break;
    case 1:
      plan.trigger = 1;
      break;
    case 2:  // inside the first pair's preclassification region
      plan.trigger = static_cast<uint64_t>(rng.UniformInt(2, 64));
      break;
    case 3:  // mid-run
      plan.trigger = ref / 2;
      break;
    case 4:  // right at the boundary
      plan.trigger = ref > 0 ? ref - 1 : 0;
      break;
    case 5:  // just past the end: may or may not fire depending on charges
      plan.trigger = ref + 1;
      break;
    default:  // far beyond: must never fire
      plan.trigger = 2 * ref + 1000;
      break;
  }
  plan.allow_approximate = rng.UniformInt(0, 1) == 1;
  return plan;
}

FaultDivergence FuzzFaults(uint64_t seed, int iterations,
                           uint64_t* fault_points_run) {
  FaultDivergence divergence;
  uint64_t points = 0;
  const std::vector<DifferentialConfig> configs = AllConfigurations();

  for (int iter = 0; iter < iterations; ++iter) {
    const uint64_t dataset_seed = seed + static_cast<uint64_t>(iter);
    Rng rng(dataset_seed, /*stream=*/7);
    core::GroupedDataset dataset = GenerateAdversarialDataset(rng);
    const double gamma = PickAdversarialGamma(rng);
    const OracleResult oracle =
        ComputeOracle(dataset, core::GammaThresholds::FromGamma(gamma));
    const DifferentialConfig& config =
        configs[static_cast<size_t>(rng.UniformInt(
            0, static_cast<int64_t>(configs.size()) - 1))];

    // Fault-free reference run through the same bounded path: yields the
    // total charged work (to place triggers) and doubles as a check that
    // an untripped context is invisible.
    core::ExecutionContext reference;
    core::AggregateSkylineOptions ref_options =
        BoundedOptions(config, gamma);
    ref_options.exec = &reference;
    auto ref_result =
        core::ComputeAggregateSkylineBounded(dataset, ref_options);
    ++points;
    if (!ref_result.ok() || reference.stopped()) {
      divergence.found = true;
      divergence.detail = "unlimited context tripped: " +
                          ref_result.status().ToString();
    } else {
      const uint64_t total = reference.comparisons();
      for (int p = 0; p < 4 && !divergence.found; ++p) {
        FaultPlan plan = RandomFaultPlan(rng, total);
        FaultCheckOutcome outcome =
            RunFaultCheck(dataset, gamma, config, oracle, plan);
        ++points;
        if (!outcome.ok) {
          divergence.found = true;
          divergence.plan = plan;
          divergence.detail = outcome.detail;
        }
      }
    }
    if (divergence.found) {
      divergence.dataset_seed = dataset_seed;
      divergence.gamma = gamma;
      divergence.config = config;
      break;
    }
  }
  if (fault_points_run != nullptr) *fault_points_run = points;
  return divergence;
}

}  // namespace galaxy::testing
