#include "core/algo_context.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/logging.h"

namespace galaxy::core::internal {

AlgoContext::AlgoContext(const GroupedDataset& dataset,
                         const AggregateSkylineOptions& options,
                         AggregateSkylineStats* stats)
    : dataset_(&dataset),
      options_(&options),
      thresholds_(options.use_proven_gamma_bar
                      ? GammaThresholds::FromGammaProven(options.gamma)
                      : GammaThresholds::FromGamma(options.gamma)),
      dominated_(dataset.num_groups(), 0),
      strongly_dominated_(dataset.num_groups(), 0),
      stats_(stats) {
  pair_options_.use_stop_rule = options.use_stop_rule;
  pair_options_.use_mbb =
      options.use_mbb || options.algorithm == Algorithm::kIndexedBbox;
  pair_options_.exec = options.exec;
  if (options.algorithm == Algorithm::kBruteForce) {
    // The reference mode does every record comparison unconditionally —
    // but it still honors the control plane.
    pair_options_.use_stop_rule = false;
    pair_options_.use_mbb = false;
  }
}

PairOutcome AlgoContext::Compare(uint32_t id1, uint32_t id2) {
  PairCompareStats pair_stats;
  PairOutcome outcome =
      ClassifyPair(dataset_->group(id1), dataset_->group(id2), thresholds_,
                   pair_options_, &pair_stats);
  if (stats_ != nullptr) {
    stats_->record_comparisons += pair_stats.record_comparisons;
    stats_->records_preclassified += pair_stats.records_preclassified;
    if (pair_stats.mbb_strict_shortcut) ++stats_->mbb_shortcuts;
    if (pair_stats.stopped_early) ++stats_->stopped_early;
  }
  // An aborted classification decided nothing about the pair; recording
  // its kIncomparable would be a false mark of knowledge, and counting it
  // in group_pairs_classified would inflate the decided-pair tally.
  if (pair_stats.aborted) return outcome;
  if (stats_ != nullptr) ++stats_->group_pairs_classified;
  switch (outcome) {
    case PairOutcome::kFirstDominatesStrongly:
      strongly_dominated_[id2] = 1;
      dominated_[id2] = 1;
      break;
    case PairOutcome::kFirstDominates:
      dominated_[id2] = 1;
      break;
    case PairOutcome::kSecondDominatesStrongly:
      strongly_dominated_[id1] = 1;
      dominated_[id1] = 1;
      break;
    case PairOutcome::kSecondDominates:
      dominated_[id1] = 1;
      break;
    case PairOutcome::kIncomparable:
      break;
  }
  return outcome;
}

std::vector<uint32_t> AlgoContext::Skyline() const {
  std::vector<uint32_t> out;
  for (uint32_t i = 0; i < dominated_.size(); ++i) {
    if (dominated_[i] == 0) out.push_back(i);
  }
  return out;
}

std::vector<uint32_t> OrderGroups(const GroupedDataset& dataset,
                                  GroupOrdering ordering) {
  std::vector<uint32_t> order(dataset.num_groups());
  std::iota(order.begin(), order.end(), uint32_t{0});

  // Coordinate (not distance) sum of the MBB corners: on the paper's
  // [0, 1]^d data this equals the corner-distance sum of Algorithm 4, and
  // unlike an absolute-value distance it stays monotone when MIN attributes
  // have been negated. Empty groups sort last: their empty-box corners are
  // ±infinity and would otherwise sum to NaN, breaking the comparator's
  // strict weak ordering.
  auto corner_key = [&](uint32_t id) {
    const Group& g = dataset.group(id);
    if (g.size() == 0) return -std::numeric_limits<double>::infinity();
    const Box& b = g.mbb();
    double s = 0.0;
    for (size_t i = 0; i < b.dims(); ++i) s += b.min[i] + b.max[i];
    return s;
  };

  switch (ordering) {
    case GroupOrdering::kCornerDistance:
      std::stable_sort(order.begin(), order.end(),
                       [&](uint32_t a, uint32_t b) {
                         return corner_key(a) > corner_key(b);
                       });
      break;
    case GroupOrdering::kSmallestFirst:
      std::stable_sort(order.begin(), order.end(),
                       [&](uint32_t a, uint32_t b) {
                         return dataset.group(a).size() <
                                dataset.group(b).size();
                       });
      break;
    case GroupOrdering::kSmallestFirstThenCorner:
      std::stable_sort(order.begin(), order.end(),
                       [&](uint32_t a, uint32_t b) {
                         size_t sa = dataset.group(a).size();
                         size_t sb = dataset.group(b).size();
                         if (sa != sb) return sa < sb;
                         return corner_key(a) > corner_key(b);
                       });
      break;
  }
  return order;
}

}  // namespace galaxy::core::internal
