#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {

const std::vector<MetricSpec> kEndToEndMetrics = {
    {"setup_s", "s"},
    {"query_qps", "1/s"},
    {"query_p50_ms", "ms"},
    {"query_p99_ms", "ms"},
    {"peak_rss_mb", "MiB"},
};

const std::vector<MetricSpec> kPerLayerMetrics = {
    {"server.http_parse_us", "us"},
    {"server.serialize_us", "us"},
    {"server.handle_us", "us"},
    {"server.write_share", "ratio"},
    {"server.transport_us", "us"},
    {"server.cache_hit_ratio", "ratio"},
    {"server.cache_invalidations", "count"},
    {"server.admission_rejected", "count"},
    {"server.response_bytes", "bytes"},
    {"sql.parse_us", "us"},
    {"sql.execute_us", "us"},
    {"sql.cross_product_rows", "rows"},
    {"sql.hash_joins", "count"},
    {"sql.pushed_filters", "count"},
    {"sql.base_rows_filtered", "rows"},
    {"sql.rows_examined_per_result_row", "ratio"},
    {"sql.vectorized_predicates", "count"},
    {"sql.vectorized_folds", "count"},
    {"sql.group_gather_cells", "count"},
    {"core.skyline_us", "us"},
    {"core.record_comparisons", "count"},
    {"core.group_pairs", "count"},
    {"core.stopped_early", "count"},
    {"core.mbb_shortcuts", "count"},
    {"core.early_stop_ratio", "ratio"},
    {"core.nl_ms", "ms"},
    {"core.tr_ms", "ms"},
    {"core.si_ms", "ms"},
    {"core.in_ms", "ms"},
    {"core.lo_ms", "ms"},
    {"core.auto_ms", "ms"},
    {"core.nl.record_comparisons", "count"},
    {"core.tr.record_comparisons", "count"},
    {"core.si.record_comparisons", "count"},
    {"core.in.record_comparisons", "count"},
    {"core.lo.record_comparisons", "count"},
    {"core.auto.record_comparisons", "count"},
    {"core.auto_choice", "ratio"},
    {"core.view_drain_us", "us"},
    {"relation.cow_install_us", "us"},
    {"relation.csv_row_parse_us", "us"},
    {"relation.table_build_s", "s"},
    {"storage.wal_append_us", "us"},
    {"storage.fsyncs", "count"},
    {"storage.snapshot_s", "s"},
    {"storage.snapshots", "count"},
    {"storage.write_amp", "ratio"},
    {"loadgen.error_ratio", "ratio"},
    {"e2e.update_p50_ms", "ms"},
    {"e2e.update_p99_ms", "ms"},
    {"e2e.view_p50_ms", "ms"},
    {"e2e.view_p99_ms", "ms"},
    {"trace.overhead_pct", "%"},
    {"trace.spans", "count"},
};

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const size_t index = std::min(values.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(values.begin(), values.begin() + index, values.end());
  return values[index];
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
