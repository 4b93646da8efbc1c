// Best directors at IMDB scale: the paper's Section 1 question ("what are
// the most interesting directors, judged by their movies?") on a synthetic
// 20 000-movie corpus with heavy-tailed filmographies, answered by the
// native operator in its served configuration (AUTO) and the gamma
// ranking.

#include <cstdio>

#include "common/timer.h"
#include "core/aggregate_skyline.h"
#include "datagen/imdb_gen.h"
#include "sql/catalog.h"

using galaxy::Table;
using galaxy::core::AggregateSkylineOptions;
using galaxy::core::Algorithm;
using galaxy::core::GroupedDataset;

int main() {
  galaxy::datagen::ImdbConfig config;
  auto corpus = galaxy::datagen::GenerateImdbCorpus(config);
  Table table = galaxy::datagen::ToTable(corpus);
  std::printf("corpus: %zu movies\n", table.num_rows());

  auto directors =
      GroupedDataset::FromTable(table, {"Director"}, {"Pop", "Qual"});
  if (!directors.ok()) {
    std::fprintf(stderr, "grouping failed: %s\n",
                 directors.status().ToString().c_str());
    return 1;
  }
  std::printf("directors: %zu (largest filmography: ", directors->num_groups());
  size_t largest = 0;
  for (const auto& g : directors->groups()) {
    largest = std::max(largest, g.size());
  }
  std::printf("%zu movies)\n", largest);

  AggregateSkylineOptions options;
  options.algorithm = Algorithm::kAuto;
  galaxy::WallTimer timer;
  auto result = galaxy::core::ComputeAggregateSkyline(*directors, options);
  std::printf("\n== aggregate skyline directors (gamma=.5, %s, %.3fs) ==\n",
              galaxy::core::AlgorithmToString(result.algorithm_used),
              timer.ElapsedSeconds());
  size_t shown = 0;
  for (const std::string& label : result.Labels(*directors)) {
    std::printf("  %s\n", label.c_str());
    if (++shown >= 10) {
      std::printf("  ... and %zu more\n", result.skyline.size() - shown);
      break;
    }
  }

  // Genre leaderboard through the SQL front end.
  galaxy::sql::Database db;
  db.Register("movies", table);
  auto genres = db.Query(
      "SELECT Genre FROM movies GROUP BY Genre "
      "SKYLINE OF Pop MAX, Qual MAX ORDER BY Genre");
  if (genres.ok()) {
    std::printf("\n== genres in the aggregate skyline ==\n%s",
                genres->ToString().c_str());
  }
  return 0;
}
