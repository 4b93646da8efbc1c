// Extra evaluation (not a paper figure): the five algorithms on the
// IMDB-scale synthetic movie corpus — the paper's own motivating domain —
// grouped at three granularities. Complements Figure 14's NBA panels with
// a workload whose group sizes are heavily Zipfian (filmographies).

#include <benchmark/benchmark.h>

#include <map>

#include "bench_common.h"
#include "datagen/imdb_gen.h"

namespace galaxy::bench {
namespace {

const Table& Corpus() {
  static const Table* table = [] {
    datagen::ImdbConfig config;
    // galaxy-lint: allow(naked-new) — intentionally leaked static cache
    return new Table(datagen::ToTable(datagen::GenerateImdbCorpus(config)));
  }();
  return *table;
}

const core::GroupedDataset& CachedGrouping(const std::string& column) {
  // galaxy-lint: allow(naked-new) — intentionally leaked static cache
  static auto* cache = new std::map<std::string, core::GroupedDataset>();
  auto it = cache->find(column);
  if (it == cache->end()) {
    auto ds =
        core::GroupedDataset::FromTable(Corpus(), {column}, {"Pop", "Qual"});
    it = cache->emplace(column, std::move(ds).value()).first;
  }
  return it->second;
}

void RegisterAll() {
  for (const char* grouping : {"Director", "Genre", "Year"}) {
    for (const auto& [algo_name, algo] : PaperAlgorithms()) {
      std::string name =
          std::string("imdb/by-") + grouping + "/" + algo_name;
      std::string column = grouping;
      core::Algorithm algorithm = algo;
      benchmark::RegisterBenchmark(
          name.c_str(),
          [column, algorithm](benchmark::State& state) {
            const core::GroupedDataset& dataset = CachedGrouping(column);
            core::AggregateSkylineOptions options;
            options.gamma = 0.5;
            options.algorithm = algorithm;
            RunAggregateSkyline(state, dataset, options);
          })
          ->Unit(benchmark::kMillisecond);
    }
    // The served configuration (AUTO: safe-mode IN) on the same grouping.
    std::string column = grouping;
    benchmark::RegisterBenchmark(
        (std::string("imdb/by-") + grouping + "/AUTO").c_str(),
        [column](benchmark::State& state) {
          const core::GroupedDataset& dataset = CachedGrouping(column);
          core::AggregateSkylineOptions options;
          options.gamma = 0.5;
          options.algorithm = core::Algorithm::kAuto;
          RunAggregateSkyline(state, dataset, options);
        })
        ->Unit(benchmark::kMillisecond);
  }
}

}  // namespace
}  // namespace galaxy::bench

int main(int argc, char** argv) {
  galaxy::bench::RegisterAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
