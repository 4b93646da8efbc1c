// Substrate microbenchmarks (not a paper figure): the record skyline (SFS)
// across the three distributions, and R-tree
// construction / window-query throughput — the building blocks whose costs
// feed every aggregate-skyline number in the other benches.

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "skyline/skyline.h"
#include "spatial/rtree.h"

namespace galaxy::bench {
namespace {

const std::vector<Point>& CachedPoints(datagen::Distribution dist,
                                       size_t dims, size_t count) {
  // galaxy-lint: allow(naked-new) — intentionally leaked static cache
  static auto* cache = new std::map<std::string, std::vector<Point>>();
  std::string key = std::string(datagen::DistributionToString(dist)) + "/" +
                    std::to_string(dims) + "/" + std::to_string(count);
  auto it = cache->find(key);
  if (it == cache->end()) {
    Rng rng(1234);
    it = cache->emplace(key, datagen::SamplePoints(dist, dims, count, rng))
             .first;
  }
  return it->second;
}

void RegisterRecordSkyline() {
  for (const auto& [dist_name, dist] : PaperDistributions()) {
    std::string name =
        std::string("substrate-skyline/") + dist_name + "/n=20000/d=4/SFS";
    datagen::Distribution distribution = dist;
    benchmark::RegisterBenchmark(
        name.c_str(),
        [distribution](benchmark::State& state) {
          const std::vector<Point>& pts = CachedPoints(distribution, 4, 20000);
          skyline::PreferenceList prefs = skyline::AllMax(4);
          size_t size = 0;
          for (auto _ : state) {
            auto result = skyline::Compute(pts, prefs);
            benchmark::DoNotOptimize(result.data());
            size = result.size();
          }
          state.counters["skyline"] = static_cast<double>(size);
        })
        ->Unit(benchmark::kMillisecond);
  }
}

void BM_RTreeBulkLoad(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  const std::vector<Point>& pts =
      CachedPoints(datagen::Distribution::kIndependent, 5, n);
  for (auto _ : state) {
    spatial::RTree tree(5);
    tree.BulkLoad(pts);
    benchmark::DoNotOptimize(tree.size());
  }
}

void BM_RTreeInsert(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  const std::vector<Point>& pts =
      CachedPoints(datagen::Distribution::kIndependent, 5, n);
  for (auto _ : state) {
    spatial::RTree tree(5);
    for (uint32_t i = 0; i < pts.size(); ++i) tree.Insert(pts[i], i);
    benchmark::DoNotOptimize(tree.size());
  }
}

void BM_RTreeWindowQuery(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  const std::vector<Point>& pts =
      CachedPoints(datagen::Distribution::kIndependent, 5, n);
  spatial::RTree tree(5);
  tree.BulkLoad(pts);
  Rng rng(7);
  std::vector<uint32_t> out;
  size_t matched = 0;
  for (auto _ : state) {
    Point lo(5), hi(5);
    for (size_t d = 0; d < 5; ++d) {
      double a = rng.NextDouble() * 0.7;
      lo[d] = a;
      hi[d] = a + 0.3;
    }
    out.clear();
    tree.WindowQuery(Box(lo, hi), &out);
    benchmark::DoNotOptimize(out.data());
    matched = out.size();
  }
  state.counters["last_matches"] = static_cast<double>(matched);
}

}  // namespace
}  // namespace galaxy::bench

BENCHMARK(galaxy::bench::BM_RTreeBulkLoad)
    ->Name("substrate-rtree/bulk-load")
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(galaxy::bench::BM_RTreeInsert)
    ->Name("substrate-rtree/insert")
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(galaxy::bench::BM_RTreeWindowQuery)
    ->Name("substrate-rtree/window-query")
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

int main(int argc, char** argv) {
  galaxy::bench::RegisterRecordSkyline();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
