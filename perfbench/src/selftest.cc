// Self-tests of the benchmark's inputs: request streams and tables are a
// pure function of the seed, and the cold workloads never repeat a SQL
// text. Exits 0 when every check passes.

#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "inputs.h"

namespace {

using perfbench::Request;
using perfbench::RequestSource;

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s: %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

std::vector<std::string> Take(RequestSource& source, size_t n) {
  std::vector<std::string> out;
  for (size_t i = 0; i < n; ++i) {
    const Request request = *source.Next();
    out.push_back(request.method + " " + request.target + "\n" + request.body);
  }
  return out;
}

template <typename MakeSource>
void CheckStream(const std::string& name, MakeSource make, size_t n) {
  auto a = make(7);
  auto b = make(7);
  auto c = make(8);
  const std::vector<std::string> first = Take(*a, n);
  Expect(first == Take(*b, n), name + ": same seed gives the same stream");
  Expect(first != Take(*c, n), name + ": another seed gives another stream");
}

void CheckNoRepeats(const std::string& name, RequestSource& source,
                    size_t n) {
  std::set<std::string> seen;
  for (size_t i = 0; i < n; ++i) seen.insert(source.Next()->body);
  Expect(seen.size() == n,
         name + ": no SQL text repeats in " + std::to_string(n) + " requests");
}

std::string Digest(const std::vector<galaxy::Row>& rows) {
  std::string out;
  for (const galaxy::Row& row : rows) {
    for (const galaxy::Value& value : row) out += value.ToString() + ",";
    out += "\n";
  }
  return out;
}

}  // namespace

int main() {
  using namespace perfbench;
  constexpr size_t kStream = 5000;
  // More requests than one run sends (a run sends a few thousand).
  constexpr size_t kUnique = 20000;

  CheckStream("skyline_cold", [](uint64_t s) {
    return std::make_unique<SkylineColdSource>(s);
  }, kStream);
  CheckStream("sql_baseline", [](uint64_t s) {
    return std::make_unique<SqlBaselineSource>(s);
  }, 1000);
  CheckStream("update_mix", [](uint64_t s) {
    return std::make_unique<UpdateMixSource>(s, 200);
  }, kStream);
  CheckStream("update_mix writes", [](uint64_t s) {
    return std::make_unique<UpdateSource>(s, 200);
  }, kStream);
  CheckStream("update_mix aggregates", [](uint64_t s) {
    return std::make_unique<CycleSource>(EventAggregateQueries(s, 8), s, false);
  }, 64);
  CheckStream("update_mix hot set", [](uint64_t s) {
    return std::make_unique<CycleSource>(NbaHotSet(s), s, true);
  }, 1000);

  SkylineColdSource cold(3);
  CheckNoRepeats("skyline_cold", cold, kUnique);
  SqlBaselineSource baseline(3);
  CheckNoRepeats("sql_baseline", baseline, kUnique);

  // Removes only ever name rows the stream inserted before.
  UpdateSource updates(5, 200);
  std::multiset<std::string> live;
  bool removes_ok = true;
  for (size_t i = 0; i < kStream; ++i) {
    const Request r = *updates.Next();
    if (r.insert) {
      live.insert(r.body);
    } else if (live.count(r.body) == 0) {
      removes_ok = false;
    } else {
      live.erase(live.find(r.body));
    }
  }
  Expect(removes_ok && live.size() <= UpdateSource::kUpdateLag + 1,
         "update_mix: removes delete earlier inserts and the size stays level");

  // The mix follows its cycle, whatever the seed.
  UpdateMixSource mix(7, 200);
  const std::string cycle = UpdateMixSource::kCycle;
  bool cycle_ok = true;
  for (size_t i = 0; i < 10 * cycle.size(); ++i) {
    static constexpr char kLetters[kNumMixOps + 1] = "uvah";
    const MixOp op = MixOpOf(*mix.Next());
    cycle_ok = cycle_ok &&
               kLetters[static_cast<int>(op)] == cycle[i % cycle.size()];
  }
  Expect(cycle_ok, "update_mix: operations follow UpdateMixSource::kCycle");

  GroupedShape shape;
  shape.records = 2000;
  Rng r1(9, 1), r2(9, 1), r3(10, 1);
  const std::string t1 = Digest(GroupedRows(MakeGroupedPoints(shape, r1), true));
  Expect(t1 == Digest(GroupedRows(MakeGroupedPoints(shape, r2), true)),
         "tables: same seed gives the same rows");
  Expect(t1 != Digest(GroupedRows(MakeGroupedPoints(shape, r3), true)),
         "tables: another seed gives other rows");
  Rng n1(9, 2), n2(9, 2);
  Expect(Digest(NbaRows(n1)) == Digest(NbaRows(n2)),
         "nba: same seed gives the same rows");
  shape.sizes = GroupSizes::kZipf;
  Rng z(4, 1);
  Expect(MakeGroupedPoints(shape, z).total_records() == shape.records,
         "zipf shape keeps the record count");

  std::printf("%s\n", failures == 0 ? "all self-tests passed"
                                    : "self-tests FAILED");
  return failures == 0 ? 0 : 1;
}
