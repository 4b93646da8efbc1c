#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "sql/skyline_query.h"

namespace perfbench {

using galaxy::ColumnDef;
using galaxy::Row;
using galaxy::Schema;
using galaxy::Value;
using galaxy::ValueType;

double Rng::Gaussian(double mean, double stddev) {
  // Box-Muller; 1 - U keeps the logarithm's argument in (0, 1].
  const double u1 = 1.0 - Uniform();
  const double u2 = Uniform();
  return mean + stddev * std::sqrt(-2.0 * std::log(u1)) *
                    std::cos(2.0 * 3.14159265358979323846 * u2);
}

size_t GroupedPoints::total_records() const {
  size_t total = 0;
  for (const auto& group : data) total += group.size() / dims;
  return total;
}

namespace {

double Clamp01(double v) { return std::clamp(v, 0.0, 1.0); }

std::vector<double> SampleCentre(Distribution distribution, size_t dims,
                                 Rng& rng) {
  std::vector<double> p(dims);
  if (distribution == Distribution::kIndependent) {
    for (double& v : p) v = rng.Uniform();
    return p;
  }
  // Anti-correlated: points near the plane sum = dims * v, v around 0.5,
  // so being good in one attribute means being bad in another.
  const double v = Clamp01(rng.Gaussian(0.5, 0.08));
  double mean = 0.0;
  for (double& o : p) {
    o = rng.Uniform();
    mean += o;
  }
  mean /= static_cast<double>(dims);
  for (double& o : p) o = Clamp01(v + (o - mean));
  return p;
}

std::string FormatGamma(double gamma) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6f", gamma);
  return buf;
}

/// γ with six decimals in [0.5, 0.9); the parsed value is what both the
/// server and the answer check see.
double DrawGamma(Rng& rng) {
  return std::stod(FormatGamma(rng.Uniform(0.5, 0.9)));
}

Request QueryRequest(std::string sql) {
  Request request;
  request.body = std::move(sql);
  return request;
}

}  // namespace

GroupedPoints MakeGroupedPoints(const GroupedShape& shape, Rng& rng) {
  const size_t num_groups = std::max<size_t>(1, shape.records / shape.per_group);
  GroupedPoints points;
  points.dims = shape.dims;
  points.data.resize(num_groups);
  const int width = num_groups > 1000 ? 4 : num_groups > 100 ? 3 : 2;
  for (size_t g = 0; g < num_groups; ++g) {
    char label[32];
    std::snprintf(label, sizeof(label), "%s%0*zu", shape.label_prefix.c_str(),
                  width, g);
    points.labels.push_back(label);
  }

  const double half = shape.spread / 2.0;
  std::vector<std::vector<double>> centres;
  for (size_t g = 0; g < num_groups; ++g) {
    std::vector<double> c = SampleCentre(shape.distribution, shape.dims, rng);
    for (double& v : c) v = half + v * (1.0 - shape.spread);
    centres.push_back(std::move(c));
  }

  // Every group gets at least one record; uniform groups are equal-sized,
  // Zipf groups (θ = 1) draw the remaining records by rank.
  std::vector<size_t> sizes(num_groups, 1);
  if (shape.sizes == GroupSizes::kUniform) {
    for (size_t r = num_groups; r < shape.records; ++r) {
      ++sizes[r % num_groups];
    }
  } else {
    std::vector<double> cdf(num_groups);
    double total = 0.0;
    for (size_t g = 0; g < num_groups; ++g) {
      total += 1.0 / static_cast<double>(g + 1);
      cdf[g] = total;
    }
    for (size_t r = num_groups; r < shape.records; ++r) {
      const double u = rng.Uniform() * total;
      const size_t g = static_cast<size_t>(
          std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      ++sizes[std::min(g, num_groups - 1)];
    }
  }

  for (size_t g = 0; g < num_groups; ++g) {
    std::vector<double>& out = points.data[g];
    out.reserve(sizes[g] * shape.dims);
    for (size_t r = 0; r < sizes[g]; ++r) {
      for (size_t i = 0; i < shape.dims; ++i) {
        out.push_back(Clamp01(centres[g][i] + rng.Uniform(-half, half)));
      }
    }
  }
  return points;
}

std::vector<std::string> AttrNames(size_t dims) {
  std::vector<std::string> names;
  for (size_t i = 0; i < dims; ++i) {
    std::string name = "a";
    name += std::to_string(i);
    names.push_back(std::move(name));
  }
  return names;
}

Schema GroupedSchema(size_t dims, bool with_num) {
  std::vector<ColumnDef> columns{{"class", ValueType::kString}};
  if (with_num) columns.push_back({"num", ValueType::kInt64});
  for (const std::string& name : AttrNames(dims)) {
    columns.push_back({name, ValueType::kDouble});
  }
  return Schema(std::move(columns));
}

std::vector<Row> GroupedRows(const GroupedPoints& points, bool with_num) {
  std::vector<Row> rows;
  rows.reserve(points.total_records());
  for (size_t g = 0; g < points.data.size(); ++g) {
    const std::vector<double>& data = points.data[g];
    const size_t n = data.size() / points.dims;
    for (size_t r = 0; r < n; ++r) {
      Row row;
      row.reserve(2 + points.dims);
      row.emplace_back(points.labels[g]);
      if (with_num) row.emplace_back(static_cast<int64_t>(n));
      for (size_t i = 0; i < points.dims; ++i) {
        row.emplace_back(data[r * points.dims + i]);
      }
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

Schema NbaSchema() {
  return Schema({{"team", ValueType::kString},
                 {"player", ValueType::kString},
                 {"season", ValueType::kInt64},
                 {"pts", ValueType::kDouble},
                 {"reb", ValueType::kDouble},
                 {"ast", ValueType::kDouble},
                 {"stl", ValueType::kDouble},
                 {"blk", ValueType::kDouble}});
}

std::vector<Row> NbaRows(Rng& rng) {
  constexpr size_t kPlayers = 750;
  constexpr size_t kSeasons = 20;
  constexpr size_t kTeams = 30;
  std::vector<Row> rows;
  rows.reserve(kPlayers * kSeasons);
  for (size_t p = 0; p < kPlayers; ++p) {
    char player[16];
    std::snprintf(player, sizeof(player), "P%04zu", p);
    const double skill = rng.Gaussian(0.0, 1.0);
    const double big = rng.Uniform();  // 0 = guard, 1 = centre
    const size_t first_team = rng.Below(kTeams);
    for (size_t s = 0; s < kSeasons; ++s) {
      char team[8];
      std::snprintf(team, sizeof(team), "T%02zu", (first_team + s / 5) % kTeams);
      const double form = skill + rng.Gaussian(0.0, 0.5);
      auto stat = [&](double base, double scale, double noise) {
        return std::max(0.0, base + scale * form + rng.Gaussian(0.0, noise));
      };
      Row row;
      row.emplace_back(std::string(team));
      row.emplace_back(std::string(player));
      row.emplace_back(static_cast<int64_t>(1990 + s));
      row.emplace_back(stat(12.0, 5.0, 3.0));
      row.emplace_back(stat(3.0 + 6.0 * big, 2.0, 1.5));
      row.emplace_back(stat(5.0 - 3.5 * big, 1.5, 1.2));
      row.emplace_back(stat(1.0, 0.3, 0.3));
      row.emplace_back(stat(0.2 + 1.2 * big, 0.4, 0.3));
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

std::string ToHttp(const Request& request) {
  std::string out = request.method + " " + request.target +
                    " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
  if (!request.body.empty() || request.method == "POST") {
    out += "Content-Length: " + std::to_string(request.body.size()) + "\r\n";
  }
  out += "\r\n";
  out += request.body;
  return out;
}

std::optional<Request> SkylineColdSource::Next() {
  static const std::vector<std::string> kAttrs = AttrNames(4);
  for (;;) {
    // A random non-empty subset of a0..a3 with 2 to 4 members.
    std::vector<std::string> attrs;
    while (attrs.size() < 2) {
      attrs.clear();
      const uint64_t mask = rng_.Below(16);
      for (size_t i = 0; i < 4; ++i) {
        if (mask & (uint64_t{1} << i)) attrs.push_back(kAttrs[i]);
      }
    }
    const double gamma = DrawGamma(rng_);
    std::string sql = "SELECT class FROM data GROUP BY class SKYLINE OF ";
    for (size_t i = 0; i < attrs.size(); ++i) {
      if (i > 0) sql += ", ";
      sql += attrs[i] + " MAX";
    }
    sql += " GAMMA " + FormatGamma(gamma);
    if (!seen_.insert(sql).second) continue;
    Request request = QueryRequest(std::move(sql));
    request.attrs = std::move(attrs);
    request.gamma = gamma;
    return request;
  }
}

std::optional<Request> SqlBaselineSource::Next() {
  for (;;) {
    const double gamma = DrawGamma(rng_);
    std::string sql = galaxy::sql::BuildAggregateSkylineSql(
        "fig8", "class", "num", {"a0", "a1"}, gamma);
    if (!seen_.insert(sql).second) continue;
    Request request = QueryRequest(std::move(sql));
    request.attrs = {"a0", "a1"};
    request.gamma = gamma;
    return request;
  }
}

std::optional<Request> UpdateSource::Next() {
  Request request;
  request.kind = OpKind::kUpdate;
  const bool insert = ops_ < kUpdateLag || (ops_ - kUpdateLag) % 2 == 1;
  ++ops_;
  if (insert) {
    char row[96];
    const double a0 = rng_.Uniform();
    const double a1 = rng_.Uniform();
    const double a2 = rng_.Uniform();
    std::snprintf(row, sizeof(row), "c%03zu,%.6f,%.6f,%.6f",
                  static_cast<size_t>(rng_.Below(num_groups_)), a0, a1, a2);
    inserted_.push_back(row);
    request.body = row;
  } else {
    request.body = inserted_.front();
    inserted_.pop_front();
  }
  request.insert = insert;
  request.target =
      std::string("/update?table=events&op=") + (insert ? "insert" : "remove");
  return request;
}

std::optional<Request> CycleSource::Next() {
  if (requests_.empty()) return std::nullopt;
  if (shuffled_) return requests_[rng_.Below(requests_.size())];
  Request request = requests_[next_];
  next_ = (next_ + 1) % requests_.size();
  return request;
}

std::vector<Request> EventAggregateQueries(uint64_t seed, size_t count) {
  Rng rng(seed, 15);
  std::vector<Request> out;
  for (size_t i = 0; i < count; ++i) {
    // Thresholds spread evenly over [0.1, 0.9], jittered per seed.
    const double threshold =
        0.1 + 0.8 * (static_cast<double>(i) + rng.Uniform(0.0, 0.05)) /
                  static_cast<double>(count);
    char sql[160];
    std::snprintf(sql, sizeof(sql),
                  "SELECT class, COUNT(*), AVG(a0), MAX(a2) FROM events "
                  "WHERE a1 > %.6f GROUP BY class",
                  threshold);
    out.push_back(QueryRequest(sql));
  }
  return out;
}

Request ViewRequest() {
  Request request;
  request.kind = OpKind::kView;
  request.method = "GET";
  request.target = "/skyline";
  return request;
}

UpdateMixSource::UpdateMixSource(uint64_t seed, size_t num_groups)
    : updates_(seed, num_groups),
      aggregates_(EventAggregateQueries(seed, 8), seed, false),
      hot_(NbaHotSet(seed), seed, true) {}

MixOp MixOpOf(const Request& request) {
  switch (request.kind) {
    case OpKind::kUpdate:
      return MixOp::kUpdate;
    case OpKind::kView:
      return MixOp::kView;
    case OpKind::kQuery:
      break;
  }
  return request.hot ? MixOp::kHot : MixOp::kAggregate;
}

std::optional<Request> UpdateMixSource::Next() {
  const char op = kCycle[position_];
  position_ = (position_ + 1) % std::strlen(kCycle);
  switch (op) {
    case 'u':
      return updates_.Next();
    case 'v':
      return ViewRequest();
    case 'a':
      return aggregates_.Next();
    default:
      return hot_.Next();
  }
}

std::vector<Request> NbaHotSet(uint64_t seed) {
  Rng rng(seed, 16);
  static const std::vector<std::vector<std::string>> kAttrSets = {
      {"pts", "reb"},        {"pts", "ast"},        {"reb", "blk"},
      {"pts", "reb", "ast"}, {"ast", "stl"},        {"pts", "stl", "blk"},
      {"reb", "ast", "blk"}, {"pts", "reb", "ast", "stl"}};
  std::vector<Request> out;
  for (size_t i = 0; i < 8; ++i) {
    const std::string key = i < 4 ? "team" : "player";
    const std::vector<std::string>& attrs =
        kAttrSets[(i + rng.Below(kAttrSets.size())) % kAttrSets.size()];
    std::string sql = "SELECT " + key + " FROM nba GROUP BY " + key +
                      " SKYLINE OF ";
    for (size_t a = 0; a < attrs.size(); ++a) {
      if (a > 0) sql += ", ";
      sql += attrs[a] + " MAX";
    }
    sql += " GAMMA " + FormatGamma(DrawGamma(rng));
    Request request = QueryRequest(std::move(sql));
    request.hot = true;
    out.push_back(std::move(request));
  }
  return out;
}

}  // namespace perfbench
