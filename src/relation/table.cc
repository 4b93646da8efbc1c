#include "relation/table.h"

#include <algorithm>
#include <sstream>

#include "common/logging.h"

namespace galaxy {

namespace {

bool TypeAccepts(ValueType column, ValueType value) {
  if (value == ValueType::kNull) return true;
  if (column == value) return true;
  if (column == ValueType::kDouble && value == ValueType::kInt64) return true;
  return false;
}

Status CheckRowAgainstSchema(const Schema& schema, const Row& row) {
  if (row.size() != schema.num_columns()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(row.size()) + " does not match schema " +
        schema.ToString());
  }
  for (size_t c = 0; c < row.size(); ++c) {
    if (!TypeAccepts(schema.column(c).type, row[c].type())) {
      return Status::TypeError("column '" + schema.column(c).name +
                               "' expects " +
                               ValueTypeToString(schema.column(c).type) +
                               ", got " + ValueTypeToString(row[c].type()));
    }
  }
  return Status::OK();
}

// One FindRow cell, dispatched once on (column type, value type) so the
// row scan compares typed cells without boxing. Matches exactly when
// Value::operator== would: int and double compare numerically (so NaN never
// matches), NULL matches only NULL, and a type mismatch never matches.
class CellProbe {
 public:
  CellProbe(const Column& col, const Value& v) : col_(col) {
    const ValueType t = col.type();
    switch (v.type()) {
      case ValueType::kNull:
        kind_ = Kind::kNull;
        break;
      case ValueType::kInt64:
        if (t == ValueType::kInt64) {
          kind_ = Kind::kInt;
          int_ = v.AsInt64();
        } else if (t == ValueType::kDouble) {
          kind_ = Kind::kDouble;
          double_ = static_cast<double>(v.AsInt64());
        }
        break;
      case ValueType::kDouble:
        if (t == ValueType::kInt64) {
          kind_ = Kind::kIntAsDouble;
          double_ = v.AsDouble();
        } else if (t == ValueType::kDouble) {
          kind_ = Kind::kDouble;
          double_ = v.AsDouble();
        }
        break;
      case ValueType::kString:
        if (t == ValueType::kString) {
          kind_ = Kind::kString;
          string_ = &v.AsString();
        }
        break;
    }
    if (kind_ == Kind::kNull && col.null_count() == 0) kind_ = Kind::kNever;
    switch (kind_) {
      case Kind::kInt:
      case Kind::kIntAsDouble:
        ints_ = col.ints();
        break;
      case Kind::kDouble:
        doubles_ = col.doubles();
        break;
      case Kind::kString:
        strings_ = col.strings();
        break;
      case Kind::kNever:
      case Kind::kNull:
        break;
    }
  }

  /// True when no cell can match.
  bool never() const { return kind_ == Kind::kNever; }

  bool Matches(size_t r) const {
    if (col_.is_null(r)) return kind_ == Kind::kNull;
    switch (kind_) {
      case Kind::kInt:
        return ints_[r] == int_;
      case Kind::kIntAsDouble:
        return static_cast<double>(ints_[r]) == double_;
      case Kind::kDouble:
        return doubles_[r] == double_;
      case Kind::kString:
        return strings_[r] == *string_;
      case Kind::kNull:
      case Kind::kNever:
        break;
    }
    return false;
  }

 private:
  enum class Kind { kNever, kNull, kInt, kIntAsDouble, kDouble, kString };

  const Column& col_;
  Kind kind_ = Kind::kNever;
  int64_t int_ = 0;
  double double_ = 0.0;
  const std::string* string_ = nullptr;
  std::span<const int64_t> ints_;
  std::span<const double> doubles_;
  std::span<const std::string> strings_;
};

}  // namespace

Table::Table(Schema schema, std::vector<Column> columns)
    : schema_(std::move(schema)), columns_(std::move(columns)) {
  GALAXY_CHECK_EQ(columns_.size(), schema_.num_columns());
  for (size_t c = 0; c < columns_.size(); ++c) {
    GALAXY_CHECK(columns_[c].type() == schema_.column(c).type)
        << "column '" << schema_.column(c).name << "' storage type mismatch";
    if (c == 0) {
      num_rows_ = columns_[c].size();
    } else {
      GALAXY_CHECK_EQ(columns_[c].size(), num_rows_);
    }
  }
}

Table::Table(Schema schema, const std::vector<Row>& rows)
    : schema_(std::move(schema)) {
  columns_.reserve(schema_.num_columns());
  for (size_t c = 0; c < schema_.num_columns(); ++c) {
    Column col{schema_.column(c).type};
    col.Reserve(rows.size());
    columns_.push_back(std::move(col));
  }
  for (const Row& row : rows) {
    Status s = CheckRowAgainstSchema(schema_, row);
    GALAXY_CHECK(s.ok()) << s.ToString();
    for (size_t c = 0; c < row.size(); ++c) {
      columns_[c].AppendValue(row[c]);
    }
  }
  num_rows_ = rows.size();
}

Result<Value> Table::at(size_t row, const std::string& column) const {
  if (row >= num_rows_) {
    return Status::OutOfRange("row index " + std::to_string(row) +
                              " out of range");
  }
  GALAXY_ASSIGN_OR_RETURN(size_t col, schema_.IndexOf(column));
  return columns_[col].GetValue(row);
}

Row Table::MaterializeRow(size_t i) const {
  Row row;
  row.reserve(columns_.size());
  for (const Column& col : columns_) {
    row.push_back(col.GetValue(i));
  }
  return row;
}

std::vector<Row> Table::DebugRows() const {
  std::vector<Row> rows;
  rows.reserve(num_rows_);
  for (size_t r = 0; r < num_rows_; ++r) {
    rows.push_back(MaterializeRow(r));
  }
  return rows;
}

std::optional<size_t> Table::FindRow(const Row& row) const {
  if (row.size() != columns_.size()) return std::nullopt;
  std::vector<CellProbe> probes;
  probes.reserve(columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) {
    probes.emplace_back(columns_[c], row[c]);
    if (probes.back().never()) return std::nullopt;
  }
  for (size_t r = 0; r < num_rows_; ++r) {
    bool match = true;
    for (const CellProbe& probe : probes) {
      if (!probe.Matches(r)) {
        match = false;
        break;
      }
    }
    if (match) return r;
  }
  return std::nullopt;
}

Result<Table> Table::CopyWithAppended(const Row& row) const {
  GALAXY_RETURN_IF_ERROR(CheckRowAgainstSchema(schema_, row));
  std::vector<Column> columns = columns_;  // shares every buffer: O(columns)
  for (size_t c = 0; c < columns.size(); ++c) {
    columns[c].AppendValue(row[c]);
  }
  return Table(schema_, std::move(columns));
}

Result<Table> Table::CopyWithRemoved(const Row& row) const {
  std::optional<size_t> target = FindRow(row);
  if (!target.has_value()) {
    return Status::NotFound("no row matching the remove body");
  }
  std::vector<Column> columns;
  columns.reserve(columns_.size());
  for (const Column& col : columns_) {
    columns.push_back(col.CopyWithout(*target));
  }
  return Table(schema_, std::move(columns));
}

Result<std::vector<std::vector<double>>> Table::ExtractNumeric(
    const std::vector<std::string>& columns) const {
  std::vector<size_t> indexes;
  indexes.reserve(columns.size());
  for (const std::string& name : columns) {
    GALAXY_ASSIGN_OR_RETURN(size_t idx, schema_.IndexOf(name));
    indexes.push_back(idx);
  }
  std::vector<std::vector<double>> out;
  out.reserve(num_rows_);
  for (size_t r = 0; r < num_rows_; ++r) {
    std::vector<double> point(indexes.size());
    for (size_t k = 0; k < indexes.size(); ++k) {
      GALAXY_ASSIGN_OR_RETURN(point[k],
                              columns_[indexes[k]].GetValue(r).ToDouble());
    }
    out.push_back(std::move(point));
  }
  return out;
}

Result<Table::NumericColumns> Table::ExtractNumericColumns(
    const std::vector<std::string>& columns) const {
  NumericColumns out;
  out.slices.reserve(columns.size());
  // Reserve so `owned` never reallocates under an aliasing span.
  out.owned.reserve(columns.size());
  for (const std::string& name : columns) {
    GALAXY_ASSIGN_OR_RETURN(size_t idx, schema_.IndexOf(name));
    const Column& col = columns_[idx];
    if (num_rows_ == 0) {
      // An empty relation extracts as empty slices whatever the declared
      // types — matching the row-major path, which never inspects a cell.
      out.slices.emplace_back();
      continue;
    }
    if (col.has_nulls() || col.type() == ValueType::kNull) {
      return Status::TypeError("cannot convert NULL to double");
    }
    switch (col.type()) {
      case ValueType::kDouble:
        out.slices.push_back(col.doubles());
        break;
      case ValueType::kInt64: {
        std::span<const int64_t> ints = col.ints();
        std::vector<double> converted(ints.begin(), ints.end());
        out.owned.push_back(std::move(converted));
        out.slices.emplace_back(out.owned.back().data(),
                                out.owned.back().size());
        break;
      }
      case ValueType::kNull:
        out.slices.emplace_back();  // empty column
        break;
      case ValueType::kString:
        return Status::TypeError("cannot convert STRING to double");
    }
  }
  return out;
}

std::string Table::ToString(size_t max_rows) const {
  // Compute column widths over header and the printed rows.
  size_t n = std::min(max_rows, num_rows_);
  std::vector<size_t> width(schema_.num_columns());
  for (size_t c = 0; c < schema_.num_columns(); ++c) {
    width[c] = schema_.column(c).name.size();
  }
  std::vector<std::vector<std::string>> cells(n);
  for (size_t r = 0; r < n; ++r) {
    cells[r].resize(schema_.num_columns());
    for (size_t c = 0; c < schema_.num_columns(); ++c) {
      cells[r][c] = columns_[c].GetValue(r).ToString();
      width[c] = std::max(width[c], cells[r][c].size());
    }
  }
  std::ostringstream os;
  auto rule = [&] {
    os << "+";
    for (size_t c = 0; c < width.size(); ++c) {
      os << std::string(width[c] + 2, '-') << "+";
    }
    os << "\n";
  };
  rule();
  os << "|";
  for (size_t c = 0; c < width.size(); ++c) {
    const std::string& name = schema_.column(c).name;
    os << " " << name << std::string(width[c] - name.size(), ' ') << " |";
  }
  os << "\n";
  rule();
  for (size_t r = 0; r < n; ++r) {
    os << "|";
    for (size_t c = 0; c < width.size(); ++c) {
      os << " " << cells[r][c] << std::string(width[c] - cells[r][c].size(), ' ')
         << " |";
    }
    os << "\n";
  }
  rule();
  if (n < num_rows_) {
    os << "... " << (num_rows_ - n) << " more rows\n";
  }
  return os.str();
}

TableBuilder::TableBuilder(Schema schema) : schema_(std::move(schema)) {
  columns_.reserve(schema_.num_columns());
  for (size_t c = 0; c < schema_.num_columns(); ++c) {
    columns_.emplace_back(schema_.column(c).type);
  }
}

TableBuilder& TableBuilder::AddRow(Row row) {
  Status s = TryAddRow(std::move(row));
  GALAXY_CHECK(s.ok()) << s.ToString();
  return *this;
}

Status TableBuilder::TryAddRow(Row row) {
  GALAXY_RETURN_IF_ERROR(CheckRowAgainstSchema(schema_, row));
  for (size_t c = 0; c < row.size(); ++c) {
    columns_[c].AppendValue(row[c]);
  }
  ++num_rows_;
  return Status::OK();
}

Table TableBuilder::Build() {
  num_rows_ = 0;
  return Table(schema_, std::move(columns_));
}

}  // namespace galaxy
