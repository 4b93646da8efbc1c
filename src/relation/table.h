#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "relation/column.h"
#include "relation/schema.h"
#include "relation/value.h"

namespace galaxy {

/// A materialized tuple.
using Row = std::vector<Value>;

/// An immutable in-memory relation: a schema plus column-major (SoA)
/// storage — one typed Column vector per schema column (see
/// relation/column.h). Tables are the substrate shared by the SQL engine,
/// the record-skyline operators and the aggregate-skyline operator.
/// Construct with TableBuilder, which type-checks every appended row, or
/// directly from typed columns.
///
/// Hot paths read whole columns (`column(c)` and the typed payload
/// accessors) instead of materializing rows; `MaterializeRow`/`DebugRows`
/// exist for debug, test and seeding paths only and are lint-restricted
/// outside src/relation/ (galaxy_lint rule `row-major-access`).
class Table {
 public:
  Table() = default;

  /// Primary constructor: one typed column per schema column, all the same
  /// length. Column types must match the schema (checked).
  Table(Schema schema, std::vector<Column> columns);

  /// Convenience constructor converting row-major input (tests, small
  /// fixtures). Cell types must match the schema modulo int->double
  /// widening and NULLs (checked).
  Table(Schema schema, const std::vector<Row>& rows);

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return schema_.num_columns(); }

  /// Column accessors — the batch-execution interface.
  const Column& column(size_t c) const { return columns_[c]; }
  const std::vector<Column>& columns() const { return columns_; }

  /// Cell accessor by row index and column index (boxes the cell).
  Value at(size_t row, size_t col) const { return columns_[col].GetValue(row); }

  /// Cell accessor by row index and column name.
  Result<Value> at(size_t row, const std::string& column) const;

  /// Materializes one row as boxed values (copies every cell). Debug, test
  /// and view-seeding paths only; not for per-row query execution.
  Row MaterializeRow(size_t i) const;

  /// Materializes every row. Debug and test assertions only.
  std::vector<Row> DebugRows() const;

  /// Index of the first row equal to `row` (Value equality, so int 3
  /// matches double 3.0, NULL matches NULL and NaN matches nothing), or
  /// nullopt. Compares typed cells; nothing is boxed.
  std::optional<size_t> FindRow(const Row& row) const;

  /// Copy-on-write helpers for the immutable-snapshot update path; `this`
  /// stays valid and unchanged. CopyWithAppended shares every column buffer
  /// and appends at its tip (O(columns); see Column for when an append
  /// copies instead) and type-checks like TableBuilder::TryAddRow.
  /// CopyWithRemoved copies the typed columns minus the first FindRow
  /// match, keeping the order of the rest.
  Result<Table> CopyWithAppended(const Row& row) const;
  Result<Table> CopyWithRemoved(const Row& row) const;

  /// Extracts the named numeric columns of every row into dense points
  /// (row-major), the input format of the record-skyline operators. Fails
  /// on non-numeric or NULL cells.
  Result<std::vector<std::vector<double>>> ExtractNumeric(
      const std::vector<std::string>& columns) const;

  /// Column-major variant: one contiguous double slice per requested
  /// column. For kDouble columns the span aliases the column storage
  /// directly (zero-copy: pointer-identical to `column(c).doubles()`);
  /// kInt64 columns are converted once into `owned`. Fails on NULL cells
  /// and non-numeric columns.
  struct NumericColumns {
    std::vector<std::span<const double>> slices;
    // Backing store for converted (non-double) columns; slices may point
    // into it, so move it together with them.
    std::vector<std::vector<double>> owned;
  };
  Result<NumericColumns> ExtractNumericColumns(
      const std::vector<std::string>& columns) const;

  /// Renders an ASCII table (for examples and debugging).
  std::string ToString(size_t max_rows = 50) const;

 private:
  Schema schema_;
  size_t num_rows_ = 0;
  std::vector<Column> columns_;
};

/// Builds a Table row by row with type checking, appending straight into
/// typed columns. Int64 values are accepted into DOUBLE columns (widening);
/// all other mismatches are errors.
class TableBuilder {
 public:
  explicit TableBuilder(Schema schema);

  /// Appends a row; returns *this for chaining. Aborts on arity or type
  /// mismatch — use TryAddRow in code paths that handle untrusted input.
  TableBuilder& AddRow(Row row);

  /// Appends a row; returns an error on arity or type mismatch.
  Status TryAddRow(Row row);

  /// Number of rows appended so far.
  size_t num_rows() const { return num_rows_; }

  /// Finalizes the table, consuming the accumulated columns.
  Table Build();

 private:
  Schema schema_;
  size_t num_rows_ = 0;
  std::vector<Column> columns_;
};

}  // namespace galaxy
