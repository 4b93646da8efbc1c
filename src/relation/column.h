#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "relation/value.h"

namespace galaxy {

/// A typed column: the storage unit of the column-major (SoA)
/// relation::Table. Cells live in one dense typed array selected by
/// `type()`; NULLs occupy a zero/empty slot in that array and are marked in
/// a validity bitmap (bit set = valid). The bitmap is materialized lazily on
/// the first NULL, so fully-valid columns carry no per-row overhead. A
/// column whose type is kNull holds only NULLs and stores no typed payload.
///
/// Versions: the typed array and the bitmap live in a fixed-capacity buffer
/// that every copy of a column shares (Table::CopyWithAppended copies each
/// column, then appends to the copy). A column keeps its own length and sees
/// only the buffer prefix [0, size()). An append
///   - pushes in place while the column is the buffer's sole owner (the
///     build paths: never copied, no atomic read-modify-write);
///   - on a shared buffer, writes in place only at the tip: capacity must
///     remain and a CAS of the buffer's committed length from size() to
///     size()+1 must succeed;
///   - otherwise copies [0, size()) into a new buffer of twice that length.
/// A shared buffer is never reallocated and a written slot is never
/// rewritten, so an older version keeps reading a stable prefix without a
/// lock while a newer one appends past it.
///
/// Scans read the typed arrays directly (`doubles()`, `ints()`,
/// `strings()`, each sized to this version) — this is what the batch
/// executor and the dominance-kernel gather paths are built on. `GetValue`
/// materializes a single cell as a boxed Value for the scalar paths.
class Column {
 public:
  Column() = default;
  explicit Column(ValueType type) : type_(type) {}

  /// Copies share the buffer (O(1)); appends to either side then follow the
  /// shared-buffer rule above.
  Column(const Column& other);
  Column& operator=(const Column& other);
  Column(Column&& other) noexcept;
  Column& operator=(Column&& other) noexcept;

  ValueType type() const { return type_; }
  size_t size() const { return size_; }
  size_t null_count() const { return null_count_; }
  bool has_nulls() const { return null_count_ > 0; }

  /// True when row `i` is NULL.
  bool is_null(size_t i) const {
    if (null_count_ == 0) return false;
    // Relaxed: a newer version may be setting a later bit of the same word.
    return (valid_[i >> 6].load(std::memory_order_relaxed) &
            (uint64_t{1} << (i & 63))) == 0;
  }

  /// Capacity hint for a column being built; no effect on a shared buffer.
  void Reserve(size_t n);

  /// Typed appends. The caller must match the column type (checked).
  void AppendNull();
  void AppendInt64(int64_t v);
  void AppendDouble(double v);
  void AppendString(std::string v);

  /// Appends a boxed value. NULL is always accepted; kInt64 widens into
  /// kDouble columns. Any other mismatch aborts (programming error — use
  /// TableBuilder::TryAddRow for untrusted input).
  void AppendValue(const Value& v);

  /// Materializes cell `i` as a boxed Value (copies strings).
  Value GetValue(size_t i) const;

  /// This column without row `i`, in a new buffer (O(size)); the order of
  /// the remaining rows is kept.
  Column CopyWithout(size_t i) const;

  /// Dense typed payloads of length size(); valid only for the matching
  /// type(). NULL slots hold 0 / 0.0 / "" and must be masked with is_null().
  std::span<const int64_t> ints() const;
  std::span<const double> doubles() const;
  std::span<const std::string> strings() const;

 private:
  struct Buffer;

  // Makes slot size() writable under the append rule (switching buffers if
  // needed), then writes its validity bit and advances the length; the
  // caller stores the payload into slot size() - 1.
  void BeginAppend(bool valid);
  // Switches to a new unshared buffer of `capacity` slots holding this
  // column's rows, moving strings out of the old buffer when `steal` (sole
  // owner only). The new buffer has a bitmap only if the column has NULLs.
  void Rebuffer(size_t capacity, bool steal);

  ValueType type_ = ValueType::kNull;
  size_t size_ = 0;
  size_t null_count_ = 0;
  std::shared_ptr<Buffer> buf_;
  // The buffer's bitmap (null until one exists), cached for is_null.
  const std::atomic<uint64_t>* valid_ = nullptr;
};

/// Accumulates dynamically typed output values into a Column, inferring the
/// type incrementally: the first non-null value fixes the type, an
/// int/double mix widens the column (rewriting already-appended ints) and
/// any other mix is a TypeError. This replaces the executor's old two-pass
/// result materialization (a full O(rows x cols) InferType scan followed by
/// a row-by-row TableBuilder rebuild) with a single append pass.
class ValueColumnBuilder {
 public:
  /// `name` is used in TypeError messages only.
  explicit ValueColumnBuilder(std::string name) : name_(std::move(name)) {}

  Status Append(const Value& v);

  /// Type inferred so far (kNull until the first non-null value).
  ValueType type() const { return column_.type(); }
  size_t size() const { return column_.size(); }

  /// Finalizes the column; an all-null column takes `fallback_type`.
  Column Build(ValueType fallback_type) &&;

 private:
  std::string name_;
  Column column_;
};

}  // namespace galaxy
