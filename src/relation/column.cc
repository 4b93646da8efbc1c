#include "relation/column.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace galaxy {

namespace {

// Smallest buffer a column allocates; also the floor of every doubling.
constexpr size_t kMinCapacity = 16;

constexpr uint64_t Bit(size_t i) { return uint64_t{1} << (i & 63); }

// Copies validity bits [begin, end) of `src` to `dst` from bit `at` on.
// `dst` is a fresh bitmap (all zero past what was copied so far). Bits of
// `src` past `end` may belong to a newer version and are never copied.
void CopyBits(const std::atomic<uint64_t>* src, size_t begin, size_t end,
              std::atomic<uint64_t>* dst, size_t at) {
  if (begin % 64 == 0 && at % 64 == 0) {
    for (; begin + 64 <= end; begin += 64, at += 64) {
      dst[at >> 6].store(src[begin >> 6].load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
    }
  }
  for (; begin < end; ++begin, ++at) {
    if ((src[begin >> 6].load(std::memory_order_relaxed) & Bit(begin)) != 0) {
      std::atomic<uint64_t>& word = dst[at >> 6];
      word.store(word.load(std::memory_order_relaxed) | Bit(at),
                 std::memory_order_relaxed);
    }
  }
}

template <typename T>
void CopySlots(T* src, size_t begin, size_t end, T* dst, bool steal) {
  if (steal) {
    std::uninitialized_move(src + begin, src + end, dst);
  } else {
    std::uninitialized_copy(src + begin, src + end, dst);
  }
}

}  // namespace

// The storage one or more column versions share. Slots [0, committed) are
// constructed; a slot is written once, by the version that claimed it, and
// never again. Capacity is fixed for the buffer's lifetime.
struct Column::Buffer {
  Buffer(ValueType value_type, size_t slots)
      : type(value_type), capacity(slots) {
    switch (type) {
      case ValueType::kNull:
        break;
      case ValueType::kInt64:
        ints = std::allocator<int64_t>().allocate(capacity);
        break;
      case ValueType::kDouble:
        doubles = std::allocator<double>().allocate(capacity);
        break;
      case ValueType::kString:
        strings = std::allocator<std::string>().allocate(capacity);
        break;
    }
  }

  ~Buffer() {
    if (ints != nullptr) std::allocator<int64_t>().deallocate(ints, capacity);
    if (doubles != nullptr) {
      std::allocator<double>().deallocate(doubles, capacity);
    }
    if (strings != nullptr) {
      std::destroy_n(strings, committed.load(std::memory_order_relaxed));
      std::allocator<std::string>().deallocate(strings, capacity);
    }
  }

  Buffer(const Buffer&) = delete;
  Buffer& operator=(const Buffer&) = delete;

  void AddBitmap() {
    valid = std::make_unique<std::atomic<uint64_t>[]>(capacity / 64 + 1);
  }

  // Copies slots [begin, end) of `src` into this buffer from slot `at` on.
  void CopyPayload(Buffer& src, size_t begin, size_t end, size_t at,
                   bool steal) {
    switch (type) {
      case ValueType::kNull:
        break;
      case ValueType::kInt64:
        CopySlots(src.ints, begin, end, ints + at, steal);
        break;
      case ValueType::kDouble:
        CopySlots(src.doubles, begin, end, doubles + at, steal);
        break;
      case ValueType::kString:
        CopySlots(src.strings, begin, end, strings + at, steal);
        break;
    }
  }

  const ValueType type;
  const size_t capacity;
  // Length of the longest version: the next append at the tip claims slot
  // `committed` by CAS.
  std::atomic<size_t> committed{0};
  // Set by the first copy of a column holding this buffer; never cleared.
  // While false the one owner appends with plain stores.
  std::atomic<bool> shared{false};
  int64_t* ints = nullptr;
  double* doubles = nullptr;
  std::string* strings = nullptr;
  // capacity/64 + 1 words, or null while no version has held a NULL.
  std::unique_ptr<std::atomic<uint64_t>[]> valid;
};

Column::Column(const Column& other)
    : type_(other.type_),
      size_(other.size_),
      null_count_(other.null_count_),
      buf_(other.buf_),
      valid_(other.valid_) {
  if (buf_ != nullptr) buf_->shared.store(true, std::memory_order_relaxed);
}

Column& Column::operator=(const Column& other) {
  if (this != &other) *this = Column(other);
  return *this;
}

Column::Column(Column&& other) noexcept
    : type_(other.type_),
      size_(std::exchange(other.size_, 0)),
      null_count_(std::exchange(other.null_count_, 0)),
      buf_(std::move(other.buf_)),
      valid_(std::exchange(other.valid_, nullptr)) {}

Column& Column::operator=(Column&& other) noexcept {
  type_ = other.type_;
  size_ = std::exchange(other.size_, 0);
  null_count_ = std::exchange(other.null_count_, 0);
  buf_ = std::move(other.buf_);
  valid_ = std::exchange(other.valid_, nullptr);
  return *this;
}

void Column::Reserve(size_t n) {
  if (buf_ != nullptr && (buf_->shared.load(std::memory_order_relaxed) ||
                          n <= buf_->capacity)) {
    return;
  }
  Rebuffer(std::max(n, kMinCapacity), /*steal=*/true);
}

void Column::Rebuffer(size_t capacity, bool steal) {
  auto next = std::make_shared<Buffer>(type_, capacity);
  if (buf_ != nullptr) {
    next->CopyPayload(*buf_, 0, size_, 0, steal);
    if (null_count_ > 0) {
      next->AddBitmap();
      CopyBits(valid_, 0, size_, next->valid.get(), 0);
    }
  }
  next->committed.store(size_, std::memory_order_relaxed);
  buf_ = std::move(next);
  valid_ = buf_->valid.get();
}

void Column::BeginAppend(bool valid) {
  bool claimed = false;
  if (buf_ != nullptr && buf_->shared.load(std::memory_order_relaxed)) {
    // Shared: write in place only at the tip, with room left and (for a
    // NULL) a bitmap already there; anything else copies this version.
    size_t tip = size_;
    claimed = size_ < buf_->capacity && (valid || valid_ != nullptr) &&
              buf_->committed.compare_exchange_strong(
                  tip, size_ + 1, std::memory_order_relaxed);
    if (!claimed) Rebuffer(std::max(2 * size_, kMinCapacity), /*steal=*/false);
  } else if (buf_ == nullptr || size_ == buf_->capacity) {
    Rebuffer(std::max(2 * size_, kMinCapacity), /*steal=*/true);
  }
  if (!claimed) {
    // Sole owner of buf_ from here on.
    if (!valid && valid_ == nullptr) {
      // First NULL: materialize the bitmap, all ones for the rows so far.
      buf_->AddBitmap();
      valid_ = buf_->valid.get();
      for (size_t w = 0; w < size_ / 64; ++w) {
        buf_->valid[w].store(~uint64_t{0}, std::memory_order_relaxed);
      }
      if (size_ % 64 != 0) {
        buf_->valid[size_ / 64].store(Bit(size_) - 1,
                                      std::memory_order_relaxed);
      }
    }
    buf_->committed.store(size_ + 1, std::memory_order_relaxed);
  }
  if (valid) {
    if (valid_ != nullptr) {
      std::atomic<uint64_t>& word = buf_->valid[size_ >> 6];
      word.store(word.load(std::memory_order_relaxed) | Bit(size_),
                 std::memory_order_relaxed);
    }
  } else {
    ++null_count_;
  }
  ++size_;
}

void Column::AppendNull() {
  BeginAppend(/*valid=*/false);
  const size_t i = size_ - 1;
  switch (type_) {
    case ValueType::kNull:
      break;
    case ValueType::kInt64:
      std::construct_at(buf_->ints + i, 0);
      break;
    case ValueType::kDouble:
      std::construct_at(buf_->doubles + i, 0.0);
      break;
    case ValueType::kString:
      std::construct_at(buf_->strings + i);
      break;
  }
}

void Column::AppendInt64(int64_t v) {
  GALAXY_CHECK(type_ == ValueType::kInt64);
  BeginAppend(/*valid=*/true);
  std::construct_at(buf_->ints + size_ - 1, v);
}

void Column::AppendDouble(double v) {
  GALAXY_CHECK(type_ == ValueType::kDouble);
  BeginAppend(/*valid=*/true);
  std::construct_at(buf_->doubles + size_ - 1, v);
}

void Column::AppendString(std::string v) {
  GALAXY_CHECK(type_ == ValueType::kString);
  BeginAppend(/*valid=*/true);
  std::construct_at(buf_->strings + size_ - 1, std::move(v));
}

void Column::AppendValue(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return;
  }
  if (type_ == ValueType::kDouble && v.type() == ValueType::kInt64) {
    AppendDouble(static_cast<double>(v.AsInt64()));
    return;
  }
  switch (v.type()) {
    case ValueType::kInt64:
      AppendInt64(v.AsInt64());
      return;
    case ValueType::kDouble:
      AppendDouble(v.AsDouble());
      return;
    case ValueType::kString:
      AppendString(v.AsString());
      return;
    case ValueType::kNull:
      return;  // handled above
  }
}

Value Column::GetValue(size_t i) const {
  if (is_null(i) || type_ == ValueType::kNull) return Value::Null();
  switch (type_) {
    case ValueType::kInt64:
      return Value(buf_->ints[i]);
    case ValueType::kDouble:
      return Value(buf_->doubles[i]);
    case ValueType::kString:
      return Value(buf_->strings[i]);
    case ValueType::kNull:
      break;
  }
  return Value::Null();
}

Column Column::CopyWithout(size_t i) const {
  GALAXY_CHECK_LT(i, size_);
  Column out{type_};
  out.size_ = size_ - 1;
  out.null_count_ = null_count_ - (is_null(i) ? 1 : 0);
  out.buf_ = std::make_shared<Buffer>(
      type_, std::max(2 * out.size_, kMinCapacity));
  out.buf_->CopyPayload(*buf_, 0, i, 0, /*steal=*/false);
  out.buf_->CopyPayload(*buf_, i + 1, size_, i, /*steal=*/false);
  if (out.null_count_ > 0) {
    out.buf_->AddBitmap();
    CopyBits(valid_, 0, i, out.buf_->valid.get(), 0);
    CopyBits(valid_, i + 1, size_, out.buf_->valid.get(), i);
  }
  out.buf_->committed.store(out.size_, std::memory_order_relaxed);
  out.valid_ = out.buf_->valid.get();
  return out;
}

std::span<const int64_t> Column::ints() const {
  GALAXY_CHECK(type_ == ValueType::kInt64);
  return {buf_ != nullptr ? buf_->ints : nullptr, size_};
}

std::span<const double> Column::doubles() const {
  GALAXY_CHECK(type_ == ValueType::kDouble);
  return {buf_ != nullptr ? buf_->doubles : nullptr, size_};
}

std::span<const std::string> Column::strings() const {
  GALAXY_CHECK(type_ == ValueType::kString);
  return {buf_ != nullptr ? buf_->strings : nullptr, size_};
}

Status ValueColumnBuilder::Append(const Value& v) {
  if (v.is_null()) {
    column_.AppendNull();
    return Status::OK();
  }
  if (column_.type() == ValueType::kNull) {
    // First non-null value fixes the column type; re-box the NULL prefix.
    Column typed{v.type()};
    typed.Reserve(column_.size() + 1);
    for (size_t i = 0; i < column_.size(); ++i) typed.AppendNull();
    column_ = std::move(typed);
    column_.AppendValue(v);
    return Status::OK();
  }
  if (column_.type() == ValueType::kInt64 && v.type() == ValueType::kDouble) {
    // Widen the whole column to double, preserving the validity bitmap.
    Column widened{ValueType::kDouble};
    widened.Reserve(column_.size() + 1);
    std::span<const int64_t> ints = column_.ints();
    for (size_t i = 0; i < column_.size(); ++i) {
      if (column_.is_null(i)) {
        widened.AppendNull();
      } else {
        widened.AppendDouble(static_cast<double>(ints[i]));
      }
    }
    column_ = std::move(widened);
    column_.AppendDouble(v.AsDouble());
    return Status::OK();
  }
  bool accepts =
      column_.type() == v.type() ||
      (column_.type() == ValueType::kDouble && v.type() == ValueType::kInt64);
  if (!accepts) {
    return Status::TypeError("column '" + name_ + "' expects " +
                             ValueTypeToString(column_.type()) + ", got " +
                             ValueTypeToString(v.type()));
  }
  column_.AppendValue(v);
  return Status::OK();
}

Column ValueColumnBuilder::Build(ValueType fallback_type) && {
  if (column_.type() != ValueType::kNull || fallback_type == ValueType::kNull) {
    return std::move(column_);
  }
  Column typed{fallback_type};
  for (size_t i = 0; i < column_.size(); ++i) typed.AppendNull();
  return typed;
}

}  // namespace galaxy
